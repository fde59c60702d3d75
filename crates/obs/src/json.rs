//! A minimal JSON parser and the `ccnvme-metrics/v1` schema validator.
//!
//! The build environment has no registry access, so there is no serde;
//! this hand-rolled parser covers the full JSON grammar (objects,
//! arrays, strings with escapes, numbers, booleans, null) and exists so
//! `scripts/bench_smoke.sh` can schema-check the metrics documents the
//! bench binaries emit, with no Python or external tooling required.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64; integral metric values round-trip
    /// exactly up to 2^53, far beyond any simulated counter).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order preserved lexicographically).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Returns the object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Looks up `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err("short \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape \\{}", c as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            map.insert(key, val);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }
}

/// The schema identifier emitted by
/// [`crate::MetricsSnapshot::to_json`].
pub const SCHEMA_ID: &str = "ccnvme-metrics/v1";

const HIST_FIELDS: [&str; 9] = [
    "count", "sum", "mean", "min", "max", "p50", "p95", "p99", "stddev",
];

/// Metric-name namespace roots of the instrumented stack (mirrored in
/// `lint.toml [metric_namespace]`): every metric in a
/// `ccnvme-metrics/v1` document must be rooted in one of these, possibly
/// behind run prefixes added by [`crate::MetricsSnapshot::prefixed`]
/// (e.g. `run003.fabric.clients4.` + `mqfs.fsyncs`).
pub const NAMESPACE_ROOTS: &[&str] = &[
    "pcie.",
    "ssd.",
    "host_err.",
    "fault.",
    "ccnvme.",
    "nvme.",
    "journal.",
    "mqfs.",
    "crashenum.",
    "fabric.",
    "cluster.",
    "ploc.",
    "obs.",
    "blackbox.",
    "forensics.",
];

/// Whether `name`, or any of its dot-separated suffixes (to skip run
/// prefixes), starts with a known namespace root.
fn rooted(name: &str) -> bool {
    let mut s = name;
    loop {
        if NAMESPACE_ROOTS.iter().any(|r| s.starts_with(r)) {
            return true;
        }
        match s.find('.') {
            Some(i) => s = &s[i + 1..],
            None => return false,
        }
    }
}

/// Validates a `ccnvme-metrics/v1` document: top-level object with the
/// schema marker; `counters` (non-negative integers), `gauges`
/// (integers) and `histograms` (objects carrying all of
/// count/sum/mean/min/max/p50/p95/p99/stddev as numbers, with ordered
/// percentiles). Every metric name must be rooted in a
/// [`NAMESPACE_ROOTS`] namespace (run prefixes allowed).
pub fn validate_metrics(doc: &str) -> Result<(), String> {
    let v = Json::parse(doc)?;
    let obj = v.as_obj().ok_or("top level must be an object")?;
    match v.get("schema").and_then(Json::as_str) {
        Some(SCHEMA_ID) => {}
        Some(other) => return Err(format!("unknown schema {other:?}")),
        None => return Err("missing \"schema\" marker".into()),
    }
    for section in ["counters", "gauges", "histograms"] {
        if obj.get(section).and_then(Json::as_obj).is_none() {
            return Err(format!("missing or non-object section {section:?}"));
        }
    }
    for section in ["counters", "gauges", "histograms"] {
        for name in v.get(section).unwrap().as_obj().unwrap().keys() {
            if !rooted(name) {
                return Err(format!(
                    "{section} name {name:?} is outside every metric namespace root"
                ));
            }
        }
    }
    for (name, val) in v.get("counters").unwrap().as_obj().unwrap() {
        let n = val
            .as_num()
            .ok_or_else(|| format!("counter {name:?} is not a number"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("counter {name:?} must be a non-negative integer"));
        }
    }
    for (name, val) in v.get("gauges").unwrap().as_obj().unwrap() {
        let n = val
            .as_num()
            .ok_or_else(|| format!("gauge {name:?} is not a number"))?;
        if n.fract() != 0.0 {
            return Err(format!("gauge {name:?} must be an integer"));
        }
    }
    for (name, val) in v.get("histograms").unwrap().as_obj().unwrap() {
        let h = val
            .as_obj()
            .ok_or_else(|| format!("histogram {name:?} is not an object"))?;
        for field in HIST_FIELDS {
            if h.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("histogram {name:?} missing numeric {field:?}"));
            }
        }
        let q = |f: &str| h.get(f).unwrap().as_num().unwrap();
        if !(q("p50") <= q("p95") && q("p95") <= q("p99") && q("p99") <= q("max")) {
            return Err(format!("histogram {name:?} has disordered percentiles"));
        }
        if q("count") > 0.0 && q("min") > q("max") {
            return Err(format!("histogram {name:?} has min > max"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny A"}, "d": true, "e": null}"#)
            .unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny A")
        );
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\": 1} x",
            "\"unterminated",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validator_accepts_minimal_document() {
        let doc = r#"{"schema": "ccnvme-metrics/v1",
                      "counters": {"fabric.commits": 3},
                      "gauges": {"ccnvme.q0.depth": -1},
                      "histograms": {"ssd.service_ns": {"count": 2, "sum": 30, "mean": 15.0,
                                                        "min": 10, "max": 20, "p50": 10,
                                                        "p95": 20, "p99": 20, "stddev": 5.0}}}"#;
        validate_metrics(doc).unwrap();
    }

    #[test]
    fn validator_rejects_schema_violations() {
        let missing_schema = r#"{"counters": {}, "gauges": {}, "histograms": {}}"#;
        assert!(validate_metrics(missing_schema).is_err());
        let bad_counter = r#"{"schema": "ccnvme-metrics/v1",
                              "counters": {"mqfs.ops": -1}, "gauges": {}, "histograms": {}}"#;
        assert!(validate_metrics(bad_counter).unwrap_err().contains("ops"));
        let bad_hist = r#"{"schema": "ccnvme-metrics/v1", "counters": {}, "gauges": {},
                           "histograms": {"ssd.lat": {"count": 1}}}"#;
        assert!(validate_metrics(bad_hist).is_err());
        let disordered = r#"{"schema": "ccnvme-metrics/v1", "counters": {}, "gauges": {},
                             "histograms": {"ssd.lat": {"count": 2, "sum": 30, "mean": 15.0,
                                                        "min": 10, "max": 20, "p50": 25,
                                                        "p95": 20, "p99": 20, "stddev": 5.0}}}"#;
        assert!(validate_metrics(disordered)
            .unwrap_err()
            .contains("disordered"));
    }

    #[test]
    fn validator_rejects_unrooted_metric_names() {
        let stray = r#"{"schema": "ccnvme-metrics/v1",
                        "counters": {"ops": 1}, "gauges": {}, "histograms": {}}"#;
        assert!(validate_metrics(stray)
            .unwrap_err()
            .contains("outside every metric namespace root"));
        // Run prefixes in front of a rooted name are fine.
        let prefixed = r#"{"schema": "ccnvme-metrics/v1",
                           "counters": {"run003.fabric.clients4.mqfs.fsyncs": 1},
                           "gauges": {}, "histograms": {}}"#;
        validate_metrics(prefixed).unwrap();
    }
}
