//! `lint.toml` loading.
//!
//! A deliberately small TOML subset — `[section]` headers, `key =
//! "string"` and `key = ["a", "b"]` — parsed by hand because the
//! container pins the dependency set and the config grammar is tiny.
//! Unknown sections and keys are rejected so typos fail loudly instead
//! of silently disabling a rule.

use std::fmt;
use std::path::Path;

/// Analyzer configuration, normally loaded from `lint.toml` at the
/// workspace root.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Directories (workspace-relative) to scan for `.rs` files.
    pub include: Vec<String>,
    /// Path prefixes to skip (fixtures, vendored compat crates, target).
    pub exclude: Vec<String>,
    /// Receiver identifiers that denote the persistent MMIO region
    /// (e.g. `pmr` in `self.inner.pmr.write(...)`).
    pub pmr_receivers: Vec<String>,
    /// First-argument identifier tokens that mark a P-SQ store as a
    /// doorbell ring (e.g. `db_off` in `pmr.write(q.db_off, …)`).
    pub doorbell_args: Vec<String>,
    /// Field/variable names of persistence-critical atomics on which
    /// `Ordering::Relaxed` is forbidden outright.
    pub critical_atomics: Vec<String>,
    /// Allowed metric-name prefixes (the `ccnvme-metrics/v1` namespace).
    pub metric_prefixes: Vec<String>,
    /// Receiver identifiers that denote a strictly-observational sink
    /// (the blackbox flight recorder).
    pub observer_receivers: Vec<String>,
    /// The only methods callable on an observer receiver outside test
    /// code: posted writes, which can never add an ordering edge.
    pub observer_posted: Vec<String>,
    /// Trait/dyn method names the effect analysis resolves to *every*
    /// same-named impl (may-dispatch), since a trait-object call site
    /// names no concrete target.
    pub trait_methods: Vec<String>,
    /// Functions that register a closure to run on a concurrent path
    /// (thread spawns, write-hook installers): closures passed to
    /// them are analyzed as spawned, not sequential.
    pub spawn_fns: Vec<String>,
    /// Source location of every configured value, as
    /// (`section.key`, value, 1-based line). Populated by [`Config::parse`];
    /// the staleness rule uses it to point findings at `lint.toml`
    /// lines.
    pub value_lines: Vec<(String, String, usize)>,
}

/// A configuration-load failure (I/O or syntax).
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// The checked-in workspace configuration, built into the binary.
const WORKSPACE_TOML: &str = include_str!("../../../lint.toml");

impl Default for Config {
    /// The checked-in `lint.toml`, the one home of the defaults.
    fn default() -> Self {
        Config::parse(WORKSPACE_TOML).expect("the checked-in lint.toml parses")
    }
}

impl Config {
    /// Loads and parses a `lint.toml` file.
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("{}: {e}", path.display())))?;
        Config::parse(&text)
    }

    /// 1-based `lint.toml` line where `value` is configured under
    /// `section.key` (1 when unknown).
    pub fn line_for(&self, section_key: &str, value: &str) -> usize {
        self.value_lines
            .iter()
            .find(|(k, v, _)| k == section_key && v == value)
            .map(|&(_, _, l)| l)
            .unwrap_or(1)
    }

    /// Parses `lint.toml` text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config {
            include: vec![],
            exclude: vec![],
            pmr_receivers: vec![],
            doorbell_args: vec![],
            critical_atomics: vec![],
            metric_prefixes: vec![],
            observer_receivers: vec![],
            observer_posted: vec![],
            trait_methods: vec![],
            spawn_fns: vec![],
            value_lines: vec![],
        };
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest.strip_suffix(']').ok_or_else(|| {
                    ConfigError(format!("line {lineno}: unterminated section header"))
                })?;
                section = name.trim().to_string();
                match section.as_str() {
                    "paths" | "persist_order" | "atomic_ordering" | "metric_namespace"
                    | "observer" | "concurrency" => {}
                    other => {
                        return Err(ConfigError(format!(
                            "line {lineno}: unknown section [{other}]"
                        )))
                    }
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| ConfigError(format!("line {lineno}: expected `key = value`")))?;
            let key = key.trim();
            let values = parse_value(value.trim())
                .map_err(|e| ConfigError(format!("line {lineno}: {e}")))?;
            let slot = match (section.as_str(), key) {
                ("paths", "include") => &mut cfg.include,
                ("paths", "exclude") => &mut cfg.exclude,
                ("persist_order", "pmr_receivers") => &mut cfg.pmr_receivers,
                ("persist_order", "doorbell_args") => &mut cfg.doorbell_args,
                ("persist_order", "trait_methods") => &mut cfg.trait_methods,
                ("atomic_ordering", "critical") => &mut cfg.critical_atomics,
                ("metric_namespace", "prefixes") => &mut cfg.metric_prefixes,
                ("observer", "receivers") => &mut cfg.observer_receivers,
                ("observer", "posted") => &mut cfg.observer_posted,
                ("concurrency", "spawn_fns") => &mut cfg.spawn_fns,
                (s, k) => {
                    return Err(ConfigError(format!(
                        "line {lineno}: unknown key `{k}` in [{s}]"
                    )))
                }
            };
            for v in &values {
                cfg.value_lines
                    .push((format!("{section}.{key}"), v.clone(), lineno));
            }
            *slot = values;
        }
        Ok(cfg)
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Parses `"a"` or `["a", "b"]` into a list of strings.
fn parse_value(v: &str) -> Result<Vec<String>, String> {
    if let Some(inner) = v.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut out = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            out.push(parse_string(part)?);
        }
        Ok(out)
    } else {
        Ok(vec![parse_string(v)?])
    }
}

/// Splits on commas (no nesting needed: values are flat string arrays).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn parse_string(s: &str) -> Result<String, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("expected quoted string, got `{s}`"))?;
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = r#"
# workspace lint config
[paths]
include = ["crates", "src"]
exclude = ["target"]

[persist_order]
pmr_receivers = ["pmr"]
doorbell_args = ["db_off"]

[atomic_ordering]
critical = ["next_tx", "aborted"]

[metric_namespace]
prefixes = ["pcie.", "ssd."]

[observer]
receivers = ["bb"]
posted = ["append", "post"]
"#;
        let c = Config::parse(text).unwrap();
        assert_eq!(c.include, vec!["crates", "src"]);
        assert_eq!(c.exclude, vec!["target"]);
        assert_eq!(c.pmr_receivers, vec!["pmr"]);
        assert_eq!(c.doorbell_args, vec!["db_off"]);
        assert_eq!(c.critical_atomics, vec!["next_tx", "aborted"]);
        assert_eq!(c.metric_prefixes, vec!["pcie.", "ssd."]);
        assert_eq!(c.observer_receivers, vec!["bb"]);
        assert_eq!(c.observer_posted, vec!["append", "post"]);
    }

    #[test]
    fn rejects_unknown_section_and_key() {
        assert!(Config::parse("[nope]\n").is_err());
        assert!(Config::parse("[paths]\nfoo = \"x\"\n").is_err());
    }

    #[test]
    fn rejects_unquoted_values() {
        assert!(Config::parse("[paths]\ninclude = [crates]\n").is_err());
    }

    #[test]
    fn concurrency_and_trait_methods_with_lines() {
        let text = "[persist_order]\ntrait_methods = [\"post\"]\n\n[concurrency]\nspawn_fns = [\"spawn\", \"set_write_hook\"]\n\n[atomic_ordering]\ncritical = [\"next_tx\"]\n";
        let c = Config::parse(text).unwrap();
        assert_eq!(c.trait_methods, vec!["post"]);
        assert_eq!(c.spawn_fns, vec!["spawn", "set_write_hook"]);
        assert_eq!(c.line_for("atomic_ordering.critical", "next_tx"), 8);
        assert_eq!(c.line_for("atomic_ordering.critical", "nope"), 1);
    }

    #[test]
    fn default_is_the_checked_in_lint_toml() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml");
        let file = Config::load(&path).unwrap();
        let c = Config::default();
        assert_eq!(c, file);
        assert!(c.spawn_fns.iter().any(|f| f == "spawn_daemons"));
        assert!(c.critical_atomics.iter().any(|a| a == "next_tx"));
    }
}
