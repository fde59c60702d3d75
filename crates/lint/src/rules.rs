//! The protocol-invariant rules.
//!
//! * `persist-order` — every doorbell ring must be dominated by a
//!   P-SQ `flush()` on *every* path from a `// ccnvme-lint:
//!   commit_path` entry (ccNVMe §4.3: SQE stores → write-combining
//!   drain → P-SQDB ring). Checked path-sensitively over the
//!   interprocedural effect summaries from [`crate::summary`]; the
//!   offending path is printed. Doorbells not reachable from any
//!   entry are reported as unauditable.
//! * `static-race` — a critical atomic written on a sequential summary
//!   path must not be read `Ordering::Relaxed` on a
//!   concurrently-registered callback path.
//! * `atomic-ordering` — `Ordering::Relaxed` is forbidden on
//!   persistence-critical atomics, and every ordering site needs a
//!   `// ord:` justification.
//! * `unsafe-audit` — every `unsafe` block/impl/fn needs a
//!   `// SAFETY:` (or `# Safety` doc) comment.
//! * `metric-namespace` — metric name literals must live in the
//!   `ccnvme-metrics/v1` namespace (DESIGN.md §9).
//! * `observer-purity` — on an observer receiver (the blackbox flight
//!   recorder) only configured *posted* methods may be called outside
//!   test code, checked over the effect IR so closures and helpers
//!   are covered.
//! * `config-staleness` (whole-tree runs only) — identifiers listed in
//!   `lint.toml` must still exist in the workspace source.

use std::collections::HashSet;

use crate::config::Config;
use crate::effects::{render_path, Effect, EffectKind};
use crate::ir::{parse_body, Node};
use crate::lexer::Lexed;
use crate::model::{allowed, FileModel};
use crate::summary::{Engine, FuncIr, UnitIr};
use crate::{Finding, RuleId};

/// One lexed + modeled file, keyed by its display path.
pub struct Unit {
    /// Display path (workspace-relative where possible).
    pub path: String,
    /// Raw source text.
    pub src: String,
    /// Lexical planes.
    pub lexed: Lexed,
    /// Function/event model.
    pub model: FileModel,
}

/// Runs every rule over the unit set (partial-set mode: whole-tree-only
/// rules are skipped).
pub fn run_all(units: &[Unit], cfg: &Config) -> Vec<Finding> {
    run_all_with(units, cfg, false)
}

/// Runs every rule over the unit set. `whole_tree` enables the rules
/// that need the full workspace in view (config staleness).
pub fn run_all_with(units: &[Unit], cfg: &Config, whole_tree: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    for u in units {
        atomic_ordering(u, cfg, &mut findings);
        unsafe_audit(u, &mut findings);
        metric_namespace(u, cfg, &mut findings);
    }
    // Build the effect IR once; the summary-based rules share it.
    let unit_irs: Vec<UnitIr> = units
        .iter()
        .map(|u| UnitIr {
            funcs: u
                .model
                .funcs
                .iter()
                .map(|f| FuncIr {
                    name: f.name.clone(),
                    line: f.line,
                    in_test: f.in_test,
                    commit_path: f.commit_path,
                    ir: parse_body(&u.lexed, cfg, f.body.0, f.body.1),
                })
                .collect(),
        })
        .collect();
    let mut engine = Engine::new(&unit_irs, cfg);
    observer_purity(units, &unit_irs, cfg, &mut findings);
    persist_order(units, &unit_irs, &mut engine, &mut findings);
    static_race(units, &unit_irs, &mut engine, &mut findings);
    if whole_tree {
        config_staleness(units, cfg, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    findings
}

fn is_ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

// ---------------------------------------------------------------- atomic

/// `atomic-ordering`: every `Ordering::` site outside test code needs a
/// `// ord:` justification, and `Relaxed` is flatly forbidden when the
/// statement touches a persistence-critical atomic.
fn atomic_ordering(u: &Unit, cfg: &Config, out: &mut Vec<Finding>) {
    let masked = &u.lexed.masked;
    let mut search = 0usize;
    let mut flagged_lines: HashSet<usize> = HashSet::new();
    while let Some(rel) = masked[search..].find("Ordering::") {
        let at = search + rel;
        search = at + "Ordering::".len();
        if u.model.offset_in_test(at) {
            continue;
        }
        let line1 = u.lexed.line_of(at);
        if allowed(&u.lexed, "atomic-ordering", line1) {
            continue;
        }
        // Which ordering?
        let after = &masked[search..];
        let ord_name: String = after
            .bytes()
            .take_while(|&b| is_ident_char(b))
            .map(|b| b as char)
            .collect();
        if ord_name == "Relaxed" {
            // Look back over the joined statement (up to 3 lines) for a
            // critical atomic identifier.
            if let Some(ident) = critical_ident_nearby(u, at, cfg) {
                out.push(Finding {
                    rule: RuleId::AtomicOrdering,
                    file: u.path.clone(),
                    line: line1,
                    message: format!(
                        "Ordering::Relaxed on persistence-critical atomic `{ident}` — \
                         the §4.3 ordering contract requires at least Acquire/Release here"
                    ),
                });
                flagged_lines.insert(line1);
                continue;
            }
        }
        // Justification: `// ord:` on the same line or in the
        // contiguous comment block above.
        let justified = crate::model::comment_block_contains(&u.lexed, line1, "ord:");
        if !justified && flagged_lines.insert(line1) {
            out.push(Finding {
                rule: RuleId::AtomicOrdering,
                file: u.path.clone(),
                line: line1,
                message: format!("Ordering::{ord_name} without an `// ord:` justification comment"),
            });
        }
    }
}

/// Looks back ≤3 lines from the `Ordering::` site for a configured
/// persistence-critical atomic identifier in the same statement.
fn critical_ident_nearby(u: &Unit, at: usize, cfg: &Config) -> Option<String> {
    let line1 = u.lexed.line_of(at);
    let first = line1.saturating_sub(3).max(1);
    let start = u.lexed.line_starts[first - 1];
    let end = u
        .lexed
        .line_starts
        .get(line1)
        .copied()
        .unwrap_or(u.lexed.masked.len());
    let window = &u.lexed.masked[start..end.min(u.lexed.masked.len())];
    let wb = window.as_bytes();
    let mut tok = String::new();
    let mut found = None;
    for &c in wb {
        if is_ident_char(c) {
            tok.push(c as char);
        } else {
            if cfg.critical_atomics.contains(&tok) {
                found = Some(tok.clone());
            }
            tok.clear();
        }
    }
    if cfg.critical_atomics.contains(&tok) {
        found = Some(tok);
    }
    found
}

// ---------------------------------------------------------------- unsafe

/// `unsafe-audit`: every `unsafe` keyword site (block, fn, impl) needs
/// a `SAFETY:` comment on the same line or in the contiguous comment
/// block directly above. Applies to test code too — unsound is unsound.
fn unsafe_audit(u: &Unit, out: &mut Vec<Finding>) {
    let masked = u.lexed.masked.as_bytes();
    let text = &u.lexed.masked;
    let mut search = 0usize;
    while let Some(rel) = text[search..].find("unsafe") {
        let at = search + rel;
        search = at + "unsafe".len();
        // Whole-word check.
        if (at > 0 && is_ident_char(masked[at - 1]))
            || masked
                .get(at + "unsafe".len())
                .is_some_and(|&b| is_ident_char(b))
        {
            continue;
        }
        let line1 = u.lexed.line_of(at);
        if allowed(&u.lexed, "unsafe-audit", line1) {
            continue;
        }
        if has_safety_comment(u, line1) {
            continue;
        }
        out.push(Finding {
            rule: RuleId::UnsafeAudit,
            file: u.path.clone(),
            line: line1,
            message: "unsafe without a `// SAFETY:` comment explaining the invariant".into(),
        });
    }
}

/// SAFETY comment: same line, or anywhere in the contiguous run of
/// comment/attribute lines directly above.
fn has_safety_comment(u: &Unit, line1: usize) -> bool {
    let has = |l: usize| {
        let c = u.lexed.comment_on(l);
        c.contains("SAFETY:") || c.contains("# Safety")
    };
    if has(line1) {
        return true;
    }
    let mut l = line1;
    while l > 1 {
        l -= 1;
        if has(l) {
            return true;
        }
        let start = u.lexed.line_starts[l - 1];
        let end = u
            .lexed
            .line_starts
            .get(l)
            .copied()
            .unwrap_or(u.lexed.masked.len());
        let code = u.lexed.masked[start..end].trim();
        let raw = u.src[start..end.min(u.src.len())].trim_start();
        let skippable = (code.is_empty()
            && !raw.is_empty()
            && (raw.starts_with("//") || raw.starts_with("/*") || raw.starts_with('*')))
            || code.starts_with("#[");
        if !skippable {
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------- metric

const METRIC_CTORS: &[&str] = &[".counter(", ".gauge(", ".histogram(", ".adopt_counter("];

/// `metric-namespace`: the first argument of registry constructors must
/// be a literal in the configured namespace. `format!("…")` names are
/// checked with `{…}` interpolations treated as wildcards; fully
/// dynamic names are skipped (can't be checked statically).
fn metric_namespace(u: &Unit, cfg: &Config, out: &mut Vec<Finding>) {
    let text = &u.lexed.masked;
    for ctor in METRIC_CTORS {
        let mut search = 0usize;
        while let Some(rel) = text[search..].find(ctor) {
            let at = search + rel;
            search = at + ctor.len();
            if u.model.offset_in_test(at) {
                continue;
            }
            // First argument start: skip whitespace, `&`, `format!(`.
            let mut j = at + ctor.len();
            let b = text.as_bytes();
            loop {
                while j < b.len() && (b[j] as char).is_whitespace() {
                    j += 1;
                }
                if j < b.len() && b[j] == b'&' {
                    j += 1;
                    continue;
                }
                if text[j..].starts_with("format!") {
                    j += "format!".len();
                    while j < b.len() && (b[j] as char).is_whitespace() {
                        j += 1;
                    }
                    if j < b.len() && (b[j] == b'(' || b[j] == b'[') {
                        j += 1;
                    }
                    continue;
                }
                break;
            }
            let Some(lit) = u.lexed.string_at(j) else {
                continue; // dynamic name — not statically checkable
            };
            let line1 = lit.line;
            if allowed(&u.lexed, "metric-namespace", line1) {
                continue;
            }
            let name = wildcard_interpolations(&lit.content);
            if !cfg
                .metric_prefixes
                .iter()
                .any(|p| name.starts_with(p.as_str()))
            {
                out.push(Finding {
                    rule: RuleId::MetricNamespace,
                    file: u.path.clone(),
                    line: line1,
                    message: format!(
                        "metric name \"{}\" is outside the ccnvme-metrics/v1 namespace \
                         (allowed prefixes: {})",
                        lit.content,
                        cfg.metric_prefixes.join(", ")
                    ),
                });
            }
        }
    }
}

/// Replaces `{…}` interpolations with `*` so prefix checks see only the
/// static part of a `format!` name.
fn wildcard_interpolations(s: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in s.chars() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    out.push('*');
                }
            }
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------- observer

/// `observer-purity`: every method call whose receiver is a configured
/// observer identifier must be one of the configured posted methods.
/// The flight recorder is strictly observational by construction — its
/// sink is write-only — and this rule keeps it that way at the call
/// sites: no `flush()`, no reads, no doorbells on the hot path.
/// Checked over the effect IR, so calls inside closures, spawn bodies
/// and branch arms are all covered.
fn observer_purity(units: &[Unit], unit_irs: &[UnitIr], cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.observer_receivers.is_empty() {
        return;
    }
    for (ui, uir) in unit_irs.iter().enumerate() {
        let u = &units[ui];
        for f in &uir.funcs {
            if f.in_test {
                continue;
            }
            observer_walk(&f.ir, u, cfg, out);
        }
    }
}

fn observer_walk(nodes: &[Node], u: &Unit, cfg: &Config, out: &mut Vec<Finding>) {
    for n in nodes {
        match n {
            Node::Eff {
                kind: EffectKind::Observer { recv, method },
                line,
            } => {
                if cfg.observer_posted.iter().any(|m| m == method)
                    || allowed(&u.lexed, "observer-purity", *line)
                {
                    continue;
                }
                out.push(Finding {
                    rule: RuleId::ObserverPurity,
                    file: u.path.clone(),
                    line: *line,
                    message: format!(
                        "non-posted call `{recv}.{method}()` on an observer receiver — \
                         the flight recorder may only post writes ({}), anything else \
                         adds an ordering edge to the protocol it observes",
                        cfg.observer_posted.join(", ")
                    ),
                });
            }
            Node::Branch { arms, .. } => {
                for a in arms {
                    observer_walk(a, u, cfg, out);
                }
            }
            Node::Loop { body } | Node::Closure { body } | Node::Spawn { body } => {
                observer_walk(body, u, cfg, out);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------- persist

/// `persist-order`, path-sensitively: enumerate the may-paths of every
/// `commit_path` entry's interprocedural summary and run the §4.3
/// flushed-state machine down each one — `flush()` (or a non-posted
/// PMR read, which PCIe ordering makes an equivalent drain) sets the
/// state, a posted P-SQ store clears it, a doorbell observed with the
/// state clear is a violation and the offending path is printed.
/// Suppression applies at the ring line or at any call site on the
/// effect's `via` chain.
///
/// A separate *structural* reachability pass (an IR walk, deliberately
/// not path enumeration, so path-cap widening cannot hide rings)
/// reports doorbells no entry point reaches — an unaudited ring is as
/// dangerous as an unflushed one.
fn persist_order(
    units: &[Unit],
    unit_irs: &[UnitIr],
    engine: &mut Engine<'_>,
    out: &mut Vec<Finding>,
) {
    // Pass 1: flushed-state machine over every root summary path.
    // Spawned sequences are checked too (from an unflushed start: a
    // concurrently-registered callback cannot lean on the sequential
    // path's flush).
    let mut flagged: HashSet<(usize, usize)> = HashSet::new();
    for (ui, uir) in unit_irs.iter().enumerate() {
        for (fi, f) in uir.funcs.iter().enumerate() {
            if !f.commit_path {
                continue;
            }
            let s = engine.summarize(ui, fi);
            for path in s.paths.iter().chain(s.spawned.iter()) {
                check_path(units, path, &mut flagged, out);
            }
        }
    }

    // Pass 2: structural doorbell reachability from the same roots.
    let mut visited: HashSet<(usize, usize)> = HashSet::new(); // (unit, line)
    let mut seen_funcs: HashSet<(usize, usize)> = HashSet::new();
    for (ui, uir) in unit_irs.iter().enumerate() {
        for (fi, f) in uir.funcs.iter().enumerate() {
            if f.commit_path && seen_funcs.insert((ui, fi)) {
                reach_bells(unit_irs, engine, ui, &f.ir, &mut seen_funcs, &mut visited);
            }
        }
    }

    // Pass 3: unreached doorbells (outside tests, not allow-suppressed).
    for (ui, uir) in unit_irs.iter().enumerate() {
        let u = &units[ui];
        for f in &uir.funcs {
            if f.in_test {
                continue;
            }
            let mut bells = Vec::new();
            collect_bells(&f.ir, &mut bells);
            for line in bells {
                if visited.contains(&(ui, line)) || allowed(&u.lexed, "persist-order", line) {
                    continue;
                }
                out.push(Finding {
                    rule: RuleId::PersistOrder,
                    file: u.path.clone(),
                    line,
                    message: format!(
                        "doorbell ring in `{}` is not reachable from any \
                         `// ccnvme-lint: commit_path` entry — mark the entry \
                         point or allow() with a rationale",
                        f.name
                    ),
                });
            }
        }
    }
}

/// Runs the flushed-state machine down one effect path, reporting the
/// first offending path per doorbell site.
fn check_path(
    units: &[Unit],
    path: &[Effect],
    flagged: &mut HashSet<(usize, usize)>,
    out: &mut Vec<Finding>,
) {
    let mut flushed = false;
    for (i, e) in path.iter().enumerate() {
        match &e.kind {
            EffectKind::Flush | EffectKind::PmrRead => flushed = true,
            EffectKind::Store { .. } => flushed = false,
            EffectKind::Bell => {
                if !flushed && !bell_suppressed(units, e) && flagged.insert((e.unit, e.line)) {
                    out.push(Finding {
                        rule: RuleId::PersistOrder,
                        file: units[e.unit].path.clone(),
                        line: e.line,
                        message: format!(
                            "doorbell ring in `{}` is not dominated by a P-SQ flush() — \
                             §4.3 requires SQE stores to drain before the ring \
                             (path: {})",
                            e.owner,
                            render_path(&path[..=i])
                        ),
                    });
                }
                // After a ring the slate is dirty again for the next SQE.
                flushed = false;
            }
            _ => {}
        }
    }
}

/// A ring is suppressed by `allow(persist-order)` at its own line or at
/// any call site on the via chain that inlined it.
fn bell_suppressed(units: &[Unit], e: &Effect) -> bool {
    if allowed(&units[e.unit].lexed, "persist-order", e.line) {
        return true;
    }
    e.via
        .iter()
        .any(|&(vu, vl)| allowed(&units[vu].lexed, "persist-order", vl))
}

/// Structural IR walk marking every doorbell line reachable from a
/// root, descending through resolvable calls (each function once).
/// Spawn bodies are included: a ring registered from an audited entry
/// is audited — the path machine has already checked its flush
/// discipline from an unflushed start.
fn reach_bells(
    unit_irs: &[UnitIr],
    engine: &Engine<'_>,
    ui: usize,
    nodes: &[Node],
    seen_funcs: &mut HashSet<(usize, usize)>,
    visited: &mut HashSet<(usize, usize)>,
) {
    for n in nodes {
        match n {
            Node::Eff {
                kind: EffectKind::Bell,
                line,
            } => {
                visited.insert((ui, *line));
            }
            Node::Call { name, .. } => {
                for (tu, tf) in engine.resolve(ui, name) {
                    if seen_funcs.insert((tu, tf)) {
                        reach_bells(
                            unit_irs,
                            engine,
                            tu,
                            &unit_irs[tu].funcs[tf].ir,
                            seen_funcs,
                            visited,
                        );
                    }
                }
            }
            Node::Branch { arms, .. } => {
                for a in arms {
                    reach_bells(unit_irs, engine, ui, a, seen_funcs, visited);
                }
            }
            Node::Loop { body } | Node::Closure { body } | Node::Spawn { body } => {
                reach_bells(unit_irs, engine, ui, body, seen_funcs, visited);
            }
            _ => {}
        }
    }
}

/// Collects every doorbell line in an IR tree (all nested bodies,
/// spawn included).
fn collect_bells(nodes: &[Node], out: &mut Vec<usize>) {
    for n in nodes {
        match n {
            Node::Eff {
                kind: EffectKind::Bell,
                line,
            } => out.push(*line),
            Node::Branch { arms, .. } => {
                for a in arms {
                    collect_bells(a, out);
                }
            }
            Node::Loop { body } | Node::Closure { body } | Node::Spawn { body } => {
                collect_bells(body, out);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------- race

/// `static-race`: a critical atomic written on a *sequential* path must
/// not be read `Ordering::Relaxed` on a *concurrently-registered*
/// callback path — the un-fenced read can observe pre-commit state.
/// Writes are collected structurally (outside spawn subtrees); reads
/// come from the summaries' spawned sequences, so a load buried in a
/// helper called from a spawned closure is still seen, with its via
/// chain available for suppression.
fn static_race(
    units: &[Unit],
    unit_irs: &[UnitIr],
    engine: &mut Engine<'_>,
    out: &mut Vec<Finding>,
) {
    let mut written: HashSet<String> = HashSet::new();
    for uir in unit_irs {
        for f in &uir.funcs {
            if !f.in_test {
                collect_crit_writes(&f.ir, false, &mut written);
            }
        }
    }
    if written.is_empty() {
        return;
    }
    let mut flagged: HashSet<(usize, usize, String)> = HashSet::new();
    for (ui, uir) in unit_irs.iter().enumerate() {
        for (fi, f) in uir.funcs.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let s = engine.summarize(ui, fi);
            for seq in &s.spawned {
                for e in seq {
                    let EffectKind::CritRead {
                        ident,
                        relaxed: true,
                    } = &e.kind
                    else {
                        continue;
                    };
                    if !written.contains(ident)
                        || allowed(&units[e.unit].lexed, "static-race", e.line)
                        || e.via
                            .iter()
                            .any(|&(vu, vl)| allowed(&units[vu].lexed, "static-race", vl))
                        || !flagged.insert((e.unit, e.line, ident.clone()))
                    {
                        continue;
                    }
                    out.push(Finding {
                        rule: RuleId::StaticRace,
                        file: units[e.unit].path.clone(),
                        line: e.line,
                        message: format!(
                            "critical atomic `{ident}` is written on a sequential path \
                             but read Ordering::Relaxed on a concurrently-registered \
                             callback path (in `{}`) — the un-fenced read can observe \
                             pre-commit state; use Acquire/SeqCst or allow(static-race) \
                             with a rationale",
                            e.owner
                        ),
                    });
                }
            }
        }
    }
}

/// Collects critical-atomic writes on sequential positions (spawn
/// subtrees switch to concurrent and stop counting).
fn collect_crit_writes(nodes: &[Node], in_spawn: bool, out: &mut HashSet<String>) {
    for n in nodes {
        match n {
            Node::Eff {
                kind: EffectKind::CritWrite { ident },
                ..
            } if !in_spawn => {
                out.insert(ident.clone());
            }
            Node::Branch { arms, .. } => {
                for a in arms {
                    collect_crit_writes(a, in_spawn, out);
                }
            }
            Node::Loop { body } | Node::Closure { body } => {
                collect_crit_writes(body, in_spawn, out);
            }
            Node::Spawn { body } => collect_crit_writes(body, true, out),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------- config

/// `config-staleness` (whole-tree runs only): every identifier under
/// `[atomic_ordering] critical` and `[observer] receivers` must still
/// appear as a whole word somewhere in the linted source. A field
/// rename would otherwise leave the stale entry behind and silently
/// stop protecting the new name. Findings point at the `lint.toml`
/// line that configured the value.
fn config_staleness(units: &[Unit], cfg: &Config, out: &mut Vec<Finding>) {
    let groups: [(&[String], &str, &str); 2] = [
        (
            &cfg.critical_atomics,
            "atomic_ordering.critical",
            "[atomic_ordering] critical",
        ),
        (
            &cfg.observer_receivers,
            "observer.receivers",
            "[observer] receivers",
        ),
    ];
    for (idents, section_key, display) in groups {
        for ident in idents {
            if units
                .iter()
                .any(|u| whole_word_present(&u.lexed.masked, ident))
            {
                continue;
            }
            out.push(Finding {
                rule: RuleId::ConfigStaleness,
                file: "lint.toml".into(),
                line: cfg.line_for(section_key, ident),
                message: format!(
                    "`{ident}` is configured under {display} but no longer appears \
                     in the linted source — remove the stale entry or update it to \
                     the renamed identifier"
                ),
            });
        }
    }
}

/// Whole-word occurrence of `word` in masked source text.
fn whole_word_present(text: &str, word: &str) -> bool {
    if word.is_empty() {
        return true;
    }
    let b = text.as_bytes();
    let mut search = 0usize;
    while let Some(rel) = text[search..].find(word) {
        let at = search + rel;
        search = at + word.len();
        let pre_ok = at == 0 || !is_ident_char(b[at - 1]);
        let post_ok = b.get(at + word.len()).is_none_or(|&c| !is_ident_char(c));
        if pre_ok && post_ok {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::build;

    fn unit(path: &str, src: &str) -> Unit {
        let lexed = lex(src);
        let path_is_test = path.split('/').any(|c| c == "tests");
        let model = build(path_is_test, src, &lexed);
        Unit {
            path: path.to_string(),
            src: src.to_string(),
            lexed,
            model,
        }
    }

    fn lint_one(path: &str, src: &str) -> Vec<Finding> {
        run_all(&[unit(path, src)], &Config::default())
    }

    #[test]
    fn flush_before_doorbell_is_clean() {
        let src = r#"
// ccnvme-lint: commit_path
fn enqueue(&self) {
    self.inner.pmr.write(off, &sqe);
    self.inner.pmr.flush();
    self.inner.pmr.write(q.db_off, &tail);
}
"#;
        assert!(lint_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn missing_flush_is_persist_order() {
        let src = r#"
// ccnvme-lint: commit_path
fn enqueue(&self) {
    self.inner.pmr.write(off, &sqe);
    self.inner.pmr.write(q.db_off, &tail);
}
"#;
        let f = lint_one("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::PersistOrder);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn doorbell_is_a_whole_token_on_a_pmr_receiver() {
        // `cqdb_off` is not the `db_off` token and `regs` is not a PMR
        // receiver: neither write is a doorbell ring, flushed or not.
        let src = r#"
// ccnvme-lint: commit_path
fn complete(&self) {
    self.pmr.write(q.ring_off, &sqe);
    self.pmr.write(q.cqdb_off, &head);
    self.regs.write(q.db_off, &tail);
}
"#;
        assert!(lint_one("crates/x/src/a.rs", src).is_empty());
        // A call in the offset expression still names the token.
        let src = r#"
// ccnvme-lint: commit_path
fn enqueue(&self) {
    self.pmr.write(q.ring_off, &sqe);
    self.pmr.write(layout.db_off(q), &tail);
}
"#;
        let f = lint_one("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::PersistOrder);
    }

    #[test]
    fn flush_in_callee_counts() {
        let src = r#"
// ccnvme-lint: commit_path
fn enqueue(&self) {
    self.stage(off);
    self.inner.pmr.write(q.db_off, &tail);
}
fn stage(&self, off: u64) {
    self.inner.pmr.write(off, &sqe);
    self.inner.pmr.flush();
}
"#;
        assert!(lint_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn unreached_doorbell_is_reported() {
        let src = r#"
fn lonely(&self) {
    self.pmr.flush();
    self.pmr.write(q.db_off, &tail);
}
"#;
        let f = lint_one("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not reachable"));
    }

    #[test]
    fn relaxed_on_critical_atomic_flagged() {
        let src = "fn f(&self) { self.next_tx.fetch_add(1, Ordering::Relaxed); }\n";
        let f = lint_one("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::AtomicOrdering);
        assert!(f[0].message.contains("next_tx"));
    }

    #[test]
    fn ord_comment_justifies() {
        let src = "fn f(&self) {\n    // ord: SeqCst pairs with the reader in commit()\n    self.next_tx.fetch_add(1, Ordering::SeqCst);\n}\n";
        assert!(lint_one("crates/x/src/a.rs", src).is_empty());
        let bare = "fn f(&self) { self.other.load(Ordering::SeqCst); }\n";
        let f = lint_one("crates/x/src/a.rs", bare);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("ord:"));
    }

    #[test]
    fn unsafe_needs_safety() {
        let bad = "fn f() { unsafe { std::ptr::read(p) }; }\n";
        let f = lint_one("crates/x/src/a.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::UnsafeAudit);
        let good = "fn f() {\n    // SAFETY: p is valid for reads, owned by this struct\n    unsafe { std::ptr::read(p) };\n}\n";
        assert!(lint_one("crates/x/src/a.rs", good).is_empty());
    }

    #[test]
    fn metric_namespace_checked_with_format_wildcards() {
        let bad = "fn f(r: &Registry) { r.counter(\"bogus.count\").inc(); }\n";
        let f = lint_one("crates/x/src/a.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::MetricNamespace);
        let good = "fn f(r: &Registry) { r.counter(&format!(\"pcie.q{}.rings\", qid)).inc(); }\n";
        assert!(lint_one("crates/x/src/a.rs", good).is_empty());
        let dynamic = "fn f(r: &Registry, n: &str) { r.counter(n).inc(); }\n";
        assert!(lint_one("crates/x/src/a.rs", dynamic).is_empty());
    }

    #[test]
    fn test_code_skips_metric_and_ordering_but_not_unsafe() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(r: &Registry) {\n        r.counter(\"x\").inc();\n        a.load(Ordering::Relaxed);\n        unsafe { no_comment() };\n    }\n}\n";
        let f = lint_one("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::UnsafeAudit);
    }

    #[test]
    fn observer_purity_flags_non_posted_calls() {
        let bad = "fn f(&self) { self.bb.flush(); }\n";
        let f = lint_one("crates/x/src/a.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::ObserverPurity);
        assert!(f[0].message.contains("bb.flush"));
        // Posted writes are the observer's whole vocabulary.
        let good = "fn f(&self) { bb.append(&ev); bb.format(); }\n";
        assert!(lint_one("crates/x/src/a.rs", good).is_empty());
        // Field access and longer identifiers are not receiver matches.
        let unrelated = "fn f(&self) { ebb.flush(); let x = bb.base; }\n";
        assert!(lint_one("crates/x/src/a.rs", unrelated).is_empty());
        // Test code may read the recorder back freely.
        let test_code = "#[cfg(test)]\nmod tests {\n    fn t() { bb.snapshot(); }\n}\n";
        assert!(lint_one("crates/x/src/a.rs", test_code).is_empty());
    }

    #[test]
    fn allow_markers_suppress() {
        let src = r#"
// ccnvme-lint: commit_path
fn probe(&self) {
    // ccnvme-lint: allow(persist-order) — probe path, queue empty by construction
    self.pmr.write(layout.db_off(q), &zero);
    self.pmr.flush();
}
"#;
        assert!(lint_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn branch_flush_one_arm_is_violation_with_path() {
        let src = r#"
// ccnvme-lint: commit_path
fn enqueue(&self, commit: bool) {
    self.pmr.write(q.ring_off, &sqe);
    if commit {
        self.pmr.flush();
    }
    self.pmr.write(q.db_off, &tail);
}
"#;
        let f = lint_one("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::PersistOrder);
        assert_eq!(f[0].line, 8);
        assert!(f[0].message.contains("not dominated"));
        assert!(
            f[0].message
                .contains("posted-write(ring_off)@4 -> doorbell@8"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn early_return_arm_flush_does_not_dominate() {
        let src = r#"
// ccnvme-lint: commit_path
fn enqueue(&self) {
    self.pmr.write(q.ring_off, &sqe);
    if self.is_full() {
        self.pmr.flush();
        return;
    }
    self.pmr.write(q.db_off, &tail);
}
"#;
        let f = lint_one("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 9);
        assert!(f[0].message.contains("not dominated"));
    }

    #[test]
    fn match_arms_are_path_sensitive() {
        let src = r#"
// ccnvme-lint: commit_path
fn enqueue(&self, kind: IoKind) {
    self.pmr.write(q.ring_off, &sqe);
    match kind {
        IoKind::Write => self.pmr.flush(),
        IoKind::Flush => {
            self.pmr.flush();
        }
    }
    self.pmr.write(q.db_off, &tail);
}
"#;
        assert!(lint_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn spawned_closure_flush_does_not_dominate_sequential_bell() {
        let src = r#"
// ccnvme-lint: commit_path
fn enqueue(&self) {
    self.pmr.write(q.ring_off, &sqe);
    spawn(move || self.pmr.flush());
    self.pmr.write(q.db_off, &tail);
}
"#;
        let f = lint_one("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::PersistOrder);
        assert!(f[0].message.contains("not dominated"));
    }

    #[test]
    fn inline_closure_may_be_skipped() {
        // An iterator-adapter closure may run zero times: its flush
        // cannot dominate the ring.
        let src = r#"
// ccnvme-lint: commit_path
fn enqueue(&self) {
    self.pmr.write(q.ring_off, &sqe);
    self.queues.iter().for_each(|q| self.pmr.flush());
    self.pmr.write(q.db_off, &tail);
}
"#;
        let f = lint_one("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not dominated"));
    }

    #[test]
    fn loop_body_flush_does_not_cover_post_loop_bell() {
        // Zero-iteration path: the loop's flush never runs.
        let src = r#"
// ccnvme-lint: commit_path
fn pump(&self) {
    for q in queues {
        self.pmr.flush();
        self.pmr.write(q.ring_off, &sqe);
    }
    self.pmr.write(q.db_off, &tail);
}
"#;
        let f = lint_one("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not dominated"));
    }

    #[test]
    fn per_iteration_flush_then_ring_is_clean() {
        let src = r#"
// ccnvme-lint: commit_path
fn pump(&self) {
    for q in queues {
        self.pmr.write(q.ring_off, &sqe);
        self.pmr.flush();
        self.pmr.write(q.db_off, &tail);
    }
}
"#;
        assert!(lint_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn allow_at_call_site_suppresses_inlined_bell() {
        let src = r#"
// ccnvme-lint: commit_path
fn submit(&self) {
    self.pmr.write(q.ring_off, &sqe);
    // ccnvme-lint: allow(persist-order) — recovery discards torn slots
    self.ring(q);
}
fn ring(&self, q: &Q) {
    self.pmr.write(q.db_off, &tail);
}
"#;
        assert!(lint_one("crates/x/src/a.rs", src).is_empty());
        // Without the allow, the same shape flags the bell inside the
        // helper, attributed to the helper's body line.
        let bare = src.replace(
            "    // ccnvme-lint: allow(persist-order) — recovery discards torn slots\n",
            "",
        );
        let f = lint_one("crates/x/src/a.rs", &bare);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 8);
        assert!(f[0].message.contains("`ring`"));
    }

    #[test]
    fn pmr_read_is_a_flush_point() {
        // PCIe ordering: a non-posted read drains posted writes.
        let src = r#"
// ccnvme-lint: commit_path
fn enqueue(&self) {
    self.pmr.write(q.ring_off, &sqe);
    let _probe = self.pmr.read_u32(q.ring_off);
    self.pmr.write(q.db_off, &tail);
}
"#;
        assert!(lint_one("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn static_race_on_relaxed_read_in_spawned_closure() {
        let src = r#"
fn start(&self) {
    // ord: commit publication pairs with the watchdog reader
    self.max_committed.store(1, Ordering::SeqCst);
    spawn(move || self.max_committed.load(Ordering::Relaxed));
}
"#;
        let f = lint_one("crates/x/src/a.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == RuleId::StaticRace && x.message.contains("max_committed")),
            "{f:?}"
        );
        // SeqCst on the concurrent reader clears the race (the Relaxed
        // atomic-ordering finding also goes away).
        let fixed = src.replace("Ordering::Relaxed", "Ordering::SeqCst");
        let f = lint_one("crates/x/src/a.rs", &fixed);
        assert!(f.iter().all(|x| x.rule != RuleId::StaticRace), "{f:?}");
    }

    #[test]
    fn static_race_seen_through_helper_called_from_spawn() {
        let src = r#"
fn start(&self) {
    // ord: commit publication pairs with the watchdog reader
    self.max_committed.store(1, Ordering::SeqCst);
    spawn(move || self.poll());
}
fn poll(&self) {
    self.max_committed.load(Ordering::Relaxed);
}
"#;
        let f = lint_one("crates/x/src/a.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == RuleId::StaticRace && x.line == 8),
            "{f:?}"
        );
    }

    #[test]
    fn stale_config_idents_reported_in_whole_tree_runs_only() {
        let src = "fn f(&self, bb: &Sink) {\n    // ord: seqcst pairs with recovery replay\n    self.next_tx.load(Ordering::SeqCst);\n}\n";
        let cfg = Config {
            critical_atomics: vec!["next_tx".into(), "ghost_field".into()],
            ..Default::default()
        };
        let whole = run_all_with(&[unit("crates/x/src/a.rs", src)], &cfg, true);
        let stale: Vec<_> = whole
            .iter()
            .filter(|x| x.rule == RuleId::ConfigStaleness)
            .collect();
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].file, "lint.toml");
        assert!(stale[0].message.contains("ghost_field"));
        // Partial-set runs (fixtures, single files) skip the rule.
        let partial = run_all_with(&[unit("crates/x/src/a.rs", src)], &cfg, false);
        assert!(partial.iter().all(|x| x.rule != RuleId::ConfigStaleness));
    }
}
