//! `ccnvme-lint`: protocol-invariant static analyzer for the ccNVMe
//! workspace.
//!
//! The persistence hot path has invariants the type system cannot see:
//! the §4.3 ordering contract (SQE stores → write-combining flush →
//! doorbell ring), memory-ordering discipline on recovery-critical
//! atomics, audited `unsafe`, and the `ccnvme-metrics/v1` metric
//! namespace. This crate checks them as a hard CI gate
//! (`scripts/check.sh` runs the binary on every change).
//!
//! See `DESIGN.md` §10 for the rule catalogue, the suppression
//! grammar (`// ccnvme-lint: allow(<rule>)` with a rationale) and the
//! `// ccnvme-lint: commit_path` entry-point marker.

#![warn(missing_docs)]

pub mod config;
pub mod effects;
pub mod ir;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod summary;

use std::fmt;
use std::path::{Path, PathBuf};

pub use config::{Config, ConfigError};

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Doorbell rings must be dominated by a P-SQ flush (§4.3).
    PersistOrder,
    /// Ordering discipline on persistence-critical atomics.
    AtomicOrdering,
    /// `unsafe` requires a `SAFETY:` comment.
    UnsafeAudit,
    /// Metric names must be in the `ccnvme-metrics/v1` namespace.
    MetricNamespace,
    /// Observers (the flight recorder) may only *post* writes — a
    /// non-posted call (flush, read-back, doorbell) on an observer
    /// receiver would add an ordering edge to the protocol it watches.
    ObserverPurity,
    /// Critical atomics written on a sequential commit path must not
    /// be read `Relaxed` on a concurrently-registered callback path.
    StaticRace,
    /// Identifiers configured in `lint.toml` must still exist in the
    /// workspace source — a stale entry silently weakens the gate.
    ConfigStaleness,
}

impl RuleId {
    /// Stable string id, used in output and in `allow(...)` markers.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::PersistOrder => "persist-order",
            RuleId::AtomicOrdering => "atomic-ordering",
            RuleId::UnsafeAudit => "unsafe-audit",
            RuleId::MetricNamespace => "metric-namespace",
            RuleId::ObserverPurity => "observer-purity",
            RuleId::StaticRace => "static-race",
            RuleId::ConfigStaleness => "config-staleness",
        }
    }

    /// All rules, for `--explain` listing.
    pub fn all() -> &'static [RuleId] {
        &[
            RuleId::PersistOrder,
            RuleId::AtomicOrdering,
            RuleId::UnsafeAudit,
            RuleId::MetricNamespace,
            RuleId::ObserverPurity,
            RuleId::StaticRace,
            RuleId::ConfigStaleness,
        ]
    }

    /// Looks a rule up by its stable string id.
    pub fn from_str_id(s: &str) -> Option<RuleId> {
        RuleId::all().iter().copied().find(|r| r.as_str() == s)
    }

    /// Rule documentation for `ccnvme-lint --explain <rule>`: what the
    /// rule checks, why, and an example failing path.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::PersistOrder => {
                "persist-order — flush-before-doorbell (ccNVMe \u{a7}4.3)\n\
                 \n\
                 Every doorbell ring reachable from a `// ccnvme-lint: commit_path`\n\
                 entry must be dominated, on EVERY path, by a P-SQ flush() (or a\n\
                 non-posted PMR read, which PCIe ordering makes an equivalent drain)\n\
                 covering the posted SQE stores before it. The analysis parses each\n\
                 function into a branch/loop/closure-aware IR, composes per-function\n\
                 effect summaries across the call graph, and enumerates may-paths;\n\
                 doorbells no entry point reaches are reported as unauditable.\n\
                 \n\
                 Example failing path (flush only on the early-return arm):\n\
                 \n\
                     fn commit(&self) {\n\
                         self.pmr.write(q.ring_off, &sqe);     // posted-write(ring_off)@2\n\
                         if !commit { self.pmr.flush(); return; }\n\
                         self.pmr.write(q.db_off, &tail);      // doorbell@4  <-- VIOLATION\n\
                     }\n\
                 \n\
                 path: posted-write(ring_off)@2 -> doorbell@4 (the flush runs only\n\
                 on the !commit arm). Suppress a deliberate unflushed ring with\n\
                 `// ccnvme-lint: allow(persist-order)` plus a rationale, at the\n\
                 ring or at the call site that reaches it."
            }
            RuleId::AtomicOrdering => {
                "atomic-ordering — ordering discipline on persistence-critical atomics\n\
                 \n\
                 `Ordering::Relaxed` is forbidden outright on the atomics listed in\n\
                 lint.toml [atomic_ordering] critical (they carry recovery-visible\n\
                 protocol state), and every other Ordering:: site outside tests needs\n\
                 an `// ord:` justification comment.\n\
                 \n\
                 Example: self.max_committed.store(v, Ordering::Relaxed)  <-- VIOLATION"
            }
            RuleId::UnsafeAudit => {
                "unsafe-audit — every `unsafe` needs a SAFETY comment\n\
                 \n\
                 Each unsafe block/fn/impl must carry `// SAFETY:` (or `# Safety`\n\
                 docs) on the same line or the comment block above. Applies to test\n\
                 code too.\n\
                 \n\
                 Example: unsafe { std::ptr::read(p) }   // no SAFETY:  <-- VIOLATION"
            }
            RuleId::MetricNamespace => {
                "metric-namespace — metric names live in ccnvme-metrics/v1\n\
                 \n\
                 The first argument of registry constructors (.counter/.gauge/\n\
                 .histogram) must be a literal under a configured prefix; format!\n\
                 interpolations are wildcarded, fully dynamic names are skipped.\n\
                 \n\
                 Example: r.counter(\"bogus.retries\")  <-- VIOLATION (prefix)"
            }
            RuleId::ObserverPurity => {
                "observer-purity — the flight recorder only posts\n\
                 \n\
                 On an observer receiver (lint.toml [observer] receivers, e.g. `bb`)\n\
                 only the configured posted methods may be called outside tests; a\n\
                 flush, read-back or doorbell through the observer would add an\n\
                 ordering edge to the protocol it merely watches. Checked over the\n\
                 effect IR, so calls inside closures and helpers are seen too.\n\
                 \n\
                 Example: self.bb.flush()  <-- VIOLATION (non-posted)"
            }
            RuleId::StaticRace => {
                "static-race — un-fenced concurrent reads of critical atomics\n\
                 \n\
                 If a critical atomic (lint.toml [atomic_ordering] critical) is\n\
                 written on a sequential summary path and read with\n\
                 Ordering::Relaxed on a concurrently-registered callback path (a\n\
                 closure passed to a [concurrency] spawn_fns function, directly or\n\
                 via helpers), the read can observe pre-commit state without an\n\
                 ordering fence.\n\
                 \n\
                 Example failing pair:\n\
                     self.max_committed.store(tx, Ordering::SeqCst);   // commit path\n\
                     spawn(move || { max_committed.load(Ordering::Relaxed) })  <-- VIOLATION"
            }
            RuleId::ConfigStaleness => {
                "config-staleness — lint.toml entries must exist in the source\n\
                 \n\
                 Every identifier under [atomic_ordering] critical and [observer]\n\
                 receivers must still appear (as a whole word) somewhere in the\n\
                 linted workspace source. A renamed field would otherwise leave a\n\
                 stale entry behind and silently stop protecting the new name.\n\
                 Checked only in whole-tree runs (no FILES arguments), where the\n\
                 full workspace is visible.\n\
                 \n\
                 Example: critical = [\"old_field_name\"]  <-- VIOLATION after rename"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Display path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lints in-memory sources. Each entry is (display path, source text).
///
/// This is the API the binary, the fixture tests and the
/// deleted-flush regression all share — the latter feeds a modified
/// copy of `ccdriver.rs` through it without touching the tree.
/// Partial source sets skip the whole-tree-only rules (config
/// staleness); use [`lint_sources_tree`] when the set is the full
/// workspace.
pub fn lint_sources(sources: &[(PathBuf, String)], cfg: &Config) -> Vec<Finding> {
    lint_sources_with(sources, cfg, false)
}

/// Like [`lint_sources`], but for a source set known to be the whole
/// workspace — enables the rules that need global visibility (config
/// staleness).
pub fn lint_sources_tree(sources: &[(PathBuf, String)], cfg: &Config) -> Vec<Finding> {
    lint_sources_with(sources, cfg, true)
}

fn lint_sources_with(
    sources: &[(PathBuf, String)],
    cfg: &Config,
    whole_tree: bool,
) -> Vec<Finding> {
    let units: Vec<rules::Unit> = sources
        .iter()
        .map(|(path, src)| {
            let lexed = lexer::lex(src);
            let path_is_test = path
                .components()
                .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches");
            let model = model::build(path_is_test, src, &lexed);
            rules::Unit {
                path: path.display().to_string(),
                src: src.clone(),
                lexed,
                model,
            }
        })
        .collect();
    rules::run_all_with(&units, cfg, whole_tree)
}

/// Collects the `.rs` files to lint under `root` per the config's
/// include/exclude lists, sorted for deterministic output.
pub fn collect_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for inc in &cfg.include {
        let dir = root.join(inc);
        if dir.is_dir() {
            walk_dir(&dir, root, cfg, &mut out)?;
        } else if dir.extension().is_some_and(|e| e == "rs") && dir.is_file() {
            out.push(dir);
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn walk_dir(dir: &Path, root: &Path, cfg: &Config, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if cfg
            .exclude
            .iter()
            .any(|ex| rel_str == *ex || rel_str.starts_with(&format!("{ex}/")))
        {
            continue;
        }
        if path.is_dir() {
            walk_dir(&path, root, cfg, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads the files and lints them, returning findings with
/// root-relative display paths. Whole-tree-only rules (config
/// staleness) run here.
pub fn lint_tree(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let files = collect_files(root, cfg)?;
    let mut sources = Vec::with_capacity(files.len());
    for f in files {
        let text = std::fs::read_to_string(&f)?;
        let display = f.strip_prefix(root).unwrap_or(&f).to_path_buf();
        sources.push((display, text));
    }
    Ok(lint_sources_tree(&sources, cfg))
}
