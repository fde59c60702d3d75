//! File-system crash scripts as data: the one interpreter that runs
//! them and the one model that judges every crash image of them.
//!
//! An [`FsScript`] is a list of [`Step`]s. A step runs a few [`Op`]s
//! back to back on one core, the last an `fsync`. [`FsScript::run`]
//! marks each step issued when its first op starts and ended when its
//! last op returns, or its first failure does. One rule judges every
//! recovered image ([`FsScript::judge`]): *the recovered namespace
//! equals the model after the last persisted step, or after a later
//! issued step, skipping steps that failed before the cut.* A step is
//! persisted when it ended before the cut with every op `Ok`. The
//! comparison ([`Namespace`]) covers names, kinds, hard-link classes,
//! link counts, sizes and every block, which must be uniform and hold
//! the model's byte (0 for a hole).

use std::{
    collections::{BTreeMap, BTreeSet, HashSet},
    fmt,
    sync::Arc,
};

use ccnvme_sim::Ns;
use mqfs::{FileSystem, FsError, InodeKind};

use crate::OpLog;

const BLOCK: u64 = 4096;

/// One file-system operation. Paths are absolute, and every path an op
/// names was made by an earlier op of the same script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `mkdir(path)`.
    Mkdir(String),
    /// `create(path)`: an empty file.
    Create(String),
    /// `blocks` whole blocks of `byte` from block `block` on, in one call.
    Write {
        /// The file.
        path: String,
        /// First block written.
        block: u64,
        /// Blocks written.
        blocks: u64,
        /// What every written byte holds.
        byte: u8,
    },
    /// A second name `to` for the file at `from`.
    Link {
        /// An existing file.
        from: String,
        /// The new name.
        to: String,
    },
    /// `unlink(path)`.
    Unlink(String),
    /// `rmdir(path)` of an empty directory.
    Rmdir(String),
    /// `rename(from, to)`, replacing an existing `to`.
    Rename {
        /// The name that goes.
        from: String,
        /// The name that comes, or is replaced.
        to: String,
    },
    /// `fatomic(path)`: atomic, not durable.
    Fatomic(String),
    /// `fsync(path)`.
    Fsync(String),
}

/// Ops run back to back on one core; the last one is an `Fsync`.
#[derive(Debug)]
pub struct Step {
    /// The core that runs the step (the script's own, or a spawned and
    /// joined thread on another one).
    pub core: usize,
    /// What the step does.
    pub ops: Vec<Op>,
}

/// What one step of a recorded run did.
#[derive(Debug, Clone)]
pub struct StepRun {
    /// When its first op started.
    pub issued: Ns,
    /// When it returned.
    pub ended: Ns,
    /// The index and error of the op that failed, which ended the step.
    pub outcome: Result<(), (usize, FsError)>,
}

/// A live contract: what the recorded run on `fs` broke of it.
pub type Live = fn(&FsScript, &FileSystem, &[StepRun]) -> Vec<String>;

/// A deterministic file-system crash script.
pub struct FsScript {
    /// Report label and `crashenum.<name>.*` metric key.
    pub name: &'static str,
    /// The steps, run in order.
    pub steps: Vec<Step>,
    /// The contract the recorded run is held to ([`every_op_ok`] unless
    /// the script expects errors).
    pub live: Live,
}

/// The default live contract: every op answers `Ok`.
pub fn every_op_ok(script: &FsScript, _: &FileSystem, runs: &[StepRun]) -> Vec<String> {
    runs.iter()
        .enumerate()
        .filter_map(|(i, run)| {
            let (k, e) = run.outcome.as_ref().err()?;
            Some(format!(
                "step {i}: {:?} failed: {e}",
                script.steps[i].ops[*k]
            ))
        })
        .collect()
}

impl FsScript {
    /// A script of `steps`, each on core 0, held to [`every_op_ok`].
    pub fn new(name: &'static str, steps: impl IntoIterator<Item = Vec<Op>>) -> Self {
        let steps = steps.into_iter().map(|ops| Step { core: 0, ops });
        FsScript {
            name,
            steps: steps.collect(),
            live: every_op_ok,
        }
    }

    /// Runs the steps on `fs` in order, marking step `i` issued (mark
    /// `2i`) and ended (`2i + 1`) in `marks`. A step stops at its first
    /// failing op; the next one runs regardless.
    pub fn run(&self, fs: &Arc<FileSystem>, marks: &OpLog) -> Vec<StepRun> {
        let mut inos = BTreeMap::from([("/".to_string(), fs.root())]);
        let mut runs = Vec::with_capacity(self.steps.len());
        for (i, step) in self.steps.iter().enumerate() {
            let issued = ccnvme_sim::now();
            marks.mark(2 * i as u64);
            let outcome = if step.core == ccnvme_sim::current_core() {
                run_ops(fs, &mut inos, &step.ops)
            } else {
                let (fs, ops, mut moved) = (Arc::clone(fs), step.ops.clone(), inos);
                let (outcome, back) = ccnvme_sim::spawn("step", step.core, move || {
                    (run_ops(&fs, &mut moved, &ops), moved)
                })
                .join();
                inos = back;
                outcome
            };
            marks.mark(2 * i as u64 + 1);
            let ended = ccnvme_sim::now();
            runs.push(StepRun {
                issued,
                ended,
                outcome,
            });
        }
        runs
    }

    /// Holds `found`, a namespace recovered from a cut, to the step rule.
    /// `acked` holds the marks [`run`](Self::run) made before the cut,
    /// `runs` what each step did in the recorded run.
    pub fn judge(
        &self,
        runs: &[StepRun],
        acked: &HashSet<u64>,
        found: &Namespace,
    ) -> Result<(), String> {
        let mut model = Model::default();
        let mut candidates = vec![("the start".to_string(), model.namespace())];
        for (i, (step, run)) in self.steps.iter().zip(runs).enumerate() {
            let ended = acked.contains(&(2 * i as u64 + 1));
            if !acked.contains(&(2 * i as u64)) {
                break;
            }
            if ended && run.outcome.is_err() {
                continue;
            }
            step.ops.iter().for_each(|op| model.apply(op));
            if ended {
                candidates.clear();
            }
            candidates.push((format!("step {i}"), model.namespace()));
        }
        found.matches(&candidates)
    }
}

fn run_ops(
    fs: &FileSystem,
    inos: &mut BTreeMap<String, u64>,
    ops: &[Op],
) -> Result<(), (usize, FsError)> {
    for (k, op) in ops.iter().enumerate() {
        run_op(fs, inos, op).map_err(|e| (k, e))?;
    }
    Ok(())
}

/// Runs `op` through the inode forms of the file system's calls, with
/// the inode of every path the script made in `inos`.
fn run_op(fs: &FileSystem, inos: &mut BTreeMap<String, u64>, op: &Op) -> Result<(), FsError> {
    let at = |path: &str| {
        let (dir, name) = split(path);
        (inos[dir], name.to_string())
    };
    match op {
        Op::Mkdir(path) | Op::Create(path) => {
            let (dir, name) = at(path);
            let ino = match op {
                Op::Mkdir(_) => fs.mkdir(dir, &name)?,
                _ => fs.create(dir, &name)?,
            };
            inos.insert(path.clone(), ino);
        }
        Op::Write {
            path,
            block,
            blocks,
            byte,
        } => fs.write(
            inos[path],
            block * BLOCK,
            &vec![*byte; (blocks * BLOCK) as usize],
        )?,
        Op::Link { from, to } => {
            let (dir, name) = at(to);
            let ino = inos[from];
            fs.link(ino, dir, &name)?;
            inos.insert(to.clone(), ino);
        }
        Op::Unlink(path) | Op::Rmdir(path) => {
            let (dir, name) = at(path);
            match op {
                Op::Unlink(_) => fs.unlink(dir, &name)?,
                _ => fs.rmdir(dir, &name)?,
            }
            inos.remove(path);
        }
        Op::Rename { from, to } => {
            let ((src, src_name), (dst, dst_name)) = (at(from), at(to));
            fs.rename(src, &src_name, dst, &dst_name)?;
            rename(inos, from, to);
        }
        Op::Fatomic(path) => fs.fatomic(inos[path])?,
        Op::Fsync(path) => fs.fsync(inos[path])?,
    }
    Ok(())
}

/// `(parent, name)` of an absolute path.
fn split(path: &str) -> (&str, &str) {
    let i = path.rfind('/').expect("an absolute path");
    (if i == 0 { "/" } else { &path[..i] }, &path[i + 1..])
}

/// Moves `from` and everything below it to `to`, replacing `to`.
fn rename(paths: &mut BTreeMap<String, u64>, from: &str, to: &str) {
    let below = |p: &str, root: &str| p == root || p.starts_with(&format!("{root}/"));
    paths.retain(|p, _| !below(p, to));
    let moved: Vec<_> = paths.keys().filter(|p| below(p, from)).cloned().collect();
    for p in moved {
        let id = paths.remove(&p).expect("listed");
        paths.insert(format!("{to}{}", &p[from.len()..]), id);
    }
}

/// The in-memory model: every path and the node it names.
#[derive(Debug, Clone)]
pub struct Model {
    paths: BTreeMap<String, u64>,
    /// Per node: `None` for a directory, a file's block bytes otherwise.
    nodes: Vec<Option<Vec<u8>>>,
}

impl Default for Model {
    /// The root directory, empty.
    fn default() -> Self {
        Model {
            paths: BTreeMap::from([("/".to_string(), 0)]),
            nodes: vec![None],
        }
    }
}

impl Model {
    /// Applies `op`, which must succeed on this model.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Mkdir(path) | Op::Create(path) => {
                let file = matches!(op, Op::Create(_)).then(Vec::new);
                self.paths.insert(path.clone(), self.nodes.len() as u64);
                self.nodes.push(file);
            }
            Op::Write {
                path,
                block,
                blocks,
                byte,
            } => {
                let data = self.nodes[self.paths[path] as usize]
                    .as_mut()
                    .expect("a write names a file");
                let (from, to) = (*block as usize, (block + blocks) as usize);
                data.resize(data.len().max(to), 0);
                data[from..to].fill(*byte);
            }
            Op::Link { from, to } => {
                self.paths.insert(to.clone(), self.paths[from]);
            }
            Op::Unlink(path) | Op::Rmdir(path) => {
                self.paths.remove(path);
            }
            Op::Rename { from, to } => rename(&mut self.paths, from, to),
            Op::Fatomic(_) | Op::Fsync(_) => {}
        }
    }

    /// Whether `path` names something.
    pub fn exists(&self, path: &str) -> bool {
        self.paths.contains_key(path)
    }

    /// The block bytes of the file at `path` (0 for a hole).
    pub fn blocks(&self, path: &str) -> Option<&[u8]> {
        self.nodes[*self.paths.get(path)? as usize].as_deref()
    }

    /// The namespace this model holds.
    pub fn namespace(&self) -> Namespace {
        let children = |dir: &str| {
            self.paths
                .keys()
                .filter(|p| *p != "/" && split(p).0 == dir)
                .map(|p| (split(p).1.to_string(), self.blocks(p).is_none()))
                .collect::<Vec<_>>()
        };
        Namespace::linked(self.paths.iter().map(|(path, &id)| {
            let entry = match &self.nodes[id as usize] {
                None => {
                    let children = children(path);
                    let dirs = children.iter().filter(|(_, dir)| *dir).count();
                    Entry::Dir {
                        names: children.into_iter().map(|(name, _)| name).collect(),
                        nlink: 2 + dirs as u16,
                    }
                }
                Some(data) => Entry::File {
                    nlink: self.paths.values().filter(|&&n| n == id).count() as u16,
                    size: data.len() as u64 * BLOCK,
                    blocks: data.iter().map(|&b| Some(b)).collect(),
                    also: Vec::new(),
                },
            };
            (path.clone(), id, entry)
        }))
    }
}

/// What one path names, as the oracle compares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A directory.
    Dir {
        /// Its entries' names.
        names: BTreeSet<String>,
        /// Its link count.
        nlink: u16,
    },
    /// A regular file.
    File {
        /// Its link count.
        nlink: u16,
        /// Its size in bytes.
        size: u64,
        /// Per block, the byte it holds throughout (`None`: not uniform,
        /// short or unreadable).
        blocks: Vec<Option<u8>>,
        /// Its other names: the rest of its hard-link class.
        also: Vec<String>,
    },
}

impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Entry::Dir { names, nlink } => {
                let short = |n: &String| match n.chars().count() > 6 {
                    true => format!("{}…", n.chars().take(3).collect::<String>()),
                    false => n.clone(),
                };
                let names: Vec<_> = names.iter().map(short).collect();
                write!(f, "{{{}}} nlink {nlink}", names.join(", "))
            }
            Entry::File {
                nlink,
                size,
                blocks,
                also,
            } => {
                let hex = |b: &Option<u8>| b.map_or("??".into(), |b| format!("{b:02x}"));
                let blocks: Vec<_> = blocks.iter().map(hex).collect();
                write!(f, "{size} bytes [{}] nlink {nlink}", blocks.join(" "))?;
                if !also.is_empty() {
                    write!(f, " also {}", also.join(", "))?;
                }
                Ok(())
            }
        }
    }
}

/// Every path below the root, the root included, with what it names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Namespace(pub BTreeMap<String, Entry>);

impl Namespace {
    /// The namespace of `fs`, walked from the root.
    pub fn observe(fs: &FileSystem) -> Namespace {
        let (mut nodes, mut walked) = (Vec::new(), HashSet::new());
        let mut todo = vec![("/".to_string(), fs.root())];
        while let Some((path, ino)) = todo.pop() {
            let (size, kind, nlink) = fs.stat(ino);
            let entry = if kind == InodeKind::Dir {
                let names = fs.readdir(ino).unwrap_or_default();
                // A damaged image may name a directory twice or an inode
                // out of range: fsck reports both, the walk must end.
                if walked.insert(ino) {
                    let prefix = if path == "/" { "" } else { &path };
                    let valid = names.iter().filter(|(_, i)| *i <= fs.layout().ninodes);
                    todo.extend(valid.map(|(n, i)| (format!("{prefix}/{n}"), *i)));
                }
                Entry::Dir {
                    names: names.into_iter().map(|(n, _)| n).collect(),
                    nlink,
                }
            } else {
                let block = |b: u64| {
                    let data = fs.read(ino, b * BLOCK, BLOCK as usize).ok()?;
                    let uniform =
                        data.len() == BLOCK as usize && data.iter().all(|&x| x == data[0]);
                    uniform.then_some(data[0])
                };
                Entry::File {
                    nlink,
                    size,
                    blocks: (0..size.div_ceil(BLOCK)).map(block).collect(),
                    also: Vec::new(),
                }
            };
            nodes.push((path, ino, entry));
        }
        Namespace::linked(nodes)
    }

    /// Builds a namespace from `(path, node, entry)` triples, filling in
    /// each file's other names from the paths that share its node.
    fn linked(nodes: impl IntoIterator<Item = (String, u64, Entry)>) -> Namespace {
        let nodes: Vec<_> = nodes.into_iter().collect();
        let mut map = BTreeMap::new();
        for (path, id, mut entry) in nodes.iter().cloned() {
            if let Entry::File { also, .. } = &mut entry {
                let same = nodes.iter().filter(|(p, n, _)| *n == id && *p != path);
                *also = same.map(|(p, _, _)| p.clone()).collect();
                also.sort();
            }
            map.insert(path, entry);
        }
        Namespace(map)
    }

    /// `Ok` when this namespace equals one of the labelled `candidates`.
    /// Else the first path where it differs from every candidate (or,
    /// when it mixes them, from the first), what it holds there and
    /// what each candidate has.
    pub fn matches(&self, candidates: &[(String, Namespace)]) -> Result<(), String> {
        if candidates.iter().any(|(_, ns)| ns == self) {
            return Ok(());
        }
        let paths: BTreeSet<&String> = candidates
            .iter()
            .flat_map(|(_, ns)| ns.0.keys())
            .chain(self.0.keys())
            .collect();
        let differs = |p: &String, ns: &Namespace| self.0.get(p) != ns.0.get(p);
        let path = paths
            .iter()
            .find(|p| candidates.iter().all(|(_, ns)| differs(p, ns)))
            .or_else(|| paths.iter().find(|p| differs(p, &candidates[0].1)))
            .expect("a namespace equal to no candidate differs somewhere");
        let show = |ns: &Namespace| ns.0.get(*path).map_or("nothing".into(), |e| e.to_string());
        let has: Vec<_> = candidates
            .iter()
            .map(|(label, ns)| format!("{label} has {}", show(ns)))
            .collect();
        Err(format!("{path}: holds {} — {}", show(self), has.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(p: &str) -> String {
        p.to_string()
    }

    /// Three steps: a directory and a file of two blocks; a hard link
    /// to it; a third block and the first name unlinked.
    fn script() -> FsScript {
        FsScript::new(
            "oracle",
            [
                vec![
                    Op::Mkdir(path("/d")),
                    Op::Create(path("/d/a")),
                    Op::Write {
                        path: path("/d/a"),
                        block: 0,
                        blocks: 2,
                        byte: 7,
                    },
                    Op::Fsync(path("/d/a")),
                ],
                vec![
                    Op::Link {
                        from: path("/d/a"),
                        to: path("/d/b"),
                    },
                    Op::Fsync(path("/d")),
                ],
                vec![
                    Op::Write {
                        path: path("/d/a"),
                        block: 3,
                        blocks: 1,
                        byte: 9,
                    },
                    Op::Unlink(path("/d/a")),
                    Op::Fsync(path("/d")),
                ],
            ],
        )
    }

    /// The model after steps `0..=last`.
    fn after(script: &FsScript, last: usize) -> Namespace {
        let mut model = Model::default();
        let ops = script.steps[..=last].iter().flat_map(|s| &s.ops);
        ops.for_each(|op| model.apply(op));
        model.namespace()
    }

    /// Every step ran `Ok`; `persisted` of them ended before the cut, and
    /// the next one was issued.
    fn cut(persisted: usize) -> (Vec<StepRun>, HashSet<u64>) {
        let ok = StepRun {
            issued: 0,
            ended: 0,
            outcome: Ok(()),
        };
        (vec![ok; 3], (0..=2 * persisted as u64).collect())
    }

    #[test]
    fn the_model_counts_links_holes_and_subdirectories() {
        let ns = after(&script(), 2);
        assert_eq!(
            ns.0["/"],
            Entry::Dir {
                names: ["d".to_string()].into(),
                nlink: 3
            }
        );
        assert_eq!(
            ns.0["/d/b"],
            Entry::File {
                nlink: 1,
                size: 4 * BLOCK,
                blocks: vec![Some(7), Some(7), Some(0), Some(9)],
                also: vec![],
            }
        );
        let linked = after(&script(), 1);
        assert!(
            matches!(&linked.0["/d/a"], Entry::File { nlink: 2, also, .. } if also == &["/d/b"])
        );
    }

    #[test]
    fn a_cut_accepts_the_persisted_step_and_the_one_in_flight() {
        let s = script();
        let (runs, acked) = cut(1);
        for ok in [0, 1] {
            assert_eq!(s.judge(&runs, &acked, &after(&s, ok)), Ok(()), "step {ok}");
        }
        assert!(
            s.judge(&runs, &acked, &after(&s, 2)).is_err(),
            "step 2 was not issued"
        );
        // Before any step ended, the empty start is a candidate too.
        let (runs, acked) = cut(0);
        assert_eq!(
            s.judge(&runs, &acked, &Model::default().namespace()),
            Ok(())
        );
    }

    #[test]
    fn a_cut_rejects_a_state_two_steps_ahead() {
        let s = script();
        let (runs, acked) = cut(0);
        let err = s.judge(&runs, &acked, &after(&s, 1)).unwrap_err();
        assert!(err.starts_with("/d: holds {a, b}"), "{err}");
        assert!(
            err.contains("the start has nothing, step 0 has {a}"),
            "{err}"
        );
    }

    #[test]
    fn a_cut_rejects_one_changed_byte() {
        let s = script();
        let (runs, acked) = cut(1);
        let mut found = after(&s, 0);
        if let Some(Entry::File { blocks, .. }) = found.0.get_mut("/d/a") {
            blocks[1] = None;
        }
        let err = s.judge(&runs, &acked, &found).unwrap_err();
        assert!(
            err.starts_with("/d/a: holds 8192 bytes [07 ??] nlink 1"),
            "{err}"
        );
    }

    #[test]
    fn a_cut_rejects_a_hard_link_pair_split_onto_two_inodes() {
        let s = script();
        let (runs, acked) = cut(2);
        let mut found = after(&s, 1);
        for (p, entry) in found.0.iter_mut() {
            if let Entry::File { nlink, also, .. } = entry {
                assert!(p.starts_with("/d/"));
                (*nlink, *also) = (1, Vec::new());
            }
        }
        let err = s.judge(&runs, &acked, &found).unwrap_err();
        assert!(
            err.starts_with("/d/a: holds 8192 bytes [07 07] nlink 1 —"),
            "{err}"
        );
        assert!(err.contains("nlink 2 also /d/b"), "{err}");
    }

    #[test]
    fn a_cut_rejects_the_effects_of_a_step_that_failed_before_it() {
        let s = script();
        let (mut runs, acked) = cut(2);
        runs[1].outcome = Err((1, FsError::Io));
        // Step 1 failed before the cut: the link must be absent, with or
        // without step 2 (in flight) on top.
        let without = {
            let mut model = Model::default();
            let ops = [&s.steps[0], &s.steps[2]].into_iter().flat_map(|s| &s.ops);
            ops.for_each(|op| model.apply(op));
            model.namespace()
        };
        assert_eq!(s.judge(&runs, &acked, &after(&s, 0)), Ok(()));
        assert_eq!(s.judge(&runs, &acked, &without), Ok(()));
        let err = s.judge(&runs, &acked, &after(&s, 1)).unwrap_err();
        assert_eq!(
            err,
            "/d: holds {a, b} nlink 2 — step 0 has {a} nlink 2, step 2 has {} nlink 2"
        );
    }
}
