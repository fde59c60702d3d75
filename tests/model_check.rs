//! Model-based property testing: random operation sequences run against
//! both MQFS (full simulated stack) and the crash harness's in-memory
//! model; the observed namespace must equal the model's (names, sizes,
//! holes and every block), the volume must stay fsck-clean, and a crash
//! at the end must preserve every fsynced fact.

use std::{collections::HashMap, sync::Arc};

use ccnvme_repro::crashtest::{Model, Namespace, Op as FsOp, Stack, StackConfig};
use ccnvme_repro::sim::Sim;
use ccnvme_repro::ssd::{CrashMode, SsdProfile};
use mqfs::{FsError, FsVariant};
use proptest::prelude::*;

/// One scripted operation over a small universe of names.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write(u8, u16, u8),
    Unlink(u8),
    Fsync(u8),
    Fatomic(u8),
    Rename(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8).prop_map(Op::Create),
        (0u8..8, 0u16..16, any::<u8>()).prop_map(|(f, p, b)| Op::Write(f, p, b)),
        (0u8..8).prop_map(Op::Unlink),
        (0u8..8).prop_map(Op::Fsync),
        (0u8..8).prop_map(Op::Fatomic),
        (0u8..8, 0u8..8).prop_map(|(a, b)| Op::Rename(a, b)),
    ]
}

fn path(f: u8) -> String {
    format!("/m{f}")
}

fn run_script(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
    let failure: Arc<parking_lot::Mutex<Option<String>>> = Arc::new(parking_lot::Mutex::new(None));
    let f2 = Arc::clone(&failure);
    let mut sim = Sim::new(cfg.sim_cores());
    sim.spawn("model", 0, move || {
        let (stack, fs) = Stack::format(&cfg);
        let mut model = Model::default();
        // Per file, its blocks at its last `fsync` (0 for a hole): what a
        // crash must preserve at minimum while the file keeps its name.
        let mut synced: HashMap<u8, Vec<u8>> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Create(f) => {
                    let wanted = !model.exists(&path(f));
                    match fs.create_path(&path(f)) {
                        Ok(_) if wanted => model.apply(&FsOp::Create(path(f))),
                        Err(FsError::Exists) if !wanted => {}
                        other => {
                            *f2.lock() = Some(format!("create {f}: unexpected {other:?}"));
                            return;
                        }
                    }
                }
                Op::Write(f, page, byte) => {
                    if model.exists(&path(f)) {
                        let ino = fs.resolve(&path(f)).expect("model says it exists");
                        fs.write(ino, page as u64 * 4096, &[byte; 4096])
                            .expect("write");
                        model.apply(&FsOp::Write {
                            path: path(f),
                            block: page as u64,
                            blocks: 1,
                            byte,
                        });
                    } else {
                        assert_eq!(fs.resolve(&path(f)).err(), Some(FsError::NotFound));
                    }
                }
                Op::Unlink(f) => {
                    let existed = model.exists(&path(f));
                    synced.remove(&f);
                    let r = fs.unlink_path(&path(f));
                    if existed {
                        r.expect("model says it existed");
                        model.apply(&FsOp::Unlink(path(f)));
                    } else {
                        assert_eq!(r.err(), Some(FsError::NotFound));
                    }
                }
                Op::Fsync(f) | Op::Fatomic(f) => {
                    if let Some(blocks) = model.blocks(&path(f)) {
                        let ino = fs.resolve(&path(f)).expect("exists");
                        match op {
                            Op::Fsync(_) => {
                                fs.fsync(ino).expect("fsync");
                                // Only fsync is a durability point; the
                                // paper's fatomic promises atomicity, not
                                // survival of an immediate crash.
                                synced.insert(f, blocks.to_vec());
                            }
                            _ => fs.fatomic(ino).expect("fatomic"),
                        }
                    }
                }
                Op::Rename(a, b) => {
                    if a == b || !model.exists(&path(a)) {
                        continue;
                    }
                    fs.rename(fs.root(), &format!("m{a}"), fs.root(), &format!("m{b}"))
                        .expect("rename");
                    model.apply(&FsOp::Rename {
                        from: path(a),
                        to: path(b),
                    });
                    synced.remove(&a);
                    synced.remove(&b);
                }
            }
        }
        // Live-state equivalence: every name, size, hole and block.
        let want = [("the model".to_string(), model.namespace())];
        if let Err(e) = Namespace::observe(&fs).matches(&want) {
            *f2.lock() = Some(e);
            return;
        }
        let problems = fs.check();
        if !problems.is_empty() {
            *f2.lock() = Some(format!("fsck: {problems:?}"));
            return;
        }
        // Crash and verify durability of the *fsynced* snapshots for
        // files that were not renamed/unlinked afterwards.
        let image = stack.power_fail(CrashMode::adversarial(7));
        let (_s2, fs2) = match Stack::recover(&cfg, &image) {
            Ok(v) => v,
            Err(e) => {
                *f2.lock() = Some(format!("recover failed: {e}"));
                return;
            }
        };
        let problems = fs2.check();
        if !problems.is_empty() {
            *f2.lock() = Some(format!("post-crash fsck: {problems:?}"));
            return;
        }
        for (f, pages) in &synced {
            let ino = match fs2.resolve(&path(*f)) {
                Ok(i) => i,
                Err(e) => {
                    *f2.lock() = Some(format!("fsynced file {f} lost after crash: {e}"));
                    return;
                }
            };
            for (page, byte) in pages.iter().enumerate() {
                let data = fs2.read(ino, page as u64 * 4096, 4096).expect("read");
                // The page may hold a NEWER (post-sync, pre-crash) value
                // or the synced one — but the synced value must not have
                // regressed to anything else.
                let live = model.blocks(&path(*f)).and_then(|p| p.get(page));
                let ok = data.iter().all(|b| b == byte)
                    || live.is_some_and(|l| data.iter().all(|b| b == l));
                if !ok {
                    *f2.lock() = Some(format!(
                        "fsynced file {f} page {page}: unexpected content after crash"
                    ));
                    return;
                }
            }
        }
    });
    sim.run();
    if let Some(msg) = failure.lock().take() {
        return Err(TestCaseError::fail(msg));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 64,
    })]

    #[test]
    fn random_op_sequences_match_the_model(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_script(ops)?;
    }
}
