//! `ccnvme-obs` — observability report and schema-validation tool.
//!
//! * `ccnvme-obs report [--prometheus]` boots a small MQFS/ccNVMe stack,
//!   runs a short fsync/fatomic workload plus one fabric loopback
//!   session, and prints the full metrics snapshot — `pcie.*` through
//!   `fabric.*` — (JSON by default, Prometheus text with
//!   `--prometheus`).
//! * `ccnvme-obs validate <file>...` checks that each file is a valid
//!   `ccnvme-metrics/v1` document; exits non-zero on the first failure.
//!   `scripts/bench_smoke.sh` uses this instead of external tooling.
//! * `ccnvme-obs forensics [--save <path>] [<image-file>]` mounts the
//!   flight recorder of a post-crash PMR image, prints the
//!   causally-ordered per-transaction timelines with verdicts, and
//!   cross-checks them against the §4.4 recovery scan — exiting
//!   non-zero on any contradiction. With no image file it crashes a
//!   small MQFS/ccNVMe stack itself (power cut after a burst of
//!   fatomic/fsync transactions) and analyzes the wreckage;
//!   `--save` writes that image out for later inspection.

use std::sync::Arc;

use ccnvme_bench::{Stack, StackConfig};
use ccnvme_fabric::{Backend, ClientCfg, FabricClient, FabricConfig, FabricTarget, SyncKind};
use ccnvme_obs::json::validate_metrics;
use ccnvme_obs::MetricsSnapshot;
use ccnvme_pcie::PmrImage;
use ccnvme_sim::Sim;
use ccnvme_ssd::CrashMode;
use ccnvme_ssd::SsdProfile;
use mqfs::FsVariant;

const USAGE: &str = "usage: ccnvme-obs report [--prometheus] | ccnvme-obs validate <file>... | ccnvme-obs forensics [--save <path>] [<image-file>]";

fn report() -> MetricsSnapshot {
    let scfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1);
    Sim::run_main(scfg.sim_cores(), move || {
        let (stack, fs) = Stack::format(&scfg);
        for i in 0..8 {
            let ino = fs.create_path(&format!("/f{i}")).expect("create");
            fs.write(ino, 0, &[0x42u8; 4096]).expect("write");
            if i % 2 == 0 {
                fs.fsync(ino).expect("fsync");
            } else {
                fs.fatomic(ino).expect("fatomic");
            }
        }
        // One fabric loopback session over the same file system, so the
        // report covers the `fabric.*` namespace too.
        let target = FabricTarget::new(Backend::Fs(Arc::clone(&fs)), FabricConfig::new(1));
        let mut client =
            FabricClient::connect(1, target.loopback_connector(1), ClientCfg::default())
                .expect("fabric connect");
        let ino = client.create("/fabric-report").expect("create");
        client.write(ino, 0, &[0x42u8; 4096]).expect("write");
        client.sync(ino, SyncKind::Fsync).expect("fsync");
        client.bye();
        stack.metrics()
    })
}

/// Runs a small ccNVMe stack to a deterministic power cut and returns
/// the surviving PMR image (media is irrelevant to the recorder).
fn crash_demo_image() -> PmrImage {
    let scfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1);
    Sim::run_main(scfg.sim_cores(), move || {
        let (stack, fs) = Stack::format(&scfg);
        for i in 0..6 {
            let ino = fs.create_path(&format!("/tx{i}")).expect("create");
            fs.write(ino, 0, &[0x5a; 1024]).expect("write");
            if i % 2 == 0 {
                fs.fatomic(ino).expect("fatomic");
            } else {
                fs.fsync(ino).expect("fsync");
            }
        }
        // Power cut: in-flight posted writes and the volatile cache are
        // lost; the PMR (and the recorder inside it) survives.
        stack.crash_snapshot(CrashMode::adversarial(7)).pmr
    })
}

/// Analyzes one PMR image; returns `true` when it is contradiction-free.
fn run_forensics(image: &PmrImage) -> bool {
    let fx = match ccnvme::image_forensics(image) {
        Ok(fx) => fx,
        Err(e) => {
            eprintln!("forensics: {e}");
            return false;
        }
    };
    print!("{}", ccnvme_obs::forensics::render(&fx.report));
    println!(
        "recovery scan: generation {} | {} unfinished tx in the window | {} aborted",
        fx.recovery.generation,
        fx.recovery.unfinished.len(),
        fx.recovery.aborted.len()
    );
    if fx.contradictions.is_empty() {
        println!("cross-check: consistent (no contradictions)");
        true
    } else {
        for c in &fx.contradictions {
            println!("CONTRADICTION: {c}");
        }
        false
    }
}

fn forensics_cmd(args: &[String]) -> i32 {
    let mut save: Option<&str> = None;
    let mut image_file: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--save" {
            match it.next() {
                Some(p) => save = Some(p),
                None => {
                    eprintln!("{USAGE}");
                    return 2;
                }
            }
        } else {
            image_file = Some(a);
        }
    }
    let image = match image_file {
        Some(f) => match std::fs::read(f) {
            Ok(b) => PmrImage::from(b),
            Err(e) => {
                eprintln!("{f}: cannot read: {e}");
                return 1;
            }
        },
        None => crash_demo_image(),
    };
    if let Some(path) = save {
        if let Err(e) = std::fs::write(path, image.read_vec(0, image.size())) {
            eprintln!("{path}: cannot write: {e}");
            return 1;
        }
    }
    if run_forensics(&image) {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => {
            let snap = report();
            if args.iter().any(|a| a == "--prometheus") {
                print!("{}", snap.to_prometheus());
            } else {
                print!("{}", snap.to_json());
            }
        }
        Some("validate") if args.len() > 1 => {
            for file in &args[1..] {
                let doc = match std::fs::read_to_string(file) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("{file}: cannot read: {e}");
                        std::process::exit(1);
                    }
                };
                if let Err(e) = validate_metrics(&doc) {
                    eprintln!("{file}: INVALID: {e}");
                    std::process::exit(1);
                }
                println!("{file}: ok");
            }
        }
        Some("forensics") => std::process::exit(forensics_cmd(&args[1..])),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
