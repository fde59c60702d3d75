//! Full-stack construction helpers shared by the crash harness, the
//! integration tests and the benchmarks.

use std::{collections::HashSet, sync::Arc};

use ccnvme::{CcNvmeDriver, NvmeDriver};
use ccnvme_block::BlockDevice;
use ccnvme_fault::FaultPlan;
use ccnvme_ssd::{CrashMode, CtrlConfig, DurableImage, NvmeController, SsdProfile};
use mqfs::{FileSystem, FsConfig, FsError, FsVariant};

/// A running device + driver pair.
pub struct Stack {
    /// The device as seen by the file system.
    pub dev: Arc<dyn BlockDevice>,
    driver: Driver,
}

/// The driver a [`Stack`] runs on.
enum Driver {
    Cc(Arc<CcNvmeDriver>),
    Nv(Arc<NvmeDriver>),
}

/// Everything needed to build (and rebuild) a stack deterministically.
#[derive(Clone)]
pub struct StackConfig {
    /// FS variant, which also selects the driver (ccNVMe for the MQFS
    /// family and the +ccNVMe ablation, plain NVMe otherwise).
    pub variant: FsVariant,
    /// Device profile.
    pub profile: SsdProfile,
    /// Host cores (hardware queues). Device threads run on `cores`,
    /// kjournald (if any) on `cores + 1`.
    pub cores: usize,
    /// ccNVMe hardware queue depth.
    pub queue_depth: u32,
    /// Journal region size in blocks.
    pub journal_blocks: u64,
    /// Transaction-aware interrupt coalescing (§4.6 device extension).
    pub irq_coalesce_tx: bool,
    /// Deterministic fault plan injected into the device (none = healthy
    /// hardware). A fresh injector is built per stack, so `Nth` counters
    /// restart with each `format`/`recover`.
    pub fault: Option<FaultPlan>,
    /// Record every durable-effecting device event in a
    /// [`ccnvme_ssd::PersistLog`] so the crash-surface enumerator can
    /// materialize the image after any event prefix.
    pub record_persistence: bool,
}

impl StackConfig {
    /// Defaults for `variant` on `profile` with `cores` host cores.
    pub fn new(variant: FsVariant, profile: SsdProfile, cores: usize) -> Self {
        StackConfig {
            variant,
            profile,
            cores,
            queue_depth: 256,
            journal_blocks: 4_096,
            irq_coalesce_tx: false,
            fault: None,
            record_persistence: false,
        }
    }

    /// Simulated cores a `Sim` must provide for this stack: host cores,
    /// one device core and one journald core.
    pub fn sim_cores(&self) -> usize {
        self.cores + 2
    }

    /// Whether this stack runs on the ccNVMe driver (and therefore has a
    /// PMR with a P-SQ window and a flight-recorder region).
    pub fn uses_ccnvme(&self) -> bool {
        self.variant.mq_journal() || self.variant == FsVariant::Ext4CcNvme
    }

    fn fs_config(&self) -> FsConfig {
        FsConfig {
            variant: self.variant,
            journal_blocks: self.journal_blocks,
            queues: self.cores,
            journald_core: self.cores + 1,
        }
    }

    fn ctrl_config(&self) -> CtrlConfig {
        let mut c = CtrlConfig::new(self.profile.clone());
        c.device_core = self.cores;
        c.irq_coalesce_tx = self.irq_coalesce_tx;
        c.fault = self.fault.clone().map(|p| Arc::new(p.injector()));
        c.record_persistence = self.record_persistence;
        c
    }
}

impl Stack {
    fn from_ctrl(cfg: &StackConfig, ctrl: NvmeController) -> (Stack, HashSet<u64>) {
        if cfg.uses_ccnvme() {
            // One hardware queue per simulated core (including the
            // journald and device cores) so in-order transaction
            // completion never couples unrelated threads.
            let queues = (cfg.cores + 2) as u16;
            let (drv, report) = CcNvmeDriver::probe(ctrl, queues, cfg.queue_depth);
            let drv = Arc::new(drv);
            let dev = Arc::clone(&drv) as Arc<dyn BlockDevice>;
            let driver = Driver::Cc(drv);
            (Stack { dev, driver }, report.unfinished_tx_ids())
        } else {
            let drv = Arc::new(NvmeDriver::new(ctrl, cfg.cores + 2));
            let dev = Arc::clone(&drv) as Arc<dyn BlockDevice>;
            let driver = Driver::Nv(drv);
            (Stack { dev, driver }, HashSet::new())
        }
    }

    /// Builds a fresh stack and formats a file system on it.
    pub fn format(cfg: &StackConfig) -> (Stack, Arc<FileSystem>) {
        let ctrl = NvmeController::new(cfg.ctrl_config());
        let (stack, _discard) = Self::from_ctrl(cfg, ctrl);
        let fs = FileSystem::format(Arc::clone(&stack.dev), cfg.fs_config());
        (stack, fs)
    }

    /// Boots a stack from a crash image and mounts (running recovery).
    pub fn recover(
        cfg: &StackConfig,
        image: &DurableImage,
    ) -> Result<(Stack, Arc<FileSystem>), FsError> {
        let ctrl = NvmeController::from_image(cfg.ctrl_config(), image);
        let (stack, discard) = Self::from_ctrl(cfg, ctrl);
        let fs = FileSystem::mount(Arc::clone(&stack.dev), cfg.fs_config(), &discard)?;
        // Recovery settled: replay ran and the journal's replay floor is
        // durably past every discarded ID, so the PMR abort logs have
        // served their purpose and can be cleared. Skipped when the
        // mount degraded — a repair mount must still see the logs.
        if fs.error_state().is_none() {
            if let Driver::Cc(cc) = &stack.driver {
                cc.clear_abort_logs();
            }
        }
        Ok((stack, fs))
    }

    /// The ccNVMe driver, when the variant uses one (the fabric target
    /// serves raw transactions through it).
    pub fn cc_driver(&self) -> Option<Arc<CcNvmeDriver>> {
        match &self.driver {
            Driver::Cc(d) => Some(Arc::clone(d)),
            Driver::Nv(_) => None,
        }
    }

    /// The controller (for traffic counters and crash injection).
    pub fn controller(&self) -> &NvmeController {
        match &self.driver {
            Driver::Cc(d) => d.controller(),
            Driver::Nv(d) => d.controller(),
        }
    }

    /// The stack's observability handle (metrics registry + trace
    /// ring), shared by every layer attached to this link.
    pub fn obs(&self) -> Arc<ccnvme_obs::Obs> {
        Arc::clone(&self.controller().link().obs)
    }

    /// One-pass snapshot of every metric this stack has registered:
    /// every layer's counters, the host error ladder's `host_err.*` and
    /// the fault injector's `fault.*` among them.
    pub fn metrics(&self) -> ccnvme_obs::MetricsSnapshot {
        self.obs().metrics.snapshot()
    }

    /// Non-destructive crash snapshot at the current instant.
    pub fn crash_snapshot(&self, mode: CrashMode) -> DurableImage {
        self.controller().crash_snapshot(mode)
    }

    /// Destructive power failure.
    pub fn power_fail(&self, mode: CrashMode) -> DurableImage {
        self.controller().power_fail(mode)
    }
}
