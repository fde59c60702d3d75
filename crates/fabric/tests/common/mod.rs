//! What the fabric suites share: a transaction target is a one-node
//! cluster.

use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_cluster::{ClusterNode, ShardLayout};
use ccnvme_fabric::Backend;

/// A one-node cluster mounted on `drv`, whose data window
/// `[base, base + blocks)` serves `AllocTx`, `TX_COMMIT` and `BlkRead`.
/// Its protocol blocks (intent slots, gtx mark) follow the window on
/// the device.
///
/// Must be called from a simulated thread.
pub fn one_node(drv: Arc<CcNvmeDriver>, base: u64, blocks: u64) -> Backend {
    let layout = ShardLayout {
        data_blocks: blocks,
        ..ShardLayout::small(base)
    };
    Backend::Cluster(ClusterNode::mount(drv, layout).0)
}
