//! Helpers shared by the multi-chip integration tests.

use neupims_core::backend::Backend;
use neupims_core::interconnect::PcieLink;
use neupims_core::sharding::{ClusterSpec, ShardedBackend};
use neupims_types::{LlmConfig, SimError};

/// Tokens/s of `b` deployed with chip-internal TP: `ClusterSpec::new(1,
/// pp)` on the backend's own board link, with `tp` passed as the
/// caller's degree. The device prices its own ring all-reduces, as in
/// Figure 14.
pub fn chip_tp<B: Backend>(
    b: &B,
    model: &LlmConfig,
    tp: u32,
    pp: u32,
    seqs: &[u64],
) -> Result<f64, SimError> {
    let link = Box::new(PcieLink::from_config(b.interconnect()));
    ShardedBackend::new(b, ClusterSpec::new(1, pp), link)?.cluster_tokens_per_sec(model, tp, seqs)
}
