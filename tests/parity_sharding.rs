//! Golden parity: wrapper TP against chip-internal TP.
//!
//! `ShardedBackend` prices tensor parallelism two ways. *Chip-internal*
//! TP (`ClusterSpec::new(1, pp)` on the board link, with `tp` passed as
//! the caller's degree) lets the device price its own ring all-reduces;
//! it is the original multi-device model, the form Figure 14 uses, and
//! the "legacy" reference the test names refer to. *Wrapper* TP (`ClusterSpec::new(tp,
//! pp)`, caller `tp = 1`) lifts those collectives out and re-prices them
//! on the fabric. Two limits pin the wrapper to the chip-internal
//! reference:
//!
//! * **Ideal fabric** — a zero-latency, infinite-bandwidth interconnect
//!   on a device whose own link config is free: both terms the fabric
//!   prices vanish, so every `(tp, pp)` point must match *bit-for-bit*
//!   (same style as the `run_lockstep` parity of the event-driven fleet).
//! * **PCIe fabric** — `PcieLink::from_config` uses the exact
//!   device-internal ring-all-reduce and stage-hop formulas, so on the
//!   serial device modes (whose collective term is one ring per layer
//!   pair) the board link matches bit-for-bit too.

mod common;

use common::chip_tp;
use neupims_core::backend::{Backend, TransPimBackend};
use neupims_core::device::{Device, DeviceMode};
use neupims_core::interconnect::{IdealLink, PcieLink};
use neupims_core::sharding::{ClusterSpec, ShardedBackend};
use neupims_pim::calibrate;
use neupims_types::{config::InterconnectConfig, LlmConfig, NeuPimsConfig};

/// The (tp, pp) grid every parity check walks: pure TP, pure PP, mixed,
/// and non-dividing request counts are all represented by the callers.
const GRID: [(u32, u32); 6] = [(1, 1), (2, 1), (8, 1), (1, 4), (4, 2), (8, 4)];

/// Table 2 hardware with a free board-level link: the zero-cost limit in
/// which the device prices no collectives itself.
fn zero_link_config() -> NeuPimsConfig {
    let mut cfg = NeuPimsConfig::table2();
    cfg.interconnect = InterconnectConfig {
        link_bytes_per_cycle: u64::MAX,
        link_latency: 0,
    };
    cfg
}

fn assert_parity<B: Backend>(b: &B, model: &LlmConfig, seqs: &[u64], ideal: bool, tag: &str) {
    for (tp, pp) in GRID {
        let spec = ClusterSpec::new(tp, pp);
        if !model.num_layers.is_multiple_of(pp) || seqs.len() < pp as usize {
            continue;
        }
        let chip = chip_tp(b, model, tp, pp, seqs).unwrap();
        let fabric: Box<dyn neupims_core::Interconnect> = if ideal {
            Box::new(IdealLink)
        } else {
            Box::new(PcieLink::from_config(b.interconnect()))
        };
        let sharded = ShardedBackend::new(b, spec, fabric).unwrap();
        let wrapper = sharded.cluster_tokens_per_sec(model, 1, seqs).unwrap();
        assert_eq!(
            wrapper.to_bits(),
            chip.to_bits(),
            "{tag} (tp{tp},pp{pp}): wrapper {wrapper} != chip-internal {chip}"
        );
    }
}

#[test]
fn ideal_fabric_matches_legacy_bit_for_bit_on_every_device_mode() {
    let cfg = zero_link_config();
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    let seqs: Vec<u64> = (0..64u64).map(|i| 100 + (i * 37) % 500).collect();
    for mode in [
        DeviceMode::NpuOnly,
        DeviceMode::NaiveNpuPim,
        DeviceMode::neupims(),
    ] {
        let b = Device::new(cfg, cal, mode);
        assert_parity(&b, &model, &seqs, true, b.label());
    }
}

#[test]
fn ideal_fabric_matches_legacy_on_transpim() {
    let cfg = zero_link_config();
    let cal = calibrate(&cfg).unwrap();
    let b = TransPimBackend::new(cfg, cal);
    let model = LlmConfig::gpt3_7b();
    assert_parity(&b, &model, &[300u64; 32], true, "transpim");
}

#[test]
fn pcie_fabric_matches_legacy_on_serial_modes() {
    // The serial device modes price exactly one ring all-reduce pair per
    // layer, which PcieLink::from_config reproduces formula-for-formula.
    // (The interleaved NeuPIMs mode prices collectives per sub-batch, so
    // only the ideal limit is exact there.)
    let b = Device::table2_mode(DeviceMode::NpuOnly).unwrap();
    let model = LlmConfig::gpt3_7b();
    let seqs: Vec<u64> = (0..48u64).map(|i| 80 + (i * 53) % 700).collect();
    assert_parity(&b, &model, &seqs, false, "npu-only/pcie");
    let b = Device::table2_mode(DeviceMode::NaiveNpuPim).unwrap();
    assert_parity(&b, &model, &seqs, false, "naive/pcie");
}

#[test]
fn parity_survives_remainder_micro_batches() {
    // 17 requests at PP=2: both forms price the 9-request representative
    // micro-batch.
    let cfg = zero_link_config();
    let cal = calibrate(&cfg).unwrap();
    let b = Device::new(cfg, cal, DeviceMode::neupims());
    let model = LlmConfig::gpt3_7b();
    let spec = ClusterSpec::new(4, 2);
    for n in [17usize, 18, 31] {
        let seqs = vec![300u64; n];
        let chip = chip_tp(&b, &model, 4, 2, &seqs).unwrap();
        let wrapper = ShardedBackend::new(&b, spec, Box::new(IdealLink))
            .unwrap()
            .cluster_tokens_per_sec(&model, 1, &seqs)
            .unwrap();
        assert_eq!(wrapper.to_bits(), chip.to_bits(), "{n} requests");
    }
}

#[test]
fn real_fabric_never_beats_the_free_limit() {
    // Not a parity point but the sanity bound that makes parity
    // meaningful: charging for the link can only slow the cluster down.
    let b = Device::table2().unwrap();
    let model = LlmConfig::gpt3_30b();
    let seqs = vec![300u64; 64];
    for (tp, pp) in [(4u32, 1u32), (8, 1), (4, 2)] {
        let spec = ClusterSpec::new(tp, pp);
        let free = ShardedBackend::new(&b, spec, Box::new(IdealLink))
            .unwrap()
            .cluster_tokens_per_sec(&model, 1, &seqs)
            .unwrap();
        let priced = ShardedBackend::new(&b, spec, Box::new(PcieLink::from_gbps(16.0)))
            .unwrap()
            .cluster_tokens_per_sec(&model, 1, &seqs)
            .unwrap();
        assert!(
            priced <= free,
            "(tp{tp},pp{pp}): priced {priced} beats free {free}"
        );
    }
}
