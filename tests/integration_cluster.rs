//! Cross-crate integration: multi-device scaling (Section 7 / Figure 14)
//! and its interaction with the model zoo.

mod common;

use common::chip_tp;
use neupims_core::device::{Device, DeviceMode};
use neupims_core::experiments::{fig14_parallelism, ExperimentContext};
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};

fn device() -> Device {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    Device::new(cfg, cal, DeviceMode::neupims())
}

#[test]
fn fig14_prefers_tp_at_every_device_count() {
    let ctx = ExperimentContext::table2().unwrap().with_samples(2);
    let rows = fig14_parallelism(&ctx).unwrap();
    let get = |tp, pp| {
        rows.iter()
            .find(|r| r.tp == tp && r.pp == pp)
            .unwrap()
            .tokens_per_sec
    };
    for (winner, loser) in [
        ((4, 1), (2, 2)),
        ((8, 1), (4, 2)),
        ((8, 2), (4, 4)),
        ((16, 4), (8, 8)),
    ] {
        assert!(
            get(winner.0, winner.1) > get(loser.0, loser.1),
            "TP-heavy {winner:?} must beat PP-heavy {loser:?}"
        );
    }
}

#[test]
fn fig14_rows_are_bit_identical_golden() {
    // Figure 14's eight (TP, PP) bars at the default context, pinned to
    // the bit so a refactor of the multi-chip pricing path cannot move
    // them silently.
    let rows = fig14_parallelism(&ExperimentContext::table2().unwrap()).unwrap();
    let golden: [((u32, u32), u64); 8] = [
        ((4, 1), 0x40dd249e642dba26),
        ((2, 2), 0x40d2dfb32726c5e1),
        ((8, 1), 0x40f282cf63a83cbb),
        ((4, 2), 0x40e2ed4433e71e29),
        ((8, 2), 0x40f306302c6eaccc),
        ((4, 4), 0x40e55d7135bdd99c),
        ((16, 4), 0x40f9843643af259b),
        ((8, 8), 0x40f38f7facb9fbc4),
    ];
    assert_eq!(rows.len(), golden.len());
    for (row, ((tp, pp), bits)) in rows.iter().zip(golden) {
        assert_eq!((row.tp, row.pp), (tp, pp));
        assert_eq!(row.devices, tp * pp);
        assert_eq!(
            row.tokens_per_sec.to_bits(),
            bits,
            "(tp{tp},pp{pp}): {} tokens/s",
            row.tokens_per_sec
        );
    }
}

#[test]
fn table3_defaults_deploy_cleanly() {
    // Every Table 3 model runs at its published (TP, PP) with 256 requests.
    let d = device();
    let seqs = vec![300u64; 256];
    for model in LlmConfig::table3() {
        let (tp, pp) = (model.parallelism.tp, model.parallelism.pp);
        let thr =
            chip_tp(&d, &model, tp, pp, &seqs).unwrap_or_else(|e| panic!("{}: {e}", model.name));
        assert!(thr > 0.0, "{}", model.name);
    }
}

#[test]
fn bigger_models_are_slower_at_equal_deployment() {
    let d = device();
    let seqs = vec![300u64; 256];
    let t7 = chip_tp(&d, &LlmConfig::gpt3_7b(), 4, 1, &seqs).unwrap();
    let t13 = chip_tp(&d, &LlmConfig::gpt3_13b(), 4, 1, &seqs).unwrap();
    assert!(t7 > t13, "7B {t7} vs 13B {t13}");
}

#[test]
fn pipeline_needs_enough_requests() {
    let d = device();
    let model = LlmConfig::gpt3_7b();
    // PP=8 with only 4 requests cannot form micro-batches.
    let err = chip_tp(&d, &model, 4, 8, &[100; 4]);
    assert!(err.is_err());
}
