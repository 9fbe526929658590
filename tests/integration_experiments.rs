//! Cross-crate integration: the experiment harness regenerates every paper
//! artifact with the comparative shapes intact.

use neupims_core::experiments::{
    area_overhead, fig12_throughput, fig13_ablation, fig15_transpim, fig4_roofline, fig5_gpu_util,
    fig6_layer_util, table4_utilization, table5_power, ExperimentContext,
};
use neupims_types::LlmConfig;
use neupims_workload::Dataset;

fn ctx() -> ExperimentContext {
    ExperimentContext::table2().unwrap().with_samples(3)
}

#[test]
fn fig12_shape_holds_across_models_and_datasets() {
    let c = ctx();
    for dataset in Dataset::ALL {
        for model in [LlmConfig::gpt3_7b(), LlmConfig::gpt3_13b()] {
            for batch in [128usize, 384] {
                let rows = fig12_throughput(&c, dataset, &model, batch).unwrap();
                let get = |s: &str| rows.iter().find(|r| r.system == s).unwrap().tokens_per_sec;
                // The paper's ordering: NeuPIMs on top, naive next, the two
                // homogeneous baselines close together at the bottom.
                assert!(
                    get("NeuPIMs") > get("NPU+PIM"),
                    "{dataset:?} {} B={batch}",
                    model.name
                );
                let homo_ratio = get("GPU-only") / get("NPU-only");
                assert!(
                    homo_ratio > 0.5 && homo_ratio < 2.0,
                    "GPU-only and NPU-only should be close: {homo_ratio}"
                );
            }
        }
    }
}

#[test]
fn fig12_gains_grow_with_batch_size() {
    let c = ctx();
    let model = LlmConfig::gpt3_7b();
    let gain = |batch| {
        let rows = fig12_throughput(&c, Dataset::ShareGpt, &model, batch).unwrap();
        let get = |s: &str| rows.iter().find(|r| r.system == s).unwrap().tokens_per_sec;
        get("NeuPIMs") / get("NPU+PIM")
    };
    assert!(gain(512) > gain(64), "{} vs {}", gain(512), gain(64));
}

#[test]
fn fig13_sbi_crossover_is_visible() {
    let c = ctx();
    let rows = fig13_ablation(&c, &[64, 512]).unwrap();
    let get = |batch, v: &str| {
        rows.iter()
            .find(|r| r.batch == batch && r.variant == v)
            .unwrap()
            .improvement
    };
    // At B=64 forced SBI is at best marginal vs DRB+GMLBP; at B=512 it is
    // a clear win (the paper's crossover at ~256).
    let sbi_small = get(64, "NeuPIMs-DRB+GMLBP+SBI") / get(64, "NeuPIMs-DRB+GMLBP");
    let sbi_large = get(512, "NeuPIMs-DRB+GMLBP+SBI") / get(512, "NeuPIMs-DRB+GMLBP");
    assert!(sbi_large > sbi_small, "{sbi_small} -> {sbi_large}");
    assert!(sbi_large > 1.1, "SBI at B=512: {sbi_large}");
    // Every NeuPIMs variant beats the NPU+PIM baseline at B=512.
    for v in ["NeuPIMs-DRB", "NeuPIMs-DRB+GMLBP", "NeuPIMs-DRB+GMLBP+SBI"] {
        assert!(get(512, v) > 1.0, "{v} at B=512: {}", get(512, v));
    }
}

#[test]
fn fig15_band_and_trend() {
    let c = ctx();
    let rows = fig15_transpim(&c, &[64, 512]).unwrap();
    for r in &rows {
        assert!(r.speedup > 20.0 && r.speedup < 2000.0, "{r:?}");
    }
    // Larger batches widen the gap (TransPIM cannot batch).
    let sg = |b| {
        rows.iter()
            .find(|r| r.dataset == "ShareGPT" && r.batch == b)
            .unwrap()
            .speedup
    };
    assert!(sg(512) > sg(64));
}

#[test]
fn tables_and_motivation_artifacts() {
    let c = ctx();
    // Table 4 ordering.
    let t4 = table4_utilization(&c).unwrap();
    assert!(t4[0].npu < t4[1].npu && t4[1].npu < t4[2].npu);
    assert!(t4[2].bandwidth > t4[1].bandwidth);
    // Table 5 bands.
    let t5 = table5_power(&c).unwrap();
    let ratio = t5.neupims_mw / t5.baseline_mw;
    assert!(ratio > 1.2 && ratio < 3.0, "power ratio {ratio}");
    assert!(t5.energy_ratio < 1.0, "energy {}", t5.energy_ratio);
    // Motivation figures.
    assert_eq!(fig4_roofline().len(), 8);
    assert_eq!(fig5_gpu_util().len(), 8);
    // Area overhead ~= the paper's 3.11%.
    assert!((area_overhead() - 0.0311).abs() < 0.001);
}

/// Figure 6: the naive NPU+PIM device serializes its stages, so each
/// unit is busy only in its own stages and idles in the other's. The
/// whole-iteration utilization therefore sits below what either unit
/// reaches inside its stages — the paper's motivation for interleaving.
#[test]
fn fig6_naive_device_serializes_its_stages() {
    let rows = fig6_layer_util(&ctx()).unwrap();
    let stages: Vec<&str> = rows.iter().map(|r| r.stage).collect();
    assert_eq!(
        stages,
        [
            "QKV Generation",
            "Multi-Head Attention",
            "Projection + FFNs",
            "Total"
        ]
    );
    for r in &rows {
        assert!((0.0..=1.0).contains(&r.npu), "{r:?}");
        assert!((0.0..=1.0).contains(&r.pim), "{r:?}");
    }
    let (qkv, mha, ffn, total) = (&rows[0], &rows[1], &rows[2], &rows[3]);
    // PIM idles through the GEMM stages; the NPU idles through MHA.
    assert_eq!(qkv.pim, 0.0);
    assert_eq!(ffn.pim, 0.0);
    assert_eq!(mha.npu, 0.0);
    assert!(qkv.npu > 0.0 && ffn.npu > 0.0 && mha.pim > 0.0);
    // Serialization: the totals fall below the per-stage peaks.
    assert!(total.npu < qkv.npu && total.npu < ffn.npu, "{total:?}");
    assert!(total.pim < mha.pim, "{total:?}");
}
