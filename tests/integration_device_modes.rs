//! Cross-crate integration: every device mode executes a full decode
//! iteration end-to-end (workload sampling -> scheduling -> compilation ->
//! timing), and the paper's headline comparisons hold.

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::device::{Device, DeviceMode, SbiPolicy};
use neupims_core::IterationBreakdown;
use neupims_pim::calibrate;
use neupims_sched::{CostModelKind, TraceMemo};
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::{warm_batch, Dataset};

fn setup() -> (NeuPimsConfig, neupims_pim::PimCalibration) {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    (cfg, cal)
}

fn sharegpt_batch(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    warm_batch(&mut rng, Dataset::ShareGpt, n)
        .iter()
        .map(|r| r.seq_len())
        .collect()
}

#[test]
fn all_modes_run_all_models() {
    let (cfg, cal) = setup();
    let seqs = sharegpt_batch(64, 1);
    for model in LlmConfig::table3() {
        for mode in [
            DeviceMode::NpuOnly,
            DeviceMode::NaiveNpuPim,
            DeviceMode::NeuPims {
                gmlbp: false,
                sbi: SbiPolicy::Off,
            },
            DeviceMode::NeuPims {
                gmlbp: true,
                sbi: SbiPolicy::Always,
            },
            DeviceMode::neupims(),
        ] {
            let d = Device::new(cfg, cal, mode);
            let layers = model.num_layers / model.parallelism.pp;
            let b = d
                .decode_iteration(&model, model.parallelism.tp, layers, &seqs)
                .unwrap_or_else(|e| panic!("{} / {}: {e}", model.name, mode.label()));
            assert!(b.total_cycles > 0, "{} {}", model.name, mode.label());
            assert_eq!(b.tokens, 64);
        }
    }
}

#[test]
fn headline_speedups_match_paper_bands() {
    // Paper: NPU+PIM ~1.5x over NPU-only (avg); NeuPIMs 1.13x-3x over
    // NPU+PIM; NeuPIMs ~2.4x over NPU-only (avg), growing with batch.
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_7b();
    let mut over_naive = Vec::new();
    let mut over_npu = Vec::new();
    for (i, batch) in [128usize, 256, 512].into_iter().enumerate() {
        let seqs = sharegpt_batch(batch, 42 + i as u64);
        let t = |mode| {
            Device::new(cfg, cal, mode)
                .decode_iteration(&model, 4, model.num_layers, &seqs)
                .unwrap()
                .total_cycles as f64
        };
        let npu = t(DeviceMode::NpuOnly);
        let naive = t(DeviceMode::NaiveNpuPim);
        let neu = t(DeviceMode::neupims());
        over_naive.push(naive / neu);
        over_npu.push(npu / neu);
    }
    let avg_naive = over_naive.iter().sum::<f64>() / over_naive.len() as f64;
    let avg_npu = over_npu.iter().sum::<f64>() / over_npu.len() as f64;
    assert!(
        avg_naive > 1.13 && avg_naive < 3.0,
        "NeuPIMs/NPU+PIM avg {avg_naive}"
    );
    assert!(
        avg_npu > 1.5 && avg_npu < 4.5,
        "NeuPIMs/NPU-only avg {avg_npu}"
    );
    // Gains grow with batch size (Figure 12's trend).
    assert!(
        over_naive.last().unwrap() >= over_naive.first().unwrap(),
        "{over_naive:?}"
    );
}

#[test]
fn scheduler_estimator_matches_device_accounting() {
    // Algorithm 1's estimate (used for bin packing) must equal the PIM
    // busy time the device charges per layer — the scheduler and the
    // engine share one model of the hardware.
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_7b();
    let d = Device::new(cfg, cal, DeviceMode::neupims());
    let est = d.estimator(&model, 4);
    let seqs = sharegpt_batch(32, 7);
    let b = d
        .decode_iteration(&model, 4, model.num_layers, &seqs)
        .unwrap();
    let estimated_total: f64 = seqs.iter().map(|&s| est.estimate(s)).sum();
    let charged_total: u64 = b.pim_busy.iter().sum();
    let per_layer = charged_total as f64 / model.num_layers as f64;
    let rel = (per_layer - estimated_total).abs() / estimated_total;
    assert!(
        rel < 0.01,
        "estimator {estimated_total} vs device {per_layer}"
    );
}

#[test]
fn alpaca_and_sharegpt_rank_consistently() {
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_13b();
    for dataset in [Dataset::Alpaca, Dataset::ShareGpt] {
        let mut rng = StdRng::seed_from_u64(9);
        let seqs: Vec<u64> = warm_batch(&mut rng, dataset, 256)
            .iter()
            .map(|r| r.seq_len())
            .collect();
        let t = |mode| {
            Device::new(cfg, cal, mode)
                .decode_iteration(&model, 4, model.num_layers, &seqs)
                .unwrap()
                .total_cycles
        };
        let npu = t(DeviceMode::NpuOnly);
        let naive = t(DeviceMode::NaiveNpuPim);
        let neu = t(DeviceMode::neupims());
        assert!(neu < naive, "{dataset:?}: {neu} vs naive {naive}");
        assert!(neu < npu, "{dataset:?}: {neu} vs npu {npu}");
    }
}

/// Every decode-pricing path of [`Device`]: the two baselines plus the
/// NeuPIMs device under each GMLBP x SBI combination.
const ALL_MODES: [DeviceMode; 8] = [
    DeviceMode::NpuOnly,
    DeviceMode::NaiveNpuPim,
    DeviceMode::NeuPims {
        gmlbp: false,
        sbi: SbiPolicy::Off,
    },
    DeviceMode::NeuPims {
        gmlbp: false,
        sbi: SbiPolicy::Always,
    },
    DeviceMode::NeuPims {
        gmlbp: false,
        sbi: SbiPolicy::Adaptive,
    },
    DeviceMode::NeuPims {
        gmlbp: true,
        sbi: SbiPolicy::Off,
    },
    DeviceMode::NeuPims {
        gmlbp: true,
        sbi: SbiPolicy::Always,
    },
    DeviceMode::NeuPims {
        gmlbp: true,
        sbi: SbiPolicy::Adaptive,
    },
];

/// Batch shapes covering the pricing branches: the single request that
/// never splits, the smallest splittable batch, mixed ShareGPT lengths,
/// the few-giants skew that separates GMLBP from round-robin, and a large
/// uniform batch past the Figure 13 SBI crossover.
fn golden_batches() -> Vec<(&'static str, Vec<u64>)> {
    let mut skew = vec![4096u64; 6];
    skew.extend(std::iter::repeat_n(32u64, 122));
    vec![
        ("b1", vec![376]),
        ("b2", vec![97, 1500]),
        ("mixed31", sharegpt_batch(31, 2024)),
        ("skew128", skew),
        ("uniform256", vec![376; 256]),
    ]
}

/// FNV-1a over the per-channel PIM busy cycles, so a row pins all 32
/// channels without spelling them out.
fn fnv(values: &[u64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn golden_row(
    mode: DeviceMode,
    kind: CostModelKind,
    batch: &str,
    b: &IterationBreakdown,
) -> String {
    format!(
        "{mode:?}/{kind}/{batch}: total={} pim_busy={}:{:016x} bus={} npu={} flops={} vector={} \
         tiles={} gwrites={} inbank={} allreduce={} tokens={}",
        b.total_cycles,
        b.pim_busy.iter().sum::<u64>(),
        fnv(&b.pim_busy),
        b.bus_bytes,
        b.npu_busy,
        b.npu_flops,
        b.vector_busy,
        b.pim_tiles,
        b.pim_gwrites,
        b.pim_inbank_bytes,
        b.allreduce_cycles,
        b.tokens,
    )
}

/// Decode pricing pinned field for field: every mode under both MHA cost
/// models on every golden batch. A refactor of `Device::decode_iteration`
/// must leave every row unchanged.
#[test]
fn decode_pricing_matches_golden_breakdowns() {
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_7b();
    let memo = TraceMemo::new();
    let mut actual = Vec::new();
    for kind in [CostModelKind::Analytic, CostModelKind::TraceDriven] {
        for mode in ALL_MODES {
            let mut d = Device::new(cfg, cal, mode).with_cost_model(kind);
            d.attach_trace_memo(&memo);
            for (name, seqs) in golden_batches() {
                let b = d
                    .decode_iteration(&model, 4, model.num_layers, &seqs)
                    .unwrap();
                actual.push(golden_row(mode, kind, name, &b));
            }
        }
    }
    let diffs: Vec<String> = actual
        .iter()
        .zip(DECODE_GOLDEN)
        .filter(|(a, g)| a != g)
        .map(|(a, g)| format!("  want {g}\n   got {a}"))
        .collect();
    assert!(
        diffs.is_empty() && actual.len() == DECODE_GOLDEN.len(),
        "{} of {} rows differ:\n{}\nfull table:\n{}",
        diffs.len(),
        DECODE_GOLDEN.len(),
        diffs.join("\n"),
        actual.join("\n")
    );
}

/// On a warmed memo, one decode iteration of `B` requests looks each
/// request's MHA cost up exactly once, whichever arms the mode prices.
#[test]
fn decode_iteration_looks_up_each_request_once() {
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_7b();
    let seqs = sharegpt_batch(31, 11);
    for mode in ALL_MODES.into_iter().filter(DeviceMode::uses_pim) {
        let d = Device::new(cfg, cal, mode).with_cost_model(CostModelKind::TraceDriven);
        let run = || {
            d.decode_iteration(&model, 4, model.num_layers, &seqs)
                .unwrap()
        };
        run();
        let before = d.trace_memo().snapshot();
        run();
        let after = d.trace_memo().snapshot();
        assert_eq!(
            after.replays, before.replays,
            "{mode:?}: warm memo replayed"
        );
        assert_eq!(
            after.memo_hits - before.memo_hits,
            seqs.len() as u64,
            "{mode:?}: memo lookups per iteration"
        );
    }
}

/// One row per (cost model, mode, batch), in the test's loop order.
const DECODE_GOLDEN: &[&str] = &[
    "NpuOnly/analytic/b1: total=5111008 pim_busy=0:d80ac658736bb725 bus=3270639616 npu=1802240 flops=3221225472 vector=4000 tiles=0 gwrites=0 inbank=0 allreduce=198144 tokens=1",
    "NpuOnly/analytic/b2: total=5362208 pim_busy=0:d80ac658736bb725 bus=3430809600 npu=1802240 flops=6442450944 vector=8672 tiles=0 gwrites=0 inbank=0 allreduce=204288 tokens=2",
    "NpuOnly/analytic/mixed31: total=7395328 pim_busy=0:d80ac658736bb725 bus=4590272512 npu=1802240 flops=99857989632 vector=123328 tiles=0 gwrites=0 inbank=0 allreduce=382464 tokens=31",
    "NpuOnly/analytic/skew128: total=11938560 pim_busy=0:d80ac658736bb725 bus=6970933248 npu=1802240 flops=412316860416 vector=497472 tiles=0 gwrites=0 inbank=0 allreduce=978432 tokens=128",
    "NpuOnly/analytic/uniform256: total=26610048 pim_busy=0:d80ac658736bb725 bus=15871246336 npu=3375104 flops=824633720832 vector=1024000 tiles=0 gwrites=0 inbank=0 allreduce=1764864 tokens=256",
    "NaiveNpuPim/analytic/b1: total=5612480 pim_busy=538864:a57f880a1138bd15 bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NaiveNpuPim/analytic/b2: total=6934720 pim_busy=2205564:9038ad811fe8746a bus=3224302592 npu=1802240 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=204288 tokens=2",
    "NaiveNpuPim/analytic/mixed31: total=8361792 pim_busy=17974288:2b6ad6aec0a69385 bus=3247683584 npu=1802240 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=382464 tokens=31",
    "NaiveNpuPim/analytic/skew128: total=12182496 pim_busy=69966344:56a6a8aede64c049 bus=3320119296 npu=1802240 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=978432 tokens=128",
    "NaiveNpuPim/analytic/uniform256: total=11698144 pim_busy=137949184:907eced1314ec425 bus=3437232128 npu=3375104 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1764864 tokens=256",
    "NeuPims { gmlbp: false, sbi: Off }/analytic/b1: total=5129280 pim_busy=539746:db86dfd8b4b5c4bb bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: false, sbi: Off }/analytic/b2: total=5357600 pim_busy=2209186:9bee13369ed8ca4d bus=3224302592 npu=1802240 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=204288 tokens=2",
    "NeuPims { gmlbp: false, sbi: Off }/analytic/mixed31: total=6659168 pim_busy=18003637:06c23f934b521fef bus=3247683584 npu=1802240 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=382464 tokens=31",
    "NeuPims { gmlbp: false, sbi: Off }/analytic/skew128: total=10346496 pim_busy=70080056:5eb7378ea846c155 bus=3320119296 npu=1802240 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=978432 tokens=128",
    "NeuPims { gmlbp: false, sbi: Off }/analytic/uniform256: total=10308544 pim_busy=138174976:f5fcf527cde41c25 bus=3437232128 npu=3375104 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1764864 tokens=256",
    "NeuPims { gmlbp: false, sbi: Always }/analytic/b1: total=5129280 pim_busy=539746:db86dfd8b4b5c4bb bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: false, sbi: Always }/analytic/b2: total=8197256 pim_busy=2209186:9bee13369ed8ca4d bus=4566479872 npu=3604480 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=396288 tokens=2",
    "NeuPims { gmlbp: false, sbi: Always }/analytic/mixed31: total=8283194 pim_busy=18003637:06c23f934b521fef bus=4589860864 npu=3604480 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=574464 tokens=31",
    "NeuPims { gmlbp: false, sbi: Always }/analytic/skew128: total=8492540 pim_busy=70080056:5eb7378ea846c155 bus=4662296576 npu=3604480 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=1170432 tokens=128",
    "NeuPims { gmlbp: false, sbi: Always }/analytic/uniform256: total=8618291 pim_busy=138174976:f5fcf527cde41c25 bus=4779409408 npu=3604480 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1956864 tokens=256",
    "NeuPims { gmlbp: false, sbi: Adaptive }/analytic/b1: total=5129280 pim_busy=539746:db86dfd8b4b5c4bb bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: false, sbi: Adaptive }/analytic/b2: total=5357600 pim_busy=2209186:9bee13369ed8ca4d bus=3224302592 npu=1802240 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=204288 tokens=2",
    "NeuPims { gmlbp: false, sbi: Adaptive }/analytic/mixed31: total=6659168 pim_busy=18003637:06c23f934b521fef bus=3247683584 npu=1802240 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=382464 tokens=31",
    "NeuPims { gmlbp: false, sbi: Adaptive }/analytic/skew128: total=8492540 pim_busy=70080056:5eb7378ea846c155 bus=4662296576 npu=3604480 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=1170432 tokens=128",
    "NeuPims { gmlbp: false, sbi: Adaptive }/analytic/uniform256: total=8618291 pim_busy=138174976:f5fcf527cde41c25 bus=4779409408 npu=3604480 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1956864 tokens=256",
    "NeuPims { gmlbp: true, sbi: Off }/analytic/b1: total=5129280 pim_busy=539746:db86dfd8b4b5c4bb bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: true, sbi: Off }/analytic/b2: total=5357600 pim_busy=2209186:e66349fc2dc1c6bd bus=3224302592 npu=1802240 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=204288 tokens=2",
    "NeuPims { gmlbp: true, sbi: Off }/analytic/mixed31: total=6659168 pim_busy=18003637:ec7bc4b47ecb952f bus=3247683584 npu=1802240 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=382464 tokens=31",
    "NeuPims { gmlbp: true, sbi: Off }/analytic/skew128: total=9345664 pim_busy=70080050:b04957171e177c09 bus=3320119296 npu=1802240 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=978432 tokens=128",
    "NeuPims { gmlbp: true, sbi: Off }/analytic/uniform256: total=10308544 pim_busy=138174976:f5fcf527cde41c25 bus=3437232128 npu=3375104 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1764864 tokens=256",
    "NeuPims { gmlbp: true, sbi: Always }/analytic/b1: total=5129280 pim_busy=539746:db86dfd8b4b5c4bb bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: true, sbi: Always }/analytic/b2: total=8204948 pim_busy=2209186:e66349fc2dc1c6bd bus=4566479872 npu=3604480 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=396288 tokens=2",
    "NeuPims { gmlbp: true, sbi: Always }/analytic/mixed31: total=8283194 pim_busy=18003637:ec7bc4b47ecb952f bus=4589860864 npu=3604480 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=574464 tokens=31",
    "NeuPims { gmlbp: true, sbi: Always }/analytic/skew128: total=8482114 pim_busy=70080050:b04957171e177c09 bus=4662296576 npu=3604480 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=1170432 tokens=128",
    "NeuPims { gmlbp: true, sbi: Always }/analytic/uniform256: total=8618291 pim_busy=138174976:f5fcf527cde41c25 bus=4779409408 npu=3604480 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1956864 tokens=256",
    "NeuPims { gmlbp: true, sbi: Adaptive }/analytic/b1: total=5129280 pim_busy=539746:db86dfd8b4b5c4bb bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: true, sbi: Adaptive }/analytic/b2: total=5357600 pim_busy=2209186:e66349fc2dc1c6bd bus=3224302592 npu=1802240 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=204288 tokens=2",
    "NeuPims { gmlbp: true, sbi: Adaptive }/analytic/mixed31: total=6659168 pim_busy=18003637:ec7bc4b47ecb952f bus=3247683584 npu=1802240 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=382464 tokens=31",
    "NeuPims { gmlbp: true, sbi: Adaptive }/analytic/skew128: total=8482114 pim_busy=70080050:b04957171e177c09 bus=4662296576 npu=3604480 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=1170432 tokens=128",
    "NeuPims { gmlbp: true, sbi: Adaptive }/analytic/uniform256: total=8618291 pim_busy=138174976:f5fcf527cde41c25 bus=4779409408 npu=3604480 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1956864 tokens=256",
    "NpuOnly/trace/b1: total=5111008 pim_busy=0:d80ac658736bb725 bus=3270639616 npu=1802240 flops=3221225472 vector=4000 tiles=0 gwrites=0 inbank=0 allreduce=198144 tokens=1",
    "NpuOnly/trace/b2: total=5362208 pim_busy=0:d80ac658736bb725 bus=3430809600 npu=1802240 flops=6442450944 vector=8672 tiles=0 gwrites=0 inbank=0 allreduce=204288 tokens=2",
    "NpuOnly/trace/mixed31: total=7395328 pim_busy=0:d80ac658736bb725 bus=4590272512 npu=1802240 flops=99857989632 vector=123328 tiles=0 gwrites=0 inbank=0 allreduce=382464 tokens=31",
    "NpuOnly/trace/skew128: total=11938560 pim_busy=0:d80ac658736bb725 bus=6970933248 npu=1802240 flops=412316860416 vector=497472 tiles=0 gwrites=0 inbank=0 allreduce=978432 tokens=128",
    "NpuOnly/trace/uniform256: total=26610048 pim_busy=0:d80ac658736bb725 bus=15871246336 npu=3375104 flops=824633720832 vector=1024000 tiles=0 gwrites=0 inbank=0 allreduce=1764864 tokens=256",
    "NaiveNpuPim/trace/b1: total=5611680 pim_busy=538048:5e7eaec6aa2adf66 bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NaiveNpuPim/trace/b2: total=6951776 pim_busy=2223264:8bcca4921b7f4e86 bus=3224302592 npu=1802240 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=204288 tokens=2",
    "NaiveNpuPim/trace/mixed31: total=8360864 pim_busy=17878240:3fc673d492e3166f bus=3247683584 npu=1802240 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=382464 tokens=31",
    "NaiveNpuPim/trace/skew128: total=12179520 pim_busy=69546880:e3cfb8b2c2382e05 bus=3320119296 npu=1802240 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=978432 tokens=128",
    "NaiveNpuPim/trace/uniform256: total=11691616 pim_busy=137740288:9008cc0d657824e5 bus=3437232128 npu=3375104 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1764864 tokens=256",
    "NeuPims { gmlbp: false, sbi: Off }/trace/b1: total=5129056 pim_busy=538496:18a9e5efdd8adc30 bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: false, sbi: Off }/trace/b2: total=5360480 pim_busy=2226816:52dd0527da78276f bus=3224302592 npu=1802240 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=204288 tokens=2",
    "NeuPims { gmlbp: false, sbi: Off }/trace/mixed31: total=6657824 pim_busy=17900512:98920417ea981c0a bus=3247683584 npu=1802240 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=382464 tokens=31",
    "NeuPims { gmlbp: false, sbi: Off }/trace/skew128: total=10343296 pim_busy=69650304:0fd5f84a6aa2e925 bus=3320119296 npu=1802240 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=978432 tokens=128",
    "NeuPims { gmlbp: false, sbi: Off }/trace/uniform256: total=10298528 pim_busy=137854976:22d3def019536225 bus=3437232128 npu=3375104 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1764864 tokens=256",
    "NeuPims { gmlbp: false, sbi: Always }/trace/b1: total=5129056 pim_busy=538496:18a9e5efdd8adc30 bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: false, sbi: Always }/trace/b2: total=8197261 pim_busy=2226816:52dd0527da78276f bus=4566479872 npu=3604480 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=396288 tokens=2",
    "NeuPims { gmlbp: false, sbi: Always }/trace/mixed31: total=8283152 pim_busy=17900512:98920417ea981c0a bus=4589860864 npu=3604480 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=574464 tokens=31",
    "NeuPims { gmlbp: false, sbi: Always }/trace/skew128: total=8492686 pim_busy=69650304:0fd5f84a6aa2e925 bus=4662296576 npu=3604480 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=1170432 tokens=128",
    "NeuPims { gmlbp: false, sbi: Always }/trace/uniform256: total=8618134 pim_busy=137854976:22d3def019536225 bus=4779409408 npu=3604480 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1956864 tokens=256",
    "NeuPims { gmlbp: false, sbi: Adaptive }/trace/b1: total=5129056 pim_busy=538496:18a9e5efdd8adc30 bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: false, sbi: Adaptive }/trace/b2: total=5360480 pim_busy=2226816:52dd0527da78276f bus=3224302592 npu=1802240 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=204288 tokens=2",
    "NeuPims { gmlbp: false, sbi: Adaptive }/trace/mixed31: total=6657824 pim_busy=17900512:98920417ea981c0a bus=3247683584 npu=1802240 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=382464 tokens=31",
    "NeuPims { gmlbp: false, sbi: Adaptive }/trace/skew128: total=8492686 pim_busy=69650304:0fd5f84a6aa2e925 bus=4662296576 npu=3604480 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=1170432 tokens=128",
    "NeuPims { gmlbp: false, sbi: Adaptive }/trace/uniform256: total=8618134 pim_busy=137854976:22d3def019536225 bus=4779409408 npu=3604480 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1956864 tokens=256",
    "NeuPims { gmlbp: true, sbi: Off }/trace/b1: total=5129056 pim_busy=538496:18a9e5efdd8adc30 bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: true, sbi: Off }/trace/b2: total=5360480 pim_busy=2226816:3c5a4336c8a024f7 bus=3224302592 npu=1802240 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=204288 tokens=2",
    "NeuPims { gmlbp: true, sbi: Off }/trace/mixed31: total=6657824 pim_busy=17900512:6233c7cb368b01f6 bus=3247683584 npu=1802240 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=382464 tokens=31",
    "NeuPims { gmlbp: true, sbi: Off }/trace/skew128: total=9354304 pim_busy=69650304:6e51aeaf2d860cc5 bus=3320119296 npu=1802240 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=978432 tokens=128",
    "NeuPims { gmlbp: true, sbi: Off }/trace/uniform256: total=10298528 pim_busy=137854976:22d3def019536225 bus=3437232128 npu=3375104 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1764864 tokens=256",
    "NeuPims { gmlbp: true, sbi: Always }/trace/b1: total=5129056 pim_busy=538496:18a9e5efdd8adc30 bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: true, sbi: Always }/trace/b2: total=8205038 pim_busy=2226816:3c5a4336c8a024f7 bus=4566479872 npu=3604480 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=396288 tokens=2",
    "NeuPims { gmlbp: true, sbi: Always }/trace/mixed31: total=8283152 pim_busy=17900512:6233c7cb368b01f6 bus=4589860864 npu=3604480 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=574464 tokens=31",
    "NeuPims { gmlbp: true, sbi: Always }/trace/skew128: total=8482384 pim_busy=69650304:6e51aeaf2d860cc5 bus=4662296576 npu=3604480 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=1170432 tokens=128",
    "NeuPims { gmlbp: true, sbi: Always }/trace/uniform256: total=8618134 pim_busy=137854976:22d3def019536225 bus=4779409408 npu=3604480 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1956864 tokens=256",
    "NeuPims { gmlbp: true, sbi: Adaptive }/trace/b1: total=5129056 pim_busy=538496:18a9e5efdd8adc30 bus=3222069248 npu=1802240 flops=3221225472 vector=4000 tiles=1792 gwrites=320 inbank=58720256 allreduce=198144 tokens=1",
    "NeuPims { gmlbp: true, sbi: Adaptive }/trace/b2: total=5360480 pim_busy=2226816:3c5a4336c8a024f7 bus=3224302592 npu=1802240 flops=6442450944 vector=8672 tiles=7360 gwrites=1152 inbank=241172480 allreduce=204288 tokens=2",
    "NeuPims { gmlbp: true, sbi: Adaptive }/trace/mixed31: total=6657824 pim_busy=17900512:6233c7cb368b01f6 bus=3247683584 npu=1802240 flops=99857989632 vector=123328 tiles=59648 gwrites=11456 inbank=1954545664 allreduce=382464 tokens=31",
    "NeuPims { gmlbp: true, sbi: Adaptive }/trace/skew128: total=8482384 pim_busy=69650304:6e51aeaf2d860cc5 bus=4662296576 npu=3604480 flops=412316860416 vector=497472 tiles=231040 gwrites=51712 inbank=7570718720 allreduce=1170432 tokens=128",
    "NeuPims { gmlbp: true, sbi: Adaptive }/trace/uniform256: total=8618134 pim_busy=137854976:22d3def019536225 bus=4779409408 npu=3604480 flops=824633720832 vector=1024000 tiles=458752 gwrites=81920 inbank=15032385536 allreduce=1956864 tokens=256",
];
