//! Integration tests for preemption-aware KV-cache memory management:
//! drop-only parity against the pre-preemption golden numbers, the
//! KV-pressure burst trace where recompute preemption completes strictly
//! more requests than drop-only, conservation through preempt/restore
//! cycles, and the threading through `Simulation` and `FleetSim`.

use neupims_core::fleet::{FleetRequest, FleetSim, JoinShortestQueue};
use neupims_core::preempt::{
    preemption_from_name, DropOnly, RecomputeLastAdmitted, SwapConfig, SwapLru, PREEMPTION_NAMES,
};
use neupims_core::scheduler::{scheduler_from_name, SCHEDULER_NAMES};
use neupims_core::serving::{ServingConfig, ServingOutcome, ServingSim};
use neupims_core::simulation::Simulation;
use neupims_core::{Device, DeviceMode};
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::{kv_pressure_burst, PressureSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg(max_batch: usize) -> ServingConfig {
    ServingConfig {
        max_batch,
        tp: 4,
        layers: 32,
        target_completions: 0,
        slo: None,
    }
}

/// A deliberately tight device: 4 channels of 80 MiB, so a few hundred
/// tokens of context per request crowd a channel mid-decode.
fn tight_device() -> Device {
    let mut hw = NeuPimsConfig::table2();
    hw.mem.channels = 4;
    hw.mem.capacity_per_channel = 80 << 20;
    let cal = calibrate(&hw).unwrap();
    Device::new(hw, cal, DeviceMode::neupims())
}

/// A serving replica over [`tight_device`].
fn tight_replica() -> ServingSim {
    ServingSim::new(tight_device(), LlmConfig::gpt3_7b(), cfg(16))
}

/// The default KV-pressure burst trace, submitted with sequential ids.
fn submit_burst(sim: &mut ServingSim, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = kv_pressure_burst(&mut rng, &PressureSpec::default());
    for (i, r) in trace.iter().enumerate() {
        sim.submit(i as u32, r.input_len, r.output_len, r.arrival)
            .unwrap();
    }
    trace.len() as u64
}

/// The PR-2 golden trace from `integration_scheduler.rs`.
fn golden_trace(sim: &mut ServingSim<Device>) {
    for i in 0..24u32 {
        sim.submit(i, 64 + (i % 7) * 100, 4 + i % 9, (i as u64) * 300_000)
            .unwrap();
    }
}

#[test]
fn drop_only_reproduces_the_golden_numbers_exactly() {
    // Drop-only is the default; pin both the implicit default and an
    // explicit `with_preemption(DropOnly)` against the PR-2/PR-3 golden
    // serving numbers — preemption support must not move a single cycle
    // of the no-pressure path.
    for explicit in [false, true] {
        let mut sim = ServingSim::new(Device::table2().unwrap(), LlmConfig::gpt3_7b(), cfg(16));
        if explicit {
            sim = sim.with_preemption(Box::new(DropOnly));
        }
        assert_eq!(sim.preemption_name(), "drop");
        golden_trace(&mut sim);
        let out = sim.run().unwrap();
        assert_eq!(out.total_cycles, 104_832_448);
        assert_eq!(out.completed, 24);
        assert_eq!(out.tokens, 183);
        assert_eq!(out.iterations, 19);
        assert_eq!(out.mean_latency, 60_269_692.0);
        assert_eq!(out.latency_percentile(50.0), 56_383_712);
        assert_eq!(out.ttft_percentile(50.0), 15_030_944);
        assert_eq!(out.preemptions, 0);
        assert_eq!(out.restores, 0);
        assert_eq!(out.preemption_stall_cycles, 0);
        assert_eq!(out.restore_overhead_cycles, 0);
        assert!(out.records.iter().all(|r| r.preemptions == 0));
    }
}

#[test]
fn recompute_completes_strictly_more_than_drop_on_the_pressure_trace() {
    // The acceptance criterion: on a KV-pressure burst trace, recompute
    // preemption completes strictly more requests (fewer drops) than
    // drop-only, which sheds requests whose growth hits a crowded
    // channel.
    let mut drop = tight_replica();
    let submitted = submit_burst(&mut drop, 0xBEE5);
    let drop_out = drop.run().unwrap();
    assert_eq!(drop_out.submitted, submitted);
    assert_eq!(drop_out.completed + drop_out.dropped, submitted);
    assert!(
        drop_out.dropped > 0,
        "the trace must actually apply pressure"
    );
    assert_eq!(drop_out.preemptions, 0);

    let mut rec = tight_replica().with_preemption(Box::new(RecomputeLastAdmitted));
    submit_burst(&mut rec, 0xBEE5);
    let rec_out = rec.run().unwrap();
    assert_eq!(rec_out.completed + rec_out.dropped, submitted);
    assert!(
        rec_out.completed > drop_out.completed,
        "recompute ({} completed, {} dropped) must beat drop-only ({} completed, {} dropped)",
        rec_out.completed,
        rec_out.dropped,
        drop_out.completed,
        drop_out.dropped
    );
    assert!(rec_out.dropped < drop_out.dropped);
    assert!(
        rec_out.preemptions > 0,
        "survival must come from preemption"
    );
    assert!(rec_out.restores > 0);
    assert!(rec_out.preemption_stall_cycles > 0);
    assert!(rec_out.restore_overhead_cycles > 0);
}

#[test]
fn conservation_holds_through_preempt_restore_cycles_for_every_policy() {
    for name in PREEMPTION_NAMES {
        let mut sim = tight_replica().with_preemption(preemption_from_name(name).unwrap());
        let submitted = submit_burst(&mut sim, 0xCAFE);
        let out = sim.run().unwrap();
        assert_eq!(
            out.completed + out.dropped,
            submitted,
            "{name}: no request may vanish through preempt/restore"
        );
        assert!(
            out.restores <= out.preemptions,
            "{name}: every restore needs a prior preemption"
        );
        // A preempted-then-restored request counts each token once; shed
        // requests may leave partial (unrecorded) output behind, so the
        // record sum never exceeds the generated total — and matches it
        // exactly when nothing was shed mid-flight.
        let record_tokens: u64 = out.records.iter().map(|r| r.tokens).sum();
        assert!(record_tokens <= out.tokens, "{name}");
        if out.dropped == 0 {
            assert_eq!(out.tokens, record_tokens, "{name}");
        }
        let record_preempts: u64 = out.records.iter().map(|r| u64::from(r.preemptions)).sum();
        assert!(record_preempts <= out.preemptions, "{name}");
    }
}

#[test]
fn swap_completes_the_pressure_trace_with_cheaper_restores() {
    let mut swap = tight_replica()
        .with_preemption(Box::new(SwapLru))
        .with_swap(SwapConfig { gb_per_sec: 32.0 });
    let submitted = submit_burst(&mut swap, 0xBEE5);
    let swap_out = swap.run().unwrap();
    assert_eq!(swap_out.completed + swap_out.dropped, submitted);
    assert!(swap_out.preemptions > 0);

    let mut rec = tight_replica().with_preemption(Box::new(RecomputeLastAdmitted));
    submit_burst(&mut rec, 0xBEE5);
    let rec_out = rec.run().unwrap();
    assert!(
        swap_out.completed >= rec_out.completed,
        "swap must not lose requests recompute saves"
    );
    // Swap-in of a few-hundred-token context over 32 GB/s is orders
    // cheaper than re-running its prefill.
    assert!(
        swap_out.restore_overhead_cycles < rec_out.restore_overhead_cycles,
        "swap overhead {} vs recompute {}",
        swap_out.restore_overhead_cycles,
        rec_out.restore_overhead_cycles
    );
}

#[test]
fn simulation_builder_threads_the_preemption_policy() {
    let sim = Simulation::builder()
        .model(LlmConfig::gpt3_7b())
        .backend(Device::table2().unwrap())
        .preemption(Box::new(RecomputeLastAdmitted))
        .swap(SwapConfig { gb_per_sec: 8.0 })
        .samples(1)
        .build()
        .unwrap();
    assert_eq!(sim.preemption().name(), "recompute");
    let mut serving = sim.serving(8, 0);
    assert_eq!(serving.preemption_name(), "recompute");
    for i in 0..4 {
        serving.submit(i, 64, 4, 0).unwrap();
    }
    let out = serving.run().unwrap();
    assert_eq!(out.completed, 4);
    assert_eq!(out.preemptions, 0, "no pressure, no preemption");
}

#[test]
fn fleet_aggregates_preemption_stats_across_replicas() {
    let replicas = vec![tight_replica(), tight_replica()];
    let mut fleet = FleetSim::new(replicas, Box::new(JoinShortestQueue))
        .unwrap()
        .with_preemption(Box::new(RecomputeLastAdmitted));
    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    // Double the default burst so both replicas see pressure.
    let spec = PressureSpec {
        burst_size: 16,
        ..PressureSpec::default()
    };
    let trace = kv_pressure_burst(&mut rng, &spec);
    for (i, r) in trace.iter().enumerate() {
        fleet
            .submit(FleetRequest {
                id: i as u32,
                input_len: r.input_len,
                output_len: r.output_len,
                arrival: r.arrival,
            })
            .unwrap();
    }
    let out = fleet.run().unwrap();
    assert_eq!(out.submitted, trace.len() as u64);
    assert_eq!(out.completed + out.dropped, out.submitted);
    assert!(out.preemptions > 0, "tight replicas must preempt");
    let per_replica: u64 = out.replicas.iter().map(|r| r.preemptions).sum();
    assert_eq!(out.preemptions, per_replica);
    let per_replica_restores: u64 = out.replicas.iter().map(|r| r.restores).sum();
    assert_eq!(out.restores, per_replica_restores);
    let per_replica_stall: u64 = out.replicas.iter().map(|r| r.preemption_stall_cycles).sum();
    assert_eq!(out.preemption_stall_cycles, per_replica_stall);
}

/// A completed request's `(id, ttft, latency, preemptions)`.
type Record = (u32, u64, u64, u32);

/// `(scheduler, preemption)` → the pinned outcome fields (`total_cycles`,
/// `completed`, `dropped`, `preemptions`, `restores`,
/// `preemption_stall_cycles`, `restore_overhead_cycles`, `tokens`,
/// `iterations`) and every record's `(id, ttft, latency, preemptions)` in
/// completion order.
type GridCell = (&'static str, &'static str, [u64; 9], &'static [Record]);

fn grid_cell(out: &ServingOutcome) -> ([u64; 9], Vec<Record>) {
    let fields = [
        out.total_cycles,
        out.completed,
        out.dropped,
        out.preemptions,
        out.restores,
        out.preemption_stall_cycles,
        out.restore_overhead_cycles,
        out.tokens,
        out.iterations,
    ];
    let records = out
        .records
        .iter()
        .map(|r| (r.id.0, r.ttft, r.latency, r.preemptions))
        .collect();
    (fields, records)
}

fn run_grid_cell(scheduler: &str, preemption: &str) -> ServingOutcome {
    let mut sim = ServingSim::with_scheduler(
        tight_device(),
        LlmConfig::gpt3_7b(),
        cfg(16),
        scheduler_from_name(scheduler, 256).unwrap(),
    )
    .with_preemption(preemption_from_name(preemption).unwrap());
    submit_burst(&mut sim, 0xCAFE);
    sim.run().unwrap()
}

/// Exact values: any change to the park, shed, restore or chunked-prefill
/// bookkeeping moves at least one cell.
const GRID_GOLDEN: [GridCell; 9] = [
    (
        "lump",
        "drop",
        [18081191936, 7, 17, 0, 0, 0, 0, 2279, 462],
        &[
            (5, 78041536, 7894725536, 0),
            (6, 117151488, 8830988640, 0),
            (15, 4457786304, 11371654400, 0),
            (16, 4769768768, 13165670624, 0),
            (17, 7931742016, 16363732288, 0),
            (18, 8868093600, 17260571104, 0),
            (23, 11448759648, 18001191936, 0),
        ],
    ),
    (
        "lump",
        "recompute",
        [
            39748229120,
            24,
            0,
            60,
            60,
            400994817248,
            2353357472,
            4838,
            1015,
        ],
        &[
            (0, 3911153856, 10594226912, 1),
            (2, 4302322208, 11336652832, 1),
            (3, 4380545600, 12624580064, 1),
            (1, 4184985344, 13092741024, 1),
            (21, 154145440, 14650856768, 1),
            (20, 193255392, 16913305856, 1),
            (16, 193255392, 17537475008, 1),
            (18, 193255392, 17732514976, 1),
            (19, 193255392, 19370911904, 1),
            (17, 193255392, 21440244480, 1),
            (7, 3402588512, 22575245856, 2),
            (6, 3207002720, 24216860064, 2),
            (4, 2854931680, 25075115200, 2),
            (5, 78041536, 25192204928, 2),
            (23, 193255392, 28043762048, 2),
            (9, 7274420448, 30074438976, 2),
            (8, 7078840800, 31946848192, 3),
            (10, 116100128, 33663255680, 4),
            (13, 5670561792, 34404469760, 5),
            (11, 7470003328, 34716570816, 3),
            (22, 193255392, 35261631264, 5),
            (12, 5357614240, 39240395328, 6),
            (14, 5787892192, 39474346816, 6),
            (15, 6883245312, 39708229120, 6),
        ],
    ),
    (
        "lump",
        "swap",
        [
            39625040640,
            24,
            0,
            54,
            54,
            376171800288,
            64667648,
            4838,
            1012,
        ],
        &[
            (23, 193255392, 6762799680, 0),
            (21, 154145440, 6840800864, 0),
            (22, 193255392, 7347860128, 0),
            (20, 193255392, 8752163648, 0),
            (17, 193255392, 12732249440, 1),
            (19, 193255392, 12888516480, 1),
            (18, 193255392, 13005723488, 1),
            (16, 193255392, 14218122496, 1),
            (14, 5279311296, 21366845856, 2),
            (10, 116100128, 22537091840, 2),
            (15, 16057536544, 22966205184, 2),
            (12, 5592200320, 23395407936, 2),
            (2, 3167892160, 27453378720, 3),
            (7, 4419718240, 27999579008, 3),
            (8, 4692650592, 27959579008, 3),
            (1, 2972293760, 28155620160, 3),
            (4, 3637308800, 32097247872, 3),
            (6, 4380598624, 32955579808, 3),
            (11, 5474869280, 34242005280, 3),
            (13, 5709531360, 34437124640, 3),
            (5, 78041536, 35842332384, 3),
            (0, 2815818208, 38845385440, 6),
            (9, 5005526368, 38922374112, 4),
            (3, 3363480864, 39625040640, 5),
        ],
    ),
    (
        "chunked",
        "drop",
        [15745709248, 4, 20, 0, 0, 0, 0, 2067, 381],
        &[
            (10, 3206301536, 11689559520, 0),
            (21, 7586154592, 14340150848, 0),
            (23, 8681142848, 15236915328, 0),
            (20, 6999382432, 15665709248, 0),
        ],
    ),
    (
        "chunked",
        "recompute",
        [
            43782097856,
            24,
            0,
            74,
            74,
            424162828544,
            2902213760,
            4838,
            1041,
        ],
        &[
            (0, 3755127072, 11025186912, 1),
            (2, 4146431136, 11807070432, 1),
            (4, 4420235296, 13408454144, 1),
            (1, 3989912640, 13681852352, 1),
            (17, 780695936, 17347039648, 1),
            (20, 1053837856, 18127585248, 1),
            (18, 858816160, 18557569792, 1),
            (19, 936945216, 18792240608, 1),
            (16, 702584032, 22154371680, 1),
            (7, 5632925088, 24575125376, 2),
            (5, 4850496128, 24770395680, 2),
            (3, 4381115680, 24887672864, 2),
            (23, 1171617760, 26528932768, 2),
            (6, 5124328672, 31723521152, 3),
            (8, 6923068224, 31878852288, 3),
            (10, 7157766528, 32854373056, 3),
            (11, 7236011808, 34181070272, 4),
            (21, 1093399488, 34219203968, 4),
            (22, 1093399488, 36642669408, 4),
            (9, 6962187840, 38477482176, 4),
            (13, 7744569216, 41325304000, 5),
            (12, 7666321184, 41442311104, 9),
            (14, 7822821568, 41559290080, 7),
            (15, 8214062272, 43742097856, 11),
        ],
    ),
    (
        "chunked",
        "swap",
        [
            40842371040,
            24,
            0,
            49,
            49,
            391007155360,
            59293696,
            4838,
            1040,
        ],
        &[
            (23, 1171617760, 7739815680, 0),
            (21, 1093399488, 7778811584, 0),
            (22, 1093399488, 8247868416, 0),
            (20, 1053837856, 9616598496, 0),
            (10, 7896911296, 15903270272, 1),
            (17, 780695936, 16526489632, 1),
            (15, 9734812512, 16644586688, 1),
            (19, 936945216, 16604586688, 1),
            (18, 858816160, 21484538784, 1),
            (16, 702584032, 21874646848, 1),
            (7, 7897816864, 23124925152, 2),
            (11, 8366057216, 24723524288, 2),
            (8, 7857816864, 27143910528, 2),
            (9, 7896911296, 27612883360, 2),
            (12, 8366057216, 27690983328, 2),
            (14, 9734812512, 29957944160, 2),
            (2, 3989808320, 32339523456, 3),
            (0, 3676850752, 34290261792, 4),
            (1, 3872455616, 34563357248, 3),
            (13, 9304619264, 35459552160, 3),
            (5, 5085168224, 37879020000, 4),
            (4, 4576583808, 38386050784, 4),
            (3, 4185397024, 40335584032, 5),
            (6, 5319870720, 40842371040, 5),
        ],
    ),
    (
        "interleaved",
        "drop",
        [15725781260, 4, 20, 0, 0, 0, 0, 2067, 381],
        &[
            (10, 3197802278, 11669631532, 0),
            (21, 7568309234, 14320222860, 0),
            (23, 8661214860, 15216987340, 0),
            (20, 6982579087, 15645781260, 0),
        ],
    ),
    (
        "interleaved",
        "recompute",
        [
            43691072719,
            24,
            0,
            74,
            74,
            423364517214,
            2902213760,
            4838,
            1041,
        ],
        &[
            (0, 3749295675, 11004379587, 1),
            (2, 4138469993, 11782429120, 1),
            (4, 4410833376, 13381175766, 1),
            (1, 3983005682, 13653211473, 1),
            (17, 779282833, 17317131418, 1),
            (20, 1049523588, 18096300405, 1),
            (18, 856436002, 18523758467, 1),
            (19, 933598003, 18755945055, 1),
            (16, 702119244, 22109066379, 1),
            (7, 5620451423, 24528566772, 2),
            (5, 4840070935, 24722584150, 2),
            (3, 4371713760, 24838584504, 2),
            (23, 1166834692, 26470619442, 2),
            (6, 5112898945, 31655946436, 3),
            (8, 6908462169, 31809939263, 3),
            (10, 7141113927, 32784140461, 3),
            (11, 7219343783, 34109546895, 4),
            (21, 1088624164, 34146582360, 4),
            (22, 1088624164, 36554099133, 4),
            (9, 6947581785, 38387664582, 4),
            (13, 7724823692, 41234278863, 5),
            (12, 7647598933, 41351285967, 9),
            (14, 7803056780, 41468264943, 7),
            (15, 8193254947, 43651072719, 11),
        ],
    ),
    (
        "interleaved",
        "swap",
        [
            40837587972,
            24,
            0,
            49,
            49,
            390930626272,
            59293696,
            4838,
            1040,
        ],
        &[
            (23, 1166834692, 7735032612, 0),
            (21, 1088624164, 7774028516, 0),
            (22, 1088624164, 8243085348, 0),
            (20, 1049523588, 9611815428, 0),
            (10, 7892128228, 15898487204, 1),
            (17, 779282833, 16521706564, 1),
            (15, 9730029444, 16639803620, 1),
            (19, 933598003, 16599803620, 1),
            (18, 856436002, 21479755716, 1),
            (16, 702119244, 21869863780, 1),
            (7, 7893033796, 23120142084, 2),
            (11, 8361274148, 24718741220, 2),
            (8, 7853033796, 27139127460, 2),
            (9, 7892128228, 27608100292, 2),
            (12, 8361274148, 27686200260, 2),
            (14, 9730029444, 29953161092, 2),
            (2, 3985025252, 32334740388, 3),
            (0, 3672067684, 34285478724, 4),
            (1, 3867672548, 34558574180, 3),
            (13, 9299836196, 35454769092, 3),
            (5, 5080385156, 37874236932, 4),
            (4, 4571800740, 38381267716, 4),
            (3, 4180613956, 40330800964, 5),
            (6, 5315087652, 40837587972, 5),
        ],
    ),
];

#[test]
fn scheduler_by_preemption_grid_matches_golden() {
    // Every scheduler × preemption policy on the tight replica's
    // KV-pressure burst: drop sheds, recompute and swap park and restore,
    // and under the chunked schedulers a recompute restore re-encodes its
    // prompt in on-device chunks.
    let mut cells = GRID_GOLDEN.iter();
    for s in SCHEDULER_NAMES {
        for p in PREEMPTION_NAMES {
            let &(gs, gp, fields, records) = cells.next().unwrap();
            assert_eq!((s, p), (gs, gp), "grid order");
            let (got_fields, got_records) = grid_cell(&run_grid_cell(s, p));
            assert_eq!(got_fields, fields, "{s} × {p}: outcome fields");
            assert_eq!(got_records, records, "{s} × {p}: records");
        }
    }
}
