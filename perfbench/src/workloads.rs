//! The three benchmark workloads: their seeded inputs, their set-up, and
//! the timed simulation call.
//!
//! Each workload is built in two steps, which the caller times apart:
//! [`setup`] calibrates the Table 2 configuration, builds the replicas and
//! submits the generated requests; [`run`] performs the simulation work a
//! user pays on every run. With `traced` set, every policy and backend is
//! wrapped in the [`wrap`](crate::wrap) timers and the run's calls into
//! calibration, replay warmup and the serving loop open spans.

use neupims_core::backend::{Backend, GpuRooflineBackend};
use neupims_core::device::{Device, DeviceMode};
use neupims_core::fleet::{
    DispatchPolicy, FleetOutcome, FleetRequest, FleetSim, JoinShortestQueue,
};
use neupims_core::orchestrator::{
    AdmissionConfig, AutoscalePolicy, CapabilityAware, EwmaPredictive, OrchRequest, Orchestrator,
    OrchestratorConfig, OrchestratorOutcome, RoutePolicy, TenantClass,
};
use neupims_core::scheduler::{scheduler_from_name, SchedulerPolicy};
use neupims_core::serving::{ServingConfig, ServingOutcome, ServingSim, SloTargets};
use neupims_pim::{calibrate, PimCalibration};
use neupims_sched::{CostModelKind, TraceMemo, TraceSnapshot};
use neupims_types::{Cycle, LlmConfig, NeuPimsConfig};
use neupims_workload::scenario::{
    ArrivalProcess, GeneratedRequest, LengthDistribution, ScenarioWorkload,
    TenantClass as TrafficClass, TenantMix,
};
use neupims_workload::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::{timed, Span};
use crate::wrap::{TimedAutoscale, TimedBackend, TimedDispatch, TimedRoute, TimedScheduler};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 trace-priced NeuPIMs replicas serving ShareGPT traffic.
    ShareGpt,
    /// The orchestrator over 256 mixed slots with short-output traffic.
    OrchShort,
    /// A memory-organisation sweep of long-context serving.
    PimSweep,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [Workload::ShareGpt, Workload::OrchShort, Workload::PimSweep];

    /// The name `--workload` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShareGpt => "neupims_sharegpt_trace",
            Workload::OrchShort => "orch_short_256",
            Workload::PimSweep => "pim_sweep_longctx",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much of a workload to build: the benchmark runs `Full`; tests run
/// a `Reduced` copy with the same shape and fewer requests and replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A small copy for tests.
    Reduced,
}

impl Size {
    fn pick<T>(self, full: T, reduced: T) -> T {
        match self {
            Size::Full => full,
            Size::Reduced => reduced,
        }
    }
}

/// Fleet and orchestrator work runs on the calling thread, so every span
/// lands on the recording thread and host time does not depend on how
/// many cores happen to be free.
const JOBS: usize = 1;

/// The model every workload serves.
fn model() -> LlmConfig {
    LlmConfig::gpt3_7b()
}

fn serving_config(model: &LlmConfig, max_batch: usize, slo: Option<SloTargets>) -> ServingConfig {
    ServingConfig {
        max_batch,
        tp: model.parallelism.tp,
        layers: model.num_layers / model.parallelism.pp,
        target_completions: 0,
        slo,
    }
}

fn slo_ms(ttft_ms: f64, tpot_ms: f64) -> SloTargets {
    SloTargets {
        ttft: (ttft_ms * 1e6) as Cycle,
        tpot: tpot_ms * 1e6,
    }
}

/// Wraps a backend in the timing wrapper when tracing.
fn backend(b: impl Backend + 'static, traced: bool) -> Box<dyn Backend> {
    if traced {
        Box::new(TimedBackend(b))
    } else {
        Box::new(b)
    }
}

/// Wraps a boxed policy in its timer when tracing.
fn timed_if<T: ?Sized>(traced: bool, policy: Box<T>, wrap: fn(Box<T>) -> Box<T>) -> Box<T> {
    if traced {
        wrap(policy)
    } else {
        policy
    }
}

fn scheduler(name: &str, chunk_tokens: u32, traced: bool) -> Box<dyn SchedulerPolicy> {
    let s = scheduler_from_name(name, chunk_tokens).expect("shipped scheduler");
    timed_if(traced, s, |s| Box::new(TimedScheduler(s)))
}

fn generate(seed: u64, w: &ScenarioWorkload) -> Vec<GeneratedRequest> {
    w.generate(&mut StdRng::seed_from_u64(seed))
}

fn fleet_request(id: usize, g: &GeneratedRequest) -> FleetRequest {
    FleetRequest {
        id: id as u32,
        input_len: g.input_len,
        output_len: g.output_len,
        arrival: g.arrival,
    }
}

/// Calibrates `hw`, inside a span (recorded only during a traced run, so
/// the set-up's Table 2 calibration never is).
fn calibrated(hw: &NeuPimsConfig) -> Result<PimCalibration, String> {
    timed(Span::Calibrate, 1, || calibrate(hw)).map_err(|e| format!("calibration: {e}"))
}

// ---------------------------------------------------------------------
// neupims_sharegpt_trace

const SHAREGPT_REPLICAS: usize = 16;
const SHAREGPT_REQUESTS: usize = 4000;
const SHAREGPT_RATE: f64 = 0.5;
const SHAREGPT_MAX_BATCH: usize = 64;
const SHAREGPT_CHUNK_TOKENS: u32 = 256;
const SHAREGPT_SLO: (f64, f64) = (18.0, 10.0);
/// Generation cap, as a serving frontend's `max_tokens` would impose: one
/// 8k-token straggler would otherwise set the whole run's makespan.
const SHAREGPT_MAX_OUTPUT: u32 = 1024;

fn sharegpt_setup(seed: u64, size: Size, traced: bool) -> Result<Prepared, String> {
    let hw = NeuPimsConfig::table2();
    let cal = calibrated(&hw)?;
    let model = model();
    let replicas = size.pick(SHAREGPT_REPLICAS, 4);
    let slo = slo_ms(SHAREGPT_SLO.0, SHAREGPT_SLO.1);
    let cfg = serving_config(&model, SHAREGPT_MAX_BATCH, Some(slo));
    let sims = (0..replicas)
        .map(|_| {
            let device = Device::new(hw, cal, DeviceMode::neupims())
                .with_cost_model(CostModelKind::TraceDriven);
            ServingSim::with_scheduler(
                backend(device, traced),
                model.clone(),
                cfg.clone(),
                scheduler("interleaved", SHAREGPT_CHUNK_TOKENS, traced),
            )
        })
        .collect();
    let policy: Box<dyn DispatchPolicy> = Box::new(JoinShortestQueue);
    let policy = timed_if(traced, policy, |p| Box::new(TimedDispatch(p)));
    let memo = TraceMemo::new();
    let mut fleet = FleetSim::new(sims, policy)
        .map_err(|e| e.to_string())?
        .with_jobs(JOBS)
        .with_shared_trace_memo(&memo);
    let trace = generate(
        seed,
        &ScenarioWorkload {
            arrival: ArrivalProcess::Poisson {
                rate: SHAREGPT_RATE * replicas as f64 / SHAREGPT_REPLICAS as f64,
            },
            tenants: TenantMix::single(Dataset::ShareGpt),
            requests: size.pick(SHAREGPT_REQUESTS, 200),
        },
    );
    for (i, g) in trace.iter().enumerate() {
        let mut g = *g;
        g.output_len = g.output_len.min(SHAREGPT_MAX_OUTPUT);
        fleet
            .submit(fleet_request(i, &g))
            .map_err(|e| e.to_string())?;
    }
    Ok(Prepared::ShareGpt { fleet, memo })
}

// ---------------------------------------------------------------------
// orch_short_256

const ORCH_SLOTS: usize = 256;
const ORCH_MIN_REPLICAS: usize = 64;
const ORCH_REQUESTS: usize = 60_000;
const ORCH_RATE: f64 = 200.0;
const ORCH_PERIOD: Cycle = 75_000_000;
const ORCH_MAX_BATCH: usize = 16;
const ORCH_CHAT_SLO: (f64, f64) = (20.0, 5.0);
const ORCH_BATCH_SLO: (f64, f64) = (500.0, 50.0);
/// Requests per Mcycle one slot absorbs, the predictive autoscaler's
/// capacity denominator.
const ORCH_SLOT_CAPACITY: f64 = 1.0;
/// Mean slot KV pressure at which batch traffic is deferred, then shed:
/// short requests reserve little KV, so the thresholds sit where a
/// backlog, not a full cache, pushes pressure.
const ORCH_DEFER_PRESSURE: f64 = 0.0008;
const ORCH_SHED_PRESSURE: f64 = 0.0015;

fn orch_setup(seed: u64, size: Size, traced: bool) -> Result<Prepared, String> {
    let hw = NeuPimsConfig::table2();
    let cal = calibrated(&hw)?;
    let model = model();
    let slots_n = size.pick(ORCH_SLOTS, 16);
    let cfg = serving_config(&model, ORCH_MAX_BATCH, None);
    let slots = (0..slots_n)
        .map(|i| {
            if i % 2 == 0 {
                ServingSim::with_scheduler(
                    backend(Device::new(hw, cal, DeviceMode::neupims()), traced),
                    model.clone(),
                    cfg.clone(),
                    scheduler("interleaved", 256, traced),
                )
            } else {
                ServingSim::with_scheduler(
                    backend(GpuRooflineBackend::a100(), traced),
                    model.clone(),
                    cfg.clone(),
                    scheduler("lump", 256, traced),
                )
            }
        })
        .collect();
    let tenants = vec![
        TenantClass::new("chat", slo_ms(ORCH_CHAT_SLO.0, ORCH_CHAT_SLO.1), 200, 0.6),
        TenantClass::new("batch", slo_ms(ORCH_BATCH_SLO.0, ORCH_BATCH_SLO.1), 40, 0.4),
    ];
    let route: Box<dyn RoutePolicy> = Box::new(CapabilityAware::default());
    let route = timed_if(traced, route, |r| Box::new(TimedRoute(r)));
    let autoscale: Box<dyn AutoscalePolicy> = Box::new(EwmaPredictive::new(ORCH_SLOT_CAPACITY));
    let autoscale = timed_if(traced, autoscale, |a| Box::new(TimedAutoscale(a)));
    let ocfg = OrchestratorConfig {
        min_replicas: slots_n * ORCH_MIN_REPLICAS / ORCH_SLOTS,
        max_replicas: slots_n,
        warm_start: true,
        admission: AdmissionConfig {
            defer_pressure: ORCH_DEFER_PRESSURE,
            shed_pressure: ORCH_SHED_PRESSURE,
            ..AdmissionConfig::default()
        },
    };
    let mut orch = Orchestrator::new(slots, tenants, route, autoscale, ocfg)
        .map_err(|e| e.to_string())?
        .with_jobs(JOBS);
    let short = |name: &str, weight: f64| TrafficClass {
        name: name.into(),
        weight,
        input: LengthDistribution::DatasetInput(Dataset::Alpaca),
        output: LengthDistribution::Uniform { lo: 2, hi: 6 },
    };
    let trace = generate(
        seed,
        &ScenarioWorkload {
            arrival: ArrivalProcess::Diurnal {
                rate: ORCH_RATE * slots_n as f64 / ORCH_SLOTS as f64,
                amplitude: 0.8,
                period: ORCH_PERIOD,
            },
            tenants: TenantMix::new(vec![short("chat", 0.6), short("batch", 0.4)]),
            requests: size.pick(ORCH_REQUESTS, 400),
        },
    );
    for (i, g) in trace.iter().enumerate() {
        orch.submit(OrchRequest {
            req: fleet_request(i, g),
            tenant: g.tenant,
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(Prepared::Orch {
        orch,
        submitted: trace.len() as u64,
    })
}

// ---------------------------------------------------------------------
// pim_sweep_longctx

/// Banks per channel × page bytes; each runs with single (naive NPU+PIM)
/// and dual (NeuPIMs) row buffers.
const SWEEP_ORGS: [(u32, u64); 6] = [
    (16, 1024),
    (16, 2048),
    (32, 1024),
    (32, 2048),
    (64, 1024),
    (64, 2048),
];
const SWEEP_REQUESTS: usize = 800;
const SWEEP_RATE: f64 = 0.003;
const SWEEP_MAX_BATCH: usize = 32;
const SWEEP_CHUNK_TOKENS: u32 = 512;
const SWEEP_SLO: (f64, f64) = (100.0, 30.0);

/// One organisation of the sweep and the trace it serves.
#[derive(Debug, Clone)]
pub struct Organisation {
    hw: NeuPimsConfig,
    mode: DeviceMode,
    trace: Vec<GeneratedRequest>,
}

fn sweep_setup(seed: u64, size: Size) -> Result<Prepared, String> {
    // The Table 2 point anchors the sweep; the swept organisations are
    // calibrated inside the timed run, as a sweep user pays them.
    calibrated(&NeuPimsConfig::table2())?;
    let shape = ScenarioWorkload {
        arrival: ArrivalProcess::Poisson { rate: SWEEP_RATE },
        tenants: TenantMix::new(vec![TrafficClass {
            name: "longctx".into(),
            weight: 1.0,
            input: LengthDistribution::Uniform { lo: 512, hi: 6144 },
            output: LengthDistribution::Uniform { lo: 2, hi: 8 },
        }]),
        requests: size.pick(SWEEP_REQUESTS, 24),
    };
    // Each organisation serves its own draw of the same traffic shape, so
    // the pooled tail percentiles rest on independent arrivals.
    let mut rng = StdRng::seed_from_u64(seed);
    let orgs = size.pick(&SWEEP_ORGS[..], &SWEEP_ORGS[..1]);
    let orgs = orgs
        .iter()
        .flat_map(|&(banks, page)| {
            let mut hw = NeuPimsConfig::table2();
            hw.mem.banks_per_channel = banks;
            hw.mem.page_bytes = page;
            [DeviceMode::NaiveNpuPim, DeviceMode::neupims()].map(|mode| (hw, mode))
        })
        .map(|(hw, mode)| Organisation {
            hw,
            mode,
            trace: shape.generate(&mut rng),
        })
        .collect();
    Ok(Prepared::Sweep { orgs })
}

fn sweep_run(orgs: &[Organisation], traced: bool) -> Result<(SimOutcome, MemoCounts), String> {
    let model = model();
    let cfg = serving_config(
        &model,
        SWEEP_MAX_BATCH,
        Some(slo_ms(SWEEP_SLO.0, SWEEP_SLO.1)),
    );
    let mut outcomes = Vec::with_capacity(orgs.len());
    let mut counts = MemoCounts::default();
    for org in orgs {
        let cal = calibrated(&org.hw)?;
        let memo = TraceMemo::new();
        let device = Device::new(org.hw, cal, org.mode).with_cost_model(CostModelKind::TraceDriven);
        let mut sim = ServingSim::with_scheduler(
            backend(device, traced),
            model.clone(),
            cfg.clone(),
            scheduler("interleaved", SWEEP_CHUNK_TOKENS, traced),
        )
        .with_trace_memo(&memo);
        let mut spans = Vec::with_capacity(org.trace.len());
        for (i, g) in org.trace.iter().enumerate() {
            sim.submit(i as u32, g.input_len, g.output_len, g.arrival)
                .map_err(|e| e.to_string())?;
            let lo = u64::from(g.input_len).max(1);
            spans.push((lo, lo + u64::from(g.output_len) - 1));
        }
        timed(Span::WarmReplay, 1, || sim.warm_cost_model(&spans, JOBS));
        let warmed = memo.snapshot().replays;
        let out = timed(Span::Loop, 1, || sim.run()).map_err(|e| e.to_string())?;
        counts.add(&memo, warmed);
        outcomes.push(out);
    }
    Ok((SimOutcome::Sweep(outcomes), counts))
}

// ---------------------------------------------------------------------
// Shared plumbing

/// A workload after set-up, ready for its timed run.
// One value per repeat, moved straight into `run`: boxing would only add
// an allocation to the timed set-up.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    /// The ShareGPT fleet and its shared replay memo.
    ShareGpt {
        /// The fleet, requests submitted.
        fleet: FleetSim<Box<dyn Backend>>,
        /// The memo every replica prices through.
        memo: TraceMemo,
    },
    /// The orchestrated fleet.
    Orch {
        /// The orchestrator, requests submitted.
        orch: Orchestrator<Box<dyn Backend>>,
        /// Requests submitted across tenants.
        submitted: u64,
    },
    /// The sweep's organisations with their traces.
    Sweep {
        /// Organisations, calibrated inside the run.
        orgs: Vec<Organisation>,
    },
}

/// Builds a workload: calibration, replicas, request generation and
/// submission.
///
/// # Errors
///
/// Returns a description of the first simulator error.
pub fn setup(w: Workload, seed: u64, size: Size, traced: bool) -> Result<Prepared, String> {
    match w {
        Workload::ShareGpt => sharegpt_setup(seed, size, traced),
        Workload::OrchShort => orch_setup(seed, size, traced),
        Workload::PimSweep => sweep_setup(seed, size),
    }
}

/// Replay-memo counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Command streams replayed through the cycle model.
    pub streams: u64,
    /// Streams replayed after warmup, during the serving loop.
    pub run_misses: u64,
    /// Estimates served from a memo.
    pub hits: u64,
    /// Entries the memos hold at the end.
    pub entries: u64,
    /// DRAM commands of the replayed streams.
    pub dram_cmds: u64,
}

impl MemoCounts {
    fn add(&mut self, memo: &TraceMemo, replays_after_warmup: u64) {
        let s: TraceSnapshot = memo.snapshot();
        let st = s.stats;
        self.streams += s.replays;
        self.run_misses += s.replays - replays_after_warmup;
        self.hits += s.memo_hits;
        self.entries += memo.entries() as u64;
        self.dram_cmds += st.acts
            + st.pim_acts
            + st.reads
            + st.writes
            + st.precharges
            + st.pim_precharges
            + st.refreshes;
    }
}

/// The simulated results of one run, compared bit for bit across repeats
/// and between traced and untraced runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOutcome {
    /// A fleet run.
    Fleet(FleetOutcome),
    /// An orchestrated run, with the requests submitted across tenants.
    Orch(OrchestratorOutcome, u64),
    /// One serving run per swept organisation.
    Sweep(Vec<ServingOutcome>),
}

/// Everything one timed run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The simulated results (replay-memo identities cleared).
    pub sim: SimOutcome,
    /// Replay-memo counters.
    pub memo: MemoCounts,
}

/// The timed simulation call: replay warmup and the serving loop, plus
/// per-organisation calibration on the sweep.
///
/// # Errors
///
/// Returns a description of the first simulator error.
pub fn run(prepared: Prepared, traced: bool) -> Result<RunOutput, String> {
    let (mut sim, memo) = match prepared {
        Prepared::ShareGpt { mut fleet, memo } => {
            timed(Span::WarmReplay, 1, || fleet.warm_replay());
            let warmed = memo.snapshot().replays;
            let out = timed(Span::Loop, 1, || fleet.run()).map_err(|e| e.to_string())?;
            let mut counts = MemoCounts::default();
            counts.add(&memo, warmed);
            (SimOutcome::Fleet(out), counts)
        }
        Prepared::Orch {
            mut orch,
            submitted,
        } => {
            let out = timed(Span::Loop, 1, || orch.run()).map_err(|e| e.to_string())?;
            (SimOutcome::Orch(out, submitted), MemoCounts::default())
        }
        Prepared::Sweep { orgs } => sweep_run(&orgs, traced)?,
    };
    clear_memo_ids(&mut sim);
    Ok(RunOutput { sim, memo })
}

/// Memo identities are allocation addresses, different on every run;
/// clear them so outcomes compare on their counters.
fn clear_memo_ids(sim: &mut SimOutcome) {
    fn serving(o: &mut ServingOutcome) {
        if let Some(t) = o.pim_trace.as_mut() {
            t.memo_id = 0;
        }
    }
    fn fleet(f: &mut FleetOutcome) {
        if let Some(t) = f.pim_trace.as_mut() {
            t.memo_id = 0;
        }
        f.replicas.iter_mut().for_each(serving);
    }
    match sim {
        SimOutcome::Fleet(f) => fleet(f),
        SimOutcome::Orch(o, _) => fleet(&mut o.fleet),
        SimOutcome::Sweep(outs) => outs.iter_mut().for_each(serving),
    }
}
