//! The measurement loop, its correctness gate, and the report.
//!
//! An untraced run (`--trace 0`) repeats set-up plus the timed run of one
//! workload until `--seconds` have passed (at least [`MIN_ITERS`] times)
//! and reports the medians of the host times, normalised by the
//! [`reference`] kernel, with the simulated metrics of the first repeat. A
//! traced run (`--trace 1`) alternates untraced and traced repeats and
//! reports the per-layer split (raw wall time) of the traced repeat with
//! the median run time.
//!
//! Every repeat is checked: request conservation, simulated results equal
//! to the first repeat (same seed, so they must be bit-identical), and in
//! the traced run equal between traced and untraced repeats, plus the
//! count reconciliations of [`reconcile`]. A violation fails every request
//! of that repeat and makes the command exit non-zero.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::reference;
use crate::spans::{self, Record, Span};
use crate::summary::{ratio, SimSummary};
use crate::workloads::{self, MemoCounts, RunOutput, SimOutcome, Size, Workload};

/// Command-line synopsis.
pub const USAGE: &str = "usage: perfbench --workload <neupims_sharegpt_trace|orch_short_256|\
pim_sweep_longctx> [--seed N] [--seconds S] [--trace 0|1]";

/// The seed used when `--seed` is absent. README.md also names a
/// held-out seed, kept out of tuning, and records its figures.
pub const DEFAULT_SEED: u64 = 1;

/// Fewest timed repeats of an untraced run.
pub const MIN_ITERS: usize = 3;
/// Fewest untraced/traced pairs of a traced run.
pub const MIN_PAIRS: usize = 2;
/// Fewest set-up samples behind `setup_s`; short runs add set-up-only
/// repeats to reach it.
pub const MIN_SETUPS: usize = 15;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Whether to report the traced per-layer split.
    pub trace: bool,
}

impl Options {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// Describes the first unknown flag, missing value or bad value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(0.0..=3600.0).contains(&seconds) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Reference-kernel runs shared between neighbouring measurements: each
/// measurement is bracketed by the kernel run before it and the one after.
struct Speed {
    last: Duration,
}

impl Speed {
    fn new() -> Self {
        Self {
            last: reference::kernel(),
        }
    }

    /// Runs the kernel after a measurement; returns the factor converting
    /// that measurement's wall seconds into reference seconds.
    fn after(&mut self) -> f64 {
        let now = reference::kernel();
        let f = reference::factor(self.last, now);
        self.last = now;
        f
    }
}

/// One set-up plus timed run.
struct Repeat {
    setup: Duration,
    run: Duration,
    out: RunOutput,
    summary: SimSummary,
    record: Record,
}

fn repeat(w: Workload, seed: u64, traced: bool) -> Result<Repeat, String> {
    spans::reset(false);
    let start = Instant::now();
    let prepared = workloads::setup(w, seed, Size::Full, traced)?;
    let setup = start.elapsed();
    spans::reset(traced);
    let start = Instant::now();
    let out = workloads::run(prepared, traced);
    let run = start.elapsed();
    let record = spans::recorded();
    spans::reset(false);
    let out = out?;
    let summary = SimSummary::of(&out.sim);
    summary.check_conservation()?;
    Ok(Repeat {
        setup,
        run,
        out,
        summary,
        record,
    })
}

/// Count reconciliations of a traced repeat: wrapped call counts against
/// the outcome, replay streams against memo entries, and span self times
/// within the run's wall time.
///
/// # Errors
///
/// Describes the first mismatch.
fn reconcile(w: Workload, r: &Repeat) -> Result<(), String> {
    let rec = &r.record;
    let s = &r.summary;
    let check = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    match w {
        Workload::ShareGpt => check(
            rec.get(Span::FleetChoose).calls == s.submitted,
            format!(
                "fleet.choose_calls {} != submitted {}",
                rec.get(Span::FleetChoose).calls,
                s.submitted
            ),
        )?,
        Workload::OrchShort => check(
            rec.get(Span::OrchRoute).calls == s.dispatched,
            format!(
                "orch.route_calls {} != dispatched {}",
                rec.get(Span::OrchRoute).calls,
                s.dispatched
            ),
        )?,
        Workload::PimSweep => {}
    }
    check(
        r.out.memo.streams == r.out.memo.entries,
        format!(
            "cycle.streams {} != cost.memo_entries {} on fresh memos",
            r.out.memo.streams, r.out.memo.entries
        ),
    )?;
    check(
        rec.self_ns() <= r.run.as_nanos() as u64,
        format!(
            "span self times {} ns exceed the traced run {} ns",
            rec.self_ns(),
            r.run.as_nanos()
        ),
    )
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process, MiB (0 where `/proc` is absent).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one invocation measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Whether every repeat passed every check.
    pub correct: bool,
    /// Simulated requests submitted over all repeats.
    pub attempted: u64,
    /// Simulated requests of failed repeats.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Why the run failed, if it did.
    pub errors: Vec<String>,
}

impl Report {
    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table, failed share and errors included.
    pub fn table(&self) -> String {
        let mut out = format!(
            "\n## perfbench {} — attempted {}, failed {} (failed_share {})\n\n",
            self.workload.name(),
            self.attempted,
            self.failed,
            ratio(self.failed as f64, self.attempted as f64)
        );
        for e in &self.errors {
            let _ = writeln!(out, "ERROR: {e}");
        }
        out.push_str("| metric | value | unit |\n|---|---:|---|\n");
        for m in &self.metrics {
            let _ = writeln!(out, "| {} | {:.6} | {} |", m.name, m.value, m.unit);
        }
        out
    }
}

/// Accumulates repeats, their failures and their checks.
struct Runs {
    workload: Workload,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Simulated results and memo counts of the first repeat.
    reference: Option<(SimOutcome, MemoCounts)>,
    /// Span call counts of the first traced repeat.
    traced_counts: Option<Vec<(u64, u64)>>,
}

impl Runs {
    fn new(workload: Workload) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            reference: None,
            traced_counts: None,
        }
    }

    /// Records a repeat's outcome; returns it when it passed its checks.
    fn admit(&mut self, r: Result<Repeat, String>, label: &str) -> Option<Repeat> {
        let r = r.and_then(|r| {
            match &self.reference {
                None => self.reference = Some((r.out.sim.clone(), r.out.memo)),
                Some((sim, memo)) if *sim != r.out.sim || *memo != r.out.memo => {
                    return Err(format!(
                        "{label} repeat's simulated results differ from the first repeat \
                         with the same seed"
                    ))
                }
                Some(_) => {}
            }
            if label == "traced" {
                reconcile(self.workload, &r)?;
                let counts = r.record.counts();
                match &self.traced_counts {
                    None => self.traced_counts = Some(counts),
                    Some(first) if *first != counts => {
                        return Err("traced repeat's span counts differ from the first \
                                    traced repeat"
                            .into())
                    }
                    Some(_) => {}
                }
            }
            Ok(r)
        });
        match r {
            Ok(r) => {
                self.attempted += r.summary.submitted;
                Some(r)
            }
            Err(e) => {
                // A failed repeat fails all its requests; the size of a
                // repeat that failed before reporting one is that of the
                // repeats before it (or 1).
                let n = self
                    .reference
                    .as_ref()
                    .map_or(1, |(s, _)| SimSummary::of(s).submitted.max(1));
                self.attempted += n;
                self.failed += n;
                self.errors.push(e);
                None
            }
        }
    }

    fn report(self, metrics: Vec<Metric>) -> Report {
        Report {
            workload: self.workload,
            correct: self.errors.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            errors: self.errors,
        }
    }
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        traced_run(opts)
    } else {
        untraced_run(opts)
    }
}

fn untraced_run(opts: &Options) -> Report {
    let w = opts.workload;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut runs = Runs::new(w);
    let mut first: Option<SimSummary> = None;
    let mut run_s: Vec<f64> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut speed = Speed::new();
    while run_s.len() < MIN_ITERS || Instant::now() < deadline {
        let r = repeat(w, opts.seed, false);
        let f = speed.after();
        match runs.admit(r, "untraced") {
            Some(r) => {
                setups.push(r.setup.as_secs_f64() * f);
                run_s.push(r.run.as_secs_f64() * f);
                first.get_or_insert(r.summary);
            }
            None => return runs.report(Vec::new()),
        }
    }
    while setups.len() < MIN_SETUPS {
        let start = Instant::now();
        match workloads::setup(w, opts.seed, Size::Full, false) {
            Ok(prepared) => {
                let setup = start.elapsed().as_secs_f64();
                drop(prepared);
                setups.push(setup * speed.after());
            }
            Err(e) => {
                runs.admit(Err(e), "set-up");
                return runs.report(Vec::new());
            }
        }
    }
    let s = first.expect("at least one repeat");
    let metrics = vec![
        m("setup_s", median(&setups), "s"),
        m("run_s", median(&run_s), "s"),
        m("peak_rss_mib", peak_rss_mib(), "MiB"),
        m("sim_tokens_per_s", s.tokens_per_s(), "tokens/s"),
        m("sim_ttft_p50_ms", s.ttft_ms(50.0), "ms"),
        m("sim_ttft_p99_ms", s.ttft_ms(99.0), "ms"),
        m("sim_tpot_p50_ms", s.tpot_ms(50.0), "ms"),
        m("sim_tpot_p99_ms", s.tpot_ms(99.0), "ms"),
        m("sim_slo_attainment", s.slo_attainment(), "ratio"),
    ];
    runs.report(metrics)
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn traced_run(opts: &Options) -> Report {
    let w = opts.workload;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut runs = Runs::new(w);
    let mut plain: Vec<f64> = Vec::new();
    // Only what the split needs is kept, not the outcomes themselves.
    let mut traced: Vec<(Duration, Record, SimSummary, MemoCounts)> = Vec::new();
    let mut traced_norm: Vec<f64> = Vec::new();
    let mut speed = Speed::new();
    while traced.len() < MIN_PAIRS || Instant::now() < deadline {
        let r = repeat(w, opts.seed, false);
        let f = speed.after();
        match runs.admit(r, "untraced") {
            Some(r) => plain.push(r.run.as_secs_f64() * f),
            None => return runs.report(Vec::new()),
        }
        let r = repeat(w, opts.seed, true);
        let f = speed.after();
        match runs.admit(r, "traced") {
            Some(r) => {
                traced_norm.push(r.run.as_secs_f64() * f);
                traced.push((r.run, r.record, r.summary, r.out.memo));
            }
            None => return runs.report(Vec::new()),
        }
    }
    // Counts repeat exactly; times come from the median traced repeat so
    // the split sums to its run time.
    traced.sort_by_key(|t| t.0);
    let overhead = ratio(median(&traced_norm), median(&plain));
    let (run, record, summary, memo) = &traced[(traced.len() - 1) / 2];
    let metrics = layer_metrics(*run, record, summary, *memo, overhead);
    runs.report(metrics)
}

/// The per-layer split of one traced repeat.
fn layer_metrics(
    run: Duration,
    rec: &Record,
    s: &SimSummary,
    mc: MemoCounts,
    overhead: f64,
) -> Vec<Metric> {
    let secs = |ns: u64| ns as f64 / 1e9;
    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    let t = |span| rec.get(span);
    let (cal, warm, lp) = (t(Span::Calibrate), t(Span::WarmReplay), t(Span::Loop));
    let (est, dec, pre) = (
        t(Span::CostEstimate),
        t(Span::BackendDecode),
        t(Span::BackendPrefill),
    );
    let (plan, adm) = (t(Span::SchedPlan), t(Span::SchedAdmission));
    let (choose, route, scale) = (
        t(Span::FleetChoose),
        t(Span::OrchRoute),
        t(Span::OrchAutoscale),
    );
    let run_ns = run.as_nanos() as u64;
    let share = |ns: u64| ratio(ns as f64, run_ns as f64);
    let cycle_ns = cal.self_ns + warm.self_ns;
    let pricing_ns = est.self_ns + dec.self_ns + pre.self_ns + plan.self_ns + adm.self_ns;
    let dispatch_ns = lp.self_ns + choose.self_ns + route.self_ns + scale.self_ns;
    let untimed_ns = run_ns.saturating_sub(rec.self_ns());
    vec![
        m("cycle.calibrate_calls", cal.calls as f64, "count"),
        m("cycle.calibrate_s", secs(cal.self_ns), "s"),
        m("cycle.warm_replay_s", secs(warm.self_ns), "s"),
        m("cycle.streams", mc.streams as f64, "count"),
        m("cycle.dram_cmds", mc.dram_cmds as f64, "count"),
        m(
            "cycle.ns_per_dram_cmd",
            per(warm.self_ns, mc.dram_cmds),
            "ns",
        ),
        m("cycle.run_misses", mc.run_misses as f64, "count"),
        m("cost.estimates", (mc.hits + mc.streams) as f64, "count"),
        m(
            "cost.hit_ratio",
            ratio(mc.hits as f64, (mc.hits + mc.streams) as f64),
            "ratio",
        ),
        m("cost.memo_entries", mc.entries as f64, "count"),
        m("cost.sched_calls", est.items as f64, "count"),
        m("cost.sched_s", secs(est.self_ns), "s"),
        m("cost.ns_per_call", per(est.self_ns, est.items), "ns"),
        m("backend.decode_calls", dec.calls as f64, "count"),
        m("backend.decode_s", secs(dec.self_ns), "s"),
        m(
            "backend.decode_ns_per_call",
            per(dec.self_ns, dec.calls),
            "ns",
        ),
        m(
            "backend.decode_mean_batch",
            ratio(dec.items as f64, dec.calls as f64),
            "requests",
        ),
        m("backend.prefill_calls", pre.calls as f64, "count"),
        m("backend.prefill_s", secs(pre.self_ns), "s"),
        m("sched.plan_calls", plan.calls as f64, "count"),
        m("sched.plan_self_s", secs(plan.self_ns), "s"),
        m("sched.admission_calls", adm.calls as f64, "count"),
        m("sched.admission_self_s", secs(adm.self_ns), "s"),
        m("serving.steps", s.iterations as f64, "count"),
        m("serving.preemptions", s.preemptions as f64, "count"),
        m("serving.peak_kv", s.peak_kv, "ratio"),
        m("serving.mean_decode_batch", s.mean_decode_batch, "requests"),
        m("serving.overlap_efficiency", s.overlap_efficiency, "ratio"),
        m("fleet.choose_calls", choose.calls as f64, "count"),
        m("fleet.choose_s", secs(choose.self_ns), "s"),
        m("loop.self_s", secs(lp.self_ns), "s"),
        m("loop.ns_per_request", per(lp.self_ns, s.submitted), "ns"),
        m("orch.route_calls", route.calls as f64, "count"),
        m("orch.route_s", secs(route.self_ns), "s"),
        m(
            "orch.route_ns_per_call",
            per(route.self_ns, route.calls),
            "ns",
        ),
        m("orch.autoscale_calls", scale.calls as f64, "count"),
        m("orch.autoscale_s", secs(scale.self_ns), "s"),
        m("orch.deferred", s.deferred as f64, "count"),
        m("orch.shed", s.shed as f64, "count"),
        m("orch.warmups", s.warmups as f64, "count"),
        m("orch.peak_replicas", s.peak_replicas as f64, "count"),
        m("trace.overhead_ratio", overhead, "ratio"),
        m("trace.run_s", secs(run_ns), "s"),
        m("trace.untimed_s", secs(untimed_ns), "s"),
        m("share.cycle", share(cycle_ns), "ratio"),
        m("share.pricing", share(pricing_ns), "ratio"),
        m("share.dispatch", share(dispatch_ns), "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_flags() {
        let o = Options::parse(&args(
            "--workload orch_short_256 --seed 42 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::OrchShort);
        assert_eq!((o.seed, o.seconds, o.trace), (42, 30.0, true));
        let d = Options::parse(&args("--workload pim_sweep_longctx")).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        for bad in [
            "",
            "--workload nope",
            "--workload orch_short_256 --trace 2",
            "--workload orch_short_256 --seconds -1",
            "--workload orch_short_256 --seed",
            "--workload orch_short_256 --bogus 1",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let r = Report {
            workload: Workload::ShareGpt,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![m("run_s", 1.25, "s"), m("setup_s", f64::NAN, "s")],
            errors: Vec::new(),
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
