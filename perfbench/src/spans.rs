//! In-memory span recorder for the traced run.
//!
//! Every timed call into a layer opens a span on a per-thread stack; when
//! it closes, its duration is charged to its own layer and added to the
//! children total of the span below it, so a layer's *self* time is its
//! span time minus the part its nested spans cover. Only the thread that
//! drives the simulation records: the benchmark runs fleets with one job,
//! so every wrapped call happens on it.

use std::cell::RefCell;
use std::time::Instant;

/// A timed boundary, one per public entry point the benchmark wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `neupims_pim::calibrate`.
    Calibrate,
    /// `FleetSim::warm_replay` / `ServingSim::warm_cost_model`.
    WarmReplay,
    /// `FleetSim::run`, `Orchestrator::run` or `ServingSim::run`.
    Loop,
    /// `DispatchPolicy::choose`.
    FleetChoose,
    /// `RoutePolicy::route`.
    OrchRoute,
    /// `AutoscalePolicy::desired`.
    OrchAutoscale,
    /// `SchedulerPolicy::plan`.
    SchedPlan,
    /// `SchedulerPolicy::admission_charge`.
    SchedAdmission,
    /// `Backend::decode_iteration`.
    BackendDecode,
    /// `Backend::prefill_cycles`.
    BackendPrefill,
    /// `MhaCostModel::estimate` / `estimate_sum` on the serving loop's model.
    CostEstimate,
}

impl Span {
    const COUNT: usize = 11;
}

/// Totals of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the time nested spans covered, nanoseconds.
    pub self_ns: u64,
    /// Work items the spans processed (estimates priced, batch slots
    /// decoded); equals `calls` unless a span counts several.
    pub items: u64,
}

/// Everything recorded since the last [`reset`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    totals: [Totals; Span::COUNT],
}

impl Record {
    /// Totals of one span kind.
    pub fn get(&self, span: Span) -> Totals {
        self.totals[span as usize]
    }

    /// Calls and items of every span kind: the part of a record that
    /// repeats exactly.
    pub fn counts(&self) -> Vec<(u64, u64)> {
        self.totals.iter().map(|t| (t.calls, t.items)).collect()
    }

    /// Self time of every span, nanoseconds.
    pub fn self_ns(&self) -> u64 {
        self.totals.iter().map(|t| t.self_ns).sum()
    }
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    record: Record,
    /// Children time accumulated under each open span.
    stack: Vec<u64>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Clears the record and turns recording on or off for this thread.
pub fn reset(enabled: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = enabled;
        r.record = Record::default();
        r.stack.clear();
    });
}

/// The record so far on this thread.
pub fn recorded() -> Record {
    RECORDER.with(|r| r.borrow().record.clone())
}

/// Whether this thread records spans.
fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Runs `f` inside a span of kind `span` that processed `items` work
/// items. Without recording, `f` runs untouched.
pub fn timed<R>(span: Span, items: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    RECORDER.with(|r| r.borrow_mut().stack.push(0));
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let children = r.stack.pop().expect("span stack underflow");
        if let Some(parent) = r.stack.last_mut() {
            *parent += elapsed;
        }
        let t = &mut r.record.totals[span as usize];
        t.calls += 1;
        t.items += items;
        t.total_ns += elapsed;
        t.self_ns += elapsed.saturating_sub(children);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        reset(true);
        timed(Span::Loop, 1, || {
            timed(Span::SchedPlan, 1, || {
                timed(Span::BackendDecode, 4, || std::hint::black_box(1 + 1))
            })
        });
        let rec = recorded();
        let (lp, plan, dec) = (
            rec.get(Span::Loop),
            rec.get(Span::SchedPlan),
            rec.get(Span::BackendDecode),
        );
        assert_eq!((lp.calls, plan.calls, dec.calls, dec.items), (1, 1, 1, 4));
        assert_eq!(dec.self_ns, dec.total_ns);
        assert_eq!(plan.self_ns, plan.total_ns - dec.total_ns);
        assert_eq!(lp.self_ns, lp.total_ns - plan.total_ns);
        assert_eq!(rec.self_ns(), lp.total_ns);
        reset(false);
        timed(Span::Loop, 1, || ());
        assert_eq!(recorded(), Record::default());
    }
}
