//! The timing wrappers must not change what the simulator computes: on a
//! reduced copy of every workload, the wrapped (traced) run's simulated
//! results and replay-memo counts are bit-identical to the unwrapped run,
//! and a repeat with the same seed is identical too.

use perfbench::spans::{self, Span};
use perfbench::summary::SimSummary;
use perfbench::workloads::{self, RunOutput, Size, Workload};

fn run(w: Workload, seed: u64, traced: bool) -> RunOutput {
    let prepared = workloads::setup(w, seed, Size::Reduced, traced).expect("set-up succeeds");
    spans::reset(traced);
    let out = workloads::run(prepared, traced).expect("run succeeds");
    spans::reset(false);
    out
}

#[test]
fn wrapped_runs_are_bit_identical_to_unwrapped_runs() {
    for w in Workload::ALL {
        let plain = run(w, 7, false);
        let again = run(w, 7, false);
        let prepared = workloads::setup(w, 7, Size::Reduced, true).expect("set-up succeeds");
        spans::reset(true);
        let traced = workloads::run(prepared, true).expect("run succeeds");
        let record = spans::recorded();
        spans::reset(false);

        assert_eq!(
            plain.sim,
            again.sim,
            "{}: same seed, same results",
            w.name()
        );
        assert_eq!(
            plain.sim,
            traced.sim,
            "{}: wrapping changed results",
            w.name()
        );
        assert_eq!(
            plain.memo,
            traced.memo,
            "{}: wrapping changed memo counts",
            w.name()
        );

        let summary = SimSummary::of(&traced.sim);
        summary
            .check_conservation()
            .expect("requests are conserved");
        assert!(summary.completed > 0, "{}: nothing completed", w.name());
        assert!(
            record.get(Span::Loop).calls > 0,
            "{}: loop untimed",
            w.name()
        );
        assert!(
            record.get(Span::SchedPlan).calls > 0,
            "{}: scheduler wrapper never called",
            w.name()
        );
        assert!(
            record.get(Span::BackendDecode).calls > 0,
            "{}: backend wrapper never called",
            w.name()
        );
        match w {
            Workload::ShareGpt => assert_eq!(
                record.get(Span::FleetChoose).calls,
                summary.submitted,
                "one dispatch decision per request"
            ),
            Workload::OrchShort => {
                assert_eq!(
                    record.get(Span::OrchRoute).calls,
                    summary.dispatched,
                    "one route decision per dispatched request"
                );
                assert!(record.get(Span::OrchAutoscale).calls >= summary.submitted);
            }
            Workload::PimSweep => {
                assert_eq!(
                    record.get(Span::Calibrate).calls,
                    2,
                    "one calibration per organisation"
                );
                assert_eq!(
                    traced.memo.run_misses, 0,
                    "warmup covers every bucket served"
                );
            }
        }
        assert_eq!(
            traced.memo.streams, traced.memo.entries,
            "fresh memos: one entry per replay"
        );
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    for w in Workload::ALL {
        assert_ne!(run(w, 1, false).sim, run(w, 2, false).sim, "{}", w.name());
    }
}
