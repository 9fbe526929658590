//! Simulated (sim-side) metrics and invariants of one run's outcome.

use neupims_core::serving::ServingOutcome;
use neupims_types::Cycle;

use crate::workloads::SimOutcome;

/// Request accounting and simulated latency figures of one run, pooled
/// over replicas, tenants and swept organisations.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Requests the workload submitted.
    pub submitted: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests dropped by a replica (KV cache could not hold them).
    pub dropped: u64,
    /// Requests shed by orchestrator admission.
    pub shed: u64,
    /// Requests deferred by orchestrator admission or warmup.
    pub deferred: u64,
    /// Generated tokens.
    pub tokens: u64,
    /// Simulated seconds: the makespan, summed over swept organisations.
    pub sim_seconds: f64,
    /// Sorted TTFTs of completed requests, cycles.
    pub ttfts: Vec<Cycle>,
    /// Sorted TPOTs of completed requests, cycles per token.
    pub tpots: Vec<f64>,
    /// Completed requests meeting the workload's TTFT and TPOT limits.
    pub slo_met: u64,
    /// Serving iterations executed.
    pub iterations: u64,
    /// KV preemptions.
    pub preemptions: u64,
    /// Highest per-replica peak KV utilisation.
    pub peak_kv: f64,
    /// Requests decoded per iteration, over all iterations.
    pub mean_decode_batch: f64,
    /// Share of on-device prefill cycles hidden under PIM phases.
    pub overlap_efficiency: f64,
    /// Orchestrator slot warmups.
    pub warmups: u64,
    /// Orchestrator peak committed slots.
    pub peak_replicas: u64,
    /// Requests the orchestrator routed to a slot.
    pub dispatched: u64,
}

/// Nearest-rank percentile of a sorted slice (the simulator's own rule).
fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

impl SimSummary {
    /// Summarises an outcome.
    pub fn of(sim: &SimOutcome) -> Self {
        let mut s = match sim {
            SimOutcome::Fleet(f) => {
                let mut s = Self::of_replicas(&f.replicas);
                s.submitted = f.submitted;
                s.sim_seconds = f.makespan as f64 / 1e9;
                s
            }
            SimOutcome::Orch(o, submitted) => {
                let mut s = Self::of_replicas(&o.fleet.replicas);
                s.submitted = *submitted;
                s.sim_seconds = o.fleet.makespan as f64 / 1e9;
                s.shed = o.shed;
                s.deferred = o.deferred;
                s.warmups = o.warmups;
                s.peak_replicas = o.peak_replicas as u64;
                s.dispatched = o.fleet.submitted;
                // Tenant figures include the admission delay of deferred
                // requests, and grade each tenant against its own limits.
                s.ttfts = o.tenants.iter().flat_map(|t| t.ttfts.clone()).collect();
                s.tpots = o.tenants.iter().flat_map(|t| t.tpots.clone()).collect();
                s.slo_met = o.tenants.iter().map(|t| t.slo_attained).sum();
                s
            }
            SimOutcome::Sweep(outs) => {
                let mut s = Self::of_replicas(outs);
                s.sim_seconds = outs.iter().map(|o| o.total_cycles as f64 / 1e9).sum();
                s
            }
        };
        s.ttfts.sort_unstable();
        s.tpots.sort_by(f64::total_cmp);
        s
    }

    fn of_replicas(outs: &[ServingOutcome]) -> Self {
        let decoded: u64 = outs
            .iter()
            .flat_map(|o| &o.iteration_stats)
            .map(|i| i.decode_requests as u64)
            .sum();
        let prefill: Cycle = outs.iter().map(|o| o.prefill_cycles_on_device).sum();
        let hidden: Cycle = outs.iter().map(|o| o.overlap_hidden_cycles).sum();
        let iterations: u64 = outs.iter().map(|o| o.iterations).sum();
        Self {
            submitted: outs.iter().map(|o| o.submitted).sum(),
            completed: outs.iter().map(|o| o.completed).sum(),
            dropped: outs.iter().map(|o| o.dropped).sum(),
            shed: 0,
            deferred: 0,
            tokens: outs.iter().map(|o| o.tokens).sum(),
            sim_seconds: 0.0,
            ttfts: outs.iter().flat_map(|o| o.ttfts.clone()).collect(),
            tpots: outs.iter().flat_map(|o| o.tpots.clone()).collect(),
            slo_met: outs.iter().map(|o| o.slo_attained).sum(),
            iterations,
            preemptions: outs.iter().map(|o| o.preemptions).sum(),
            peak_kv: outs
                .iter()
                .map(|o| o.peak_kv_utilization)
                .fold(0.0, f64::max),
            mean_decode_batch: ratio(decoded as f64, iterations as f64),
            overlap_efficiency: ratio(hidden as f64, prefill as f64),
            warmups: 0,
            peak_replicas: 0,
            dispatched: 0,
        }
    }

    /// Checks request conservation: every submitted request completed,
    /// was dropped by a replica, or was shed by admission.
    ///
    /// # Errors
    ///
    /// Describes the imbalance.
    pub fn check_conservation(&self) -> Result<(), String> {
        let accounted = self.completed + self.dropped + self.shed;
        if accounted != self.submitted || self.ttfts.len() as u64 != self.completed {
            return Err(format!(
                "conservation broken: submitted {} != completed {} + dropped {} + shed {} \
                 ({} TTFT samples)",
                self.submitted,
                self.completed,
                self.dropped,
                self.shed,
                self.ttfts.len()
            ));
        }
        Ok(())
    }

    /// Generated tokens per simulated second.
    pub fn tokens_per_s(&self) -> f64 {
        ratio(self.tokens as f64, self.sim_seconds)
    }

    /// TTFT at percentile `p`, simulated milliseconds.
    pub fn ttft_ms(&self, p: f64) -> f64 {
        nearest_rank(&self.ttfts, p) as f64 / 1e6
    }

    /// TPOT at percentile `p`, simulated milliseconds.
    pub fn tpot_ms(&self, p: f64) -> f64 {
        nearest_rank(&self.tpots, p) / 1e6
    }

    /// Share of submitted requests meeting the latency limits; shed and
    /// dropped requests count as misses.
    pub fn slo_attainment(&self) -> f64 {
        ratio(self.slo_met as f64, self.submitted as f64)
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
