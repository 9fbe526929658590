//! Timing wrappers over the simulator's public policy and pricing traits.
//!
//! Each wrapper forwards every trait method to the value it wraps and
//! opens a [`spans`](crate::spans) span around the calls that do a
//! layer's work. Forwarding is exact, so a wrapped run produces the same
//! simulated results as an unwrapped one (the parity tests pin it); with
//! recording off the wrappers add only a thread-local flag check.

use neupims_core::backend::{
    Backend, BackendCaps, BackendError, CapabilityProfile, IterationResult,
};
use neupims_core::fleet::{DispatchPolicy, FleetRequest, ReplicaSnapshot};
use neupims_core::orchestrator::{
    AutoscaleObservation, AutoscalePolicy, RouteCandidate, RoutePolicy, TenantClass,
};
use neupims_core::scheduler::{IterationDemand, IterationPlan, PrefillCharge, SchedulerPolicy};
use neupims_kvcache::KvGeometry;
use neupims_sched::{CostModelKind, MhaCostModel, MhaLatencyEstimator, TraceMemo, TraceSnapshot};
use neupims_types::config::InterconnectConfig;
use neupims_types::{Cycle, LlmConfig, MemConfig};

use crate::spans::{timed, Span};

/// Times a backend's decode and prefill pricing, and hands out timed cost
/// models.
#[derive(Debug, Clone)]
pub struct TimedBackend<B>(pub B);

impl<B: Backend> Backend for TimedBackend<B> {
    fn label(&self) -> &str {
        self.0.label()
    }

    fn caps(&self) -> BackendCaps {
        self.0.caps()
    }

    fn capability_profile(&self) -> CapabilityProfile {
        self.0.capability_profile()
    }

    fn peak_compute(&self) -> f64 {
        self.0.peak_compute()
    }

    fn mem_config(&self) -> MemConfig {
        self.0.mem_config()
    }

    fn interconnect(&self) -> InterconnectConfig {
        self.0.interconnect()
    }

    #[allow(deprecated)]
    fn mha_estimator(&self, model: &LlmConfig, tp: u32) -> Option<MhaLatencyEstimator> {
        self.0.mha_estimator(model, tp)
    }

    fn preferred_cost_model(&self) -> CostModelKind {
        self.0.preferred_cost_model()
    }

    fn mha_cost_model(
        &self,
        model: &LlmConfig,
        tp: u32,
        kind: CostModelKind,
    ) -> Option<Box<dyn MhaCostModel>> {
        self.0
            .mha_cost_model(model, tp, kind)
            .map(|m| Box::new(TimedCostModel(m)) as Box<dyn MhaCostModel>)
    }

    fn attach_trace_memo(&mut self, memo: &TraceMemo) -> bool {
        self.0.attach_trace_memo(memo)
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        timed(Span::BackendPrefill, prompt_lens.len() as u64, || {
            self.0.prefill_cycles(model, tp, layers, prompt_lens)
        })
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        timed(Span::BackendDecode, seq_lens.len() as u64, || {
            self.0.decode_iteration(model, tp, layers, seq_lens)
        })
    }
}

/// Times the estimates a serving loop's MHA cost model serves.
#[derive(Debug)]
pub struct TimedCostModel(pub Box<dyn MhaCostModel>);

impl MhaCostModel for TimedCostModel {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn geometry(&self) -> &KvGeometry {
        self.0.geometry()
    }

    fn estimate(&self, seq_len: u64) -> f64 {
        timed(Span::CostEstimate, 1, || self.0.estimate(seq_len))
    }

    fn estimate_sum(&self, seq_lens: &[u64]) -> f64 {
        timed(Span::CostEstimate, seq_lens.len() as u64, || {
            self.0.estimate_sum(seq_lens)
        })
    }

    fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.0.trace_snapshot()
    }

    fn warm_replay(&self, spans: &[(u64, u64)], jobs: usize) -> u64 {
        self.0.warm_replay(spans, jobs)
    }

    fn clone_box(&self) -> Box<dyn MhaCostModel> {
        Box::new(TimedCostModel(self.0.clone_box()))
    }
}

/// Times an iteration-level scheduler's admission and planning.
#[derive(Debug)]
pub struct TimedScheduler(pub Box<dyn SchedulerPolicy>);

impl SchedulerPolicy for TimedScheduler {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn clone_box(&self) -> Box<dyn SchedulerPolicy> {
        Box::new(TimedScheduler(self.0.clone_box()))
    }

    fn admission_charge(
        &self,
        backend: &dyn Backend,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_len: u64,
    ) -> Result<PrefillCharge, BackendError> {
        timed(Span::SchedAdmission, 1, || {
            self.0
                .admission_charge(backend, model, tp, layers, prompt_len)
        })
    }

    fn plan(
        &mut self,
        backend: &dyn Backend,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        demand: &IterationDemand<'_>,
    ) -> Result<IterationPlan, BackendError> {
        timed(Span::SchedPlan, 1, || {
            self.0.plan(backend, model, tp, layers, demand)
        })
    }
}

/// Times a fleet dispatch policy.
pub struct TimedDispatch(pub Box<dyn DispatchPolicy>);

impl DispatchPolicy for TimedDispatch {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn choose(&mut self, snapshots: &[ReplicaSnapshot], req: &FleetRequest) -> usize {
        timed(Span::FleetChoose, 1, || self.0.choose(snapshots, req))
    }
}

/// Times an orchestrator route policy.
pub struct TimedRoute(pub Box<dyn RoutePolicy>);

impl RoutePolicy for TimedRoute {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn route(
        &mut self,
        candidates: &[RouteCandidate],
        req: &FleetRequest,
        tenant: &TenantClass,
    ) -> usize {
        timed(Span::OrchRoute, 1, || self.0.route(candidates, req, tenant))
    }
}

/// Times an orchestrator autoscale policy.
pub struct TimedAutoscale(pub Box<dyn AutoscalePolicy>);

impl AutoscalePolicy for TimedAutoscale {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn desired(&mut self, obs: &AutoscaleObservation) -> usize {
        timed(Span::OrchAutoscale, 1, || self.0.desired(obs))
    }
}
