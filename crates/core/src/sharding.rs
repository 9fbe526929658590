//! Multi-chip deployment of any backend: tensor and pipeline parallelism
//! (Section 7, Figure 14), with collectives priced by a pluggable
//! [`Interconnect`].
//!
//! [`ShardedBackend`] wraps any [`Backend`] and deploys it as a
//! `(TP, PP)` [`ClusterSpec`]:
//!
//! * **Tensor parallelism** — attention heads and FFN columns split
//!   across the TP group; every chip keeps the full batch. The wrapped
//!   backend prices the per-chip compute at the composed degree (the
//!   caller's chip-internal `tp` times `spec.tp`). When the spec adds TP
//!   of its own, the two per-layer all-reduces are lifted out of the
//!   inner breakdown (`allreduce_cycles`) and re-priced on the
//!   configured fabric, so swapping `--interconnect` changes exactly the
//!   collective term and nothing else.
//! * **Pipeline parallelism** — layers split into `pp` stages and the
//!   batch into `pp` micro-batches. In steady state one micro-batch
//!   completes per beat, so system throughput is `(B / pp) / beat`, with
//!   the beat set by the slowest stage and the inter-stage activation
//!   hop.
//!
//! The paper's conclusion — prefer TP until memory forces PP — emerges
//! because PP shrinks the per-device batch (hurting systolic efficiency
//! and dividing the tokens per beat) while TP shrinks per-device work.
//!
//! TP can be priced two ways. *Chip-internal* TP deploys
//! `ClusterSpec::new(1, pp)` and passes the degree as the caller's `tp`:
//! the inner backend prices its collectives on its own board link. This
//! is how [`fig14_parallelism`](crate::experiments::fig14_parallelism)
//! prices Figure 14. *Wrapper* TP deploys `ClusterSpec::new(tp, pp)`
//! with a caller `tp` of 1, re-pricing the collectives on the fabric;
//! the CLI's `--tp/--pp` flags and the `scaling` eval suite use it. On
//! an ideal fabric, and on the serial device modes over the board link,
//! the two agree bit for bit (`tests/parity_sharding.rs`).

use neupims_types::{Cycle, LlmConfig, SimError};

use crate::backend::{Backend, BackendCaps, BackendError, IterationResult};
use crate::interconnect::{Interconnect, ALLREDUCES_PER_LAYER};

/// A (TP, PP) deployment of one model across `tp * pp` devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Pipeline-parallel degree.
    pub pp: u32,
}

impl ClusterSpec {
    /// Creates a spec.
    pub const fn new(tp: u32, pp: u32) -> Self {
        Self { tp, pp }
    }

    /// Devices required.
    pub const fn devices(&self) -> u32 {
        self.tp * self.pp
    }
}

/// The priced anatomy of one sharded decode beat — what
/// [`ShardedBackend::decode_detail`] reports and the scaling analyses
/// plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedIteration {
    /// Per-stage cycles with the inner backend's own collective pricing
    /// removed.
    pub stage_compute_cycles: Cycle,
    /// Tensor-parallel collective cycles per stage: two all-reduces per
    /// resident layer re-priced on the configured fabric, or the inner
    /// backend's own term when the spec adds no TP.
    pub collective_cycles: Cycle,
    /// Inter-stage activation transfer per beat (zero when `pp == 1`).
    pub pp_transfer_cycles: Cycle,
    /// The pipeline beat: `max(stage compute + collectives, transfer)`.
    pub beat: Cycle,
    /// Fill/drain bubble of one pipeline round: `(pp - 1) * beat`.
    pub bubble_cycles: Cycle,
    /// Tokens the full batch produces per pipeline round.
    pub tokens: u64,
}

/// Any [`Backend`] deployed across `tp * pp` chips joined by a priced
/// [`Interconnect`].
///
/// The wrapper composes with the caller's own `tp` argument (the inner
/// device-level TP times the sharding-layer TP), divides the resident
/// layers into `pp` stages, and exposes the resulting steady-state
/// pipeline round as one [`IterationResult`] — so everything generic
/// over `Backend` ([`Simulation`](crate::simulation::Simulation),
/// [`ServingSim`](crate::serving::ServingSim),
/// [`FleetSim`](crate::fleet::FleetSim)) runs sharded unchanged.
#[derive(Debug)]
pub struct ShardedBackend<B> {
    inner: B,
    spec: ClusterSpec,
    interconnect: Box<dyn Interconnect>,
    label: String,
}

impl<B: Clone> Clone for ShardedBackend<B> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            spec: self.spec,
            interconnect: self.interconnect.clone(),
            label: self.label.clone(),
        }
    }
}

impl<B: Backend> ShardedBackend<B> {
    /// Deploys `inner` as `spec` over `interconnect`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero parallel degrees and
    /// for degrees whose product overflows the device count.
    pub fn new(
        inner: B,
        spec: ClusterSpec,
        interconnect: Box<dyn Interconnect>,
    ) -> Result<Self, SimError> {
        if spec.tp == 0 || spec.pp == 0 {
            return Err(SimError::InvalidConfig("zero parallel degree".into()));
        }
        if spec.tp.checked_mul(spec.pp).is_none() {
            return Err(SimError::InvalidConfig(format!(
                "TP={} x PP={} overflows the device count",
                spec.tp, spec.pp
            )));
        }
        let label = format!(
            "{} x{} (tp{} pp{}, {})",
            inner.label(),
            spec.devices(),
            spec.tp,
            spec.pp,
            interconnect.name()
        );
        Ok(Self {
            inner,
            spec,
            interconnect,
            label,
        })
    }

    /// The wrapped single-chip backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The deployment shape.
    pub fn spec(&self) -> ClusterSpec {
        self.spec
    }

    /// The fabric pricing the collectives.
    pub fn fabric(&self) -> &dyn Interconnect {
        &*self.interconnect
    }

    /// Validates a caller's `(tp, layers)` view against this deployment
    /// and returns the inner backend's view: the composed TP degree
    /// (`tp * spec.tp`) and the layers resident on one stage.
    fn stage_shape(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
    ) -> Result<(u32, u32), BackendError> {
        let pp = self.spec.pp;
        let invalid = |msg: String| BackendError::sim(&self.label, SimError::InvalidConfig(msg));
        if layers == 0 || !layers.is_multiple_of(pp) {
            return Err(invalid(format!("{layers} layers not divisible by PP={pp}")));
        }
        let inner_tp = tp.max(1).saturating_mul(self.spec.tp);
        if inner_tp > model.num_heads {
            return Err(invalid(format!(
                "TP={inner_tp} exceeds {} attention heads",
                model.num_heads
            )));
        }
        Ok((inner_tp, layers / pp))
    }

    /// Prices one sharded decode beat in full detail: per-stage compute,
    /// re-priced collectives, the inter-stage hop, and the bubble.
    ///
    /// `tp` and `layers` are the *caller's* view (device-internal TP and
    /// total resident layers); the sharding spec composes on top.
    ///
    /// # Errors
    ///
    /// Rejects empty batches, layer counts not divisible by `pp` and a
    /// composed TP above the model's head count; propagates inner backend
    /// errors.
    pub fn decode_detail(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<(ShardedIteration, IterationResult), BackendError> {
        let (inner_tp, layers_per_stage) = self.stage_shape(model, tp, layers)?;
        if seq_lens.is_empty() {
            return Err(BackendError::sim(
                &self.label,
                SimError::InvalidShape("empty batch".into()),
            ));
        }
        let pp = self.spec.pp;
        let micro = seq_lens.len().div_ceil(pp as usize).max(1);
        let mb = &seq_lens[..micro.min(seq_lens.len())];
        let inner = self
            .inner
            .decode_iteration(model, inner_tp, layers_per_stage, mb)?;

        // Lift the inner backend's own collective pricing out and re-price
        // the two per-layer all-reduces on this deployment's fabric. When
        // the sharding layer adds no TP of its own (spec.tp == 1) the
        // inner pricing stands untouched.
        let es = model.dtype.size_bytes();
        let msg_bytes = mb.len() as u64 * model.d_model as u64 * es;
        let inner_allreduce = inner.breakdown.allreduce_cycles.min(inner.total_cycles());
        let stage_compute = inner.total_cycles() - inner_allreduce;
        let collectives = if self.spec.tp > 1 {
            self.interconnect.all_reduce_cycles(msg_bytes, inner_tp)
                * ALLREDUCES_PER_LAYER
                * layers_per_stage as u64
        } else {
            inner_allreduce
        };

        // Inter-stage activation hop: the micro-batch's hidden states,
        // already sharded 1/tp by the column split.
        let act_bytes = mb.len() as u64 * model.d_model as u64 * es / inner_tp as u64;
        let pp_transfer = if pp > 1 {
            self.interconnect.point_to_point_cycles(act_bytes)
        } else {
            0
        };

        let beat = (stage_compute + collectives).max(pp_transfer).max(1);
        let det = ShardedIteration {
            stage_compute_cycles: stage_compute,
            collective_cycles: collectives,
            pp_transfer_cycles: pp_transfer,
            beat,
            bubble_cycles: (pp as u64 - 1) * beat,
            tokens: seq_lens.len() as u64,
        };
        Ok((det, inner))
    }

    /// System tokens-per-second of this deployment on one warm batch:
    /// `seq_lens.len() / pp` tokens per pipeline beat. `tp` is the
    /// caller's chip-internal degree, as in [`Self::decode_detail`].
    ///
    /// # Errors
    ///
    /// Rejects request counts below `pp`; propagates
    /// [`Self::decode_detail`] errors.
    pub fn cluster_tokens_per_sec(
        &self,
        model: &LlmConfig,
        tp: u32,
        seq_lens: &[u64],
    ) -> Result<f64, SimError> {
        if seq_lens.len() < self.spec.pp as usize {
            return Err(SimError::InvalidConfig(format!(
                "{} requests cannot fill PP={} micro-batches",
                seq_lens.len(),
                self.spec.pp
            )));
        }
        let (det, _) = self
            .decode_detail(model, tp, model.num_layers, seq_lens)
            .map_err(SimError::from)?;
        let beat_secs = neupims_types::units::cycles_to_secs(det.beat);
        Ok(seq_lens.len() as f64 / self.spec.pp as f64 / beat_secs)
    }
}

impl<B: Backend> Backend for ShardedBackend<B> {
    fn label(&self) -> &str {
        &self.label
    }

    fn caps(&self) -> BackendCaps {
        self.inner.caps()
    }

    fn peak_compute(&self) -> f64 {
        // Aggregate peak of the whole deployment.
        self.inner.peak_compute() * self.spec.devices() as f64
    }

    fn mem_config(&self) -> neupims_types::MemConfig {
        self.inner.mem_config()
    }

    fn interconnect(&self) -> neupims_types::config::InterconnectConfig {
        self.inner.interconnect()
    }

    fn preferred_cost_model(&self) -> neupims_sched::CostModelKind {
        self.inner.preferred_cost_model()
    }

    fn mha_cost_model(
        &self,
        model: &LlmConfig,
        tp: u32,
        kind: neupims_sched::CostModelKind,
    ) -> Option<Box<dyn neupims_sched::MhaCostModel>> {
        self.inner
            .mha_cost_model(model, tp.max(1).saturating_mul(self.spec.tp), kind)
    }

    fn attach_trace_memo(&mut self, memo: &neupims_sched::TraceMemo) -> bool {
        self.inner.attach_trace_memo(memo)
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        let (inner_tp, layers_per_stage) = self.stage_shape(model, tp, layers)?;
        let pp = self.spec.pp;
        let stage = self
            .inner
            .prefill_cycles(model, inner_tp, layers_per_stage, prompt_lens)?;
        // Prefill is a single pass: the prompt activations walk every
        // stage in sequence, paying one inter-stage hop per boundary.
        // (The inner backend's own collective pricing stands — prefill
        // exposes no collective term to lift.)
        let tokens: u64 = prompt_lens.iter().sum();
        let act_bytes = tokens * model.d_model as u64 * model.dtype.size_bytes() / inner_tp as u64;
        let hops = (pp as u64 - 1) * self.interconnect.point_to_point_cycles(act_bytes);
        Ok(stage * pp as u64 + hops)
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        let (det, inner) = self.decode_detail(model, tp, layers, seq_lens)?;
        // One steady-state pipeline round: every stage advances `pp`
        // beats, delivering the full batch's tokens. Resource counters
        // stay the per-chip, per-stage-visit view of the inner backend;
        // the makespan and the collective term are the sharded ones.
        let mut b = inner.into_breakdown();
        b.total_cycles = det.beat * self.spec.pp as u64;
        b.allreduce_cycles = det.collective_cycles;
        b.tokens = det.tokens;
        Ok(IterationResult::new(&self.label, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{GpuRooflineBackend, TransPimBackend};
    use crate::device::{Device, DeviceMode};
    use crate::interconnect::{IdealLink, NocLink, PcieLink, UnifiedMemoryLink};
    use crate::testsupport::table2_device;

    fn backend() -> Device {
        table2_device(DeviceMode::neupims())
    }

    /// Chip-internal TP on the backend's own board link: the form that
    /// prices Figure 14.
    fn chip_tp<B: Backend>(b: &B, model: &LlmConfig, tp: u32, pp: u32, seqs: &[u64]) -> f64 {
        let link = Box::new(PcieLink::from_config(b.interconnect()));
        ShardedBackend::new(b, ClusterSpec::new(1, pp), link)
            .unwrap()
            .cluster_tokens_per_sec(model, tp, seqs)
            .unwrap()
    }

    #[test]
    fn ideal_fabric_collapses_to_inner_pricing() {
        let b = backend();
        let model = LlmConfig::gpt3_7b();
        let sharded = ShardedBackend::new(&b, ClusterSpec::new(1, 1), Box::new(IdealLink)).unwrap();
        let inner = Backend::decode_iteration(&b, &model, 4, model.num_layers, &[300; 64]).unwrap();
        let outer = sharded
            .decode_iteration(&model, 4, model.num_layers, &[300; 64])
            .unwrap();
        assert_eq!(outer.total_cycles(), inner.total_cycles());
        assert_eq!(outer.tokens(), inner.tokens());
    }

    #[test]
    fn slower_fabrics_never_price_less() {
        let b = backend();
        let model = LlmConfig::gpt3_30b();
        let seqs = vec![300u64; 64];
        let spec = ClusterSpec::new(8, 1);
        let price = |ic: Box<dyn Interconnect>| {
            ShardedBackend::new(&b, spec, ic)
                .unwrap()
                .decode_iteration(&model, 1, model.num_layers, &seqs)
                .unwrap()
                .total_cycles()
        };
        let ideal = price(Box::new(IdealLink));
        let fast = price(Box::new(PcieLink::from_gbps(512.0)));
        let slow = price(Box::new(PcieLink::from_gbps(8.0)));
        assert!(ideal <= fast && fast <= slow, "{ideal} <= {fast} <= {slow}");
        // The other fabrics price something too.
        assert!(price(Box::<UnifiedMemoryLink>::default()) >= ideal);
        assert!(price(Box::<NocLink>::default()) >= ideal);
    }

    #[test]
    fn detail_accounts_every_term() {
        let b = backend();
        let model = LlmConfig::gpt3_30b();
        let sharded =
            ShardedBackend::new(&b, ClusterSpec::new(4, 2), Box::new(PcieLink::default())).unwrap();
        let (det, _) = sharded
            .decode_detail(&model, 1, model.num_layers, &[300; 64])
            .unwrap();
        assert!(det.collective_cycles > 0);
        assert!(det.pp_transfer_cycles > 0);
        assert_eq!(
            det.beat,
            (det.stage_compute_cycles + det.collective_cycles).max(det.pp_transfer_cycles)
        );
        assert_eq!(det.bubble_cycles, det.beat); // (pp-1) * beat with pp=2
        assert_eq!(det.tokens, 64);
    }

    #[test]
    fn invalid_deployments_are_rejected() {
        let b = backend();
        let model = LlmConfig::gpt3_7b(); // 32 layers
        let mk = |tp, pp| ShardedBackend::new(&b, ClusterSpec::new(tp, pp), Box::new(IdealLink));
        assert!(mk(0, 1).is_err());
        assert!(mk(1, 0).is_err());
        let s = mk(4, 5).unwrap();
        assert!(s
            .decode_iteration(&model, 1, model.num_layers, &[100; 16])
            .is_err());
        let s = mk(4, 2).unwrap();
        assert!(s.cluster_tokens_per_sec(&model, 1, &[100; 1]).is_err());
        assert!(s
            .decode_iteration(&model, 1, model.num_layers, &[])
            .is_err());
        assert!(
            mk(1, 32)
                .unwrap()
                .cluster_tokens_per_sec(&model, 4, &[100; 16])
                .is_err(),
            "16 requests cannot fill 32 micro-batches"
        );
    }

    #[test]
    fn tp_above_the_head_count_is_rejected() {
        // GPT3-7B has 32 heads: a composed TP of 32 is the ceiling,
        // whether the degree comes from the caller, the spec, or both.
        let b = backend();
        let model = LlmConfig::gpt3_7b();
        let seqs = [100u64; 8];
        let mk =
            |tp| ShardedBackend::new(&b, ClusterSpec::new(tp, 1), Box::new(IdealLink)).unwrap();
        for (spec_tp, tp) in [(64, 1), (1, 64), (8, 8)] {
            let s = mk(spec_tp);
            let decode = s.decode_detail(&model, tp, model.num_layers, &seqs);
            let prefill = s.prefill_cycles(&model, tp, model.num_layers, &[64]);
            for err in [decode.err(), prefill.err()] {
                let err = err.unwrap_or_else(|| panic!("tp{spec_tp} x {tp} accepted"));
                assert!(
                    matches!(
                        err,
                        BackendError::Sim {
                            source: SimError::InvalidConfig(_),
                            ..
                        }
                    ),
                    "tp{spec_tp} x {tp}: {err}"
                );
            }
        }
        assert!(mk(32)
            .decode_detail(&model, 1, model.num_layers, &seqs)
            .is_ok());
        assert!(mk(8)
            .prefill_cycles(&model, 4, model.num_layers, &[64])
            .is_ok());
    }

    #[test]
    fn per_device_efficiency_falls_with_scale() {
        // Figure 14's note: with the total request count fixed, growing the
        // cluster shrinks per-device batches and per-device throughput.
        let d = backend();
        let model = LlmConfig::gpt3_7b();
        let seqs = vec![376u64; 256];
        let t4 = chip_tp(&d, &model, 4, 1, &seqs);
        let t32 = chip_tp(&d, &model, 8, 4, &seqs);
        assert!(
            t4 / 4.0 > t32 / 32.0,
            "per-device: 4dev {:.0} vs 32dev {:.0}",
            t4 / 4.0,
            t32 / 32.0
        );
    }

    #[test]
    fn remainder_requests_are_not_ignored() {
        // Regression: `len / pp` used to truncate, so 17 requests at PP=2
        // were priced as 16 (one request vanished from tokens/s). Both 17
        // and 18 requests now share the same 9-request representative
        // micro-batch, so their throughputs must sit in the exact ratio of
        // their request counts.
        let d = backend();
        let model = LlmConfig::gpt3_7b();
        let t17 = chip_tp(&d, &model, 4, 2, &[300u64; 17]);
        let t18 = chip_tp(&d, &model, 4, 2, &[300u64; 18]);
        assert!(t17 > 0.0 && t18 > 0.0);
        assert!(
            (t17 / t18 - 17.0 / 18.0).abs() < 1e-9,
            "remainder request dropped: {t17} vs {t18}"
        );
    }

    #[test]
    fn device_math() {
        assert_eq!(ClusterSpec::new(8, 4).devices(), 32);
    }

    #[test]
    fn scaling_sweeps_run_on_every_backend() {
        // (TP, PP) deployments of the GPU roofline and TransPIM price
        // too, not just the NeuPIMs device.
        let model = LlmConfig::gpt3_7b();
        let seqs = vec![300u64; 64];
        let gpu = GpuRooflineBackend::a100();
        let trans = TransPimBackend::table2().unwrap();
        for (tp, pp) in [(4, 1), (4, 2)] {
            let g = chip_tp(&gpu, &model, tp, pp, &seqs);
            let t = chip_tp(&trans, &model, tp, pp, &seqs);
            assert!(g > 0.0 && t > 0.0, "(tp{tp},pp{pp})");
            assert!(g > t, "GPU must outserve TransPIM at (tp{tp},pp{pp})");
        }
    }

    #[test]
    fn serving_config_view_prices_small_batches() {
        // Serving calls decode with whatever batch is resident — below
        // `pp` the pipeline runs underfilled but must still price.
        let b = backend();
        let model = LlmConfig::gpt3_7b();
        let s =
            ShardedBackend::new(&b, ClusterSpec::new(2, 4), Box::new(PcieLink::default())).unwrap();
        let r = s
            .decode_iteration(&model, 1, model.num_layers, &[64; 2])
            .unwrap();
        assert!(r.total_cycles() > 0);
        assert_eq!(r.tokens(), 2);
    }

    #[test]
    fn label_names_the_deployment() {
        let b = backend();
        let s = ShardedBackend::new(&b, ClusterSpec::new(4, 2), Box::new(IdealLink)).unwrap();
        assert!(s.label().contains("tp4 pp2"), "{}", s.label());
        assert!(s.label().contains("NeuPIMs"), "{}", s.label());
        assert_eq!(s.spec().devices(), 8);
        assert_eq!(s.fabric().name(), "ideal");
    }

    #[test]
    fn overflowing_degrees_are_rejected() {
        let b = GpuRooflineBackend::a100();
        let sharded = ShardedBackend::new(&b, ClusterSpec::new(65536, 65536), Box::new(IdealLink));
        assert!(matches!(sharded, Err(SimError::InvalidConfig(_))));
    }
}
