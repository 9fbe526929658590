//! The system under test, and the one place it is built.
//!
//! A [`SystemSpec`] is filled either from a scenario's system keys
//! (`scenarios/*.toml`, parsed by [`crate::spec`]) or from the
//! `neupims-sim` CLI flags. Both front ends then build the backends,
//! serving replicas, fleets, throughput simulations and orchestrators
//! through the methods here, so an eval scenario and a CLI command with
//! the same settings price the same deployment.

use neupims_core::backend::Backend;
use neupims_core::experiments::ExperimentContext;
use neupims_core::fleet::{policy_from_name, FleetSim};
use neupims_core::interconnect::interconnect_from_name;
use neupims_core::orchestrator::{
    autoscale_from_name, router_from_name, Orchestrator, OrchestratorConfig, TenantClass,
};
use neupims_core::preempt::{preemption_from_name, SwapConfig};
use neupims_core::scheduler::scheduler_from_name;
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
use neupims_core::sharding::{ClusterSpec, ShardedBackend};
use neupims_core::simulation::SimulationBuilder;
use neupims_sched::{CostModelKind, TraceMemo};
use neupims_types::LlmConfig;

/// One serving replica: a serving loop over a (possibly sharded) backend.
type Replica = ServingSim<Box<dyn Backend>>;

/// What building a system can fail with: the simulator's own error for an
/// unknown name or an invalid deployment, message unchanged.
type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// The system under test: hardware, model, serving policies and
/// deployment shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Backend name(s); comma-separated lists cycle over fleet replicas.
    pub backend: String,
    /// Scheduler name(s); comma-separated lists cycle over replicas.
    pub scheduler: String,
    /// Per-iteration prefill token budget of chunked schedulers.
    pub chunk_tokens: u32,
    /// Preemption policy name.
    pub preemption: String,
    /// MHA cost model.
    pub cost_model: CostModelKind,
    /// Serving replicas behind the dispatcher.
    pub replicas: usize,
    /// Fleet dispatch policy name.
    pub dispatch: String,
    /// Max decode batch per replica.
    pub max_batch: usize,
    /// Model under test.
    pub model: LlmConfig,
    /// Swap-link bandwidth (GB/s) for the swap preemption policy.
    pub swap_gbps: f64,
    /// SLO TTFT target, milliseconds.
    pub slo_ttft_ms: f64,
    /// SLO TPOT target, milliseconds.
    pub slo_tpot_ms: f64,
    /// Memory-channel count override (tight-KV pressure scenarios).
    pub channels: Option<u32>,
    /// Per-channel KV capacity override, MiB.
    pub kv_mib_per_channel: Option<u64>,
    /// Multi-chip tensor-parallel degree: wraps the backend in a
    /// sharded deployment when set (alone or with `pp`).
    pub tp: Option<u32>,
    /// Multi-chip pipeline-parallel degree.
    pub pp: Option<u32>,
    /// Interconnect fabric pricing the sharded collectives
    /// (`pcie` | `unified` | `noc` | `ideal`).
    pub interconnect: String,
    /// Per-link bandwidth override for the fabric, GB/s.
    pub link_gbps: Option<f64>,
    /// Autoscale policy name (`static` | `reactive` | `predictive`):
    /// routes the run through the meta-orchestrator instead of a bare
    /// fleet when set (alone or with `router`/`min-replicas`).
    pub autoscale: Option<String>,
    /// Route policy name (`load` | `round-robin` | `capability`).
    pub router: Option<String>,
    /// Autoscale floor: slots kept committed even when idle. Defaults to
    /// `replicas` under static scale and 1 otherwise.
    pub min_replicas: Option<usize>,
}

impl Default for SystemSpec {
    /// One unsharded analytic-priced NeuPIMs replica serving GPT3-7B:
    /// lump scheduler, drop preemption, JSQ dispatch, a decode batch of
    /// 32, a 32 GB/s swap link and a 50 ms TTFT / 10 ms TPOT SLO.
    fn default() -> Self {
        SystemSpec {
            backend: "neupims".into(),
            scheduler: "lump".into(),
            chunk_tokens: 256,
            preemption: "drop".into(),
            cost_model: CostModelKind::Analytic,
            replicas: 1,
            dispatch: "jsq".into(),
            max_batch: 32,
            model: LlmConfig::gpt3_7b(),
            swap_gbps: 32.0,
            slo_ttft_ms: 50.0,
            slo_tpot_ms: 10.0,
            channels: None,
            kv_mib_per_channel: None,
            tp: None,
            pp: None,
            interconnect: "pcie".into(),
            link_gbps: None,
            autoscale: None,
            router: None,
            min_replicas: None,
        }
    }
}

impl SystemSpec {
    /// The multi-chip deployment `tp`/`pp` ask for, if either is set.
    pub fn cluster(&self) -> Option<ClusterSpec> {
        (self.tp.is_some() || self.pp.is_some())
            .then(|| ClusterSpec::new(self.tp.unwrap_or(1), self.pp.unwrap_or(1)))
    }

    /// True when `autoscale`/`router`/`min-replicas` ask for the
    /// meta-orchestrator above the fleet.
    pub fn orchestration_requested(&self) -> bool {
        self.autoscale.is_some() || self.router.is_some() || self.min_replicas.is_some()
    }

    /// The TTFT/TPOT targets in cycles.
    pub fn slo(&self) -> SloTargets {
        SloTargets {
            ttft: (self.slo_ttft_ms * 1e6) as u64,
            tpot: self.slo_tpot_ms * 1e6,
        }
    }

    /// The backend `name` priced by this system's cost model, wrapped in
    /// a [`ShardedBackend`] over the `interconnect` fabric when
    /// [`Self::cluster`] asks for a multi-chip deployment.
    fn backend(&self, ctx: &ExperimentContext, name: &str) -> Result<Box<dyn Backend>> {
        let backend = ctx.backend_with_cost(name, self.cost_model)?;
        let Some(cluster) = self.cluster() else {
            return Ok(backend);
        };
        let fabric = interconnect_from_name(&self.interconnect, self.link_gbps)?;
        Ok(Box::new(ShardedBackend::new(backend, cluster, fabric)?))
    }

    /// Device-internal TP degree and resident layers of each replica. A
    /// sharded replica is its own chip group: the wrapper supplies the
    /// parallelism, so underneath it runs the full layer stack at TP 1.
    fn tp_and_layers(&self) -> (u32, u32) {
        let m = &self.model;
        match self.cluster() {
            Some(_) => (1, m.num_layers),
            None => (m.parallelism.tp, m.num_layers / m.parallelism.pp),
        }
    }

    /// One replica over the named backend and scheduler, with this
    /// system's cost model, preemption policy and swap link, pricing
    /// through `memo` when one is given.
    ///
    /// # Errors
    ///
    /// Returns the simulator's error for an unknown backend, scheduler,
    /// preemption or fabric name, or a deployment the backend cannot
    /// shard.
    pub fn replica(
        &self,
        ctx: &ExperimentContext,
        backend: &str,
        scheduler: &str,
        memo: Option<&TraceMemo>,
    ) -> Result<Replica> {
        let backend = self.backend(ctx, backend)?;
        let scheduler = scheduler_from_name(scheduler, self.chunk_tokens)?;
        let (tp, layers) = self.tp_and_layers();
        let cfg = ServingConfig {
            max_batch: self.max_batch,
            tp,
            layers,
            target_completions: 0,
            slo: Some(self.slo()),
        };
        let replica = ServingSim::with_scheduler(backend, self.model.clone(), cfg, scheduler)
            .with_cost_model(self.cost_model)
            .with_preemption(preemption_from_name(&self.preemption)?)
            .with_swap(SwapConfig {
                gb_per_sec: self.swap_gbps,
            });
        Ok(match memo {
            Some(memo) => replica.with_trace_memo(memo),
            None => replica,
        })
    }

    /// The `replicas` serving replicas. Comma-separated backend and
    /// scheduler names cycle over them, so `neupims,gpu` with
    /// `interleaved,lump` over four replicas builds a heterogeneous
    /// fleet with per-replica schedulers.
    ///
    /// # Errors
    ///
    /// See [`Self::replica`].
    pub fn replicas(
        &self,
        ctx: &ExperimentContext,
        memo: Option<&TraceMemo>,
    ) -> Result<Vec<Replica>> {
        let backends: Vec<&str> = self.backend.split(',').map(str::trim).collect();
        let schedulers: Vec<&str> = self.scheduler.split(',').map(str::trim).collect();
        (0..self.replicas)
            .map(|i| {
                let backend = backends[i % backends.len()];
                self.replica(ctx, backend, schedulers[i % schedulers.len()], memo)
            })
            .collect()
    }

    /// A fleet over `replicas` behind the `dispatch` policy, advancing up
    /// to `jobs` replica streams in parallel (the machine default when
    /// `None`).
    ///
    /// # Errors
    ///
    /// Returns the simulator's error for an unknown policy or an invalid
    /// replica table.
    pub fn fleet(
        &self,
        replicas: Vec<Replica>,
        jobs: Option<usize>,
    ) -> Result<FleetSim<Box<dyn Backend>>> {
        let policy = policy_from_name(&self.dispatch)?;
        let fleet = FleetSim::new(replicas, policy)?;
        Ok(match jobs {
            Some(jobs) => fleet.with_jobs(jobs),
            None => fleet,
        })
    }

    /// A warm-batch throughput simulation of the `backend` (a single
    /// name) over the model, pricing through `memo` when one is given.
    /// Callers set the dataset and batch, and may override the
    /// context's seed and sample count, before building it.
    ///
    /// # Errors
    ///
    /// Returns the simulator's error for an unknown backend or fabric
    /// name, or a deployment the backend cannot shard.
    pub fn simulation(
        &self,
        ctx: &ExperimentContext,
        memo: Option<&TraceMemo>,
    ) -> Result<SimulationBuilder<Box<dyn Backend>>> {
        let (tp, layers) = self.tp_and_layers();
        let builder = ctx
            .simulation()
            .model(self.model.clone())
            .backend(self.backend(ctx, &self.backend)?)
            .tp(tp)
            .layers(layers);
        Ok(match memo {
            Some(memo) => builder.trace_memo(memo.clone()),
            None => builder,
        })
    }

    /// The meta-orchestrator over `slots` (the scaling ceiling) serving
    /// `tenants`, with the `router` and `autoscale` policies (`load` and
    /// `static` when unset). Static scale holds every slot on; the
    /// dynamic scalers may park down to one. `min-replicas` overrides
    /// that floor.
    ///
    /// # Errors
    ///
    /// Returns the simulator's error for an unknown policy name or an
    /// invalid slot or tenant table.
    pub fn orchestrator(
        &self,
        slots: Vec<Replica>,
        tenants: Vec<TenantClass>,
        jobs: Option<usize>,
    ) -> Result<Orchestrator<Box<dyn Backend>>> {
        let autoscale = self.autoscale.as_deref().unwrap_or("static");
        let router = self.router.as_deref().unwrap_or("load");
        let floor = if autoscale.eq_ignore_ascii_case("static") {
            self.replicas
        } else {
            1
        };
        let mut cfg = OrchestratorConfig::default_for(self.replicas);
        cfg.min_replicas = self.min_replicas.unwrap_or(floor).clamp(1, self.replicas);
        let orch = Orchestrator::new(
            slots,
            tenants,
            router_from_name(router)?,
            autoscale_from_name(autoscale)?,
            cfg,
        )?;
        Ok(match jobs {
            Some(jobs) => orch.with_jobs(jobs),
            None => orch,
        })
    }
}
