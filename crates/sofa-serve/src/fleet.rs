//! Fleet-scale sharded serving: cross-node placement over `sofa-sim`'s
//! node/fabric hierarchy.
//!
//! [`ServeSim`](crate::ServeSim) schedules one node — `N` instances behind
//! one shared DRAM channel. [`FleetServeSim`] scales that out: requests are
//! routed across [`FleetConfig::nodes`] nodes (each a full
//! `MultiPipelineSim` with a private DRAM channel), reaching their node
//! through an inter-node [`Fabric`] whose per-node ingress links add
//! serialization and latency to every placement. Both simulators admit
//! through the crate's one router: least-booked placement, aging,
//! overbooking, the energy budget with its reroute and shed, client retry,
//! decay and feedback routing behave as in `ServeSim`, over every instance
//! of the fleet. This driver adds what only a fleet has: optional
//! **prefill/decode disaggregation** (prefills pin to one node pool,
//! decodes to the other, spilling over only when their pool has no
//! capacity at all), the fabric transfer of every admission, and a bounded
//! pick window ([`ADMIT_WINDOW`]).
//!
//! **Epoch-synchronized.** The router interacts with the simulation only at
//! multiples of [`FleetConfig::epoch_cycles`]: each epoch, every node's
//! event stream advances independently (in parallel via `sofa-par` — nodes
//! share nothing between boundaries), then, in the serial boundary step,
//! completions release their bookings and feed the feedback EWMAs, arrivals
//! are ingested, and admission runs at the boundary cycle. Queueing delays
//! are therefore quantized to the epoch; the boundary is computed from the
//! next pending activity, so idle stretches are skipped in one step.
//!
//! **Fleet-scale accounting.** A million-request trace cannot keep a
//! per-request record vector; [`FleetReport`] aggregates latency and
//! queueing delay into streaming [`QuantileSketch`]es (exact below 256
//! cycles, ≤1/128 relative error above) the moment each completion
//! surfaces. Lowering is shape-memoized: distinct request shapes are
//! lowered once (in parallel) and shared across every request of that
//! shape.
//!
//! Determinism contract: the report (and, when traced, the Perfetto
//! artifact: per-node pid windows absorbed in node order, router/fabric
//! counters stamped at boundary cycles) is byte-identical at any
//! `SOFA_THREADS` and across repeated runs.

use crate::report::ServeReport;
use crate::router::{Ingest, Router};
use crate::scheduler::{OpRouter, ServeConfig};
use sofa_core::cache::CacheStats;
use sofa_model::trace::{RequestClass, RequestTrace};
use sofa_obs::{MetricsRegistry, QuantileSketch, TraceRecorder};
use sofa_sim::tracks::{PID_FABRIC, PID_FLEET_ROUTER};
use sofa_sim::{Fabric, FabricParams, FabricReport, FleetSim, MultiReport};
use std::ops::Range;
use std::sync::Arc;

/// How many waiting requests (oldest first) each fleet pick scans: bounds
/// the per-admission cost on deep backlogs, while aging still protects the
/// oldest request inside the window.
pub const ADMIT_WINDOW: usize = 64;

/// Configuration of a sharded serving fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Per-node serving parameters; [`ServeConfig::instances`] is the
    /// instance count *per node*. The admission knobs (budget, overbooking,
    /// energy budget, retry, decay) and the
    /// [`OpRouter::Feedback`] loop apply fleet-wide.
    pub serve: ServeConfig,
    /// Number of nodes, each with [`ServeConfig::instances`] instances and
    /// a private DRAM channel.
    pub nodes: usize,
    /// Inter-node fabric model every placement pays to reach its node.
    pub fabric: FabricParams,
    /// Synchronization granularity: the router admits and collects
    /// completions only at multiples of this cycle count. Larger epochs
    /// amortize cross-node synchronization (and parallel-stepping overhead)
    /// at the cost of coarser admission timing.
    pub epoch_cycles: u64,
    /// Split the fleet into a prefill node pool of half the nodes (rounded
    /// up) and a decode node pool of the rest (each class spills to the
    /// other pool only when its own has no capacity). Requires at least two
    /// nodes.
    pub disaggregate: bool,
}

impl FleetConfig {
    /// A fleet of `nodes` × `instances_per_node` instances of `hw` with the
    /// single-node serving defaults, the default fabric, a 64Ki-cycle
    /// epoch and no disaggregation.
    pub fn new(hw: sofa_hw::config::HwConfig, nodes: usize, instances_per_node: usize) -> Self {
        FleetConfig {
            serve: ServeConfig::new(hw, instances_per_node),
            nodes,
            fabric: FabricParams::default(),
            epoch_cycles: 1 << 16,
            disaggregate: false,
        }
    }

    /// Number of nodes in the prefill pool: half the fleet, rounded up, so
    /// both pools are non-empty from two nodes on. 0 when not
    /// disaggregating, and 0 for the fewer-than-two-node configs
    /// [`FleetConfig::validate`] rejects (this method stays total for
    /// configs inspected before validation).
    pub fn prefill_nodes(&self) -> usize {
        if !self.disaggregate || self.nodes < 2 {
            return 0;
        }
        self.nodes.div_ceil(2)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        self.serve.validate()?;
        if self.nodes == 0 {
            return Err("nodes must be positive".into());
        }
        if self.fabric.bytes_per_cycle == 0 {
            return Err("fabric bytes_per_cycle must be positive".into());
        }
        if self.epoch_cycles == 0 {
            return Err("epoch_cycles must be positive".into());
        }
        if self.disaggregate && self.nodes < 2 {
            return Err("disaggregation needs at least two nodes".into());
        }
        Ok(())
    }
}

/// Aggregated outcome of serving one trace across the fleet. Per-request
/// records are never materialized — latency and queueing distributions are
/// streaming sketches, everything else is counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Requests served to completion.
    pub served: u64,
    /// Requests the energy budget shed.
    pub shed: u64,
    /// Served requests some mechanism (energy budget, decay, feedback,
    /// retry) re-routed to a leaner point.
    pub rerouted: u64,
    /// Served requests the decay threshold re-lowered while they waited.
    /// Zero without [`ServeConfig::decay_threshold`].
    pub decayed: u64,
    /// Retry re-arrivals admitted back into the wait queue (shed requests
    /// whose backoff-and-degrade resubmission fit the budget). Zero without
    /// a retry policy.
    pub retried: u64,
    /// Served prefills.
    pub prefills: u64,
    /// Served decodes.
    pub decodes: u64,
    /// End-to-end latency distribution (arrival → completion, cycles).
    pub latency: QuantileSketch,
    /// Queueing-delay distribution (arrival → admission boundary, cycles;
    /// quantized to the epoch).
    pub queueing: QuantileSketch,
    /// Fleet makespan: the latest cycle any node reached.
    pub total_cycles: u64,
    /// Per-node simulation accounting.
    pub nodes: Vec<MultiReport>,
    /// Inter-node fabric accounting.
    pub fabric: FabricReport,
    /// Total projected energy of the admitted requests in picojoules (from
    /// the DSE energy model, summed at admission).
    pub energy_pj: f64,
    /// Requests placed on each node.
    pub requests_per_node: Vec<u64>,
    /// Highest concurrently-booked bytes observed on any single instance of
    /// each node.
    pub peak_inflight_bytes: Vec<u64>,
    /// The effective per-instance admission budget in bytes.
    pub budget_bytes: u64,
}

impl FleetReport {
    /// Latency at percentile `p` (nearest-rank via the streaming sketch).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]` or nothing was served.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        assert!(self.served > 0, "no requests were served");
        self.latency.percentile(p)
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> u64 {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile (tail) latency.
    pub fn p99(&self) -> u64 {
        self.latency_percentile(99.0)
    }

    /// Mean cycles requests waited for an admission boundary with capacity.
    pub fn mean_queueing_delay(&self) -> f64 {
        self.queueing.mean()
    }

    /// Completed requests per million cycles of makespan.
    pub fn throughput_per_mcycle(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.served as f64 * 1.0e6 / self.total_cycles as f64
    }

    /// Mean projected energy per served request in picojoules.
    pub fn energy_pj_per_request(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        self.energy_pj / self.served as f64
    }

    /// Mean bottleneck-stage busy fraction of node `n`'s instances over the
    /// makespan.
    pub fn node_utilization(&self, n: usize) -> f64 {
        let node = &self.nodes[n];
        let total: f64 = node
            .instances
            .iter()
            .map(|i| i.utilization(self.total_cycles))
            .sum();
        total / node.instances.len() as f64
    }

    /// Mean utilization across all nodes.
    pub fn mean_utilization(&self) -> f64 {
        (0..self.nodes.len())
            .map(|n| self.node_utilization(n))
            .sum::<f64>()
            / self.nodes.len() as f64
    }

    /// Adds the fleet summary to `reg` under the `fleet.` prefix.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.inc("fleet.requests.total", self.served + self.shed);
        reg.inc("fleet.requests.served", self.served);
        reg.inc("fleet.requests.shed", self.shed);
        reg.inc("fleet.requests.rerouted", self.rerouted);
        // Only adaptive (retry- or decay-enabled) runs carry these counters,
        // so existing metric snapshots stay byte-stable.
        if self.retried > 0 {
            reg.inc("fleet.requests.retried", self.retried);
        }
        if self.decayed > 0 {
            reg.inc("fleet.requests.decayed", self.decayed);
        }
        reg.inc("fleet.requests.prefill", self.prefills);
        reg.inc("fleet.requests.decode", self.decodes);
        reg.set_gauge("fleet.total_cycles", self.total_cycles as f64);
        reg.set_gauge("fleet.throughput_per_mcycle", self.throughput_per_mcycle());
        reg.set_gauge("fleet.mean_queueing_delay", self.mean_queueing_delay());
        reg.set_gauge("fleet.energy_pj_per_request", self.energy_pj_per_request());
        if self.served > 0 {
            reg.set_gauge("fleet.latency_p50", self.p50() as f64);
            reg.set_gauge("fleet.latency_p95", self.p95() as f64);
            reg.set_gauge("fleet.latency_p99", self.p99() as f64);
        }
        reg.set_gauge("fleet.fabric.bytes", self.fabric.total_bytes() as f64);
        reg.set_gauge(
            "fleet.fabric.transfers",
            self.fabric.total_transfers() as f64,
        );
        for n in 0..self.nodes.len() {
            reg.set_gauge(
                &format!("fleet.node{n}.requests"),
                self.requests_per_node[n] as f64,
            );
            reg.set_gauge(
                &format!("fleet.node{n}.utilization"),
                self.node_utilization(n),
            );
            reg.set_gauge(
                &format!("fleet.node{n}.link_utilization"),
                self.fabric.link_utilization(n, self.total_cycles),
            );
            reg.set_gauge(
                &format!("fleet.node{n}.peak_inflight_bytes"),
                self.peak_inflight_bytes[n] as f64,
            );
        }
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "served {}  shed {}  rerouted {}  makespan {} cyc  throughput {:.2} req/Mcyc\n",
            self.served,
            self.shed,
            self.rerouted,
            self.total_cycles,
            self.throughput_per_mcycle(),
        ));
        if self.retried > 0 {
            out.push_str(&format!(
                "retried {} (served after client backoff)\n",
                self.retried
            ));
        }
        if self.decayed > 0 {
            out.push_str(&format!(
                "decayed {} (re-lowered after waiting past the threshold)\n",
                self.decayed
            ));
        }
        if self.served > 0 {
            out.push_str(&format!(
                "latency p50 {}  p95 {}  p99 {}  mean queueing {:.0} cyc\n",
                self.p50(),
                self.p95(),
                self.p99(),
                self.mean_queueing_delay(),
            ));
        }
        for n in 0..self.nodes.len() {
            out.push_str(&format!(
                "node {n}: {} requests  util {:>5.1}%  link busy {:>4.1}%  peak buffer {}/{} B\n",
                self.requests_per_node[n],
                100.0 * self.node_utilization(n),
                100.0 * self.fabric.link_utilization(n, self.total_cycles),
                self.peak_inflight_bytes[n],
                self.budget_bytes,
            ));
        }
        out.push_str(&format!(
            "fabric: {:.1} MB moved in {} transfers  energy {:.1} nJ/req\n",
            self.fabric.total_bytes() as f64 / 1e6,
            self.fabric.total_transfers(),
            self.energy_pj_per_request() / 1e3,
        ));
        out
    }
}

/// The fleet-scale serving simulator.
#[derive(Debug)]
pub struct FleetServeSim {
    cfg: FleetConfig,
}

impl FleetServeSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FleetConfig::validate`].
    pub fn new(cfg: FleetConfig) -> Self {
        cfg.validate().expect("invalid fleet config");
        FleetServeSim { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Serves `trace` across the fleet under `router`.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn run(&self, trace: &RequestTrace, router: OpRouter) -> FleetReport {
        self.run_inner(
            trace,
            router,
            &mut TraceRecorder::disabled(),
            &mut CacheStats::default(),
        )
    }

    /// [`FleetServeSim::run`] plus the lowering-cache effectiveness counters
    /// of the run. The report is bit-identical to [`FleetServeSim::run`]'s;
    /// the statistics ride outside it so cache-on and cache-off reports stay
    /// comparable bytes.
    pub fn run_with_cache_stats(
        &self,
        trace: &RequestTrace,
        router: OpRouter,
    ) -> (FleetReport, CacheStats) {
        let mut stats = CacheStats::default();
        let report = self.run_inner(trace, router, &mut TraceRecorder::disabled(), &mut stats);
        (report, stats)
    }

    /// [`FleetServeSim::run`] plus observability: per-node pipeline tracks
    /// (each node in its own pid window), router wait-queue and per-node
    /// fabric counters land in `obs`; the report's summary lands in
    /// `metrics`. Unlike the single-node scheduler, no per-request spans
    /// are emitted — at fleet request counts they would dwarf the trace.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn run_traced(
        &self,
        trace: &RequestTrace,
        router: OpRouter,
        obs: &mut TraceRecorder,
        metrics: &mut MetricsRegistry,
    ) -> FleetReport {
        let report = self.run_inner(trace, router, obs, &mut CacheStats::default());
        report.record_metrics(metrics);
        report
    }

    /// The node pool `class` placements try first.
    fn pool(&self, class: RequestClass) -> Range<usize> {
        if !self.cfg.disaggregate {
            return 0..self.cfg.nodes;
        }
        let p = self.cfg.prefill_nodes();
        match class {
            RequestClass::Prefill => 0..p,
            RequestClass::Decode => p..self.cfg.nodes,
        }
    }

    fn run_inner(
        &self,
        trace: &RequestTrace,
        route: OpRouter,
        obs: &mut TraceRecorder,
        cache_stats: &mut CacheStats,
    ) -> FleetReport {
        let s = &self.cfg.serve;
        let ipn = s.instances;
        let mut router = Router::new(s, route, &trace.requests, self.cfg.nodes, false);
        let mut fleet = FleetSim::new(&s.hw, self.cfg.nodes, ipn, s.sim);
        let mut fabric = Fabric::new(self.cfg.fabric, self.cfg.nodes);
        if obs.is_enabled() {
            obs.process_name(PID_FLEET_ROUTER, "fleet-router");
            obs.thread_name(PID_FLEET_ROUTER, 0, "fleet.wait_queue");
            obs.process_name(PID_FABRIC, "fabric");
            for n in 0..self.cfg.nodes {
                obs.thread_name(PID_FABRIC, n as u64, &format!("fabric.node{n}.bytes"));
            }
            fleet.enable_tracing();
        }

        let mut latency = QuantileSketch::new();
        let mut queueing = QuantileSketch::new();
        let mut requests_per_node = vec![0u64; self.cfg.nodes];
        let (mut served, mut shed, mut rerouted, mut decayed) = (0u64, 0u64, 0u64, 0u64);
        let (mut prefills, mut decodes) = (0u64, 0u64);
        let mut energy_pj = 0.0f64;
        let epoch = self.cfg.epoch_cycles;
        while let Some(next) = [fleet.next_activity(), router.next_external()]
            .into_iter()
            .flatten()
            .min()
        {
            // The first boundary strictly past the next pending activity —
            // idle stretches collapse into one epoch step.
            let boundary = (next / epoch + 1) * epoch;
            for c in fleet.run_until(boundary) {
                let req = c.request as usize;
                latency.record(c.time - router.request(req).arrival);
                router.complete(req, c.node * ipn + c.instance, c.time);
                served += 1;
            }
            // Ingest originals and retry re-arrivals below the boundary in
            // time order, so the wait queue stays arrival-ordered.
            while router.next_external().is_some_and(|t| t < boundary) {
                if let (_, Ingest::Shed(_)) = router.ingest_next() {
                    shed += 1;
                }
            }
            router.try_admit(
                boundary,
                ADMIT_WINDOW,
                |class| self.pool(class),
                |a| {
                    let (node, inst) = (a.slot / ipn, a.slot % ipn);
                    let (job, fp) = (Arc::clone(&a.lowering.job), a.lowering.footprint);
                    let delivery = fabric.transfer(node, fp, boundary);
                    fleet.submit(node, inst, a.req as u64, job, delivery);
                    requests_per_node[node] += 1;
                    energy_pj += a.lowering.energy_pj;
                    queueing.record(boundary - a.request.arrival);
                    rerouted += u64::from(a.request.rerouted);
                    decayed += u64::from(a.request.decayed);
                    match trace.requests[a.req].class {
                        RequestClass::Prefill => prefills += 1,
                        RequestClass::Decode => decodes += 1,
                    }
                    if obs.is_enabled() {
                        obs.counter(
                            PID_FABRIC,
                            node as u64,
                            "fabric.bytes",
                            boundary,
                            &[("bytes", fabric.report().links[node].bytes as f64)],
                        );
                    }
                },
            );
            if obs.is_enabled() {
                obs.counter(
                    PID_FLEET_ROUTER,
                    0,
                    "fleet.wait_queue",
                    boundary,
                    &[("waiting", router.waiting() as f64)],
                );
            }
        }
        router.finish();
        *cache_stats = router.cache_stats();
        obs.absorb(fleet.take_trace());

        let sim_report = fleet.report();
        let peak_inflight_bytes = router
            .peak_bytes()
            .chunks(ipn)
            .map(|node| node.iter().copied().max().unwrap_or(0))
            .collect();
        FleetReport {
            served,
            shed,
            rerouted,
            decayed,
            retried: router.retried(),
            prefills,
            decodes,
            latency,
            queueing,
            total_cycles: sim_report.total_cycles(),
            nodes: sim_report.nodes,
            fabric: fabric.report(),
            energy_pj,
            requests_per_node,
            peak_inflight_bytes,
            budget_bytes: s.budget_bytes(),
        }
    }
}

/// How far the fleet's p95 latency drifts from a reference single-node
/// serving run of the same trace — the 1-node × 1-instance consistency
/// check the regression gate enforces.
pub fn p95_drift(fleet: &FleetReport, single: &ServeReport) -> f64 {
    let f = fleet.p95() as f64;
    let s = single.p95() as f64;
    (f - s).abs() / s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeSim;
    use sofa_hw::config::HwConfig;
    use sofa_model::trace::TraceConfig;

    fn small_trace(n: usize, rate: f64) -> RequestTrace {
        let mut tc = TraceConfig::new(n, rate, 42);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        RequestTrace::generate(&tc)
    }

    fn small_cfg(nodes: usize, ipn: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(HwConfig::small(), nodes, ipn);
        cfg.epoch_cycles = 4096;
        cfg
    }

    #[test]
    fn fleet_serves_every_request() {
        let trace = small_trace(24, 100.0);
        let report = FleetServeSim::new(small_cfg(2, 2)).run(&trace, OpRouter::TraceNative);
        assert_eq!(report.served, 24);
        assert_eq!(report.shed, 0);
        assert_eq!(report.prefills + report.decodes, 24);
        assert_eq!(report.requests_per_node.iter().sum::<u64>(), 24);
        assert!(report.p50() <= report.p95());
        assert!(report.p95() <= report.p99());
        assert!(report.total_cycles > 0);
        // Every placement crossed the fabric.
        assert_eq!(report.fabric.total_transfers(), 24);
    }

    #[test]
    fn fleet_is_deterministic_across_runs_and_epochs_shift_timing_only() {
        let trace = small_trace(16, 100.0);
        let sim = FleetServeSim::new(small_cfg(2, 1));
        let a = sim.run(&trace, OpRouter::TraceNative);
        let b = sim.run(&trace, OpRouter::TraceNative);
        assert_eq!(a, b);
    }

    #[test]
    fn disaggregation_splits_classes_across_pools() {
        let trace = small_trace(24, 100.0);
        let mut cfg = small_cfg(2, 1);
        cfg.disaggregate = true;
        let sim = FleetServeSim::new(cfg);
        let report = sim.run(&trace, OpRouter::TraceNative);
        assert_eq!(report.served, 24);
        // Pool split: node 0 takes prefills, node 1 decodes. Spillover may
        // blur the split under pressure, but both nodes must see work.
        assert!(report.requests_per_node.iter().all(|&r| r > 0));
        assert_eq!(sim.config().prefill_nodes(), 1);
    }

    #[test]
    fn single_node_fleet_tracks_the_single_node_scheduler() {
        let trace = small_trace(12, 50.0);
        let mut cfg = small_cfg(1, 1);
        // Isolate the epoch/fabric overheads the fleet path adds.
        cfg.fabric.latency_cycles = 0;
        let single = ServeSim::new(cfg.serve.clone()).run(&trace);
        let fleet = FleetServeSim::new(cfg).run(&trace, OpRouter::TraceNative);
        assert_eq!(fleet.served as usize, single.records.len());
        assert!(
            p95_drift(&fleet, &single) < 0.15,
            "fleet p95 {} vs single {}",
            fleet.p95(),
            single.p95()
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_validates() {
        let trace = small_trace(10, 100.0);
        let sim = FleetServeSim::new(small_cfg(2, 1));
        let plain = sim.run(&trace, OpRouter::TraceNative);
        let mut obs = TraceRecorder::enabled();
        let mut metrics = MetricsRegistry::new();
        let traced = sim.run_traced(&trace, OpRouter::TraceNative, &mut obs, &mut metrics);
        assert_eq!(plain, traced);
        let json = obs.to_chrome_json();
        let stats = sofa_obs::validate_chrome_trace(&json).expect("valid trace");
        assert!(stats.spans > 0);
        assert!(json.contains("fleet-router"));
        assert!(json.contains("fabric.node1.bytes"));
        assert!(json.contains("node1.dram-channel"));
        assert!(!metrics.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid fleet config")]
    fn zero_nodes_rejected() {
        FleetServeSim::new(FleetConfig {
            nodes: 0,
            ..small_cfg(1, 1)
        });
    }

    #[test]
    #[should_panic(expected = "fabric bytes_per_cycle must be positive")]
    fn zero_fabric_bandwidth_rejected() {
        // Regression: this config used to validate and then panic inside
        // `Fabric::new` on the first run.
        let mut cfg = small_cfg(2, 1);
        cfg.fabric.bytes_per_cycle = 0;
        FleetServeSim::new(cfg);
    }

    #[test]
    fn prefill_nodes_is_total_on_unvalidatable_configs() {
        // Regression: `clamp(1, nodes - 1)` panicked (min > max) for a
        // single-node disaggregated config inspected before validate(), and
        // underflowed at nodes == 0.
        for nodes in [0, 1] {
            let cfg = FleetConfig {
                nodes,
                disaggregate: true,
                ..small_cfg(2, 1)
            };
            assert!(cfg.validate().is_err(), "{nodes} nodes must not validate");
            assert_eq!(cfg.prefill_nodes(), 0);
        }
        // Valid configs still split into two non-empty pools, the prefill
        // pool taking the odd node.
        for (nodes, prefill) in [(2, 1), (3, 2), (4, 2), (5, 3), (8, 4)] {
            let mut cfg = small_cfg(nodes, 1);
            cfg.disaggregate = true;
            assert_eq!(cfg.prefill_nodes(), prefill, "{nodes} nodes");
        }
    }

    #[test]
    fn fleet_retry_readmits_shed_requests() {
        let trace = small_trace(24, 150.0);
        let mut cfg = small_cfg(2, 1);
        // Between a decode's projection and a prefill's at this shape, so
        // prefills shed on first submission.
        cfg.serve.energy_budget_pj_per_req = Some(4.0e6);
        let base = FleetServeSim::new(cfg.clone()).run(&trace, OpRouter::TraceNative);
        assert!(base.shed > 0, "prefills must shed without retry");
        assert_eq!(base.retried, 0);

        cfg.serve.retry = Some(crate::RetryPolicy {
            backoff_cycles: 20_000,
            max_retries: 2,
            keep_factor: 0.5,
        });
        let sim = FleetServeSim::new(cfg);
        let adaptive = sim.run(&trace, OpRouter::TraceNative);
        assert!(
            adaptive.shed <= base.shed,
            "retry cannot shed more: {} vs {}",
            adaptive.shed,
            base.shed
        );
        assert!(adaptive.retried > 0, "degraded resubmissions must land");
        assert_eq!(adaptive.served + adaptive.shed, trace.len() as u64);
        // Determinism with the retry path active.
        let again = sim.run(&trace, OpRouter::TraceNative);
        assert_eq!(adaptive, again);
    }

    #[test]
    fn fleet_decay_and_feedback_reroute_a_backlog() {
        // Regression: the fleet ignored `decay_threshold` and served
        // `OpRouter::Feedback` as plain Pareto routing.
        let trace = small_trace(48, 400.0);
        let mut cfg = small_cfg(2, 2);
        cfg.serve.decay_threshold = Some(10_000);
        let front = crate::scheduler::tests::adaptive_front();
        let hot = crate::FeedbackConfig::new(1);
        let sim = FleetServeSim::new(cfg);
        let report = sim.run(&trace, OpRouter::Feedback(&front, &hot));
        assert!(report.decayed > 0, "a backlog must decay");
        assert!(
            report.rerouted > report.decayed,
            "feedback must reroute too"
        );
        assert_eq!(report.served + report.shed, trace.len() as u64);
        let mut metrics = MetricsRegistry::new();
        report.record_metrics(&mut metrics);
        assert_eq!(metrics.counter("fleet.requests.decayed"), report.decayed);
        assert_eq!(report, sim.run(&trace, OpRouter::Feedback(&front, &hot)));
    }
}
