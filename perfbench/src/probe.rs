//! The traced run: calls each layer's public functions on the workload's
//! inputs, times them with spans recorded here (around the calls, not inside
//! the program), and reports the per-layer metrics plus where the host time
//! of one end-to-end run goes.
//!
//! Timings are host time. Every `sim.*`, `serve.*`, `fabric.*` and `dse.*`
//! count is a simulated, deterministic statistic: an exact check that the
//! program did the same work, never a gain metric.

use crate::stats::{median, Metric};
use crate::workload::{dse_eval_config, dse_inputs, Inputs, Report, Workload, DSE_LAYERS};
use crate::{checked_run, pins, print_timing, Tally};
use sofa_core::cache::{CacheStats, ShapeKey};
use sofa_core::pipeline::{PipelineConfig, SofaPipeline};
use sofa_core::sads::{sads_topk, SadsConfig};
use sofa_core::topk::resolve_k;
use sofa_core::{sorted_updating_attention, DlzsPredictor, OpCounts, SuFaOrder};
use sofa_dse::{hardware_aware_search, DseReport, EvalConfig, HwAwareEvaluator};
use sofa_hw::config::HwConfig;
use sofa_hw::AttentionTask;
use sofa_model::{AttentionWorkload, OperatingPoint, RequestSpec, RequestTrace};
use sofa_sim::{CycleSim, MultiPipelineSim, PipelineJob, SimParams};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in output order.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("model.trace_s", "s"),
    ("core.pipeline_ms", "ms"),
    ("core.dlzs_ns_per_score", "ns"),
    ("core.sads_ns_per_score", "ns"),
    ("core.sufa_ns_per_kept_pair", "ns"),
    ("core.ops", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_rate", "ratio"),
    ("lower.keys", "count"),
    ("lower.us_per_key", "us"),
    ("sim.events", "count"),
    ("sim.events_per_req", "events/req"),
    ("sim.ns_per_event", "ns"),
    ("sim.tiles", "count"),
    ("sim.total_cycles", "cycles"),
    ("sim.dram_busy_frac", "ratio"),
    ("sim.dram_queue_wait_cyc", "cycles"),
    ("sim.instance_util", "ratio"),
    ("sim.cycle_sim_us", "us"),
    ("fabric.bytes", "B"),
    ("fabric.busy_frac", "ratio"),
    ("serve.served", "count"),
    ("serve.shed", "count"),
    ("serve.retried", "count"),
    ("serve.rerouted", "count"),
    ("serve.decayed", "count"),
    ("serve.queueing_p95_cyc", "cycles"),
    ("serve.budget_occupancy", "ratio"),
    ("serve.host_us_per_req", "us"),
    ("serve.residual_frac", "ratio"),
    ("par.speedup", "x"),
    ("dse.evaluations", "count"),
    ("dse.evals_saved", "count"),
    ("dse.layer_evals", "count"),
    ("dse.front_size", "count"),
    ("dse.fidelity_rate", "ratio"),
    ("dse.eval_ms", "ms"),
    ("dse.search_overhead_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Counters that must repeat exactly: a run that moves one has changed
/// behaviour, whatever its timings say.
pub const EXACT: [&str; 7] = [
    "sim.events",
    "sim.tiles",
    "sim.total_cycles",
    "lower.keys",
    "serve.served",
    "dse.layer_evals",
    "core.ops",
];

/// Passes over the distinct lowering keys (each key lowers in microseconds).
const LOWER_PASSES: usize = 20;
/// Passes of the kernel probe over the DSE's per-layer workloads.
const KERNEL_PASSES: usize = 3;
/// Event-core replays; their event counts must agree.
const REPLAYS: usize = 2;
/// End-to-end runs at one worker thread for `par.speedup`.
const ONE_THREAD_RUNS: usize = 2;

/// Host-time spans recorded around calls into the layers, kept in memory
/// and summarised when the run ends. Self time is a span's duration minus
/// its child spans'.
struct Spans {
    open: Vec<(&'static str, f64)>,
    done: Vec<(&'static str, f64, f64)>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let start = Instant::now();
        self.open.push((name, 0.0));
        let out = f(self);
        let dur = start.elapsed().as_secs_f64();
        let (name, children) = self.open.pop().expect("span was opened");
        if let Some(parent) = self.open.last_mut() {
            parent.1 += dur;
        }
        self.done.push((name, dur, dur - children));
        out
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.done
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.1)
            .collect()
    }

    fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    fn print_summary(&self) {
        let mut order: Vec<&str> = Vec::new();
        let mut agg: HashMap<&str, (usize, f64, f64)> = HashMap::new();
        for &(name, dur, own) in &self.done {
            let e = agg.entry(name).or_insert_with(|| {
                order.push(name);
                (0, 0.0, 0.0)
            });
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        println!("# spans (host time)       calls      total s       self s");
        for name in order {
            let (n, total, own) = agg[name];
            println!("#   {name:<22} {n:>7} {total:>12.4} {own:>12.4}");
        }
    }
}

/// Exact-counter gate: each counter must read the same at every
/// observation, and on the pinned seed equal its pinned value.
struct Gate {
    seen: BTreeMap<&'static str, u64>,
    mismatches: Vec<String>,
}

impl Gate {
    fn observe(&mut self, name: &'static str, value: u64) {
        assert!(EXACT.contains(&name), "{name} is not an exact counter");
        let first = *self.seen.entry(name).or_insert(value);
        if first != value {
            self.mismatches.push(format!(
                "changed behaviour: {name} read {first} then {value}"
            ));
        }
    }
}

/// The per-layer metric values, all starting at 0 (a layer the workload
/// does not run stays 0).
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "undeclared metric {name}");
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// The traced run of `wl`: per-layer metrics and the exact-counter gate.
pub fn traced(wl: Workload, seed: u64, seconds: u64) -> (bool, Tally, Vec<Metric>) {
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let mut gate = Gate {
        seen: BTreeMap::new(),
        mismatches: Vec::new(),
    };
    let mut v = Values(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect());

    let inputs = spans.span("setup", |_| wl.setup(seed));
    v.set("model.trace_s", probe_model(&mut spans, wl, seed));

    let e2e = probe_end_to_end(
        &mut spans, &mut tally, &mut gate, wl, seed, seconds, &inputs,
    );
    let t1 = median(&e2e.one_thread_secs);
    v.set(
        "par.speedup",
        median(&e2e.untraced) / median(&e2e.one_thread_rates),
    );
    v.set(
        "trace.overhead_frac",
        1.0 - median(&e2e.traced) / median(&e2e.untraced),
    );
    if let Some(stats) = e2e.cache {
        v.set("core.cache_hits", stats.hits as f64);
        v.set("core.cache_misses", stats.misses as f64);
        v.set("core.cache_hit_rate", stats.hit_rate());
    }
    record_report(&mut v, &e2e.report);

    match &inputs {
        Inputs::Fleet { trace, sim } => {
            let cfg = sim.config();
            let (keys, jobs) =
                probe_lowering(&mut spans, &mut gate, &mut v, &cfg.serve, trace, |s| {
                    cfg.serve.op.with_uniform_keep(s.keep_ratio)
                });
            probe_replay(
                &mut spans, &mut gate, &mut v, &cfg.serve, cfg.nodes, trace, &jobs, &keys,
            );
            serving_shares(&mut v, trace.len(), t1);
        }
        Inputs::Adaptive {
            trace,
            sim,
            dse,
            eval_cfg,
            ..
        } => {
            let cfg = sim.config();
            let (keys, jobs) = probe_lowering(&mut spans, &mut gate, &mut v, cfg, trace, |s| {
                dse.route(&s.class)
            });
            probe_replay(&mut spans, &mut gate, &mut v, cfg, 1, trace, &jobs, &keys);
            serving_shares(&mut v, trace.len(), t1);
            probe_kernels(
                &mut spans,
                &mut gate,
                &mut v,
                eval_cfg,
                &dse.tuned_operating_point(),
            );
            // The front came from set-up; search once more at one thread for
            // the DSE layer's own figures.
            let (evaluator, search) = dse_inputs(0);
            let start = Instant::now();
            let report = spans.span("dse.search_1t", |_| {
                sofa_par::with_threads(1, || hardware_aware_search(&evaluator, &search))
            });
            let secs = start.elapsed().as_secs_f64();
            gate.observe("dse.layer_evals", evaluator.layer_evals());
            record_dse(
                &mut v,
                &report,
                evaluator.layer_evals(),
                evaluator.fidelity_hits(),
            );
            probe_dse_eval(&mut spans, &mut v, &evaluator, &report, secs);
        }
        Inputs::Dse { evaluator, .. } => {
            let Report::Dse(report, ..) = &e2e.report else {
                unreachable!("the DSE workload reports a search")
            };
            probe_kernels(
                &mut spans,
                &mut gate,
                &mut v,
                evaluator.config(),
                &report.tuned_operating_point(),
            );
            probe_cycle_sim(&mut spans, &mut gate, &mut v, evaluator.config(), report);
            probe_dse_eval(&mut spans, &mut v, evaluator, report, t1);
        }
    }

    print_timing("untraced", "1/s", &e2e.untraced);
    print_timing("traced", "1/s", &e2e.traced);
    println!(
        "# tracing overhead: traced work_per_s is {:.2}% below untraced",
        100.0 * v.get("trace.overhead_frac")
    );
    print_timing("one_thread", "1/s", &e2e.one_thread_rates);
    spans.print_summary();
    print_breakdown(wl, &v, t1);

    for (name, value) in &gate.seen {
        println!("# exact counter {name} = {value}");
    }
    let pinned = pins::counter_mismatches(wl, seed, &gate.seen);
    gate.mismatches.extend(pinned);
    for m in &gate.mismatches {
        tally.record("exact-counter gate", Err(m.clone()));
    }
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: v.get(name),
            unit,
        })
        .collect();
    for m in &metrics {
        println!("# {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let correct = tally.failed == 0;
    (correct, tally, metrics)
}

/// sofa-model: host seconds to generate the workload's inputs — the request
/// trace, or the DSE's per-layer attention workloads. Median of three.
fn probe_model(spans: &mut Spans, wl: Workload, seed: u64) -> f64 {
    let mut times = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        spans.span("model.generate", |_| match wl.trace(seed) {
            Some(trace) => drop(black_box(trace)),
            None => drop(black_box(layer_workloads(&dse_eval_config(seed)))),
        });
        times.push(start.elapsed().as_secs_f64());
    }
    median(&times)
}

/// The end-to-end calls of the traced run.
struct EndToEnd {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    one_thread_rates: Vec<f64>,
    one_thread_secs: Vec<f64>,
    cache: Option<CacheStats>,
    report: Report,
}

/// Alternates untraced and traced (span-wrapped) calls for half the
/// measurement window, then runs the call at one worker thread.
fn probe_end_to_end(
    spans: &mut Spans,
    tally: &mut Tally,
    gate: &mut Gate,
    wl: Workload,
    seed: u64,
    seconds: u64,
    inputs: &Inputs,
) -> EndToEnd {
    let mut first_digest = None;
    crate::warm_up(wl, seed, inputs, &mut first_digest, tally);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut one_thread_rates = Vec::new();
    let mut one_thread_secs = Vec::new();
    let mut cache = None;
    let mut last = None;
    let window = Duration::from_secs(seconds).mul_f64(0.5);
    let start = Instant::now();
    while start.elapsed() < window || traced.len() < 2 {
        let run = checked_run(
            wl,
            seed,
            inputs,
            &mut first_digest,
            tally,
            "untraced run",
            Inputs::run,
            |r| r,
        );
        if let Some((elapsed, report)) = run {
            untraced.push(report.work() / elapsed.as_secs_f64());
            observe_report(gate, &report);
        }
        let run = spans.span("e2e.traced", |_| {
            checked_run(
                wl,
                seed,
                inputs,
                &mut first_digest,
                tally,
                "traced run",
                Inputs::run_with_cache_stats,
                |r| &r.0,
            )
        });
        if let Some((elapsed, (report, stats))) = run {
            traced.push(report.work() / elapsed.as_secs_f64());
            observe_report(gate, &report);
            cache = stats;
            last = Some(report);
        }
    }
    for _ in 0..ONE_THREAD_RUNS {
        let run = spans.span("e2e.one_thread", |_| {
            sofa_par::with_threads(1, || {
                checked_run(
                    wl,
                    seed,
                    inputs,
                    &mut first_digest,
                    tally,
                    "one-thread run",
                    Inputs::run,
                    |r| r,
                )
            })
        });
        if let Some((elapsed, report)) = run {
            one_thread_rates.push(report.work() / elapsed.as_secs_f64());
            one_thread_secs.push(elapsed.as_secs_f64());
            observe_report(gate, &report);
        }
    }
    let Some(report) = last.filter(|_| !untraced.is_empty() && !one_thread_secs.is_empty()) else {
        println!("# every end-to-end run panicked");
        std::process::exit(1);
    };
    EndToEnd {
        untraced,
        traced,
        one_thread_rates,
        one_thread_secs,
        cache,
        report,
    }
}

/// Feeds a report's exact counters to the gate.
fn observe_report(gate: &mut Gate, report: &Report) {
    match report {
        Report::Fleet(r) => {
            let tiles: usize = r
                .nodes
                .iter()
                .flat_map(|n| n.instances.iter().map(|i| i.tiles))
                .sum();
            gate.observe("sim.tiles", tiles as u64);
            gate.observe("sim.total_cycles", r.total_cycles);
            gate.observe("serve.served", r.served);
        }
        Report::Serve(r) => {
            let tiles: usize = r.multi.instances.iter().map(|i| i.tiles).sum();
            gate.observe("sim.tiles", tiles as u64);
            gate.observe("sim.total_cycles", r.total_cycles);
            gate.observe("serve.served", r.records.len() as u64);
        }
        Report::Dse(_, layer_evals, _) => gate.observe("dse.layer_evals", *layer_evals),
    }
}

/// Exact nearest-rank percentile `p` (in `(0, 100]`) of `values`.
fn percentile(mut values: Vec<u64>, p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The simulated statistics of one end-to-end report.
fn record_report(v: &mut Values, report: &Report) {
    match report {
        Report::Fleet(r) => {
            let nodes = r.nodes.len() as f64;
            let tiles: usize = r
                .nodes
                .iter()
                .flat_map(|n| n.instances.iter().map(|i| i.tiles))
                .sum();
            v.set("sim.tiles", tiles as f64);
            v.set("sim.total_cycles", r.total_cycles as f64);
            v.set(
                "sim.dram_busy_frac",
                r.nodes
                    .iter()
                    .map(|n| n.dram.utilization(n.total_cycles))
                    .sum::<f64>()
                    / nodes,
            );
            v.set(
                "sim.dram_queue_wait_cyc",
                r.nodes.iter().map(|n| n.dram_mean_queue_wait).sum::<f64>() / nodes,
            );
            v.set("sim.instance_util", r.mean_utilization());
            v.set("fabric.bytes", r.fabric.total_bytes() as f64);
            v.set(
                "fabric.busy_frac",
                (0..r.nodes.len())
                    .map(|n| r.fabric.link_utilization(n, r.total_cycles))
                    .sum::<f64>()
                    / nodes,
            );
            v.set("serve.served", r.served as f64);
            v.set("serve.shed", r.shed as f64);
            v.set("serve.retried", r.retried as f64);
            v.set("serve.rerouted", r.rerouted as f64);
            if r.served > 0 {
                v.set("serve.queueing_p95_cyc", r.queueing.percentile(95.0) as f64);
            }
            let peak = r.peak_inflight_bytes.iter().copied().max().unwrap_or(0);
            v.set(
                "serve.budget_occupancy",
                peak as f64 / r.budget_bytes as f64,
            );
        }
        Report::Serve(r) => {
            let tiles: usize = r.multi.instances.iter().map(|i| i.tiles).sum();
            v.set("sim.tiles", tiles as f64);
            v.set("sim.total_cycles", r.total_cycles as f64);
            v.set(
                "sim.dram_busy_frac",
                r.multi.dram.utilization(r.multi.total_cycles),
            );
            v.set("sim.dram_queue_wait_cyc", r.multi.dram_mean_queue_wait);
            v.set("sim.instance_util", r.mean_utilization());
            v.set("serve.served", r.records.len() as f64);
            v.set("serve.shed", r.shed.len() as f64);
            v.set("serve.retried", r.retried as f64);
            v.set("serve.rerouted", r.rerouted_requests() as f64);
            v.set("serve.decayed", r.decayed_requests() as f64);
            v.set(
                "serve.queueing_p95_cyc",
                percentile(r.records.iter().map(|x| x.queueing_delay()).collect(), 95.0) as f64,
            );
            let peak = r.peak_inflight_bytes.iter().copied().max().unwrap_or(0);
            v.set(
                "serve.budget_occupancy",
                peak as f64 / r.budget_bytes as f64,
            );
        }
        Report::Dse(r, layer_evals, hits) => record_dse(v, r, *layer_evals, *hits),
    }
}

/// The DSE layer's counts.
fn record_dse(v: &mut Values, r: &DseReport, layer_evals: u64, hits: u64) {
    v.set("dse.evaluations", r.evaluations as f64);
    v.set("dse.evals_saved", r.evals_saved as f64);
    v.set("dse.layer_evals", layer_evals as f64);
    v.set("dse.front_size", r.pareto.len() as f64);
    if layer_evals > 0 {
        v.set("dse.fidelity_rate", hits as f64 / layer_evals as f64);
    }
}

/// Lowers `spec` at `op` the way the serving layer does: per layer,
/// `AttentionTask::at_layer`, `CycleSim::job` and the analytic
/// `SofaAccelerator::simulate` its energy projection uses, concatenated
/// into one tile stream.
fn lower(csim: &CycleSim, spec: &RequestSpec, op: &OperatingPoint) -> PipelineJob {
    let mut combined = PipelineJob {
        work: Vec::new(),
        cycles: Vec::new(),
    };
    for layer in 0..op.layers() {
        let task = AttentionTask::at_layer(
            spec.queries,
            spec.seq_len,
            spec.hidden,
            spec.heads,
            op,
            layer,
        );
        let job = csim.job(&task, None);
        black_box(job.dram_requests());
        black_box(csim.accel.simulate(&task));
        combined.work.extend(job.work);
        combined.cycles.extend(job.cycles);
    }
    combined
}

/// Lowering (sofa-hw and sofa-sim): times the lowering of each distinct
/// `(shape, first-pick operating point)` key of the trace. Returns the key
/// index of every request and the lowered job of every key.
fn probe_lowering(
    spans: &mut Spans,
    gate: &mut Gate,
    v: &mut Values,
    cfg: &sofa_serve::ServeConfig,
    trace: &RequestTrace,
    pick: impl Fn(&RequestSpec) -> OperatingPoint,
) -> (Vec<usize>, Vec<PipelineJob>) {
    let mut csim = CycleSim::new(cfg.hw);
    csim.params = cfg.sim;
    let mut index: HashMap<ShapeKey, usize> = HashMap::new();
    let mut reps: Vec<(RequestSpec, OperatingPoint)> = Vec::new();
    let key_of: Vec<usize> = trace
        .requests
        .iter()
        .map(|spec| {
            let op = pick(spec);
            *index.entry(ShapeKey::new(spec, &op)).or_insert_with(|| {
                reps.push((*spec, op));
                reps.len() - 1
            })
        })
        .collect();
    let mut jobs = Vec::new();
    for _ in 0..LOWER_PASSES {
        jobs = spans.span("lower", |_| {
            reps.iter()
                .map(|(spec, op)| lower(&csim, spec, op))
                .collect::<Vec<_>>()
        });
        gate.observe("lower.keys", jobs.len() as u64);
    }
    v.set("lower.keys", reps.len() as f64);
    v.set(
        "lower.us_per_key",
        spans.total("lower") / (LOWER_PASSES * reps.len()) as f64 * 1e6,
    );
    (key_of, jobs)
}

/// Event core (sofa-sim): replays the lowered jobs through
/// `MultiPipelineSim::submit` and `step` with the workload's `SimParams`
/// (and so its event-queue kind). Request `i` goes to node `i % nodes`,
/// instances round-robin within the node, entering at its arrival cycle;
/// there is no admission control, so the replay's event count is the
/// event core's work for the trace's tiles, not the serving run's exact
/// count. One event is one `step()`.
#[allow(clippy::too_many_arguments)]
fn probe_replay(
    spans: &mut Spans,
    gate: &mut Gate,
    v: &mut Values,
    cfg: &sofa_serve::ServeConfig,
    nodes: usize,
    trace: &RequestTrace,
    jobs: &[PipelineJob],
    key_of: &[usize],
) {
    let mut events = 0u64;
    for _ in 0..REPLAYS {
        events = spans.span("sim.replay", |_| {
            replay(&cfg.hw, cfg.sim, nodes, cfg.instances, trace, jobs, key_of)
        });
        gate.observe("sim.events", events);
    }
    v.set("sim.events", events as f64);
    v.set("sim.events_per_req", events as f64 / trace.len() as f64);
    v.set(
        "sim.ns_per_event",
        spans.total("sim.replay") / (REPLAYS as u64 * events) as f64 * 1e9,
    );
}

fn replay(
    hw: &HwConfig,
    params: SimParams,
    nodes: usize,
    instances: usize,
    trace: &RequestTrace,
    jobs: &[PipelineJob],
    key_of: &[usize],
) -> u64 {
    let mut events = 0u64;
    for node in 0..nodes {
        let mut sim = MultiPipelineSim::new(hw, instances, params);
        for (k, (i, spec)) in trace
            .requests
            .iter()
            .enumerate()
            .skip(node)
            .step_by(nodes)
            .enumerate()
        {
            let now = spec.arrival_cycle;
            while sim.next_event_time().is_some_and(|t| t <= now) {
                sim.step();
                events += 1;
            }
            sim.submit(k % instances, i as u64, &jobs[key_of[i]], now);
        }
        while sim.step().is_some() {
            events += 1;
        }
        black_box(sim.report());
    }
    events
}

/// The share of one single-threaded end-to-end run the event core and
/// lowering explain; the rest (`serve.residual_frac`: router, admission,
/// bookkeeping) is inferred, not measured.
fn serving_shares(v: &mut Values, requests: usize, t1: f64) {
    v.set("serve.host_us_per_req", t1 / requests as f64 * 1e6);
    let event_s = v.get("sim.events") * v.get("sim.ns_per_event") * 1e-9;
    let lower_s = v.get("lower.keys") * v.get("lower.us_per_key") * 1e-6;
    v.set("serve.residual_frac", 1.0 - (event_s + lower_s) / t1);
}

/// The DSE evaluator's per-layer workloads, regenerated exactly as
/// `HwAwareEvaluator::new` draws them (layer `i` uses seed `seed + i`).
fn layer_workloads(cfg: &EvalConfig) -> Vec<AttentionWorkload> {
    (0..DSE_LAYERS)
        .map(|i| {
            AttentionWorkload::generate(
                &cfg.distribution,
                cfg.queries,
                cfg.seq_len,
                cfg.input_dim,
                cfg.head_dim,
                cfg.seed.wrapping_add(i as u64),
            )
        })
        .collect()
}

/// sofa-core kernels on the DSE's per-layer workloads at the search's tuned
/// operating point: the whole `SofaPipeline::run`, then DLZS prediction,
/// SADS top-k and SU-FA one by one.
fn probe_kernels(
    spans: &mut Spans,
    gate: &mut Gate,
    v: &mut Values,
    cfg: &EvalConfig,
    op: &OperatingPoint,
) {
    let workloads = layer_workloads(cfg);
    let mut scores = 0u64;
    let mut pairs = 0u64;
    let mut ops = 0u64;
    for _ in 0..KERNEL_PASSES {
        ops = 0;
        for (layer, w) in workloads.iter().enumerate() {
            let pc = PipelineConfig::for_layer(op, layer);
            let result = spans.span("core.pipeline", |_| SofaPipeline::new(pc).run(w));
            ops += result.total_ops().total_ops();

            let (predicted, _) = spans.span("core.dlzs", |_| {
                DlzsPredictor::prepare(&w.wk).predict(&w.x, &w.q)
            });
            let s = w.seq_len();
            let sads = SadsConfig::from_tile_size(s, pc.tile_size, pc.radius_frac, pc.refine_iters);
            let k = resolve_k(s, pc.keep_ratio);
            let (mask, _) = spans.span("core.sads", |_| sads_topk(&predicted, k, &sads));
            let (keys, values) = (w.keys(), w.values());
            let mut formal = OpCounts::new();
            let (out, stats) = spans.span("core.sufa", |_| {
                sorted_updating_attention(
                    &w.q,
                    &keys,
                    &values,
                    &mask,
                    SuFaOrder::Descending,
                    &mut formal,
                )
            });
            black_box(out);
            scores += (w.queries() * s) as u64;
            pairs += stats.pairs_processed;
        }
        gate.observe("core.ops", ops);
    }
    v.set("core.ops", ops as f64);
    v.set(
        "core.pipeline_ms",
        median(&spans.durations("core.pipeline")) * 1e3,
    );
    v.set(
        "core.dlzs_ns_per_score",
        spans.total("core.dlzs") / scores as f64 * 1e9,
    );
    v.set(
        "core.sads_ns_per_score",
        spans.total("core.sads") / scores as f64 * 1e9,
    );
    v.set(
        "core.sufa_ns_per_kept_pair",
        spans.total("core.sufa") / pairs as f64 * 1e9,
    );
}

/// sofa-sim's single-pipeline engine as the DSE drives it: every distinct
/// `(keep, Bc)` of the search's evaluated candidates' layers lowered with
/// the evaluator's simulator settings and replayed with `CycleSim::run_job`.
fn probe_cycle_sim(
    spans: &mut Spans,
    gate: &mut Gate,
    v: &mut Values,
    cfg: &EvalConfig,
    report: &DseReport,
) {
    let mut csim = CycleSim::new(cfg.hw);
    csim.params.min_tile_cycles = sofa_dse::eval::TILE_CONTROL_CYCLES;
    csim.params = csim.params.with_dram_command_calibration(&cfg.hw);
    // Every layer shares the shape, so a layer's task depends only on its
    // (keep, Bc).
    let keys: BTreeSet<(u64, usize)> = report
        .evaluated
        .iter()
        .flat_map(|e| {
            let c = &e.candidate;
            c.keep_ratios
                .iter()
                .map(|k| k.to_bits())
                .zip(c.tile_sizes.iter().copied())
        })
        .collect();
    let hidden = cfg.heads * cfg.head_dim;
    let (mut tiles, mut cycles, mut dram_busy, mut util) = (0usize, 0u64, 0u64, 0.0f64);
    for _ in 0..LOWER_PASSES {
        (tiles, cycles, dram_busy, util) = (0, 0, 0, 0.0);
        for &(keep, tile) in &keys {
            let op = OperatingPoint::single(f64::from_bits(keep), tile);
            let job = spans.span("lower", |_| {
                let task =
                    AttentionTask::at_layer(cfg.queries, cfg.seq_len, hidden, cfg.heads, &op, 0);
                black_box(csim.accel.simulate(&task));
                csim.job(&task, None)
            });
            let r = spans.span("sim.cycle_sim", |_| csim.run_job(&job));
            tiles += r.num_tiles;
            cycles += r.total_cycles;
            dram_busy += r.dram.busy_cycles;
            let busiest = r.stages.iter().map(|s| s.busy).max().unwrap_or(0);
            util += busiest as f64 / r.total_cycles.max(1) as f64;
        }
        gate.observe("lower.keys", keys.len() as u64);
        gate.observe("sim.tiles", tiles as u64);
        gate.observe("sim.total_cycles", cycles);
    }
    let n = keys.len() as f64;
    v.set("lower.keys", n);
    v.set(
        "lower.us_per_key",
        spans.total("lower") / (LOWER_PASSES as f64 * n) * 1e6,
    );
    v.set(
        "sim.cycle_sim_us",
        spans.total("sim.cycle_sim") / (LOWER_PASSES as f64 * n) * 1e6,
    );
    v.set("sim.tiles", tiles as f64);
    v.set("sim.total_cycles", cycles as f64);
    v.set(
        "sim.dram_busy_frac",
        dram_busy as f64 / cycles.max(1) as f64,
    );
    v.set("sim.instance_util", util / n);
}

/// sofa-dse: `HwAwareEvaluator::evaluate` one candidate at a time, at one
/// worker thread, on every candidate the search evaluated, and the share of
/// a one-thread search (`search_secs`) those evaluations do not explain.
fn probe_dse_eval(
    spans: &mut Spans,
    v: &mut Values,
    evaluator: &HwAwareEvaluator,
    report: &DseReport,
    search_secs: f64,
) {
    for e in &report.evaluated {
        spans.span("dse.evaluate", |_| {
            sofa_par::with_threads(1, || black_box(evaluator.evaluate(&e.candidate)))
        });
    }
    let eval_s = spans.total("dse.evaluate") / report.evaluated.len() as f64;
    v.set("dse.eval_ms", eval_s * 1e3);
    v.set(
        "dse.search_overhead_frac",
        1.0 - report.evaluations as f64 * eval_s / search_secs,
    );
}

/// Prints where one single-threaded end-to-end run's `t1` seconds go,
/// inferred from the probes' rates and counts.
fn print_breakdown(wl: Workload, v: &Values, t1: f64) {
    let share = |secs: f64| format!("{:>6.1}%", 100.0 * secs / t1);
    println!("# where one 1-thread run's {t1:.3} s goes (inferred from the probes):");
    if wl == Workload::DseFresh {
        let evals = v.get("dse.layer_evals");
        let kernels = evals * v.get("core.pipeline_ms") * 1e-3;
        println!("#   kernels (SofaPipeline::run) {}", share(kernels));
        let cycle_sim = evals * v.get("sim.cycle_sim_us") * 1e-6;
        println!("#   cycle simulation            {}", share(cycle_sim));
        let lowering = evals * v.get("lower.us_per_key") * 1e-6;
        println!("#   lowering                    {}", share(lowering));
        let overhead = v.get("dse.search_overhead_frac") * t1;
        println!("#   outside evaluate (search)   {}", share(overhead));
    } else {
        let events = v.get("sim.events") * v.get("sim.ns_per_event") * 1e-9;
        println!("#   event core     {}", share(events));
        let lowering = v.get("lower.keys") * v.get("lower.us_per_key") * 1e-6;
        println!("#   lowering       {}", share(lowering));
        let residual = v.get("serve.residual_frac") * t1;
        println!(
            "#   residual       {}  (router, admission, bookkeeping)",
            share(residual)
        );
    }
}
