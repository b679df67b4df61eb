//! Cross-crate integration tests of the serving stack: request traces
//! (`sofa-model`) scheduled by continuous batching (`sofa-serve`) onto
//! multi-instance cycle simulation (`sofa-sim`), with conservation checks
//! against the per-request descriptors (`sofa-hw`).

use sofa_hw::accel::{AttentionTask, SofaAccelerator};
use sofa_hw::config::HwConfig;
use sofa_model::trace::{RequestTrace, TraceConfig};
use sofa_serve::{ServeConfig, ServeSim};
use sofa_sim::CycleSim;

fn trace(n: usize, rate: f64, seed: u64) -> RequestTrace {
    let mut tc = TraceConfig::new(n, rate, seed);
    tc.seq_len = 512;
    tc.hidden = 512;
    tc.heads = 4;
    tc.prefill_queries = 16;
    RequestTrace::generate(&tc)
}

fn config(instances: usize) -> ServeConfig {
    ServeConfig::new(HwConfig::paper_default(), instances)
}

fn task_of(spec: &sofa_model::trace::RequestSpec, cfg: &ServeConfig) -> AttentionTask {
    // Mirrors the scheduler's trace-native lowering: the deployment tiling
    // with the request's own keep ratio substituted.
    let op = cfg.op.with_uniform_keep(spec.keep_ratio);
    AttentionTask::at_layer(spec.queries, spec.seq_len, spec.hidden, spec.heads, &op, 0)
}

/// Every request completes, timestamps are causally ordered, and the report's
/// aggregates are consistent with its per-request records.
#[test]
fn serving_report_is_self_consistent() {
    let trace = trace(32, 150.0, 5);
    let report = ServeSim::new(config(2)).run(&trace);
    assert_eq!(report.records.len(), trace.len());
    for (r, spec) in report.records.iter().zip(trace.requests.iter()) {
        assert_eq!(r.arrival, spec.arrival_cycle);
        assert!(r.admitted >= r.arrival && r.completed > r.admitted);
        assert!(r.completed <= report.total_cycles);
    }
    assert!(report.p50() <= report.p95() && report.p95() <= report.p99());
    for i in 0..2 {
        let u = report.instance_utilization(i);
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }
    assert!(report.throughput_per_mcycle() > 0.0);
}

/// Total DRAM traffic of the shared channel equals the sum of the
/// per-request descriptor traffic — conservation under multi-instance
/// arbitration, checked against the independent `sofa-hw` export.
#[test]
fn dram_traffic_is_conserved_across_concurrent_requests() {
    let trace = trace(24, 300.0, 11);
    let cfg = config(3);
    let report = ServeSim::new(cfg.clone()).run(&trace);

    let mut accel = SofaAccelerator::new(cfg.hw);
    accel.include_kv_generation = false;
    let tasks: Vec<AttentionTask> = trace
        .requests
        .iter()
        .map(|spec| task_of(spec, &cfg))
        .collect();
    let want: u64 = tasks
        .iter()
        .flat_map(|task| accel.tile_descriptors(task, None))
        .map(|w| w.total_dram_bytes())
        .sum();
    assert_eq!(report.multi.dram.total_bytes(), want);
}

/// The scheduler never books more footprint onto an instance than the
/// configured budget while multiple requests are in flight.
#[test]
fn admission_respects_the_buffer_budget() {
    let trace = trace(40, 500.0, 17);
    let report = ServeSim::new(config(2)).run(&trace);
    let largest = report
        .records
        .iter()
        .map(|r| r.footprint_bytes)
        .max()
        .unwrap();
    for &peak in &report.peak_inflight_bytes {
        assert!(
            peak <= report.budget_bytes.max(largest),
            "peak {peak} exceeds budget {}",
            report.budget_bytes
        );
    }
}

/// Serving is a pure function of (config, trace).
#[test]
fn serving_is_deterministic_end_to_end() {
    let trace = trace(20, 120.0, 29);
    let a = ServeSim::new(config(2)).run(&trace);
    let b = ServeSim::new(config(2)).run(&trace);
    assert_eq!(a, b);
}

/// Under a saturating stream, adding instances increases throughput until
/// the shared DRAM channel becomes the roofline.
#[test]
fn instances_scale_until_the_shared_channel_saturates() {
    let trace = trace(36, 500.0, 7);
    let one = ServeSim::new(config(1)).run(&trace);
    let two = ServeSim::new(config(2)).run(&trace);
    assert!(
        two.total_cycles < one.total_cycles,
        "two instances must finish the backlog sooner: {} vs {}",
        two.total_cycles,
        one.total_cycles
    );
    // The channel is shared: per-instance utilization drops even as
    // makespan improves.
    assert!(two.mean_utilization() < one.mean_utilization());
}

/// A request served on an otherwise idle system costs what a plain
/// single-pipeline simulation of the same task costs — the serving layer
/// adds no phantom cycles.
#[test]
fn lone_request_latency_matches_single_pipeline_simulation() {
    let mut tc = TraceConfig::new(1, 1.0, 3);
    tc.seq_len = 512;
    tc.hidden = 512;
    tc.heads = 4;
    tc.decode_fraction = 0.0;
    tc.prefill_queries = 16;
    let trace = RequestTrace::generate(&tc);
    let cfg = config(1);
    let report = ServeSim::new(cfg.clone()).run(&trace);

    let mut csim = CycleSim::new(cfg.hw);
    csim.params = cfg.sim;
    let solo = csim.run(&task_of(&trace.requests[0], &cfg));
    let record = &report.records[0];
    assert_eq!(record.queueing_delay(), 0, "idle system admits immediately");
    // Completion is the formal stage's last tile; the single-pipeline total
    // additionally includes the final writeback drain.
    assert!(record.service_time() <= solo.total_cycles);
    assert!(
        record.service_time() >= solo.total_cycles / 2,
        "service {} vs single-pipeline {}",
        record.service_time(),
        solo.total_cycles
    );
}

/// With an energy budget and a client retry policy, shed requests re-arrive
/// at shrunk keep ratios — the shared DRAM channel total must still equal
/// the sum of per-request descriptor traffic of the lowerings *actually
/// served*: first-attempt admissions at the trace-native keep, retried
/// admissions at the deployment point's keep shrunk by `keep_factor` per
/// attempt (floored at 1%), and finally-shed requests contributing nothing.
#[test]
fn retry_rearrivals_preserve_dram_byte_conservation() {
    use sofa_serve::RetryPolicy;

    let trace = trace(24, 300.0, 11);
    let mut cfg = config(2);
    cfg.energy_budget_pj_per_req = Some(4.0e7);
    cfg.retry = Some(RetryPolicy {
        backoff_cycles: 50_000,
        max_retries: 2,
        keep_factor: 0.5,
    });
    let report = ServeSim::new(cfg.clone()).run(&trace);
    assert!(
        report.retried > 0 && report.retried_served() > 0,
        "budget must shed first attempts and retries must fit, or this \
         check exercises nothing (retried {}, served after retry {})",
        report.retried,
        report.retried_served(),
    );

    let mut accel = SofaAccelerator::new(cfg.hw);
    accel.include_kv_generation = false;
    let tasks: Vec<AttentionTask> = report
        .records
        .iter()
        .map(|r| {
            let spec = trace
                .requests
                .iter()
                .find(|s| s.id == r.id)
                .expect("every record comes from the trace");
            let op = if r.retries == 0 {
                cfg.op.with_uniform_keep(spec.keep_ratio)
            } else {
                // Mirrors the scheduler's retry lowering (no Pareto router
                // here, so the base point is the deployment point).
                let keep = (cfg.op.mean_keep()
                    * cfg.retry.unwrap().keep_factor.powi(r.retries as i32))
                .max(0.01);
                cfg.op.with_uniform_keep(keep)
            };
            AttentionTask::at_layer(spec.queries, spec.seq_len, spec.hidden, spec.heads, &op, 0)
        })
        .collect();
    let want: u64 = tasks
        .iter()
        .flat_map(|task| accel.tile_descriptors(task, None))
        .map(|w| w.total_dram_bytes())
        .sum();
    assert_eq!(report.multi.dram.total_bytes(), want);
}
