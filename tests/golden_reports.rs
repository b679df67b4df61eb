//! Golden-report tests: the machine-readable JSON of the CI smoke
//! experiments is snapshotted under `tests/golden/` and must stay
//! *byte-stable* — these tables are what the harness specs and the CI
//! artifact trajectory consume, so silent drift (a changed column, a
//! renumbered grid, a nondeterministic cell) must fail loudly instead.
//!
//! The experiments are pure functions of pinned configurations and the
//! deterministic simulators, and the parallel execution engine guarantees
//! bit-identical results at any `SOFA_THREADS`, so the snapshots hold on
//! every machine and in both legs of the CI thread matrix.
//!
//! To regenerate after an *intentional* modelling change (either form):
//!
//! ```bash
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! cargo run --release -p sofa-harness --bin harness -- run --all --update-golden
//! git diff tests/golden/   # review the drift before committing it
//! ```

use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `got` against the stored snapshot, or rewrites the snapshot
/// when `UPDATE_GOLDEN` is set in the environment. One shared
/// implementation with the harness `golden_match` predicate.
fn assert_matches_golden(name: &str, got: &str) {
    sofa_harness::golden::assert_matches(
        &golden_path(name),
        got,
        "UPDATE_GOLDEN=1 cargo test --test golden_reports",
    );
}

#[test]
fn sim_cycle_vs_analytic_json_is_byte_stable() {
    let table = sofa_bench::experiments::sim_cycle_vs_analytic();
    assert_matches_golden("sim_cycle_vs_analytic.json", &table.to_json());
}

#[test]
fn serve_throughput_latency_json_is_byte_stable() {
    let table = sofa_bench::experiments::serve_throughput_latency();
    assert_matches_golden("serve_throughput_latency.json", &table.to_json());
}

#[test]
fn dse_pareto_json_is_byte_stable() {
    // The hardware-aware DSE is a pure function of pinned workloads and the
    // search seed (bit-identical at any SOFA_THREADS), so its Pareto table —
    // the input of the CI dse gate and the serving A/B — must never drift
    // silently.
    let table = sofa_bench::experiments::dse_pareto();
    assert_matches_golden("dse_pareto.json", &table.to_json());
}

#[test]
fn serve_routed_json_is_byte_stable() {
    // The routed-serving study (paper default vs tuned vs Pareto-routed vs
    // budgeted routing) feeds CI regression gate 4; its table is a pure
    // function of the pinned DSE report and trace.
    let table = sofa_bench::experiments::serve_routed();
    assert_matches_golden("serve_routed.json", &table.to_json());
}

#[test]
fn serve_fleet_json_is_byte_stable() {
    // The pinned fleet scaling grid (1/2/4 nodes, plus disaggregated) feeds
    // CI regression gate 6 and the bench-smoke artifact; the fleet
    // simulation is bit-identical at any SOFA_THREADS, so its table must
    // never drift silently.
    let table = sofa_bench::experiments::serve_fleet();
    assert_matches_golden("serve_fleet.json", &table.to_json());
}

#[test]
fn serve_adaptive_json_is_byte_stable() {
    // The adaptive-serving study (static budgeted Pareto routing vs the
    // closed-loop controller on the overload trace) feeds CI regression
    // gate 7; its table is a pure function of the pinned DSE report, trace
    // and controller configuration.
    let table = sofa_bench::experiments::serve_adaptive();
    assert_matches_golden("serve_adaptive.json", &table.to_json());
}

/// Every paper artefact of the experiment registry, one JSON object per
/// line: the entry's name and its tables exactly as `harness exp NAME
/// --json` writes them. The analytic accelerator model feeds most of these
/// figures, so any change to its work or traffic accounting fails here.
#[test]
fn paper_artefacts_json_is_byte_stable() {
    let lines: Vec<String> = sofa_bench::registry::registry()
        .into_iter()
        .filter(|e| e.paper)
        .map(|e| {
            let out = (e.run)();
            format!(
                "{{\"name\":\"{}\",\"tables\":{}}}",
                e.name,
                sofa_bench::report::tables_to_json(&out.tables)
            )
        })
        .collect();
    let json = format!("[\n{}\n]\n", lines.join(",\n"));
    assert_matches_golden("paper_artefacts.json", &json);
}

/// Exact `CycleReport`s, one JSON object per (task, `SimParams`) case:
/// every field, `f64`s in round-trip `{:?}` form, and the timeline as its
/// length plus an order-sensitive FNV-1a checksum of its entries. Any event
/// core change that moves a cycle, stall, occupancy or timeline entry fails.
#[test]
fn cycle_sim_exact_json_is_byte_stable() {
    use sofa_core::tiling::TileSelectionStats;
    use sofa_core::topk::TopKMask;
    use sofa_hw::accel::{AttentionTask, SofaAccelerator};
    use sofa_hw::config::HwConfig;
    use sofa_sim::{CycleSim, SimParams};

    let (small, paper) = (HwConfig::small(), HwConfig::paper_default());
    let rows: Vec<Vec<usize>> = (0..16).map(|_| (0..64).collect()).collect();
    // Every query's 64 selections crammed into the first two tiles.
    let skewed = TileSelectionStats::from_mask(&TopKMask::new(512, rows), 32);
    let tasks = [
        (small, AttentionTask::new(16, 512, 256, 4, 0.25, 32), None),
        (small, AttentionTask::new(8, 96, 64, 2, 0.01, 32), None),
        (small, AttentionTask::new(8, 48, 64, 2, 0.5, 64), None),
        (small, AttentionTask::new(1, 256, 128, 2, 0.1, 16), None),
        (small, AttentionTask::new(24, 384, 128, 2, 0.9, 32), None),
        (small, AttentionTask::new(4, 1024, 256, 4, 0.05, 64), None),
        (paper, AttentionTask::new(1, 1024, 1024, 8, 0.25, 16), None),
        (paper, AttentionTask::new(16, 1024, 1024, 8, 0.5, 32), None),
        (paper, AttentionTask::new(64, 1024, 1024, 8, 0.1, 16), None),
        (
            paper,
            AttentionTask::new(128, 1024, 1024, 8, 0.25, 16),
            None,
        ),
        (paper, AttentionTask::new(32, 512, 512, 4, 1.0, 64), None),
        (paper, AttentionTask::new(8, 2048, 512, 4, 0.1, 128), None),
        (
            small,
            AttentionTask::new(16, 512, 256, 4, 0.125, 32),
            Some(&skewed),
        ),
    ];
    // (buffer_depth, prefetch_depth, dram_command_cycles, dram_age_threshold,
    //  min_tile_cycles)
    let params = [
        (2, 2, 0, u64::MAX, 1),
        (1, 0, 0, u64::MAX, 1),
        (3, 3, 0, u64::MAX, 1),
        (2, 1, 32, u64::MAX, 1),
        (1, 3, 0, 1, 1),
        (3, 0, 32, 1, 1),
        (2, 2, 0, u64::MAX, 32),
        (1, 1, 32, 1, 32),
    ];
    let mut lines = Vec::new();
    for (ti, (cfg, task, stats)) in tasks.iter().enumerate() {
        for (pi, &(buffer_depth, prefetch_depth, cmd, age, floor)) in params.iter().enumerate() {
            let params = SimParams {
                buffer_depth,
                prefetch_depth,
                dram_command_cycles: cmd,
                dram_age_threshold: age,
                min_tile_cycles: floor,
                ..SimParams::default()
            };
            let sim = CycleSim::from_accelerator(SofaAccelerator::new(*cfg), params);
            let r = sim.run_with_stats(task, *stats);
            let fnv = r
                .timeline
                .iter()
                .flat_map(|e| [e.stage as u64, e.tile as u64, e.start, e.end])
                .flat_map(u64::to_le_bytes)
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                });
            let stages = r.stages.map(|s| {
                [
                    s.busy,
                    s.stall_input,
                    s.stall_output,
                    s.stall_dram,
                    s.tiles as u64,
                ]
            });
            let dram = [r.dram.bytes_read, r.dram.bytes_written, r.dram.busy_cycles];
            lines.push(format!(
                "{{\"case\":\"task{ti}/params{pi}\",\"total_cycles\":{},\"num_tiles\":{},\
                 \"stages\":{stages:?},\"dram\":{dram:?},\"occupancy\":{:?},\"capacity\":{:?},\
                 \"timeline\":[{},\"{fnv:016x}\"]}}",
                r.total_cycles,
                r.num_tiles,
                r.buffers.map(|b| b.average_occupancy),
                r.buffers.map(|b| b.capacity),
                r.timeline.len(),
            ));
        }
    }
    let json = format!("[\n{}\n]\n", lines.join(",\n"));
    assert_matches_golden("cycle_sim_exact.json", &json);
}

/// Order-sensitive FNV-1a of a string's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Exact serving reports of both simulators over a grid of admission
/// configurations: one JSON object per (simulator, topology, router,
/// variant) point carrying FNV-1a checksums of the report's every field (its
/// `{:?}` form), of the traced run's Chrome trace and metrics snapshot, the
/// served / shed / total-cycle counts, and the lowering-cache counters. Any
/// admission change that moves a pick, a placement, a retry, an energy sum
/// or a trace event fails.
///
/// Fleet points leave out decay and `OpRouter::Feedback` (the fleet ignored
/// both when this snapshot was recorded), and their cache counters are left
/// unpinned under retry, whose re-lowerings may be looked up once per
/// attempt rather than once per (shape, attempt).
#[test]
fn serve_router_exact_json_is_byte_stable() {
    use sofa_dse::{CandidateEval, DseCandidate, MetricVector, ParetoFront};
    use sofa_hw::config::HwConfig;
    use sofa_model::trace::{RequestTrace, TraceConfig};
    use sofa_model::OperatingPoint;
    use sofa_obs::{MetricsRegistry, TraceRecorder};
    use sofa_serve::{
        FeedbackConfig, FleetConfig, FleetReport, FleetServeSim, OpRouter, RetryPolicy,
        ServeConfig, ServeSim,
    };

    // Three front points with distinct routed / cycle-leanest /
    // energy-leanest picks, so decay, feedback and the energy reroute all
    // change the lowering.
    let entry = |keep: f64, bc: usize, loss: f64, cycles: u64, energy: f64| CandidateEval {
        candidate: DseCandidate {
            keep_ratios: vec![keep, keep],
            tile_sizes: vec![bc, bc],
        },
        metrics: MetricVector {
            loss,
            cycles,
            energy_pj: energy,
            area_mm2: 5.0,
        },
    };
    let front = ParetoFront::new(
        &[
            entry(0.25, 16, 0.10, 120, 6.0e7),
            entry(0.4, 32, 0.11, 80, 9.0e7),
            entry(0.05, 8, 0.30, 40, 2.0e7),
        ],
        &entry(0.25, 16, 0.12, 130, 7.0e7),
    );
    let feedback = FeedbackConfig::new(40_000);
    let trace = |n: usize, rate: f64, seed: u64, seq_len: usize, prefill: usize| {
        let mut tc = TraceConfig::new(n, rate, seed);
        tc.seq_len = seq_len;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = prefill;
        RequestTrace::generate(&tc)
    };
    // (name, edit) pairs shared by both grids; `budget` is the per-request
    // energy ceiling of the grid's trace shape.
    type Variant = (&'static str, fn(&mut ServeConfig, f64));
    let variants: [Variant; 5] = [
        ("base", |_, _| {}),
        ("energy", |c, b| c.energy_budget_pj_per_req = Some(b)),
        ("retry", |c, b| {
            c.energy_budget_pj_per_req = Some(b);
            c.retry = Some(RetryPolicy {
                backoff_cycles: 20_000,
                max_retries: 2,
                keep_factor: 0.5,
            });
        }),
        // Retries that mostly exhaust: one attempt, barely leaner.
        ("retry_exhaust", |c, b| {
            c.energy_budget_pj_per_req = Some(b);
            c.retry = Some(RetryPolicy {
                backoff_cycles: 20_000,
                max_retries: 1,
                keep_factor: 0.95,
            });
        }),
        ("nocache", |c, _| c.lowering_cache = false),
    ];
    let mut lines = Vec::new();

    let serve_trace = trace(32, 300.0, 19, 512, 16);
    let routers = [
        ("native", OpRouter::TraceNative),
        ("pareto", OpRouter::Pareto(&front)),
        ("feedback", OpRouter::Feedback(&front, &feedback)),
    ];
    let serve_variants = variants.iter().copied().chain([(
        "decay",
        (|c, _| c.decay_threshold = Some(10_000)) as fn(&mut ServeConfig, f64),
    )]);
    for (variant, edit) in serve_variants {
        for (router_name, router) in routers {
            let mut cfg = ServeConfig::new(HwConfig::small(), 2);
            cfg.op = OperatingPoint::single(0.25, 64);
            edit(&mut cfg, 2.0e7);
            let sim = ServeSim::new(cfg);
            let (report, cache) = sim.run_with_cache_stats(&serve_trace, router);
            let mut obs = TraceRecorder::enabled();
            let mut metrics = MetricsRegistry::new();
            let traced = sim.run_traced(&serve_trace, router, &mut obs, &mut metrics);
            assert_eq!(report, traced, "tracing must not perturb the report");
            lines.push(format!(
                "{{\"case\":\"serve/{router_name}/{variant}\",\"report\":\"{:016x}\",\
                 \"served\":{},\"shed\":{},\"retried\":{},\"total_cycles\":{},\
                 \"trace\":\"{:016x}\",\"metrics\":\"{:016x}\",\"cache\":[{},{}]}}",
                fnv1a(&format!("{report:?}")),
                report.records.len(),
                report.shed.len(),
                report.retried,
                report.total_cycles,
                fnv1a(&obs.to_chrome_json()),
                fnv1a(&metrics.to_json()),
                cache.hits,
                cache.misses,
            ));
        }
    }

    // Every field of a fleet report, in declaration order.
    let fleet_fields = |r: &FleetReport| {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            r.served,
            r.shed,
            r.rerouted,
            r.retried,
            r.prefills,
            r.decodes,
            r.latency,
            r.queueing,
            r.total_cycles,
            r.nodes,
            r.fabric,
            r.energy_pj,
            r.requests_per_node,
            r.peak_inflight_bytes,
            r.budget_bytes,
        )
    };
    let fleet_trace = trace(48, 300.0, 42, 256, 8);
    for (variant, edit) in variants {
        for (nodes, ipn, disaggregate) in [(1, 1, false), (2, 2, false), (3, 2, true)] {
            for (router_name, router) in &routers[..2] {
                let mut cfg = FleetConfig::new(HwConfig::small(), nodes, ipn);
                cfg.epoch_cycles = 4096;
                cfg.disaggregate = disaggregate;
                edit(&mut cfg.serve, 1.0e7);
                let retrying = cfg.serve.retry.is_some();
                let sim = FleetServeSim::new(cfg);
                let (report, cache) = sim.run_with_cache_stats(&fleet_trace, *router);
                let mut obs = TraceRecorder::enabled();
                let mut metrics = MetricsRegistry::new();
                let traced = sim.run_traced(&fleet_trace, *router, &mut obs, &mut metrics);
                assert_eq!(report, traced, "tracing must not perturb the report");
                let cache = if retrying {
                    "null".to_string()
                } else {
                    format!("[{},{}]", cache.hits, cache.misses)
                };
                lines.push(format!(
                    "{{\"case\":\"fleet{nodes}x{ipn}{}/{router_name}/{variant}\",\
                     \"report\":\"{:016x}\",\"served\":{},\"shed\":{},\"retried\":{},\
                     \"total_cycles\":{},\"trace\":\"{:016x}\",\"metrics\":\"{:016x}\",\
                     \"cache\":{cache}}}",
                    if disaggregate { "d" } else { "" },
                    fnv1a(&fleet_fields(&report)),
                    report.served,
                    report.shed,
                    report.retried,
                    report.total_cycles,
                    fnv1a(&obs.to_chrome_json()),
                    fnv1a(&metrics.to_json()),
                ));
            }
        }
    }
    let json = format!("[\n{}\n]\n", lines.join(",\n"));
    assert_matches_golden("serve_router_exact.json", &json);
}

#[test]
fn golden_snapshots_are_valid_single_line_json_objects() {
    // A sanity net over the snapshot files themselves (they are consumed by
    // artifact tooling, not only by this test): non-empty, one line, object-
    // shaped, and carrying the expected keys. Skipped while regenerating —
    // the snapshot tests may still be writing the files in parallel.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    for name in [
        "sim_cycle_vs_analytic.json",
        "serve_throughput_latency.json",
        "dse_pareto.json",
        "serve_routed.json",
        "serve_fleet.json",
        "serve_adaptive.json",
    ] {
        let text = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden snapshot {name} ({e}); see module docs"));
        assert!(!text.is_empty(), "{name} is empty");
        assert_eq!(text.lines().count(), 1, "{name} must be a single line");
        assert!(text.starts_with('{') && text.ends_with('}'), "{name} shape");
        for key in ["\"title\":", "\"headers\":", "\"rows\":"] {
            assert!(text.contains(key), "{name} lacks {key}");
        }
    }
}
