//! Property-based tests (proptest) on the core data structures and invariants
//! of the SOFA reproduction.

use proptest::prelude::*;
use sofa_core::dlzs::{DlzsPredictor, PredictionStats};
use sofa_core::lze::{approx_mul_dlzs, approx_mul_vanilla, encode, LzCode};
use sofa_core::ops::{OpCounts, OpKind};
use sofa_core::sads::{sads_topk_row, SadsConfig};
use sofa_core::sufa::{sorted_updating_attention, SuFaOrder};
use sofa_core::topk::{topk_exact, topk_row_exact, TopKMask};
use sofa_sim::dram::{DramChannel, DramRequest, Issued};
use sofa_tensor::attention::{attention_scores, masked_attention};
use sofa_tensor::fixed::{packed_bytes, Quantized};
use sofa_tensor::softmax::softmax_row;
use sofa_tensor::stats::{max_abs_diff, recall};
use sofa_tensor::Matrix;
use std::collections::VecDeque;

fn finite_row(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-50.0f32..50.0, 1..max_len)
}

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("length matches"))
}

/// Strings over JSON's token alphabet: structure, string quoting and
/// escapes, number characters, the letters of the literals, whitespace and
/// one multibyte character.
fn json_token_soup(max_len: usize) -> impl Strategy<Value = String> {
    const TOKENS: &[&str] = &[
        "{", "}", "[", "]", ",", ":", "\"", "\\", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9",
        "-", ".", "e", "E", "t", "r", "u", "f", "a", "l", "s", "n", " ", "\n", "\t", "\r", "é",
    ];
    prop::collection::vec(0usize..TOKENS.len(), 0..max_len)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// The scalar DLZS kernels as they stood before the contiguous-lane
/// rewrite, kept as the differential reference: a column walk of `W_k`,
/// one `approx_mul_dlzs` and two `OpCounts::record` calls per lane.
struct ScalarDlzs {
    wk_codes: Vec<LzCode>,
    input_dim: usize,
    head_dim: usize,
    wk_scale: f32,
}

impl ScalarDlzs {
    fn prepare(wk: &Matrix) -> Self {
        let q = Quantized::from_matrix(8, wk);
        let codes = q
            .codes()
            .iter()
            .map(|&c| encode(c, 8))
            .collect::<Vec<LzCode>>();
        ScalarDlzs {
            wk_codes: codes,
            input_dim: wk.rows(),
            head_dim: wk.cols(),
            wk_scale: q.params.scale,
        }
    }

    fn weight_storage_bytes(&self) -> u64 {
        packed_bytes(self.wk_codes.len(), LzCode::storage_bits(8)) as u64
    }

    fn predict_keys(&self, x: &Matrix, stats: &mut PredictionStats) -> Matrix {
        assert_eq!(x.cols(), self.input_dim, "token width mismatch");
        let xq = Quantized::from_matrix(8, x);
        let out_scale = xq.params.scale * self.wk_scale;
        let rows = sofa_par::par_map_index(x.rows(), |i| {
            let xrow = xq.row(i);
            let mut ops = OpCounts::new();
            let mut vals = vec![0.0f32; self.head_dim];
            for (j, slot) in vals.iter_mut().enumerate() {
                let mut acc: i64 = 0;
                for (n, &xv) in xrow.iter().enumerate() {
                    let code = self.wk_codes[n * self.head_dim + j];
                    if xv == 0 || code.is_zero() {
                        continue;
                    }
                    acc += approx_mul_dlzs(xv, code);
                    ops.record(OpKind::Shift, 1);
                    ops.record(OpKind::Add, 1);
                }
                let acc = acc.clamp(i16::MIN as i64, i16::MAX as i64);
                *slot = acc as f32 * out_scale;
            }
            (vals, ops)
        });
        let mut out = Matrix::zeros(x.rows(), self.head_dim);
        for (i, (vals, ops)) in rows.into_iter().enumerate() {
            out.row_mut(i).copy_from_slice(&vals);
            stats.ops += ops;
        }
        stats.weight_bytes += self.weight_storage_bytes();
        stats.activation_bytes += (x.rows() * x.cols()) as u64;
        out
    }

    fn predict_scores(&self, q: &Matrix, k_hat: &Matrix, stats: &mut PredictionStats) -> Matrix {
        assert_eq!(q.cols(), k_hat.cols(), "head dimension mismatch");
        let qq = Quantized::from_matrix(16, q);
        let kq = Quantized::from_matrix(16, k_hat);
        let out_scale = qq.params.scale * kq.params.scale;
        let q_codes: Vec<LzCode> = qq.codes().iter().map(|&c| encode(c, 16)).collect();
        stats.ops.record(OpKind::LzEncode, q_codes.len() as u64);
        let rows = sofa_par::par_map_index(q.rows(), |i| {
            let qrow = &q_codes[i * q.cols()..(i + 1) * q.cols()];
            let mut ops = OpCounts::new();
            let mut vals = vec![0.0f32; k_hat.rows()];
            for (j, slot) in vals.iter_mut().enumerate() {
                let krow = kq.row(j);
                let mut acc: i64 = 0;
                for (d, &code) in qrow.iter().enumerate() {
                    let kv = krow[d];
                    if kv == 0 || code.is_zero() {
                        continue;
                    }
                    acc += approx_mul_dlzs(kv, code);
                    ops.record(OpKind::Shift, 1);
                    ops.record(OpKind::Add, 1);
                }
                *slot = acc as f32 * out_scale;
            }
            (vals, ops)
        });
        let mut out = Matrix::zeros(q.rows(), k_hat.rows());
        for (i, (vals, ops)) in rows.into_iter().enumerate() {
            out.row_mut(i).copy_from_slice(&vals);
            stats.ops += ops;
        }
        stats.activation_bytes += (q.rows() * q.cols() * 2) as u64;
        out
    }
}

/// A `rows × cols` matrix drawn from `seed`: entries uniform in `[-1, 1)`,
/// or, with `signs`, of magnitude in `[0.5, 1)` and sign `signs(i, j)`.
/// Rows in `zero_rows` and columns in `zero_cols` are all zero.
fn seeded_matrix(
    rows: usize,
    cols: usize,
    seed: u64,
    signs: Option<fn(usize, usize) -> f32>,
    zero_rows: &[usize],
    zero_cols: &[usize],
) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let bits = sofa_tensor::rng::derive_seed(seed, (i * cols + j) as u64);
        let u = (bits >> 40) as f32 / (1u64 << 24) as f32;
        if zero_rows.contains(&i) || zero_cols.contains(&j) {
            0.0
        } else {
            match signs {
                Some(sign) => sign(i, j) * (0.5 + 0.5 * u),
                None => 2.0 * u - 1.0,
            }
        }
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Brute-force reference for `sofa_sim::dram::DramChannel`: per-port
/// queues, round-robin by walking the ports in cyclic order, and the aging
/// pick as the channel ran it before it kept head stamps — a scan of every
/// queue's head for the longest wait at or beyond the threshold, lowest port
/// on ties.
struct ReferenceDram {
    bytes_per_cycle: f64,
    burst_latency: u64,
    command_cycles: u64,
    age_threshold: u64,
    queues: Vec<VecDeque<(DramRequest, u64)>>,
    next_port: usize,
    busy: bool,
    bytes_read: u64,
    bytes_written: u64,
    aged_issues: u64,
    queue_wait_cycles: u64,
    issued_requests: u64,
}

impl ReferenceDram {
    fn new(
        ports: usize,
        bytes_per_cycle: f64,
        burst_latency: u64,
        age_threshold: u64,
        command_cycles: u64,
    ) -> Self {
        ReferenceDram {
            bytes_per_cycle,
            burst_latency,
            command_cycles,
            age_threshold,
            queues: vec![VecDeque::new(); ports],
            next_port: 0,
            busy: false,
            bytes_read: 0,
            bytes_written: 0,
            aged_issues: 0,
            queue_wait_cycles: 0,
            issued_requests: 0,
        }
    }

    fn enqueue(&mut self, req: DramRequest, now: u64) {
        self.queues[req.port].push_back((req, now));
    }

    fn aged_port(&self, now: u64) -> Option<usize> {
        if self.age_threshold == u64::MAX {
            return None;
        }
        self.queues
            .iter()
            .enumerate()
            .filter_map(|(p, q)| q.front().map(|&(_, at)| (p, now.saturating_sub(at))))
            .filter(|&(_, wait)| wait >= self.age_threshold)
            .max_by_key(|&(p, wait)| (wait, std::cmp::Reverse(p)))
            .map(|(p, _)| p)
    }

    fn try_issue(&mut self, now: u64) -> Option<Issued> {
        if self.busy {
            return None;
        }
        let ports = self.queues.len();
        let port = match self.aged_port(now) {
            Some(aged) => {
                self.aged_issues += 1;
                aged
            }
            None => (0..ports)
                .map(|k| (self.next_port + k) % ports)
                .find(|&p| !self.queues[p].is_empty())?,
        };
        let (req, enqueued_at) = self.queues[port].pop_front().expect("picked port has work");
        self.next_port = (port + 1) % ports;
        let transfer =
            self.command_cycles + (req.bytes as f64 / self.bytes_per_cycle).ceil() as u64;
        self.busy = true;
        self.queue_wait_cycles += now.saturating_sub(enqueued_at);
        self.issued_requests += 1;
        if req.write {
            self.bytes_written += req.bytes;
        } else {
            self.bytes_read += req.bytes;
        }
        Some(Issued {
            request: req,
            free_at: now + transfer,
            done_at: now + transfer + self.burst_latency,
        })
    }

    fn mean_queue_wait(&self) -> f64 {
        if self.issued_requests == 0 {
            return 0.0;
        }
        self.queue_wait_cycles as f64 / self.issued_requests as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- softmax / numeric substrate ----------------

    #[test]
    fn softmax_is_a_probability_distribution(row in finite_row(64)) {
        let p = softmax_row(&row);
        prop_assert_eq!(p.len(), row.len());
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    #[test]
    fn softmax_is_shift_invariant(row in finite_row(32), shift in -100.0f32..100.0) {
        let a = softmax_row(&row);
        let shifted: Vec<f32> = row.iter().map(|x| x + shift).collect();
        let b = softmax_row(&shifted);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_transposed_is_consistent_with_transpose(
        a in small_matrix(4, 6),
        b in small_matrix(5, 6),
    ) {
        let direct = a.matmul_transposed(&b).unwrap();
        let via = a.matmul(&b.transpose()).unwrap();
        prop_assert!(max_abs_diff(&direct, &via) < 1e-4);
    }

    // ---------------- leading-zero encoding ----------------

    /// The contiguous-lane DLZS kernels equal the scalar reference bit for
    /// bit, counters included: odd shapes, all-zero token rows, weight rows
    /// and columns, `K̂` columns and `Q` rows, and (`clamp`) positive tokens
    /// against weight columns of alternating sign, so `K̂` saturates at both
    /// ends of the i16 range.
    #[test]
    fn dlzs_kernels_match_the_scalar_reference(
        dims in (1usize..40, 1usize..24, 1usize..48, 1usize..8),
        seed in 0u64..1_000_000,
        clamp in prop::bool::ANY,
    ) {
        let (input_dim, head_dim, seq_len, queries) = dims;
        let zero_rows = [0, seq_len / 2];
        let (x, wk) = if clamp {
            let alternating: fn(usize, usize) -> f32 = |_, j| if j % 2 == 0 { 1.0 } else { -1.0 };
            (
                seeded_matrix(seq_len, input_dim, seed, Some(|_, _| 1.0), &zero_rows, &[]),
                seeded_matrix(input_dim, head_dim, seed + 1, Some(alternating), &[], &[]),
            )
        } else {
            let zero_w_row = [input_dim / 2];
            (
                seeded_matrix(seq_len, input_dim, seed, None, &zero_rows, &[input_dim / 3]),
                seeded_matrix(input_dim, head_dim, seed + 1, None, &zero_w_row, &[head_dim / 2]),
            )
        };
        let q = seeded_matrix(queries, head_dim, seed + 2, None, &[queries / 2], &[head_dim / 3]);

        let fast = DlzsPredictor::prepare(&wk);
        let slow = ScalarDlzs::prepare(&wk);
        let (mut fs, mut ss) = (PredictionStats::default(), PredictionStats::default());
        let k_fast = fast.predict_keys(&x, &mut fs);
        let k_slow = slow.predict_keys(&x, &mut ss);
        prop_assert_eq!(bits(&k_fast), bits(&k_slow));
        prop_assert_eq!(fs, ss);
        let live_row = (0..seq_len).find(|r| !zero_rows.contains(r));
        if let (true, true, Some(i)) = (clamp, input_dim >= 8, live_row) {
            let scale = Quantized::from_matrix(8, &x).params.scale
                * Quantized::from_matrix(8, &wk).params.scale;
            let row = k_fast.row(i);
            prop_assert_eq!(row[0], i16::MAX as f32 * scale);
            if head_dim > 1 {
                prop_assert_eq!(row[1], i16::MIN as f32 * scale);
            }
        }

        // Scores over the predicted keys and over keys with a zero column.
        let k_zero_col = seeded_matrix(seq_len, head_dim, seed + 3, None, &[seq_len / 3], &[0]);
        for k_hat in [&k_fast, &k_zero_col] {
            let (mut fs, mut ss) = (PredictionStats::default(), PredictionStats::default());
            let a_fast = fast.predict_scores(&q, k_hat, &mut fs);
            let a_slow = slow.predict_scores(&q, k_hat, &mut ss);
            prop_assert_eq!(bits(&a_fast), bits(&a_slow));
            prop_assert_eq!(fs, ss);
        }
    }

    #[test]
    fn dlzs_magnitude_is_within_factor_two(x in -127i32..=127, y in -127i32..=127) {
        prop_assume!(x != 0 && y != 0);
        let exact = (x as i64 * y as i64).abs();
        let approx = approx_mul_dlzs(x, encode(y, 8)).abs();
        prop_assert!(approx <= exact);
        prop_assert!(2 * approx >= exact);
    }

    #[test]
    fn dlzs_is_at_least_as_accurate_as_vanilla(x in -127i32..=127, y in -127i32..=127) {
        let exact = x as i64 * y as i64;
        let d = (exact - approx_mul_dlzs(x, encode(y, 8))).abs();
        let v = (exact - approx_mul_vanilla(encode(x, 8), encode(y, 8))).abs();
        prop_assert!(d <= v);
    }

    #[test]
    fn lz_sign_follows_operand_signs(x in -127i32..=127, y in -127i32..=127) {
        let got = approx_mul_dlzs(x, encode(y, 8));
        let exact = x as i64 * y as i64;
        prop_assert!(got.signum() == exact.signum() || got == 0 || exact == 0);
    }

    // ---------------- top-k and SADS ----------------

    #[test]
    fn exact_topk_returns_true_maxima(row in finite_row(128), k in 1usize..16) {
        let mut ops = OpCounts::new();
        let top = topk_row_exact(&row, k, &mut ops);
        prop_assert_eq!(top.len(), k.min(row.len()));
        // Every returned value must be >= every excluded value.
        let selected: std::collections::HashSet<usize> = top.iter().copied().collect();
        let min_sel = top.iter().map(|&i| row[i]).fold(f32::INFINITY, f32::min);
        for (i, &v) in row.iter().enumerate() {
            if !selected.contains(&i) {
                prop_assert!(v <= min_sel + 1e-6);
            }
        }
    }

    #[test]
    fn sads_selection_is_valid_and_sized(row in finite_row(256), k in 1usize..32, segs in 1usize..8) {
        let cfg = SadsConfig::new(segs, 0.5, 2).unwrap();
        let mut ops = OpCounts::new();
        let got = sads_topk_row(&row, k, &cfg, &mut ops);
        prop_assert_eq!(got.len(), k.min(row.len()));
        // No duplicates, all in range, sorted descending by value.
        let set: std::collections::HashSet<usize> = got.iter().copied().collect();
        prop_assert_eq!(set.len(), got.len());
        prop_assert!(got.iter().all(|&i| i < row.len()));
        for w in got.windows(2) {
            prop_assert!(row[w[0]] >= row[w[1]]);
        }
        // The global argmax is always captured.
        let argmax = (0..row.len()).max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap()).unwrap();
        prop_assert!(set.contains(&argmax) || row.iter().filter(|&&v| v == row[argmax]).count() > 1);
    }

    #[test]
    fn sads_recall_of_exact_topk_is_never_terrible(seed in 0u64..500) {
        use sofa_model::{ScoreDistribution, ScoreWorkload};
        let w = ScoreWorkload::generate(&ScoreDistribution::bert_like(), 2, 128, seed);
        let k = 32;
        let (mask, _) = sofa_core::sads::sads_topk(&w.scores, k, &SadsConfig::paper_default());
        let mut ops = OpCounts::new();
        let exact = topk_exact(&w.scores, k, &mut ops);
        for i in 0..2 {
            prop_assert!(recall(mask.row(i), exact.row(i)) >= 0.5);
        }
    }

    // ---------------- SU-FA exactness ----------------

    #[test]
    fn sufa_matches_masked_attention_for_random_masks(
        q in small_matrix(3, 8),
        k in small_matrix(24, 8),
        v in small_matrix(24, 8),
        keep in 1usize..24,
    ) {
        let scores = attention_scores(&q, &k);
        let mut ops = OpCounts::new();
        let mask = topk_exact(&scores, keep, &mut ops);
        let want = masked_attention(&q, &k, &v, &mask.to_bool_rows());
        for order in [SuFaOrder::Descending, SuFaOrder::Ascending] {
            let mut ops = OpCounts::new();
            let (got, _) = sorted_updating_attention(&q, &k, &v, &mask, order, &mut ops);
            prop_assert!(max_abs_diff(&got, &want) < 1e-3);
        }
    }

    #[test]
    fn sufa_descending_never_uses_more_exp_than_ascending(
        q in small_matrix(2, 8),
        k in small_matrix(16, 8),
        v in small_matrix(16, 8),
    ) {
        let scores = attention_scores(&q, &k);
        let mut ops = OpCounts::new();
        let mask = topk_exact(&scores, 8, &mut ops);
        let mut d = OpCounts::new();
        let _ = sorted_updating_attention(&q, &k, &v, &mask, SuFaOrder::Descending, &mut d);
        let mut a = OpCounts::new();
        let _ = sorted_updating_attention(&q, &k, &v, &mask, SuFaOrder::Ascending, &mut a);
        prop_assert!(d.exp <= a.exp);
    }

    // ---------------- mask invariants ----------------

    #[test]
    fn mask_union_contains_every_row_index(rows in prop::collection::vec(
        prop::collection::vec(0usize..64, 0..16), 1..8)
    ) {
        let mask = TopKMask::new(64, rows.clone());
        let union: std::collections::HashSet<usize> = mask.union_of_keys().into_iter().collect();
        for r in &rows {
            for &i in r {
                prop_assert!(union.contains(&i));
            }
        }
        prop_assert!(mask.keep_ratio() <= 1.0 + 1e-9);
    }

    // ---------------- parallel-engine differentials ----------------

    #[test]
    fn parallel_run_batch_is_bit_identical_to_sequential_runs(
        num_workloads in 1usize..6,
        seed in 0u64..500,
        keep in 1usize..4,
    ) {
        use sofa_core::pipeline::{PipelineConfig, SofaPipeline};
        use sofa_model::{AttentionWorkload, ScoreDistribution};

        let dists = [
            ScoreDistribution::bert_like(),
            ScoreDistribution::gpt_like(),
            ScoreDistribution::llama_like(),
        ];
        let workloads: Vec<AttentionWorkload> = (0..num_workloads)
            .map(|i| {
                let s = 64 + 32 * (i % 3);
                AttentionWorkload::generate(
                    &dists[i % dists.len()], 4 + i, s, 32, 16, seed + i as u64,
                )
            })
            .collect();
        let pipeline =
            SofaPipeline::new(PipelineConfig::new(keep as f64 * 0.2, 16).unwrap());
        let op = sofa_model::OperatingPoint::single(keep as f64 * 0.2, 16);
        let solo: Vec<_> = workloads.iter().map(|w| pipeline.run(w)).collect();
        for threads in [1usize, 2, 8] {
            let batch =
                sofa_par::with_threads(threads, || pipeline.run_batch(&op, &workloads));
            prop_assert_eq!(batch.len(), solo.len());
            for (b, s) in batch.iter().zip(solo.iter()) {
                // Bit-for-bit: outputs, masks and every per-stage counter.
                prop_assert_eq!(&b.output, &s.output, "threads={}", threads);
                prop_assert_eq!(&b.mask, &s.mask, "threads={}", threads);
                prop_assert_eq!(b.prediction, s.prediction, "threads={}", threads);
                prop_assert_eq!(b.sorting_ops, s.sorting_ops, "threads={}", threads);
                prop_assert_eq!(
                    b.kv_generation_ops, s.kv_generation_ops, "threads={}", threads
                );
                prop_assert_eq!(b.formal_ops, s.formal_ops, "threads={}", threads);
                prop_assert_eq!(b.keys_generated, s.keys_generated, "threads={}", threads);
            }
        }
    }

    // ---------------- serving invariants ----------------

    #[test]
    fn serving_conserves_dram_traffic_and_respects_the_buffer_budget(
        num_requests in 4usize..20,
        rate in 20.0f64..400.0,
        instances in 1usize..4,
        seed in 0u64..1_000,
    ) {
        use sofa_hw::accel::AttentionTask;
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{ServeConfig, ServeSim};
        use sofa_sim::CycleSim;

        let mut tc = TraceConfig::new(num_requests, rate, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let mut cfg = ServeConfig::new(HwConfig::small(), instances);
        cfg.op = sofa_model::OperatingPoint::single(0.25, 32);
        let report = ServeSim::new(cfg.clone()).run(&trace);

        // Conservation: shared-channel traffic equals the summed per-request
        // descriptor traffic, independent of arbitration and placement.
        let mut csim = CycleSim::new(cfg.hw);
        csim.params = cfg.sim;
        let want: u64 = trace.requests.iter().map(|spec| {
            let op = cfg.op.with_uniform_keep(spec.keep_ratio);
            let task = AttentionTask::at_layer(
                spec.queries, spec.seq_len, spec.hidden, spec.heads, &op, 0,
            );
            csim.job(&task, None).total_dram_bytes()
        }).sum();
        prop_assert_eq!(report.multi.dram.total_bytes(), want);

        // Capacity: booked footprints never exceed the budget while more
        // than one request shares an instance (an idle instance may accept
        // one oversized request so service can always progress).
        let largest = report.records.iter().map(|r| r.footprint_bytes).max().unwrap();
        for &peak in &report.peak_inflight_bytes {
            prop_assert!(peak <= report.budget_bytes.max(largest));
        }

        // Liveness + causality: every request completes after admission.
        prop_assert_eq!(report.records.len(), num_requests);
        for r in &report.records {
            prop_assert!(r.admitted >= r.arrival && r.completed > r.admitted);
        }
    }

    #[test]
    fn serving_conserves_requests_under_budgets_and_retry(
        seed in 0u64..1_000,
        budget in 4.0e6f64..1.5e7,
        knobs in 0usize..4,
        nodes in 1usize..4,
    ) {
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestClass, RequestTrace, TraceConfig};
        use sofa_serve::{FleetConfig, FleetServeSim, OpRouter, RetryPolicy, ServeSim};

        // Every arrival ends as exactly one served or shed request, per
        // class, whichever of the energy budget and client retry is on.
        // The router's end-of-run booking check (a debug assertion: every
        // slot's booked bytes and requests back to zero) runs on both paths
        // in this test build.
        let mut tc = TraceConfig::new(16, 300.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let mut cfg = FleetConfig::new(HwConfig::small(), nodes, 2);
        cfg.epoch_cycles = 4096;
        if knobs & 1 != 0 {
            cfg.serve.energy_budget_pj_per_req = Some(budget);
        }
        if knobs & 2 != 0 {
            cfg.serve.retry = Some(RetryPolicy {
                backoff_cycles: 20_000,
                max_retries: 2,
                keep_factor: 0.5,
            });
        }
        let arrived = |class: RequestClass| {
            trace.requests.iter().filter(|r| r.class == class).count()
        };

        let single = ServeSim::new(cfg.serve.clone()).run(&trace);
        for class in [RequestClass::Prefill, RequestClass::Decode] {
            let served = single.records.iter().filter(|r| r.class == class).count();
            let shed = single.shed.iter().filter(|r| r.class == class).count();
            prop_assert_eq!(served + shed, arrived(class), "{:?}", class);
        }
        let mut ids: Vec<u64> = single.records.iter().map(|r| r.id).collect();
        ids.extend(single.shed.iter().map(|r| r.id));
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..trace.len() as u64).collect::<Vec<_>>());

        let fleet = FleetServeSim::new(cfg).run(&trace, OpRouter::TraceNative);
        prop_assert_eq!(fleet.prefills + fleet.decodes, fleet.served);
        prop_assert!(fleet.prefills as usize <= arrived(RequestClass::Prefill));
        prop_assert!(fleet.decodes as usize <= arrived(RequestClass::Decode));
        prop_assert_eq!(fleet.served + fleet.shed, trace.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---------------- DRAM arbitration (sofa-sim::dram) ----------------

    /// The head-stamp aging pick issues exactly what the full queue scan
    /// would, across port counts on both sides of the bitmask's 64-port
    /// words, aging off / always / typical / at once, and with and without
    /// command occupancy. Zero time gaps make same-cycle bursts, so aged
    /// heads tie on their stamp.
    #[test]
    fn dram_arbitration_matches_the_queue_scan_reference(
        ops in prop::collection::vec(
            (0usize..6, 0usize..1_000, 0usize..8, 0u64..3_000),
            1..300,
        ),
    ) {
        const GAPS: [u64; 8] = [0, 0, 0, 0, 1, 2, 64, 300];
        for ports in [1usize, 3, 4, 63, 64, 65, 130] {
            for age_threshold in [0u64, 1, 256, u64::MAX] {
                for command_cycles in [0u64, 32] {
                    let mut fast =
                        DramChannel::with_timing(ports, 64.0, 20, age_threshold, command_cycles);
                    let mut reference =
                        ReferenceDram::new(ports, 64.0, 20, age_threshold, command_cycles);
                    let mut now = 0u64;
                    let mut free_at = 0u64;
                    for (tile, &(kind, port, gap, bytes)) in ops.iter().enumerate() {
                        now += GAPS[gap];
                        match kind {
                            0..=2 => {
                                let req = DramRequest {
                                    port: port % ports,
                                    stage: port % 4,
                                    tile,
                                    bytes,
                                    write: kind == 2,
                                };
                                fast.enqueue(req, now);
                                reference.enqueue(req, now);
                            }
                            3 | 4 => {
                                let issued = fast.try_issue(now);
                                prop_assert_eq!(issued, reference.try_issue(now), "cycle {}", now);
                                if let Some(issued) = issued {
                                    free_at = issued.free_at;
                                }
                            }
                            _ => {
                                fast.release();
                                reference.busy = false;
                            }
                        }
                    }
                    // Drain: release at each free_at and issue the next.
                    while fast.is_active() {
                        now = now.max(free_at);
                        fast.release();
                        reference.busy = false;
                        let issued = fast.try_issue(now);
                        prop_assert_eq!(issued, reference.try_issue(now), "cycle {}", now);
                        free_at = issued.map_or(now, |i| i.free_at);
                    }
                    prop_assert!(reference.queues.iter().all(VecDeque::is_empty));
                    prop_assert_eq!(fast.aged_issues(), reference.aged_issues);
                    prop_assert_eq!(
                        fast.mean_queue_wait().to_bits(),
                        reference.mean_queue_wait().to_bits()
                    );
                    prop_assert_eq!(fast.bytes_read(), reference.bytes_read);
                    prop_assert_eq!(fast.bytes_written(), reference.bytes_written);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Malformed spec or trace text is an `Err`, never a panic.
    #[test]
    fn json_and_spec_parsers_never_panic(text in json_token_soup(96)) {
        let _ = sofa_obs::json::parse(&text);
        let _ = sofa_harness::spec::parse_spec(&text);
    }
}

// The hardware-aware DSE lowers every candidate through the full pipeline +
// cycle simulator, so each case is comparatively expensive — a smaller case
// budget than the block above still sweeps distinct workloads and candidate
// sets.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // ---------------- hardware-aware DSE (sofa-dse) ----------------

    #[test]
    fn parallel_dse_evaluation_matches_sequential_bit_for_bit(seed in 0u64..100) {
        use sofa_dse::{EvalConfig, HwAwareEvaluator};
        use sofa_tensor::seeded_rng;

        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
        let space = evaluator.space();
        let mut rng = seeded_rng(seed ^ 0xD5E);
        let candidates: Vec<_> = (0..5).map(|_| space.sample(&mut rng)).collect();

        // Sequential reference: one candidate at a time, single-threaded.
        let reference: Vec<_> = sofa_par::with_threads(1, || {
            candidates.iter().map(|c| evaluator.evaluate(c)).collect()
        });
        for threads in [1usize, 2, 8] {
            let batch = sofa_par::with_threads(threads, || {
                evaluator.evaluate_batch(&candidates)
            });
            prop_assert_eq!(&batch, &reference, "threads={}", threads);
        }
    }

    // ---------------- fleet serving (sofa-serve::fleet) ----------------

    #[test]
    fn fleet_serving_is_bit_identical_across_thread_counts(
        seed in 0u64..100,
        nodes in 1usize..4,
        disaggregate in prop::bool::ANY,
    ) {
        use sofa_dse::{CandidateEval, DseCandidate, MetricVector, ParetoFront};
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{FeedbackConfig, FleetConfig, FleetServeSim, OpRouter};

        // Nodes step in parallel between synchronization epochs, so the
        // whole fleet report — sketches, fabric stats, per-node cycle
        // reports — must be a pure function of (config, trace) at any
        // SOFA_THREADS. The second case adds decay and feedback routing,
        // whose EWMAs are sampled in the serial boundary step.
        let nodes = if disaggregate { nodes.max(2) } else { nodes };
        let mut tc = TraceConfig::new(16, 120.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let mut cfg = FleetConfig::new(HwConfig::small(), nodes, 2);
        cfg.epoch_cycles = 4096;
        cfg.disaggregate = disaggregate;
        let entry = |keep: f64, bc: usize, loss: f64, cycles: u64, energy_pj: f64| CandidateEval {
            candidate: DseCandidate { keep_ratios: vec![keep], tile_sizes: vec![bc] },
            metrics: MetricVector { loss, cycles, energy_pj, area_mm2: 5.0 },
        };
        let front = ParetoFront::new(
            &[entry(0.25, 16, 0.10, 120, 6.0e7), entry(0.05, 8, 0.30, 40, 2.0e7)],
            &entry(0.25, 16, 0.12, 130, 7.0e7),
        );
        let hot = FeedbackConfig::new(1);
        let adaptive = OpRouter::Feedback(&front, &hot);
        for (router, decay) in [(OpRouter::TraceNative, None), (adaptive, Some(2_048))] {
            cfg.serve.decay_threshold = decay;
            let reference = sofa_par::with_threads(1, || {
                FleetServeSim::new(cfg.clone()).run(&trace, router)
            });
            prop_assert_eq!(reference.served, 16);
            for threads in [1usize, 2, 8] {
                let got = sofa_par::with_threads(threads, || {
                    FleetServeSim::new(cfg.clone()).run(&trace, router)
                });
                prop_assert_eq!(&got, &reference, "threads={}", threads);
            }
        }
    }

    // ---------------- routed serving (sofa-serve × sofa-dse) ----------------

    #[test]
    fn routed_serving_is_bit_identical_across_thread_counts(seed in 0u64..50) {
        use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{ServeConfig, ServeSim};

        // The whole chain — DSE search, Pareto-front routing, per-request
        // lowering, serving simulation — must be a pure function of its
        // inputs at any SOFA_THREADS.
        let mut tc = TraceConfig::new(8, 80.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let sim = ServeSim::new(ServeConfig::new(HwConfig::small(), 2));

        let reference = sofa_par::with_threads(1, || {
            let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
            let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
            sim.run_routed(&trace, &dse)
        });
        for threads in [1usize, 2, 8] {
            let routed = sofa_par::with_threads(threads, || {
                let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
                let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
                sim.run_routed(&trace, &dse)
            });
            prop_assert_eq!(&routed, &reference, "threads={}", threads);
        }
    }

    #[test]
    fn adaptive_serving_is_bit_identical_across_thread_counts(seed in 0u64..30) {
        use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{AdaptiveServeConfig, ServeConfig, ServeSim};

        // Every closed-loop decision — decay of over-waited requests,
        // measured-state feedback routing, shed/retry re-arrivals,
        // energy-budgeted placement — happens in the serial event loop, so
        // both arms of the adaptive study must be a pure function of
        // (config, trace, controller) at any SOFA_THREADS.
        let mut tc = TraceConfig::new(8, 150.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let mut cfg = ServeConfig::new(HwConfig::small(), 2);
        cfg.admit_buffer_bytes = 16 * 1024;
        let sim = ServeSim::new(cfg);
        let controller = AdaptiveServeConfig::targeting(150_000);

        let reference = sofa_par::with_threads(1, || {
            let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
            let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
            sim.run_adaptive_study(&trace, &dse, &controller)
        });
        for threads in [1usize, 2, 8] {
            let study = sofa_par::with_threads(threads, || {
                let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
                let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
                sim.run_adaptive_study(&trace, &dse, &controller)
            });
            prop_assert_eq!(&study, &reference, "threads={}", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // ------------- lowering-cache differentials (cache on == off) -------------
    //
    // The lowering cache is a pure wall-time optimisation: every report must
    // be byte-identical with the cache on and off, at any SOFA_THREADS. A
    // drift here means a cached lowering diverged from a fresh one — the
    // exact bug class the cache's determinism contract forbids.

    #[test]
    fn routed_serving_is_unchanged_by_the_lowering_cache(seed in 0u64..20) {
        use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{ServeConfig, ServeSim};

        let mut tc = TraceConfig::new(8, 80.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
        let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));

        let mut cold_cfg = ServeConfig::new(HwConfig::small(), 2);
        cold_cfg.lowering_cache = false;
        let reference = sofa_par::with_threads(1, || {
            ServeSim::new(cold_cfg.clone()).run_routed(&trace, &dse)
        });
        let cached_cfg = ServeConfig::new(HwConfig::small(), 2);
        prop_assert!(cached_cfg.lowering_cache, "the cache must default on");
        for threads in [1usize, 2, 8] {
            let cached = sofa_par::with_threads(threads, || {
                ServeSim::new(cached_cfg.clone()).run_routed(&trace, &dse)
            });
            prop_assert_eq!(&cached, &reference, "threads={}", threads);
        }
    }

    #[test]
    fn adaptive_serving_is_unchanged_by_the_lowering_cache(seed in 0u64..12) {
        use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{AdaptiveServeConfig, ServeConfig, ServeSim};

        // The adaptive paths re-lower on decay, retry (keep^attempt) and
        // feedback re-routing — every one must hit the same cache discipline.
        let mut tc = TraceConfig::new(8, 150.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
        let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
        let controller = AdaptiveServeConfig::targeting(150_000);
        let mut cfg = ServeConfig::new(HwConfig::small(), 2);
        cfg.admit_buffer_bytes = 16 * 1024;

        let mut cold_cfg = cfg.clone();
        cold_cfg.lowering_cache = false;
        let reference = sofa_par::with_threads(1, || {
            ServeSim::new(cold_cfg.clone()).run_adaptive_study(&trace, &dse, &controller)
        });
        for threads in [1usize, 2, 8] {
            let cached = sofa_par::with_threads(threads, || {
                ServeSim::new(cfg.clone()).run_adaptive_study(&trace, &dse, &controller)
            });
            prop_assert_eq!(&cached, &reference, "threads={}", threads);
        }
    }

    #[test]
    fn fleet_serving_is_unchanged_by_the_lowering_cache(
        seed in 0u64..20,
        nodes in 1usize..4,
    ) {
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{FleetConfig, FleetServeSim, OpRouter};

        let mut tc = TraceConfig::new(16, 120.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let mut cfg = FleetConfig::new(HwConfig::small(), nodes, 2);
        cfg.epoch_cycles = 4096;

        let mut cold_cfg = cfg.clone();
        cold_cfg.serve.lowering_cache = false;
        let reference = sofa_par::with_threads(1, || {
            FleetServeSim::new(cold_cfg.clone()).run(&trace, OpRouter::TraceNative)
        });
        for threads in [1usize, 2, 8] {
            let cached = sofa_par::with_threads(threads, || {
                FleetServeSim::new(cfg.clone()).run(&trace, OpRouter::TraceNative)
            });
            prop_assert_eq!(&cached, &reference, "threads={}", threads);
        }
    }

    #[test]
    fn dse_search_is_unchanged_by_candidate_dedup(seed in 0u64..12) {
        use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};

        // Dedup answers repeated proposals from the memo; everything except
        // the evals_saved counter itself must be bit-identical to the
        // re-evaluating run, at any SOFA_THREADS.
        let mut cold_cfg = DseSearchConfig::smoke(seed);
        cold_cfg.dedup = false;
        let mut reference = sofa_par::with_threads(1, || {
            let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
            hardware_aware_search(&evaluator, &cold_cfg)
        });
        prop_assert_eq!(reference.evals_saved, 0, "dedup off must save nothing");
        let cfg = DseSearchConfig::smoke(seed);
        prop_assert!(cfg.dedup, "dedup must default on");
        for threads in [1usize, 2, 8] {
            let mut deduped = sofa_par::with_threads(threads, || {
                let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
                hardware_aware_search(&evaluator, &cfg)
            });
            // evals_saved is the one field dedup is allowed to change.
            deduped.evals_saved = 0;
            reference.evals_saved = 0;
            prop_assert_eq!(&deduped, &reference, "threads={}", threads);
        }
    }
}
