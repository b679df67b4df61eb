//! Cross-phase DLZS sparsity prediction (paper §III-A, Fig. 7).
//!
//! The pre-compute stage of dynamic sparsity has to estimate the attention
//! matrix  just to decide which Q-K pairs matter, and at LTPP scale a naïve
//! low-precision matrix multiply already costs more power than the formal
//! computation it is trying to save. SOFA replaces every multiplication in
//! the prediction path with a shift:
//!
//! 1. **Offline** — the key projection weights `W_k` are quantised to 8 bits
//!    and converted once into 4-bit leading-zero codes ([`LzCode`]).
//! 2. **Key-prediction phase** — `K̂ = X ⊙ W_k` where `⊙` shifts the 8-bit
//!    token value by the weight's exponent and accumulates (no multiplier, no
//!    on-line converter).
//! 3. **Attention-prediction phase** — `Q` is converted to 5-bit codes by the
//!    configurable LZE (to avoid compounding the error, the *other* operand
//!    `K̂` keeps its 16-bit value) and `Â = K̂ ⊙ Q` is again a shift-add.
//!
//! Two baselines are provided for the ablation experiments: a 4-bit
//! multiplication predictor (what prior accelerators do) and the vanilla
//! leading-one scheme that converts *both* operands.
//!
//! **Host emulation.** The modelled hardware shifts each full-precision
//! operand by the other's exponent, lane by lane, and its zero-eliminator
//! drops lanes with a zero operand. The host computes the identical integer
//! differently: each code is decoded once per call into its signed power of
//! two ([`LzCode::value`]), and a plain multiply-add over contiguous lanes
//! equals the shift ([`approx_mul_dlzs`](crate::lze::approx_mul_dlzs)) on
//! every operand pair, with a zero lane adding 0. `K̂` walks the row-major
//! `W_k` row by row in `i32` lanes (`i64` past 2^17 input features) and
//! `Â` is an `i64` dot product of a `K̂` code row and a decoded `Q` row;
//! integer sums are order-free, so both are bit-identical to the lane-by-lane
//! loop. The shift and add counts come from nonzero-lane counts — for a `K̂`
//! row, the nonzero weights of every row of `W_k` its nonzero tokens meet;
//! for an `Â` row, the nonzero `K̂` entries of every column its nonzero `Q`
//! codes meet — and are recorded once per output row.

use crate::lze::{approx_mul_vanilla, encode, LzCode};
use crate::ops::{OpCounts, OpKind};
use sofa_tensor::fixed::{packed_bytes, Quantized};
use sofa_tensor::Matrix;

/// Operation and traffic statistics of one prediction pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredictionStats {
    /// Primitive operations executed.
    pub ops: OpCounts,
    /// Bytes of weight data that must be streamed from DRAM.
    pub weight_bytes: u64,
    /// Bytes of token/query activations streamed from DRAM.
    pub activation_bytes: u64,
}

impl PredictionStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes + self.activation_bytes
    }
}

/// The DLZS predictor with pre-converted `W_k` codes.
#[derive(Debug, Clone)]
pub struct DlzsPredictor {
    /// Leading-zero codes of the quantised `W_k`, shape `(input_dim, head_dim)`.
    wk_codes: Vec<LzCode>,
    input_dim: usize,
    head_dim: usize,
    /// Scale of the quantised weights (kept to report a consistently scaled K̂).
    wk_scale: f32,
}

impl DlzsPredictor {
    /// Pre-deployment preparation: quantises `wk` to 8 bits and converts it to
    /// leading-zero codes (paper Fig. 16, "Preprocess: Convert Wk in LZ
    /// format and store").
    pub fn prepare(wk: &Matrix) -> Self {
        let q = Quantized::from_matrix(8, wk);
        let codes = q
            .codes()
            .iter()
            .map(|&c| encode(c, 8))
            .collect::<Vec<LzCode>>();
        DlzsPredictor {
            wk_codes: codes,
            input_dim: wk.rows(),
            head_dim: wk.cols(),
            wk_scale: q.params.scale,
        }
    }

    /// Head dimension of the prepared weights.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Input (embedding) dimension of the prepared weights.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Bytes of DRAM the pre-converted weights occupy (4-bit exponent + sign
    /// packed into 5 bits per weight, as in the paper's storage analysis).
    pub fn weight_storage_bytes(&self) -> u64 {
        packed_bytes(self.wk_codes.len(), LzCode::storage_bits(8)) as u64
    }

    /// Phase 1.1 — predicts `K̂ = X · W_k` with shift-add only.
    ///
    /// `x` has shape `(seq_len, input_dim)`; the result has shape
    /// `(seq_len, head_dim)` and is returned on the same scale as an exact
    /// `X·W_k` product (so it can be compared against the true keys).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim`.
    pub fn predict_keys(&self, x: &Matrix, stats: &mut PredictionStats) -> Matrix {
        assert_eq!(x.cols(), self.input_dim, "token width mismatch");
        let xq = Quantized::from_matrix(8, x);
        let out_scale = xq.params.scale * self.wk_scale;
        // Weights decode to ±2^(e−1) ≤ 128 in magnitude, so every
        // token-weight product fits an i16.
        let w_vals: Vec<i16> = self.wk_codes.iter().map(|c| c.value() as i16).collect();
        let hd = self.head_dim;
        let w_row_nnz: Vec<u64> = (0..self.input_dim)
            .map(|n| {
                w_vals[n * hd..(n + 1) * hd]
                    .iter()
                    .filter(|&&v| v != 0)
                    .count() as u64
            })
            .collect();
        let narrow = self.input_dim < I32_LANE_MAX_TERMS;
        // Token rows are independent: fan out across cores and merge in row
        // order, so K̂ and the counters are identical at any thread count.
        let rows = sofa_par::par_map_index(x.rows(), |i| {
            let xrow = xq.row(i);
            let mut vals = vec![0.0f32; hd];
            if narrow {
                key_row::<i32>(xrow, &w_vals, out_scale, &mut vals);
            } else {
                key_row::<i64>(xrow, &w_vals, out_scale, &mut vals);
            }
            (vals, live_lanes(xrow, &w_row_nnz))
        });
        let mut out = Matrix::zeros(x.rows(), self.head_dim);
        for (i, (vals, lanes)) in rows.into_iter().enumerate() {
            out.row_mut(i).copy_from_slice(&vals);
            record_shift_adds(&mut stats.ops, lanes);
        }
        stats.weight_bytes += self.weight_storage_bytes();
        stats.activation_bytes += (x.rows() * x.cols()) as u64; // 8-bit tokens
        out
    }

    /// Phase 1.2 — predicts `Â = Q · K̂ᵀ` with `Q` converted to the log domain.
    ///
    /// `q` has shape `(queries, head_dim)`, `k_hat` has shape
    /// `(seq_len, head_dim)`; the result is `(queries, seq_len)`.
    ///
    /// # Panics
    ///
    /// Panics if the head dimensions disagree.
    pub fn predict_scores(
        &self,
        q: &Matrix,
        k_hat: &Matrix,
        stats: &mut PredictionStats,
    ) -> Matrix {
        assert_eq!(q.cols(), k_hat.cols(), "head dimension mismatch");
        let qq = Quantized::from_matrix(16, q);
        let kq = Quantized::from_matrix(16, k_hat);
        let out_scale = qq.params.scale * kq.params.scale;
        // Convert Q once per element (configurable 16-bit LZE), decoded to
        // ±2^(e−1): at most 2^15 in magnitude, as is every 16-bit K̂ code.
        let q_vals: Vec<i32> = qq
            .codes()
            .iter()
            .map(|&c| encode(c, 16).value() as i32)
            .collect();
        stats.ops.record(OpKind::LzEncode, q_vals.len() as u64);
        let hd = q.cols();
        let mut k_col_nnz = vec![0u64; hd];
        for j in 0..kq.rows() {
            for (nnz, &kv) in k_col_nnz.iter_mut().zip(kq.row(j)) {
                *nnz += u64::from(kv != 0);
            }
        }

        // Query rows are independent — same fan-out/ordered-merge scheme as
        // the key-prediction phase.
        let rows = sofa_par::par_map_index(q.rows(), |i| {
            let qrow = &q_vals[i * hd..(i + 1) * hd];
            let vals: Vec<f32> = (0..kq.rows())
                .map(|j| dot_i32(kq.row(j), qrow) as f32 * out_scale)
                .collect();
            (vals, live_lanes(qrow, &k_col_nnz))
        });
        let mut out = Matrix::zeros(q.rows(), k_hat.rows());
        for (i, (vals, lanes)) in rows.into_iter().enumerate() {
            out.row_mut(i).copy_from_slice(&vals);
            record_shift_adds(&mut stats.ops, lanes);
        }
        stats.activation_bytes += (q.rows() * q.cols() * 2) as u64; // 16-bit Q
        out
    }

    /// Runs both phases: predicts `K̂` from the tokens, then `Â` from `Q` and
    /// `K̂`. Returns the predicted score matrix together with the statistics.
    pub fn predict(&self, x: &Matrix, q: &Matrix) -> (Matrix, PredictionStats) {
        let mut stats = PredictionStats::default();
        let k_hat = self.predict_keys(x, &mut stats);
        let scores = self.predict_scores(q, &k_hat, &mut stats);
        (scores, stats)
    }
}

/// Terms below which a `K̂` lane cannot overflow an `i32` accumulator: each
/// term is at most `2^14` in magnitude (8-bit token times a weight of at most
/// `2^7`), and `(2^17 − 1)·2^14 < 2^31`.
const I32_LANE_MAX_TERMS: usize = 1 << 17;

/// One `K̂` row: `acc[j] = Σ_n x[n]·w[n][j]`, walking the decoded weights
/// `w_vals` (shape `(xrow.len(), out.len())`) row by row so the inner loop
/// is contiguous, then truncated to 16 bits (as in hardware, before the
/// next phase) and rescaled into `out`. A zero token or weight adds 0, and
/// integer sums are order-free, so every lane equals the zero-eliminated
/// shift-add of [`approx_mul_dlzs`](crate::lze::approx_mul_dlzs).
fn key_row<A>(xrow: &[i32], w_vals: &[i16], out_scale: f32, out: &mut [f32])
where
    A: Copy + Default + From<i16> + Into<i64> + std::ops::AddAssign,
{
    let hd = out.len();
    let mut acc = vec![A::default(); hd];
    for (n, &xv) in xrow.iter().enumerate() {
        let xv = xv as i16;
        for (a, &wv) in acc.iter_mut().zip(&w_vals[n * hd..(n + 1) * hd]) {
            *a += A::from(xv * wv);
        }
    }
    for (slot, a) in out.iter_mut().zip(acc) {
        let a: i64 = a.into();
        *slot = a.clamp(i16::MIN as i64, i16::MAX as i64) as f32 * out_scale;
    }
}

/// `Σ_d k[d]·q[d]` of a 16-bit `K̂` code row and a decoded `Q` row. Each
/// product is at most `2^30` in magnitude; the sum is taken in `i64`.
fn dot_i32(k: &[i32], q: &[i32]) -> i64 {
    k.iter().zip(q).map(|(&kv, &qv)| i64::from(kv * qv)).sum()
}

/// Lanes the zero-eliminator keeps in one output row: each nonzero operand
/// `operands[n]` meets `nnz[n]` nonzero codes.
fn live_lanes(operands: &[i32], nnz: &[u64]) -> u64 {
    operands
        .iter()
        .zip(nnz)
        .filter(|&(&v, _)| v != 0)
        .map(|(_, &n)| n)
        .sum()
}

/// One shift and one add per live lane, recorded in bulk.
fn record_shift_adds(ops: &mut OpCounts, lanes: u64) {
    ops.record(OpKind::Shift, lanes);
    ops.record(OpKind::Add, lanes);
}

/// Baseline: 4-bit integer multiplication prediction of `Q·Kᵀ` (what prior
/// dynamic-sparsity accelerators use in their pre-compute stage). The keys are
/// assumed to have been produced by an exact 8-bit `X·W_k`, whose cost is also
/// counted.
pub fn predict_scores_int4(
    x: &Matrix,
    wk: &Matrix,
    q: &Matrix,
    stats: &mut PredictionStats,
) -> Matrix {
    assert_eq!(x.cols(), wk.rows(), "token width mismatch");
    assert_eq!(q.cols(), wk.cols(), "head dimension mismatch");
    // K generation with 8-bit multiplications.
    let k = x.matmul(wk).expect("shapes checked");
    let macs_k = (x.rows() * x.cols() * wk.cols()) as u64;
    stats.ops.record(OpKind::Mul, macs_k);
    stats.ops.record(OpKind::Add, macs_k);

    // Score prediction with 4-bit multiplications.
    let q4 = Quantized::from_matrix(4, q);
    let k4 = Quantized::from_matrix(4, &k);
    let out_scale = q4.params.scale * k4.params.scale;
    let mut out = Matrix::zeros(q.rows(), k.rows());
    for i in 0..q.rows() {
        let qrow = q4.row(i);
        for j in 0..k.rows() {
            let krow = k4.row(j);
            let mut acc: i64 = 0;
            for (d, &qv) in qrow.iter().enumerate() {
                acc += qv as i64 * krow[d] as i64;
            }
            stats.ops.record(OpKind::Mul, qrow.len() as u64);
            stats.ops.record(OpKind::Add, qrow.len() as u64);
            out.set(i, j, acc as f32 * out_scale);
        }
    }
    stats.weight_bytes += (wk.rows() * wk.cols()) as u64; // 8-bit weights
    stats.activation_bytes += (x.rows() * x.cols()) as u64 + (q.rows() * q.cols()) as u64 / 2;
    out
}

/// Baseline: the vanilla leading-one/zero scheme that converts *both*
/// operands of every multiplication on the fly (paper Fig. 7(b) top).
pub fn predict_scores_vanilla_lz(
    x: &Matrix,
    wk: &Matrix,
    q: &Matrix,
    stats: &mut PredictionStats,
) -> Matrix {
    assert_eq!(x.cols(), wk.rows(), "token width mismatch");
    assert_eq!(q.cols(), wk.cols(), "head dimension mismatch");
    let xq = Quantized::from_matrix(8, x);
    let wq = Quantized::from_matrix(8, wk);
    let k_scale = xq.params.scale * wq.params.scale;

    // K prediction: both operands converted (2 LZEs per MAC operand pair).
    let mut k_hat = Matrix::zeros(x.rows(), wk.cols());
    for i in 0..x.rows() {
        for j in 0..wk.cols() {
            let mut acc: i64 = 0;
            for n in 0..x.cols() {
                let a = xq.code(i, n);
                let b = wq.code(n, j);
                if a == 0 || b == 0 {
                    continue;
                }
                acc += approx_mul_vanilla(encode(a, 8), encode(b, 8));
                stats.ops.record(OpKind::LzEncode, 2);
                stats.ops.record(OpKind::Shift, 1);
                stats.ops.record(OpKind::Add, 1);
            }
            let acc = acc.clamp(i16::MIN as i64, i16::MAX as i64);
            k_hat.set(i, j, acc as f32 * k_scale);
        }
    }

    // Â prediction, again converting both operands.
    let qq = Quantized::from_matrix(16, q);
    let kq = Quantized::from_matrix(16, &k_hat);
    let out_scale = qq.params.scale * kq.params.scale;
    let mut out = Matrix::zeros(q.rows(), k_hat.rows());
    for i in 0..q.rows() {
        for j in 0..k_hat.rows() {
            let mut acc: i64 = 0;
            for d in 0..q.cols() {
                let a = qq.code(i, d);
                let b = kq.code(j, d);
                if a == 0 || b == 0 {
                    continue;
                }
                acc += approx_mul_vanilla(encode(a, 16), encode(b, 16));
                stats.ops.record(OpKind::LzEncode, 2);
                stats.ops.record(OpKind::Shift, 1);
                stats.ops.record(OpKind::Add, 1);
            }
            out.set(i, j, acc as f32 * out_scale);
        }
    }
    // The vanilla scheme keeps full 8-bit weights/tokens in DRAM.
    stats.weight_bytes += (wk.rows() * wk.cols()) as u64;
    stats.activation_bytes += (x.rows() * x.cols()) as u64 + (q.rows() * q.cols() * 2) as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_model::{AttentionWorkload, ScoreDistribution};
    use sofa_tensor::stats::recall;

    fn top_indices(row: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap());
        idx.truncate(k);
        idx
    }

    fn mean_topk_recall(pred: &Matrix, exact: &Matrix, k: usize) -> f64 {
        let mut acc = 0.0;
        for i in 0..pred.rows() {
            let p = top_indices(pred.row(i), k);
            let e = top_indices(exact.row(i), k);
            acc += recall(&p, &e);
        }
        acc / pred.rows() as f64
    }

    fn workload() -> AttentionWorkload {
        AttentionWorkload::generate(&ScoreDistribution::bert_like(), 8, 96, 48, 32, 99)
    }

    #[test]
    fn dlzs_prediction_finds_vital_pairs() {
        let w = workload();
        let pred = DlzsPredictor::prepare(&w.wk);
        let (scores, stats) = pred.predict(&w.x, &w.q);
        assert_eq!(scores.shape(), (8, 96));
        let exact = w.exact_scores();
        let r = mean_topk_recall(&scores, &exact, 96 / 4);
        assert!(r > 0.7, "top-25% recall of DLZS prediction too low: {r}");
        assert_eq!(stats.ops.mul, 0, "DLZS must be multiplier-free");
        assert!(stats.ops.shift > 0);
    }

    #[test]
    fn dlzs_key_prediction_tracks_exact_keys() {
        let w = workload();
        let pred = DlzsPredictor::prepare(&w.wk);
        let mut stats = PredictionStats::default();
        let k_hat = pred.predict_keys(&w.x, &mut stats);
        let k = w.keys();
        // The log-domain approximation underestimates magnitudes by at most
        // 2x, so the correlation with the exact keys should still be strong.
        let cos = sofa_tensor::stats::mean_row_cosine(&k_hat, &k);
        assert!(cos > 0.8, "K̂ should correlate with K, cosine = {cos}");
    }

    #[test]
    fn dlzs_is_cheaper_than_int4_baseline() {
        let w = workload();
        let pred = DlzsPredictor::prepare(&w.wk);
        let (_, dlzs_stats) = pred.predict(&w.x, &w.q);
        let mut int4_stats = PredictionStats::default();
        let _ = predict_scores_int4(&w.x, &w.wk, &w.q, &mut int4_stats);
        assert!(
            dlzs_stats.ops.normalized_complexity() < int4_stats.ops.normalized_complexity(),
            "DLZS {} should beat 4-bit mul {}",
            dlzs_stats.ops.normalized_complexity(),
            int4_stats.ops.normalized_complexity()
        );
    }

    #[test]
    fn dlzs_uses_fewer_converters_and_bytes_than_vanilla() {
        let w = workload();
        let pred = DlzsPredictor::prepare(&w.wk);
        let (_, dlzs_stats) = pred.predict(&w.x, &w.q);
        let mut vanilla_stats = PredictionStats::default();
        let _ = predict_scores_vanilla_lz(&w.x, &w.wk, &w.q, &mut vanilla_stats);
        assert!(dlzs_stats.ops.lz_encode < vanilla_stats.ops.lz_encode / 2);
        assert!(dlzs_stats.weight_bytes < vanilla_stats.weight_bytes);
    }

    #[test]
    fn dlzs_is_more_accurate_than_vanilla() {
        let w = workload();
        let exact = w.exact_scores();
        let k = 96 / 5;

        let pred = DlzsPredictor::prepare(&w.wk);
        let (dlzs_scores, _) = pred.predict(&w.x, &w.q);
        let mut s = PredictionStats::default();
        let vanilla_scores = predict_scores_vanilla_lz(&w.x, &w.wk, &w.q, &mut s);

        let r_dlzs = mean_topk_recall(&dlzs_scores, &exact, k);
        let r_vanilla = mean_topk_recall(&vanilla_scores, &exact, k);
        assert!(
            r_dlzs >= r_vanilla,
            "DLZS recall {r_dlzs} should be at least vanilla {r_vanilla}"
        );
    }

    #[test]
    fn lane_kernels_equal_the_shift_add_at_saturating_operands() {
        // Quantisation fits a symmetric scale, so `predict_*` never feed the
        // kernels a token code of -128 or a Q code of i16::MIN; the kernels
        // must still equal the shift-add there, with the K̂ clamp hit on
        // both sides, in both accumulator widths.
        use crate::lze::approx_mul_dlzs;
        let (n, hd) = (9, 5);
        let xrow = [-128, -128, 127, 0, -128, -128, -128, -128, -128];
        let w_codes: Vec<LzCode> = (0..n * hd)
            .map(|k| encode([-128, 127, 0, 1, -1][k % hd], 8))
            .collect();
        let w_vals: Vec<i16> = w_codes.iter().map(|c| c.value() as i16).collect();
        let expect: Vec<f32> = (0..hd)
            .map(|j| {
                let acc: i64 = (0..n)
                    .map(|i| approx_mul_dlzs(xrow[i], w_codes[i * hd + j]))
                    .sum();
                acc.clamp(i16::MIN as i64, i16::MAX as i64) as f32 * 0.5
            })
            .collect();
        assert!(expect.contains(&(i16::MAX as f32 * 0.5)));
        assert!(expect.contains(&(i16::MIN as f32 * 0.5)));
        let (mut narrow, mut wide) = (vec![0.0; hd], vec![0.0; hd]);
        key_row::<i32>(&xrow, &w_vals, 0.5, &mut narrow);
        key_row::<i64>(&xrow, &w_vals, 0.5, &mut wide);
        assert_eq!(narrow, expect);
        assert_eq!(wide, expect);

        let q_codes: Vec<LzCode> = [i16::MIN, i16::MIN, 0, 1, i16::MAX, -1, i16::MIN]
            .iter()
            .map(|&c| encode(c as i32, 16))
            .collect();
        assert_eq!(q_codes[0].exponent, 16);
        let q_vals: Vec<i32> = q_codes.iter().map(|c| c.value() as i32).collect();
        for k in [
            [i16::MIN as i32; 7],
            [i16::MAX as i32; 7],
            [-32768, 32767, 5, -3, 1, 0, -32768],
        ] {
            let expect: i64 = k
                .iter()
                .zip(&q_codes)
                .map(|(&kv, &c)| approx_mul_dlzs(kv, c))
                .sum();
            assert_eq!(dot_i32(&k, &q_vals), expect);
        }
        // The sum outgrows i32 — hence the i64 accumulator.
        assert!(dot_i32(&[i16::MIN as i32; 7], &q_vals) > i32::MAX as i64);
    }

    #[test]
    fn weight_storage_is_roughly_5_bits_per_weight() {
        let wk = Matrix::from_fn(64, 32, |i, j| ((i * j) % 13) as f32 / 13.0 - 0.4);
        let p = DlzsPredictor::prepare(&wk);
        let bytes = p.weight_storage_bytes();
        assert_eq!(bytes, (64 * 32 * 5u64).div_ceil(8));
        assert_eq!(p.input_dim(), 64);
        assert_eq!(p.head_dim(), 32);
    }

    #[test]
    #[should_panic(expected = "token width")]
    fn mismatched_tokens_panic() {
        let wk = Matrix::zeros(8, 4);
        let p = DlzsPredictor::prepare(&wk);
        let mut s = PredictionStats::default();
        let _ = p.predict_keys(&Matrix::zeros(3, 9), &mut s);
    }

    #[test]
    fn int4_baseline_shapes_and_ops() {
        let w = workload();
        let mut stats = PredictionStats::default();
        let scores = predict_scores_int4(&w.x, &w.wk, &w.q, &mut stats);
        assert_eq!(scores.shape(), (8, 96));
        assert!(stats.ops.mul > 0);
        assert!(stats.total_bytes() > 0);
    }
}
