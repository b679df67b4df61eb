//! Per-tile work descriptors of the cross-stage tiled pipeline.
//!
//! The paper's cross-stage coordinated tiling defines the work and DRAM
//! traffic of each stage per tile. [`SofaAccelerator::tile_descriptors`]
//! exports exactly that: how much each engine computes for tile `i` and how
//! many DRAM bytes each stage moves on behalf of tile `i`, either from
//! expected values or from the real per-tile selection counts of a
//! [`TileSelectionStats`]. These descriptors are the one definition of work
//! and traffic: the analytic model ([`SofaAccelerator::simulate`]) adds them
//! up with [`sum_work`] and the cycle-level simulator replays them tile by
//! tile, so the two agree by construction.

use crate::accel::{AttentionTask, SofaAccelerator};
use crate::engines::{DlzsWork, KvGenWork, SortWork, SuFaWork};
use sofa_core::tiling::{split_proportional, TileSelectionStats};

/// The work one context tile contributes to each pipeline stage, plus the
/// DRAM traffic each stage moves for the tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileWork {
    /// Tile index along the context dimension.
    pub index: usize,
    /// Keys this tile covers (the last tile may be short).
    pub keys: usize,
    /// DLZS prediction work for this tile's keys.
    pub dlzs: DlzsWork,
    /// SADS sorting work (scores streamed for this tile).
    pub sort: SortWork,
    /// On-demand KV-generation work (distinct selected keys in the tile).
    pub kvgen: KvGenWork,
    /// SU-FA formal-compute work (kept pairs in the tile).
    pub sufa: SuFaWork,
    /// Bytes the prediction stage reads from DRAM for this tile
    /// (low-precision keys; queries and weights ride on the first tile).
    pub pred_read_bytes: u64,
    /// Bytes of selected K/V vectors fetched for this tile (RASS-deduplicated
    /// when the accelerator has RASS enabled).
    pub kv_read_bytes: u64,
    /// Extra formal-stage refetch bytes when RASS is disabled (shared vectors
    /// fetched once per needing query instead of once per distinct key).
    pub extra_formal_read_bytes: u64,
    /// Output bytes written back (the last tile carries the writeback).
    pub write_bytes: u64,
}

impl TileWork {
    /// Total DRAM bytes this tile moves across all stages.
    pub fn total_dram_bytes(&self) -> u64 {
        self.pred_read_bytes + self.kv_read_bytes + self.extra_formal_read_bytes + self.write_bytes
    }
}

/// Sums per-tile engine work into the whole task's per-stage work amounts.
pub fn sum_work(work: &[TileWork]) -> (DlzsWork, SortWork, KvGenWork, SuFaWork) {
    work.iter().fold(
        Default::default(),
        |(mut dlzs, mut sort, mut kvgen, mut sufa), w| {
            dlzs.shift_ops += w.dlzs.shift_ops;
            dlzs.lz_encodes += w.dlzs.lz_encodes;
            sort.elements += w.sort.elements;
            kvgen.macs += w.kvgen.macs;
            sufa.macs += w.sufa.macs;
            sufa.exps += w.sufa.exps;
            sufa.divs += w.sufa.divs;
            (dlzs, sort, kvgen, sufa)
        },
    )
}

impl SofaAccelerator {
    /// Splits `task` into per-tile work descriptors.
    ///
    /// With `stats == None` the selected pairs and distinct keys are spread
    /// proportionally to tile width (the analytic model's expected values).
    /// With real [`TileSelectionStats`] — produced by
    /// `sofa_core::pipeline::PipelineResult::tile_selection_stats` — each
    /// tile carries its measured selection counts, exposing the per-tile load
    /// imbalance of the Distributed Cluster Effect to a cycle simulator.
    ///
    /// The descriptors honour this accelerator's ablation flags (`rass`,
    /// `sufa`, `include_kv_generation`); [`SofaAccelerator::simulate`] is
    /// their sum at `stats == None`.
    ///
    /// # Panics
    ///
    /// Panics if `stats` is given but disagrees with the task's sequence
    /// length or tile size.
    pub fn tile_descriptors(
        &self,
        task: &AttentionTask,
        stats: Option<&TileSelectionStats>,
    ) -> Vec<TileWork> {
        let t = task.queries as u64;
        let h = task.hidden as u64;
        let a = task.heads as u64;

        let owned;
        let stats = match stats {
            Some(st) => {
                assert_eq!(st.seq_len, task.seq_len, "stats sequence length mismatch");
                assert_eq!(st.tile_size, task.tile_size, "stats tile size mismatch");
                st
            }
            None => {
                owned = TileSelectionStats::uniform(
                    task.queries,
                    task.seq_len,
                    task.tile_size,
                    task.k(),
                    task.key_union_fraction,
                );
                &owned
            }
        };
        let n = stats.num_tiles();
        let widths: Vec<f64> = (0..n).map(|i| stats.tile_width(i) as f64).collect();
        // Fall back to tile widths when nothing was kept, so fixed per-task
        // costs (softmax divisions, refetches) are still distributed.
        let kept_weights: Vec<f64> = if stats.total_kept() > 0 {
            stats.kept_per_tile.iter().map(|&k| k as f64).collect()
        } else {
            widths.clone()
        };

        // Quantities charged once per task, spread across tiles.
        let lz_encodes = split_proportional(t * h, &widths);
        let divs = split_proportional(t * h, &kept_weights);
        let extra_exps = if self.sufa {
            vec![0; n]
        } else {
            // FA-2-style per-tile maximum refresh the ablation pays.
            let tiles = (task.k() as u64).div_ceil(task.tile_size as u64).max(1);
            split_proportional(a * t * tiles, &kept_weights)
        };
        // Without RASS the formal stage refetches shared vectors per query.
        let per_query_fetch = 2 * stats.total_kept() * h * 2;
        let deduped_fetch = 2 * stats.total_distinct() * h * 2;
        let extra_fetch = if self.rass {
            vec![0; n]
        } else {
            split_proportional(per_query_fetch.saturating_sub(deduped_fetch), &kept_weights)
        };

        (0..n)
            .map(|i| {
                let keys = stats.tile_width(i) as u64;
                let kept = stats.kept_per_tile[i];
                let distinct = stats.distinct_per_tile[i];
                let first = i == 0;
                let last = i + 1 == n;

                // 4-bit keys for prediction, split so the tiles add up to
                // exactly ⌊S·H/2⌋ bytes.
                let start = (i * stats.tile_size) as u64;
                let mut pred_read = (start + keys) * h / 2 - start * h / 2;
                if first {
                    pred_read += t * h * 2; // 16-bit queries
                }
                if self.include_kv_generation {
                    pred_read += keys * h; // 8-bit tokens of the tile
                    if first {
                        pred_read += 5 * h * h / 8 + 2 * h * h * 2; // LZ + W_k/W_v
                    }
                }
                // Each distinct selected key is fetched once (K and V, 16-bit).
                let kv_read = 2 * distinct * h * 2;

                TileWork {
                    index: i,
                    keys: stats.tile_width(i),
                    dlzs: DlzsWork {
                        shift_ops: t * keys * h
                            + if self.include_kv_generation {
                                keys * h * h
                            } else {
                                0
                            },
                        lz_encodes: lz_encodes[i],
                    },
                    sort: SortWork { elements: t * keys },
                    kvgen: KvGenWork {
                        macs: if self.include_kv_generation {
                            2 * distinct * h * h
                        } else {
                            0
                        },
                    },
                    sufa: SuFaWork {
                        macs: 2 * kept * h,
                        exps: a * kept + extra_exps[i],
                        divs: divs[i],
                    },
                    pred_read_bytes: pred_read,
                    kv_read_bytes: kv_read,
                    extra_formal_read_bytes: extra_fetch[i],
                    write_bytes: if last { t * h * 2 } else { 0 },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;

    fn task() -> AttentionTask {
        AttentionTask::new(16, 512, 256, 4, 0.25, 32)
    }

    #[test]
    fn descriptor_count_matches_tiling() {
        let accel = SofaAccelerator::new(HwConfig::small());
        let d = accel.tile_descriptors(&task(), None);
        assert_eq!(d.len(), 512 / 32);
        assert!(d.iter().enumerate().all(|(i, w)| w.index == i));
    }

    /// Random task shapes: odd and even `H` and `Bc`, short last tiles and
    /// any key-union fraction, plus the fixed task above.
    fn random_tasks() -> Vec<AttentionTask> {
        let mut state = 0x5eed_u64;
        let mut next = |lo: u64, hi: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            lo + (z ^ (z >> 31)) % (hi - lo + 1)
        };
        let mut tasks = vec![task()];
        for _ in 0..300 {
            let (t, s, h, heads) = (next(1, 64), next(1, 700), next(1, 257), next(1, 8));
            let keep = next(1, 1000) as f64 / 1000.0;
            let mut task = AttentionTask::new(
                t as usize,
                s as usize,
                h as usize,
                heads as usize,
                keep,
                next(1, 80) as usize,
            );
            task.key_union_fraction = next(0, 1000) as f64 / 1000.0;
            tasks.push(task);
        }
        tasks
    }

    /// The accelerator under all 16 combinations of its ablation flags.
    fn flag_variants(cfg: HwConfig) -> impl Iterator<Item = SofaAccelerator> {
        (0..16u8).map(move |bits| {
            let mut accel = SofaAccelerator::new(cfg);
            accel.tiled_pipeline = bits & 1 != 0;
            accel.rass = bits & 2 != 0;
            accel.sufa = bits & 4 != 0;
            accel.include_kv_generation = bits & 8 != 0;
            accel
        })
    }

    /// The closed-form DRAM bytes of a task: `(prediction, kv, extra, write)`.
    fn closed_form_traffic(accel: &SofaAccelerator, t: &AttentionTask) -> [u64; 4] {
        let (tq, s, h, k) = (
            t.queries as u64,
            t.seq_len as u64,
            t.hidden as u64,
            t.k() as u64,
        );
        let union = (t.key_union_fraction * t.seq_len as f64).ceil() as u64;
        let mut pred = s * h / 2 + 2 * tq * h;
        if accel.include_kv_generation {
            pred += s * h + 5 * h * h / 8 + 4 * h * h;
        }
        let extra = if accel.rass {
            0
        } else {
            (4 * tq * k * h).saturating_sub(4 * union * h)
        };
        [pred, 4 * union * h, extra, 2 * tq * h]
    }

    #[test]
    fn per_tile_work_sums_to_aggregate_model() {
        for t in random_tasks() {
            for accel in flag_variants(HwConfig::small()) {
                let d = accel.tile_descriptors(&t, None);
                let (tq, s, h, a, k) = (
                    t.queries as u64,
                    t.seq_len as u64,
                    t.hidden as u64,
                    t.heads as u64,
                    t.k() as u64,
                );
                let union = (t.key_union_fraction * t.seq_len as f64).ceil() as u64;
                let kv = accel.include_kv_generation;
                let refresh = if accel.sufa {
                    0
                } else {
                    a * tq * k.div_ceil(t.tile_size as u64)
                };
                let (dlzs, sort, kvgen, sufa) = sum_work(&d);
                let ctx = format!("{t:?} {accel:?}");
                assert_eq!(
                    dlzs.shift_ops,
                    tq * s * h + if kv { s * h * h } else { 0 },
                    "{ctx}"
                );
                assert_eq!(dlzs.lz_encodes, tq * h, "{ctx}");
                assert_eq!(sort.elements, tq * s, "{ctx}");
                assert_eq!(kvgen.macs, if kv { 2 * union * h * h } else { 0 }, "{ctx}");
                assert_eq!(sufa.macs, 2 * tq * k * h, "{ctx}");
                assert_eq!(sufa.exps, a * tq * k + refresh, "{ctx}");
                assert_eq!(sufa.divs, tq * h, "{ctx}");
                let got = [
                    d.iter().map(|w| w.pred_read_bytes).sum::<u64>(),
                    d.iter().map(|w| w.kv_read_bytes).sum(),
                    d.iter().map(|w| w.extra_formal_read_bytes).sum(),
                    d.iter().map(|w| w.write_bytes).sum(),
                ];
                assert_eq!(got, closed_form_traffic(&accel, &t), "{ctx}");
            }
        }
    }

    #[test]
    fn per_tile_dram_bytes_match_analytic_traffic() {
        for cfg in [HwConfig::small(), HwConfig::paper_default()] {
            for t in random_tasks().into_iter().step_by(10) {
                for accel in flag_variants(cfg) {
                    let total: u64 = accel
                        .tile_descriptors(&t, None)
                        .iter()
                        .map(TileWork::total_dram_bytes)
                        .sum();
                    let closed: u64 = closed_form_traffic(&accel, &t).iter().sum();
                    assert_eq!(total, closed, "{t:?} {accel:?}");
                    assert_eq!(accel.simulate(&t).dram_bytes, total, "{t:?} {accel:?}");
                }
            }
        }
    }

    #[test]
    fn disabling_rass_adds_refetch_traffic() {
        let t = task();
        let mut accel = SofaAccelerator::new(HwConfig::small());
        let with = accel.tile_descriptors(&t, None);
        accel.rass = false;
        let without = accel.tile_descriptors(&t, None);
        let extra_with: u64 = with.iter().map(|w| w.extra_formal_read_bytes).sum();
        let extra_without: u64 = without.iter().map(|w| w.extra_formal_read_bytes).sum();
        assert_eq!(extra_with, 0);
        assert!(extra_without > 0);
    }

    #[test]
    fn kv_generation_flag_adds_tile_work() {
        let t = task();
        let mut accel = SofaAccelerator::new(HwConfig::small());
        assert!(accel
            .tile_descriptors(&t, None)
            .iter()
            .all(|w| w.kvgen.macs == 0));
        accel.include_kv_generation = true;
        let d = accel.tile_descriptors(&t, None);
        assert!(d.iter().all(|w| w.kvgen.macs > 0));
        assert!(
            d[0].pred_read_bytes > d[1].pred_read_bytes,
            "weights on tile 0"
        );
    }

    #[test]
    fn real_stats_shift_work_toward_hot_tiles() {
        use sofa_core::topk::TopKMask;
        // All selections land in tile 0.
        let mask = TopKMask::new(64, vec![vec![0, 1, 2, 3]; 8]);
        let stats = TileSelectionStats::from_mask(&mask, 16);
        let t = AttentionTask::new(8, 64, 32, 2, 0.0625, 16);
        let accel = SofaAccelerator::new(HwConfig::small());
        let d = accel.tile_descriptors(&t, Some(&stats));
        assert!(d[0].sufa.macs > 0);
        assert!(d[1..].iter().all(|w| w.sufa.macs == 0));
        assert!(d[1..].iter().all(|w| w.kv_read_bytes == 0));
    }

    #[test]
    #[should_panic(expected = "tile size mismatch")]
    fn mismatched_stats_panic() {
        let t = task();
        let stats = TileSelectionStats::uniform(4, 512, 16, 8, 0.5);
        let _ = SofaAccelerator::new(HwConfig::small()).tile_descriptors(&t, Some(&stats));
    }
}
