//! The admission router both serving simulators drive.
//!
//! [`ServeSim`](crate::ServeSim) steps one node event by event and
//! [`FleetServeSim`](crate::FleetServeSim) steps a fleet of nodes epoch by
//! epoch, but they admit requests under one policy, and that policy lives
//! here once. The drivers only advance time, hand each admission to their
//! simulator and build their report; [`Router`] owns everything in between:
//!
//! * **Batch lowering.** A serial pass elects one representative per
//!   distinct `(request shape, routed operating point)` key, only the
//!   representatives lower (fanned out across cores in index order, so the
//!   result is oblivious to the thread count), and every other request
//!   shares its representative's lowering. Lowering applies the per-request
//!   energy budget: an over-budget request re-routes to the router's
//!   energy-leanest point and is marked for shedding if still over.
//! * **A shape table.** Every distinct lowering (job, footprint, energy,
//!   operating point) is stored once; a request carries only its shape
//!   index, effective arrival, retry count, pressure level and three flags,
//!   so million-request fleet traces stay compact. Lowerings are memoised
//!   on `(shape, operating point)` keys in the [`LowerCache`], which the
//!   batch pass seeds and every adaptive re-lowering consults.
//! * **The wait queue**, in effective-arrival order, and the **retry heap**
//!   of shed requests awaiting their client backoff. Original arrivals run
//!   before retry re-arrivals on equal cycles.
//! * **Pick.** Over the first `window` waiters, the oldest request once it
//!   has waited past [`AGING_THRESHOLD_CYCLES`], else the smallest
//!   footprint.
//! * **Place.** Per-slot booking of bytes and requests, where slot =
//!   `node × instances_per_node + instance`. A request lands on the
//!   least-booked slot of its class's node pool that fits the (overbooked)
//!   byte budget or is idle, spilling over to the whole fleet when its pool
//!   is narrower and full. Ties break on the slot index.
//! * **The adaptive controller.** Decay re-lowers over-waited requests to
//!   the front's lean end, [`OpRouter::Feedback`] re-lowers the picked
//!   request when the measured pressure level moved, and retry re-lowers a
//!   shed request at a shrunken keep when its backoff expires. The feedback
//!   EWMAs are per slot and sampled at every completion, so "hottest
//!   instance" is the hottest slot of the whole fleet.
//!
//! Every router call happens on the driver's serial path, so reports (and
//! cache statistics) are bit-identical at any `SOFA_THREADS`.

use crate::report::ShedRecord;
use crate::scheduler::{
    FeedbackConfig, OpRouter, RetryPolicy, ServeConfig, AGING_THRESHOLD_CYCLES,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use sofa_core::cache::{CacheStats, LoweringCache, ShapeKey};
use sofa_hw::accel::AttentionTask;
use sofa_hw::energy::DRAM_ACTIVATION_PJ;
use sofa_model::trace::{RequestClass, RequestSpec};
use sofa_model::OperatingPoint;
use sofa_sim::{CycleSim, PipelineJob};

/// One request lowered at one operating point: an entry of the shape table.
#[derive(Debug)]
pub(crate) struct Lowering {
    /// The operating point the request was lowered at.
    pub(crate) op: OperatingPoint,
    /// The concatenated tile stream of every layer.
    pub(crate) job: Arc<PipelineJob>,
    /// Bytes admission control books for the request (the worst layer).
    pub(crate) footprint: u64,
    /// Projected energy of the whole request (all layers) in picojoules.
    pub(crate) energy_pj: f64,
}

/// The `(request shape, operating point)`-keyed memo of shape-table
/// indices, shared by batch lowering and every adaptive re-lowering path
/// (decay, feedback, retry). Accessed serially only, so hit/miss statistics
/// are deterministic at any `SOFA_THREADS`.
type LowerCache = LoweringCache<ShapeKey, usize>;

/// Per-request routing state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    /// Effective arrival: the spec's arrival cycle, or the re-arrival cycle
    /// once a shed request's retry fits the budget (latency is measured from
    /// the client's live submission).
    pub(crate) arrival: u64,
    /// Index of the current lowering in the shape table.
    pub(crate) shape: usize,
    /// Client re-submissions so far (0 for first-attempt requests).
    pub(crate) retries: u32,
    /// Pressure level of the current lowering (feedback router).
    level: u8,
    /// Whether any mechanism (energy budget, decay, feedback, retry)
    /// re-routed the request away from its first-pick point.
    pub(crate) rerouted: bool,
    /// Whether the decay threshold re-lowered the request while it waited.
    pub(crate) decayed: bool,
    /// Decay was evaluated (possibly rejected); guards repeated re-lowering.
    decay_checked: bool,
}

/// One adaptive-controller action, buffered for the driver's post-run
/// trace emission when per-request tracing is on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AdaptiveKind {
    /// The decay threshold re-lowered a waiting request to the lean end.
    Decay,
    /// Feedback pressure re-lowered the picked request at this level.
    Feedback(u8),
    /// An over-budget attempt went to the retry queue (attempt number; 0 is
    /// the initial submission).
    RetryShed(u32),
    /// A retry re-arrival fit the budget and joined the wait queue.
    Retry(u32),
    /// Retries exhausted: finally shed, at this last-attempt energy.
    Shed(f64),
}

/// [`AdaptiveKind`] tagged with the request and cycle it happened at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdaptiveEvent {
    pub(crate) req: usize,
    pub(crate) ts: u64,
    pub(crate) kind: AdaptiveKind,
}

/// What ingesting one arrival did with it.
#[derive(Debug)]
pub(crate) enum Ingest {
    /// The request joined the wait queue.
    Queued,
    /// The request was over budget and went back to its client for a
    /// backoff-and-retry.
    Backoff,
    /// The request was shed for good.
    Shed(ShedRecord),
}

/// One admission, handed to the driver to submit to its simulator.
#[derive(Debug)]
pub(crate) struct Admission<'r> {
    /// Trace index of the admitted request.
    pub(crate) req: usize,
    /// Slot it was booked on (`node × instances_per_node + instance`).
    pub(crate) slot: usize,
    pub(crate) request: &'r Request,
    pub(crate) lowering: &'r Lowering,
    /// Requests still waiting after this admission.
    pub(crate) waiting: usize,
    /// Bytes booked on the slot after this admission.
    pub(crate) booked_bytes: u64,
}

/// The admission router of one serving run (see the module docs).
pub(crate) struct Router<'a> {
    cfg: &'a ServeConfig,
    route: OpRouter<'a>,
    specs: &'a [RequestSpec],
    /// Nodes of the topology; each has [`ServeConfig::instances`] slots.
    nodes: usize,
    /// The effective per-slot byte budget.
    budget: u64,
    csim: CycleSim,
    cache: LowerCache,
    shapes: Vec<Lowering>,
    reqs: Vec<Request>,
    /// Next original arrival to ingest.
    next_arrival: usize,
    /// Waiting request indices, in effective-arrival order.
    waiting: VecDeque<usize>,
    /// Shed requests awaiting their client backoff: (re-arrival, index).
    retryq: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per-slot booked bytes and booked requests (admitted but not
    /// completed), and the peak booked bytes.
    booked_bytes: Vec<u64>,
    booked_reqs: Vec<usize>,
    peak_bytes: Vec<u64>,
    /// Retry re-arrivals admitted back into the wait queue.
    retried: u64,
    /// Adaptive actions, buffered only when per-request tracing is on.
    events: Option<Vec<AdaptiveEvent>>,
    /// Feedback EWMAs: per-slot completion latency and per-request energy,
    /// plus the wait-queue depth, sampled at every completion.
    ewma_latency: Vec<f64>,
    ewma_energy: Vec<f64>,
    ewma_queue: f64,
    fb_samples: u64,
}

impl<'a> Router<'a> {
    /// Lowers `specs` (see the module docs) for a topology of `nodes` nodes
    /// of [`ServeConfig::instances`] instances each. With `trace_events`,
    /// adaptive actions are buffered for [`Router::take_events`].
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or a [`OpRouter::Feedback`] configuration
    /// fails [`FeedbackConfig::validate`].
    pub(crate) fn new(
        cfg: &'a ServeConfig,
        route: OpRouter<'a>,
        specs: &'a [RequestSpec],
        nodes: usize,
        trace_events: bool,
    ) -> Self {
        assert!(!specs.is_empty(), "cannot serve an empty trace");
        if let OpRouter::Feedback(_, fb) = &route {
            fb.validate().expect("invalid feedback config");
        }
        let mut csim = CycleSim::new(cfg.hw);
        csim.params = cfg.sim;
        // With the cache off every request is its own representative — the
        // classic full fan-out.
        let mut shape_of: Vec<usize> = Vec::with_capacity(specs.len());
        let mut reps: Vec<usize> = Vec::new();
        let mut seen: HashMap<ShapeKey, usize> = HashMap::new();
        for (i, spec) in specs.iter().enumerate() {
            if cfg.lowering_cache {
                let op = route.pick(&cfg.op, spec);
                let shape = *seen.entry(ShapeKey::new(spec, &op)).or_insert_with(|| {
                    reps.push(i);
                    reps.len() - 1
                });
                shape_of.push(shape);
            } else {
                reps.push(i);
                shape_of.push(reps.len() - 1);
            }
        }
        let lowered: Vec<(Lowering, bool)> = sofa_par::par_map_index(reps.len(), |k| {
            lower_routed(cfg, &csim, &specs[reps[k]], &route)
        });
        // Seed the cache with each representative's final-point lowering
        // and account the dedup pass: one miss per representative, one hit
        // per request that shared one.
        let mut cache = LowerCache::new(cfg.lowering_cache);
        for (k, (lowering, _)) in lowered.iter().enumerate() {
            cache.insert_computed(ShapeKey::new(&specs[reps[k]], &lowering.op), k);
        }
        cache.record_shared_hits((specs.len() - reps.len()) as u64);
        let reqs = specs
            .iter()
            .zip(shape_of)
            .map(|(spec, shape)| Request {
                arrival: spec.arrival_cycle,
                shape,
                retries: 0,
                level: 0,
                rerouted: lowered[shape].1,
                decayed: false,
                decay_checked: false,
            })
            .collect();
        let slots = nodes * cfg.instances;
        Router {
            cfg,
            route,
            specs,
            nodes,
            budget: cfg.budget_bytes(),
            csim,
            cache,
            shapes: lowered.into_iter().map(|(lowering, _)| lowering).collect(),
            reqs,
            next_arrival: 0,
            waiting: VecDeque::new(),
            retryq: BinaryHeap::new(),
            booked_bytes: vec![0; slots],
            booked_reqs: vec![0; slots],
            peak_bytes: vec![0; slots],
            retried: 0,
            events: trace_events.then(Vec::new),
            ewma_latency: vec![0.0; slots],
            ewma_energy: vec![0.0; slots],
            ewma_queue: 0.0,
            fb_samples: 0,
        }
    }

    /// Routing state of request `req`.
    pub(crate) fn request(&self, req: usize) -> &Request {
        &self.reqs[req]
    }

    /// The current lowering of request `req`.
    pub(crate) fn lowering(&self, req: usize) -> &Lowering {
        &self.shapes[self.reqs[req].shape]
    }

    /// Whether `energy_pj` fits the per-request energy budget.
    pub(crate) fn fits_budget(&self, energy_pj: f64) -> bool {
        self.cfg
            .energy_budget_pj_per_req
            .is_none_or(|b| energy_pj <= b)
    }

    /// Requests in the wait queue.
    pub(crate) fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Bytes booked on `slot`.
    pub(crate) fn booked_bytes(&self, slot: usize) -> u64 {
        self.booked_bytes[slot]
    }

    /// Peak booked bytes per slot.
    pub(crate) fn peak_bytes(&self) -> &[u64] {
        &self.peak_bytes
    }

    /// Retry re-arrivals admitted back into the wait queue so far.
    pub(crate) fn retried(&self) -> u64 {
        self.retried
    }

    /// Lowering-cache effectiveness counters so far.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The buffered adaptive actions (empty unless built with
    /// `trace_events`).
    pub(crate) fn take_events(&mut self) -> Vec<AdaptiveEvent> {
        self.events.take().unwrap_or_default()
    }

    /// Cycle of the next original arrival or retry re-arrival.
    pub(crate) fn next_external(&self) -> Option<u64> {
        self.next_ingest().map(|(t, _)| t)
    }

    /// The next arrival's cycle and whether it is a retry. The original
    /// wins a tie, so a retried client re-submits just behind the fresh
    /// traffic.
    fn next_ingest(&self) -> Option<(u64, bool)> {
        let arrival = self.specs.get(self.next_arrival);
        let retry = self.retryq.peek().map(|Reverse((t, _))| (*t, true));
        arrival
            .map(|s| (s.arrival_cycle, false))
            .into_iter()
            .chain(retry)
            .min()
    }

    /// Ingests the arrival at [`Router::next_external`] and returns its
    /// cycle and what became of it.
    ///
    /// # Panics
    ///
    /// Panics if nothing is left to ingest.
    pub(crate) fn ingest_next(&mut self) -> (u64, Ingest) {
        match self.next_ingest().expect("nothing left to ingest") {
            (now, true) => (now, self.ingest_retry()),
            (now, false) => (now, self.ingest_original()),
        }
    }

    fn ingest_original(&mut self) -> Ingest {
        let req = self.next_arrival;
        self.next_arrival += 1;
        let now = self.specs[req].arrival_cycle;
        let energy_pj = self.lowering(req).energy_pj;
        if self.fits_budget(energy_pj) {
            self.waiting.push_back(req);
            Ingest::Queued
        } else if let Some(policy) = self.cfg.retry {
            self.record(req, now, AdaptiveKind::RetryShed(0));
            self.retryq
                .push(Reverse((now + policy.backoff_cycles, req)));
            Ingest::Backoff
        } else {
            Ingest::Shed(self.shed_record(req, energy_pj))
        }
    }

    fn ingest_retry(&mut self) -> Ingest {
        let Reverse((now, req)) = self.retryq.pop().expect("retry was pending");
        let policy = self.cfg.retry.expect("retries require a policy");
        let attempt = self.reqs[req].retries + 1;
        let shape = self.retry_lowering(req, &policy, attempt);
        self.reqs[req].retries = attempt;
        let energy_pj = self.shapes[shape].energy_pj;
        if self.fits_budget(energy_pj) {
            let r = &mut self.reqs[req];
            r.shape = shape;
            r.arrival = now;
            r.rerouted = true;
            self.retried += 1;
            self.record(req, now, AdaptiveKind::Retry(attempt));
            self.waiting.push_back(req);
            Ingest::Queued
        } else if attempt < policy.max_retries {
            self.record(req, now, AdaptiveKind::RetryShed(attempt));
            self.retryq
                .push(Reverse((now + policy.backoff_cycles, req)));
            Ingest::Backoff
        } else {
            self.record(req, now, AdaptiveKind::Shed(energy_pj));
            Ingest::Shed(self.shed_record(req, energy_pj))
        }
    }

    fn shed_record(&self, req: usize, energy_pj: f64) -> ShedRecord {
        let spec = &self.specs[req];
        ShedRecord {
            id: req as u64,
            class: spec.class,
            arrival: spec.arrival_cycle,
            energy_pj,
            retries: self.reqs[req].retries,
        }
    }

    fn record(&mut self, req: usize, ts: u64, kind: AdaptiveKind) {
        if let Some(events) = &mut self.events {
            events.push(AdaptiveEvent { req, ts, kind });
        }
    }

    /// Shape-table index of request `req` lowered at `op`, through the
    /// lowering cache.
    fn lower_cached(&mut self, req: usize, op: OperatingPoint) -> usize {
        let spec = &self.specs[req];
        let (cfg, csim, shapes) = (self.cfg, &self.csim, &mut self.shapes);
        *self.cache.get_or_insert_with(ShapeKey::new(spec, &op), || {
            shapes.push(lower_at(cfg, csim, spec, op));
            shapes.len() - 1
        })
    }

    /// The leaner lowering of retry `attempt`: the router's leanest point
    /// (or the deployment point when the router has none) with its keep
    /// ratio shrunk by `keep_factorᵃᵗᵗᵉᵐᵖᵗ`, floored at 1% keep. The shrunk
    /// keep is part of the cache key, so repeat attempts at the same shrink
    /// level hit instead of re-running the full pipeline lowering.
    fn retry_lowering(&mut self, req: usize, policy: &RetryPolicy, attempt: u32) -> usize {
        let base = self.route.leaner().unwrap_or_else(|| self.cfg.op.clone());
        let keep = (base.mean_keep() * policy.keep_factor.powi(attempt as i32)).max(0.01);
        self.lower_cached(req, base.with_uniform_keep(keep))
    }

    /// Releases a completed request's booking on `slot` at cycle `now`, and
    /// folds the completion into the feedback EWMAs.
    pub(crate) fn complete(&mut self, req: usize, slot: usize, now: u64) {
        let r = self.reqs[req];
        let lowering = &self.shapes[r.shape];
        self.booked_bytes[slot] -= lowering.footprint;
        self.booked_reqs[slot] -= 1;
        if let OpRouter::Feedback(_, fb) = self.route {
            let (latency, energy) = ((now - r.arrival) as f64, lowering.energy_pj);
            self.observe_completion(fb, slot, latency, energy);
        }
    }

    /// Folds one completion into the feedback EWMAs (`ewma ← α·sample +
    /// (1−α)·ewma`; the first sample of a series seeds it directly).
    fn observe_completion(&mut self, fb: &FeedbackConfig, slot: usize, latency: f64, energy: f64) {
        let mix = |prev: f64, x: f64| {
            if prev == 0.0 {
                x
            } else {
                fb.alpha * x + (1.0 - fb.alpha) * prev
            }
        };
        self.ewma_latency[slot] = mix(self.ewma_latency[slot], latency);
        self.ewma_energy[slot] = mix(self.ewma_energy[slot], energy);
        let depth = self.waiting.len() as f64;
        self.ewma_queue = if self.fb_samples == 0 {
            depth
        } else {
            fb.alpha * depth + (1.0 - fb.alpha) * self.ewma_queue
        };
        self.fb_samples += 1;
    }

    /// The feedback router's pressure level, `None` for other routers.
    pub(crate) fn pressure(&self) -> Option<u8> {
        match self.route {
            OpRouter::Feedback(_, fb) => Some(self.pressure_level(fb)),
            _ => None,
        }
    }

    /// The discrete pressure level measured state maps to — 0 calm, 1 over
    /// target, 2 badly over — per [`FeedbackConfig`]. Zero until the first
    /// completion lands (no measurement, no pressure).
    fn pressure_level(&self, fb: &FeedbackConfig) -> u8 {
        if self.fb_samples == 0 {
            return 0;
        }
        let hottest = self.ewma_latency.iter().copied().fold(0.0f64, f64::max);
        let target = fb.target_latency_cycles as f64;
        let queue_bar = fb.queue_depth_bar as f64;
        let mut level = 0u8;
        if hottest > target || self.ewma_queue > queue_bar {
            level = 1;
        }
        if hottest > 2.0 * target || self.ewma_queue > 2.0 * queue_bar {
            level = 2;
        }
        if let Some(bar) = fb.energy_bar_pj {
            let hottest_energy = self.ewma_energy.iter().copied().fold(0.0f64, f64::max);
            if hottest_energy > bar {
                level = (level + 1).min(2);
            }
        }
        level
    }

    /// Re-lowers every waiting request that has waited past the decay
    /// threshold to the router's decay target, at most once per request.
    /// With an energy budget, a decay that would break the budget is
    /// rejected (the request keeps its current lowering).
    fn decay_waiting(&mut self, now: u64) {
        let Some(threshold) = self.cfg.decay_threshold else {
            return;
        };
        for pos in 0..self.waiting.len() {
            let req = self.waiting[pos];
            let r = &mut self.reqs[req];
            if r.decay_checked || now.saturating_sub(r.arrival) < threshold {
                continue;
            }
            r.decay_checked = true;
            let Some(target) = self.route.decay_target(self.specs[req].class) else {
                continue;
            };
            if target == self.lowering(req).op {
                continue;
            }
            let shape = self.lower_cached(req, target);
            if !self.fits_budget(self.shapes[shape].energy_pj) {
                continue;
            }
            let r = &mut self.reqs[req];
            r.shape = shape;
            r.decayed = true;
            r.rerouted = true;
            self.record(req, now, AdaptiveKind::Decay);
        }
    }

    /// Re-lowers the picked request when the measured pressure level moved
    /// since it was last lowered (feedback router only). Decayed requests
    /// are already at the lean end and are left alone; with an energy
    /// budget, a re-lowering that would break the budget is rejected.
    fn feedback_relower(&mut self, now: u64, req: usize) {
        let OpRouter::Feedback(front, fb) = self.route else {
            return;
        };
        if self.reqs[req].decayed {
            return;
        }
        let level = self.pressure_level(fb);
        if level == self.reqs[req].level {
            return;
        }
        self.reqs[req].level = level;
        let target = front.route_pressure(&self.specs[req].class, level);
        if target == self.lowering(req).op {
            return;
        }
        let shape = self.lower_cached(req, target);
        if !self.fits_budget(self.shapes[shape].energy_pj) {
            return;
        }
        let r = &mut self.reqs[req];
        r.shape = shape;
        r.rerouted = true;
        self.record(req, now, AdaptiveKind::Feedback(level));
    }

    /// Position in the wait queue of the next request to try, among the
    /// first `window` waiters: the oldest if it has waited past
    /// [`AGING_THRESHOLD_CYCLES`], else the smallest footprint. The oldest
    /// is found from the arrivals, not assumed to be the head, so no
    /// requeue path can starve an aged request by perturbing the queue
    /// order.
    pub(crate) fn pick(&self, now: u64, window: usize) -> usize {
        let window = self.waiting.len().min(window);
        let oldest = (0..window)
            .min_by_key(|&p| (self.reqs[self.waiting[p]].arrival, self.waiting[p]))
            .expect("waiting is non-empty");
        let oldest_wait = now.saturating_sub(self.reqs[self.waiting[oldest]].arrival);
        if oldest_wait >= AGING_THRESHOLD_CYCLES {
            return oldest;
        }
        (0..window)
            .min_by_key(|&p| (self.lowering(self.waiting[p]).footprint, self.waiting[p]))
            .expect("waiting is non-empty")
    }

    /// The slot of `nodes` the next request lands on: among slots that fit
    /// `fp` more bytes (or are idle, so one oversized request always makes
    /// progress), the least-booked one.
    fn place(&self, nodes: Range<usize>, fp: u64) -> Option<usize> {
        let ipn = self.cfg.instances;
        let (bytes, reqs) = (&self.booked_bytes, &self.booked_reqs);
        (nodes.start * ipn..nodes.end * ipn)
            .filter(|&s| reqs[s] == 0 || bytes[s] + fp <= self.budget)
            .min_by_key(|&s| (bytes[s], s))
    }

    /// Admits as many waiting requests as fit at cycle `now`. Decay
    /// re-lowers over-waited requests first; then each round picks a
    /// request among the first `window` waiters, feedback-re-lowers it
    /// against the current pressure level, places it in the node pool
    /// `pool` names for its class (spilling over to every node when that
    /// pool is narrower and full), books it, and hands it to `submit`.
    pub(crate) fn try_admit(
        &mut self,
        now: u64,
        window: usize,
        pool: impl Fn(RequestClass) -> Range<usize>,
        mut submit: impl FnMut(Admission),
    ) {
        self.decay_waiting(now);
        while !self.waiting.is_empty() {
            let pos = self.pick(now, window);
            let req = self.waiting[pos];
            self.feedback_relower(now, req);
            let fp = self.lowering(req).footprint;
            let pool = pool(self.specs[req].class);
            let target = self.place(pool.clone(), fp).or_else(|| {
                (pool != (0..self.nodes))
                    .then(|| self.place(0..self.nodes, fp))
                    .flatten()
            });
            let Some(slot) = target else {
                // Nothing fits the candidate now; completions will retry.
                // Stopping (rather than skipping to a smaller request) is
                // what keeps the aged head-of-line request from being
                // overtaken forever.
                return;
            };
            self.waiting.remove(pos);
            self.booked_bytes[slot] += fp;
            self.booked_reqs[slot] += 1;
            self.peak_bytes[slot] = self.peak_bytes[slot].max(self.booked_bytes[slot]);
            submit(Admission {
                req,
                slot,
                request: &self.reqs[req],
                lowering: self.lowering(req),
                waiting: self.waiting.len(),
                booked_bytes: self.booked_bytes[slot],
            });
        }
    }

    /// Replaces the wait queue, for queue orders no driver produces.
    #[cfg(test)]
    pub(crate) fn set_waiting(&mut self, order: &[usize]) {
        self.waiting = order.iter().copied().collect();
    }

    /// Checks the end-of-run invariants: nothing waits or backs off, and
    /// every slot's booking was released.
    pub(crate) fn finish(&self) {
        debug_assert!(self.waiting.is_empty(), "every queued request admitted");
        debug_assert!(self.retryq.is_empty(), "every retry ingested");
        debug_assert!(
            self.booked_bytes.iter().all(|&b| b == 0),
            "booked bytes released"
        );
        debug_assert!(
            self.booked_reqs.iter().all(|&r| r == 0),
            "booked requests released"
        );
    }
}

/// Lowers one request at `op`: one pipeline job per layer, concatenated
/// into a single tile stream, plus the admission footprint and the
/// projected energy.
///
/// The footprint is the state an instance pins for the life of an
/// in-flight layer (tiles merely stream through the ping-pong banks): the
/// query block and the output accumulator (`T×H` 16-bit values each) plus
/// per-selected-key metadata — index and predicted score, 4 B per kept Q-K
/// pair. Layers run back to back, so admission books the worst layer.
/// Worst-case sizing must budget for a dense selection (every key kept);
/// the *measured* footprint ([`ServeConfig::predicted_footprint`]) books
/// only the `T×k` pairs the prediction stage actually keeps — the capacity
/// overbooking reclaims.
///
/// The energy projection follows the DSE evaluator's model: the analytic
/// compute/SRAM/interface/DRAM energy of each layer's task plus
/// [`DRAM_ACTIVATION_PJ`] per DRAM request the lowered job issues.
fn lower_at(
    cfg: &ServeConfig,
    csim: &CycleSim,
    spec: &RequestSpec,
    op: OperatingPoint,
) -> Lowering {
    let t = spec.queries as u64;
    let h = spec.hidden as u64;
    let mut combined = PipelineJob {
        work: Vec::new(),
        cycles: Vec::new(),
    };
    let mut footprint = 0u64;
    let mut energy_pj = 0.0f64;
    for layer in 0..op.layers() {
        let task = AttentionTask::at_layer(
            spec.queries,
            spec.seq_len,
            spec.hidden,
            spec.heads,
            &op,
            layer,
        );
        let job = csim.job(&task, None);
        let requests = job.dram_requests();
        let analytic = csim.accel.simulate_tiles(&task, &job.work);
        energy_pj += analytic.energy.total_j() * 1e12 + requests as f64 * DRAM_ACTIVATION_PJ;
        let kept_pairs = if cfg.predicted_footprint {
            task.k() as u64
        } else {
            spec.seq_len as u64
        };
        footprint = footprint.max(t * h * 2 + t * h * 2 + t * kept_pairs * 4);
        combined.work.extend(job.work);
        combined.cycles.extend(job.cycles);
    }
    Lowering {
        op,
        job: Arc::new(combined),
        footprint,
        energy_pj,
    }
}

/// Lowers one request through `route`, applying the energy budget: an
/// over-budget request is re-routed to the router's leanest point. Returns
/// the final lowering and whether it was re-routed; the caller sheds it if
/// it still exceeds the budget.
fn lower_routed(
    cfg: &ServeConfig,
    csim: &CycleSim,
    spec: &RequestSpec,
    route: &OpRouter,
) -> (Lowering, bool) {
    let lowering = lower_at(cfg, csim, spec, route.pick(&cfg.op, spec));
    if let Some(budget) = cfg.energy_budget_pj_per_req {
        if lowering.energy_pj > budget {
            if let Some(lean) = route.leaner().filter(|lean| *lean != lowering.op) {
                return (lower_at(cfg, csim, spec, lean), true);
            }
        }
    }
    (lowering, false)
}
