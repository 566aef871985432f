//! Incremental schedule-pressure evaluation — the probe cache behind the
//! FTBAR and HBP main loops.
//!
//! The naive main loop re-probes every ⟨candidate operation, processor⟩
//! pair from scratch at every step, although one placement only perturbs
//! the few lanes (processor and link timelines) and replica sets it
//! touched. This module caches probe results per pair and re-validates
//! them in three tiers, cheapest first:
//!
//! 1. **Replica-set stamp** — the sum of the monotone
//!    [`ScheduleBuilder::op_replicas_version`] counters of the operation
//!    and its scheduling predecessors. A moved stamp means the set of
//!    source replicas changed (a placement, an LIP duplication, or a
//!    rollback): the plan space itself changed, recompute.
//! 2. **Lane versions** — the monotone [`Timeline`](crate::Timeline)
//!    version of every lane the cached probe consulted. All unchanged ⇒
//!    the cached result is trivially still exact.
//! 3. **Probe-event replay** — when versions moved (placements elsewhere,
//!    or speculative book-then-rollback churn that restored the contents),
//!    re-ask each recorded [`ProbeEvent`] and compare answers. A probed
//!    placement is a pure function of the static tables, the replica sets
//!    (tier 1) and exactly these timeline answers, so full agreement
//!    proves the cached [`ProbePoint`] exact — at the cost of bare
//!    timeline scans, without re-running source selection, route
//!    enumeration, or failure-pattern coverage.
//!
//! # Flat row storage
//!
//! Rows are stored struct-of-arrays: the per-pair validation scalars
//! (stamp, consulted-lane mask, sync span, point, generation) live in
//! dense parallel arrays indexed by `op × procs + proc`, so the hit path
//! of a sweep touches a handful of cache lines instead of hopping through
//! per-pair heap nodes. The variable-length parts — the recorded probe
//! events and the consulted lanes (as `u32` flat lane ids) — keep one
//! persistent buffer per row that recomputes reuse **in place**: after the
//! first visit of a pair, the steady-state cache allocates nothing, no
//! matter how often plans are recomputed. See `DESIGN.md` §9.
//!
//! Only pairs that fail all three tiers are recomputed
//! ([`ScheduleBuilder::probe_traced`]).
//!
//! On top of the cache, [`SweepEngine`] maintains per-candidate kept sets
//! (the `Npf + 1` lowest-pressure processors, found by
//! `select_nth_unstable` instead of a full sort) and a max-structure over
//! kept-set pressures keyed by `(urgency, operation)`. Candidates whose
//! replica-set stamp is unchanged and whose aggregate consulted-lane mask
//! misses the step's change mask are *skipped wholesale* — micro-step Á
//! reuses their cached urgency without touching a single pair row — so
//! each step pays only for the pairs a placement actually perturbed. See
//! `DESIGN.md` §6/§9 for the invalidation rules and the determinism
//! argument.

use ftbar_model::{OpId, Problem, ProcId, Time};

use crate::builder::{Lane, PlanProbe, ProbeEvent, ProbePoint, ProbeScratch, ScheduleBuilder};
use crate::error::ScheduleError;
use crate::ftbar::CostFunction;
use crate::pressure::Pressure;

/// Sentinel lane mask for entries whose lanes do not fit the 64-bit image
/// (architectures with more than 64 lanes): never skipped by the mask
/// fast path, always validated the slow way.
const LANES_MASK_ALL: u64 = u64::MAX;

/// Which processor-lane probes the point layer completes. The selection
/// sweep only consumes the field its cost function ranks by, so the other
/// probe can be skipped; the unused fields then mirror the focused one
/// (consistent and deterministic, but not meaningful). External users of
/// [`ProbeCache::probe`] get [`PointFocus::Full`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointFocus {
    /// Complete both `start_best` and `start_worst` (exact [`ProbePoint`]).
    #[default]
    Full,
    /// Complete only `start_worst` (schedule-pressure selection).
    WorstOnly,
    /// Complete only `start_best` (earliest-start selection).
    BestOnly,
}

/// Cache effectiveness counters (cumulative over the engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Total probe requests served.
    pub probes: u64,
    /// Served from cache because no consulted lane changed version.
    pub version_hits: u64,
    /// Served from cache after replaying the recorded probe events.
    pub replay_hits: u64,
    /// Recomputed from scratch.
    pub recomputes: u64,
    /// Candidates skipped wholesale by the sweep engine's dirty-set
    /// selection (their pairs were not probed at all that step).
    pub skipped_ops: u64,
    /// Candidates dismissed by the urgency upper bound (σ can never exceed
    /// the maximum lane tail plus the worst input-route duration, so a
    /// candidate whose bound is below the running best cannot win the
    /// step); their evaluations were not even revalidated.
    pub bound_skips: u64,
    /// Always 0. Orbit (symmetry) pruning was removed; the field remains
    /// because the benchmark's trace reader (`perfbench/src/trace.rs`)
    /// still reads it.
    pub orbit_hits: u64,
    /// Super-operation clusters built by the clustered strategy (0 for the
    /// exact strategies).
    pub clusters: u64,
}

/// The shared per-⟨operation, processor⟩ probe cache.
///
/// [`ProbeCache::probe`] returns exactly what
/// [`ScheduleBuilder::probe`] would, but reuses cached results where the
/// three-tier validation proves them still exact. Both FTBAR's sweep and
/// HBP's pair search sit on top of it.
///
/// Rows are flat struct-of-arrays storage — see the module docs.
#[derive(Debug)]
pub struct ProbeCache {
    procs: usize,
    // --- SoA pair rows, indexed `op.index() * procs + proc.index()` ---
    /// Row occupancy. A false row has unspecified scalar fields; its
    /// event/lane buffers are still valid (and reused by the next compute).
    present: Vec<bool>,
    /// Replica-set stamp at plan-compute time (tier 1).
    stamps: Vec<u64>,
    /// The cached input plans.
    plans: Vec<PlanProbe>,
    /// Bit image of each row's consulted lanes over the flat lane space
    /// (processors first, then links); [`LANES_MASK_ALL`] when some lane
    /// does not fit 64 bits. Drives the per-step mask fast path.
    lanes_masks: Vec<u64>,
    /// Sync span in which each plan was last validated; the mask fast path
    /// requires the current or previous span (older entries have missed a
    /// delta the masks no longer describe).
    checked_syncs: Vec<u64>,
    /// Version of the processor lane when each point was completed
    /// (`u64::MAX` forces re-completion after a plan recompute).
    proc_vers: Vec<u64>,
    /// The completed probe results.
    points: Vec<ProbePoint>,
    /// Bumped whenever a point's *value* changes; lets kept-set caching
    /// skip rebuilds when refreshes reproduced the same numbers.
    gens: Vec<u64>,
    /// Every link probe a row's plan performed, in evaluation order
    /// (tier 3). Persistent per-row buffers, reused in place.
    row_events: Vec<Vec<ProbeEvent>>,
    /// Lanes each row's plan consulted — flat `u32` lane ids with the
    /// versions seen at validation (tier 2). Persistent, reused in place.
    row_lanes: Vec<Vec<(u32, u64)>>,
    /// Flattened scheduling-predecessor adjacency
    /// (`preds[preds_off[op]..preds_off[op + 1]]`), cached to keep stamp
    /// computation allocation-free.
    preds: Vec<OpId>,
    preds_off: Vec<u32>,
    stats: SweepStats,
    next_gen: u64,
    scratch: ProbeScratch,
    // --- change-mask fast path (see `sync`) ---
    /// Builder mutation count at the last sync; equal ⇒ masks current.
    synced_mutations: u64,
    /// Bumped per sync; entries validated in the current or previous
    /// quiescent span may use the mask fast path.
    sync_count: u64,
    /// Last observed version per flat lane (processors then links).
    lane_vers: Vec<u64>,
    /// Lanes whose version moved in the last sync, as a bit image
    /// ([`LANES_MASK_ALL`]-saturated when lanes exceed 64).
    changed_lanes: u64,
    focus: PointFocus,
}

/// Recyclable buffers of a retired [`ProbeCache`]: the per-row event and
/// lane buffers its rows accumulated. Problem-agnostic, like
/// [`crate::builder::BuilderPools`] — reclaim with [`ProbeCache::reclaim`]
/// and seed the next cache with [`ProbeCache::new_focused_with_pools`].
#[derive(Debug, Default)]
pub struct CachePools {
    events: Vec<Vec<ProbeEvent>>,
    lanes: Vec<Vec<(u32, u64)>>,
}

impl ProbeCache {
    /// An empty cache for `problem` (exact probes).
    pub fn new(problem: &Problem) -> Self {
        Self::new_focused(problem, PointFocus::Full)
    }

    /// An empty cache completing only the probe field `focus` names.
    pub fn new_focused(problem: &Problem, focus: PointFocus) -> Self {
        Self::new_focused_with_pools(problem, focus, CachePools::default())
    }

    /// As [`ProbeCache::new_focused`], seeded with recycled buffer
    /// `pools`. Purely an allocation optimization — cached state never
    /// crosses over, so a pooled cache behaves bit-identically.
    pub fn new_focused_with_pools(
        problem: &Problem,
        focus: PointFocus,
        mut pools: CachePools,
    ) -> Self {
        let alg = problem.alg();
        let n_ops = alg.op_count();
        let mut preds = Vec::with_capacity(alg.dep_count());
        let mut preds_off = Vec::with_capacity(n_ops + 1);
        preds_off.push(0u32);
        for op in alg.ops() {
            preds.extend(alg.sched_preds(op).map(|(_, p)| p));
            preds_off.push(preds.len() as u32);
        }
        let procs = problem.arch().proc_count();
        let rows = n_ops * procs;
        let mut row_events = Vec::with_capacity(rows);
        let mut row_lanes = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut ev = pools.events.pop().unwrap_or_default();
            ev.clear();
            row_events.push(ev);
            let mut ln = pools.lanes.pop().unwrap_or_default();
            ln.clear();
            row_lanes.push(ln);
        }
        let never = ProbePoint {
            start_best: Time::MAX,
            start_worst: Time::MAX,
            end_best: Time::MAX,
        };
        ProbeCache {
            procs,
            present: vec![false; rows],
            stamps: vec![0; rows],
            plans: vec![PlanProbe::Fixed(never); rows],
            lanes_masks: vec![0; rows],
            checked_syncs: vec![0; rows],
            proc_vers: vec![u64::MAX; rows],
            points: vec![never; rows],
            gens: vec![0; rows],
            row_events,
            row_lanes,
            preds,
            preds_off,
            stats: SweepStats::default(),
            next_gen: 0,
            scratch: ProbeScratch::default(),
            synced_mutations: u64::MAX,
            sync_count: 0,
            lane_vers: vec![0; procs + problem.arch().link_count()],
            changed_lanes: LANES_MASK_ALL,
            focus,
        }
    }

    /// Retires the cache, reclaiming its recyclable per-row buffers.
    pub fn reclaim(mut self) -> CachePools {
        CachePools {
            events: std::mem::take(&mut self.row_events),
            lanes: std::mem::take(&mut self.row_lanes),
        }
    }

    /// Cache effectiveness counters.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    fn idx(&self, op: OpId, proc: ProcId) -> usize {
        op.index() * self.procs + proc.index()
    }

    /// Current builder version of a flat lane.
    fn lane_version_flat(&self, b: &ScheduleBuilder<'_>, flat: u32) -> u64 {
        lane_version_of(b, self.procs, flat)
    }

    /// Tier-1 stamp: moved iff the replica set of `op` or of any of its
    /// scheduling predecessors changed (the counters are monotone between
    /// committed states, so the sum moves iff any component moved).
    fn stamp(&self, b: &ScheduleBuilder<'_>, op: OpId) -> u64 {
        let mut s = b.op_replicas_version(op);
        for &p in &self.preds
            [self.preds_off[op.index()] as usize..self.preds_off[op.index() + 1] as usize]
        {
            s += b.op_replicas_version(p);
        }
        s
    }

    /// Refreshes the change mask if the builder mutated since the last
    /// probe: one pass over the lane versions, amortized over every probe
    /// of the following quiescent span. `changed_lanes` then describes
    /// exactly the lane delta of the last span, so an entry validated in
    /// the current *or previous* quiescent span whose stamp matches and
    /// whose consulted-lane mask misses it is still exact — an integer
    /// compare and an AND instead of per-lane version scans (tier 0;
    /// replica-set changes are covered by the per-op stamp, not a mask).
    fn sync(&mut self, b: &ScheduleBuilder<'_>) {
        let mc = b.mutation_count();
        if self.synced_mutations == mc {
            return;
        }
        self.synced_mutations = mc;
        self.sync_count += 1;
        let mut changed = 0u64;
        for i in 0..self.lane_vers.len() {
            let v = self.lane_version_flat(b, i as u32);
            if v != self.lane_vers[i] {
                self.lane_vers[i] = v;
                changed |= if i < 64 { 1u64 << i } else { LANES_MASK_ALL };
            }
        }
        self.changed_lanes = changed;
    }

    /// Probes `op` on `proc` through the cache. Bit-identical to
    /// [`ScheduleBuilder::probe`] on the same state.
    ///
    /// # Errors
    ///
    /// As [`ScheduleBuilder::probe`]; errors are not cached.
    pub fn probe(
        &mut self,
        b: &ScheduleBuilder<'_>,
        op: OpId,
        proc: ProcId,
    ) -> Result<ProbePoint, ScheduleError> {
        self.sync(b);
        let stamp = self.stamp(b, op);
        Ok(self.probe_entry(b, op, proc, stamp)?.0)
    }

    /// True if the row's plan layer passes tier 0 (stamp + change mask) or
    /// tier 2 (full per-lane version scan); refreshes the row's sync span
    /// on success. Does **not** try tier-3 replay.
    fn plan_version_valid(&mut self, b: &ScheduleBuilder<'_>, idx: usize, stamp: u64) -> bool {
        if !self.present[idx] || self.stamps[idx] != stamp {
            return false;
        }
        if (self.checked_syncs[idx] + 1 >= self.sync_count
            && self.lanes_masks[idx] & self.changed_lanes == 0)
            || self.row_lanes[idx]
                .iter()
                .all(|&(l, v)| self.lane_version_flat(b, l) == v)
        {
            self.checked_syncs[idx] = self.sync_count;
            true
        } else {
            false
        }
    }

    /// As [`ProbeCache::probe`], with the caller having hoisted
    /// [`ProbeCache::sync`]-equivalent state and the per-op stamp, also
    /// returning the row generation (bumped whenever the value actually
    /// changed).
    fn probe_entry(
        &mut self,
        b: &ScheduleBuilder<'_>,
        op: OpId,
        proc: ProcId,
        stamp: u64,
    ) -> Result<(ProbePoint, u64), ScheduleError> {
        self.stats.probes += 1;
        let idx = self.idx(op, proc);
        // Plan layer: tier 0 (stamp + change mask), then tiers 2-3.
        let mut plan_valid = false;
        if self.plan_version_valid(b, idx, stamp) {
            self.stats.version_hits += 1;
            plan_valid = true;
        } else if self.present[idx]
            && self.stamps[idx] == stamp
            && self.row_events[idx]
                .iter()
                .rev()
                .all(|ev| b.replay_probe(ev))
        {
            let procs = self.procs;
            for (flat, ver) in &mut self.row_lanes[idx] {
                *ver = lane_version_of(b, procs, *flat);
            }
            self.checked_syncs[idx] = self.sync_count;
            self.stats.replay_hits += 1;
            plan_valid = true;
        }
        if !plan_valid {
            // Recompute straight into the row's persistent event buffer —
            // no allocation in steady state. The row is marked absent while
            // its buffers are being clobbered so an error cannot leave a
            // half-updated row behind.
            self.present[idx] = false;
            let events = &mut self.row_events[idx];
            events.clear();
            let plan = b.probe_plan(op, proc, events, &mut self.scratch)?;
            self.install_plan(b, idx, stamp, plan);
        }
        Ok(self.complete_point(b, idx, proc))
    }

    /// Point layer: completes the row's plan against the (volatile)
    /// processor lane, reusing the completed value while the lane version
    /// is unchanged, and bumps the row generation when the value moved.
    /// The row's plan must be valid.
    fn complete_point(
        &mut self,
        b: &ScheduleBuilder<'_>,
        idx: usize,
        proc: ProcId,
    ) -> (ProbePoint, u64) {
        let pv = b.lane_version(Lane::Proc(proc));
        let point = match self.plans[idx] {
            PlanProbe::Fixed(p) => p,
            PlanProbe::Ready {
                best_ready,
                worst_ready,
                dur,
            } => {
                if self.proc_vers[idx] == pv {
                    self.points[idx]
                } else {
                    self.proc_vers[idx] = pv;
                    match self.focus {
                        PointFocus::Full => {
                            let start_best = b.proc_probe(proc, best_ready, dur);
                            let start_worst = b.proc_probe(proc, worst_ready, dur);
                            ProbePoint {
                                start_best,
                                start_worst,
                                end_best: start_best + dur,
                            }
                        }
                        PointFocus::WorstOnly => {
                            let start_worst = b.proc_probe(proc, worst_ready, dur);
                            ProbePoint {
                                start_best: start_worst,
                                start_worst,
                                end_best: start_worst + dur,
                            }
                        }
                        PointFocus::BestOnly => {
                            let start_best = b.proc_probe(proc, best_ready, dur);
                            ProbePoint {
                                start_best,
                                start_worst: start_best,
                                end_best: start_best + dur,
                            }
                        }
                    }
                }
            }
        };
        if point != self.points[idx] {
            self.points[idx] = point;
            self.gens[idx] = self.next_gen;
            self.next_gen += 1;
        }
        (point, self.gens[idx])
    }

    /// Installs a freshly computed plan for the pair at `idx`, whose
    /// recorded events are already in `row_events[idx]`: derives the
    /// consulted lanes and their mask in place, preserves the previous
    /// point/generation for value-change detection, and stamps the row as
    /// validated in the current sync span.
    fn install_plan(&mut self, b: &ScheduleBuilder<'_>, idx: usize, stamp: u64, plan: PlanProbe) {
        self.stats.recomputes += 1;
        if !self.present[idx] && self.gens[idx] == 0 && self.points[idx].start_best == Time::MAX {
            // First compute of this row: reserve a fresh generation so the
            // first completion always bumps it (the placeholder point can
            // never equal a real probe).
            self.gens[idx] = self.next_gen;
            self.next_gen += 1;
        }
        let mask = {
            let lanes = &mut self.row_lanes[idx];
            lanes.clear();
            let mut mask = 0u64;
            for ev in &self.row_events[idx] {
                let flat = match ev.lane {
                    Lane::Proc(p) => p.index(),
                    Lane::Link(l) => self.procs + l.index(),
                };
                if !lanes.iter().any(|&(l, _)| l as usize == flat) {
                    lanes.push((flat as u32, b.lane_version(ev.lane)));
                    mask |= if flat < 64 {
                        1u64 << flat
                    } else {
                        LANES_MASK_ALL
                    };
                }
            }
            mask
        };
        self.stamps[idx] = stamp;
        self.plans[idx] = plan;
        self.lanes_masks[idx] = mask;
        self.checked_syncs[idx] = self.sync_count;
        self.proc_vers[idx] = u64::MAX;
        self.present[idx] = true;
    }

    /// Drops the cached row of `op` (called when it leaves the candidate
    /// set — its pairs will never be probed again). The rows' buffers stay
    /// in place for later reuse.
    pub fn forget_op(&mut self, op: OpId) {
        for proc in 0..self.procs {
            self.present[op.index() * self.procs + proc] = false;
        }
    }
}

/// Cached evaluation of one candidate operation.
#[derive(Debug, Clone, Default)]
struct OpEval {
    valid: bool,
    /// Replica-set stamp when the evaluation was built (dirty-set tier 1).
    stamp: u64,
    /// Sync span in which the op's plan layer was last known valid; the
    /// plan-clean skip requires the current or previous span.
    eval_sync: u64,
    /// Union of the pairs' consulted-lane masks (link lanes — the plan
    /// layer's dependency; the point layer is guarded per pair by the
    /// exact `proc_vers` row field instead).
    plan_mask: u64,
    /// Selection key of the kept-set maximum pressure (monotone bit image
    /// of the non-negative `f64`).
    urgency_bits: u64,
    /// The `Npf + 1` kept processors, ascending by `(pressure, proc)`.
    kept: Vec<(ProcId, f64)>,
}

/// Current builder version of a flat lane (processors first, then links).
fn lane_version_of(b: &ScheduleBuilder<'_>, procs: usize, flat: u32) -> u64 {
    let flat = flat as usize;
    if flat < procs {
        b.lane_version(Lane::Proc(ProcId::from_index(flat)))
    } else {
        b.lane_version(Lane::Link(ftbar_model::LinkId::from_index(flat - procs)))
    }
}

/// The incremental selection engine driving FTBAR's micro-steps À/Á.
///
/// Maintains per-candidate kept sets and the urgency max-structure over a
/// [`ProbeCache`] owned by the caller (the [`crate::engine::Engine`]
/// pipeline, which also owns the builder the cache shadows). One
/// [`SweepEngine::select`] call per main-loop step replaces the naive full
/// sweep; candidates untouched by the last placement are skipped without
/// probing any of their pairs (see the module docs). The borrowed cache's
/// [`PointFocus`] must match the cost function (`WorstOnly` for schedule
/// pressure, `BestOnly` for earliest start);
/// [`crate::ftbar::schedule_with`] wires this up.
#[derive(Debug)]
pub struct SweepEngine {
    cost: CostFunction,
    k: usize,
    /// `S̄(o)` per operation (static).
    bottom: Vec<f64>,
    /// Flattened allowed-processor lists per operation (static):
    /// `allowed[allowed_off[op]..allowed_off[op + 1]]`.
    allowed: Vec<ProcId>,
    allowed_off: Vec<u32>,
    evals: Vec<OpEval>,
    /// Per-pair pressures, flat parallel to `allowed`: the σ value each
    /// pair contributed to its op's latest kept set. Plan-clean refreshes
    /// update only the entries whose processor lane moved.
    sig: Vec<f64>,
    /// Live candidates in scan order: descending static bottom level,
    /// ascending operation id within ties. Scanning in this order makes
    /// the urgency upper bound monotone, so the selection sweep can stop
    /// at the first candidate whose bound falls below the running best —
    /// everything after it is provably non-winning (see `DESIGN.md` §11).
    order: Vec<OpId>,
    /// Membership mirror of `order`, for O(1) entrant detection.
    in_cand: Vec<bool>,
    /// Per-operation static input slack: the largest route communication
    /// duration any incoming dependency can incur (0 for entry ops). A
    /// candidate's input-ready instant can never exceed the maximum lane
    /// tail plus this slack.
    in_slack: Vec<Time>,
    /// Maximum of `in_slack` over all operations — the architecture-wide
    /// slack that keeps the scan-order bound monotone.
    route_slack: Time,
    /// Scratch: per-candidate sigmas for kept-set rebuilds.
    sigmas: Vec<(ProcId, f64)>,
}

impl SweepEngine {
    /// A fresh engine for `problem`.
    pub fn new(problem: &Problem, pressure: &Pressure, cost: CostFunction) -> Self {
        Self::new_masked(problem, pressure, cost, None)
    }

    /// A fresh engine for a resumed run: the static slack bounds are
    /// computed only for operations still `pending` (indexed by operation).
    ///
    /// Sound because the bounds are only consulted for candidates, and only
    /// pending operations ever become candidates; restricting the
    /// `route_slack` maximum to pending operations can only *tighten* the
    /// urgency upper bound, and [`SweepEngine::select`] skips a candidate
    /// only when its bound is **strictly** below the incumbent σ — a
    /// tighter sound bound therefore never changes which candidate wins,
    /// only how many probes the sweep avoids.
    pub fn new_pending(
        problem: &Problem,
        pressure: &Pressure,
        cost: CostFunction,
        pending: &[bool],
    ) -> Self {
        Self::new_masked(problem, pressure, cost, Some(pending))
    }

    fn new_masked(
        problem: &Problem,
        pressure: &Pressure,
        cost: CostFunction,
        pending: Option<&[bool]>,
    ) -> Self {
        let alg = problem.alg();
        let mut allowed = Vec::with_capacity(alg.op_count() * problem.arch().proc_count());
        let mut allowed_off = Vec::with_capacity(alg.op_count() + 1);
        allowed_off.push(0u32);
        for op in alg.ops() {
            allowed.extend(problem.exec().allowed_procs(op));
            allowed_off.push(allowed.len() as u32);
        }
        // Static per-dependency worst route duration: the largest hop-sum
        // over any usable route between any ordered processor pair. Probed
        // arrivals start at a replica end (≤ some lane tail) and add one
        // route's hop durations, each hop also waiting on a link tail, so
        // this bounds how far past `max_lane_end` an input-ready instant
        // can reach. Saturates to `Time::MAX` (bound disabled) rather than
        // ever underestimating.
        let arch = problem.arch();
        let routes = problem.routes();
        let comm = problem.comm();
        let is_pending = |op: OpId| pending.is_none_or(|m| m[op.index()]);
        // Only dependencies feeding a pending operation contribute to any
        // consulted `in_slack`; skip the worst-route scan for the rest.
        let mut needed = vec![false; alg.dep_count()];
        for op in alg.ops() {
            if is_pending(op) {
                for (d, _) in alg.sched_preds(op) {
                    needed[d.index()] = true;
                }
            }
        }
        let mut dep_slack = vec![Time::ZERO; alg.dep_count()];
        for dep in alg.deps() {
            if !needed[dep.index()] {
                continue;
            }
            let mut worst = Time::ZERO;
            for src in arch.procs() {
                for dst in arch.procs() {
                    if src == dst {
                        continue;
                    }
                    'route: for route in routes.all(src, dst) {
                        let mut sum = Time::ZERO;
                        for hop in route.hops() {
                            match comm.get(dep, hop.link) {
                                Some(d) => sum = sum.checked_add(d).unwrap_or(Time::MAX),
                                None => continue 'route,
                            }
                        }
                        worst = worst.max(sum);
                    }
                }
            }
            dep_slack[dep.index()] = worst;
        }
        let in_slack: Vec<Time> = alg
            .ops()
            .map(|op| {
                if !is_pending(op) {
                    return Time::ZERO;
                }
                alg.sched_preds(op)
                    .map(|(d, _)| dep_slack[d.index()])
                    .fold(Time::ZERO, Time::max)
            })
            .collect();
        let route_slack = in_slack.iter().copied().fold(Time::ZERO, Time::max);
        SweepEngine {
            cost,
            k: problem.replication(),
            bottom: alg.ops().map(|op| pressure.bottom_level(op)).collect(),
            sig: vec![0.0; allowed.len()],
            allowed,
            allowed_off,
            evals: vec![OpEval::default(); alg.op_count()],
            order: Vec::new(),
            in_cand: vec![false; alg.op_count()],
            in_slack,
            route_slack,
            sigmas: Vec::new(),
        }
    }

    /// True if `op`'s *plan layer* is provably current across all its
    /// pairs: the evaluation was built at the same replica-set stamp,
    /// validated in the current or previous quiescent span, and none of
    /// the link lanes any pair's plan consulted changed since. The pairs'
    /// input plans — the expensive half — are then exact without touching
    /// a single row; only the per-pair point completions (guarded exactly
    /// by the rows' processor-lane versions) may still need refreshing.
    fn plan_clean(&self, op: OpId, stamp: u64, sync: u64, changed: u64) -> bool {
        let eval = &self.evals[op.index()];
        eval.valid
            && eval.stamp == stamp
            && (eval.eval_sync == sync
                || (eval.eval_sync + 1 == sync && eval.plan_mask & changed == 0))
    }

    /// Rebuilds `op`'s kept set and urgency from the σ values in
    /// `self.sig` (micro-step À: top-(Npf+1) selection, then order the
    /// kept set — replaces the naive full sort).
    fn rebuild_kept(&mut self, op: OpId) {
        let span = self.allowed_off[op.index()] as usize..self.allowed_off[op.index() + 1] as usize;
        self.sigmas.clear();
        for pi in span {
            self.sigmas.push((self.allowed[pi], self.sig[pi]));
        }
        let cmp = |a: &(ProcId, f64), b: &(ProcId, f64)| {
            a.1.partial_cmp(&b.1)
                .expect("pressures are finite")
                .then(a.0.cmp(&b.0))
        };
        if self.sigmas.len() > self.k {
            self.sigmas.select_nth_unstable_by(self.k - 1, cmp);
        }
        self.sigmas.truncate(self.k);
        self.sigmas.sort_by(cmp);
        let urgency = self.sigmas.last().expect("k >= 1").1;
        let eval = &mut self.evals[op.index()];
        eval.kept.clear();
        eval.kept.extend_from_slice(&self.sigmas);
        eval.urgency_bits = urgency.to_bits();
    }

    /// The cost function applied to a completed probe point.
    fn sigma_of(&self, op: OpId, point: ProbePoint) -> f64 {
        match self.cost {
            CostFunction::SchedulePressure => {
                point.start_worst.as_units() + self.bottom[op.index()]
            }
            CostFunction::EarliestStart => point.start_best.as_units(),
        }
    }

    /// Sound upper bound on `op`'s σ at the current state, as the monotone
    /// bit image selection compares by. `tail` is the builder's
    /// [`ScheduleBuilder::max_lane_end`]; `slack` is either the op's own
    /// input slack (tightest) or the engine-wide `route_slack` (monotone
    /// along the `order` scan). Soundness: a probe answer never exceeds
    /// `max(ready, lane tail)`, an input-ready instant never exceeds
    /// `tail + slack`, `Time → f64` conversion is monotone, and `f64`
    /// addition of the same non-negative bottom level preserves order.
    fn upper_bits(&self, op: OpId, tail: Time, slack: Time) -> u64 {
        let base = match tail.checked_add(slack) {
            Some(t) => t.as_units(),
            None => f64::INFINITY,
        };
        let u = match self.cost {
            CostFunction::SchedulePressure => base + self.bottom[op.index()],
            CostFunction::EarliestStart => base,
        };
        u.to_bits()
    }

    /// The `(bottom level descending, op ascending)` scan key of `order`.
    fn order_key(&self, op: OpId) -> (std::cmp::Reverse<u64>, OpId) {
        (std::cmp::Reverse(self.bottom[op.index()].to_bits()), op)
    }

    /// Runs micro-steps À and Á: refreshes every dirty ⟨candidate,
    /// processor⟩ pair, rebuilds the affected kept sets, and returns the
    /// most urgent candidate. `cand` must be the current candidate set,
    /// ascending by operation id.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotEnoughProcessors`] if a candidate admits fewer
    /// processors than the replication level (as the naive sweep), plus
    /// any probe error.
    #[allow(clippy::type_complexity)]
    pub fn select(
        &mut self,
        cache: &mut ProbeCache,
        b: &ScheduleBuilder<'_>,
        cand: &[OpId],
    ) -> Result<(OpId, &[(ProcId, f64)]), ScheduleError> {
        // Candidate-order maintenance: between retires `cand` only grows,
        // so one ascending pass finds the entrants; each is inserted into
        // the static `(bottom desc, op asc)` scan order. A candidate
        // spanning fewer processors than the replication level errors
        // here, at its entry step — the same step the naive sweep first
        // visits it (entrants are walked ascending by id, matching the
        // naive sweep's first-offender choice).
        for &op in cand {
            if !self.in_cand[op.index()] {
                let span = self.allowed_off[op.index() + 1] - self.allowed_off[op.index()];
                if (span as usize) < self.k {
                    return Err(ScheduleError::NotEnoughProcessors { op, needed: self.k });
                }
                self.in_cand[op.index()] = true;
                let key = self.order_key(op);
                let pos = self.order.partition_point(|&o| self.order_key(o) < key);
                self.order.insert(pos, op);
            }
        }
        let tail = b.max_lane_end();
        // Serial refresh + eval rebuild, with two pruning levels on top of
        // the dirty-set skip: plan-clean candidates bypass every pair-row
        // validation tier and only re-complete points whose processor lane
        // actually moved, while candidates whose σ upper bound (maximum
        // lane tail + input-route slack + bottom level) falls strictly
        // below the running best are not touched at all — their σ can
        // never reach the best, so skipping them is exact. The scan runs
        // in descending-bottom order, which makes the engine-wide bound
        // monotone: the first candidate below it ends the step for every
        // candidate after it too. `best` is the flat max-structure over
        // kept-set pressures with the naive sweep's tie-break (largest
        // urgency, then smallest operation id) applied explicitly, since
        // the scan is no longer in id order.
        let mut best: Option<(u64, OpId)> = None;
        cache.sync(b);
        let (sync, changed) = (cache.sync_count, cache.changed_lanes);
        for i in 0..self.order.len() {
            let op = self.order[i];
            if let Some((bb, _)) = best {
                if self.upper_bits(op, tail, self.route_slack) < bb {
                    cache.stats.bound_skips += (self.order.len() - i) as u64;
                    break;
                }
                if self.upper_bits(op, tail, self.in_slack[op.index()]) < bb {
                    cache.stats.bound_skips += 1;
                    continue;
                }
            }
            let stamp = cache.stamp(b, op);
            if self.plan_clean(op, stamp, sync, changed) {
                // Point-only refresh: every pair's plan is exact; σ moves
                // only where the hosting processor's lane version did.
                cache.stats.skipped_ops += 1;
                let mut moved = false;
                for pi in self.allowed_off[op.index()]..self.allowed_off[op.index() + 1] {
                    let pi = pi as usize;
                    let proc = self.allowed[pi];
                    let idx = cache.idx(op, proc);
                    if let PlanProbe::Ready { .. } = cache.plans[idx] {
                        if cache.proc_vers[idx] != b.lane_version(Lane::Proc(proc)) {
                            let (point, _) = cache.complete_point(b, idx, proc);
                            let sigma = self.sigma_of(op, point);
                            if sigma != self.sig[pi] {
                                self.sig[pi] = sigma;
                                moved = true;
                            }
                        }
                    }
                }
                if moved {
                    self.rebuild_kept(op);
                }
                self.evals[op.index()].eval_sync = sync;
            } else {
                let prev_valid = self.evals[op.index()].valid;
                let mut moved = !prev_valid;
                let mut plan_mask = 0u64;
                for pi in self.allowed_off[op.index()]..self.allowed_off[op.index() + 1] {
                    let pi = pi as usize;
                    let proc = self.allowed[pi];
                    let (point, _) = cache.probe_entry(b, op, proc, stamp)?;
                    plan_mask |= cache.lanes_masks[cache.idx(op, proc)];
                    let sigma = self.sigma_of(op, point);
                    if sigma != self.sig[pi] {
                        self.sig[pi] = sigma;
                        moved = true;
                    }
                }
                if moved {
                    // Some pair's value moved: rebuild the kept set.
                    self.rebuild_kept(op);
                }
                let eval = &mut self.evals[op.index()];
                eval.stamp = stamp;
                eval.eval_sync = sync;
                eval.plan_mask = plan_mask;
                eval.valid = true;
            }
            // Micro-step Á: urgency = the kept-set maximum pressure
            // (non-negative, so the bit image orders like the float).
            let bits = self.evals[op.index()].urgency_bits;
            let better = match best {
                None => true,
                Some((bb, bo)) => bits > bb || (bits == bb && op < bo),
            };
            if better {
                best = Some((bits, op));
            }
        }
        let (_, op) = best.expect("candidate set is non-empty");
        Ok((op, &self.evals[op.index()].kept))
    }

    /// Full evaluated pressure list of `op`, ascending by
    /// `(pressure, proc)` — what the naive sweep's `StepTrace` records.
    /// Call only after [`SweepEngine::select`] in the same step.
    pub fn pressures_of(
        &mut self,
        cache: &mut ProbeCache,
        b: &ScheduleBuilder<'_>,
        op: OpId,
    ) -> Result<Vec<(ProcId, f64)>, ScheduleError> {
        let span = self.allowed_off[op.index()]..self.allowed_off[op.index() + 1];
        let mut all = Vec::with_capacity(span.len());
        for pi in span {
            let proc = self.allowed[pi as usize];
            let point = cache.probe(b, op, proc)?;
            let sigma = match self.cost {
                CostFunction::SchedulePressure => {
                    point.start_worst.as_units() + self.bottom[op.index()]
                }
                CostFunction::EarliestStart => point.start_best.as_units(),
            };
            all.push((proc, sigma));
        }
        all.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("pressures are finite")
                .then(a.0.cmp(&b.0))
        });
        Ok(all)
    }

    /// Retires a scheduled operation: drops its cached evaluation and
    /// removes it from the candidate scan order. The matching cache row is
    /// dropped by the cache's owner ([`ProbeCache::forget_op`], called by
    /// the engine pipeline).
    pub fn retire(&mut self, op: OpId) {
        self.evals[op.index()].valid = false;
        if self.in_cand[op.index()] {
            self.in_cand[op.index()] = false;
            let key = self.order_key(op);
            let pos = self.order.partition_point(|&o| self.order_key(o) < key);
            debug_assert!(self.order.get(pos) == Some(&op));
            self.order.remove(pos);
        }
    }
}
