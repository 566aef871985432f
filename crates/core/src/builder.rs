//! Low-level schedule construction: replica placement, route-aware comm
//! booking, and the paper's `Minimize_start_time` predecessor-duplication
//! procedure.
//!
//! [`ScheduleBuilder`] is the mutable state shared by all schedulers in this
//! workspace (FTBAR, the non-FT baseline, and the HBP comparator). It owns
//! one [`Timeline`] per processor and per link and books:
//!
//! * **replicas** — operation instances placed in the earliest feasible gap
//!   of a processor timeline at their `S_best` (first complete input set);
//! * **comms** — for every ⟨predecessor, replica⟩ pair without a reliable
//!   local copy of the predecessor, transfers from distinct predecessor
//!   replicas routed over link timelines, in parallel.
//!
//! # Failure-disjoint booking
//!
//! The paper's wiring rule — `Npf + 1` comms from distinct source
//! processors, or none at all when a local replica exists — masks `Npf`
//! failures only on fully connected architectures. On store-and-forward
//! topologies a single intermediate processor can carry several comms (or
//! all inputs of the local copy), so the builder reasons about failure
//! patterns explicitly: it tracks, per booked replica, the exact set of
//! failure patterns (processor subsets of size ≤ `Npf`) the replica
//! survives, and a dependency plan is accepted only when, for *every*
//! pattern not containing the consumer's processor, some planned source
//! survives — the source replica itself survives the pattern and no
//! processor on the comm's route is in it. When the classic choice falls
//! short, additional comms are booked over the problem's cached
//! vertex-disjoint alternative routes ([`ftbar_model::RouteTable`]) until
//! the pattern space is covered (or provably cannot be, in which case the
//! builder keeps the best-effort classic plan). See `DESIGN.md` for the
//! correctness argument.
//!
//! # Evaluate, then commit
//!
//! A placement is first *evaluated*: the input plan, every comm hop's slot
//! and the replica's slot are computed on the current state without
//! touching a timeline or a store (a hop also keeps clear of the
//! placement's own earlier hops, as booking them one by one would). The
//! evaluated segment is then *committed* verbatim. `Minimize_start_time`
//! compares evaluations of the operation being placed and commits only the
//! winner; only the predecessor duplicates it tries are booked.
//!
//! Most trial evaluations lose, so an evaluation does as little as the
//! decision needs (`DESIGN.md` §4): a trial re-evaluation stops at planning
//! once its latest planned input already rules out beating the current
//! `S_worst`; a nested duplication stops as soon as its parent's trial can
//! no longer win; layout takes each hop's start from the plan's probe until
//! a clash with the placement's own hops moves a hop; and each ⟨replica,
//! route⟩ candidate is probed at most once per dependency.
//!
//! # Transactions
//!
//! Rollback (paper step Ð, "undo all the replications") is transactional
//! through an undo log: [`ScheduleBuilder::checkpoint`] marks the current
//! extent of the append-only replica/comm logs, and
//! [`ScheduleBuilder::rollback`] unwinds every timeline insertion, replica
//! push, and comm booking made since a mark. Attempt-and-compare search
//! (rejected duplications in `place_min_start`, HBP's processor-pair
//! probing) rolls back instead of deep-cloning the whole builder per
//! attempt. [`DuplicationStats`] counts this work.

use ftbar_model::{Alg, DepId, LinkId, OpId, Problem, ProcId, Time};

use crate::error::ScheduleError;
use crate::schedule::{BookedHop, Comm, CommId, Replica, ReplicaId, Schedule};
use crate::timeline::{Slot, Timeline};

/// A bookable resource timeline: a processor lane or a link lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// The processor's execution timeline.
    Proc(ProcId),
    /// The link's transfer timeline.
    Link(LinkId),
}

/// One link-timeline probe performed while planning a placement's inputs,
/// recorded by [`ScheduleBuilder::probe_plan`].
///
/// A probed input plan is a pure function of (a) the static problem
/// tables, (b) the predecessor replica sets (guarded by
/// [`ScheduleBuilder::op_replicas_version`]), and (c) the answers the link
/// timelines gave to exactly these probe calls — so a cached [`PlanProbe`]
/// is still exact whenever every recorded event reproduces
/// ([`ScheduleBuilder::replay_probe`]). The sweep engine builds its
/// invalidation on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeEvent {
    /// The probed link.
    pub link: LinkId,
    /// The ready instant the probe started from.
    pub ready: Time,
    /// The requested duration.
    pub dur: Time,
    /// The start the timeline answered.
    pub start: Time,
}

/// Maximum recursion depth of `Minimize_start_time` (bounds the cost of
/// duplicating whole ancestor chains on deep graphs).
///
/// The cost concentrates at the cap: on the `cli-large` mesh spec
/// (N = 1500, mesh:3x2) 50 of the 3,000 top-level placements took 92 % of
/// `place_min_start`'s time before nested calls could abort, and every one
/// of them reached depth 24 on an underloaded processor.
const MAX_DUPLICATION_DEPTH: usize = 24;

/// Probed (non-mutating) placement estimate for an ⟨operation, processor⟩
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbePoint {
    /// Earliest start given the *first* arriving input set (`S_best`).
    pub start_best: Time,
    /// Earliest start given the *latest* booked input arrival (`S_worst`).
    pub start_worst: Time,
    /// `start_best` plus the execution time on the probed processor.
    pub end_best: Time,
}

/// A transaction mark returned by [`ScheduleBuilder::checkpoint`].
///
/// Because the builder's replica and comm stores are append-only, a mark is
/// just their extents; [`ScheduleBuilder::rollback`] unwinds everything
/// booked after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    replicas: usize,
    comms: usize,
}

/// One selected remote source for a dependency: a producer replica, the
/// candidate route (index into the problem's [`ftbar_model::RouteTable`]
/// entry for the ⟨producer processor, consumer processor⟩ pair), the probed
/// arrival, and the processors whose failure silences the transfer.
#[derive(Debug, Clone, Copy)]
struct RemoteSource {
    src: ReplicaId,
    route: usize,
    arrival: Time,
    /// Bitmask over processors: the source plus the route's intermediates.
    blockers: u64,
    /// Index of the probed start of the route's first hop in the plan's
    /// [`ProbeScratch::hop_starts`]; the other hops follow it.
    first_hop: u32,
}

/// How one dependency's data reaches a replica being planned. Remote
/// choices index into the owning [`PlanBuf`]'s flat source pool.
#[derive(Debug, Clone, Copy)]
enum PlanItem {
    /// A replica of the producer lives on the same processor; no comms.
    Local { src: ReplicaId, ready: Time },
    /// Data arrives over links from `pool[start..start + len]`
    /// (ascending by probed arrival).
    Remote { start: u32, len: u32 },
}

/// Outcome of choosing the sources of one dependency
/// ([`ScheduleBuilder::pick_dep_sources`]): either a reliable/forced local
/// copy, or the remote sources left in the caller's scratch buffer
/// (ascending by `(arrival, src, route)`).
enum DepPick {
    Local {
        src: ReplicaId,
        ready: Time,
    },
    Remote {
        /// Worst (`Npf + 1`-th smallest) primary-route arrival before
        /// coverage augmentation — the quantity LIP selection ranks by.
        primary_worst: Time,
        /// A (fragile) local replica of the producer exists nonetheless.
        local: bool,
    },
}

/// A reusable flat input plan: one [`PlanItem`] per dependency plus the
/// pooled remote sources. Owned by the builder and recycled across
/// placements — evaluation allocates nothing per attempt.
#[derive(Debug, Clone, Default)]
struct PlanBuf {
    items: Vec<(DepId, PlanItem)>,
    pool: Vec<RemoteSource>,
    /// Latest Immediate Predecessor w.r.t. the planned processor, if any.
    lip: Option<(Time, OpId)>,
    /// The evaluated placement's own hops on the link of the hop being
    /// laid out.
    clash: Vec<Slot>,
}

/// One placement as [`ScheduleBuilder::evaluate`] computed it on the
/// current state — the replica and its comms with their exact slots, ids
/// and survival bits — without anything booked.
/// [`ScheduleBuilder::commit`] books it verbatim (no planning, no probing)
/// on that same state, so every `insert_at` lands in a free gap and all ids
/// come out as evaluated. `Minimize_start_time` compares evaluations and
/// commits only the one it keeps.
#[derive(Debug, Clone)]
struct PlacedSegment {
    replica: Replica,
    surv: Vec<u64>,
    fully: bool,
    comms: Vec<Comm>,
    /// Latest Immediate Predecessor of the placement's input plan, if any,
    /// with the floor duplicating it cannot lower (see
    /// [`ScheduleBuilder::trial_floor`]).
    lip: Option<(OpId, Time)>,
}

/// The trial a nested `Minimize_start_time` call runs for: its direct
/// parent duplicates the call's operation (the parent's LIP) to re-place
/// `op`, and keeps the duplication only if the re-placement starts, at
/// worst, before `start_worst`.
#[derive(Debug, Clone, Copy)]
struct ParentTrial {
    op: OpId,
    start_worst: Time,
    /// Execution time of `op` on the shared processor.
    dur: Time,
}

/// Work counters of predecessor duplication (`Minimize_start_time`) and of
/// the undo log, accumulated by one [`ScheduleBuilder`] since it was
/// created or re-attached ([`ScheduleBuilder::from_state`] starts from
/// zero).
///
/// `trials = accepted + rejected`; trials skipped by the exact bound are
/// counted in `pruned` only. A nested call that `aborted` ends its
/// parent's trial, which counts as rejected. For a run that keeps nothing
/// it rolled back, `committed_replicas - rolled_back_replicas` is the
/// schedule's replica count (and likewise for comms).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DuplicationStats {
    /// Placements evaluated: baselines, trial re-placements and plain
    /// [`ScheduleBuilder::place`] calls.
    pub evaluations: u64,
    /// LIP duplications tried (paper step Í).
    pub trials: u64,
    /// Trials kept because they lowered `S_worst` (step Ñ).
    pub accepted: u64,
    /// Trials undone (steps Ï/Ð), including ones that failed to place.
    pub rejected: u64,
    /// Trials skipped because a lower bound on the re-placement's
    /// `S_worst` already failed to beat the current one: they would have
    /// been rejected, and nothing was booked for them.
    pub pruned: u64,
    /// Nested calls cut short because their direct parent's trial had
    /// provably lost on the state built so far: the parent rolls the
    /// call's duplicates back, as the rejection it would have reached.
    pub aborted: u64,
    /// Deepest nested `Minimize_start_time` call (0: no duplication tried).
    pub max_depth: u64,
    /// Replicas booked into the timelines.
    pub committed_replicas: u64,
    /// Comms booked into the timelines.
    pub committed_comms: u64,
    /// Replicas unwound by [`ScheduleBuilder::rollback`].
    pub rolled_back_replicas: u64,
    /// Comms unwound by [`ScheduleBuilder::rollback`].
    pub rolled_back_comms: u64,
}

/// One line, as `schedule --stats` and `perf_gate --stats` print it.
impl std::fmt::Display for DuplicationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "evaluations = {}, trials = {} ({} accepted, {} rejected), pruned = {}, \
             aborted = {}, max depth = {}, committed = {} replicas / {} comms, \
             rolled back = {} replicas / {} comms",
            self.evaluations,
            self.trials,
            self.accepted,
            self.rejected,
            self.pruned,
            self.aborted,
            self.max_depth,
            self.committed_replicas,
            self.committed_comms,
            self.rolled_back_replicas,
            self.rolled_back_comms
        )
    }
}

/// Reusable buffers for the allocation-free probe path
/// ([`ScheduleBuilder::probe_plan`]). Callers on the hot sweep keep one
/// per worker; contents are meaningless between calls.
#[derive(Debug, Clone, Default)]
pub struct ProbeScratch {
    chosen: Vec<RemoteSource>,
    /// Every `(replica, route)` candidate probed for the current
    /// dependency, with what the probe found (`None`: the route cannot
    /// carry the dependency).
    tried: Vec<(ReplicaId, usize, Option<RemoteSource>)>,
    /// The probed start of every hop of every candidate of the current
    /// plan (see [`RemoteSource::first_hop`]).
    hop_starts: Vec<Time>,
}

/// The input-plan half of a probe ([`ScheduleBuilder::probe_plan`]): what a
/// would-be replica's inputs cost, before the hosting processor's timeline
/// is consulted. Splitting here lets the sweep engine cache the expensive
/// plan evaluation (source selection, route probing, coverage) under
/// link-lane/replica-set invalidation only, while the volatile processor
/// lanes — written by every placement — cost just two binary-search probes
/// per refresh ([`ScheduleBuilder::proc_probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanProbe {
    /// `op` already has a replica on the processor: the probe is its
    /// recorded times, independent of any timeline.
    Fixed(ProbePoint),
    /// Input-set ready instants and the execution duration; the probe
    /// completes as
    /// `start_best/worst = proc_probe(proc, best/worst_ready, dur)`.
    Ready {
        /// Earliest instant the first complete input set is available.
        best_ready: Time,
        /// Earliest instant accounting for the latest planned arrival.
        worst_ready: Time,
        /// Execution time of `op` on the probed processor.
        dur: Time,
    },
}

/// Whether an abort at `depth` lets its call run on anyway: never, except
/// in the test that checks every abort's parent trial is rejected.
#[cfg(not(test))]
fn run_lost_subtree(_depth: usize) -> bool {
    false
}

#[cfg(test)]
use tests::run_lost_subtree;

/// Bitmasks limit pattern tracking to this many processors; larger
/// architectures degrade to the classic distinct-source rule.
const MAX_TRACKED_PROCS: usize = 64;

/// All non-empty processor subsets of size ≤ `npf`, as bitmasks, in
/// deterministic order (empty when `npf == 0` or the architecture exceeds
/// [`MAX_TRACKED_PROCS`]). Shared by the builder's coverage search and the
/// validator's `route-coverage` check so both always reason over the same
/// pattern space.
pub(crate) fn failure_patterns(proc_count: usize, npf: usize) -> Vec<u64> {
    if npf == 0 || proc_count > MAX_TRACKED_PROCS {
        return Vec::new();
    }
    let mut out = Vec::new();
    fn rec(out: &mut Vec<u64>, mask: u64, from: usize, n: usize, left: usize) {
        if mask != 0 {
            out.push(mask);
        }
        if left == 0 {
            return;
        }
        for i in from..n {
            rec(out, mask | (1 << i), i + 1, n, left - 1);
        }
    }
    rec(&mut out, 0, 0, proc_count, npf);
    out
}

/// Every operation's scheduling predecessors `(dep, producer op)` in one
/// flat table: those of `op` are `preds[pred_off[op] .. pred_off[op + 1]]`,
/// in `Alg::sched_preds` order.
pub(crate) fn flat_sched_preds(alg: &Alg) -> (Vec<(DepId, OpId)>, Vec<u32>) {
    let mut preds = Vec::with_capacity(alg.dep_count());
    let mut pred_off = Vec::with_capacity(alg.op_count() + 1);
    pred_off.push(0);
    for op in alg.ops() {
        preds.extend(alg.sched_preds(op));
        pred_off.push(preds.len() as u32);
    }
    (preds, pred_off)
}

pub(crate) fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

pub(crate) fn bit_set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Incremental schedule state. See the module docs.
///
/// The builder is its booking [`BuilderState`] attached to a problem, plus
/// the scratch [`BuilderPools`] evaluation and rollback recycle through.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder<'p> {
    problem: &'p Problem,
    state: BuilderState,
    pools: BuilderPools,
    /// Duplication and undo-log work counters.
    dup_stats: DuplicationStats,
}

/// Recyclable buffers of a [`ScheduleBuilder`]: the input-plan arena, the
/// probe scratch, and the undo-log pools. Problem-agnostic and never part
/// of the schedule — reclaim them from one builder
/// ([`ScheduleBuilder::finish_reclaim`], [`ScheduleBuilder::into_parts`])
/// and attach them to the next one ([`ScheduleBuilder::from_state`]), even
/// for a different [`Problem`]. The batch service and the daemon thread
/// these through every job a worker runs, so steady-state scheduling
/// allocates nothing per job beyond the problem-sized state itself.
#[derive(Debug, Clone, Default)]
pub struct BuilderPools {
    /// Recycled input-plan buffer for evaluation (placements allocate
    /// nothing per attempt).
    plan_buf: PlanBuf,
    /// Recycled per-dependency source buffer shared by evaluation and the
    /// internal probe paths.
    plan_scratch: ProbeScratch,
    /// Recycled hop buffers (rollback and discarded evaluations return
    /// their allocations here; evaluation reuses them — the speculation
    /// loop allocates nothing in steady state).
    hops: Vec<Vec<BookedHop>>,
    /// Recycled survival bitsets, same lifecycle.
    surv: Vec<Vec<u64>>,
    /// Recycled segment comm buffers, same lifecycle.
    seg_comms: Vec<Vec<Comm>>,
}

/// The booking state of a [`ScheduleBuilder`], detached from its problem
/// reference — every timeline, booked replica and comm, and survival
/// bitset, exactly as the builder left them. It holds no scratch buffers.
///
/// [`BuilderState::new`] is the empty state a run starts from;
/// [`ScheduleBuilder::into_parts`] captures the state at the end of a run
/// and [`ScheduleBuilder::from_state`] re-attaches it later. This is the
/// retained substrate of incremental re-scheduling: cloning the state,
/// re-attaching it to an edited (timing-compatible) problem, and rolling
/// back to a recorded [`Checkpoint`] reproduces the exact builder a
/// from-scratch run of the edited problem would have at that step.
#[derive(Debug, Clone)]
pub struct BuilderState {
    proc_tl: Vec<Timeline<ReplicaId>>,
    link_tl: Vec<Timeline<(CommId, usize)>>,
    replicas: Vec<Replica>,
    comms: Vec<Comm>,
    replicas_of: Vec<Vec<ReplicaId>>,
    /// The failure patterns tracked for this problem (size ≤ `Npf` subsets).
    patterns: Vec<u64>,
    /// Per replica: bitset over `patterns` — the patterns it survives.
    surv: Vec<Vec<u64>>,
    /// Per replica: survives every pattern not containing its processor.
    fully_live: Vec<bool>,
    /// Flattened scheduling-predecessor adjacency: `preds[pred_off[op] ..
    /// pred_off[op + 1]]` — one slice read, where `Alg::sched_preds` walks
    /// the graph's edge records on every call of the planning hot paths.
    preds: Vec<(DepId, OpId)>,
    pred_off: Vec<u32>,
    /// Per operation: its top level, the edge count of the longest
    /// `sched_preds` path reaching it. Every ancestor of an operation has
    /// a smaller one.
    top: Vec<u32>,
    /// Monotone count of mutation bursts (placement commits and
    /// rollbacks); lets observers detect quiescence cheaply. See
    /// [`ScheduleBuilder::mutation_count`].
    mutations: u64,
}

impl BuilderState {
    /// The empty state of `problem`: nothing booked yet.
    pub fn new(problem: &Problem) -> Self {
        let alg = problem.alg();
        let (preds, pred_off) = flat_sched_preds(alg);
        let mut top = vec![0u32; alg.op_count()];
        for &op in alg.topo_order() {
            let i = op.index();
            top[i] = preds[pred_off[i] as usize..pred_off[i + 1] as usize]
                .iter()
                .map(|&(_, p)| top[p.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        // On a fully connected architecture (every ordered pair one hop
        // apart — the paper's model) a comm is lost only with its source
        // processor, so the classic `Npf + 1` distinct-source rule already
        // defeats every failure pattern: every replica is fully live and
        // coverage augmentation never fires (DESIGN.md §2 point 1). Skip
        // pattern tracking entirely — the booking decisions, and hence the
        // schedules, are bit-identical, only cheaper.
        let patterns = if fully_connected(problem) {
            Vec::new()
        } else {
            failure_patterns(problem.arch().proc_count(), problem.npf() as usize)
        };
        BuilderState {
            proc_tl: vec![Timeline::new(); problem.arch().proc_count()],
            link_tl: vec![Timeline::new(); problem.arch().link_count()],
            replicas: Vec::new(),
            comms: Vec::new(),
            replicas_of: vec![Vec::new(); alg.op_count()],
            patterns,
            surv: Vec::new(),
            fully_live: Vec::new(),
            preds,
            pred_off,
            top,
            mutations: 0,
        }
    }

    /// Scheduling predecessors `(dep, producer op)` of `op`, in
    /// `Alg::sched_preds` order.
    fn preds_of(&self, op: OpId) -> &[(DepId, OpId)] {
        &self.preds[self.pred_off[op.index()] as usize..self.pred_off[op.index() + 1] as usize]
    }

    /// Unwinds every replica push, comm booking, and timeline insertion
    /// made since `mark` (see [`ScheduleBuilder::rollback`]), returning the
    /// freed hop and survival buffers to `pools`.
    pub(crate) fn rollback(&mut self, mark: Checkpoint, pools: &mut BuilderPools) {
        self.mutations += 1;
        for cid in (mark.comms..self.comms.len()).rev() {
            for (i, hop) in self.comms[cid].hops.iter().enumerate() {
                let removed =
                    self.link_tl[hop.link.index()].remove_at(hop.slot, &(CommId(cid as u32), i));
                debug_assert!(removed, "booked hop present on its link");
            }
        }
        for comm in self.comms.drain(mark.comms..) {
            let mut hops = comm.hops;
            hops.clear();
            pools.hops.push(hops);
        }
        for rid in (mark.replicas..self.replicas.len()).rev() {
            let rep = &self.replicas[rid];
            let removed =
                self.proc_tl[rep.proc.index()].remove_at(rep.slot, &ReplicaId(rid as u32));
            debug_assert!(removed, "booked replica present on its processor");
            let list = &mut self.replicas_of[rep.op.index()];
            debug_assert_eq!(list.last(), Some(&ReplicaId(rid as u32)));
            list.pop();
        }
        self.replicas.truncate(mark.replicas);
        pools.surv.extend(self.surv.drain(mark.replicas..));
        self.fully_live.truncate(mark.replicas);
    }
}

/// True when every ordered processor pair is one hop apart (the paper's
/// fully connected model; includes bus topologies — links do not fail in
/// this model, only processors do).
fn fully_connected(problem: &Problem) -> bool {
    let n = problem.arch().proc_count();
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            let routes = problem
                .routes()
                .all(ProcId::from_index(s), ProcId::from_index(d));
            if routes.first().is_none_or(|r| r.hop_count() != 1) {
                return false;
            }
        }
    }
    true
}

impl<'p> ScheduleBuilder<'p> {
    /// Creates an empty builder for `problem`.
    pub fn new(problem: &'p Problem) -> Self {
        Self::from_state(problem, BuilderState::new(problem), BuilderPools::default())
    }

    /// Attaches a [`BuilderState`] to `problem` with the scratch `pools`
    /// (recycled, or [`BuilderPools::default`]), restoring a fully usable
    /// builder. The pools never carry schedule state, so a pooled builder
    /// behaves bit-identically to a fresh one.
    ///
    /// `problem` need not be the instance the state was captured from, but
    /// it must be *booking-compatible* with it: same operation / processor
    /// / link / dependency counts, same scheduling DAG, same exec/comm
    /// allowed-entry pattern (hence the same route table shape), and the
    /// same `Npf`. Timing *values* may differ — that is the incremental
    /// reschedule contract: bookings made before the edit's invalidation
    /// frontier are identical under both problems, and everything after
    /// the frontier is rolled back before the builder is driven again.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the problem's dimensions do not match
    /// the state's.
    pub fn from_state(problem: &'p Problem, state: BuilderState, pools: BuilderPools) -> Self {
        debug_assert_eq!(state.proc_tl.len(), problem.arch().proc_count());
        debug_assert_eq!(state.link_tl.len(), problem.arch().link_count());
        debug_assert_eq!(state.replicas_of.len(), problem.alg().op_count());
        debug_assert_eq!(state.pred_off.len(), problem.alg().op_count() + 1);
        ScheduleBuilder {
            problem,
            state,
            pools,
            dup_stats: DuplicationStats::default(),
        }
    }

    /// Detaches the builder's booking state from its problem reference and
    /// hands back its scratch pools. The inverse of
    /// [`ScheduleBuilder::from_state`].
    pub fn into_parts(self) -> (BuilderState, BuilderPools) {
        (self.state, self.pools)
    }

    /// The duplication and undo-log work counters so far (see
    /// [`DuplicationStats`]).
    pub(crate) fn dup_stats(&self) -> DuplicationStats {
        self.dup_stats
    }

    /// Monotone counter bumped by every mutating operation (placement
    /// commit, rollback). Equal values bracket a quiescent span in
    /// which no timeline or replica store changed — the sweep engine's
    /// cue that its per-step change masks are current.
    pub fn mutation_count(&self) -> u64 {
        self.state.mutations
    }

    /// The problem being scheduled.
    pub fn problem(&self) -> &'p Problem {
        self.problem
    }

    /// Replication level (`Npf + 1`).
    pub fn replication(&self) -> usize {
        self.problem.replication()
    }

    /// True if `op` already has a replica hosted on `proc`.
    pub fn has_replica_on(&self, op: OpId, proc: ProcId) -> bool {
        self.replica_on(op, proc).is_some()
    }

    /// The replica of `op` on `proc`, if any.
    pub fn replica_on(&self, op: OpId, proc: ProcId) -> Option<ReplicaId> {
        self.state.replicas_of[op.index()]
            .iter()
            .copied()
            .find(|&r| self.state.replicas[r.index()].proc == proc)
    }

    /// Replicas of `op` booked so far.
    pub fn replicas_of(&self, op: OpId) -> &[ReplicaId] {
        &self.state.replicas_of[op.index()]
    }

    /// A booked replica.
    pub fn replica(&self, id: ReplicaId) -> &Replica {
        &self.state.replicas[id.index()]
    }

    /// The monotone mutation counter of a lane's timeline (see
    /// [`Timeline::version`]): equal versions of the same lane imply
    /// identical bookings. Rollback churn bumps it conservatively.
    pub fn lane_version(&self, lane: Lane) -> u64 {
        match lane {
            Lane::Proc(p) => self.state.proc_tl[p.index()].version(),
            Lane::Link(l) => self.state.link_tl[l.index()].version(),
        }
    }

    /// Replica-set version of `op`: its current replica count.
    ///
    /// Committed bookings are never removed — rollback only unwinds
    /// *speculative* work back to a checkpoint — so between any two
    /// **transactionally consistent** observations (no checkpoint pending,
    /// as at the top of a scheduler main-loop step), an equal count implies
    /// the very same replica list. Mid-transaction states can alias
    /// (a rolled-back replica id is reused by the next booking); cache
    /// observations must therefore happen at committed states, which is
    /// how the sweep engine drives it.
    pub fn op_replicas_version(&self, op: OpId) -> u64 {
        self.state.replicas_of[op.index()].len() as u64
    }

    /// The latest booked end over *all* lanes (processor and link
    /// timelines), [`Time::ZERO`] on an empty schedule. Every probe answer
    /// on the current state is `≤ max(ready, max_lane_end())`, which is
    /// what makes the sweep engine's urgency upper bound sound.
    pub fn max_lane_end(&self) -> Time {
        let p = self.state.proc_tl.iter().map(|t| t.last_end());
        let l = self.state.link_tl.iter().map(|t| t.last_end());
        p.chain(l).fold(Time::ZERO, Time::max)
    }

    /// Re-runs a recorded probe event against the current timelines and
    /// reports whether the answer is unchanged. When every event of a
    /// [`ScheduleBuilder::probe_plan`] call replays (and the involved
    /// replica sets are unchanged), the recorded [`PlanProbe`] is still
    /// exact even though lane versions moved.
    pub fn replay_probe(&self, ev: &ProbeEvent) -> bool {
        self.state.link_tl[ev.link.index()].probe(ev.ready, ev.dur) == ev.start
    }

    /// Marks the current transaction point. Everything booked after the
    /// mark can be unwound with [`ScheduleBuilder::rollback`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            replicas: self.state.replicas.len(),
            comms: self.state.comms.len(),
        }
    }

    /// Unwinds every replica push, comm booking, and timeline insertion
    /// made since `mark`, restoring the builder to its state at
    /// [`ScheduleBuilder::checkpoint`] time.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `mark` does not come from this builder's
    /// own past — marks are not transferable across builders and cannot be
    /// replayed after an earlier rollback already consumed them.
    pub fn rollback(&mut self, mark: Checkpoint) {
        debug_assert!(
            mark.replicas <= self.state.replicas.len() && mark.comms <= self.state.comms.len(),
            "rollback mark is ahead of the builder state"
        );
        self.dup_stats.rolled_back_replicas += (self.state.replicas.len() - mark.replicas) as u64;
        self.dup_stats.rolled_back_comms += (self.state.comms.len() - mark.comms) as u64;
        self.state.rollback(mark, &mut self.pools);
    }

    /// Probes where a replica of `op` would land on `proc` without booking
    /// anything. If `op` already has a replica there, returns its recorded
    /// times.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::Forbidden`] if the `Dis` constraints exclude the
    ///   pair;
    /// * [`ScheduleError::PredNotScheduled`] if a predecessor has no replica
    ///   yet.
    pub fn probe(&self, op: OpId, proc: ProcId) -> Result<ProbePoint, ScheduleError> {
        match self.probe_plan_with(op, proc, &mut ProbeScratch::default(), None)? {
            PlanProbe::Fixed(point) => Ok(point),
            PlanProbe::Ready {
                best_ready,
                worst_ready,
                dur,
            } => {
                let start_best = self.state.proc_tl[proc.index()].probe(best_ready, dur);
                let start_worst = self.state.proc_tl[proc.index()].probe(worst_ready, dur);
                Ok(ProbePoint {
                    start_best,
                    start_worst,
                    end_best: start_best + dur,
                })
            }
        }
    }

    /// The input-plan half of [`ScheduleBuilder::probe`]: everything up to
    /// (but excluding) the hosting processor's timeline. Recorded `events`
    /// are link-lane probes only — the result is a pure function of the
    /// static tables, the replica sets of `op` and its predecessors, and
    /// exactly these link answers.
    ///
    /// # Errors
    ///
    /// As [`ScheduleBuilder::probe`].
    pub fn probe_plan(
        &self,
        op: OpId,
        proc: ProcId,
        events: &mut Vec<ProbeEvent>,
        scratch: &mut ProbeScratch,
    ) -> Result<PlanProbe, ScheduleError> {
        self.probe_plan_with(op, proc, scratch, Some(events))
    }

    fn probe_plan_with(
        &self,
        op: OpId,
        proc: ProcId,
        scratch: &mut ProbeScratch,
        trace: Option<&mut Vec<ProbeEvent>>,
    ) -> Result<PlanProbe, ScheduleError> {
        if let Some(r) = self.replica_on(op, proc) {
            // Recorded times of a booked replica: no timelines consulted
            // (replica slots are immutable; the set is guarded by
            // `op_replicas_version`).
            let rep = &self.state.replicas[r.index()];
            return Ok(PlanProbe::Fixed(ProbePoint {
                start_best: rep.start(),
                start_worst: rep.start_worst,
                end_best: rep.end(),
            }));
        }
        let dur = self
            .problem
            .exec()
            .get(op, proc)
            .ok_or(ScheduleError::Forbidden { op, proc })?;
        let (best_ready, worst_ready) = self.input_ready_times(op, proc, scratch, trace)?;
        Ok(PlanProbe::Ready {
            best_ready,
            worst_ready,
            dur,
        })
    }

    /// Earliest start `t ≥ ready` for a `dur`-long slot on `proc`'s
    /// execution timeline (the point-completion half of the split probe;
    /// see [`PlanProbe`]).
    pub fn proc_probe(&self, proc: ProcId, ready: Time, dur: Time) -> Time {
        self.state.proc_tl[proc.index()].probe(ready, dur)
    }

    /// Chooses how dependency `dep` (produced by `pred`) reaches `proc`:
    /// Fig. 3(b) — a *reliable* local replica of the predecessor suppresses
    /// all comms (intra-processor, cost 0; on fully connected architectures
    /// every replica is reliable, reproducing the paper exactly, while
    /// elsewhere a local copy that can starve no longer silences redundant
    /// comms) — or Fig. 3(c) — the `Npf + 1` sources with the earliest
    /// probed arrival over their primary routes, extended along alternative
    /// routes until every tracked failure pattern is defeated, falling back
    /// to a fragile local copy where coverage is unachievable. Remote
    /// choices are left in `scratch.chosen`, ascending by `(arrival, src,
    /// route)`. Each `(replica, route)` candidate is probed at most once.
    ///
    /// Shared by the probing and the evaluation path, so the two can never
    /// disagree on a plan.
    fn pick_dep_sources(
        &self,
        op: OpId,
        dep: DepId,
        pred: OpId,
        proc: ProcId,
        scratch: &mut ProbeScratch,
        mut trace: Option<&mut Vec<ProbeEvent>>,
    ) -> Result<DepPick, ScheduleError> {
        let preds = &self.state.replicas_of[pred.index()];
        if preds.is_empty() {
            return Err(ScheduleError::PredNotScheduled { op, pred });
        }
        let k = self.replication();
        let local = self.replica_on(pred, proc);
        if let Some(l) = local {
            if self.state.fully_live[l.index()] {
                let ready = self.state.replicas[l.index()].end();
                return Ok(DepPick::Local { src: l, ready });
            }
        }
        let chosen = &mut scratch.chosen;
        chosen.clear();
        for &r in preds {
            if self.state.replicas[r.index()].proc == proc {
                continue;
            }
            chosen.push(
                self.remote_candidate(
                    dep,
                    r,
                    proc,
                    0,
                    &mut scratch.hop_starts,
                    trace.as_deref_mut(),
                )
                .expect("primary route"),
            );
        }
        if chosen.is_empty() {
            // Only the (fragile) local copy exists: nothing to book.
            let l = local.expect("a predecessor replica exists on this processor");
            let ready = self.state.replicas[l.index()].end();
            return Ok(DepPick::Local { src: l, ready });
        }
        chosen.sort_by_key(|c| (c.arrival, c.src));
        // Coverage augmentation reuses every primary probe, the ones
        // truncated away included.
        scratch.tried.clear();
        if !self.state.patterns.is_empty() {
            let primaries = chosen.iter().map(|c| (c.src, c.route, Some(*c)));
            scratch.tried.extend(primaries);
        }
        chosen.truncate(k);
        let primary_worst = chosen.last().expect("non-empty").arrival;
        let covered = self.augment_for_coverage(dep, proc, pred, scratch, trace);
        if !covered {
            if let Some(l) = local {
                // Disjoint coverage is unachievable; keep the fragile
                // local copy (pre-routing behaviour, best effort).
                let ready = self.state.replicas[l.index()].end();
                return Ok(DepPick::Local { src: l, ready });
            }
        }
        scratch.chosen.sort_by_key(|c| (c.arrival, c.src, c.route));
        Ok(DepPick::Remote {
            primary_worst,
            local: local.is_some(),
        })
    }

    /// Plans how each intra-iteration dependency of `op` reaches `proc`,
    /// into the reusable `buf`. Evaluation path — the probe path uses
    /// [`ScheduleBuilder::input_ready_times`]; both share
    /// [`ScheduleBuilder::pick_dep_sources`].
    ///
    /// With a `bar`, planning stops and returns `false` as soon as a
    /// `dur`-long replica could not start before it even at the latest
    /// planned input so far: laid-out arrivals are never earlier than
    /// planned ones, so the placement's `S_worst` would be at least that
    /// start (`DESIGN.md` §4).
    fn plan_inputs_buf(
        &self,
        op: OpId,
        proc: ProcId,
        dur: Time,
        bar: Option<Time>,
        buf: &mut PlanBuf,
        scratch: &mut ProbeScratch,
    ) -> Result<bool, ScheduleError> {
        buf.items.clear();
        buf.pool.clear();
        buf.lip = None;
        scratch.hop_starts.clear();
        let mut worst_ready = Time::ZERO;
        for &(dep, pred) in self.state.preds_of(op) {
            let worst = match self.pick_dep_sources(op, dep, pred, proc, scratch, None)? {
                DepPick::Local { src, ready } => {
                    buf.items.push((dep, PlanItem::Local { src, ready }));
                    ready
                }
                DepPick::Remote {
                    primary_worst,
                    local,
                } => {
                    let chosen = &scratch.chosen;
                    let start = buf.pool.len() as u32;
                    buf.pool.extend_from_slice(chosen);
                    buf.items.push((
                        dep,
                        PlanItem::Remote {
                            start,
                            len: chosen.len() as u32,
                        },
                    ));
                    // The Latest Immediate Predecessor falls out of the
                    // plan for free: among remote-fed dependencies whose
                    // producer has no replica on `proc` yet and may execute
                    // there, the one with the latest worst primary arrival
                    // (ties toward the smaller operation id).
                    if !local && self.problem.exec().allows(pred, proc) {
                        let better = match buf.lip {
                            None => true,
                            Some((bw, bo)) => {
                                primary_worst > bw || (primary_worst == bw && pred < bo)
                            }
                        };
                        if better {
                            buf.lip = Some((primary_worst, pred));
                        }
                    }
                    chosen.last().expect("non-empty").arrival
                }
            };
            if worst > worst_ready {
                worst_ready = worst;
                if bar.is_some_and(|bar| self.proc_probe(proc, worst_ready, dur) >= bar) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// The best/worst input-set ready instants of a would-be replica of
    /// `op` on `proc` — what [`ScheduleBuilder::probe`] needs, without
    /// materializing the per-dependency plans. Buffers come from `scratch`;
    /// the hot sweep calls this thousands of times per schedule.
    fn input_ready_times(
        &self,
        op: OpId,
        proc: ProcId,
        scratch: &mut ProbeScratch,
        mut trace: Option<&mut Vec<ProbeEvent>>,
    ) -> Result<(Time, Time), ScheduleError> {
        let mut best_ready = Time::ZERO;
        let mut worst_ready = Time::ZERO;
        scratch.hop_starts.clear();
        for &(dep, pred) in self.state.preds_of(op) {
            match self.pick_dep_sources(op, dep, pred, proc, scratch, trace.as_deref_mut())? {
                DepPick::Local { ready, .. } => {
                    best_ready = best_ready.max(ready);
                    worst_ready = worst_ready.max(ready);
                }
                DepPick::Remote { .. } => {
                    let chosen = &scratch.chosen;
                    best_ready = best_ready.max(chosen.first().expect("non-empty").arrival);
                    worst_ready = worst_ready.max(chosen.last().expect("non-empty").arrival);
                }
            }
        }
        Ok((best_ready, worst_ready))
    }

    /// Builds the candidate for sending `dep` from `src` to `dst_proc` over
    /// route `route_idx` of the problem's route table, appending the probed
    /// start of each hop to `hop_starts`. `None` if the route does not
    /// exist or some hop cannot carry the dependency.
    fn remote_candidate(
        &self,
        dep: DepId,
        src: ReplicaId,
        dst_proc: ProcId,
        route_idx: usize,
        hop_starts: &mut Vec<Time>,
        mut trace: Option<&mut Vec<ProbeEvent>>,
    ) -> Option<RemoteSource> {
        let rep = &self.state.replicas[src.index()];
        let route = self
            .problem
            .routes()
            .all(rep.proc, dst_proc)
            .get(route_idx)?;
        let mut t = rep.end();
        let mut blockers = 0u64;
        let first_hop = hop_starts.len() as u32;
        for hop in route.hops() {
            let dur = self.problem.comm().get(dep, hop.link)?;
            let start = self.state.link_tl[hop.link.index()].probe(t, dur);
            hop_starts.push(start);
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(ProbeEvent {
                    link: hop.link,
                    ready: t,
                    dur,
                    start,
                });
            }
            t = start + dur;
            if hop.from.index() < MAX_TRACKED_PROCS {
                blockers |= 1 << hop.from.index();
            }
        }
        Some(RemoteSource {
            src,
            route: route_idx,
            arrival: t,
            blockers,
            first_hop,
        })
    }

    /// Extends `scratch.chosen` until every tracked failure pattern
    /// (excluding those containing `dst_proc`) leaves a surviving source,
    /// drawing from `pred`'s replicas hosted away from `dst_proc`. Returns
    /// whether full coverage was reached.
    ///
    /// The state does not change while a dependency is planned, so every
    /// candidate already in `scratch.tried` is reused, not probed again.
    fn augment_for_coverage(
        &self,
        dep: DepId,
        dst_proc: ProcId,
        pred: OpId,
        scratch: &mut ProbeScratch,
        mut trace: Option<&mut Vec<ProbeEvent>>,
    ) -> bool {
        if self.state.patterns.is_empty() {
            return true;
        }
        loop {
            let Some((pi, mask)) = self.first_uncovered(dst_proc, &scratch.chosen) else {
                return true;
            };
            let mut best: Option<RemoteSource> = None;
            for &r in &self.state.replicas_of[pred.index()] {
                if self.state.replicas[r.index()].proc == dst_proc {
                    continue; // not remote
                }
                if !bit_get(&self.state.surv[r.index()], pi) {
                    continue; // the source replica itself dies under F
                }
                let src_proc = self.state.replicas[r.index()].proc;
                let n_routes = self.problem.routes().all(src_proc, dst_proc).len();
                for ri in 0..n_routes {
                    if scratch.chosen.iter().any(|c| c.src == r && c.route == ri) {
                        continue;
                    }
                    let c = match scratch.tried.iter().find(|t| (t.0, t.1) == (r, ri)) {
                        Some(&(_, _, c)) => c,
                        None => {
                            let starts = &mut scratch.hop_starts;
                            let tr = trace.as_deref_mut();
                            let c = self.remote_candidate(dep, r, dst_proc, ri, starts, tr);
                            scratch.tried.push((r, ri, c));
                            c
                        }
                    };
                    let Some(c) = c else {
                        continue;
                    };
                    if c.blockers & mask != 0 {
                        continue;
                    }
                    let better = match &best {
                        None => true,
                        Some(b) => (c.arrival, c.src, c.route) < (b.arrival, b.src, b.route),
                    };
                    if better {
                        best = Some(c);
                    }
                }
            }
            match best {
                Some(c) => scratch.chosen.push(c),
                None => return false,
            }
        }
    }

    /// The first tracked failure pattern (excluding patterns that contain
    /// `dst_proc`) under which no chosen source survives.
    fn first_uncovered(&self, dst_proc: ProcId, chosen: &[RemoteSource]) -> Option<(usize, u64)> {
        let pbit = 1u64 << dst_proc.index();
        self.state
            .patterns
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, mask)| mask & pbit == 0)
            .find(|&(pi, mask)| {
                !chosen
                    .iter()
                    .any(|c| c.blockers & mask == 0 && bit_get(&self.state.surv[c.src.index()], pi))
            })
    }

    /// Places a replica of `op` on `proc`, booking its incoming comms, with
    /// no predecessor duplication. Returns the new replica's id.
    ///
    /// # Errors
    ///
    /// As [`ScheduleBuilder::probe`], plus [`ScheduleError::ReplicaExists`]
    /// if `op` is already hosted on `proc`. On error the builder is
    /// unchanged.
    pub fn place(&mut self, op: OpId, proc: ProcId) -> Result<ReplicaId, ScheduleError> {
        let seg = self.evaluate(op, proc, false, None)?;
        Ok(self.commit(seg.expect("no bar to miss")))
    }

    /// Computes where a replica of `op` on `proc` and its incoming comms
    /// would land on the current state, without touching any timeline or
    /// store: the placement [`ScheduleBuilder::commit`] books verbatim.
    ///
    /// Comms are laid out in dependency order, then arrival order, hop by
    /// hop, each hop at the earliest slot free on its link *and* clear of
    /// this placement's earlier hops — what booking them one after another
    /// would give. The replica takes the earliest processor slot at its
    /// first complete input set (`S_best`); `S_worst` waits for the latest
    /// arrival.
    ///
    /// With a `bar`, returns `None` once planning shows that the
    /// placement's `S_worst` cannot be below it (a losing
    /// `Minimize_start_time` trial); nothing is laid out for it.
    fn evaluate(
        &mut self,
        op: OpId,
        proc: ProcId,
        duplicated: bool,
        bar: Option<Time>,
    ) -> Result<Option<PlacedSegment>, ScheduleError> {
        self.dup_stats.evaluations += 1;
        if self.has_replica_on(op, proc) {
            return Err(ScheduleError::ReplicaExists { op, proc });
        }
        let dur = self
            .problem
            .exec()
            .get(op, proc)
            .ok_or(ScheduleError::Forbidden { op, proc })?;
        // Recycle the builder-owned plan buffers (evaluation is on the
        // `Minimize_start_time` hot path; no allocation per attempt).
        let mut buf = std::mem::take(&mut self.pools.plan_buf);
        let mut scratch = std::mem::take(&mut self.pools.plan_scratch);
        let planned = self.plan_inputs_buf(op, proc, dur, bar, &mut buf, &mut scratch);
        if !matches!(planned, Ok(true)) {
            self.pools.plan_buf = buf;
            self.pools.plan_scratch = scratch;
            return planned.map(|_| None);
        }
        let rid = ReplicaId(self.state.replicas.len() as u32);
        let mut comms = self.pools.seg_comms.pop().unwrap_or_default();
        comms.clear();

        // Laid-out arrivals may differ from the planned ones because this
        // placement's comms interact on shared links; ready times use the
        // laid-out values.
        let mut best_ready = Time::ZERO;
        let mut worst_ready = Time::ZERO;
        let PlanBuf {
            items, pool, clash, ..
        } = &mut buf;
        for &(dep, item) in items.iter() {
            match item {
                PlanItem::Local { ready, .. } => {
                    best_ready = best_ready.max(ready);
                    worst_ready = worst_ready.max(ready);
                }
                PlanItem::Remote { start, len } => {
                    let mut dep_best = Time::MAX;
                    let mut dep_worst = Time::ZERO;
                    for c in &pool[start as usize..(start + len) as usize] {
                        let planned = &scratch.hop_starts[c.first_hop as usize..];
                        let hops = self.lay_out_hops(dep, c, proc, planned, &comms, clash);
                        let comm = Comm {
                            dep,
                            src: c.src,
                            dst: rid,
                            hops,
                        };
                        let arrival = comm.arrival();
                        comms.push(comm);
                        dep_best = dep_best.min(arrival);
                        dep_worst = dep_worst.max(arrival);
                    }
                    best_ready = best_ready.max(dep_best);
                    worst_ready = worst_ready.max(dep_worst);
                }
            }
        }
        self.pools.plan_scratch = scratch;

        // The replica survives a failure pattern iff its processor does and
        // every dependency keeps a surviving planned source.
        let pbit = 1u64 << (proc.index().min(MAX_TRACKED_PROCS - 1));
        let mut surv = self.pools.surv.pop().unwrap_or_default();
        surv.clear();
        surv.resize(self.state.patterns.len().div_ceil(64), 0);
        let mut fully = true;
        for (pi, &mask) in self.state.patterns.iter().enumerate() {
            if mask & pbit != 0 {
                continue;
            }
            let ok = buf.items.iter().all(|&(_, item)| match item {
                PlanItem::Local { src, .. } => bit_get(&self.state.surv[src.index()], pi),
                PlanItem::Remote { start, len } => buf.pool[start as usize..(start + len) as usize]
                    .iter()
                    .any(|c| {
                        c.blockers & mask == 0 && bit_get(&self.state.surv[c.src.index()], pi)
                    }),
            });
            if ok {
                bit_set(&mut surv, pi);
            } else {
                fully = false;
            }
        }
        let lip = buf
            .lip
            .map(|(_, lip)| (lip, self.trial_floor(op, lip, proc, &buf)));
        self.pools.plan_buf = buf;

        let tl = &self.state.proc_tl[proc.index()];
        let start = tl.probe(best_ready, dur);
        let segment = PlacedSegment {
            replica: Replica {
                op,
                proc,
                slot: Slot {
                    start,
                    end: start + dur,
                },
                start_worst: tl.probe(worst_ready, dur),
                duplicated,
            },
            surv,
            fully,
            comms,
            lip,
        };
        #[cfg(test)]
        tests::on_evaluate(self, &segment);
        Ok(Some(segment))
    }

    /// The instant no re-plan of `op` on `proc` after duplicating `lip`
    /// there can be ready before, read off `buf` (the plan of `op` on the
    /// current state). A local input counts with its ready time, a remote
    /// one with the largest planned arrival in its pool (`DESIGN.md` §4).
    ///
    /// Duplicating `lip` adds replicas of `lip` and its ancestors plus
    /// comms, and nothing else. So the input of an *untouched* producer
    /// (not `lip`, and with a top level at least `lip`'s, so not an
    /// ancestor of it either) is a floor as planned. `lip`'s own input
    /// arrives either as planned or from the duplicate, so it is a floor
    /// only up to [`ScheduleBuilder::dup_end_floor`]. Other inputs give no
    /// floor.
    fn trial_floor(&self, op: OpId, lip: OpId, proc: ProcId, buf: &PlanBuf) -> Time {
        let lip_top = self.state.top[lip.index()];
        let (mut untouched, mut from_lip) = (Time::ZERO, Time::ZERO);
        for (&(_, pred), &(_, item)) in self.state.preds_of(op).iter().zip(&buf.items) {
            let worst = match item {
                PlanItem::Local { ready, .. } => ready,
                PlanItem::Remote { start, len } => buf.pool[(start + len - 1) as usize].arrival,
            };
            if pred == lip {
                from_lip = from_lip.max(worst);
            } else if self.state.top[pred.index()] >= lip_top {
                untouched = untouched.max(worst);
            }
        }
        if from_lip <= untouched {
            return untouched;
        }
        untouched.max(from_lip.min(self.dup_end_floor(lip, proc)))
    }

    /// A floor under the end of a duplicate of `lip` that
    /// `Minimize_start_time` books on `proc` from the current state on.
    /// Every fully live replica of a predecessor of `lip` already on `proc`
    /// stays its `Local` input, and the processor lane only fills up.
    fn dup_end_floor(&self, lip: OpId, proc: ProcId) -> Time {
        let dur = self
            .problem
            .exec()
            .get(lip, proc)
            .expect("a LIP may run on the processor");
        let ready = self
            .state
            .preds_of(lip)
            .iter()
            .filter_map(|&(_, pred)| self.replica_on(pred, proc))
            .filter(|r| self.state.fully_live[r.index()])
            .map(|r| self.state.replicas[r.index()].end())
            .fold(Time::ZERO, Time::max);
        self.proc_probe(proc, ready, dur) + dur
    }

    /// True when `parent`'s trial, re-placing `parent.op` on `proc` once
    /// `lip` is duplicated there, provably cannot win: one of its inputs,
    /// planned on the current state and floored as in
    /// [`ScheduleBuilder::trial_floor`], already rules out a worst-case
    /// start before `parent.start_worst`. Sound only while the state the
    /// trial is evaluated on will contain the current one (`DESIGN.md`
    /// §4).
    fn parent_lost(&mut self, lip: OpId, proc: ProcId, parent: ParentTrial) -> bool {
        let op = parent.op;
        let mut scratch = std::mem::take(&mut self.pools.plan_scratch);
        scratch.hop_starts.clear();
        let lost_at = |ready| self.proc_probe(proc, ready, parent.dur) >= parent.start_worst;
        // `lip`'s input is floored by the duplicate's end, so it can only
        // decide when that end does; only then is it worth planning.
        let plan_lip = lost_at(self.dup_end_floor(lip, proc));
        let lip_top = self.state.top[lip.index()];
        let lost = self.state.preds_of(op).iter().any(|&(dep, pred)| {
            let floors = if pred == lip {
                plan_lip
            } else {
                self.state.top[pred.index()] >= lip_top
            };
            if !floors {
                return false;
            }
            let worst = match self.pick_dep_sources(op, dep, pred, proc, &mut scratch, None) {
                Ok(DepPick::Local { ready, .. }) => ready,
                Ok(DepPick::Remote { .. }) => scratch.chosen.last().expect("non-empty").arrival,
                Err(_) => unreachable!("the parent planned every input of its operation"),
            };
            lost_at(worst)
        });
        self.pools.plan_scratch = scratch;
        lost
    }

    /// Lays out the hops of candidate `c`'s comm to `dst_proc`: each hop at
    /// the earliest slot free on its link and clear of `earlier` (the
    /// placement's comms laid out so far) and of the comm's own earlier
    /// hops, gathered into `clash` once per hop.
    ///
    /// `planned` starts with the hop starts `c`'s probe found on this same
    /// state. While every earlier hop landed where it was planned, a hop is
    /// ready when planned, so the link's answer is its planned start: the
    /// link is probed again only after a clash.
    fn lay_out_hops(
        &mut self,
        dep: DepId,
        c: &RemoteSource,
        dst_proc: ProcId,
        planned: &[Time],
        earlier: &[Comm],
        clash: &mut Vec<Slot>,
    ) -> Vec<BookedHop> {
        let mut hops = self.pools.hops.pop().unwrap_or_default();
        hops.clear();
        let src_rep = &self.state.replicas[c.src.index()];
        let mut t = src_rep.end();
        let route = &self.problem.routes().all(src_rep.proc, dst_proc)[c.route];
        let mut on_plan = true;
        for (hop, &at) in route.hops().iter().zip(planned) {
            let dur = self
                .problem
                .comm()
                .get(dep, hop.link)
                .expect("candidate routes are transmissible");
            let tl = &self.state.link_tl[hop.link.index()];
            clash.clear();
            clash.extend(
                earlier
                    .iter()
                    .flat_map(|c| &c.hops)
                    .chain(&hops)
                    .filter(|h| h.link == hop.link)
                    .map(|h| h.slot),
            );
            let mut start = if on_plan { at } else { tl.probe(t, dur) };
            // Every start before the end of a clashing hop of this
            // placement clashes too, so jump past it and probe again.
            while let Some(end) = clash
                .iter()
                .filter(|g| {
                    g.overlaps(&Slot {
                        start,
                        end: start + dur,
                    })
                })
                .map(|g| g.end)
                .max()
            {
                on_plan = false;
                start = tl.probe(end, dur);
            }
            t = start + dur;
            hops.push(BookedHop {
                link: hop.link,
                from: hop.from,
                to: hop.to,
                slot: Slot { start, end: t },
            });
        }
        debug_assert!(!hops.is_empty(), "remote comms traverse at least one link");
        hops
    }

    /// Books an evaluated placement verbatim on the state it was evaluated
    /// on (no planning, no probing) and returns the new replica's id. Every
    /// `insert_at` lands in a free gap; a wrong evaluation panics here
    /// instead of drifting silently.
    fn commit(&mut self, mut seg: PlacedSegment) -> ReplicaId {
        self.state.mutations += 1;
        self.dup_stats.committed_replicas += 1;
        self.dup_stats.committed_comms += seg.comms.len() as u64;
        let rid = ReplicaId(self.state.replicas.len() as u32);
        let slot = seg.replica.slot;
        self.state.proc_tl[seg.replica.proc.index()]
            .insert_at(slot.start, slot.duration(), rid)
            .expect("a placement commits on the state it was evaluated on");
        self.state.replicas_of[seg.replica.op.index()].push(rid);
        self.state.replicas.push(seg.replica);
        self.state.surv.push(seg.surv);
        self.state.fully_live.push(seg.fully);
        for comm in seg.comms.drain(..) {
            debug_assert_eq!(comm.dst, rid, "evaluated for this replica id");
            let cid = CommId(self.state.comms.len() as u32);
            for (i, hop) in comm.hops.iter().enumerate() {
                self.state.link_tl[hop.link.index()]
                    .insert_at(hop.slot.start, hop.slot.duration(), (cid, i))
                    .expect("a placement commits on the state it was evaluated on");
            }
            self.state.comms.push(comm);
        }
        self.pools.seg_comms.push(seg.comms);
        rid
    }

    /// Places a replica of `op` on `proc` applying the paper's
    /// `Minimize_start_time`: repeatedly duplicate the Latest Immediate
    /// Predecessor (LIP) onto `proc` (recursively minimized) while doing so
    /// strictly reduces the replica's `S_worst`; otherwise undo (the
    /// baseline placement without duplication is kept). All speculative
    /// work runs through the undo log — no builder clones.
    ///
    /// # Errors
    ///
    /// As [`ScheduleBuilder::place`].
    pub fn place_min_start(&mut self, op: OpId, proc: ProcId) -> Result<ReplicaId, ScheduleError> {
        let placed = self.place_min_inner(op, proc, 0, None)?;
        Ok(placed.expect("a call without a parent trial runs to the end"))
    }

    /// `Minimize_start_time` at recursion `depth`. `op`'s own placements
    /// — the baseline and every trial re-placement — are only evaluated;
    /// only duplications reach the timelines (committed by the nested
    /// calls), and a rejected trial rolls back just those. A trial that
    /// provably cannot win is skipped before anything is booked. The
    /// winning evaluation is committed once at the end, on the state it
    /// was evaluated on.
    ///
    /// A nested call duplicates `op` for its `parent`'s trial. It returns
    /// `Ok(None)`, booking nothing more, once that trial has provably lost;
    /// the parent then rolls back everything the call booked.
    fn place_min_inner(
        &mut self,
        op: OpId,
        proc: ProcId,
        depth: usize,
        parent: Option<ParentTrial>,
    ) -> Result<Option<ReplicaId>, ScheduleError> {
        self.dup_stats.max_depth = self.dup_stats.max_depth.max(depth as u64);
        // Ê/Ë: evaluate the baseline placement (fails fast if o cannot run
        // on p). Its input plan names the first LIP; none means the
        // baseline is final.
        let mut segment = self
            .evaluate(op, proc, depth > 0, None)?
            .expect("no bar to miss");
        let mut next_lip = if depth < MAX_DUPLICATION_DEPTH {
            segment.lip
        } else {
            None
        };
        // Ì: while there is a remote predecessor whose (k-th) arrival is
        // latest, try duplicating it locally.
        let mut grown = false;
        while let Some((lip, floor)) = next_lip {
            // Exact abort: an accepted trial grew the state, the state the
            // parent's trial is evaluated on will contain this one, and on
            // it that trial has already lost (DESIGN.md §4).
            if grown && parent.is_some_and(|t| self.parent_lost(op, proc, t)) {
                self.dup_stats.aborted += 1;
                if !run_lost_subtree(depth) {
                    self.recycle_segment(segment);
                    return Ok(None);
                }
            }
            // Exact skip: no re-placement after duplicating `lip` can be
            // ready before `floor`, and the processor lane only fills up,
            // so a trial starting no earlier than `segment` would be
            // rejected (DESIGN.md §4). Nothing is booked yet.
            let dur = segment.replica.slot.duration();
            if self.proc_probe(proc, floor, dur) >= segment.replica.start_worst {
                self.dup_stats.pruned += 1;
                break;
            }
            self.dup_stats.trials += 1;
            let cur = self.checkpoint();
            // Í: duplicate it onto proc, recursively minimized, then Î:
            // re-evaluate op's placement with the duplicate present. A
            // re-placement that cannot beat `segment` stops at planning.
            let start_worst = segment.replica.start_worst;
            let parent_trial = ParentTrial {
                op,
                start_worst,
                dur,
            };
            let trial = match self.place_min_inner(lip, proc, depth + 1, Some(parent_trial)) {
                Ok(Some(_)) => self.evaluate(op, proc, depth > 0, Some(start_worst)),
                Ok(None) | Err(_) => Ok(None),
            };
            match trial {
                Ok(Some(trial)) if trial.replica.start_worst < start_worst => {
                    // Ñ: keep the duplication; the trial's plan, made on
                    // the post-duplication state, names the next LIP.
                    self.dup_stats.accepted += 1;
                    #[cfg(test)]
                    tests::on_trial_decided(depth, true);
                    grown = true;
                    next_lip = trial.lip;
                    let old = std::mem::replace(&mut segment, trial);
                    self.recycle_segment(old);
                }
                rejected => {
                    // Ï/Ð: undo the duplication (restoring the state
                    // `segment` was evaluated on) and stop.
                    self.dup_stats.rejected += 1;
                    #[cfg(test)]
                    tests::on_trial_decided(depth, false);
                    if let Ok(Some(trial)) = rejected {
                        self.recycle_segment(trial);
                    }
                    self.rollback(cur);
                    break;
                }
            }
        }
        Ok(Some(self.commit(segment)))
    }

    /// Returns an evaluated but uncommitted segment's buffers to the pools.
    fn recycle_segment(&mut self, mut seg: PlacedSegment) {
        self.pools.surv.push(seg.surv);
        for comm in seg.comms.drain(..) {
            let mut hops = comm.hops;
            hops.clear();
            self.pools.hops.push(hops);
        }
        self.pools.seg_comms.push(seg.comms);
    }

    /// Per-resource static orders, derived from the timelines.
    #[allow(clippy::type_complexity)]
    fn resource_orders(&self) -> (Vec<Vec<ReplicaId>>, Vec<Vec<(CommId, usize)>>) {
        let proc_order = self
            .state
            .proc_tl
            .iter()
            .map(|tl| tl.iter().map(|(_, &r)| r).collect())
            .collect();
        let link_order = self
            .state
            .link_tl
            .iter()
            .map(|tl| tl.iter().map(|(_, &c)| c).collect())
            .collect();
        (proc_order, link_order)
    }

    /// Freezes the builder into an immutable [`Schedule`].
    pub fn finish(self) -> Schedule {
        self.finish_reclaim().0
    }

    /// As [`ScheduleBuilder::finish`], also reclaiming the recyclable
    /// buffer pools for the next builder (see [`BuilderPools`]).
    pub fn finish_reclaim(self) -> (Schedule, BuilderPools) {
        let (proc_order, link_order) = self.resource_orders();
        let schedule = Schedule {
            npf: self.problem.npf(),
            replicas: self.state.replicas,
            comms: self.state.comms,
            replicas_of: self.state.replicas_of,
            proc_order,
            link_order,
        };
        // Stale hop/survival buffers from unwound speculation recycle just
        // as well as empty ones; each is cleared at reuse time.
        (schedule, self.pools)
    }

    /// A [`Schedule`] snapshot of the current state, leaving the builder
    /// usable. Copies only what the schedule needs (replicas, comms, static
    /// orders) — not the timelines, undo bookkeeping, or survival bitsets
    /// that `self.clone().finish()` used to drag along per step-trace
    /// snapshot.
    pub fn finish_snapshot(&self) -> Schedule {
        let (proc_order, link_order) = self.resource_orders();
        Schedule {
            npf: self.problem.npf(),
            replicas: self.state.replicas.clone(),
            comms: self.state.comms.clone(),
            replicas_of: self.state.replicas_of.clone(),
            proc_order,
            link_order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_model::{paper_example, Alg, Arch, CommTable, ExecTable};

    fn t(u: f64) -> Time {
        Time::from_units(u)
    }

    /// Two ops in a chain on two processors, npf = 1.
    fn chain_problem() -> Problem {
        let mut b = Alg::builder("chain");
        let x = b.comp("X");
        let y = b.comp("Y");
        b.dep(x, y);
        let alg = b.build().unwrap();
        let mut b = Arch::builder("duo");
        let p1 = b.proc("P1");
        let p2 = b.proc("P2");
        b.link("L", &[p1, p2]);
        let arch = b.build().unwrap();
        let exec = ExecTable::uniform(2, 2, t(2.0));
        let comm = CommTable::uniform(1, 1, t(1.0));
        let mut pb = Problem::builder(alg, arch, exec, comm);
        pb.npf(1);
        pb.build().unwrap()
    }

    /// `X -> Y` on a four-processor ring, npf = 1: multi-hop routes.
    fn ring_problem() -> Problem {
        let mut b = Alg::builder("chain");
        let x = b.comp("X");
        let y = b.comp("Y");
        b.dep(x, y);
        let alg = b.build().unwrap();
        let mut b = Arch::builder("ring4");
        let ps: Vec<_> = (0..4).map(|i| b.proc(format!("P{i}"))).collect();
        for i in 0..4 {
            b.link(format!("L{i}"), &[ps[i], ps[(i + 1) % 4]]);
        }
        let arch = b.build().unwrap();
        let exec = ExecTable::uniform(2, 4, t(2.0));
        let comm = CommTable::uniform(1, 4, t(1.0));
        let mut pb = Problem::builder(alg, arch, exec, comm);
        pb.npf(1);
        pb.build().unwrap()
    }

    #[test]
    fn place_entry_op_starts_at_zero() {
        let p = chain_problem();
        let mut b = ScheduleBuilder::new(&p);
        let x = p.alg().op_by_name("X").unwrap();
        let r = b.place(x, ProcId(0)).unwrap();
        assert_eq!(b.replica(r).start(), Time::ZERO);
        assert_eq!(b.replica(r).end(), t(2.0));
        assert!(!b.replica(r).duplicated);
    }

    #[test]
    fn duplicate_placement_rejected() {
        let p = chain_problem();
        let mut b = ScheduleBuilder::new(&p);
        let x = p.alg().op_by_name("X").unwrap();
        b.place(x, ProcId(0)).unwrap();
        assert!(matches!(
            b.place(x, ProcId(0)),
            Err(ScheduleError::ReplicaExists { .. })
        ));
    }

    #[test]
    fn pred_not_scheduled_rejected() {
        let p = chain_problem();
        let mut b = ScheduleBuilder::new(&p);
        let y = p.alg().op_by_name("Y").unwrap();
        assert!(matches!(
            b.place(y, ProcId(0)),
            Err(ScheduleError::PredNotScheduled { .. })
        ));
        assert!(matches!(
            b.probe(y, ProcId(0)),
            Err(ScheduleError::PredNotScheduled { .. })
        ));
    }

    #[test]
    fn local_pred_suppresses_comms() {
        let p = chain_problem();
        let mut b = ScheduleBuilder::new(&p);
        let x = p.alg().op_by_name("X").unwrap();
        let y = p.alg().op_by_name("Y").unwrap();
        b.place(x, ProcId(0)).unwrap();
        b.place(x, ProcId(1)).unwrap();
        let r = b.place(y, ProcId(0)).unwrap();
        // X is local on P1: Y starts right after it, zero comms.
        assert_eq!(b.replica(r).start(), t(2.0));
        let sched = b.finish();
        assert_eq!(sched.comm_count(), 0);
    }

    #[test]
    fn remote_pred_books_npf_plus_one_comms() {
        let p = chain_problem();
        let x = p.alg().op_by_name("X").unwrap();
        let y = p.alg().op_by_name("Y").unwrap();
        let mut b2 = ScheduleBuilder::new(&p);
        b2.place(x, ProcId(0)).unwrap();
        let r = b2.place(y, ProcId(1)).unwrap();
        // X ends at 2, comm takes 1 => Y starts at 3 on P2.
        assert_eq!(b2.replica(r).start(), t(3.0));
        let sched = b2.finish();
        assert_eq!(sched.comm_count(), 1);
        assert_eq!(sched.comms()[0].arrival(), t(3.0));
    }

    #[test]
    fn worst_start_tracks_latest_arrival() {
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        // I on P1 (end 1.0) and P2 (end 1.3).
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        // A on P3: receives I from P1 via L1.3 (1.25) and from P2 via L2.3
        // (1.25): arrivals 2.25 and 2.55.
        let r = b.place(a, ProcId(2)).unwrap();
        assert_eq!(b.replica(r).start(), t(2.25));
        assert_eq!(b.replica(r).start_worst, t(2.55));
        assert_eq!(b.replica(r).end(), t(3.25)); // A on P3 takes 1.0
    }

    #[test]
    fn probe_matches_place() {
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        let probe = b.probe(a, ProcId(2)).unwrap();
        let r = b.place(a, ProcId(2)).unwrap();
        assert_eq!(probe.start_best, b.replica(r).start());
        assert_eq!(probe.start_worst, b.replica(r).start_worst);
        assert_eq!(probe.end_best, b.replica(r).end());
        // Probing an already-placed pair returns the recorded times.
        let probe2 = b.probe(a, ProcId(2)).unwrap();
        assert_eq!(probe2.start_best, b.replica(r).start());
    }

    #[test]
    fn forbidden_pairs_error() {
        let p = paper_example();
        let i = p.alg().op_by_name("I").unwrap();
        let b = ScheduleBuilder::new(&p);
        assert!(matches!(
            b.probe(i, ProcId(2)),
            Err(ScheduleError::Forbidden { .. })
        ));
    }

    #[test]
    fn min_start_duplicates_lip_when_profitable() {
        // Mirrors the paper's step 3 (Fig. 6): duplicating A on P3 lets C
        // start locally instead of waiting for a comm.
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        let c = alg.op_by_name("C").unwrap();
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        b.place(a, ProcId(0)).unwrap();
        b.place(a, ProcId(1)).unwrap();
        // Without duplication C on P3 waits for a comm from A.
        let probe_plain = b.probe(c, ProcId(2)).unwrap();
        let r = b.place_min_start(c, ProcId(2)).unwrap();
        // Duplication must not be worse than the plain placement.
        assert!(b.replica(r).start_worst <= probe_plain.start_worst);
        // A must now have a (duplicated) replica on P3.
        let a_on_p3 = b.replica_on(a, ProcId(2));
        assert!(a_on_p3.is_some(), "LIP A should be duplicated on P3");
        assert!(b.replica(a_on_p3.unwrap()).duplicated);
    }

    #[test]
    fn min_start_keeps_baseline_when_duplication_useless() {
        let p = chain_problem();
        let x = p.alg().op_by_name("X").unwrap();
        let y = p.alg().op_by_name("Y").unwrap();
        let mut b = ScheduleBuilder::new(&p);
        b.place(x, ProcId(0)).unwrap();
        b.place(x, ProcId(1)).unwrap();
        // X is already local on both processors: no LIP to duplicate.
        let before = b.finish().replica_count();
        let p2 = chain_problem();
        let mut b = ScheduleBuilder::new(&p2);
        b.place(x, ProcId(0)).unwrap();
        b.place(x, ProcId(1)).unwrap();
        b.place_min_start(y, ProcId(0)).unwrap();
        let sched = b.finish();
        assert_eq!(sched.replica_count(), before + 1);
        assert_eq!(sched.comm_count(), 0);
    }

    #[test]
    fn finish_orders_resources_by_start() {
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        b.place(a, ProcId(0)).unwrap();
        b.place(a, ProcId(2)).unwrap();
        let s = b.finish();
        for proc in 0..s.proc_count() {
            let order = s.proc_order(ProcId(proc as u32));
            for w in order.windows(2) {
                assert!(s.replica(w[0]).start() <= s.replica(w[1]).start());
            }
        }
        assert_eq!(s.replicas_of(i).len(), 2);
        assert_eq!(s.replicas_of(a).len(), 2);
        assert!(s.makespan() > Time::ZERO);
        assert!(s.completion() <= s.makespan());
        assert!(s.makespan() <= s.last_activity());
    }

    #[test]
    fn rollback_restores_the_exact_state() {
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        let before = b.clone().finish();
        let mark = b.checkpoint();
        // A speculative placement books a replica and two comms...
        b.place(a, ProcId(2)).unwrap();
        assert!(b.clone().finish() != before);
        // ...and rolling back erases all of it.
        b.rollback(mark);
        assert_eq!(b.clone().finish(), before);
        // The builder is fully usable afterwards and reproduces the same
        // placement deterministically.
        let r = b.place(a, ProcId(2)).unwrap();
        assert_eq!(b.replica(r).start(), t(2.25));
    }

    #[test]
    fn nested_rollbacks_unwind_in_order() {
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        let m0 = b.checkpoint();
        b.place(i, ProcId(0)).unwrap();
        let m1 = b.checkpoint();
        b.place(i, ProcId(1)).unwrap();
        b.place(a, ProcId(0)).unwrap();
        b.rollback(m1);
        assert_eq!(b.replicas_of(i).len(), 1);
        assert!(b.replicas_of(a).is_empty());
        b.rollback(m0);
        assert!(b.replicas_of(i).is_empty());
        assert_eq!(b.clone().finish().replica_count(), 0);
    }

    #[test]
    fn ring_consumer_books_failure_disjoint_comms() {
        // X on P0 and P1, Y on P2, npf = 1. The primary route P0 -> P2 goes
        // through P1, so killing P1 would silence both classic comms (the
        // direct one from P1 and the relayed one from P0). The route-aware
        // plan adds a third comm from P0 around the other side of the ring.
        let p = ring_problem();
        let x = p.alg().op_by_name("X").unwrap();
        let y = p.alg().op_by_name("Y").unwrap();
        let mut b = ScheduleBuilder::new(&p);
        b.place(x, ProcId(0)).unwrap();
        b.place(x, ProcId(1)).unwrap();
        b.place(y, ProcId(2)).unwrap();
        b.place(y, ProcId(3)).unwrap();
        let s = b.finish();
        // Y on P2: for every single failure among {P0, P1, P3} some comm
        // must survive (source and intermediates alive).
        let y_on_p2 = s.replica_on(y, ProcId(2)).unwrap();
        let index = crate::CommIndex::new(&s);
        for fail in [0u32, 1, 3] {
            let survives = index
                .incoming(y_on_p2)
                .iter()
                .map(|&c| s.comm(c))
                .any(|c| c.hops.iter().all(|h| h.from != ProcId(fail)));
            assert!(survives, "failure of P{fail} severs every comm into Y@P2");
        }
    }

    #[test]
    fn comms_of_one_placement_sharing_a_link_evaluate_sequentially() {
        // `X -> Y` on a four-processor ring, slow links; Z delays X's
        // replica on P1. Y on P2 is fed from P1 over L1 and from P0
        // relayed through P1, both ready on L1 at 4: the relayed comm
        // (earlier source) takes L1 first and pushes the direct one. The
        // evaluated hop slots must be disjoint and equal to what booking
        // each hop in turn with `Timeline::insert_earliest` gives.
        let mut ab = Alg::builder("pushed");
        let x = ab.comp("X");
        let z = ab.comp("Z");
        let y = ab.comp("Y");
        ab.dep(x, y);
        let alg = ab.build().unwrap();
        let mut b = Arch::builder("ring4");
        let ps: Vec<_> = (0..4).map(|i| b.proc(format!("P{i}"))).collect();
        for i in 0..4 {
            b.link(format!("L{i}"), &[ps[i], ps[(i + 1) % 4]]);
        }
        let arch = b.build().unwrap();
        let exec = ExecTable::uniform(3, 4, t(2.0));
        let comm = CommTable::uniform(1, 4, t(2.0));
        let mut pb = Problem::builder(alg, arch, exec, comm);
        pb.npf(1);
        let p = pb.build().unwrap();

        let mut b = ScheduleBuilder::new(&p);
        b.place(z, ProcId(1)).unwrap();
        b.place(x, ProcId(0)).unwrap();
        b.place(x, ProcId(1)).unwrap();
        let before = b.state.link_tl.clone();
        let first = b.state.comms.len();
        // Evaluation books nothing; the commit books exactly what it
        // evaluated.
        let seg = b.evaluate(y, ProcId(2), false, None).unwrap().unwrap();
        assert!(b.state.link_tl == before && b.state.comms.len() == first);
        let evaluated = seg.comms.clone();
        let r = b.commit(seg);
        let comms = &b.state.comms[first..];
        assert_eq!(comms, &evaluated[..]);
        assert!(comms.iter().all(|c| c.dst == r));
        assert_eq!(
            lays_out_sequentially(&b, &before, comms),
            1,
            "one hop waits for an earlier hop of its own placement"
        );
    }

    /// Asserts that `comms`, laid out by one evaluation on the link lanes
    /// `before`, have pairwise disjoint hops and equal what booking each
    /// hop in turn with `Timeline::insert_earliest` gives. Returns how many
    /// hops that booking pushed past their slot on `before` alone.
    fn lays_out_sequentially(
        b: &ScheduleBuilder,
        before: &[Timeline<(CommId, usize)>],
        comms: &[Comm],
    ) -> usize {
        let hops: Vec<&BookedHop> = comms.iter().flat_map(|c| &c.hops).collect();
        for (i, h) in hops.iter().enumerate() {
            for g in &hops[..i] {
                assert!(g.link != h.link || !g.slot.overlaps(&h.slot));
            }
        }
        let mut links = before.to_vec();
        let mut pushed = 0;
        for comm in comms {
            let mut ready = b.replica(comm.src).end();
            for (i, hop) in comm.hops.iter().enumerate() {
                let dur = hop.slot.duration();
                let alone = before[hop.link.index()].probe(ready, dur);
                let slot = links[hop.link.index()].insert_earliest(ready, dur, (CommId(0), i));
                assert_eq!(hop.slot, slot);
                pushed += usize::from(slot.start != alone);
                ready = slot.end;
            }
        }
        pushed
    }

    thread_local! {
        /// While set, every segment `evaluate` lays out in full on this
        /// thread is checked by [`lays_out_sequentially`], and the largest
        /// number of one segment's hops on one link is kept here.
        static MOST_OWN_HOPS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    }

    /// Called by `evaluate` in test builds with every laid-out segment.
    pub(super) fn on_evaluate(b: &ScheduleBuilder, seg: &PlacedSegment) {
        let Some(most) = MOST_OWN_HOPS.get() else {
            return;
        };
        lays_out_sequentially(b, &b.state.link_tl, &seg.comms);
        let hops = || seg.comms.iter().flat_map(|c| &c.hops);
        let own = hops().map(|h| hops().filter(|g| g.link == h.link).count());
        MOST_OWN_HOPS.set(Some(own.fold(most, usize::max)));
    }

    /// The depths of the calls whose pending trial an abort called lost,
    /// innermost last, and the number of aborts so far.
    type LostTrials = (Vec<usize>, usize);

    thread_local! {
        /// While set, an abort lets its call run on and is recorded here
        /// until its parent's trial is decided.
        static LOST_TRIALS: std::cell::RefCell<Option<LostTrials>> = const { std::cell::RefCell::new(None) };
    }

    /// Called by `place_min_inner` in test builds when a call at `depth`
    /// finds its parent's trial lost; true lets the call run on.
    pub(super) fn run_lost_subtree(depth: usize) -> bool {
        LOST_TRIALS.with_borrow_mut(|lost| {
            let Some((parents, aborts)) = lost else {
                return false;
            };
            *aborts += 1;
            if parents.last() != Some(&(depth - 1)) {
                parents.push(depth - 1);
            }
            true
        })
    }

    /// Called by `place_min_inner` in test builds when a trial at `depth`
    /// is decided.
    pub(super) fn on_trial_decided(depth: usize, accepted: bool) {
        LOST_TRIALS.with_borrow_mut(|lost| {
            if let Some((parents, _)) = lost {
                if parents.last() == Some(&depth) {
                    parents.pop();
                    assert!(!accepted, "a trial at depth {depth} won after an abort");
                }
            }
        });
    }

    #[test]
    fn every_aborted_call_belongs_to_a_rejected_trial() {
        // The `mesh3x2_n300_seed16` golden problem duplicates heavily.
        // Letting every abort run its subtree anyway gives the run without
        // aborts: each aborted call's parent trial must then be rejected,
        // and the schedule must be the golden one.
        use ftbar_workload::{arch, layered, timing, LayeredConfig, TimingConfig};
        let alg = layered(&LayeredConfig {
            n_ops: 300,
            seed: 16,
            ..Default::default()
        });
        let config = TimingConfig {
            ccr: 5.0,
            npf: 1,
            seed: 16,
            ..Default::default()
        };
        let p = timing(alg, arch::mesh(3, 2), &config).unwrap();
        LOST_TRIALS.set(Some((Vec::new(), 0)));
        let schedule = crate::ftbar::schedule(&p).unwrap();
        let (parents, aborts) = LOST_TRIALS.take().unwrap();
        assert!(parents.is_empty(), "undecided trials at depths {parents:?}");
        assert!(aborts > 0, "no abort fired");
        let golden = include_str!("../../../tests/golden/ftbar_mesh3x2_n300_seed16.json");
        assert!(serde_json::to_string_pretty(&schedule).unwrap() + "\n" == golden);
    }

    #[test]
    fn many_own_hops_on_one_link_evaluate_sequentially() {
        // `ftbar gen --n 140 --procs 6 --topology mesh:3x2 --ccr 5 --npf 1
        // --seed 2`: a nested duplicate's evaluation puts 17 or more of its
        // own hops on one link. Replaying FTBAR's top-level placements
        // (the replicas it did not duplicate, in booking order) repeats
        // every evaluation of the run, and each must lay its hops out as
        // sequential booking would.
        use ftbar_workload::{arch, layered, timing, LayeredConfig, TimingConfig};
        let alg = layered(&LayeredConfig {
            n_ops: 140,
            seed: 2,
            ..Default::default()
        });
        let config = TimingConfig {
            ccr: 5.0,
            npf: 1,
            seed: 2,
            ..Default::default()
        };
        let p = timing(alg, arch::mesh(3, 2), &config).unwrap();
        // The problem as the CLI reads it back from `gen`'s output.
        let p = ftbar_model::spec::parse_problem(&ftbar_model::spec::print_problem(&p)).unwrap();
        let schedule = crate::ftbar::schedule(&p).unwrap();
        let mut b = ScheduleBuilder::new(&p);
        MOST_OWN_HOPS.set(Some(0));
        for rep in schedule.replicas().iter().filter(|r| !r.duplicated) {
            b.place_min_start(rep.op, rep.proc).unwrap();
        }
        let most = MOST_OWN_HOPS.take().unwrap();
        assert_eq!(b.finish(), schedule);
        assert!(
            most >= 17,
            "at most {most} own hops of one placement on a link"
        );
    }

    #[test]
    fn fully_connected_booking_is_unchanged_by_routing() {
        // On the paper's architecture the classic Npf+1 distinct sources
        // already defeat every failure pattern: no augmentation comms.
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        b.place(a, ProcId(2)).unwrap();
        let s = b.finish();
        assert_eq!(s.comm_count(), 2, "exactly Npf + 1 comms, as in the paper");
    }
}
