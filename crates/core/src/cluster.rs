//! Hierarchical clustering: schedule a coarse *cluster graph* first, then
//! expand it with placements pinned (DESIGN.md §12).
//!
//! [`crate::SweepStrategy::Clustered`] trades
//! exactness for speed on very large graphs: the operation graph is
//! grouped into bounded-size **convex** super-operations, the (much
//! smaller) cluster graph is scheduled with the ordinary exact engine, and
//! the original operations are then scheduled with each operation's
//! processor choice restricted to the processors its cluster's replicas
//! landed on. The second pass runs the full FTBAR machinery — active
//! replication, LIP duplication, hop-wise comm booking — so the result is
//! a *valid* fault-tolerant schedule of the original problem; only the σ
//! sweep is narrowed, from all processors to the pinned handful.
//!
//! # Convexity invariant
//!
//! Clusters are formed inside single precedence *levels* (the longest-path
//! depth from the entry operations): every dependency strictly increases
//! the level, so no path can leave a cluster and re-enter it, and the
//! quotient graph is acyclic by construction. This is the invariant that
//! lets the cluster graph be scheduled by the unmodified
//! [`Engine`](crate::Engine) pipeline — a non-convex cluster would
//! deadlock the ready-set (its quotient would contain a cycle).
//!
//! Within a level, operations are ordered by descending bottom level
//! (urgency affinity — operations that the list scheduler would treat as
//! similarly urgent end up co-located) and chunked into clusters of at
//! most [`FtbarConfig::cluster_size`] members.
//!
//! The cluster problem's tables are conservative aggregates: a cluster
//! executes on `p` for the *sum* of its members' times (and is forbidden
//! wherever any member is), and an inter-cluster dependency costs the sum
//! of its member dependencies on each link.

use ftbar_model::{Alg, CommTable, DepId, ExecTable, OpId, Problem, Time};

use crate::engine::EnginePools;
use crate::error::ScheduleError;
use crate::ftbar::{schedule_with_pools, FtbarConfig, FtbarOutcome, SweepStrategy};

/// The clustering pass: groups `problem`'s operations into convex
/// super-operations of at most `config.cluster_size` members.
///
/// Returns the cluster index per operation plus the cluster count.
/// Deterministic: levels and in-level ordering depend only on the graph.
pub fn cluster_ops(problem: &Problem, cluster_size: usize) -> (Vec<u32>, usize) {
    let alg = problem.alg();
    let size = cluster_size.max(1);
    let n = alg.op_count();
    // Longest-path level from the entries: every scheduling dependency
    // strictly increases it (the convexity invariant's foundation).
    let mut level = vec![0u32; n];
    for &op in alg.topo_order() {
        let l = alg
            .sched_preds(op)
            .map(|(_, p)| level[p.index()] + 1)
            .max()
            .unwrap_or(0);
        level[op.index()] = l;
    }
    // Bottom levels (computation only — affinity needs relative urgency,
    // not the exact σ scale): longest exec-weighted path to an exit.
    let exec = problem.exec();
    let arch = problem.arch();
    let mean_exec = |op: OpId| {
        let (mut sum, mut cnt) = (0.0f64, 0u32);
        for p in arch.procs() {
            if let Some(t) = exec.get(op, p) {
                sum += t.as_units();
                cnt += 1;
            }
        }
        if cnt == 0 {
            0.0
        } else {
            sum / cnt as f64
        }
    };
    let mut bottom = vec![0.0f64; n];
    for &op in alg.topo_order().iter().rev() {
        let tail = alg
            .sched_succs(op)
            .map(|(_, s)| bottom[s.index()])
            .fold(0.0f64, f64::max);
        bottom[op.index()] = mean_exec(op) + tail;
    }
    // Group per level, order by (bottom desc, id asc), chunk.
    let max_level = level.iter().copied().max().unwrap_or(0) as usize;
    let mut by_level: Vec<Vec<OpId>> = vec![Vec::new(); max_level + 1];
    for op in alg.ops() {
        by_level[level[op.index()] as usize].push(op);
    }
    let mut cluster = vec![0u32; n];
    let mut next = 0u32;
    for ops in &mut by_level {
        ops.sort_by(|&a, &b| {
            bottom[b.index()]
                .partial_cmp(&bottom[a.index()])
                .expect("bottom levels are finite")
                .then(a.cmp(&b))
        });
        for chunk in ops.chunks(size) {
            for &op in chunk {
                cluster[op.index()] = next;
            }
            next += 1;
        }
    }
    (cluster, next as usize)
}

/// Schedules `problem` via the clustered two-phase pipeline (see the
/// module docs). The returned outcome's `sweep_stats` are the expansion
/// phase's, with [`crate::SweepStats::clusters`] set to the cluster count.
///
/// # Errors
///
/// Propagates [`ScheduleError`] from either scheduling phase;
/// [`ScheduleError::DerivedProblem`] when the quotient or pinned problem
/// fails model validation (e.g. a cluster whose members have no common
/// allowed processor — the summed execution table forbids a processor
/// wherever *any* member is forbidden).
pub fn schedule_clustered(
    problem: &Problem,
    config: &FtbarConfig,
    pools: EnginePools,
) -> Result<(FtbarOutcome, EnginePools), ScheduleError> {
    let alg = problem.alg();
    let arch = problem.arch();
    let (cluster, n_clusters) = cluster_ops(problem, config.cluster_size);

    let inner = FtbarConfig {
        sweep: SweepStrategy::Adaptive,
        trace: false,
        ..config.clone()
    };

    // Phase 1: build and schedule the cluster graph.
    let mut cb = Alg::builder(format!("{}#clusters", alg.name()));
    let cluster_ids: Vec<_> = (0..n_clusters).map(|i| cb.comp(format!("c{i}"))).collect();
    // Aggregate inter-cluster dependencies; keep the member list per
    // quotient edge to sum the communication tables afterwards.
    let mut edges: std::collections::BTreeMap<(u32, u32), (f64, Vec<DepId>)> =
        std::collections::BTreeMap::new();
    for dep in alg.deps() {
        if !alg.is_sched_dep(dep) {
            continue;
        }
        let (u, v) = alg.dep_endpoints(dep);
        let (cu, cv) = (cluster[u.index()], cluster[v.index()]);
        if cu == cv {
            continue;
        }
        let e = edges.entry((cu, cv)).or_default();
        e.0 += alg.dep(dep).size();
        e.1.push(dep);
    }
    let mut cluster_deps = Vec::with_capacity(edges.len());
    for (&(cu, cv), &(size, _)) in &edges {
        cluster_deps.push(cb.dep_sized(cluster_ids[cu as usize], cluster_ids[cv as usize], size));
    }
    let calg = cb.build().expect("quotient of a DAG by levels is a DAG");

    let exec = problem.exec();
    let mut cexec = ExecTable::new(n_clusters, arch.proc_count());
    for p in arch.procs() {
        for (ci, _) in cluster_ids.iter().enumerate() {
            let mut sum = Some(Time::ZERO);
            for op in alg.ops() {
                if cluster[op.index()] as usize != ci {
                    continue;
                }
                sum = match (sum, exec.get(op, p)) {
                    (Some(acc), Some(t)) => acc.checked_add(t),
                    _ => None,
                };
            }
            match sum {
                Some(t) => cexec.set(cluster_ids[ci], p, t),
                None => cexec.forbid(cluster_ids[ci], p),
            }
        }
    }

    let comm = problem.comm();
    let mut ccomm = CommTable::new(calg.dep_count(), arch.link_count());
    for (cdep, (_, (_, members))) in cluster_deps.iter().zip(&edges) {
        for l in arch.links() {
            let mut sum = Some(Time::ZERO);
            for &m in members {
                sum = match (sum, comm.get(m, l)) {
                    (Some(acc), Some(t)) => acc.checked_add(t),
                    _ => None,
                };
            }
            if let Some(t) = sum {
                ccomm.set(*cdep, l, t);
            }
        }
    }

    let mut cpb = Problem::builder(calg, arch.clone(), cexec, ccomm);
    cpb.npf(problem.npf());
    let cproblem = cpb
        .build()
        .map_err(|e| ScheduleError::DerivedProblem(e.to_string()))?;
    let (coarse, pools) = schedule_with_pools(&cproblem, &inner, pools)?;

    // Phase 2: expand — re-schedule the original operations with each one
    // pinned to the processors its cluster landed on (including any
    // processors LIP duplication pulled in; the pinned set is therefore
    // always at least `Npf + 1` wide and the expansion can never run out
    // of processors).
    let mut pinned: Vec<Vec<bool>> = vec![vec![false; arch.proc_count()]; n_clusters];
    for (ci, &cid) in cluster_ids.iter().enumerate() {
        for &rid in coarse.schedule.replicas_of(cid) {
            pinned[ci][coarse.schedule.replica(rid).proc.index()] = true;
        }
    }
    let mut pexec = ExecTable::new(alg.op_count(), arch.proc_count());
    for op in alg.ops() {
        let allowed = &pinned[cluster[op.index()] as usize];
        for p in arch.procs() {
            match exec.get(op, p) {
                Some(t) if allowed[p.index()] => pexec.set(op, p, t),
                _ => pexec.forbid(op, p),
            }
        }
    }
    let mut ppb = Problem::builder(alg.clone(), arch.clone(), pexec, comm.clone());
    ppb.npf(problem.npf());
    if let Some(rtc) = problem.rtc() {
        ppb.rtc(rtc);
    }
    let pproblem = ppb
        .build()
        .map_err(|e| ScheduleError::DerivedProblem(e.to_string()))?;
    let (mut out, pools) = schedule_with_pools(&pproblem, &inner, pools)?;

    let mut stats = out.sweep_stats.expect("the inner sweep records stats");
    stats.clusters = n_clusters as u64;
    out.sweep_stats = Some(stats);
    Ok((out, pools))
}
