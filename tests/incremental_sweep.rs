//! Bit-identity of the incremental pressure engine.
//!
//! The probe-cache-driven sweep (`ftbar_core::sweep`) and HBP's
//! bound-pruned pair search are pure optimizations: on every problem they
//! must reproduce the retained naive reference sweeps **bit for bit**. These property tests pin that across
//! random problems on all supported topology families (shared scaffolding:
//! `ftbar::workload::presets`), deterministic N = 200 instances pin it at
//! the scale the large-N benches measure, a rollback-heavy stress seed
//! churns the dirty-set selection index, and unit tests pin that cache
//! invalidation fires on route-lane changes (the multi-hop booking path of
//! the route-aware masking work).

use ftbar::core::sweep::ProbeCache;
use ftbar::core::{FtbarConfig, ScheduleBuilder, SweepStrategy};
use ftbar::hbp;
use ftbar::model::{Alg, Arch, CommTable, ExecTable, Problem, ProcId, Time};
use ftbar::prelude::*;
use ftbar::workload::presets::{problem_on, Topology};
use ftbar::workload::{arch, layered, timing, LayeredConfig, TimingConfig};
use proptest::prelude::*;

fn incremental() -> FtbarConfig {
    FtbarConfig {
        sweep: SweepStrategy::Incremental,
        ..FtbarConfig::default()
    }
}

fn naive() -> FtbarConfig {
    FtbarConfig {
        sweep: SweepStrategy::Naive,
        ..FtbarConfig::default()
    }
}

/// FTBAR bit-identity on one problem: the incremental sweep equals the
/// naive reference sweep.
fn assert_ftbar_engines_agree(problem: &Problem, context: &str) {
    let naive = ftbar_schedule_with(problem, &naive())
        .expect("schedules")
        .schedule;
    let inc = ftbar_schedule_with(problem, &incremental())
        .expect("schedules")
        .schedule;
    assert_eq!(naive, inc, "incremental sweep diverged on {context}");
}

/// HBP bit-identity on one problem: the bound-pruned pair search equals
/// the exhaustive reference.
fn assert_hbp_engines_agree(problem: &Problem, context: &str) {
    let exhaustive = hbp::schedule_with(
        problem,
        &hbp::HbpConfig {
            pair_search: hbp::PairSearch::Exhaustive,
        },
    )
    .expect("schedules");
    let pruned = hbp::schedule_with(
        problem,
        &hbp::HbpConfig {
            pair_search: hbp::PairSearch::Pruned,
        },
    )
    .expect("schedules");
    assert_eq!(
        exhaustive, pruned,
        "pruned pair search diverged on {context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FTBAR: incremental and naive sweeps agree.
    #[test]
    fn ftbar_engines_are_bit_identical(
        topo_index in 0usize..4,
        n_ops in 4usize..24,
        ccr in 0.2f64..5.0,
        seed in 0u64..10_000,
    ) {
        let topo = Topology::from_index(topo_index);
        let problem = problem_on(topo, n_ops, ccr, seed);
        assert_ftbar_engines_agree(&problem, topo.name());
    }

    /// HBP: the bound-pruned pair search equals the exhaustive one.
    #[test]
    fn hbp_pruning_is_bit_identical(
        topo_index in 0usize..4,
        n_ops in 4usize..24,
        ccr in 0.2f64..5.0,
        seed in 0u64..10_000,
    ) {
        let topo = Topology::from_index(topo_index);
        let problem = problem_on(topo, n_ops, ccr, seed);
        assert_hbp_engines_agree(&problem, topo.name());
    }

    /// The trace-enabled run (step snapshots through `finish_snapshot`)
    /// produces the same schedule as the plain run.
    #[test]
    fn traced_run_matches_plain(
        topo_index in 0usize..4,
        n_ops in 4usize..16,
        seed in 0u64..10_000,
    ) {
        let problem = problem_on(Topology::from_index(topo_index), n_ops, 1.0, seed);
        let plain = ftbar_schedule(&problem).expect("schedules");
        let traced = ftbar_schedule_with(
            &problem,
            &FtbarConfig { trace: true, ..FtbarConfig::default() },
        )
        .expect("schedules");
        prop_assert_eq!(&plain, &traced.schedule);
        prop_assert_eq!(traced.steps.len(), problem.alg().op_count());
        let last = traced.steps.last().expect("steps recorded");
        prop_assert_eq!(last.snapshot.replica_count(), plain.replica_count());
    }
}

/// Large-N bit-identity: one deterministic N = 200 instance per topology
/// family — the scale the committed large-N bench points measure, far
/// beyond the proptest sizes. (One seed each; the runtime is dominated by
/// the naive/exhaustive references.)
#[test]
fn ftbar_engines_agree_at_n200_on_every_topology() {
    for (i, topo) in Topology::ALL.into_iter().enumerate() {
        let problem = problem_on(topo, 200, 2.0, 9_000 + i as u64);
        assert_ftbar_engines_agree(&problem, topo.name());
    }
}

#[test]
fn hbp_pruning_agrees_at_n200_on_every_topology() {
    for (i, topo) in Topology::ALL.into_iter().enumerate() {
        let problem = problem_on(topo, 200, 2.0, 9_000 + i as u64);
        assert_hbp_engines_agree(&problem, topo.name());
    }
}

/// Rollback-heavy stress: a high-CCR instance makes `Minimize_start_time`
/// profitable at nearly every placement, so the main loop is dominated by
/// speculative book-then-rollback churn — exactly the traffic that bumps
/// lane versions without changing timeline contents and forces the
/// dirty-set index through its replay tier. A multi-hop topology adds
/// route-lane churn on top.
#[test]
fn rollback_churn_keeps_engines_bit_identical() {
    for (topo, n_ops, ccr, seed) in [
        (Topology::Full, 120, 8.0, 4_242),
        (Topology::Ring, 80, 8.0, 4_243),
    ] {
        let problem = problem_on(topo, n_ops, ccr, seed);
        // High CCR must actually trigger duplication for the stress to
        // mean anything.
        let out = ftbar_schedule_with(&problem, &incremental()).expect("schedules");
        assert!(
            out.schedule.replicas().iter().any(|r| r.duplicated),
            "stress seed on {} produced no LIP duplication",
            topo.name()
        );
        assert_ftbar_engines_agree(&problem, topo.name());
    }
}

/// `X -> {Y, W}` on a four-processor ring, npf = 1: probes traverse
/// multi-hop routes, so route (link) lanes participate in cache
/// invalidation, and placing `W` perturbs links without touching `Y`'s or
/// `X`'s replica sets.
fn ring_chain_problem() -> Problem {
    let mut b = Alg::builder("chain");
    let x = b.comp("X");
    let y = b.comp("Y");
    let w = b.comp("W");
    b.dep(x, y);
    b.dep(x, w);
    let alg = b.build().unwrap();
    let mut b = Arch::builder("ring4");
    let ps: Vec<_> = (0..4).map(|i| b.proc(format!("P{i}"))).collect();
    for i in 0..4 {
        b.link(format!("L{i}"), &[ps[i], ps[(i + 1) % 4]]);
    }
    let arch = b.build().unwrap();
    let exec = ExecTable::uniform(3, 4, Time::from_units(2.0));
    let comm = CommTable::uniform(2, 4, Time::from_units(1.0));
    let mut pb = Problem::builder(alg, arch, exec, comm);
    pb.npf(1);
    pb.build().unwrap()
}

/// Cache invalidation must fire when a *route* lane changes: booking a
/// comm on an intermediate link of Y's multi-hop input route changes the
/// cached probe, and the cache must hand back exactly what a fresh probe
/// computes (the PR 2 multi-hop booking path).
#[test]
fn cache_invalidates_on_route_lane_changes() {
    let p = ring_chain_problem();
    let x = p.alg().op_by_name("X").unwrap();
    let y = p.alg().op_by_name("Y").unwrap();
    let w = p.alg().op_by_name("W").unwrap();

    let mut b = ScheduleBuilder::new(&p);
    let mut cache = ProbeCache::new(&p);
    b.place(x, ProcId(0)).unwrap();
    b.place(x, ProcId(1)).unwrap();

    // Prime the cache: Y on P2 pulls X over multi-hop routes (P0 -> P2
    // crosses an intermediate processor on the ring).
    let before = cache.probe(&b, y, ProcId(2)).unwrap();
    assert_eq!(before, b.probe(y, ProcId(2)).unwrap());
    let s0 = cache.stats();
    assert!(s0.recomputes > 0, "first probe computes");

    // A cache hit on the unchanged state returns the same value cheaply.
    let again = cache.probe(&b, y, ProcId(2)).unwrap();
    assert_eq!(again, before);
    let s1 = cache.stats();
    assert_eq!(s1.recomputes, s0.recomputes, "unchanged state must hit");
    assert!(s1.version_hits + s1.replay_hits > s0.version_hits + s0.replay_hits);

    // Booking W on P3 occupies ring links that Y@P2's input routes cross
    // (the redundant comms from X@P0/X@P1 wrap both ways around the ring)
    // while leaving Y's and X's replica sets — the tier-1 stamp — and P2's
    // processor lane untouched: only *route lanes* changed.
    b.place(w, ProcId(3)).unwrap();
    let fresh = b.probe(y, ProcId(2)).unwrap();
    let cached = cache.probe(&b, y, ProcId(2)).unwrap();
    assert_eq!(
        cached, fresh,
        "cache must recompute or replay to the fresh value after route-lane changes"
    );

    // The stats must show the route-lane change was detected (a replay
    // pass or a full recompute — never a blind version hit alone).
    let s2 = cache.stats();
    assert!(
        s2.recomputes > s1.recomputes || s2.replay_hits > s1.replay_hits,
        "route-lane change went unnoticed: {s2:?} vs {s1:?}"
    );
}

/// On multi-hop topologies the probe cache keeps agreeing with fresh
/// probes while the schedule grows — every pair, every step.
#[test]
fn cache_agrees_with_fresh_probes_during_a_ring_schedule() {
    let problem = problem_on(Topology::Ring, 12, 2.0, 7);
    let alg = problem.alg();
    let mut b = ScheduleBuilder::new(&problem);
    let mut cache = ProbeCache::new(&problem);
    for &op in alg.topo_order() {
        for proc in problem.arch().procs() {
            if !problem.exec().allows(op, proc) {
                continue;
            }
            let fresh = b.probe(op, proc).unwrap();
            let cached = cache.probe(&b, op, proc).unwrap();
            assert_eq!(cached, fresh, "divergence at {op} on {proc}");
        }
        b.place_min_start(op, problem.exec().allowed_procs(op).next().unwrap())
            .unwrap();
    }
}

/// A symmetric architecture with *heterogeneous* execution times (no two
/// processors run any operation equally fast): both schedulers still match
/// their references.
#[test]
fn heterogeneous_exec_keeps_engines_bit_identical() {
    let mut b = Alg::builder("het");
    let prev: Vec<_> = (0..12).map(|i| b.comp(format!("T{i}"))).collect();
    for w in prev.windows(2) {
        b.dep(w[0], w[1]);
    }
    for i in 0..6 {
        b.dep(prev[i], prev[i + 6]);
    }
    let alg = b.build().unwrap();
    let mut a = Arch::builder("quad");
    let ps: Vec<_> = (0..4).map(|i| a.proc(format!("P{i}"))).collect();
    for i in 0..4 {
        for j in (i + 1)..4 {
            a.link(format!("L{i}{j}"), &[ps[i], ps[j]]);
        }
    }
    let arch = a.build().unwrap();
    // Per-processor distinct times: no permutation leaves the table
    // invariant.
    let mut exec = ExecTable::new(12, 4);
    for (oi, &op) in prev.iter().enumerate() {
        for (pi, &p) in ps.iter().enumerate() {
            exec.set(
                op,
                p,
                Time::from_units(1.0 + oi as f64 * 0.1 + pi as f64 * 0.3),
            );
        }
    }
    let comm = CommTable::uniform(alg.dep_count(), 6, Time::from_units(0.5));
    let mut pb = Problem::builder(alg, arch, exec, comm);
    pb.npf(1);
    let problem = pb.build().unwrap();

    assert_ftbar_engines_agree(&problem, "heterogeneous quad");
    assert_hbp_engines_agree(&problem, "heterogeneous quad");
}

/// The default (`adaptive`) strategy runs the incremental sweep at every
/// size, including just below and at the size where it used to switch
/// from the naive sweep, and schedules exactly as the naive reference.
#[test]
fn adaptive_runs_the_incremental_sweep_at_every_size() {
    let config = FtbarConfig::default();
    assert_eq!(config.sweep, SweepStrategy::Adaptive);
    for n_ops in [10, 63, 64] {
        let problem = problem_on(Topology::Full, n_ops, 2.0, 77);
        let adaptive = ftbar_schedule_with(&problem, &config).expect("schedules");
        assert!(
            adaptive.sweep_stats.is_some(),
            "N = {n_ops}: the default must run the cached sweep"
        );
        assert_eq!(
            ftbar_schedule_with(&problem, &naive()).unwrap().schedule,
            adaptive.schedule,
            "N = {n_ops}: the default diverged from the naive sweep"
        );
    }
}

/// A machine with more than 64 lanes: a fully connected 12-processor
/// machine has 12 processor and 66 link lanes, so the 64-bit change mask
/// saturates and the cache must prove its hits by replaying the recorded
/// probe events. The incremental sweep still schedules exactly as the
/// naive one.
#[test]
fn more_than_64_lanes_keeps_engines_bit_identical() {
    for npf in [1, 2] {
        let machine = arch::fully_connected(12);
        assert_eq!(machine.proc_count() + machine.link_count(), 78);
        let seed = 12_000 + u64::from(npf);
        let alg = layered(&LayeredConfig {
            n_ops: 60,
            seed,
            ..Default::default()
        });
        let config = TimingConfig {
            ccr: 2.0,
            npf,
            seed,
            ..Default::default()
        };
        let problem = timing(alg, machine, &config).expect("generated problems are valid");
        let out = ftbar_schedule_with(&problem, &incremental()).expect("schedules");
        let s = out
            .sweep_stats
            .expect("the incremental sweep records stats");
        assert!(
            s.version_hits + s.replay_hits > 0,
            "Npf = {npf}: the cache served no hit ({s})"
        );
        assert_ftbar_engines_agree(&problem, &format!("full(12), Npf = {npf}"));
    }
}
