//! Repair ≡ from-scratch: the bit-identity contract of incremental
//! re-scheduling, property-tested.
//!
//! `reschedule(prev, edit)` must produce *exactly* the schedule a full
//! pipeline run over the edited problem produces — byte-identical through
//! serialization, not merely equal makespans — whichever path it takes:
//! the rollback-and-resume repair (timing tweaks) or the structural
//! fallback (everything else). The harness drives thousands of seeded
//! random edits across the four topology families, including edits that
//! cannot apply at all (both sides must agree on the error class), plus a
//! deep chunked-timeline rollback exercise for the undo log under
//! `CHUNK_MAX` chunk splits and merges.

use ftbar::core::edit::ProblemEdit;
use ftbar::core::engine::EnginePools;
use ftbar::core::ftbar as ftbar_sched;
use ftbar::core::reschedule::{
    reschedule, reschedule_with_pools, schedule_retained, schedule_retained_with_pools,
    RescheduleError, ScheduleArtifacts,
};
use ftbar::core::{FtbarConfig, Schedule, ScheduleBuilder};
use ftbar::model::Problem;
use ftbar::workload::{arch, layered, problem_on, timing, LayeredConfig, TimingConfig, Topology};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Serialized form — the "byte-identical" witness. Two schedules with
/// equal JSON are equal in every field the result carries.
fn bytes(s: &Schedule) -> String {
    serde_json::to_string(s).expect("schedules serialize")
}

/// Draws one random edit against `problem`. Roughly half the draws are
/// repairable timing tweaks (the interesting path); the rest cover every
/// structural kind, including edits that cannot apply (unknown names, a
/// processor the replication constraint will reject, ...).
fn draw_edit(problem: &Problem, rng: &mut StdRng) -> ProblemEdit {
    let alg = problem.alg();
    let arch = problem.arch();
    let op_name = |rng: &mut StdRng| {
        let ops: Vec<_> = alg.ops().collect();
        alg.op(ops[rng.gen_range(0usize..ops.len())])
            .name()
            .to_owned()
    };
    let proc_name = |rng: &mut StdRng| {
        let procs: Vec<_> = arch.procs().collect();
        arch.proc(procs[rng.gen_range(0usize..procs.len())])
            .name()
            .to_owned()
    };
    let link_name = |rng: &mut StdRng| {
        let links: Vec<_> = arch.links().collect();
        arch.link(links[rng.gen_range(0usize..links.len())])
            .name()
            .to_owned()
    };
    let units = |rng: &mut StdRng| (rng.gen_range(1u32..80) as f64) / 8.0;
    match rng.gen_range(0u32..16) {
        // Timing tweaks get extra weight: they exercise the repair path.
        0..=3 => ProblemEdit::TweakExec {
            op: op_name(rng),
            proc: proc_name(rng),
            units: units(rng),
        },
        4..=6 => {
            // A real dependency most of the time; sometimes a random pair
            // (usually unknown, so the error paths get coverage too).
            let (src, dst) = if rng.gen_range(0u32..4) > 0 && alg.dep_count() > 0 {
                let deps: Vec<_> = alg.deps().collect();
                let (s, d) = alg.dep_endpoints(deps[rng.gen_range(0usize..deps.len())]);
                (alg.op(s).name().to_owned(), alg.op(d).name().to_owned())
            } else {
                (op_name(rng), op_name(rng))
            };
            ProblemEdit::TweakComm {
                src,
                dst,
                units: units(rng),
            }
        }
        7 => ProblemEdit::AllowProc {
            op: op_name(rng),
            proc: proc_name(rng),
            units: units(rng),
        },
        8 => ProblemEdit::ForbidProc {
            op: op_name(rng),
            proc: proc_name(rng),
        },
        9 => ProblemEdit::ProcDown {
            proc: proc_name(rng),
        },
        10 => ProblemEdit::ProcUp {
            proc: proc_name(rng),
            units: units(rng),
        },
        11 => ProblemEdit::LinkDown {
            link: link_name(rng),
        },
        12 => ProblemEdit::LinkUp {
            link: link_name(rng),
            units: units(rng),
        },
        13 => ProblemEdit::AddOp {
            name: format!("new{}", rng.gen_range(0u32..3)), // collides on repeat
            units: units(rng),
            preds: vec![op_name(rng)],
            succs: vec![],
            comm_units: units(rng),
        },
        14 => ProblemEdit::RemoveOp { name: op_name(rng) },
        _ => ProblemEdit::SetNpf {
            npf: rng.gen_range(0u32..3),
        },
    }
}

/// The property: repair and from-scratch agree byte-for-byte on success,
/// and on the error class on failure. Returns the repaired artifacts so
/// the caller can chain a second edit onto the repaired state.
fn assert_repair_matches_scratch(
    prev: &ScheduleArtifacts,
    edit: &ProblemEdit,
    context: &str,
) -> Option<ScheduleArtifacts> {
    let config = prev.config().clone();
    let repaired = reschedule(prev, edit);
    let scratch = match edit.apply(prev.problem()) {
        Ok(edited) => {
            ftbar_sched::schedule_with(&edited, &config).map_err(RescheduleError::Schedule)
        }
        Err(e) => Err(RescheduleError::Edit(e)),
    };
    match (repaired, scratch) {
        (Ok(out), Ok(full)) => {
            assert_eq!(
                bytes(&out.schedule),
                bytes(&full.schedule),
                "{context}: repair diverged from scratch for {edit:?}"
            );
            Some(out.artifacts)
        }
        (Err(RescheduleError::Edit(a)), Err(RescheduleError::Edit(b))) => {
            // Same error class; the payloads are identical by construction
            // (both sides run the same `apply`).
            assert_eq!(format!("{a}"), format!("{b}"), "{context}");
            None
        }
        (Err(RescheduleError::Schedule(_)), Err(RescheduleError::Schedule(_))) => None,
        (r, s) => panic!(
            "{context}: repair and scratch disagree for {edit:?}: {:?} vs {:?}",
            r.map(|o| o.schedule.makespan()),
            s.map(|o| o.schedule.makespan()),
        ),
    }
}

/// Thousands of seeded random edits across all four topology families:
/// every repair is byte-identical to its from-scratch reference,
/// structural fallbacks included.
#[test]
fn random_edits_repair_bit_identically() {
    let config = FtbarConfig::default();
    let mut edits = 0usize;
    for (t, topology) in Topology::ALL.into_iter().enumerate() {
        for (s, n_ops) in [18usize, 30].into_iter().enumerate() {
            let problem = problem_on(topology, n_ops, 2.0, 7_000 + 10 * t as u64 + s as u64);
            let (_, artifacts) = schedule_retained(&problem, &config).expect("presets schedule");
            let mut rng = StdRng::seed_from_u64(9_100 + 10 * t as u64 + s as u64);
            for i in 0..140 {
                let edit = draw_edit(&problem, &mut rng);
                let context = format!("{}/{n_ops} edit {i}", topology.name());
                assert_repair_matches_scratch(&artifacts, &edit, &context);
                edits += 1;
            }
        }
    }
    assert!(
        edits >= 1_000,
        "harness must stay in the thousands: {edits}"
    );
}

/// Chained repairs: each successful edit's retained artifacts seed the
/// next edit, so the undo log and placement sequence survive repeated
/// repair rounds without drifting from the from-scratch reference.
#[test]
fn chained_repairs_stay_bit_identical() {
    let config = FtbarConfig::default();
    for (t, topology) in Topology::ALL.into_iter().enumerate() {
        let problem = problem_on(topology, 24, 2.0, 8_200 + t as u64);
        let (_, mut artifacts) = schedule_retained(&problem, &config).expect("presets schedule");
        let mut rng = StdRng::seed_from_u64(4_400 + t as u64);
        let mut applied = 0usize;
        let mut round = 0usize;
        while applied < 12 && round < 200 {
            round += 1;
            let edit = draw_edit(artifacts.problem(), &mut rng);
            let context = format!("{} chain round {round}", topology.name());
            if let Some(next) = assert_repair_matches_scratch(&artifacts, &edit, &context) {
                artifacts = next;
                applied += 1;
            }
        }
        assert!(
            applied >= 12,
            "{}: only {applied} edits applied",
            topology.name()
        );
    }
}

/// Six seeded edits for a chain on `problem`: timing tweaks of ops on
/// processors they may run on and of real dependencies, with one
/// structural edit in the middle so the fallback path runs too.
fn seeded_chain(problem: &Problem, seed: u64) -> Vec<ProblemEdit> {
    let alg = problem.alg();
    let mut rng = StdRng::seed_from_u64(seed);
    let ops: Vec<_> = alg.ops().collect();
    let deps: Vec<_> = alg.deps().collect();
    let name = |op| alg.op(op).name().to_owned();
    let tweak = |rng: &mut StdRng, i: usize| {
        let units = (rng.gen_range(1u32..80) as f64) / 8.0;
        if i.is_multiple_of(2) {
            let op = ops[rng.gen_range(0usize..ops.len())];
            let proc = problem
                .exec()
                .allowed_procs(op)
                .next()
                .expect("runs somewhere");
            ProblemEdit::TweakExec {
                op: name(op),
                proc: problem.arch().proc(proc).name().to_owned(),
                units,
            }
        } else {
            let (src, dst) = alg.dep_endpoints(deps[rng.gen_range(0usize..deps.len())]);
            ProblemEdit::TweakComm {
                src: name(src),
                dst: name(dst),
                units,
            }
        }
    };
    let mut edits: Vec<_> = (0..5).map(|i| tweak(&mut rng, i)).collect();
    let p0 = problem.arch().procs().next().expect("a processor");
    let on_p0: Vec<_> = ops
        .iter()
        .copied()
        .filter(|&op| problem.exec().allows(op, p0))
        .collect();
    let op = on_p0[rng.gen_range(0usize..on_p0.len())];
    edits.insert(
        3,
        ProblemEdit::ForbidProc {
            op: name(op),
            proc: problem.arch().proc(p0).name().to_owned(),
        },
    );
    edits
}

/// The daemon's path: one [`EnginePools`] arena threaded through every
/// retained run and repair of chains on ring(6) and mesh:3x2 (N = 150,
/// CCR 5) gives the same schedules, repair reports and step counts as
/// fresh pools per call, and every schedule equals a from-scratch run of
/// the edited problem.
#[test]
fn pooled_chains_equal_fresh_chains() {
    let config = FtbarConfig::default();
    let mut pools = EnginePools::default();
    for (i, machine) in [arch::ring(6), arch::mesh(3, 2)].into_iter().enumerate() {
        let seed = 3_300 + i as u64;
        let alg = layered(&LayeredConfig {
            n_ops: 150,
            seed,
            ..Default::default()
        });
        let ccr = TimingConfig {
            ccr: 5.0,
            npf: 1,
            seed,
            ..Default::default()
        };
        let problem = timing(alg, machine, &ccr).expect("generated problems are valid");
        let (fresh, mut fresh_art) = schedule_retained(&problem, &config).expect("schedules");
        let (pooled, mut pooled_art, recycled) =
            schedule_retained_with_pools(problem.clone(), &config, pools).expect("schedules");
        pools = recycled;
        assert_eq!(bytes(&fresh), bytes(&pooled));
        assert_eq!(fresh_art.step_count(), pooled_art.step_count());
        let mut repaired = 0;
        for (k, edit) in seeded_chain(&problem, seed).iter().enumerate() {
            let context = format!("machine {i} edit {k}: {edit:?}");
            let fresh = reschedule(&fresh_art, edit).expect("edit applies");
            let (pooled, recycled) =
                reschedule_with_pools(&pooled_art, edit, pools).expect("edit applies");
            pools = recycled;
            assert_eq!(bytes(&fresh.schedule), bytes(&pooled.schedule), "{context}");
            assert_eq!(fresh.report, pooled.report, "{context}");
            assert_eq!(edit.is_structural(), pooled.report.fell_back, "{context}");
            repaired += usize::from(!pooled.report.fell_back);
            let steps = pooled.artifacts.step_count();
            assert_eq!(fresh.artifacts.step_count(), steps, "{context}");
            let scratch =
                ftbar_sched::schedule_with(pooled.artifacts.problem(), &config).expect("schedules");
            assert_eq!(
                bytes(&scratch.schedule),
                bytes(&pooled.schedule),
                "{context}"
            );
            fresh_art = fresh.artifacts;
            pooled_art = pooled.artifacts;
        }
        assert_eq!(repaired, 5, "machine {i}: every tweak repairs");
    }
}

/// Directed structural-fallback coverage: one edit of every structural
/// kind against one instance, each byte-identical to scratch (the
/// random harness hits these too, but this pins every kind explicitly).
#[test]
fn every_structural_kind_falls_back_bit_identically() {
    let problem = problem_on(Topology::Ring, 20, 2.0, 5_150);
    let config = FtbarConfig::default();
    let (_, artifacts) = schedule_retained(&problem, &config).expect("presets schedule");
    let first_op = problem
        .alg()
        .op(problem.alg().ops().next().unwrap())
        .name()
        .to_owned();
    let kinds = [
        ProblemEdit::AllowProc {
            op: first_op.clone(),
            proc: "P0".into(),
            units: 2.0,
        },
        ProblemEdit::ForbidProc {
            op: first_op.clone(),
            proc: "P0".into(),
        },
        ProblemEdit::ProcDown { proc: "P0".into() },
        ProblemEdit::ProcUp {
            proc: "P0".into(),
            units: 3.0,
        },
        ProblemEdit::LinkDown {
            link: problem
                .arch()
                .link(problem.arch().links().next().unwrap())
                .name()
                .to_owned(),
        },
        ProblemEdit::LinkUp {
            link: problem
                .arch()
                .link(problem.arch().links().next().unwrap())
                .name()
                .to_owned(),
            units: 1.5,
        },
        ProblemEdit::AddOp {
            name: "bolted_on".into(),
            units: 2.5,
            preds: vec![first_op.clone()],
            succs: vec![],
            comm_units: 1.0,
        },
        ProblemEdit::RemoveOp {
            name: first_op.clone(),
        },
        ProblemEdit::SetNpf { npf: 0 },
    ];
    for edit in &kinds {
        assert!(edit.is_structural(), "{edit:?} must be structural");
        if let Some(out) = assert_repair_matches_scratch(&artifacts, edit, "structural kind") {
            // The fallback still retains state, so further repairs work.
            assert!(out.step_count() > 0);
        }
    }
}

/// Deep rollback across chunked timelines: a two-processor bus chain
/// pushes a single link lane far past `CHUNK_MAX` (32) bookings, so the
/// bookings after the checkpoint span many chunk splits; rolling the undo
/// log back must restore the exact pre-checkpoint schedule through the
/// resulting chunk merges.
#[test]
fn deep_rollback_across_chunked_timelines() {
    use ftbar::model::{Alg, Arch, CommTable, ExecTable, Time};

    // A 600-op chain on 2 processors over one bus link, Npf = 0: placing
    // ops on alternating processors forces ~599 comm bookings onto the
    // single link lane — well past CHUNK_MAX.
    const N: usize = 600;
    let mut ab = Alg::builder("chain");
    let ops: Vec<_> = (0..N).map(|i| ab.comp(format!("c{i}"))).collect();
    for w in ops.windows(2) {
        ab.dep(w[0], w[1]);
    }
    let alg = ab.build().expect("chain builds");
    let mut arb = Arch::builder("bus2");
    let p0 = arb.proc("P0");
    let p1 = arb.proc("P1");
    arb.link("BUS", &[p0, p1]);
    let arch = arb.build().expect("bus builds");
    let exec = ExecTable::uniform(N, 2, Time::from_units(1.0));
    let comm = CommTable::uniform(N - 1, 1, Time::from_units(0.5));
    let mut pb = Problem::builder(alg, arch, exec, comm);
    pb.npf(0);
    let problem = pb.build().expect("problem builds");

    let mut b = ScheduleBuilder::new(&problem);
    let procs: Vec<_> = problem.arch().procs().collect();
    // Prefix: place the first 100 ops, alternating processors.
    for (i, &op) in ops.iter().take(100).enumerate() {
        b.place(op, procs[i % 2]).expect("places");
    }
    let mark = b.checkpoint();
    let before = b.finish_snapshot();
    let version_before = b.mutation_count();

    // Deep suffix: the remaining 500 ops (and their comms) split chunk
    // after chunk on the bus lane.
    for (i, &op) in ops.iter().enumerate().skip(100) {
        b.place(op, procs[i % 2]).expect("places");
    }
    assert!(
        before.comm_count() < 100 && b.finish_snapshot().comm_count() > 256,
        "the suffix must cross CHUNK_MAX on the link lane"
    );

    b.rollback(mark);
    let after = b.finish_snapshot();
    assert_eq!(
        bytes(&before),
        bytes(&after),
        "deep rollback must restore the exact pre-checkpoint schedule"
    );
    assert!(
        b.mutation_count() > version_before,
        "rollback never rewinds versions"
    );

    // The restored builder keeps working: replaying the suffix yields the
    // same schedule as the uninterrupted run.
    for (i, &op) in ops.iter().enumerate().skip(100) {
        b.place(op, procs[i % 2]).expect("places after rollback");
    }
    let replayed = b.finish_snapshot();
    let mut reference = ScheduleBuilder::new(&problem);
    for (i, &op) in ops.iter().enumerate() {
        reference.place(op, procs[i % 2]).expect("places");
    }
    assert_eq!(bytes(&replayed), bytes(&reference.finish_snapshot()));
}
