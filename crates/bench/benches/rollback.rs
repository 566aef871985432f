//! Transactional-attempt cost: undo-log checkpoints vs. the old
//! clone-the-whole-builder path.
//!
//! Both schedulers undo speculative bookings constantly — HBP per ordered
//! processor pair, `Minimize_start_time` per rejected duplication trial
//! (its own candidate placements are only evaluated, never booked; see
//! `DESIGN.md` §4). Until this workspace grew the undo log, every attempt
//! deep-cloned the entire [`ftbar_core::ScheduleBuilder`] (timelines,
//! replicas, comms). This bench isolates the two transaction mechanisms on
//! identical mid-build states over layered workloads: each iteration
//! books one speculative placement of the next operation and undoes it,
//! either by dropping a clone or by rolling back to a checkpoint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftbar_bench::experiment::{problem_for, PointConfig};
use ftbar_model::{OpId, Problem, ProcId};

/// Builds a mid-schedule state: every operation except the last is placed
/// on its first two allowed processors, in a dependency-respecting order.
/// Returns the builder plus the pending ⟨operation, processor⟩ attempt.
fn mid_build(problem: &Problem) -> (ftbar_core::ScheduleBuilder<'_>, OpId, ProcId) {
    let alg = problem.alg();
    let mut builder = ftbar_core::ScheduleBuilder::new(problem);
    let mut placed = vec![false; alg.op_count()];
    let mut last: Option<(OpId, ProcId)> = None;
    loop {
        let Some(op) = alg
            .ops()
            .find(|&o| !placed[o.index()] && alg.sched_preds(o).all(|(_, p)| placed[p.index()]))
        else {
            break;
        };
        placed[op.index()] = true;
        let procs: Vec<ProcId> = problem.exec().allowed_procs(op).take(2).collect();
        if alg.ops().all(|o| placed[o.index()]) {
            // Keep the final operation as the speculative attempt.
            last = Some((op, procs[0]));
            break;
        }
        for p in procs {
            builder.place(op, p).expect("allowed placement");
        }
    }
    let (op, proc) = last.expect("at least one operation");
    (builder, op, proc)
}

fn bench_rollback(c: &mut Criterion) {
    let mut group = c.benchmark_group("rollback");
    group.sample_size(20);
    for n in [30usize, 60] {
        let config = PointConfig {
            n_ops: n,
            ccr: 2.0,
            graphs: 1,
            seed_base: 42_000 + n as u64,
            ..Default::default()
        };
        let problem = problem_for(&config, 0);
        let (mut builder, op, proc) = mid_build(&problem);

        group.bench_with_input(BenchmarkId::new("clone", n), &(), |b, ()| {
            b.iter(|| {
                let mut scratch = builder.clone();
                scratch.place(op, proc).expect("allowed placement");
                criterion::black_box(scratch.replica_on(op, proc))
            });
        });
        group.bench_with_input(BenchmarkId::new("undo-log", n), &(), |b, ()| {
            b.iter(|| {
                let mark = builder.checkpoint();
                builder.place(op, proc).expect("allowed placement");
                let r = criterion::black_box(builder.replica_on(op, proc));
                builder.rollback(mark);
                r
            });
        });
    }
    group.finish();
}

/// End-to-end effect on the schedulers that used to pay the clones.
fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("rollback_end_to_end");
    group.sample_size(10);
    let config = PointConfig {
        n_ops: 60,
        ccr: 2.0,
        graphs: 1,
        seed_base: 43_000,
        ..Default::default()
    };
    let problem = problem_for(&config, 0);
    group.bench_with_input(BenchmarkId::new("FTBAR", 60), &problem, |b, p| {
        b.iter(|| ftbar_core::ftbar::schedule(p).expect("schedules"));
    });
    group.bench_with_input(BenchmarkId::new("HBP", 60), &problem, |b, p| {
        b.iter(|| ftbar_hbp::schedule(p).expect("schedules"));
    });
    group.finish();
}

criterion_group!(benches, bench_rollback, bench_end_to_end);
criterion_main!(benches);
