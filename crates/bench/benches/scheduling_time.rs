//! Scheduling-time comparison (the paper's §6.2 complexity remark: "The
//! time complexity of FTBAR is less than the time complexity of HBP").
//!
//! One Criterion group per graph size; `ftbar` vs `hbp` on identical
//! problems (the shared `ftbar_workload::scheduling_point` presets, so the
//! Criterion rows and the `perf_gate` medians measure the same instances).
//! The `FTBAR-incremental` / `FTBAR-naive` and `HBP-exhaustive` rows pin
//! the incremental pressure engine's speedup against the retained
//! reference sweeps (the paper's complexity remark applies to the
//! unoptimized algorithms, i.e. the naive/exhaustive rows); the plain
//! `FTBAR` row is the adaptive default users get. Sizes extend to
//! N = 1000, where the naive references pay their quadratic sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftbar_core::{FtbarConfig, SweepStrategy};
use ftbar_hbp::{HbpConfig, PairSearch};
use ftbar_workload::scheduling_point;

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling_time");
    group.sample_size(10);
    for n in [20usize, 50, 80, 200, 500, 1000] {
        let problem = scheduling_point(n);
        group.bench_with_input(BenchmarkId::new("FTBAR", n), &problem, |b, p| {
            b.iter(|| ftbar_core::ftbar::schedule(p).expect("schedules"));
        });
        group.bench_with_input(
            BenchmarkId::new("FTBAR-incremental", n),
            &problem,
            |b, p| {
                let cfg = FtbarConfig {
                    sweep: SweepStrategy::Incremental,
                    ..FtbarConfig::default()
                };
                b.iter(|| ftbar_core::ftbar::schedule_with(p, &cfg).expect("schedules"));
            },
        );
        group.bench_with_input(BenchmarkId::new("FTBAR-naive", n), &problem, |b, p| {
            let cfg = FtbarConfig {
                sweep: SweepStrategy::Naive,
                ..FtbarConfig::default()
            };
            b.iter(|| ftbar_core::ftbar::schedule_with(p, &cfg).expect("schedules"));
        });
        group.bench_with_input(BenchmarkId::new("HBP", n), &problem, |b, p| {
            b.iter(|| ftbar_hbp::schedule(p).expect("schedules"));
        });
        group.bench_with_input(BenchmarkId::new("HBP-exhaustive", n), &problem, |b, p| {
            let cfg = HbpConfig {
                pair_search: PairSearch::Exhaustive,
            };
            b.iter(|| ftbar_hbp::schedule_with(p, &cfg).expect("schedules"));
        });
        group.bench_with_input(BenchmarkId::new("non-FT", n), &problem, |b, p| {
            b.iter(|| ftbar_core::basic::schedule_non_ft(p).expect("schedules"));
        });
    }
    group.finish();
}

/// The paper attributes HBP's higher complexity to its exhaustive
/// processor-pair search — an O(P²) factor per task. Sweep P at fixed N.
fn bench_proc_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling_time_vs_procs");
    group.sample_size(10);
    for p_count in [3usize, 6, 9] {
        let alg = ftbar_workload::layered(&ftbar_workload::LayeredConfig {
            n_ops: 40,
            seed: 41_000 + p_count as u64,
            ..Default::default()
        });
        let problem = ftbar_workload::timing(
            alg,
            ftbar_workload::arch::fully_connected(p_count),
            &ftbar_workload::TimingConfig {
                ccr: 2.0,
                npf: 1,
                seed: 41_000 + p_count as u64,
                ..Default::default()
            },
        )
        .expect("valid problem");
        group.bench_with_input(BenchmarkId::new("FTBAR", p_count), &problem, |b, p| {
            b.iter(|| ftbar_core::ftbar::schedule(p).expect("schedules"));
        });
        group.bench_with_input(BenchmarkId::new("HBP", p_count), &problem, |b, p| {
            b.iter(|| ftbar_hbp::schedule(p).expect("schedules"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_proc_scaling);
criterion_main!(benches);
