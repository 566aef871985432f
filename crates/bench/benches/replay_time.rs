//! Replay/analysis throughput: how fast the static timing analysis of
//! paper §2 (point 2) runs — computing completion dates with and without
//! failures, the exhaustive tolerance check, and full validation of a
//! large schedule.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftbar_bench::experiment::{problem_for, PointConfig};
use ftbar_core::{analysis, ftbar, replay, validate, FailureScenario};
use ftbar_model::{ProcId, Time};
use ftbar_workload::{arch, layered, timing, LayeredConfig, TimingConfig};

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay");
    group.sample_size(20);
    for n in [20usize, 80] {
        let config = PointConfig {
            n_ops: n,
            ccr: 5.0,
            graphs: 1,
            seed_base: 50_000 + n as u64,
            ..Default::default()
        };
        let problem = problem_for(&config, 0);
        let schedule = ftbar::schedule(&problem).expect("schedules");
        group.bench_with_input(
            BenchmarkId::new("nominal", n),
            &(&problem, &schedule),
            |b, (p, s)| {
                b.iter(|| replay(p, s, &FailureScenario::none(4)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("one_failure", n),
            &(&problem, &schedule),
            |b, (p, s)| {
                b.iter(|| replay(p, s, &FailureScenario::single(4, ProcId(0), Time::ZERO)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exhaustive_analysis", n),
            &(&problem, &schedule),
            |b, (p, s)| {
                b.iter(|| analysis::analyze(p, s));
            },
        );
    }
    // `ftbar gen --n 2000 --procs 6 --ccr 5 --npf N --seed 1`: every
    // validator rule on 10k replicas — seven replays at Npf 1, 22 at Npf 2.
    group.sample_size(10);
    for npf in [1, 2] {
        let alg = layered(&LayeredConfig {
            n_ops: 2000,
            seed: 1,
            ..Default::default()
        });
        let config = TimingConfig {
            ccr: 5.0,
            npf,
            seed: 1,
            ..Default::default()
        };
        let problem = timing(alg, arch::fully_connected(6), &config).expect("valid problem");
        let schedule = ftbar::schedule(&problem).expect("schedules");
        let name = match npf {
            1 => "validate_gen_full6_2000".to_owned(),
            _ => format!("validate_gen_full6_2000_npf{npf}"),
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(&problem, &schedule),
            |b, (p, s)| {
                b.iter(|| assert!(validate::validate(p, s).is_empty()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
