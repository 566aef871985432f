//! Micro-benchmarks of the substrate components: timelines, graph
//! algorithms, the spec front end, schedule JSON and the daemon's
//! canonical keys.

use criterion::{criterion_group, criterion_main, Criterion};
use ftbar_core::{ftbar, Timeline};
use ftbar_model::{paper_example, spec, Arch, Problem, Time};
use std::sync::Arc;

use ftbar_service::cache::{canonical_key, CacheKey, ResponseCache};
use ftbar_service::proto::ScheduleRequest;
use ftbar_service::SchedulerKind;
use ftbar_workload::{arch, layered, timing, LayeredConfig, TimingConfig};

fn bench_timeline(c: &mut Criterion) {
    c.bench_function("timeline/insert_1000_with_gaps", |b| {
        b.iter(|| {
            let mut tl: Timeline<u32> = Timeline::new();
            for i in 0..1000u32 {
                // Alternate between appends and gap-fills.
                let ready = Time::from_ticks(u64::from((i % 37) * 500));
                tl.insert_earliest(ready, Time::from_ticks(250), i);
            }
            tl
        });
    });
    let mut tl: Timeline<u32> = Timeline::new();
    for i in 0..1000u32 {
        tl.insert_earliest(
            Time::from_ticks(u64::from(i % 53) * 100),
            Time::from_ticks(80),
            i,
        );
    }
    c.bench_function("timeline/probe_on_1000", |b| {
        b.iter(|| tl.probe(Time::from_ticks(12_345), Time::from_ticks(400)));
    });
    // The duplication pattern: a trial books a few slots deep inside a
    // ~2,000-slot lane, then rollback removes them newest first, leaving
    // the lane as it was.
    let mut lane: Timeline<u32> = Timeline::new();
    for i in 0..2000u32 {
        lane.insert_at(
            Time::from_ticks(u64::from(i) * 100),
            Time::from_ticks(60),
            i,
        )
        .unwrap();
    }
    let mut booked = Vec::with_capacity(16);
    c.bench_function("timeline/interior_churn_2000", |b| {
        b.iter(|| {
            for k in 0..16u32 {
                let ready = Time::from_ticks(u64::from(k * 9_973 % 2000) * 100);
                let slot = lane.insert_earliest(ready, Time::from_ticks(30), 2000 + k);
                booked.push((slot, 2000 + k));
            }
            while let Some((slot, p)) = booked.pop() {
                assert!(lane.remove_at(slot, &p));
            }
            lane.len()
        });
    });
}

fn bench_graph(c: &mut Criterion) {
    let alg = layered(&LayeredConfig {
        n_ops: 200,
        seed: 5,
        ..Default::default()
    });
    c.bench_function("graph/topo_order_200", |b| {
        b.iter(|| alg.topo_order().len());
    });
    c.bench_function("graph/generate_layered_200", |b| {
        b.iter(|| {
            layered(&LayeredConfig {
                n_ops: 200,
                seed: 5,
                ..Default::default()
            })
        });
    });
}

fn bench_spec(c: &mut Criterion) {
    let text = spec::print_problem(&paper_example());
    c.bench_function("spec/parse_paper_example", |b| {
        b.iter(|| spec::parse_problem(&text).expect("parses"));
    });
    let p = paper_example();
    c.bench_function("spec/print_paper_example", |b| {
        b.iter(|| spec::print_problem(&p));
    });
    // Generated specs, printed once outside the timed loops: a daemon-sized
    // ring (~100 KB) and a CLI-sized fully connected machine (~3 MB).
    let small = spec::print_problem(&generated(arch::fully_connected(4), 45, 5.0, 2));
    c.bench_function("spec/parse_gen_full4_45", |b| {
        b.iter(|| spec::parse_problem(&small).expect("parses"));
    });
    let ring = spec::print_problem(&generated(arch::ring(6), 155, 5.0, 3));
    c.bench_function("spec/parse_gen_ring6_155", |b| {
        b.iter(|| spec::parse_problem(&ring).expect("parses"));
    });
    let full = spec::print_problem(&generated(arch::fully_connected(6), 2000, 5.0, 1));
    c.bench_function("spec/parse_gen_full6_2000", |b| {
        b.iter(|| spec::parse_problem(&full).expect("parses"));
    });
}

fn bench_json(c: &mut Criterion) {
    // The compact schedule JSON of a daemon `include_schedule` response
    // and of a CLI-sized run.
    for (name, machine, n_ops) in [
        (
            "json/schedule_compact_full4_45",
            arch::fully_connected(4),
            45,
        ),
        (
            "json/schedule_compact_full6_2000",
            arch::fully_connected(6),
            2000,
        ),
    ] {
        let schedule = ftbar::schedule(&generated(machine, n_ops, 5.0, 1)).expect("schedules");
        c.bench_function(name, |b| {
            b.iter(|| serde_json::to_string(&schedule).expect("schedules serialize"));
        });
    }
}

fn bench_service(c: &mut Criterion) {
    let p = generated(arch::ring(6), 155, 5.0, 3);
    c.bench_function("service/canonical_key_ring6_155", |b| {
        b.iter(|| canonical_key(&p, SchedulerKind::Ftbar, "adaptive", false));
    });
    // Inserts into a cache at the daemon's default 8 MiB budget, so each
    // one evicts. The keys are this problem's raw and canonical keys,
    // made distinct by a suffix, as the server holds them; the cycle is
    // longer than the cache holds, so every insert is a new entry.
    let request = ScheduleRequest {
        id: None,
        spec: spec::print_problem(&p),
        scheduler: SchedulerKind::Ftbar,
        npf: None,
        strategy: None,
        timeout_ms: None,
        include_schedule: false,
    };
    let (raw, canonical) = (
        request.raw_key(),
        canonical_key(&p, SchedulerKind::Ftbar, "adaptive", false),
    );
    let keys: Vec<(CacheKey, CacheKey)> = (0..64)
        .map(|i| {
            (
                format!("{raw}|{i}").into(),
                format!("{canonical}|{i}").into(),
            )
        })
        .collect();
    let body: Arc<str> = Arc::from("x".repeat(600).as_str());
    let mut cache = ResponseCache::new(8 * 1024 * 1024);
    for (raw, canonical) in &keys {
        cache.insert(raw, canonical, &body);
    }
    let mut next = keys.iter().cycle();
    c.bench_function("service/cache_insert_at_budget_ring6_155", |b| {
        b.iter(|| {
            let (raw, canonical) = next.next().expect("cycle");
            cache.insert(raw, canonical, &body);
        });
    });
}

/// The problem `ftbar gen --n N --ccr CCR --npf 1 --seed S` builds on
/// `machine`.
fn generated(machine: Arch, n_ops: usize, ccr: f64, seed: u64) -> Problem {
    let alg = layered(&LayeredConfig {
        n_ops,
        seed,
        ..Default::default()
    });
    let config = TimingConfig {
        ccr,
        npf: 1,
        seed,
        ..Default::default()
    };
    timing(alg, machine, &config).expect("generated problems are valid")
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_timeline, bench_graph, bench_spec, bench_json, bench_service
}
criterion_main!(benches);
