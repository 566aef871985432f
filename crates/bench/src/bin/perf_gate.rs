//! Machine-readable scheduling-time gate: emits `BENCH_scheduling.json`
//! (schema 7) with the median nanoseconds of every `scheduling_time`
//! point (the FTBAR/HBP main loops at N up to 10,000; the expensive
//! naive/HBP references stop at N = 1000), every `batch_throughput`
//! point (the service layer at several `--jobs` worker counts), every
//! `scenarios_per_sec` point (contingency campaigns — the DES replay as
//! a tracked hot path), every `service_throughput` point (the scheduling
//! daemon over a Unix socket, cold scheduling vs memoized cache hits),
//! every `reschedule` point (single-edit delta repair vs a from-scratch
//! re-run at the large-N scaling points), a `sweep_stats` section
//! (per-size probe-cache and cluster-granularity counters), an
//! `allocations` section (steady-state allocation counts through a
//! counting global allocator), and a `persistence`
//! section (snapshot encode/write and read/decode latency at several
//! synthetic cache sizes, plus warm-restart request throughput against
//! a restored cache) so the perf trajectory is tracked in-repo, not
//! anecdotally. Every FTBAR, clustered and HBP schedule it times is also
//! validated once, outside the timed region (the non-FT baseline fails
//! masking by design and is not); an invalid schedule fails the gate.
//!
//! ```sh
//! cargo run --release -p ftbar-bench --bin perf_gate            # full run
//! cargo run --release -p ftbar-bench --bin perf_gate -- --test  # CI smoke
//! cargo run --release -p ftbar-bench --bin perf_gate -- --stats # + cache stats
//! cargo run --release -p ftbar-bench --bin perf_gate -- --test --check BENCH_scheduling.json
//! ```
//!
//! `--test` runs every point once (no warm-up, one sample) so CI can
//! assert the gate still executes without paying for timing; the JSON is
//! still written (values are then indicative only). `--out PATH` overrides
//! the output path. `--check BASELINE` exits non-zero if the fresh output
//! is missing the schema, a section, or any `(bench, variant, n_ops)`
//! point the committed baseline has — the CI perf-regression smoke. When
//! neither side is a smoke run, `--check` additionally enforces a
//! per-point regression tolerance: a fresh median more than 1.5× its
//! baseline (override with `--tolerance F`) fails the gate;
//! `--check-warn` downgrades those timing failures to warnings (the
//! escape hatch for known-noisy hosts — missing points still fail hard).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ftbar_core::edit::ProblemEdit;
use ftbar_core::engine::EnginePools;
use ftbar_core::reschedule::ScheduleArtifacts;
use ftbar_core::{ftbar, validate, FtbarConfig, Schedule, SweepStrategy};
use ftbar_hbp::{HbpConfig, PairSearch};
use ftbar_model::Problem;
use ftbar_service::client::{request, Client, RequestOpts};
use ftbar_service::persist::{read_snapshot, write_snapshot, SnapshotData};
use ftbar_service::server::{serve_with_state, Listener, ServerConfig, ServerState};
use ftbar_service::{run_batch, run_campaign, BatchConfig, JobInput, JobSpec, SchedulerKind};
use ftbar_sim::scenario::ScenarioConfig;
use ftbar_workload::{campaign_problem, scheduling_point};

/// Counting allocator: every allocation in the process is tallied so the
/// gate can assert the hot paths' steady-state allocation behaviour
/// (alloc *count* per scheduling step must stay independent of N).
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let live =
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let delta = new_size as i64 - layout.size() as i64;
        let live = if delta >= 0 {
            LIVE_BYTES.fetch_add(delta as u64, Ordering::Relaxed) + delta as u64
        } else {
            LIVE_BYTES.fetch_sub((-delta) as u64, Ordering::Relaxed) - (-delta) as u64
        };
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation counters over one closure run (single-threaded sections
/// only — the batch section is excluded from allocation accounting).
fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    f();
    let count = ALLOC_COUNT.load(Ordering::Relaxed) - before;
    let peak_over = PEAK_BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(live_before);
    (count, peak_over)
}

/// The scheduling-time problem sizes. 20/50/80 are the original small-N
/// points; 200/500/1000 are the large-N scaling points this gate exists
/// to keep honest; 2000/5000/10000 are the clustering scale targets (the
/// reference variants below [`EXPENSIVE_MAX_N`] would dominate the gate's
/// wall clock there and are skipped).
const SIZES: [usize; 9] = [20, 50, 80, 200, 500, 1000, 2000, 5000, 10_000];

/// Reference variants with super-linear sweeps (`FTBAR-naive`, both HBP
/// pair searches) only run up to this size.
const EXPENSIVE_MAX_N: usize = 1000;

/// One measured point.
struct Point {
    bench: &'static str,
    variant: &'static str,
    n_ops: usize,
    median_ns: u128,
}

/// One allocation-section row.
struct AllocPoint {
    variant: &'static str,
    n_ops: usize,
    alloc_count: u64,
    peak_bytes: u64,
}

/// One `sweep_stats`-section row: the probe-cache counters of an
/// incremental run plus the cluster count and expansion counters of a
/// clustered run, per problem size.
struct SweepStatsPoint {
    n_ops: usize,
    probes: u64,
    skipped_ops: u64,
    clusters: u64,
    expansion_probes: u64,
}

fn median_ns(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn measure(f: &dyn Fn(), smoke: bool) -> u128 {
    if smoke {
        let t = Instant::now();
        f();
        return t.elapsed().as_nanos();
    }
    for _ in 0..3 {
        f(); // warm-up
    }
    // Sample count adapts to the point's speed: sub-millisecond points get
    // enough repetitions that scheduler jitter does not move the median,
    // without inflating the large-N rows' wall clock.
    let probe = {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos()
    };
    let n = if probe < 1_000_000 {
        25
    } else if probe < 10_000_000 {
        11
    } else {
        9
    };
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos());
    }
    median_ns(&mut samples)
}

/// Picks a timing tweak with as deep an invalidation frontier as the
/// instance offers: candidate operations are probed in reverse
/// topological order (sinks first — their bottom-level ripple stays
/// small) with *real* repairs, reading the reported frontier, and the
/// first candidate keeping ≥ 90% of the placement steps wins. Fully
/// deterministic (the probe order is a pure function of the preset), and
/// cheap — a bad candidate costs one repair.
fn pick_deep_edit(problem: &Problem, artifacts: &ScheduleArtifacts) -> (ProblemEdit, usize, usize) {
    let steps_total = artifacts.step_count();
    let target = steps_total * 9 / 10;
    let mut best_edit: Option<ProblemEdit> = None;
    let mut best_frontier = 0usize;
    for name in ftbar_workload::reverse_topo_ops(problem.alg())
        .iter()
        .take(128)
    {
        let op = problem.alg().op_by_name(name).expect("preset op");
        let Some(proc) = problem.exec().allowed_procs(op).next() else {
            continue;
        };
        let units = problem
            .exec()
            .get(op, proc)
            .expect("allowed pair has a time")
            .as_units();
        let edit = ProblemEdit::TweakExec {
            op: name.clone(),
            proc: problem.arch().proc(proc).name().to_owned(),
            units: units * 1.25 + 0.125,
        };
        let out = ftbar_core::reschedule(artifacts, &edit).expect("probe repairs");
        let frontier = out.report.frontier;
        if best_edit.is_none() || frontier > best_frontier {
            best_edit = Some(edit);
            best_frontier = frontier;
        }
        if best_frontier >= target {
            break;
        }
    }
    (
        best_edit.expect("every preset has a probeable op"),
        best_frontier,
        steps_total,
    )
}

fn ftbar_with(problem: &Problem, sweep: SweepStrategy) -> Schedule {
    let config = FtbarConfig {
        sweep,
        ..FtbarConfig::default()
    };
    ftbar::schedule_with(problem, &config)
        .expect("schedules")
        .schedule
}

fn hbp_with(problem: &Problem, pair_search: PairSearch) -> Schedule {
    ftbar_hbp::schedule_with(problem, &HbpConfig { pair_search }).expect("schedules")
}

/// Extracts the `(bench, variant, n_ops)` key and `median_ns` of every
/// point line of a `BENCH_scheduling.json` (the file is hand-rolled, one
/// point per line).
fn point_keys(json: &str) -> Vec<((String, String, usize), u128)> {
    let field = |line: &str, name: &str| -> Option<String> {
        let tag = format!("\"{name}\": ");
        let at = line.find(&tag)? + tag.len();
        let rest = &line[at..];
        if let Some(stripped) = rest.strip_prefix('"') {
            Some(stripped[..stripped.find('"')?].to_string())
        } else {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            (end > 0).then(|| rest[..end].to_string())
        }
    };
    json.lines()
        .filter_map(|line| {
            Some((
                (
                    field(line, "bench")?,
                    field(line, "variant")?,
                    field(line, "n_ops")?.parse().ok()?,
                ),
                field(line, "median_ns")?.parse().ok()?,
            ))
        })
        .collect()
}

/// Section arrays present in `json` that hold no rows — e.g. a baseline
/// committed from a filtered or partial run. `--check` warns on these
/// instead of failing: an empty committed section gates nothing, and
/// silently passing it would read as coverage that does not exist.
fn empty_sections(json: &str) -> Vec<&'static str> {
    [
        "points",
        "scenarios",
        "service_throughput",
        "reschedule",
        "sweep_stats",
        "allocations",
        "persistence",
    ]
    .into_iter()
    .filter(|name| {
        json.find(&format!("\"{name}\": [")).is_some_and(|i| {
            json[i..]
                .split_once('[')
                .is_some_and(|(_, rest)| rest.trim_start().starts_with(']'))
        })
    })
    .collect()
}

/// The perf-regression smoke: every point key of the committed baseline
/// must still exist in the fresh output, and the fresh output must carry
/// the schema header and every section. With `tolerance = Some(k)` (both
/// runs timed, not smoke) a fresh median above `k ×` its baseline is a
/// timing regression. Returns `(hard_failures, timing_regressions)` —
/// the caller decides whether the latter fail or warn (`--check-warn`).
fn check_against_baseline(
    fresh: &str,
    baseline: &str,
    tolerance: Option<f64>,
) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut regressions = Vec::new();
    for required in [
        "\"schema\": 7",
        "\"points\": [",
        "\"scenarios\": [",
        "\"service_throughput\": [",
        "\"reschedule\": [",
        "\"sweep_stats\": [",
        "\"allocations\": [",
        "\"persistence\": [",
    ] {
        if !fresh.contains(required) {
            failures.push(format!("fresh output is missing `{required}`"));
        }
    }
    let fresh_points = point_keys(fresh);
    for (key, base_ns) in point_keys(baseline) {
        let Some((_, fresh_ns)) = fresh_points.iter().find(|(k, _)| *k == key) else {
            failures.push(format!(
                "point ({}, {}, {}) disappeared from the gate",
                key.0, key.1, key.2
            ));
            continue;
        };
        if let Some(tol) = tolerance {
            if *fresh_ns as f64 > base_ns as f64 * tol {
                regressions.push(format!(
                    "point ({}, {}, {}) regressed {:.2}x over baseline (tolerance {tol}x): {} ns -> {} ns",
                    key.0,
                    key.1,
                    key.2,
                    *fresh_ns as f64 / base_ns.max(1) as f64,
                    base_ns,
                    fresh_ns
                ));
            }
        }
    }
    (failures, regressions)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    let stats = args.iter().any(|a| a == "--stats");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_scheduling.json".to_string());
    // Snapshot the baseline BEFORE anything is written: when `--out` is
    // left at its default, the output path IS the committed baseline, and
    // reading it afterwards would vacuously compare the fresh JSON against
    // itself.
    let check = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1).cloned())
        .map(|path| {
            let baseline = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
            (path, baseline)
        });
    let check_warn = args.iter().any(|a| a == "--check-warn");
    let tolerance: f64 = args
        .iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|e| panic!("--tolerance {v}: {e}")))
        .unwrap_or(1.5);

    let mut points: Vec<Point> = Vec::new();
    let mut allocs: Vec<AllocPoint> = Vec::new();
    let mut sweep_points: Vec<SweepStatsPoint> = Vec::new();
    let mut invalid: Vec<String> = Vec::new();
    for n in SIZES {
        let problem = scheduling_point(n);
        // Each run returns the schedule it built, for validation outside
        // the timed region; `None` for the non-FT baseline, which fails
        // replication and masking by design.
        #[allow(clippy::type_complexity)]
        let mut runs: Vec<(&'static str, Box<dyn Fn() -> Option<Schedule>>)> = vec![
            // The default configuration (adaptive: naive below the
            // cutoff, incremental above) — what `ftbar::schedule` users
            // actually get, and the row the small-N regression gate
            // watches.
            (
                "FTBAR",
                Box::new(|| Some(ftbar_with(&problem, SweepStrategy::Adaptive))),
            ),
            (
                "FTBAR-incremental",
                Box::new(|| Some(ftbar_with(&problem, SweepStrategy::Incremental))),
            ),
            (
                "FTBAR-clustered",
                Box::new(|| Some(ftbar_with(&problem, SweepStrategy::Clustered))),
            ),
            (
                "non-FT",
                Box::new(|| {
                    ftbar_core::basic::schedule_non_ft(&problem).expect("schedules");
                    None
                }),
            ),
        ];
        if n <= EXPENSIVE_MAX_N {
            runs.push((
                "FTBAR-naive",
                Box::new(|| Some(ftbar_with(&problem, SweepStrategy::Naive))),
            ));
            runs.push((
                "HBP",
                Box::new(|| Some(hbp_with(&problem, PairSearch::Pruned))),
            ));
            runs.push((
                "HBP-exhaustive",
                Box::new(|| Some(hbp_with(&problem, PairSearch::Exhaustive))),
            ));
        }
        // Schedules already validated at this size: the exact FTBAR
        // strategies build bit-identical schedules, checked once.
        let mut validated: Vec<Schedule> = Vec::new();
        for (variant, f) in &runs {
            let median = measure(
                &|| {
                    f();
                },
                smoke,
            );
            println!("scheduling_time/{variant}/{n}: {median} ns");
            if let Some(schedule) = f().filter(|s| !validated.contains(s)) {
                let violations = validate::validate(&problem, &schedule);
                if let Some(first) = violations.first() {
                    let msg = format!(
                        "{variant} at n={n}: {} violations, first: {first}",
                        violations.len()
                    );
                    eprintln!("validate: {msg}");
                    invalid.push(msg);
                }
                validated.push(schedule);
            }
            points.push(Point {
                bench: "scheduling_time",
                variant,
                n_ops: n,
                median_ns: median,
            });
        }
        // SweepStats diagnostics (committed as the `sweep_stats` section):
        // one untimed incremental run surfaces the probe-cache counters,
        // one clustered run the cluster count and the pinned expansion's
        // probes.
        let s = ftbar::sweep_stats_for(&problem);
        let clustered = ftbar::schedule_with(
            &problem,
            &FtbarConfig {
                sweep: SweepStrategy::Clustered,
                ..FtbarConfig::default()
            },
        )
        .expect("schedules");
        let cs = clustered.sweep_stats.expect("clustered records stats");
        if stats {
            println!(
                "  cache n={n}: probes {} version-hits {} replay-hits {} recomputes {} skipped-ops {}",
                s.probes, s.version_hits, s.replay_hits, s.recomputes, s.skipped_ops
            );
            println!(
                "  clustered n={n}: clusters {} expansion-probes {}",
                cs.clusters, cs.probes
            );
        }
        sweep_points.push(SweepStatsPoint {
            n_ops: n,
            probes: s.probes,
            skipped_ops: s.skipped_ops,
            clusters: cs.clusters,
            expansion_probes: cs.probes,
        });

        // Steady-state allocation profile of the incremental engine: one
        // warm run grows the pools, the measured rerun reuses them. The
        // count divided by N (one main-loop step per operation) must stay
        // O(1) as N grows — per-probe/per-plan buffer churn would show up
        // as a superlinear count here.
        let config = FtbarConfig {
            sweep: SweepStrategy::Incremental,
            ..FtbarConfig::default()
        };
        let (_, pools) = ftbar::schedule_with_pools(&problem, &config, EnginePools::default())
            .expect("warm run");
        let mut reused = Some(pools);
        let (alloc_count, peak_bytes) = count_allocs(|| {
            let (_, p) =
                ftbar::schedule_with_pools(&problem, &config, reused.take().expect("pools"))
                    .expect("steady-state run");
            reused = Some(p);
        });
        println!(
            "allocations/FTBAR-steady/{n}: {alloc_count} allocs ({:.2}/step), peak {peak_bytes} B",
            alloc_count as f64 / n as f64
        );
        allocs.push(AllocPoint {
            variant: "FTBAR-steady",
            n_ops: n,
            alloc_count,
            peak_bytes,
        });
    }

    // Batch throughput: the service layer scheduling many independent
    // problems, at several worker counts. The workload (12 mixed FTBAR/HBP
    // jobs) is identical for every `jobs` value, so the ratio
    // jobs-1 / jobs-N is the driver's thread-scaling factor on this
    // machine. NOTE: worker threads only buy wall-clock on multi-core
    // hosts; on a single-core container the honest expectation is ~1×,
    // and the point of the gate is to record whatever this machine truly
    // delivers (the committed numbers say which case they are).
    let batch_n = 40usize;
    let jobs: Vec<JobSpec> = (0..12)
        .map(|g| JobSpec {
            name: format!("job-{g}"),
            input: JobInput::Problem(Box::new(ftbar_workload::problem_on(
                ftbar_workload::Topology::Full,
                batch_n,
                5.0,
                50_000 + g as u64,
            ))),
            scheduler: if g % 2 == 0 {
                SchedulerKind::Ftbar
            } else {
                SchedulerKind::Hbp
            },
            npf: None,
        })
        .collect();
    let mut batch_medians = Vec::new();
    for (workers, variant) in [(1usize, "jobs-1"), (2, "jobs-2"), (4, "jobs-4")] {
        let f = || {
            let out = run_batch(
                &jobs,
                &BatchConfig {
                    jobs: workers,
                    keep_schedules: false,
                    ..BatchConfig::default()
                },
            );
            assert!(out.iter().all(|o| o.result.is_ok()));
        };
        let median = measure(&f, smoke);
        println!("batch_throughput/{variant}/{batch_n}: {median} ns");
        batch_medians.push(median);
        points.push(Point {
            bench: "batch_throughput",
            variant,
            n_ops: batch_n,
            median_ns: median,
        });
    }
    println!(
        "batch speedup jobs-4 vs jobs-1: {:.2}x ({} worker threads usable on this host)",
        batch_medians[0] as f64 / batch_medians[2].max(1) as f64,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Contingency-campaign throughput: a full exhaustive-plus-sampled
    // fault sweep (processor subsets, link patterns, timing jitter) over
    // the pooled workers. The metric is scenarios replayed per second —
    // the DES replay is a first-class tracked hot path, not a test
    // helper. The campaign preset is deterministic, so the scenario count
    // per point is pinned alongside the median.
    struct ScenarioPoint {
        variant: String,
        n_ops: usize,
        median_ns: u128,
        scenarios: usize,
    }
    let mut scenario_points: Vec<ScenarioPoint> = Vec::new();
    let campaign_config = ScenarioConfig {
        beyond: 1,
        links: true,
        jitter_samples: 8,
        ..Default::default()
    };
    for topology in [
        ftbar_workload::Topology::Full,
        ftbar_workload::Topology::Ring,
    ] {
        for n in [40usize, 100] {
            let problem = campaign_problem(topology, n);
            let schedule = ftbar::schedule(&problem).expect("campaign presets schedule");
            let count = ftbar_sim::scenario::generate(&problem, &schedule, &campaign_config).len();
            for workers in [1usize, 4] {
                let f = || {
                    let report = run_campaign(&problem, &schedule, &campaign_config, workers);
                    assert!(report.certificate.pass, "campaign presets certify");
                    assert_eq!(report.scenario_count, count);
                };
                let median = measure(&f, smoke);
                let per_sec = count as f64 * 1e9 / median.max(1) as f64;
                let variant = format!("{}-jobs-{workers}", topology.name());
                println!(
                    "scenarios_per_sec/{variant}/{n}: {median} ns for {count} scenarios ({per_sec:.0}/s)"
                );
                scenario_points.push(ScenarioPoint {
                    variant,
                    n_ops: n,
                    median_ns: median,
                    scenarios: count,
                });
            }
        }
    }

    // Service throughput: the long-lived daemon serving the paper example
    // (9 ops) over a temp Unix socket. `cold` disables the cache so every
    // request schedules from scratch; `hit` warms the memoizing cache
    // first so the measured requests are pure cache hits. One pipelined
    // connection per scheduling worker amortizes the socket round-trip.
    struct ServicePoint {
        variant: String,
        median_ns: u128,
        requests: usize,
    }
    let mut service_points: Vec<ServicePoint> = Vec::new();
    let service_line = format!(
        "{{\"spec\": {}}}",
        serde_json::to_string(&ftbar_model::spec::print_problem(
            &ftbar_model::paper_example()
        ))
        .expect("spec text serializes")
    );
    for (cache_bytes, mode) in [(0usize, "cold"), (8 * 1024 * 1024, "hit")] {
        for workers in [1usize, 4] {
            let socket = std::env::temp_dir().join(format!(
                "ftbar-perf-{mode}-{workers}-{}.sock",
                std::process::id()
            ));
            let listener = Listener::Unix(socket);
            let state = ServerState::new(ServerConfig {
                workers,
                cache_bytes,
                ..ServerConfig::default()
            });
            let daemon = {
                let l = listener.clone();
                let s = std::sync::Arc::clone(&state);
                std::thread::spawn(move || serve_with_state(&l, &s))
            };
            let opts = RequestOpts::default();
            request(&listener, "{\"op\": \"status\"}", &opts).expect("daemon comes up");
            if mode == "hit" {
                let warm = request(&listener, &service_line, &opts).expect("warm-up request");
                assert!(warm.contains("\"status\": \"ok\""), "{warm}");
            }
            let requests = if smoke { 8 } else { 64 };
            let per_conn = requests / workers;
            // Persistent pipelined connections (the protocol's intended
            // usage): connection setup is paid once, outside the timed
            // region, so the metric is pure request throughput.
            let clients: Vec<std::sync::Mutex<Client>> = (0..workers)
                .map(|_| std::sync::Mutex::new(Client::connect(&listener).expect("connect")))
                .collect();
            let f = || {
                std::thread::scope(|scope| {
                    for m in &clients {
                        scope.spawn(|| {
                            let mut c = m.lock().expect("client free");
                            for _ in 0..per_conn {
                                c.queue_line(&service_line).expect("send");
                            }
                            c.flush().expect("flush pipeline");
                            for _ in 0..per_conn {
                                let r = c.read_line().expect("receive");
                                assert!(r.contains("\"status\": \"ok\""), "{r}");
                            }
                        });
                    }
                });
            };
            let median = measure(&f, smoke);
            let per_sec = requests as f64 * 1e9 / median.max(1) as f64;
            let variant = format!("{mode}-jobs-{workers}");
            println!(
                "service_throughput/{variant}/9: {median} ns for {requests} requests ({per_sec:.0}/s)"
            );
            service_points.push(ServicePoint {
                variant,
                median_ns: median,
                requests,
            });
            // Hang up before the shutdown request: the drain waits for
            // open connections, and an idle one only releases its thread
            // at the io timeout.
            drop(clients);
            request(&listener, "{\"op\": \"shutdown\"}", &opts).expect("shutdown answers");
            daemon
                .join()
                .expect("daemon thread")
                .expect("daemon drains cleanly");
        }
    }
    let service_ns = |variant: &str| {
        service_points
            .iter()
            .find(|p| p.variant == variant)
            .map(|p| p.median_ns)
            .expect("variant measured")
    };
    println!(
        "service cache speedup (jobs-1): {:.1}x cold -> hit",
        service_ns("cold-jobs-1") as f64 / service_ns("hit-jobs-1").max(1) as f64
    );

    // Incremental re-scheduling: repair a single timing tweak against the
    // retained engine state vs re-running the whole pipeline, at the
    // large-N scaling points. The edit is chosen by `pick_deep_edit` —
    // the repair cost is proportional to the replayed suffix, so the gate
    // pins the *deep-frontier* case the feature exists for (the shallow
    // case degenerates to `scratch` and is already covered by the
    // `scheduling_time` rows).
    struct ReschedulePoint {
        variant: &'static str,
        n_ops: usize,
        median_ns: u128,
        frontier: usize,
        steps_total: usize,
    }
    let mut reschedule_points: Vec<ReschedulePoint> = Vec::new();
    for n in [200usize, 500, 1000] {
        let problem = scheduling_point(n);
        let config = FtbarConfig::default();
        let (_, artifacts) =
            ftbar_core::schedule_retained(&problem, &config).expect("presets schedule");
        let (edit, frontier, steps_total) = pick_deep_edit(&problem, &artifacts);
        println!(
            "reschedule/{n}: edit `{}` keeps {frontier} of {steps_total} placement steps",
            edit.describe()
        );
        let edited = edit.apply(&problem).expect("picked edits apply");
        let mut medians = [0u128; 2];
        let repair = || {
            ftbar_core::reschedule(&artifacts, &edit).expect("repairs");
        };
        let scratch = || {
            ftbar::schedule_with(&edited, &config).expect("schedules");
        };
        for (i, (variant, f)) in [("repair", &repair as &dyn Fn()), ("scratch", &scratch)]
            .iter()
            .enumerate()
        {
            let median = measure(f, smoke);
            println!("reschedule/{variant}/{n}: {median} ns");
            medians[i] = median;
            reschedule_points.push(ReschedulePoint {
                variant,
                n_ops: n,
                median_ns: median,
                frontier,
                steps_total,
            });
        }
        println!(
            "reschedule speedup at n={n}: {:.1}x repair vs scratch",
            medians[1] as f64 / medians[0].max(1) as f64
        );
    }

    // Snapshot persistence: encode + atomic-write and read + decode
    // latency of the durable-state layer at several synthetic cache
    // sizes (~600-byte bodies, the ballpark of a rendered paper-example
    // response), plus the warm-restart daemon point: request throughput
    // against a cache restored from disk instead of computed.
    struct PersistPoint {
        variant: String,
        n_ops: usize,
        median_ns: u128,
        bytes: u64,
    }
    let mut persist_points: Vec<PersistPoint> = Vec::new();
    let body: String = "x".repeat(600);
    for entries in [64usize, 512, 4096] {
        let data = SnapshotData {
            cache_entries: (0..entries)
                .map(|i| {
                    (
                        format!("canon-key-{i:06}"),
                        std::sync::Arc::from(body.as_str()),
                    )
                })
                .collect(),
            memos: (0..entries)
                .map(|i| (format!("raw-key-{i:06}"), format!("canon-key-{i:06}")))
                .collect(),
            poisoned: Vec::new(),
            seeds: Vec::new(),
        };
        let path = std::env::temp_dir().join(format!(
            "ftbar-perf-snap-{entries}-{}.snap",
            std::process::id()
        ));
        let stats = write_snapshot(&path, &data).expect("snapshot writes");
        let write = || {
            write_snapshot(&path, &data).expect("snapshot writes");
        };
        let load = || {
            let restore = read_snapshot(&path)
                .expect("snapshot readable")
                .expect("snapshot present");
            assert_eq!(restore.data.cache_entries.len(), entries);
        };
        for (variant, f) in [("write", &write as &dyn Fn()), ("load", &load)] {
            let median = measure(f, smoke);
            println!(
                "persistence/{variant}/{entries}: {median} ns ({} bytes)",
                stats.bytes
            );
            persist_points.push(PersistPoint {
                variant: variant.to_string(),
                n_ops: entries,
                median_ns: median,
                bytes: stats.bytes,
            });
        }
        let _ = std::fs::remove_file(&path);
    }
    {
        // Warm-restart throughput: daemon A computes and snapshots the
        // paper-example response; daemon B restores it from disk and
        // serves it as pure cache hits.
        let snap =
            std::env::temp_dir().join(format!("ftbar-perf-restart-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&snap);
        let config = ServerConfig {
            workers: 1,
            cache_bytes: 8 * 1024 * 1024,
            snapshot_path: Some(snap.clone()),
            ..ServerConfig::default()
        };
        let opts = RequestOpts::default();
        for phase in ["populate", "restored-hit"] {
            let socket = std::env::temp_dir()
                .join(format!("ftbar-perf-{phase}-{}.sock", std::process::id()));
            let listener = Listener::Unix(socket);
            let state = ServerState::new(config.clone());
            let daemon = {
                let l = listener.clone();
                let s = std::sync::Arc::clone(&state);
                std::thread::spawn(move || serve_with_state(&l, &s))
            };
            request(&listener, "{\"op\": \"status\"}", &opts).expect("daemon comes up");
            let warm = request(&listener, &service_line, &opts).expect("warm-up request");
            assert!(warm.contains("\"status\": \"ok\""), "{warm}");
            if phase == "populate" {
                let written =
                    request(&listener, "{\"op\": \"snapshot\"}", &opts).expect("snapshot answers");
                assert!(written.contains("\"status\": \"ok\""), "{written}");
            } else {
                let status = request(&listener, "{\"op\": \"status\"}", &opts).expect("status");
                assert!(status.contains("\"restore\": \"restored\""), "{status}");
                let snap_bytes = std::fs::metadata(&snap).expect("snapshot present").len();
                let requests = if smoke { 8 } else { 64 };
                let client = std::sync::Mutex::new(Client::connect(&listener).expect("connect"));
                let f = || {
                    let mut c = client.lock().expect("client free");
                    for _ in 0..requests {
                        c.queue_line(&service_line).expect("send");
                    }
                    c.flush().expect("flush pipeline");
                    for _ in 0..requests {
                        let r = c.read_line().expect("receive");
                        assert!(r.contains("\"status\": \"ok\""), "{r}");
                    }
                };
                let median = measure(&f, smoke);
                let per_sec = requests as f64 * 1e9 / median.max(1) as f64;
                println!(
                    "persistence/restored-hit/9: {median} ns for {requests} requests ({per_sec:.0}/s)"
                );
                persist_points.push(PersistPoint {
                    variant: "restored-hit".to_string(),
                    n_ops: 9,
                    median_ns: median,
                    bytes: snap_bytes,
                });
            }
            request(&listener, "{\"op\": \"shutdown\"}", &opts).expect("shutdown answers");
            daemon
                .join()
                .expect("daemon thread")
                .expect("daemon drains cleanly");
        }
        let _ = std::fs::remove_file(&snap);
    }

    // Hand-rolled JSON: stable field order, no dependencies.
    let mut json = String::from("{\n  \"schema\": 7,\n  \"unit\": \"ns\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n  \"points\": [\n"));
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"bench\": \"{}\", \"variant\": \"{}\", \"n_ops\": {}, \"median_ns\": {}}}{}\n",
            p.bench,
            p.variant,
            p.n_ops,
            p.median_ns,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"scenarios\": [\n");
    for (i, s) in scenario_points.iter().enumerate() {
        let per_sec = s.scenarios as f64 * 1e9 / s.median_ns.max(1) as f64;
        json.push_str(&format!(
            "    {{\"bench\": \"scenarios_per_sec\", \"variant\": \"{}\", \"n_ops\": {}, \"median_ns\": {}, \"scenario_count\": {}, \"scenarios_per_sec\": {:.1}}}{}\n",
            s.variant,
            s.n_ops,
            s.median_ns,
            s.scenarios,
            per_sec,
            if i + 1 < scenario_points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"service_throughput\": [\n");
    for (i, s) in service_points.iter().enumerate() {
        let per_sec = s.requests as f64 * 1e9 / s.median_ns.max(1) as f64;
        json.push_str(&format!(
            "    {{\"bench\": \"service_throughput\", \"variant\": \"{}\", \"n_ops\": 9, \"median_ns\": {}, \"requests\": {}, \"req_per_sec\": {:.1}}}{}\n",
            s.variant,
            s.median_ns,
            s.requests,
            per_sec,
            if i + 1 < service_points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"reschedule\": [\n");
    for (i, r) in reschedule_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"bench\": \"reschedule\", \"variant\": \"{}\", \"n_ops\": {}, \"median_ns\": {}, \"frontier\": {}, \"steps_total\": {}}}{}\n",
            r.variant,
            r.n_ops,
            r.median_ns,
            r.frontier,
            r.steps_total,
            if i + 1 < reschedule_points.len() { "," } else { "" }
        ));
    }
    // Diagnostics rows (no `median_ns`, so the `--check` point matcher
    // ignores them): probe-cache effectiveness and cluster granularity.
    json.push_str("  ],\n  \"sweep_stats\": [\n");
    for (i, s) in sweep_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"bench\": \"sweep_stats\", \"n_ops\": {}, \"probes\": {}, \"skipped_ops\": {}, \"clusters\": {}, \"expansion_probes\": {}}}{}\n",
            s.n_ops,
            s.probes,
            s.skipped_ops,
            s.clusters,
            s.expansion_probes,
            if i + 1 < sweep_points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"allocations\": [\n");
    for (i, a) in allocs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"bench\": \"allocations\", \"variant\": \"{}\", \"n_ops\": {}, \"alloc_count\": {}, \"peak_bytes\": {}}}{}\n",
            a.variant,
            a.n_ops,
            a.alloc_count,
            a.peak_bytes,
            if i + 1 < allocs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"persistence\": [\n");
    for (i, p) in persist_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"bench\": \"persistence\", \"variant\": \"{}\", \"n_ops\": {}, \"median_ns\": {}, \"bytes\": {}}}{}\n",
            p.variant,
            p.n_ops,
            p.median_ns,
            p.bytes,
            if i + 1 < persist_points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write BENCH_scheduling.json");
    println!("wrote {out}");

    if let Some((baseline_path, baseline)) = check {
        // Timing comparison only makes sense when both sides were actually
        // timed: a smoke run (ours or the baseline's) takes one unwarmed
        // sample, so medians are noise.
        let timed = !smoke && !baseline.contains("\"smoke\": true");
        for section in empty_sections(&baseline) {
            eprintln!(
                "perf gate check WARNING vs {baseline_path}: committed section \
                 `{section}` is present but empty — it gates nothing"
            );
        }
        let (failures, regressions) =
            check_against_baseline(&json, &baseline, timed.then_some(tolerance));
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("perf gate check FAILED vs {baseline_path}: {f}");
            }
            std::process::exit(1);
        }
        if !regressions.is_empty() {
            let level = if check_warn { "WARNING" } else { "FAILED" };
            for r in &regressions {
                eprintln!("perf gate check {level} vs {baseline_path}: {r}");
            }
            if !check_warn {
                std::process::exit(1);
            }
        }
        println!(
            "perf gate check OK: all {} points of {baseline_path} present",
            point_keys(&baseline).len()
        );
    }
    if !invalid.is_empty() {
        for i in &invalid {
            eprintln!("perf gate FAILED: timed schedule is invalid: {i}");
        }
        std::process::exit(1);
    }
}
