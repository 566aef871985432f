//! ftbar end-to-end benchmark (see README.md).
//!
//! ```text
//! perfbench --cli PATH --workload W --seed N --seconds S --trace 0|1
//! perfbench --cli PATH --self-test
//! ```
//!
//! Prints human-readable lines, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of an
//! untraced run (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). Run it from the root of an ftbar checkout; scratch files
//! go to `.bench_run/` there.

mod drive;
mod stats;
mod stream;
mod trace;

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use drive::{Opts, Pass};
use stream::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CliLarge,
    DaemonEdit,
    DaemonSmall,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::CliLarge,
        Workload::DaemonEdit,
        Workload::DaemonSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CliLarge => "cli-large",
            Workload::DaemonEdit => "daemon-edit",
            Workload::DaemonSmall => "daemon-small",
        }
    }

    /// The class behind `main_cpu_p50_ms` and `main_p50_ms`.
    pub fn main_kind(self) -> Kind {
        match self {
            Workload::CliLarge => Kind::Full,
            Workload::DaemonEdit => Kind::Edit,
            Workload::DaemonSmall => Kind::Small,
        }
    }

    /// The class behind `side_cpu_p50_ms` and `side_p50_ms`.
    pub fn side_kind(self) -> Kind {
        match self {
            Workload::CliLarge => Kind::Mesh,
            Workload::DaemonEdit => Kind::Hit,
            Workload::DaemonSmall => Kind::Tiny,
        }
    }

    fn pass(self, o: &Opts) -> std::io::Result<Pass> {
        match self {
            Workload::CliLarge => drive::cli_large(o),
            Workload::DaemonEdit => drive::daemon_edit(o),
            Workload::DaemonSmall => drive::daemon_small(o),
        }
    }
}

struct Args {
    cli: Option<PathBuf>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        cli: None,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            a.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value for {flag}: `{value}`");
        match flag.as_str() {
            "--cli" => a.cli = Some(PathBuf::from(&value)),
            "--workload" => {
                a.workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(a)
}

/// `nproc`, CPU model, kernel, and a fixed single-thread calibration loop.
fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let t = Instant::now();
    let mut x = 1u64;
    for i in 0..100_000_000u64 {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    black_box(x);
    let calib_ms = t.elapsed().as_secs_f64() * 1e3;
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"calibration_ms\": {calib_ms:.3}}}",
        stats::json_str(&cpu),
        stats::json_str(&kernel)
    )
}

/// Prints the per-class lines (attempted, failed, the class percentiles
/// and CPU-time medians under their own names) and returns the gated
/// end-to-end metrics. Wall-clock times are not among them: hypervisor
/// steal on a shared host moves them by more than any bound a run-to-run
/// comparison could keep. The CPU time the program spends per request
/// leaves stolen time out, and the gated CPU figures count only the
/// quieter half of the pass (by steal share), because a host busy enough
/// to steal also slows the CPU time it does give.
fn end_to_end(w: Workload, pass: &Pass) -> Vec<(String, f64, &'static str)> {
    let quiet = stats::quiet(&pass.chunks);
    println!(
        "quiet chunks of {}: {} of {}",
        w.name(),
        quiet.iter().filter(|q| **q).count(),
        quiet.len()
    );
    for c in &pass.classes {
        let mut line = format!(
            "class {} {}: attempted {} failed {} samples {}",
            w.name(),
            c.name,
            c.attempted,
            c.failed,
            c.lat_ms.len()
        );
        let _ = write!(line, " {}_p50_ms {:.4}", c.name, c.p50());
        if let Some(p90) = c.p90() {
            let _ = write!(line, " {}_p90_ms {:.4}", c.name, p90);
        }
        let _ = write!(
            line,
            " {0}_cpu_p50_ms {1:.4} (all chunks {2:.4})",
            c.name,
            c.quiet_cpu_p50(&pass.chunks),
            c.cpu_p50()
        );
        println!("{line}");
    }
    vec![
        ("setup_s".into(), pass.setup_median_s(), "s"),
        (
            "main_cpu_p50_ms".into(),
            pass.class(w.main_kind()).quiet_cpu_p50(&pass.chunks),
            "ms",
        ),
        (
            "side_cpu_p50_ms".into(),
            pass.class(w.side_kind()).quiet_cpu_p50(&pass.chunks),
            "ms",
        ),
        ("cpu_ms_per_op".into(), pass.cpu_ms_per_op(&quiet), "ms"),
        ("peak_rss_mb".into(), pass.peak_rss_mb, "MiB"),
    ]
}

/// The wall-clock end-to-end figures, printed with every run and reported
/// ungated among the traced run's metrics.
fn wall_clock(w: Workload, pass: &Pass) -> Vec<(String, f64, &'static str)> {
    vec![
        (
            "req_per_s".into(),
            pass.completed() as f64 / pass.timed_s,
            "1/s",
        ),
        ("main_p50_ms".into(), pass.class(w.main_kind()).p50(), "ms"),
        ("side_p50_ms".into(), pass.class(w.side_kind()).p50(), "ms"),
    ]
}

fn result_line(correct: bool, pass: &Pass, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.attempted(),
        pass.failed(),
        body.join(", ")
    )
}

/// One workload run: the untraced pass, and with `trace` the replay.
fn run(w: Workload, o: &Opts, trace: bool) -> Result<(bool, String), String> {
    let pass = w.pass(o).map_err(|e| format!("{}: {e}", w.name()))?;
    for p in pass.problems.iter().take(20) {
        println!("check failed: {p}");
    }
    println!(
        "workload {} seed {}: set-up {:.4} s (median of {}), {} of {} operations ok in {:.3} s",
        w.name(),
        o.seed,
        pass.setup_median_s(),
        pass.setup_s.len(),
        pass.completed(),
        pass.attempted(),
        pass.timed_s
    );
    let e2e = end_to_end(w, &pass);
    for (name, value, unit) in &e2e {
        println!("e2e {name} = {value:.4} {unit}");
    }
    let wall = wall_clock(w, &pass);
    for (name, value, unit) in &wall {
        println!("e2e {name} = {value:.4} {unit} (wall clock, not gated)");
    }
    let correct = pass.problems.is_empty() && pass.failed() == 0;
    let metrics = if trace {
        let replay = trace::replay(w, o).map_err(|e| format!("trace {}: {e}", w.name()))?;
        let layers = trace::report(w, &pass, &replay);
        print!("{}", layers.table);
        let spans = format!("spans-{}-{}.jsonl", w.name(), o.seed);
        std::fs::write(&spans, &layers.spans_jsonl).map_err(|e| e.to_string())?;
        println!("spans written to .bench_run/{}/{spans}", w.name());
        let wall = wall.into_iter().map(|(name, v, unit)| (format!("wall.{name}"), v, unit));
        layers.metrics.into_iter().chain(wall).collect()
    } else {
        e2e
    };
    Ok((correct, result_line(correct, &pass, &metrics)))
}

/// The self-test (this binary's part; `run.py --self-test` also runs the
/// unit tests): a tiny traced pass of each workload, and a tampered
/// expected answer that must count as failed.
fn self_test(cli: PathBuf) -> Result<(), String> {
    let tiny = |tamper| Opts {
        cli: cli.clone(),
        seed: 5,
        seconds: 1.0,
        tiny: true,
        tamper,
    };
    for w in Workload::ALL {
        enter_run_dir(w)?;
        let (correct, line) = run(w, &tiny(false), true)?;
        if !correct {
            return Err(format!("tiny pass of {} was not correct: {line}", w.name()));
        }
        println!("self-test: tiny traced pass of {} ok", w.name());
        leave_run_dir()?;
    }

    enter_run_dir(Workload::DaemonEdit)?;
    let pass = drive::daemon_edit(&tiny(true)).map_err(|e| e.to_string())?;
    leave_run_dir()?;
    let hit = pass.class(Kind::Hit);
    if hit.failed != 1 || pass.failed() != 1 || pass.problems.is_empty() {
        return Err(format!(
            "a tampered expected answer was not counted as exactly one failed hit \
             (hit failed {}, all failed {})",
            hit.failed,
            pass.failed()
        ));
    }
    println!("self-test: a tampered expected answer counts as a failed hit");
    Ok(())
}

/// Scratch files of a run live in `.bench_run/<workload>/`, emptied first.
fn enter_run_dir(w: Workload) -> Result<(), String> {
    let dir = PathBuf::from(".bench_run").join(w.name());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_current_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn leave_run_dir() -> Result<(), String> {
    std::env::set_current_dir("../..").map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let outcome = (|| -> Result<(), String> {
        let args = parse_args()?;
        let cli = args
            .cli
            .ok_or("--cli PATH (the ftbar-cli binary) is required")?;
        let cli = std::fs::canonicalize(&cli).map_err(|e| format!("{}: {e}", cli.display()))?;
        if args.self_test {
            return self_test(cli);
        }
        let w = args.workload.ok_or("--workload is required")?;
        if !args.seconds.is_finite() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        println!("host {}", host_fingerprint());
        enter_run_dir(w)?;
        let opts = Opts {
            cli,
            seed: args.seed,
            seconds: args.seconds,
            tiny: false,
            tamper: false,
        };
        let ticks = drive::host_cpu_ticks();
        let (_, line) = run(w, &opts, args.trace)?;
        let steal = drive::steal_share(ticks, drive::host_cpu_ticks());
        leave_run_dir()?;
        // Share of the host's CPU time the hypervisor stole during the run:
        // context for a slow run, like the calibration loop.
        println!("host steal during the run: {:.1}% of CPU time", 100.0 * steal);
        println!("{line}");
        Ok(())
    })();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
