//! Implementation of the `ftbar` command-line tool.
//!
//! Subcommands:
//!
//! * `ftbar schedule <spec> [--npf N] [--hbp|--no-dup|--est]
//!   [--strategy adaptive|incremental|naive|clustered] [--gantt W]
//!   [--summary] [--dot] [--json] [--validate]` — schedule a problem file;
//! * `ftbar analyze <spec>` — schedule + exhaustive tolerance report;
//! * `ftbar simulate <spec> [--fail P@T ...] [--fail-link L@T ...]
//!   [--iterations K] [--detect]` — multi-iteration fault-injection
//!   simulation;
//! * `ftbar scenarios <spec> [--beyond K] [--samples N] [--links]
//!   [--jitter F] [--jitter-samples N] [--seed S] [--jobs N] [--json]
//!   [--out PATH]` — contingency campaign: exhaustive ≤Npf fault sweep,
//!   sampled beyond-Npf sweep, reliability report with a PASS/FAIL
//!   fault-tolerance certificate (exit 1 on FAIL);
//! * `ftbar reschedule <spec> --edit JSON [--npf N] [--strategy S]
//!   [--verify]` — schedule a problem, apply one edit (same JSON shape as
//!   the daemon's `reschedule` op) and delta-repair the schedule instead
//!   of re-running the pipeline, reporting the invalidation frontier;
//!   `--verify` re-schedules the edited problem from scratch and checks
//!   the repair is bit-identical;
//! * `ftbar batch <list-file> [--jobs N] [--hbp] [--npf N] [--schedules]
//!   [--out PATH]` — schedule many independent spec files concurrently
//!   through the batch service (deterministic JSON results in submission
//!   order; a bad spec fails alone without killing the batch);
//! * `ftbar gen [--n N] [--procs P] [--topology T] [--ccr X] [--npf N]
//!   [--seed S]` — print a random problem spec (topologies: `full`, `ring`,
//!   `bus`, `mesh:WxH`, `hypercube:D`);
//! * `ftbar serve [--socket PATH | --tcp HOST:PORT] [--workers N]
//!   [--queue N] [--shed-oldest] [--cache-bytes B] [--timeout-ms T]
//!   [--max-frame-bytes B] [--snapshot PATH] [--snapshot-interval SECS]`
//!   — run the long-lived scheduling daemon (JSON-lines protocol,
//!   memoizing cache, admission control; drains and exits 0 on
//!   SIGTERM/SIGINT or a `shutdown` request; with `--snapshot` the
//!   cache/poisoned-set/artifact state is persisted and restored across
//!   restarts);
//! * `ftbar status [--socket PATH | --tcp HOST:PORT]` — query a running
//!   daemon's uptime, queue depth, cache, request and snapshot counters;
//! * `ftbar example` — print the paper's running example as a spec.
//!
//! Flag parsing is table-driven: each command declares its options as
//! `Opt` bindings and `parse_args` does the scanning, so there is one
//! flag loop for the whole tool instead of one hand-rolled `match` per
//! subcommand.
//!
//! The library form exists so the argument parser and command logic are
//! unit-testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use ftbar_core::{analysis, ftbar, gantt, validate, FtbarConfig};
use ftbar_model::{spec, Problem, Time};
use ftbar_service::client::RequestOpts;
use ftbar_service::server::{Listener, ServerConfig};
use ftbar_service::{BatchConfig, JobInput, JobSpec, SchedulerKind};
use ftbar_sim::scenario::ScenarioConfig;
use ftbar_sim::{simulate, Detection, FaultPlan, SimConfig};
use ftbar_workload::{arch, layered, timing, LayeredConfig, TimingConfig};

/// A CLI failure: message plus suggested exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message (for stderr).
    pub message: String,
    /// Process exit code.
    pub code: i32,
    /// Result payload that still belongs on stdout despite the failure
    /// exit — e.g. the `batch` JSON, whose per-job statuses already
    /// carry the errors (pipelines read stdout; the exit code signals
    /// the partial failure).
    pub output: Option<String>,
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 2,
        output: None,
    }
}

/// Usage text.
pub const USAGE: &str = "\
ftbar — distributed fault-tolerant static scheduling (FTBAR, DSN 2003)

USAGE:
  ftbar schedule <spec-file> [--npf N] [--hbp | --no-dup | --est]
                 [--strategy adaptive|incremental|naive|clustered]
                 [--gantt WIDTH] [--summary] [--stats] [--dot] [--json] [--validate]
  ftbar analyze  <spec-file> [--npf N] [--thorough] [--links] [--rel LAMBDA]
  ftbar simulate <spec-file> [--fail PROC@TIME]... [--fail-link LINK@TIME]...
                 [--window PROC@FROM..UNTIL]... [--iterations K] [--detect]
  ftbar scenarios <spec-file> [--npf N] [--hbp] [--beyond K] [--samples N]
                 [--cap N] [--links] [--jitter FRAC] [--jitter-samples N]
                 [--deadline T] [--seed S] [--jobs N] [--json] [--out PATH]
  ftbar reschedule <spec-file> --edit JSON [--npf N] [--verify]
                 [--strategy adaptive|incremental|naive|clustered]
  ftbar batch    <list-file> [--jobs N] [--hbp] [--npf N] [--schedules] [--out PATH]
  ftbar gen      [--n N] [--procs P] [--topology full|ring|bus|mesh:WxH|hypercube:D]
                 [--ccr X] [--npf N] [--seed S] [--het H]
  ftbar serve    [--socket PATH | --tcp HOST:PORT] [--workers N] [--queue N]
                 [--shed-oldest] [--cache-bytes B] [--timeout-ms T]
                 [--max-frame-bytes B] [--snapshot PATH] [--snapshot-interval SECS]
  ftbar status   [--socket PATH | --tcp HOST:PORT]
  ftbar example
";

/// Runs the CLI; returns the text to print on success.
///
/// # Errors
///
/// [`CliError`] with a message and exit code on bad arguments, unreadable
/// files, invalid specs, or failed scheduling.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("schedule") => cmd_schedule(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("scenarios") => cmd_scenarios(&args[1..]),
        Some("reschedule") => cmd_reschedule(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("example") => Ok(spec::print_problem(&ftbar_model::paper_example())),
        Some("help") | Some("--help") | Some("-h") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(err(format!("unknown subcommand `{other}`\n\n{USAGE}"))),
    }
}

/// One `--name` option binding: whether it consumes a value and how the
/// value (or the bare flag) updates the command's locals.
struct Opt<'a> {
    name: &'static str,
    takes_value: bool,
    set: Box<dyn FnMut(Option<String>) -> Result<(), CliError> + 'a>,
}

/// A bare boolean flag (`--detect`).
fn flag<'a>(name: &'static str, target: &'a mut bool) -> Opt<'a> {
    Opt {
        name,
        takes_value: false,
        set: Box::new(move |_| {
            *target = true;
            Ok(())
        }),
    }
}

/// A valued option parsed via `FromStr` (`--seed 9`); `what` names the
/// quantity in the error message.
fn val<'a, T: std::str::FromStr>(
    name: &'static str,
    what: &'static str,
    target: &'a mut T,
) -> Opt<'a> {
    Opt {
        name,
        takes_value: true,
        set: Box::new(move |v| {
            let v = v.expect("valued option");
            *target = v
                .parse()
                .map_err(|_| err(format!("invalid {what}: `{v}`")))?;
            Ok(())
        }),
    }
}

/// As [`val`], wrapping the parsed value in `Some` (`--npf 2` overrides).
fn opt_val<'a, T: std::str::FromStr>(
    name: &'static str,
    what: &'static str,
    target: &'a mut Option<T>,
) -> Opt<'a> {
    Opt {
        name,
        takes_value: true,
        set: Box::new(move |v| {
            let v = v.expect("valued option");
            *target = Some(
                v.parse()
                    .map_err(|_| err(format!("invalid {what}: `{v}`")))?,
            );
            Ok(())
        }),
    }
}

/// A repeatable valued option collected verbatim (`--fail P1@0 ...`).
fn push_val<'a>(name: &'static str, target: &'a mut Vec<String>) -> Opt<'a> {
    Opt {
        name,
        takes_value: true,
        set: Box::new(move |v| {
            target.push(v.expect("valued option"));
            Ok(())
        }),
    }
}

/// An option with bespoke handling (e.g. two flags steering one setting,
/// order-sensitively, through a shared `Cell`).
fn custom<'a>(
    name: &'static str,
    takes_value: bool,
    set: impl FnMut(Option<String>) -> Result<(), CliError> + 'a,
) -> Opt<'a> {
    Opt {
        name,
        takes_value,
        set: Box::new(set),
    }
}

/// Scans `rest` against the option table, returning the positional
/// arguments. Shared by every subcommand — the one flag loop of the tool.
fn parse_args<'a>(rest: &'a [String], opts: &mut [Opt<'_>]) -> Result<Vec<&'a str>, CliError> {
    let mut positional = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i].as_str();
        i += 1;
        if let Some(name) = a.strip_prefix("--") {
            let Some(opt) = opts.iter_mut().find(|o| o.name == name) else {
                return Err(err(format!("unknown flag --{name}")));
            };
            let value = if opt.takes_value {
                let v = rest
                    .get(i)
                    .ok_or_else(|| err(format!("flag --{name} expects a value")))?;
                i += 1;
                Some(v.clone())
            } else {
                None
            };
            (opt.set)(value)?;
        } else {
            positional.push(a);
        }
    }
    Ok(positional)
}

/// The single-`<spec-file>` positional contract of most subcommands.
fn one_file<'a>(positional: &[&'a str], cmd: &str, kind: &str) -> Result<&'a str, CliError> {
    match positional {
        [path] => Ok(path),
        _ => Err(err(format!("{cmd} expects one {kind}\n\n{USAGE}"))),
    }
}

fn load_problem(path: &str, npf_override: Option<u32>) -> Result<Problem, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
    let problem = spec::parse_problem(&text).map_err(|e| err(format!("{path}: {e}")))?;
    match npf_override {
        Some(npf) => problem
            .with_npf(npf)
            .map_err(|e| err(format!("{path}: {e}"))),
        None => Ok(problem),
    }
}

fn parse_time(s: &str, what: &str) -> Result<Time, CliError> {
    s.parse().map_err(|_| err(format!("invalid {what}: `{s}`")))
}

/// Parses the shared `--strategy` flag value.
fn parse_strategy(s: Option<&str>) -> Result<ftbar_core::SweepStrategy, CliError> {
    let Some(name) = s else {
        return Ok(ftbar_core::SweepStrategy::default());
    };
    ftbar_core::SweepStrategy::from_name(name).ok_or_else(|| {
        err(format!(
            "invalid strategy: `{name}` (expected adaptive, incremental, naive, or clustered)"
        ))
    })
}

fn cmd_schedule(rest: &[String]) -> Result<String, CliError> {
    let mut npf: Option<u32> = None;
    let mut use_hbp = false;
    let mut no_dup = false;
    let mut est = false;
    let mut strategy: Option<String> = None;
    // `--gantt W` and `--no-gantt` steer one setting, last flag wins; a
    // `Cell` lets both table entries share it.
    let gantt_w = std::cell::Cell::new(Some(100usize));
    let mut want_summary = false;
    let mut want_stats = false;
    let mut want_dot = false;
    let mut want_json = false;
    let mut want_validate = false;
    let positional = parse_args(
        rest,
        &mut [
            opt_val("npf", "npf", &mut npf),
            flag("hbp", &mut use_hbp),
            flag("no-dup", &mut no_dup),
            flag("est", &mut est),
            opt_val("strategy", "strategy", &mut strategy),
            custom("gantt", true, |v| {
                let v = v.expect("valued option");
                gantt_w.set(Some(
                    v.parse()
                        .map_err(|_| err(format!("invalid width: `{v}`")))?,
                ));
                Ok(())
            }),
            custom("no-gantt", false, |_| {
                gantt_w.set(None);
                Ok(())
            }),
            flag("summary", &mut want_summary),
            flag("stats", &mut want_stats),
            flag("dot", &mut want_dot),
            flag("json", &mut want_json),
            flag("validate", &mut want_validate),
        ],
    )?;
    let path = one_file(&positional, "schedule", "spec file")?;
    let problem = load_problem(path, npf)?;
    let gantt_w = gantt_w.get();
    let sweep = parse_strategy(strategy.as_deref())?;

    // Duplication counters exist for FTBAR runs only (HBP never
    // duplicates); sweep counters only for the sweeps that keep a cache.
    let (schedule, dup_stats, sweep_stats) = if use_hbp {
        let schedule = ftbar_hbp::schedule(&problem).map_err(|e| err(e.to_string()))?;
        (schedule, None, None)
    } else {
        ftbar::schedule_with(
            &problem,
            &FtbarConfig {
                no_duplication: no_dup,
                cost: if est {
                    ftbar_core::CostFunction::EarliestStart
                } else {
                    ftbar_core::CostFunction::SchedulePressure
                },
                sweep,
                ..FtbarConfig::default()
            },
        )
        .map(|o| (o.schedule, Some(o.dup_stats), o.sweep_stats))
        .map_err(|e| err(e.to_string()))?
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "scheduler = {}, npf = {}, makespan = {}, completion = {}, replicas = {}, comms = {}",
        if use_hbp { "HBP" } else { "FTBAR" },
        problem.npf(),
        schedule.makespan(),
        schedule.completion(),
        schedule.replica_count(),
        schedule.comm_count()
    );
    if let Some(rtc) = problem.rtc() {
        let _ = writeln!(
            out,
            "rtc = {} -> {}",
            rtc,
            if schedule.makespan() <= rtc {
                "met"
            } else {
                "MISSED"
            }
        );
    }
    if let Some(w) = gantt_w {
        out.push_str(&gantt::render(&problem, &schedule, w));
    }
    if want_summary {
        out.push_str(&ftbar_core::export::summary(&problem, &schedule));
    }
    if want_stats {
        let st = ftbar_core::stats::stats(&problem, &schedule);
        let _ = writeln!(
            out,
            "stats: replicas = {} ({} duplicated), avg replication = {:.2}, comms = {}",
            st.replicas, st.duplicated_replicas, st.avg_replication, st.comms
        );
        if let Some(d) = dup_stats {
            let _ = writeln!(out, "duplication: {d}");
        }
        if let Some(s) = sweep_stats {
            let _ = writeln!(out, "sweep: {s}");
        }
        for p in problem.arch().procs() {
            let _ = writeln!(
                out,
                "  {:<10} busy {:>8}  utilization {:>5.1}%",
                problem.arch().proc(p).name(),
                st.proc_busy[p.index()],
                st.proc_utilization[p.index()] * 100.0
            );
        }
        for l in problem.arch().links() {
            let _ = writeln!(
                out,
                "  {:<10} busy {:>8}  utilization {:>5.1}%",
                problem.arch().link(l).name(),
                st.link_busy[l.index()],
                st.link_utilization[l.index()] * 100.0
            );
        }
    }
    if want_dot {
        out.push_str(&ftbar_core::export::to_dot(&problem, &schedule));
    }
    if want_json {
        let _ = writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&schedule).expect("schedules serialize")
        );
    }
    if want_validate {
        let violations = validate::validate(&problem, &schedule);
        if violations.is_empty() {
            out.push_str("validation: ok\n");
        } else {
            for v in &violations {
                let _ = writeln!(out, "validation: {v}");
            }
            return Err(CliError {
                message: out,
                code: 1,
                output: None,
            });
        }
    }
    Ok(out)
}

fn cmd_analyze(rest: &[String]) -> Result<String, CliError> {
    let mut npf: Option<u32> = None;
    let mut thorough = false;
    let mut links = false;
    let mut rel: Option<f64> = None;
    let positional = parse_args(
        rest,
        &mut [
            opt_val("npf", "npf", &mut npf),
            flag("thorough", &mut thorough),
            flag("links", &mut links),
            opt_val("rel", "failure rate", &mut rel),
        ],
    )?;
    let path = one_file(&positional, "analyze", "spec file")?;
    let problem = load_problem(path, npf)?;
    let schedule = ftbar::schedule(&problem).map_err(|e| err(e.to_string()))?;
    let report =
        analysis::analyze_with(&problem, &schedule, &analysis::AnalysisConfig { thorough });
    let mut out = String::new();
    let _ = writeln!(out, "nominal completion = {}", report.nominal);
    for s in &report.scenarios {
        let names: Vec<_> = s
            .procs
            .iter()
            .map(|&p| problem.arch().proc(p).name().to_owned())
            .collect();
        let _ = writeln!(
            out,
            "fail {{{}}} at {} -> {}",
            names.join(","),
            s.at,
            s.completion
                .map_or_else(|| "NOT MASKED".to_owned(), |t| t.to_string())
        );
    }
    let _ = writeln!(
        out,
        "tolerated = {}, worst completion = {}, rtc met = {}",
        report.tolerated,
        report
            .worst_completion
            .map_or_else(|| "-".to_owned(), |t| t.to_string()),
        report
            .rtc_met
            .map_or_else(|| "-".to_owned(), |b| b.to_string())
    );
    if links {
        let link_report = analysis::analyze_link_failures(&problem, &schedule);
        for s in &link_report.scenarios {
            let _ = writeln!(
                out,
                "link {} fails at {} -> {}",
                problem.arch().link(s.link).name(),
                s.at,
                s.completion
                    .map_or_else(|| "NOT MASKED".to_owned(), |t| t.to_string())
            );
        }
        let _ = writeln!(
            out,
            "single link failures tolerated = {}",
            link_report.tolerated
        );
    }
    if let Some(lambda) = rel {
        use ftbar_core::reliability::{estimate, FailureRates};
        let rates = FailureRates::uniform(problem.arch().proc_count(), lambda);
        let r = estimate(&problem, &schedule, &rates);
        let _ = writeln!(
            out,
            "reliability (lambda = {lambda}/unit): iteration = {:.6}, single-copy reference = {:.6}",
            r.iteration_reliability, r.single_copy_reference
        );
    }
    if report.tolerated {
        Ok(out)
    } else {
        Err(CliError {
            message: out,
            code: 1,
            output: None,
        })
    }
}

/// Parses `PROC@TIME` into a processor name and instant.
fn parse_fail_spec(s: &str) -> Result<(&str, Time), CliError> {
    let (name, t) = s
        .split_once('@')
        .ok_or_else(|| err(format!("--fail expects PROC@TIME, got `{s}`")))?;
    Ok((name, parse_time(t, "failure time")?))
}

/// Parses `PROC@FROM..UNTIL` into a processor name and window.
fn parse_window_spec(s: &str) -> Result<(&str, Time, Time), CliError> {
    let (name, range) = s
        .split_once('@')
        .ok_or_else(|| err(format!("--window expects PROC@FROM..UNTIL, got `{s}`")))?;
    let (from, until) = range
        .split_once("..")
        .ok_or_else(|| err(format!("--window expects PROC@FROM..UNTIL, got `{s}`")))?;
    Ok((
        name,
        parse_time(from, "window start")?,
        parse_time(until, "window end")?,
    ))
}

fn cmd_simulate(rest: &[String]) -> Result<String, CliError> {
    let mut iterations = 1usize;
    let mut detect = false;
    let mut fails: Vec<String> = Vec::new();
    let mut link_fails: Vec<String> = Vec::new();
    let mut windows: Vec<String> = Vec::new();
    let positional = parse_args(
        rest,
        &mut [
            val("iterations", "iteration count", &mut iterations),
            flag("detect", &mut detect),
            push_val("fail", &mut fails),
            push_val("fail-link", &mut link_fails),
            push_val("window", &mut windows),
        ],
    )?;
    let path = one_file(&positional, "simulate", "spec file")?;
    let problem = load_problem(path, None)?;
    let schedule = ftbar::schedule(&problem).map_err(|e| err(e.to_string()))?;

    let mut plan = FaultPlan::new(problem.arch().proc_count());
    for f in &fails {
        let (name, t) = parse_fail_spec(f)?;
        let p = problem
            .arch()
            .proc_by_name(name)
            .ok_or_else(|| err(format!("unknown processor `{name}`")))?;
        plan.permanent(p, t);
    }
    for f in &link_fails {
        let (name, t) = f
            .split_once('@')
            .ok_or_else(|| err(format!("--fail-link expects LINK@TIME, got `{f}`")))
            .and_then(|(name, t)| Ok((name, parse_time(t, "failure time")?)))?;
        let l = problem
            .arch()
            .link_by_name(name)
            .ok_or_else(|| err(format!("unknown link `{name}`")))?;
        plan.link_permanent(l, t);
    }
    for w in &windows {
        let (name, from, until) = parse_window_spec(w)?;
        let p = problem
            .arch()
            .proc_by_name(name)
            .ok_or_else(|| err(format!("unknown processor `{name}`")))?;
        plan.intermittent(p, from, until);
    }

    let report = simulate(
        &problem,
        &schedule,
        &plan,
        &SimConfig {
            iterations,
            detection: if detect {
                Detection::Array
            } else {
                Detection::None
            },
        },
    );
    let mut out = String::new();
    for (i, it) in report.iterations.iter().enumerate() {
        let failed: Vec<_> = it
            .failed_procs
            .iter()
            .map(|&p| problem.arch().proc(p).name().to_owned())
            .collect();
        let failed_links: Vec<_> = it
            .failed_links
            .iter()
            .map(|&l| problem.arch().link(l).name().to_owned())
            .collect();
        let _ = writeln!(
            out,
            "iteration {i}: start={} completion={} failed={{{}}} failed_links={{{}}} delivered={} cancelled={}",
            it.start,
            it.completion
                .map_or_else(|| "NOT MASKED".to_owned(), |t| t.to_string()),
            failed.join(","),
            failed_links.join(","),
            it.comms_delivered,
            it.comms_cancelled
        );
    }
    let _ = writeln!(
        out,
        "total time = {}, all masked = {}, detected faulty = {:?}",
        report.total_time,
        report.all_masked(),
        report
            .detected_faulty
            .iter()
            .map(|&p| problem.arch().proc(p).name().to_owned())
            .collect::<Vec<_>>()
    );
    if report.all_masked() {
        Ok(out)
    } else {
        Err(CliError {
            message: out,
            code: 1,
            output: None,
        })
    }
}

fn cmd_scenarios(rest: &[String]) -> Result<String, CliError> {
    let mut npf: Option<u32> = None;
    let mut use_hbp = false;
    let mut beyond = 1u32;
    let mut samples = 32usize;
    let mut cap = 4096usize;
    let mut links = false;
    let mut jitter: Option<f64> = None;
    let mut jitter_samples: Option<usize> = None;
    let mut deadline: Option<Time> = None;
    let mut seed = 0u64;
    let mut jobs = 1usize;
    let mut want_json = false;
    let mut out_path: Option<String> = None;
    let positional = parse_args(
        rest,
        &mut [
            opt_val("npf", "npf", &mut npf),
            flag("hbp", &mut use_hbp),
            val("beyond", "beyond count", &mut beyond),
            val("samples", "sample count", &mut samples),
            val("cap", "exhaustive cap", &mut cap),
            flag("links", &mut links),
            opt_val("jitter", "jitter fraction", &mut jitter),
            opt_val("jitter-samples", "jitter sample count", &mut jitter_samples),
            opt_val("deadline", "deadline", &mut deadline),
            val("seed", "--seed", &mut seed),
            val("jobs", "worker count", &mut jobs),
            flag("json", &mut want_json),
            opt_val("out", "output path", &mut out_path),
        ],
    )?;
    if jobs == 0 {
        return Err(err("--jobs must be at least 1"));
    }
    if jitter.is_some_and(|f| !f.is_finite() || f < 0.0) {
        return Err(err("--jitter must be a non-negative fraction"));
    }
    let path = one_file(&positional, "scenarios", "spec file")?;
    let problem = load_problem(path, npf)?;
    let schedule = if use_hbp {
        ftbar_hbp::schedule(&problem).map_err(|e| err(e.to_string()))?
    } else {
        ftbar::schedule(&problem).map_err(|e| err(e.to_string()))?
    };

    let defaults = ScenarioConfig::default();
    let config = ScenarioConfig {
        beyond,
        samples_per_size: samples,
        exhaustive_cap: cap,
        links,
        // `--jitter F` alone turns the sweep on with the default count.
        jitter_samples: jitter_samples.unwrap_or(if jitter.is_some() { 16 } else { 0 }),
        jitter_frac: jitter.unwrap_or(defaults.jitter_frac),
        deadline,
        seed,
    };
    let report = ftbar_service::run_campaign(&problem, &schedule, &config, jobs);
    let rendered = if want_json {
        ftbar_sim::scenario::render_json(&report)
    } else {
        ftbar_sim::scenario::render_text(&report)
    };
    let text = match &out_path {
        Some(p) => {
            std::fs::write(p, &rendered).map_err(|e| err(format!("cannot write `{p}`: {e}")))?;
            format!(
                "scenarios: {} scenario(s), certificate {} -> {}\n",
                report.scenario_count,
                if report.certificate.pass {
                    "PASS"
                } else {
                    "FAIL"
                },
                p
            )
        }
        None => rendered,
    };
    if report.certificate.pass {
        Ok(text)
    } else {
        // The report still belongs on stdout; the exit code carries the
        // verdict, as with a failed `analyze`.
        Err(CliError {
            message: "scenarios: certificate FAIL\n".to_owned(),
            code: 1,
            output: Some(text),
        })
    }
}

fn cmd_reschedule(rest: &[String]) -> Result<String, CliError> {
    let mut npf: Option<u32> = None;
    let mut strategy: Option<String> = None;
    let mut edit_json: Option<String> = None;
    let mut verify = false;
    let positional = parse_args(
        rest,
        &mut [
            opt_val("npf", "npf", &mut npf),
            opt_val("strategy", "strategy", &mut strategy),
            opt_val("edit", "edit JSON", &mut edit_json),
            flag("verify", &mut verify),
        ],
    )?;
    let path = one_file(&positional, "reschedule", "spec file")?;
    let problem = load_problem(path, npf)?;
    let sweep = parse_strategy(strategy.as_deref())?;
    let edit_json = edit_json.ok_or_else(|| err("reschedule requires --edit JSON"))?;
    let edit = ftbar_service::proto::parse_edit_json(&edit_json).map_err(err)?;

    let config = FtbarConfig {
        sweep,
        ..FtbarConfig::default()
    };
    let (base, artifacts) =
        ftbar_core::schedule_retained(&problem, &config).map_err(|e| err(e.to_string()))?;
    let outcome = ftbar_core::reschedule(&artifacts, &edit).map_err(|e| err(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "base: makespan = {}, replicas = {}, comms = {}",
        base.makespan(),
        base.replica_count(),
        base.comm_count()
    );
    let _ = writeln!(out, "edit: {}", edit.describe());
    let r = &outcome.report;
    if r.fell_back {
        let _ = writeln!(
            out,
            "repair: full fallback ({})",
            r.reason.unwrap_or("unknown")
        );
    } else {
        let _ = writeln!(
            out,
            "repair: kept {} of {} placement steps, replayed {}",
            r.frontier,
            r.steps_total,
            r.steps_replayed()
        );
    }
    let repaired = &outcome.schedule;
    let _ = writeln!(
        out,
        "edited: makespan = {}, replicas = {}, comms = {}",
        repaired.makespan(),
        repaired.replica_count(),
        repaired.comm_count()
    );
    if let Some(rtc) = outcome.artifacts.problem().rtc() {
        let _ = writeln!(
            out,
            "rtc = {} -> {}",
            rtc,
            if repaired.makespan() <= rtc {
                "met"
            } else {
                "MISSED"
            }
        );
    }
    if verify {
        let edited = edit.apply(&problem).map_err(|e| err(e.to_string()))?;
        let scratch = ftbar::schedule_with(&edited, &config)
            .map_err(|e| err(e.to_string()))?
            .schedule;
        if scratch == *repaired {
            out.push_str("verify: repair is bit-identical to a from-scratch run\n");
        } else {
            out.push_str("verify: REPAIR DIVERGED from the from-scratch run\n");
            return Err(CliError {
                message: out,
                code: 1,
                output: None,
            });
        }
    }
    Ok(out)
}

fn cmd_batch(rest: &[String]) -> Result<String, CliError> {
    let mut jobs = 1usize;
    let mut use_hbp = false;
    let mut npf: Option<u32> = None;
    let mut schedules = false;
    let mut out_path: Option<String> = None;
    let positional = parse_args(
        rest,
        &mut [
            val("jobs", "worker count", &mut jobs),
            flag("hbp", &mut use_hbp),
            opt_val("npf", "npf", &mut npf),
            flag("schedules", &mut schedules),
            opt_val("out", "output path", &mut out_path),
        ],
    )?;
    if jobs == 0 {
        return Err(err("--jobs must be at least 1"));
    }
    let list_path = one_file(&positional, "batch", "spec-list file")?;
    let list = std::fs::read_to_string(list_path)
        .map_err(|e| err(format!("cannot read `{list_path}`: {e}")))?;
    let scheduler = if use_hbp {
        SchedulerKind::Hbp
    } else {
        SchedulerKind::Ftbar
    };

    // One job per listed spec path; '#' starts a comment. An unreadable
    // spec poisons only its own job.
    let specs: Vec<JobSpec> = list
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|path| JobSpec {
            name: path.to_owned(),
            input: match std::fs::read_to_string(path) {
                Ok(text) => JobInput::Spec(text),
                Err(e) => JobInput::Invalid(format!("cannot read `{path}`: {e}")),
            },
            scheduler,
            npf,
        })
        .collect();
    if specs.is_empty() {
        return Err(err(format!("`{list_path}` lists no spec files")));
    }

    let outcomes = ftbar_service::run_batch(
        &specs,
        &BatchConfig {
            jobs,
            keep_schedules: schedules,
            ..BatchConfig::default()
        },
    );
    let failed = outcomes.iter().filter(|o| o.result.is_err()).count();
    let json = ftbar_service::render_json(&outcomes);
    let text = match &out_path {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| err(format!("cannot write `{path}`: {e}")))?;
            format!(
                "batch: {} ok, {} failed -> {}\n",
                outcomes.len() - failed,
                failed,
                path
            )
        }
        None => json,
    };
    if failed == 0 {
        Ok(text)
    } else {
        // The JSON (with its per-job statuses) still belongs on stdout —
        // pipelines read the healthy jobs' results there; the exit code
        // and the stderr summary signal the partial failure.
        Err(CliError {
            message: format!("batch: {} of {} jobs failed\n", failed, outcomes.len()),
            code: 1,
            output: Some(text),
        })
    }
}

/// The default Unix-socket path of `serve`/`status`.
fn default_socket() -> std::path::PathBuf {
    std::env::temp_dir().join("ftbar.sock")
}

/// Resolves the `--socket`/`--tcp` pair into a [`Listener`]; with neither,
/// the default Unix socket is used.
fn listener_from(socket: Option<String>, tcp: Option<String>) -> Result<Listener, CliError> {
    match (socket, tcp) {
        (Some(_), Some(_)) => Err(err("--socket and --tcp are mutually exclusive")),
        (None, Some(addr)) => Ok(Listener::Tcp(addr)),
        (sock, None) => Ok(Listener::Unix(
            sock.map_or_else(default_socket, std::path::PathBuf::from),
        )),
    }
}

fn cmd_serve(rest: &[String]) -> Result<String, CliError> {
    let defaults = ServerConfig::default();
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut workers = defaults.workers;
    let mut queue = defaults.queue_depth;
    let mut shed_oldest = false;
    let mut cache_bytes = defaults.cache_bytes;
    let mut timeout_ms = defaults.default_timeout_ms;
    let mut max_frame_bytes = defaults.max_frame_bytes;
    let mut snapshot: Option<String> = None;
    let mut snapshot_interval = defaults.snapshot_interval_secs;
    let positional = parse_args(
        rest,
        &mut [
            opt_val("socket", "socket path", &mut socket),
            opt_val("tcp", "TCP address", &mut tcp),
            val("workers", "worker count", &mut workers),
            val("queue", "queue depth", &mut queue),
            flag("shed-oldest", &mut shed_oldest),
            val("cache-bytes", "cache byte budget", &mut cache_bytes),
            val("timeout-ms", "default timeout", &mut timeout_ms),
            val("max-frame-bytes", "frame size limit", &mut max_frame_bytes),
            opt_val("snapshot", "snapshot path", &mut snapshot),
            val(
                "snapshot-interval",
                "snapshot interval",
                &mut snapshot_interval,
            ),
        ],
    )?;
    if !positional.is_empty() {
        return Err(err("serve takes no positional arguments"));
    }
    if workers == 0 {
        return Err(err("--workers must be at least 1"));
    }
    if queue == 0 {
        return Err(err("--queue must be at least 1"));
    }
    if timeout_ms == 0 {
        return Err(err("--timeout-ms must be at least 1"));
    }
    if snapshot.is_none() && snapshot_interval != 0 {
        return Err(err("--snapshot-interval requires --snapshot"));
    }
    let listener = listener_from(socket, tcp)?;
    let config = ServerConfig {
        workers,
        queue_depth: queue,
        shed_oldest,
        cache_bytes,
        default_timeout_ms: timeout_ms,
        max_frame_bytes,
        handle_signals: true,
        snapshot_path: snapshot.map(std::path::PathBuf::from),
        snapshot_interval_secs: snapshot_interval,
        ..ServerConfig::default()
    };
    ftbar_service::server::serve(&listener, config).map_err(|e| CliError {
        message: format!("serve: {e}\n"),
        code: 1,
        output: None,
    })?;
    Ok("serve: drained and shut down cleanly\n".to_owned())
}

fn cmd_status(rest: &[String]) -> Result<String, CliError> {
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let positional = parse_args(
        rest,
        &mut [
            opt_val("socket", "socket path", &mut socket),
            opt_val("tcp", "TCP address", &mut tcp),
        ],
    )?;
    if !positional.is_empty() {
        return Err(err("status takes no positional arguments"));
    }
    let listener = listener_from(socket, tcp)?;
    let opts = RequestOpts {
        attempts: 2,
        base_backoff: std::time::Duration::from_millis(50),
        overall_deadline: std::time::Duration::from_secs(5),
        io_timeout: std::time::Duration::from_secs(5),
    };
    let response = ftbar_service::client::request(&listener, "{\"op\": \"status\"}", &opts)
        .map_err(|e| CliError {
            message: format!("status: {e}\n"),
            code: 1,
            output: None,
        })?;
    Ok(format!("{response}\n"))
}

/// Builds the architecture named by `gen`'s `--topology` flag.
///
/// `full`, `ring` and `bus` size themselves from `--procs`; `mesh:WxH` and
/// `hypercube:D` carry their own dimensions.
fn parse_topology(spec: &str, procs: usize) -> Result<ftbar_model::Arch, CliError> {
    match spec {
        "full" => Ok(arch::fully_connected(procs)),
        "bus" => Ok(arch::bus(procs)),
        "ring" => {
            if procs < 3 {
                return Err(err("a ring needs --procs of at least 3"));
            }
            Ok(arch::ring(procs))
        }
        _ => {
            if let Some(dims) = spec.strip_prefix("mesh:") {
                let (w, h) = dims
                    .split_once('x')
                    .ok_or_else(|| err(format!("--topology mesh expects WxH, got `{dims}`")))?;
                let w: usize = w.parse().map_err(|_| err("invalid mesh width"))?;
                let h: usize = h.parse().map_err(|_| err("invalid mesh height"))?;
                if !(1..=64).contains(&w) || !(1..=64).contains(&h) || w * h < 2 {
                    return Err(err(
                        "--topology mesh expects dimensions in 1..=64 spanning at least 2 processors",
                    ));
                }
                Ok(arch::mesh(w, h))
            } else if let Some(d) = spec.strip_prefix("hypercube:") {
                let d: usize = d.parse().map_err(|_| err("invalid hypercube dimension"))?;
                if !(1..=8).contains(&d) {
                    return Err(err("--topology hypercube expects a dimension in 1..=8"));
                }
                Ok(arch::hypercube(d))
            } else {
                Err(err(format!(
                    "unknown topology `{spec}` (expected full, ring, bus, mesh:WxH or hypercube:D)"
                )))
            }
        }
    }
}

fn cmd_gen(rest: &[String]) -> Result<String, CliError> {
    let mut n = 20usize;
    let mut procs = 4usize;
    let mut topology = "full".to_owned();
    let mut ccr = 1.0f64;
    let mut npf = 1u32;
    let mut seed = 0u64;
    let mut het = 0.0f64;
    let positional = parse_args(
        rest,
        &mut [
            val("n", "--n", &mut n),
            val("procs", "--procs", &mut procs),
            val("topology", "--topology", &mut topology),
            val("ccr", "--ccr", &mut ccr),
            val("npf", "npf", &mut npf),
            val("seed", "--seed", &mut seed),
            val("het", "--het", &mut het),
        ],
    )?;
    if !positional.is_empty() {
        return Err(err("gen takes no positional arguments"));
    }
    // Reject out-of-domain values here: the generators treat them as
    // programming errors (assertions), but from the CLI they are user input.
    if n == 0 {
        return Err(err("--n must be at least 1"));
    }
    if procs < 2 {
        return Err(err("--procs must be at least 2"));
    }
    if !(0.0..1.0).contains(&het) {
        return Err(err("--het must be in [0, 1)"));
    }
    if !ccr.is_finite() || ccr < 0.0 {
        return Err(err("--ccr must be a non-negative number"));
    }
    let machine = parse_topology(&topology, procs)?;
    let alg = layered(&LayeredConfig {
        n_ops: n,
        seed,
        ..Default::default()
    });
    let problem = timing(
        alg,
        machine,
        &TimingConfig {
            ccr,
            npf,
            heterogeneity: het,
            seed,
            ..Default::default()
        },
    )
    .map_err(|e| err(e.to_string()))?;
    Ok(spec::print_problem(&problem))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strs(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    fn test_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ftbar-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes the paper example to a file no other test touches: tests
    /// run concurrently, and a shared path could be read mid-rewrite.
    fn example_file() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = test_dir().join(format!("example-{n}.ftbar"));
        std::fs::write(&path, run_strs(&["example"]).unwrap()).unwrap();
        path
    }

    #[test]
    fn help_and_unknown() {
        assert!(run_strs(&[]).unwrap().contains("USAGE"));
        assert!(run_strs(&["help"]).unwrap().contains("USAGE"));
        let e = run_strs(&["frobnicate"]).unwrap_err();
        assert!(e.message.contains("unknown subcommand"));
    }

    #[test]
    fn example_prints_spec() {
        let text = run_strs(&["example"]).unwrap();
        assert!(text.contains("algorithm paper_fig2"));
        assert!(text.contains("npf 1;"));
    }

    #[test]
    fn schedule_end_to_end() {
        let path = example_file();
        let out = run_strs(&[
            "schedule",
            path.to_str().unwrap(),
            "--validate",
            "--summary",
        ])
        .unwrap();
        assert!(out.contains("makespan = 15.05"));
        assert!(out.contains("rtc = 16 -> met"));
        assert!(out.contains("validation: ok"));
        assert!(out.contains("# makespan"));
    }

    #[test]
    fn schedule_strategy_flag() {
        let path = example_file();
        let p = path.to_str().unwrap();
        // The exact strategies are bit-identical, so each must reproduce
        // the default run's summary line; clustered only stays valid.
        let default = run_strs(&["schedule", p, "--no-gantt"]).unwrap();
        for s in ["adaptive", "incremental", "naive"] {
            let out = run_strs(&["schedule", p, "--strategy", s, "--no-gantt"]).unwrap();
            assert_eq!(out, default, "--strategy {s} diverged");
        }
        let out = run_strs(&[
            "schedule",
            p,
            "--strategy",
            "clustered",
            "--no-gantt",
            "--validate",
        ])
        .unwrap();
        assert!(out.contains("validation: ok"));
        let e = run_strs(&["schedule", p, "--strategy", "bogus"]).unwrap_err();
        assert!(e.message.contains("invalid strategy"));
    }

    #[test]
    fn schedule_with_hbp_and_flags() {
        let path = example_file();
        let out = run_strs(&[
            "schedule",
            path.to_str().unwrap(),
            "--hbp",
            "--no-gantt",
            "--dot",
        ])
        .unwrap();
        assert!(out.contains("scheduler = HBP"));
        assert!(out.contains("digraph schedule"));
    }

    #[test]
    fn gantt_flags_are_order_sensitive() {
        // Last flag wins, as with the pre-table-driven parser.
        let path = example_file();
        let p = path.to_str().unwrap();
        let out = run_strs(&["schedule", p, "--no-gantt", "--gantt", "80"]).unwrap();
        assert!(out.contains("P1"), "--gantt after --no-gantt re-enables");
        let out = run_strs(&["schedule", p, "--gantt", "80", "--no-gantt"]).unwrap();
        assert!(!out.contains("|"), "--no-gantt after --gantt suppresses");
    }

    #[test]
    fn schedule_json_round_trips() {
        let path = example_file();
        let out = run_strs(&["schedule", path.to_str().unwrap(), "--no-gantt", "--json"]).unwrap();
        let json_start = out.find('{').unwrap();
        let _: ftbar_core::Schedule = serde_json::from_str(out[json_start..].trim()).unwrap();
    }

    #[test]
    fn analyze_reports_tolerance() {
        let path = example_file();
        let out = run_strs(&["analyze", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("tolerated = true"));
        assert!(out.contains("rtc met = true"));
    }

    #[test]
    fn analyze_links_and_reliability() {
        let path = example_file();
        let out = run_strs(&[
            "analyze",
            path.to_str().unwrap(),
            "--links",
            "--rel",
            "0.01",
        ])
        .unwrap();
        assert!(out.contains("single link failures tolerated = true"));
        assert!(out.contains("reliability (lambda = 0.01/unit)"));
    }

    #[test]
    fn schedule_stats_flag() {
        let path = example_file();
        let out = run_strs(&["schedule", path.to_str().unwrap(), "--no-gantt", "--stats"]).unwrap();
        assert!(out.contains("avg replication"));
        assert!(out.contains("utilization"));
        assert!(out.contains("duplication: evaluations = "));
        assert!(out.contains("sweep: probes = "));
    }

    #[test]
    fn simulate_with_failure() {
        let path = example_file();
        let out = run_strs(&[
            "simulate",
            path.to_str().unwrap(),
            "--fail",
            "P1@0",
            "--iterations",
            "2",
            "--detect",
        ])
        .unwrap();
        assert!(out.contains("all masked = true"));
        assert!(out.contains("detected faulty = [\"P1\"]"));
    }

    #[test]
    fn simulate_window() {
        let path = example_file();
        let out = run_strs(&[
            "simulate",
            path.to_str().unwrap(),
            "--window",
            "P2@1..2",
            "--iterations",
            "2",
        ])
        .unwrap();
        assert!(out.contains("all masked = true"));
    }

    #[test]
    fn simulate_with_link_failure() {
        let path = example_file();
        let out = run_strs(&["simulate", path.to_str().unwrap(), "--fail-link", "L1.2@0"]).unwrap();
        assert!(out.contains("failed_links={L1.2}"));
        let e =
            run_strs(&["simulate", path.to_str().unwrap(), "--fail-link", "L9.9@0"]).unwrap_err();
        assert!(e.message.contains("unknown link"));
    }

    #[test]
    fn scenarios_certificate_on_paper_example() {
        let path = example_file();
        let out = run_strs(&["scenarios", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("certificate: PASS"), "{out}");
        assert!(out.contains("exhaustive k=1"));
        // Worker count must never change a byte of the report.
        let par = run_strs(&["scenarios", path.to_str().unwrap(), "--jobs", "4"]).unwrap();
        assert_eq!(out, par);
        let json = run_strs(&[
            "scenarios",
            path.to_str().unwrap(),
            "--json",
            "--links",
            "--jitter",
            "0.2",
        ])
        .unwrap();
        assert!(json.contains("\"certificate\""));
        assert!(json.contains("\"link_sweep\": {"));
        assert!(json.contains("\"jitter_sweep\": {"));
    }

    #[test]
    fn scenarios_writes_out_file() {
        let dir = test_dir();
        let path = example_file();
        let out_path = dir.join("report.json");
        let msg = run_strs(&[
            "scenarios",
            path.to_str().unwrap(),
            "--json",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("certificate PASS"));
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"pass\": true"));
    }

    #[test]
    fn gen_produces_parseable_spec() {
        let out = run_strs(&[
            "gen", "--n", "12", "--procs", "3", "--ccr", "2", "--seed", "9",
        ])
        .unwrap();
        let p = spec::parse_problem(&out).unwrap();
        assert_eq!(p.alg().op_count(), 12);
        assert_eq!(p.arch().proc_count(), 3);
    }

    #[test]
    fn gen_topologies() {
        // Ring sized by --procs.
        let out = run_strs(&["gen", "--n", "8", "--procs", "4", "--topology", "ring"]).unwrap();
        let p = spec::parse_problem(&out).unwrap();
        assert_eq!(p.arch().proc_count(), 4);
        assert_eq!(p.arch().link_count(), 4);
        assert!(!p.arch().is_fully_connected());

        // Mesh and hypercube carry their own dimensions.
        let out = run_strs(&["gen", "--n", "8", "--topology", "mesh:3x2"]).unwrap();
        let p = spec::parse_problem(&out).unwrap();
        assert_eq!(p.arch().proc_count(), 6);
        assert_eq!(p.arch().link_count(), 7);

        let out = run_strs(&["gen", "--n", "8", "--topology", "hypercube:3"]).unwrap();
        let p = spec::parse_problem(&out).unwrap();
        assert_eq!(p.arch().proc_count(), 8);
        assert_eq!(p.arch().link_count(), 12);

        let out = run_strs(&["gen", "--n", "8", "--procs", "3", "--topology", "bus"]).unwrap();
        let p = spec::parse_problem(&out).unwrap();
        assert_eq!(p.arch().link_count(), 1);

        // Bad topologies are rejected with a pointer to the syntax.
        for bad in [
            "torus",
            "mesh:x2",
            "mesh:1x1",
            "mesh:100000x100000",
            "mesh:0x4",
            "hypercube:0",
            "hypercube:x",
        ] {
            let e = run_strs(&["gen", "--topology", bad]).unwrap_err();
            assert_eq!(e.code, 2, "`{bad}` must be rejected");
        }
        let e = run_strs(&["gen", "--procs", "2", "--topology", "ring"]).unwrap_err();
        assert!(e.message.contains("at least 3"));
    }

    #[test]
    fn reschedule_repairs_and_verifies() {
        let path = example_file();
        let p = path.to_str().unwrap();
        // A timing tweak on the sink operation repairs in place.
        let out = run_strs(&[
            "reschedule",
            p,
            "--edit",
            "{\"kind\": \"tweak_exec\", \"op\": \"I\", \"proc\": \"P1\", \"units\": 4.0}",
            "--verify",
        ])
        .unwrap();
        assert!(out.contains("edit: tweak_exec|I|P1|4"), "{out}");
        assert!(out.contains("repair:"), "{out}");
        assert!(out.contains("bit-identical"), "{out}");

        // A structural edit falls back to a full run — and still verifies.
        let out = run_strs(&[
            "reschedule",
            p,
            "--edit",
            "{\"kind\": \"set_npf\", \"npf\": 0}",
            "--verify",
        ])
        .unwrap();
        assert!(out.contains("full fallback (structural edit)"), "{out}");
        assert!(out.contains("bit-identical"), "{out}");
    }

    #[test]
    fn reschedule_rejects_bad_usage() {
        let path = example_file();
        let p = path.to_str().unwrap();
        assert!(run_strs(&["reschedule", p])
            .unwrap_err()
            .message
            .contains("requires --edit"));
        assert!(run_strs(&["reschedule", p, "--edit", "not json"])
            .unwrap_err()
            .message
            .contains("invalid JSON"));
        assert!(
            run_strs(&["reschedule", p, "--edit", "{\"kind\": \"warp\"}"])
                .unwrap_err()
                .message
                .contains("unknown edit kind")
        );
        // Well-formed JSON, inapplicable edit: the core error surfaces.
        let e = run_strs(&[
            "reschedule",
            p,
            "--edit",
            "{\"kind\": \"tweak_exec\", \"op\": \"Zz\", \"proc\": \"P1\", \"units\": 1.0}",
        ])
        .unwrap_err();
        assert!(e.message.contains("unknown operation"), "{}", e.message);
    }

    #[test]
    fn batch_schedules_spec_list() {
        let dir = test_dir();
        let spec_path = example_file();
        let list = dir.join("batch.list");
        std::fs::write(
            &list,
            format!(
                "# paper example, twice\n{spec}\n{spec}   # trailing comment\n",
                spec = spec_path.display()
            ),
        )
        .unwrap();
        let out = run_strs(&["batch", list.to_str().unwrap()]).unwrap();
        assert!(out.contains("\"schema\": 1"));
        assert!(out.contains("\"index\": 1"));
        assert!(out.contains("\"status\": \"ok\""));
        assert!(out.contains("\"makespan\": \"15.05\""));

        // Worker count must never change a byte of the output.
        let par = run_strs(&["batch", list.to_str().unwrap(), "--jobs", "4"]).unwrap();
        assert_eq!(out, par);

        // HBP variant + npf override are applied to every job.
        let hbp = run_strs(&["batch", list.to_str().unwrap(), "--hbp", "--npf", "0"]).unwrap();
        assert!(hbp.contains("\"scheduler\": \"hbp\""));
        assert!(hbp.contains("\"npf\": 0"));
    }

    #[test]
    fn batch_isolates_poisoned_jobs() {
        let dir = test_dir();
        let spec_path = example_file();
        let bad_path = dir.join("bad.ftbar");
        std::fs::write(&bad_path, "algorithm broken {").unwrap();
        let list = dir.join("poisoned.list");
        std::fs::write(
            &list,
            format!(
                "{ok}\n{bad}\n{missing}\n{ok}\n",
                ok = spec_path.display(),
                bad = bad_path.display(),
                missing = dir.join("nonexistent.ftbar").display()
            ),
        )
        .unwrap();
        let e = run_strs(&["batch", list.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 1, "a failed job exits 1");
        assert!(e.message.contains("2 of 4 jobs failed"));
        // The JSON stays on stdout: healthy jobs' results are readable by
        // pipelines, poisoned slots carry their errors.
        let json = e.output.expect("batch JSON goes to stdout");
        assert_eq!(json.matches("\"status\": \"ok\"").count(), 2);
        assert_eq!(json.matches("\"status\": \"error\"").count(), 2);
        assert!(json.contains("spec error"));
        assert!(json.contains("cannot read"));
    }

    #[test]
    fn batch_writes_out_file() {
        let dir = test_dir();
        let spec_path = example_file();
        let list = dir.join("out.list");
        std::fs::write(&list, format!("{}\n", spec_path.display())).unwrap();
        let out_path = dir.join("results.json");
        let msg = run_strs(&[
            "batch",
            list.to_str().unwrap(),
            "--schedules",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("1 ok, 0 failed"));
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"status\": \"ok\""));
        assert!(
            json.contains("\"schedule\": {"),
            "--schedules embeds the full schedule"
        );
    }

    #[test]
    fn batch_rejects_bad_usage() {
        let dir = test_dir();
        let empty = dir.join("empty.list");
        std::fs::write(&empty, "# nothing here\n").unwrap();
        assert!(run_strs(&["batch", empty.to_str().unwrap()])
            .unwrap_err()
            .message
            .contains("lists no spec files"));
        assert!(run_strs(&["batch", empty.to_str().unwrap(), "--jobs", "0"])
            .unwrap_err()
            .message
            .contains("at least 1"));
        assert!(run_strs(&["batch"]).is_err());
    }

    #[test]
    fn serve_and_status_round_trip() {
        let sock = test_dir().join("serve-test.sock");
        let snap = test_dir().join("serve-test.snap");
        let sock_str = sock.to_str().unwrap().to_owned();
        let snap_str = snap.to_str().unwrap().to_owned();
        let serve = std::thread::spawn(move || {
            run_strs(&[
                "serve",
                "--socket",
                &sock_str,
                "--workers",
                "1",
                "--snapshot",
                &snap_str,
            ])
        });
        let listener = Listener::Unix(sock.clone());
        let opts = RequestOpts {
            attempts: 20,
            base_backoff: std::time::Duration::from_millis(20),
            overall_deadline: std::time::Duration::from_secs(20),
            io_timeout: std::time::Duration::from_secs(5),
        };
        ftbar_service::client::request(&listener, "{\"op\": \"status\"}", &opts)
            .expect("daemon comes up");

        let status = run_strs(&["status", "--socket", sock.to_str().unwrap()]).unwrap();
        assert!(status.contains("\"op\": \"status\""), "{status}");
        assert!(status.contains("\"queue_depth\""), "{status}");
        assert!(status.contains("\"snapshot\""), "{status}");
        assert!(status.contains("\"configured\": true"), "{status}");

        ftbar_service::client::request(&listener, "{\"op\": \"shutdown\"}", &opts)
            .expect("shutdown answers");
        let out = serve.join().unwrap().unwrap();
        assert!(out.contains("shut down cleanly"));
        // The drain path wrote a final snapshot to the configured path.
        assert!(snap.exists(), "drain snapshot written");
    }

    #[test]
    fn serve_and_status_reject_bad_usage() {
        for (cmd, msg) in [
            (vec!["serve", "extra"], "no positional"),
            (vec!["serve", "--workers", "0"], "at least 1"),
            (vec!["serve", "--queue", "0"], "at least 1"),
            (vec!["serve", "--timeout-ms", "0"], "at least 1"),
            (
                vec!["serve", "--socket", "/tmp/x", "--tcp", "127.0.0.1:1"],
                "mutually exclusive",
            ),
            (
                vec!["serve", "--snapshot-interval", "30"],
                "requires --snapshot",
            ),
            (
                vec!["status", "--socket", "/tmp/x", "--tcp", "127.0.0.1:1"],
                "mutually exclusive",
            ),
            (vec!["status", "extra"], "no positional"),
        ] {
            let e = run_strs(&cmd).unwrap_err();
            assert!(e.message.contains(msg), "{cmd:?}: {}", e.message);
        }
        // No daemon on a fresh socket: a clean exit-1 error, not a hang.
        let sock = test_dir().join("no-daemon.sock");
        let e = run_strs(&["status", "--socket", sock.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.starts_with("status:"), "{}", e.message);
    }

    #[test]
    fn bad_args_are_reported() {
        assert!(run_strs(&["schedule"]).is_err());
        assert!(run_strs(&["schedule", "/nonexistent/file"]).is_err());
        assert!(run_strs(&["gen", "--n"])
            .unwrap_err()
            .message
            .contains("expects a value"));
        assert!(run_strs(&["gen", "--bogus", "1"])
            .unwrap_err()
            .message
            .contains("unknown flag"));
        let path = example_file();
        assert!(
            run_strs(&["simulate", path.to_str().unwrap(), "--fail", "nope"])
                .unwrap_err()
                .message
                .contains("PROC@TIME")
        );
        assert!(
            run_strs(&["simulate", path.to_str().unwrap(), "--fail", "P9@0"])
                .unwrap_err()
                .message
                .contains("unknown processor")
        );
    }

    #[test]
    fn parse_helpers() {
        assert_eq!(
            parse_fail_spec("P1@2.5").unwrap(),
            ("P1", Time::from_units(2.5))
        );
        assert!(parse_fail_spec("P1").is_err());
        let (p, a, b) = parse_window_spec("P2@1..2.5").unwrap();
        assert_eq!(p, "P2");
        assert_eq!(a, Time::from_units(1.0));
        assert_eq!(b, Time::from_units(2.5));
        assert!(parse_window_spec("P2@1").is_err());
    }
}
