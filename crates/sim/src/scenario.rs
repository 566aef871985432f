//! Contingency engine: exhaustive N−k fault sweeps, Monte Carlo campaigns,
//! and an empirical fault-tolerance certificate.
//!
//! The paper proves its schedules tolerate up to `Npf` processor failures;
//! this module measures it. A [`generate`]d campaign enumerates **every**
//! failure subset of size `1..=Npf` exactly (failures at `t = 0`, the
//! worst case for a static schedule), extends the sweep beyond `Npf`
//! (exhaustively while the subset count stays under
//! [`ScenarioConfig::exhaustive_cap`], Monte Carlo sampled with random
//! fault instants otherwise), and optionally adds link-failure patterns
//! and timing-jitter perturbations — all drawn from one seeded
//! deterministic RNG, so a campaign is a pure function of
//! `(problem, schedule, config)`.
//!
//! Each scenario is [`evaluate`]d with the analytic replay, over one
//! [`ReplayPlan`] built per schedule; [`assemble`] folds the per-scenario
//! results into a [`ReliabilityReport`] whose [`Certificate`] compares the
//! empirical maximum fault count survived against the two
//! Goemans/Lynch/Saias-style bounds (see `DESIGN.md` §10):
//!
//! * **lower bound** — the design `Npf` (the paper's claim);
//! * **counting upper bound** — `min` over operations of (distinct
//!   replica-hosting processors − 1): killing every host of the least
//!   replicated operation necessarily drops it.
//!
//! The certificate PASSes iff `design ≤ empirical ≤ counting`. Scenario
//! evaluation is embarrassingly parallel; `ftbar-service` fans a campaign
//! across its worker pool and reassembles results by scenario index, so
//! the rendered report is byte-identical for any job count.

use ftbar_core::json::JsonObject;
use ftbar_core::{FailureScenario, ReplayConfig, ReplayPlan, ReplicaOutcome, Schedule};
use ftbar_model::{LinkId, Problem, ProcId, Time};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How a scenario was produced (reported per sweep group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// The fault-free baseline (always scenario 0).
    Nominal,
    /// One subset of an exhaustive processor-failure sweep (`t = 0`).
    Exhaustive,
    /// One Monte Carlo draw: random subset, random fault instants.
    Sampled,
    /// A link-failure pattern (possibly combined with a processor fault).
    Link,
    /// Fault-free but with per-replica execution-time jitter.
    Jitter,
}

/// One concrete perturbation to replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Position in the campaign (stable across job counts).
    pub id: usize,
    /// Sweep group this scenario belongs to.
    pub kind: ScenarioKind,
    /// Processor failures (fail-silent from the given instant).
    pub procs: Vec<(ProcId, Time)>,
    /// Link failures (fail-silent from the given instant).
    pub links: Vec<(LinkId, Time)>,
    /// Per-replica additive duration stretch (empty: none).
    pub jitter: Vec<Time>,
}

impl Scenario {
    /// Number of processor failures injected.
    pub fn size(&self) -> usize {
        self.procs.len()
    }
}

/// Campaign shape. All randomness derives from `seed`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Failure-subset sizes to probe beyond `Npf` (`Npf+1 ..= Npf+beyond`).
    pub beyond: u32,
    /// Monte Carlo draws per size too large to enumerate.
    pub samples_per_size: usize,
    /// Enumerate a size exhaustively while `C(P, k)` stays at or below
    /// this; larger sizes are sampled.
    pub exhaustive_cap: usize,
    /// Also sweep link-failure patterns (every single link at `t = 0`,
    /// plus one sampled link+processor combination per link when
    /// `Npf ≥ 1`).
    pub links: bool,
    /// Number of fault-free timing-jitter scenarios.
    pub jitter_samples: usize,
    /// Per-replica jitter: each duration stretches by a uniform fraction
    /// in `[0, jitter_frac)` of itself.
    pub jitter_frac: f64,
    /// Deadline for the miss count; defaults to the booked schedule
    /// completion when `None`.
    pub deadline: Option<Time>,
    /// RNG seed; same seed ⇒ same campaign, byte for byte.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            beyond: 1,
            samples_per_size: 32,
            exhaustive_cap: 4096,
            links: false,
            jitter_samples: 0,
            jitter_frac: 0.1,
            deadline: None,
            seed: 0,
        }
    }
}

/// `C(n, k)` without overflow (saturating; only compared against caps).
fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    acc
}

/// Pushes every size-`k` subset of `0..n` as a `t = 0` failure scenario.
fn push_exhaustive(out: &mut Vec<Scenario>, n: usize, k: usize) {
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(Scenario {
            id: out.len(),
            kind: ScenarioKind::Exhaustive,
            procs: idx
                .iter()
                .map(|&i| (ProcId(i as u32), Time::ZERO))
                .collect(),
            links: Vec::new(),
            jitter: Vec::new(),
        });
        // Next lexicographic combination.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Draws `k` distinct processors with independent fault instants in
/// `[0, horizon)`.
fn sample_subset(
    rng: &mut rand::rngs::StdRng,
    n: usize,
    k: usize,
    horizon: f64,
) -> Vec<(ProcId, Time)> {
    let mut picked: Vec<usize> = Vec::with_capacity(k);
    while picked.len() < k {
        let p = rng.gen_range(0..n);
        if !picked.contains(&p) {
            picked.push(p);
        }
    }
    picked.sort_unstable();
    picked
        .into_iter()
        .map(|p| (ProcId(p as u32), sample_instant(rng, horizon)))
        .collect()
}

fn sample_instant(rng: &mut rand::rngs::StdRng, horizon: f64) -> Time {
    if horizon > 0.0 {
        Time::from_units(rng.gen_range(0.0..horizon))
    } else {
        Time::ZERO
    }
}

/// Generates the full campaign for `(problem, schedule)` under `config`.
///
/// Deterministic: the returned vector (ids, order, drawn instants) is a
/// pure function of the inputs. Scenario 0 is always the nominal run.
pub fn generate(problem: &Problem, schedule: &Schedule, config: &ScenarioConfig) -> Vec<Scenario> {
    let n = problem.arch().proc_count();
    let npf = problem.npf() as usize;
    let horizon = schedule.last_activity().as_units();
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut out = Vec::new();

    out.push(Scenario {
        id: 0,
        kind: ScenarioKind::Nominal,
        procs: Vec::new(),
        links: Vec::new(),
        jitter: Vec::new(),
    });

    // Processor-failure sweep: exhaustive through Npf (and beyond while
    // cheap), sampled past the cap.
    for k in 1..=npf.saturating_add(config.beyond as usize).min(n) {
        if k <= npf || binomial(n, k) <= config.exhaustive_cap as u128 {
            push_exhaustive(&mut out, n, k);
        } else {
            for _ in 0..config.samples_per_size {
                let id = out.len();
                out.push(Scenario {
                    id,
                    kind: ScenarioKind::Sampled,
                    procs: sample_subset(&mut rng, n, k, horizon),
                    links: Vec::new(),
                    jitter: Vec::new(),
                });
            }
        }
    }

    if config.links {
        for l in problem.arch().links() {
            let id = out.len();
            out.push(Scenario {
                id,
                kind: ScenarioKind::Link,
                procs: Vec::new(),
                links: vec![(l, Time::ZERO)],
                jitter: Vec::new(),
            });
        }
        if npf >= 1 {
            // One sampled simultaneous link+processor fault per link.
            for l in problem.arch().links() {
                let id = out.len();
                let procs = sample_subset(&mut rng, n, 1, horizon);
                let at = sample_instant(&mut rng, horizon);
                out.push(Scenario {
                    id,
                    kind: ScenarioKind::Link,
                    procs,
                    links: vec![(l, at)],
                    jitter: Vec::new(),
                });
            }
        }
    }

    for _ in 0..config.jitter_samples {
        let id = out.len();
        let jitter = schedule
            .replicas()
            .iter()
            .map(|r| {
                if config.jitter_frac > 0.0 {
                    r.slot
                        .duration()
                        .scale(rng.gen_range(0.0..config.jitter_frac))
                } else {
                    Time::ZERO
                }
            })
            .collect();
        out.push(Scenario {
            id,
            kind: ScenarioKind::Jitter,
            procs: Vec::new(),
            links: Vec::new(),
            jitter,
        });
    }

    out
}

/// Outcome of one scenario replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Schedule length of this execution; `None` when some operation
    /// produced no result anywhere (masking failed).
    pub completion: Option<Time>,
    /// True when all operations completed by the campaign deadline.
    pub deadline_met: bool,
    /// Operations with no completed replica.
    pub dropped_ops: usize,
    /// Work of the first-completing replica of each completed operation
    /// (Dwork/Halpern/Waarts "useful work").
    pub useful_work: Time,
    /// Work of completed replicas beyond the useful one (replication
    /// overhead actually spent).
    pub wasted_work: Time,
    /// Comms delivered to their destination.
    pub comms_delivered: usize,
    /// Comms cancelled (dead source, dead link, mid-flight loss).
    pub comms_cancelled: usize,
}

impl ScenarioResult {
    /// True when every operation completed somewhere.
    pub fn survived(&self) -> bool {
        self.completion.is_some()
    }
}

/// Replays one scenario over `plan`, the schedule's flattened wiring.
/// Pure: safe to fan out across threads sharing one plan.
pub fn evaluate(plan: &ReplayPlan, scenario: &Scenario, deadline: Time) -> ScenarioResult {
    let schedule = plan.schedule();
    let n = plan.problem().arch().proc_count();
    let mut failure = FailureScenario::multi(n, &scenario.procs);
    for &(l, t) in &scenario.links {
        failure = failure.with_link_failure(l, t);
    }
    let config = ReplayConfig {
        suppress_comms_to: Vec::new(),
        extend_durations: scenario.jitter.clone(),
    };
    let result = plan.run(&failure, &config);

    let mut dropped = 0usize;
    let mut useful = Time::ZERO;
    let mut total = Time::ZERO;
    for op in 0..schedule.op_count() {
        let mut first: Option<(Time, Time)> = None; // (end, duration)
        for &r in schedule.replicas_of(ftbar_model::OpId(op as u32)) {
            if let ReplicaOutcome::Completed { start, end } = result.outcome(r) {
                let dur = end - start;
                total += dur;
                if first.is_none_or(|(e, _)| end < e) {
                    first = Some((end, dur));
                }
            }
        }
        match first {
            Some((_, dur)) => useful += dur,
            None => dropped += 1,
        }
    }

    let delivered = (0..schedule.comm_count())
        .filter(|&c| result.comm_arrival(ftbar_core::CommId(c as u32)).is_some())
        .count();

    ScenarioResult {
        completion: result.completion(),
        deadline_met: result.completion().is_some_and(|c| c <= deadline),
        dropped_ops: dropped,
        useful_work: useful,
        wasted_work: total.saturating_sub(useful),
        comms_delivered: delivered,
        comms_cancelled: schedule.comm_count() - delivered,
    }
}

/// Aggregate over one sweep group (a subset size, the link sweep, or the
/// jitter sweep).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSummary {
    /// Scenarios in the group.
    pub scenarios: usize,
    /// Scenarios where every operation completed.
    pub survived: usize,
    /// Scenarios that completed but after the deadline, plus those that
    /// never completed.
    pub deadline_misses: usize,
    /// Largest completion among surviving scenarios.
    pub worst_completion: Option<Time>,
    /// Largest per-scenario dropped-operation count.
    pub max_dropped_ops: usize,
    /// Total wasted (duplicated) work across the group.
    pub wasted_work: Time,
}

impl GroupSummary {
    fn fold(results: &[&ScenarioResult]) -> GroupSummary {
        GroupSummary {
            scenarios: results.len(),
            survived: results.iter().filter(|r| r.survived()).count(),
            deadline_misses: results.iter().filter(|r| !r.deadline_met).count(),
            worst_completion: results.iter().filter_map(|r| r.completion).max(),
            max_dropped_ops: results.iter().map(|r| r.dropped_ops).max().unwrap_or(0),
            wasted_work: results
                .iter()
                .fold(Time::ZERO, |acc, r| acc + r.wasted_work),
        }
    }
}

/// One processor-failure subset size within the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizeSummary {
    /// Number of simultaneous processor failures.
    pub size: u32,
    /// True when every subset of this size was enumerated (a survived
    /// exhaustive size is a proof for that size, not an estimate).
    pub exhaustive: bool,
    /// Aggregated results.
    pub group: GroupSummary,
}

/// The Goemans/Lynch/Saias-style bound check (DESIGN.md §10).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    /// The design lower bound: the problem's `Npf`.
    pub design_npf: u32,
    /// The counting upper bound: `min` over operations of (distinct
    /// replica-hosting processors − 1).
    pub counting_upper: u32,
    /// Largest `k` such that every size `1..=k` was exhaustively swept
    /// with all subsets surviving.
    pub empirical_max: u32,
    /// `design_npf ≤ empirical_max ≤ counting_upper`.
    pub pass: bool,
}

/// The campaign's aggregated reliability report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityReport {
    /// Total scenarios replayed.
    pub scenario_count: usize,
    /// Completion of the fault-free baseline.
    pub nominal_completion: Option<Time>,
    /// Deadline used for the miss counts.
    pub deadline: Time,
    /// Per-size processor-failure sweeps, ascending size.
    pub sizes: Vec<SizeSummary>,
    /// Link-failure sweep (when enabled).
    pub link_sweep: Option<GroupSummary>,
    /// Timing-jitter sweep (when enabled).
    pub jitter_sweep: Option<GroupSummary>,
    /// The bound check.
    pub certificate: Certificate,
}

/// Folds per-scenario results (index-aligned with `scenarios`) into the
/// report. Deterministic: depends only on the slices' contents.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn assemble(
    problem: &Problem,
    schedule: &Schedule,
    config: &ScenarioConfig,
    scenarios: &[Scenario],
    results: &[ScenarioResult],
) -> ReliabilityReport {
    assert_eq!(scenarios.len(), results.len(), "index-aligned slices");

    let deadline = config.deadline.unwrap_or_else(|| schedule.completion());
    let nominal = scenarios
        .iter()
        .zip(results)
        .find(|(s, _)| s.kind == ScenarioKind::Nominal)
        .and_then(|(_, r)| r.completion);

    let max_size = scenarios
        .iter()
        .filter(|s| matches!(s.kind, ScenarioKind::Exhaustive | ScenarioKind::Sampled))
        .map(|s| s.size())
        .max()
        .unwrap_or(0);
    let mut sizes = Vec::new();
    for k in 1..=max_size {
        let group: Vec<&ScenarioResult> = scenarios
            .iter()
            .zip(results)
            .filter(|(s, _)| {
                matches!(s.kind, ScenarioKind::Exhaustive | ScenarioKind::Sampled) && s.size() == k
            })
            .map(|(_, r)| r)
            .collect();
        if group.is_empty() {
            continue;
        }
        let exhaustive = scenarios
            .iter()
            .filter(|s| s.size() == k)
            .all(|s| s.kind != ScenarioKind::Sampled)
            && group.len() as u128 == binomial(problem.arch().proc_count(), k);
        sizes.push(SizeSummary {
            size: k as u32,
            exhaustive,
            group: GroupSummary::fold(&group),
        });
    }

    let sweep = |kind: ScenarioKind| -> Option<GroupSummary> {
        let group: Vec<&ScenarioResult> = scenarios
            .iter()
            .zip(results)
            .filter(|(s, _)| s.kind == kind)
            .map(|(_, r)| r)
            .collect();
        (!group.is_empty()).then(|| GroupSummary::fold(&group))
    };

    // Counting upper bound: the least replicated operation caps tolerance.
    let counting_upper = (0..schedule.op_count())
        .map(|op| {
            let mut hosts: Vec<ProcId> = schedule
                .replicas_of(ftbar_model::OpId(op as u32))
                .iter()
                .map(|&r| schedule.replica(r).proc)
                .collect();
            hosts.sort();
            hosts.dedup();
            (hosts.len() as u32).saturating_sub(1)
        })
        .min()
        .unwrap_or(0);

    let mut empirical_max = 0u32;
    for s in &sizes {
        if s.exhaustive && s.group.survived == s.group.scenarios && s.size == empirical_max + 1 {
            empirical_max = s.size;
        } else {
            break;
        }
    }

    let design_npf = problem.npf();
    ReliabilityReport {
        scenario_count: scenarios.len(),
        nominal_completion: nominal,
        deadline,
        sizes,
        link_sweep: sweep(ScenarioKind::Link),
        jitter_sweep: sweep(ScenarioKind::Jitter),
        certificate: Certificate {
            design_npf,
            counting_upper,
            empirical_max,
            pass: design_npf <= empirical_max && empirical_max <= counting_upper,
        },
    }
}

fn push_group(out: &mut String, label: &str, g: &GroupSummary) {
    out.push_str(&format!(
        "{label}: {}/{} survived, {} deadline miss(es), worst completion {}, max dropped ops {}, wasted work {}\n",
        g.survived,
        g.scenarios,
        g.deadline_misses,
        g.worst_completion
            .map_or_else(|| "-".to_string(), |t| t.to_string()),
        g.max_dropped_ops,
        g.wasted_work,
    ));
}

/// Renders the human-readable report, ending in the certificate line.
pub fn render_text(report: &ReliabilityReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "reliability report: {} scenario(s), deadline {}, nominal completion {}\n",
        report.scenario_count,
        report.deadline,
        report
            .nominal_completion
            .map_or_else(|| "-".to_string(), |t| t.to_string()),
    ));
    for s in &report.sizes {
        let label = format!(
            "  {} k={}",
            if s.exhaustive {
                "exhaustive"
            } else {
                "sampled   "
            },
            s.size
        );
        push_group(&mut out, &label, &s.group);
    }
    if let Some(g) = &report.link_sweep {
        push_group(&mut out, "  links        ", g);
    }
    if let Some(g) = &report.jitter_sweep {
        push_group(&mut out, "  jitter       ", g);
    }
    let c = &report.certificate;
    out.push_str(&format!(
        "certificate: {} (design Npf {} <= empirical max {} <= counting upper {})\n",
        if c.pass { "PASS" } else { "FAIL" },
        c.design_npf,
        c.empirical_max,
        c.counting_upper,
    ));
    out
}

fn json_group(g: &GroupSummary) -> String {
    JsonObject::new()
        .raw("scenarios", g.scenarios)
        .raw("survived", g.survived)
        .raw("deadline_misses", g.deadline_misses)
        .opt("worst_completion", g.worst_completion)
        .raw("max_dropped_ops", g.max_dropped_ops)
        .raw("wasted_work", g.wasted_work)
        .finish()
}

/// Renders the report as stable JSON (fixed key order; times as decimal
/// unit numbers).
pub fn render_json(report: &ReliabilityReport) -> String {
    let sizes = report.sizes.iter().map(|s| {
        JsonObject::new()
            .raw("size", s.size)
            .raw("exhaustive", s.exhaustive)
            .raw("group", json_group(&s.group))
            .finish()
    });
    let c = &report.certificate;
    let certificate = JsonObject::new()
        .raw("design_npf", c.design_npf)
        .raw("counting_upper", c.counting_upper)
        .raw("empirical_max", c.empirical_max)
        .raw("pass", c.pass)
        .finish();
    JsonObject::multiline()
        .raw("scenario_count", report.scenario_count)
        .opt("nominal_completion", report.nominal_completion)
        .raw("deadline", report.deadline)
        .array("sizes", sizes)
        .opt("link_sweep", report.link_sweep.as_ref().map(json_group))
        .opt("jitter_sweep", report.jitter_sweep.as_ref().map(json_group))
        .raw("certificate", certificate)
        .finish()
}

/// Generates, evaluates (serially), and assembles a whole campaign.
///
/// The parallel equivalent lives in `ftbar-service` (`run_campaign`);
/// both produce identical reports.
pub fn run(problem: &Problem, schedule: &Schedule, config: &ScenarioConfig) -> ReliabilityReport {
    let scenarios = generate(problem, schedule, config);
    let deadline = config.deadline.unwrap_or_else(|| schedule.completion());
    let plan = ReplayPlan::new(problem, schedule);
    let results: Vec<ScenarioResult> = scenarios
        .iter()
        .map(|s| evaluate(&plan, s, deadline))
        .collect();
    assemble(problem, schedule, config, &scenarios, &results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_core::ftbar;
    use ftbar_model::paper_example;

    fn setup() -> (Problem, Schedule) {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        (p, s)
    }

    #[test]
    fn binomial_matches_pascal() {
        assert_eq!(binomial(3, 1), 3);
        assert_eq!(binomial(3, 2), 3);
        assert_eq!(binomial(6, 3), 20);
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(2, 5), 0);
        assert!(binomial(64, 32) > 1 << 60);
    }

    #[test]
    fn generation_is_exhaustive_through_npf() {
        let (p, s) = setup();
        let cfg = ScenarioConfig {
            beyond: 0,
            ..Default::default()
        };
        let scenarios = generate(&p, &s, &cfg);
        // Nominal + C(3,1) single-failure subsets.
        assert_eq!(scenarios.len(), 1 + 3);
        assert_eq!(scenarios[0].kind, ScenarioKind::Nominal);
        let singles: Vec<ProcId> = scenarios[1..]
            .iter()
            .map(|sc| {
                assert_eq!(sc.kind, ScenarioKind::Exhaustive);
                assert_eq!(sc.procs.len(), 1);
                assert_eq!(sc.procs[0].1, Time::ZERO);
                sc.procs[0].0
            })
            .collect();
        assert_eq!(singles, vec![ProcId(0), ProcId(1), ProcId(2)]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (p, s) = setup();
        let cfg = ScenarioConfig {
            beyond: 2,
            links: true,
            jitter_samples: 3,
            exhaustive_cap: 0,
            ..Default::default()
        };
        assert_eq!(generate(&p, &s, &cfg), generate(&p, &s, &cfg));
        let other = ScenarioConfig { seed: 1, ..cfg };
        assert_ne!(generate(&p, &s, &cfg), generate(&p, &s, &other));
    }

    #[test]
    fn beyond_npf_sizes_sample_when_over_cap() {
        let (p, s) = setup();
        let cfg = ScenarioConfig {
            beyond: 1,
            exhaustive_cap: 0,
            samples_per_size: 5,
            ..Default::default()
        };
        let scenarios = generate(&p, &s, &cfg);
        let sampled: Vec<&Scenario> = scenarios
            .iter()
            .filter(|sc| sc.kind == ScenarioKind::Sampled)
            .collect();
        assert_eq!(sampled.len(), 5);
        for sc in sampled {
            assert_eq!(sc.procs.len(), 2, "size Npf+1 on the paper example");
            let mut procs: Vec<ProcId> = sc.procs.iter().map(|&(p, _)| p).collect();
            procs.dedup();
            assert_eq!(procs.len(), 2, "distinct processors");
        }
    }

    #[test]
    fn paper_example_certificate_passes() {
        let (p, s) = setup();
        let report = run(&p, &s, &ScenarioConfig::default());
        assert_eq!(report.certificate.design_npf, 1);
        assert_eq!(report.certificate.empirical_max, 1);
        assert!(report.certificate.pass);
        assert!(report.sizes[0].exhaustive);
        assert_eq!(
            report.sizes[0].group.survived,
            report.sizes[0].group.scenarios
        );
        // Size 2 kills two of three processors: at least one op must drop.
        assert!(report.sizes[1].group.survived < report.sizes[1].group.scenarios);
        let text = render_text(&report);
        assert!(text.contains("certificate: PASS"), "{text}");
    }

    #[test]
    fn nominal_scenario_meets_deadline_with_zero_waste_structure() {
        let (p, s) = setup();
        let scenarios = generate(&p, &s, &ScenarioConfig::default());
        let r = evaluate(&ReplayPlan::new(&p, &s), &scenarios[0], s.completion());
        assert!(r.survived());
        assert!(r.deadline_met);
        assert_eq!(r.dropped_ops, 0);
        assert_eq!(r.comms_cancelled, 0);
        // Npf = 1 duplicates every op: replication overhead is real work.
        assert!(r.wasted_work > Time::ZERO);
        assert!(r.useful_work > Time::ZERO);
    }

    #[test]
    fn jitter_scenarios_survive_and_stretch() {
        let (p, s) = setup();
        let cfg = ScenarioConfig {
            beyond: 0,
            jitter_samples: 4,
            jitter_frac: 0.5,
            ..Default::default()
        };
        let report = run(&p, &s, &cfg);
        let jitter = report.jitter_sweep.expect("jitter sweep present");
        assert_eq!(jitter.survived, jitter.scenarios);
        assert!(
            jitter.worst_completion.unwrap() >= report.nominal_completion.unwrap(),
            "jitter only delays"
        );
    }

    #[test]
    fn link_sweep_reports_on_paper_example() {
        let (p, s) = setup();
        let cfg = ScenarioConfig {
            beyond: 0,
            links: true,
            ..Default::default()
        };
        let scenarios = generate(&p, &s, &cfg);
        // 3 single-link scenarios + 3 sampled link+proc combos.
        let links: Vec<&Scenario> = scenarios
            .iter()
            .filter(|sc| sc.kind == ScenarioKind::Link)
            .collect();
        assert_eq!(links.len(), 6);
        assert!(links[3..].iter().all(|sc| sc.procs.len() == 1));
        let report = run(&p, &s, &cfg);
        assert_eq!(report.link_sweep.unwrap().scenarios, 6);
    }

    #[test]
    fn json_render_is_stable_and_wellformed() {
        let (p, s) = setup();
        let report = run(&p, &s, &ScenarioConfig::default());
        let a = render_json(&report);
        let b = render_json(&run(&p, &s, &ScenarioConfig::default()));
        assert_eq!(a, b);
        assert!(a.contains("\"certificate\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }
}
