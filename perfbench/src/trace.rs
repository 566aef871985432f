//! Traced replay. The program is not instrumented: the benchmark replays
//! the same seeded inputs in-process through each layer's public function
//! and records a span around every call — name, start, end, parent and
//! request id — kept in memory and written out when the run ends.
//!
//! Calls nested inside the library (`ProblemBuilder::build` inside
//! `parse_problem`, `RouteTable::build` inside `build`, `Pressure::new`
//! inside the scheduler) cannot get a span of their own from outside, so
//! each is replayed once more on the same input right after its parent
//! and recorded as the parent's child. A layer's self time is its span's
//! duration minus its children's.
//!
//! Layers a workload's requests never pass through are still replayed on
//! that workload's inputs, marked off-path, so every layer has a number on
//! every workload; only on-path spans count toward a class's latency.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use ftbar_core::reschedule::{reschedule, schedule_retained, RepairReport, ScheduleArtifacts};
use ftbar_core::{ftbar, gantt, validate, FtbarConfig, Pressure, Schedule, SweepStats};
use ftbar_model::{spec, Problem, RouteTable};
use ftbar_service::cache::{canonical_key, ResponseCache};
use ftbar_service::persist::{read_snapshot, write_snapshot, SnapshotData};
use ftbar_service::proto::{parse_request, render_ok, Request};
use ftbar_service::{JobResult, SchedulerKind};

use crate::drive::{self, Daemon, Opts, Pass, EDIT_SNAPSHOT};
use crate::stats::{json_u64, median};
use crate::stream::{
    cli_specs, make_edit, schedule_line, EditStream, Kind, Rng, SmallStream, Step,
};
use crate::Workload;

/// Span names and the per-layer metric each feeds.
pub const LAYERS: [(&str, &str); 15] = [
    ("proto.decode", "proto.decode_ms"),
    ("cache.raw_key", "cache.raw_key_ms"),
    ("cache.get", "cache.get_ms"),
    ("spec.parse", "spec.parse_ms"),
    ("problem.build", "problem.build_ms"),
    ("routes.build", "routes.build_ms"),
    ("pressure.new", "pressure.new_ms"),
    ("ftbar.schedule", "ftbar.schedule_ms"),
    ("reschedule.repair", "reschedule.repair_ms"),
    ("validate", "validate.ms"),
    ("gantt.render", "gantt.render_ms"),
    ("cache.key", "cache.key_ms"),
    ("proto.render", "proto.render_ms"),
    ("cache.insert", "cache.insert_ms"),
    ("persist.restore", "persist.restore_ms"),
];

/// Request id of spans that belong to no request (snapshot restore).
const NO_REQUEST: u64 = u64::MAX;
/// Snapshot reads timed per run; `persist.restore_ms` is their median.
const RESTORE_REPS: usize = 5;
/// Off-path repairs replayed per workload that has no edits of its own.
const OFFPATH_REPAIRS: usize = 8;
/// The width `ftbar-cli schedule` renders its Gantt chart at.
const GANTT_WIDTH: usize = 100;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    on_path: bool,
}

/// In-memory span recorder. Disabled, it runs the closures unrecorded.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    req: u64,
    enabled: bool,
    on_path: bool,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            req: 0,
            enabled: false,
            on_path: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// the span's index (`None` when disabled).
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Option<usize>) {
        self.child(None, name, f)
    }

    /// Like [`Tracer::span`], recorded as a child of `parent`.
    fn child<T>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: self.req,
            parent,
            start_ns,
            end_ns,
            on_path: self.on_path,
        });
        (out, Some(self.spans.len() - 1))
    }

    /// Per-span self time, ms: duration minus the children's durations.
    fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// The spans as JSON lines.
    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let req = if s.req == NO_REQUEST {
                "null".to_owned()
            } else {
                s.req.to_string()
            };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"req\": {req}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"on_path\": {}}}",
                s.name, s.start_ns, s.end_ns, s.on_path
            );
        }
        out
    }
}

/// One replayed request; its index is the request id of its spans.
struct Op {
    kind: Kind,
    /// Wall time of the request's layer chain run without and with span
    /// recording, ms.
    untraced_ms: f64,
    traced_ms: f64,
    /// The same request sent to the real program (a CLI invocation, or a
    /// frame to a live daemon in the replay's state) right before the
    /// replay, ms. Adjacent in time, it is compared with this replay's
    /// layers.
    e2e_ms: f64,
}

/// The daemon's state as the replay sees it: a real response cache with
/// the daemon's default budget and a 32-slot FIFO artifact store.
struct Mirror {
    cache: ResponseCache,
    artifacts: HashMap<String, Arc<ScheduleArtifacts>>,
    order: VecDeque<String>,
}

impl Mirror {
    fn new() -> Self {
        Mirror {
            cache: ResponseCache::new(8 * 1024 * 1024),
            artifacts: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn retain(&mut self, key: String, artifacts: Arc<ScheduleArtifacts>) {
        if self.artifacts.insert(key.clone(), artifacts).is_none() {
            self.order.push_back(key);
            while self.order.len() > 32 {
                let old = self.order.pop_front().expect("non-empty");
                self.artifacts.remove(&old);
            }
        }
    }
}

/// A request that produced a schedule, with what its off-path and child
/// replays need.
struct Scheduled {
    parsed: Problem,
    parse_span: Option<usize>,
    schedule: Schedule,
    artifacts: Arc<ScheduleArtifacts>,
    sched_span: Option<usize>,
    /// Repair report and the parent's step count, for repaired edits.
    repair: Option<(RepairReport, usize)>,
}

fn result_of(problem: &Problem, schedule: &Schedule, include_schedule: bool) -> JobResult {
    JobResult {
        scheduler: SchedulerKind::Ftbar,
        npf: problem.npf(),
        ops: problem.alg().op_count(),
        procs: problem.arch().proc_count(),
        makespan: schedule.makespan(),
        completion: schedule.completion(),
        replicas: schedule.replica_count(),
        comms: schedule.comm_count(),
        rtc_met: problem.rtc().map(|rtc| schedule.makespan() <= rtc),
        schedule: include_schedule.then(|| schedule.clone()),
    }
}

fn key_of(problem: &Problem, include_schedule: bool) -> String {
    canonical_key(problem, SchedulerKind::Ftbar, "adaptive", include_schedule)
}

/// The daemon's path for one frame, layer by layer. `None` for a cache
/// hit. With `mutate` off the cache and artifact store are left as they
/// were, so the same frame can be replayed twice.
fn daemon_chain(t: &mut Tracer, m: &mut Mirror, line: &str, mutate: bool) -> Option<Scheduled> {
    let (req, _) = t.span("proto.decode", || parse_request(line.trim_end()));
    let req = req.expect("benchmark frames parse");
    let (raw, _) = t.span("cache.raw_key", || match &req {
        Request::Schedule(r) => r.raw_key(),
        Request::Reschedule(r) => r.raw_key(),
        _ => unreachable!("the benchmark sends only schedule and reschedule frames"),
    });
    let (hit, _) = t.span("cache.get", || m.cache.get_raw(&raw));
    if let Some(body) = hit {
        black_box(body);
        return None;
    }
    let (base, edit) = match req {
        Request::Schedule(r) => (r, None),
        Request::Reschedule(r) => (r.base, Some(r.edit)),
        _ => unreachable!(),
    };
    let include = base.include_schedule;
    let config = FtbarConfig::default();
    let (parsed, parse_span) = t.span("spec.parse", || spec::parse_problem(&base.spec));
    let parsed = parsed.expect("benchmark specs parse");
    let parent = edit.as_ref().map(|_| {
        let (key, _) = t.span("cache.key", || key_of(&parsed, include));
        m.artifacts.get(&key).cloned()
    });
    let (schedule, artifacts, repair, sched_span) = match (edit, parent.flatten()) {
        (Some(edit), Some(prev)) => {
            let (out, span) = t.span("reschedule.repair", || reschedule(&prev, &edit));
            let out = out.expect("timing tweaks repair");
            let report = (out.report, prev.step_count());
            (out.schedule, out.artifacts, Some(report), span)
        }
        (edit, _) => {
            let problem = match edit {
                Some(e) => e.apply(&parsed).expect("timing tweaks apply"),
                None => parsed.clone(),
            };
            let (out, span) = t.span("ftbar.schedule", || schedule_retained(&problem, &config));
            let (schedule, artifacts) = out.expect("benchmark specs schedule");
            (schedule, artifacts, None, span)
        }
    };
    let (canonical, _) = t.span("cache.key", || key_of(artifacts.problem(), include));
    let result = result_of(artifacts.problem(), &schedule, include);
    let (body, _) = t.span("proto.render", || render_ok(None, &result, false));
    let artifacts = Arc::new(artifacts);
    if mutate {
        t.span("cache.insert", || {
            m.cache.insert(&raw, &canonical, &Arc::from(body.as_str()))
        });
        if artifacts.step_count() > 0 {
            m.retain(canonical, Arc::clone(&artifacts));
        }
    }
    Some(Scheduled {
        parsed,
        parse_span,
        schedule,
        artifacts,
        sched_span,
        repair,
    })
}

/// Replays of the calls nested inside parse (`p` is what it returned)
/// and inside the scheduler (`scheduled` is the problem it scheduled).
fn replay_children(
    t: &mut Tracer,
    p: &Problem,
    parse_span: Option<usize>,
    scheduled: &Problem,
    sched_span: Option<usize>,
) {
    let (alg, arch, exec, comm) = (
        p.alg().clone(),
        p.arch().clone(),
        p.exec().clone(),
        p.comm().clone(),
    );
    let (built, build_span) = t.child(parse_span, "problem.build", || {
        let mut b = Problem::builder(alg, arch, exec, comm);
        if let Some(rtc) = p.rtc() {
            b.rtc(rtc);
        }
        b.npf(p.npf());
        b.build()
    });
    black_box(built.expect("parsed parts build"));
    t.child(build_span, "routes.build", || {
        black_box(RouteTable::build(p.arch(), p.npf() as usize + 1))
    });
    t.child(sched_span, "pressure.new", || {
        black_box(Pressure::new(scheduled))
    });
}

/// Off-path: validation and rendering of a daemon answer's schedule.
fn offpath_check_render(t: &mut Tracer, problem: &Problem, schedule: &Schedule) {
    t.on_path = false;
    let (v, _) = t.span("validate", || validate::validate(problem, schedule));
    black_box(v);
    t.span("gantt.render", || {
        black_box(gantt::render(problem, schedule, GANTT_WIDTH))
    });
    t.on_path = true;
}

/// Off-path: a seeded timing tweak repaired from retained artifacts.
fn offpath_repair(t: &mut Tracer, rng: &mut Rng, prev: &ScheduleArtifacts) -> RepairReport {
    let edit = make_edit(rng, prev.problem());
    t.on_path = false;
    let (out, span) = t.span("reschedule.repair", || reschedule(prev, &edit));
    let out = out.expect("timing tweaks repair");
    t.child(span, "pressure.new", || {
        black_box(Pressure::new(out.artifacts.problem()))
    });
    t.on_path = true;
    out.report
}

/// Everything one traced run measured.
pub struct Replay {
    tracer: Tracer,
    ops: Vec<Op>,
    /// Sweep counters of every replayed request that scheduled.
    sweeps: Vec<(Kind, SweepStats)>,
    /// `(steps replayed, parent steps)` of every repair.
    replayed: Vec<(usize, usize)>,
    /// Off-path repairs that repaired / attempted.
    offpath_repairs: (usize, usize),
}

impl Replay {
    fn new() -> Self {
        Replay {
            tracer: Tracer::new(),
            ops: Vec::new(),
            sweeps: Vec::new(),
            replayed: Vec::new(),
            offpath_repairs: (0, 0),
        }
    }

    fn begin(&mut self, kind: Kind) {
        self.tracer.req = self.ops.len() as u64;
        self.ops.push(Op {
            kind,
            untraced_ms: 0.0,
            traced_ms: 0.0,
            e2e_ms: f64::NAN,
        });
    }

    fn note_repair(&mut self, report: &RepairReport, parent_steps: usize) {
        self.replayed.push((report.steps_replayed(), parent_steps));
    }

    /// One daemon frame: sent to the live daemon, replayed untraced
    /// without mutation, then traced, then the child and off-path replays.
    fn daemon_op(
        &mut self,
        live: &mut Daemon,
        m: &mut Mirror,
        step: &Step,
        rng: &mut Rng,
        with_repair: bool,
    ) -> io::Result<()> {
        self.begin(step.kind);
        let (answer, e2e, _) = live.call_timed(&step.line)?;
        if !drive::is_ok(&answer) {
            return Err(io::Error::other(format!(
                "live daemon answered {}: {answer:.160}",
                step.kind.name()
            )));
        }
        self.tracer.enabled = false;
        let t0 = Instant::now();
        black_box(daemon_chain(&mut self.tracer, m, &step.line, false).is_some());
        let untraced = t0.elapsed().as_secs_f64() * 1e3;
        self.tracer.enabled = true;
        let t0 = Instant::now();
        let scheduled = daemon_chain(&mut self.tracer, m, &step.line, true);
        let traced = t0.elapsed().as_secs_f64() * 1e3;
        let op = self.ops.last_mut().expect("begun");
        op.untraced_ms = untraced;
        op.traced_ms = traced;
        op.e2e_ms = e2e;
        let Some(s) = scheduled else { return Ok(()) };
        replay_children(
            &mut self.tracer,
            &s.parsed,
            s.parse_span,
            s.artifacts.problem(),
            s.sched_span,
        );
        offpath_check_render(&mut self.tracer, s.artifacts.problem(), &s.schedule);
        if let Some((report, parent_steps)) = &s.repair {
            self.note_repair(report, *parent_steps);
        }
        if with_repair && s.artifacts.step_count() > 0 {
            let report = offpath_repair(&mut self.tracer, rng, &s.artifacts);
            self.note_repair(&report, s.artifacts.step_count());
            self.offpath_repairs.1 += 1;
            self.offpath_repairs.0 += usize::from(!report.fell_back);
        }
        self.sweeps
            .push((step.kind, ftbar::sweep_stats_for(s.artifacts.problem())));
        Ok(())
    }

    /// Times reading a snapshot file, [`RESTORE_REPS`] times.
    fn restore(&mut self, path: &str, on_path: bool) -> io::Result<()> {
        self.tracer.req = NO_REQUEST;
        self.tracer.on_path = on_path;
        for _ in 0..RESTORE_REPS {
            let (r, _) = self
                .tracer
                .span("persist.restore", || read_snapshot(path.as_ref()));
            black_box(r?.ok_or_else(|| io::Error::other("snapshot vanished"))?);
        }
        self.tracer.on_path = true;
        Ok(())
    }

    /// Off-path restore: a snapshot of the mirror cache, written then read.
    fn offpath_restore(&mut self, m: &Mirror) -> io::Result<()> {
        let (cache_entries, memos) = m.cache.export();
        let data = SnapshotData {
            cache_entries,
            memos,
            poisoned: Vec::new(),
            seeds: Vec::new(),
        };
        write_snapshot("replay.snap".as_ref(), &data)?;
        self.restore("replay.snap", false)
    }
}

/// Requests replayed per workload (after the untraced warm-up).
fn replay_len(w: Workload, tiny: bool) -> usize {
    match (w, tiny) {
        (Workload::CliLarge, true) => 2,
        (Workload::CliLarge, false) => 4,
        (Workload::DaemonEdit, true) => 20,
        (Workload::DaemonEdit, false) => 200,
        (Workload::DaemonSmall, true) => 20,
        (Workload::DaemonSmall, false) => 300,
    }
}

fn replay_cli(o: &Opts) -> io::Result<Replay> {
    let mut r = Replay::new();
    let mut m = Mirror::new();
    let mut rng = Rng::new(o.seed ^ 0x7EAC_E000);
    let specs = cli_specs(o.tiny);
    let order = if o.seed.is_multiple_of(2) {
        [0, 1]
    } else {
        [1, 0]
    };
    let texts: Vec<String> = specs
        .iter()
        .map(|(k, _)| std::fs::read_to_string(drive::spec_file(*k)))
        .collect::<io::Result<_>>()?;
    let config = FtbarConfig::default();
    for i in 0..replay_len(Workload::CliLarge, o.tiny) {
        let which = order[i % 2];
        let (kind, text) = (specs[which].0, &texts[which]);
        r.begin(kind);
        let (e2e, _) = drive::cli_schedule(&o.cli, kind).map_err(io::Error::other)?;
        let chain = |t: &mut Tracer| {
            let (p, parse_span) = t.span("spec.parse", || spec::parse_problem(text));
            let p = p.expect("cli specs parse");
            let (out, sched_span) = t.span("ftbar.schedule", || ftbar::schedule_with(&p, &config));
            let out = out.expect("cli specs schedule");
            let (v, _) = t.span("validate", || validate::validate(&p, &out.schedule));
            assert!(v.is_empty(), "cli specs validate");
            t.span("gantt.render", || {
                black_box(gantt::render(&p, &out.schedule, GANTT_WIDTH))
            });
            (p, parse_span, out, sched_span)
        };
        r.tracer.enabled = false;
        let t0 = Instant::now();
        black_box(chain(&mut r.tracer));
        let untraced = t0.elapsed().as_secs_f64() * 1e3;
        r.tracer.enabled = true;
        let t0 = Instant::now();
        let (p, parse_span, out, sched_span) = chain(&mut r.tracer);
        let traced = t0.elapsed().as_secs_f64() * 1e3;
        let op = r.ops.last_mut().expect("begun");
        op.untraced_ms = untraced;
        op.traced_ms = traced;
        op.e2e_ms = e2e;
        let stats = out
            .sweep_stats
            .expect("large specs use the incremental sweep");
        r.sweeps.push((kind, stats));

        // Children, then the daemon's layers off-path on the same spec.
        replay_children(&mut r.tracer, &p, parse_span, &p, sched_span);
        let line = schedule_line(text, false);
        r.tracer.on_path = false;
        let (req, _) = r
            .tracer
            .span("proto.decode", || parse_request(line.trim_end()));
        let Ok(Request::Schedule(req)) = req else {
            unreachable!("schedule frames decode")
        };
        let (raw, _) = r.tracer.span("cache.raw_key", || req.raw_key());
        r.tracer
            .span("cache.get", || black_box(m.cache.get_raw(&raw)));
        let (canonical, _) = r.tracer.span("cache.key", || key_of(&p, false));
        let result = result_of(&p, &out.schedule, false);
        let (body, _) = r
            .tracer
            .span("proto.render", || render_ok(None, &result, false));
        r.tracer.span("cache.insert", || {
            m.cache.insert(&raw, &canonical, &Arc::from(body.as_str()))
        });
        r.tracer.on_path = true;
        if i < 2 {
            let (_, artifacts) = schedule_retained(&p, &config).expect("cli specs schedule");
            let report = offpath_repair(&mut r.tracer, &mut rng, &artifacts);
            r.note_repair(&report, artifacts.step_count());
            r.offpath_repairs.1 += 1;
            r.offpath_repairs.0 += usize::from(!report.fell_back);
        }
    }
    r.offpath_restore(&m)?;
    Ok(r)
}

fn replay_edit(o: &Opts) -> io::Result<Replay> {
    let mut r = Replay::new();
    let mut m = Mirror::new();
    let mut rng = Rng::new(o.seed ^ 0x7EAC_E000);
    let mut stream = EditStream::new(o.seed, drive::edit_sizes(o.tiny));
    // The state the timed daemon generation starts from, untraced, in the
    // mirror and in a live daemon restored from the same snapshot.
    let mut quiet = Tracer::new();
    for step in stream.opens() {
        daemon_chain(&mut quiet, &mut m, &step.line, true);
    }
    std::fs::copy(EDIT_SNAPSHOT, "live.snap")?;
    let (mut live, _) = Daemon::start(&o.cli, Some("live.snap"))?;
    for _ in 0..drive::edit_warmup(o.tiny) {
        let step = stream.next_step();
        live.call_timed(&step.line)?;
        daemon_chain(&mut quiet, &mut m, &step.line, true);
    }
    for _ in 0..replay_len(Workload::DaemonEdit, o.tiny) {
        let step = stream.next_step();
        r.daemon_op(&mut live, &mut m, &step, &mut rng, false)?;
    }
    live.stop()?;
    r.restore(EDIT_SNAPSHOT, true)?;
    Ok(r)
}

fn replay_small(o: &Opts) -> io::Result<Replay> {
    let mut r = Replay::new();
    let mut m = Mirror::new();
    let mut rng = Rng::new(o.seed ^ 0x7EAC_E000);
    let mut stream = SmallStream::new(o.seed);
    let mut quiet = Tracer::new();
    let (mut live, _) = Daemon::start(&o.cli, None)?;
    for _ in 0..drive::small_warmup(o.tiny) {
        let step = stream.next_step();
        live.call_timed(&step.line)?;
        daemon_chain(&mut quiet, &mut m, &step.line, true);
    }
    for i in 0..replay_len(Workload::DaemonSmall, o.tiny) {
        let step = stream.next_step();
        r.daemon_op(&mut live, &mut m, &step, &mut rng, i < OFFPATH_REPAIRS)?;
    }
    live.stop()?;
    r.offpath_restore(&m)?;
    Ok(r)
}

/// Runs the traced replay of `w`. The run directory must hold what the
/// untraced pass of the same run left (specs, snapshot).
pub fn replay(w: Workload, o: &Opts) -> io::Result<Replay> {
    match w {
        Workload::CliLarge => replay_cli(o),
        Workload::DaemonEdit => replay_edit(o),
        Workload::DaemonSmall => replay_small(o),
    }
}

/// Per-layer metrics, the printed per-class table and the span dump.
pub struct LayerReport {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub table: String,
    pub spans_jsonl: String,
}

pub fn report(w: Workload, pass: &Pass, r: &Replay) -> LayerReport {
    let self_ms = r.tracer.self_ms();
    // (req, layer, on_path) -> summed self time.
    let mut per_op: HashMap<(u64, &str, bool), f64> = HashMap::new();
    let mut restore = Vec::new();
    for (s, ms) in r.tracer.spans.iter().zip(&self_ms) {
        if s.req == NO_REQUEST {
            restore.push(*ms);
        } else {
            *per_op.entry((s.req, s.name, s.on_path)).or_default() += ms;
        }
    }
    let values = |layer: &str, on_path: bool, kind: Option<Kind>| -> Vec<f64> {
        let mut v: Vec<(u64, f64)> = per_op
            .iter()
            .filter(|((req, name, on), _)| {
                *name == layer
                    && *on == on_path
                    && kind.is_none_or(|k| r.ops[*req as usize].kind == k)
            })
            .map(|((req, _, _), ms)| (*req, *ms))
            .collect();
        v.sort_by_key(|(req, _)| *req);
        v.into_iter().map(|(_, ms)| ms).collect()
    };

    // The JSON value of a layer is its median self time per call on the
    // main class's path when most of that class calls it; failing that on
    // any class's path, then off the path.
    let main = w.main_kind();
    let main_ops = r.ops.iter().filter(|op| op.kind == main).count();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    for (layer, metric) in LAYERS {
        let value = if layer == "persist.restore" {
            median(&restore)
        } else {
            let on_main = values(layer, true, Some(main));
            let v = if 2 * on_main.len() > main_ops {
                on_main
            } else {
                [(true, None), (false, Some(main)), (false, None)]
                    .iter()
                    .map(|&(on, kind)| values(layer, on, kind))
                    .find(|v| !v.is_empty())
                    .unwrap_or_default()
            };
            median(&v)
        };
        metrics.push((metric.to_owned(), value, "ms"));
    }

    let main_sweeps: Vec<&SweepStats> = r
        .sweeps
        .iter()
        .filter(|(k, _)| *k == main)
        .map(|(_, s)| s)
        .collect();
    let sum = |f: fn(&SweepStats) -> u64| main_sweeps.iter().map(|s| f(s)).sum::<u64>() as f64;
    let per_op = |f: fn(&SweepStats) -> u64| {
        median(&main_sweeps.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let probes = sum(|s| s.probes).max(1.0);
    metrics.push(("sweep.probes".into(), per_op(|s| s.probes), "count"));
    metrics.push(("sweep.recomputes".into(), per_op(|s| s.recomputes), "count"));
    metrics.push((
        "sweep.skipped_ops".into(),
        per_op(|s| s.skipped_ops),
        "count",
    ));
    metrics.push((
        "sweep.reuse_ratio".into(),
        (sum(|s| s.version_hits) + sum(|s| s.replay_hits)) / probes,
        "ratio",
    ));
    metrics.push((
        "sweep.orbit_ratio".into(),
        sum(|s| s.orbit_hits) / probes,
        "ratio",
    ));
    let replayed = median(
        &r.replayed
            .iter()
            .map(|(done, total)| *done as f64 / (*total).max(1) as f64)
            .collect::<Vec<_>>(),
    );
    metrics.push(("reschedule.replayed_ratio".into(), replayed, "ratio"));

    let status = pass.status.as_deref().unwrap_or("");
    let counter = |key: &str| json_u64(status, key).unwrap_or(0) as f64;
    let repair_ratio = if w == Workload::DaemonEdit {
        counter("repairs") / (counter("repairs") + counter("fallbacks")).max(1.0)
    } else {
        r.offpath_repairs.0 as f64 / r.offpath_repairs.1.max(1) as f64
    };
    metrics.push(("reschedule.repair_ratio".into(), repair_ratio, "ratio"));
    metrics.push((
        "cache.hit_ratio".into(),
        counter("hits") / (counter("hits") + counter("misses")).max(1.0),
        "ratio",
    ));
    metrics.push(("cache.evictions".into(), counter("evictions"), "count"));

    // Per class: on-path layer self-time medians against the e2e median.
    let mut table = String::new();
    let mut overhead = HashMap::new();
    let mut trace_overhead = HashMap::new();
    let front = if w == Workload::CliLarge {
        "cli.overhead_ms"
    } else {
        "server.overhead_ms"
    };
    for class in &pass.classes {
        let kind = r
            .ops
            .iter()
            .map(|op| op.kind)
            .find(|k| k.name() == class.name);
        let Some(kind) = kind else { continue };
        let n = r.ops.iter().filter(|op| op.kind == kind).count();
        let adjacent: Vec<f64> = r
            .ops
            .iter()
            .filter(|op| op.kind == kind)
            .map(|op| op.e2e_ms)
            .collect();
        let e2e = median(&adjacent);
        let source = if w == Workload::CliLarge {
            "CLI runs adjacent to the replays"
        } else {
            "live daemon, each frame sent right before its replay"
        };
        let _ = writeln!(
            table,
            "trace {} class {}: {n} requests replayed, e2e p50 {e2e:.3} ms ({source})",
            w.name(),
            class.name
        );
        // On the path, a request that never called the layer counts 0, so
        // the medians add up to a typical request of the class.
        let mut layers_ms = 0.0;
        for (layer, metric) in LAYERS {
            let mut on = values(layer, true, Some(kind));
            let off = values(layer, false, Some(kind));
            if !on.is_empty() {
                let called = on.len();
                on.resize(n, 0.0);
                let v = median(&on);
                layers_ms += v;
                let _ = writeln!(
                    table,
                    "  {metric:<22} {v:>12.4} ms  on path, called by {called} of {n}"
                );
            } else if !off.is_empty() {
                let _ = writeln!(table, "  {metric:<22} {:>12.4} ms  off path", median(&off));
            }
        }
        let over = e2e - layers_ms;
        overhead.insert(kind, over);
        let _ = writeln!(
            table,
            "  {front:<22} {over:>12.4} ms  (e2e p50 minus the on-path layers above)"
        );
        let traced: Vec<f64> = r
            .ops
            .iter()
            .filter(|op| op.kind == kind)
            .map(|op| op.traced_ms - op.untraced_ms)
            .collect();
        let traced = median(&traced);
        trace_overhead.insert(kind, traced);
        let _ = writeln!(
            table,
            "  {:<22} {traced:>12.4} ms  (traced minus untraced replay of the same chain)",
            "trace.overhead_ms",
        );
    }
    metrics.push((
        "frontend.overhead_ms".into(),
        overhead.get(&main).copied().unwrap_or(f64::NAN),
        "ms",
    ));
    metrics.push((
        "trace.overhead_ms".into(),
        trace_overhead.get(&main).copied().unwrap_or(f64::NAN),
        "ms",
    ));
    if !restore.is_empty() {
        let _ = writeln!(
            table,
            "trace {} persist.restore_ms {:.4} ms over {} reads ({})",
            w.name(),
            median(&restore),
            restore.len(),
            if w == Workload::DaemonEdit {
                "set-up path"
            } else {
                "off path"
            }
        );
    }
    LayerReport {
        metrics,
        table,
        spans_jsonl: r.tracer.to_jsonl(),
    }
}
