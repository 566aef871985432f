//! End-to-end passes: the real release `ftbar-cli` binary, spawned as a
//! process per invocation (`cli-large`) or as a daemon on a Unix socket
//! (`daemon-edit`, `daemon-small`). One client thread, one connection,
//! one request outstanding (a closed loop), so two requests never compete
//! for the CPUs.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ftbar_service::proto::ScheduleRequest;
use ftbar_service::server::direct_response;
use ftbar_service::SchedulerKind;

use crate::stats::{median, Chunk, Class};
use crate::stream::{cli_specs, EditStream, Kind, Rng, SmallStream, Step};

/// Set-up repetitions per run; `setup_s` is their median. The set-ups
/// of a few milliseconds (`cli-large`, `daemon-small`) repeat more often
/// than the snapshot restore of `daemon-edit`.
const SETUP_REPS: usize = 45;
const RESTORE_SETUP_REPS: usize = 15;
/// Edit and cold answers checked against `server::direct_response` per
/// class, chosen by the seed, after the timed pass.
const CHECK_SAMPLES: usize = 16;
/// Daemon steps generated ahead of each timed chunk (a multiple of the
/// `daemon-edit` class cycle).
const CHUNK: usize = 50;
const SOCKET: &str = "daemon.sock";
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// What one workload run does.
#[derive(Debug, Clone)]
pub struct Opts {
    pub cli: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Small inputs and short warm-ups, for the self-test.
    pub tiny: bool,
    /// Corrupts one expected hit answer (self-test of the checks).
    pub tamper: bool,
}

/// Result of one untraced pass.
#[derive(Debug)]
pub struct Pass {
    pub classes: Vec<Class>,
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Timed-pass wall time up to the last completion, seconds.
    pub timed_s: f64,
    /// The timed pass in chunks (one CLI invocation, or [`CHUNK`] daemon
    /// requests), each with the host's steal share over it.
    pub chunks: Vec<Chunk>,
    pub peak_rss_mb: f64,
    /// The daemon's `status` answer after the timed pass.
    pub status: Option<String>,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Pass {
    fn new(kinds: &[Kind]) -> Self {
        Pass {
            classes: kinds.iter().map(|k| Class::new(k.name())).collect(),
            setup_s: Vec::new(),
            timed_s: 0.0,
            chunks: Vec::new(),
            peak_rss_mb: 0.0,
            status: None,
            problems: Vec::new(),
        }
    }

    pub fn class(&self, kind: Kind) -> &Class {
        self.classes
            .iter()
            .find(|c| c.name == kind.name())
            .expect("class of this workload")
    }

    fn class_mut(&mut self, kind: Kind) -> &mut Class {
        self.classes
            .iter_mut()
            .find(|c| c.name == kind.name())
            .expect("class of this workload")
    }

    pub fn attempted(&self) -> u64 {
        self.classes.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.classes.iter().map(|c| c.failed).sum()
    }

    pub fn completed(&self) -> u64 {
        self.attempted() - self.failed()
    }

    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s)
    }

    /// The program's CPU time per completed operation over the chunks
    /// marked in `quiet` (idle daemon threads included), ms.
    pub fn cpu_ms_per_op(&self, quiet: &[bool]) -> f64 {
        let (cpu_s, ops) = self
            .chunks
            .iter()
            .zip(quiet)
            .filter(|(_, q)| **q)
            .fold((0.0, 0), |(s, n), (c, _)| (s + c.cpu_s, n + c.ops));
        cpu_s * 1e3 / ops as f64
    }
}

/// `(steal, total)` CPU ticks of the host so far (`/proc/stat`).
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the host's CPU time the hypervisor stole between two
/// [`host_cpu_ticks`] readings; 0 when they are missing.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// cli-large
// ---------------------------------------------------------------------------

/// The tiny fixed spec `cli-large` times its set-up on: the paper's
/// example, as `ftbar-cli example` prints it.
const SETUP_SPEC: &str = "paper.spec";

/// Writes what `ftbar-cli ARGS` prints to `path`.
fn write_cli_output(cli: &Path, args: &[String], path: &Path) -> io::Result<()> {
    let out = Command::new(cli).args(args).output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "ftbar-cli {} failed: {:?}",
            args[0], out.status
        )));
    }
    std::fs::write(path, &out.stdout)
}

/// `cli-large`: alternating `ftbar-cli schedule SPEC --validate` runs on
/// the two fixed large specs, in whole pairs, for `seconds`.
pub fn cli_large(o: &Opts) -> io::Result<Pass> {
    let specs = cli_specs(o.tiny);
    let mut pass = Pass::new(&[Kind::Full, Kind::Mesh]);
    // Inputs, untimed: both large specs and the tiny set-up spec.
    for (kind, args) in &specs {
        write_cli_output(&o.cli, args, &spec_file(*kind))?;
    }
    write_cli_output(&o.cli, &["example".to_owned()], Path::new(SETUP_SPEC))?;
    // Set-up: what every invocation pays before it does real work (process
    // start-up and fixed costs), timed as a checked `schedule --validate`
    // of the tiny spec.
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        run_cli_schedule(&o.cli, Path::new(SETUP_SPEC))
            .map_err(|e| io::Error::other(format!("set-up: {e}")))?;
        pass.setup_s.push(secs(t));
    }
    // Untimed warm-up: one run of the heavier class (checked, not
    // recorded).
    if let Err(e) = run_cli_schedule(&o.cli, &spec_file(Kind::Full)) {
        pass.problems.push(format!("warm-up: {e}"));
    }
    let order = if o.seed.is_multiple_of(2) {
        [0, 1]
    } else {
        [1, 0]
    };
    let t = Instant::now();
    while secs(t) < o.seconds {
        for &i in &order {
            let kind = specs[i].0;
            let ticks = host_cpu_ticks();
            match cli_schedule(&o.cli, kind) {
                Ok((ms, cpu_ms)) => {
                    let chunk = pass.chunks.len();
                    pass.class_mut(kind).ok(ms, cpu_ms, chunk);
                    pass.chunks.push(Chunk {
                        steal: steal_share(ticks, host_cpu_ticks()),
                        cpu_s: cpu_ms / 1e3,
                        ops: 1,
                    });
                }
                Err(e) => {
                    pass.class_mut(kind).fail();
                    pass.problems.push(format!("{}: {e}", kind.name()));
                }
            }
        }
    }
    pass.timed_s = secs(t);
    pass.peak_rss_mb = children_usage().0 as f64 / 1024.0;
    Ok(pass)
}

pub fn spec_file(kind: Kind) -> PathBuf {
    PathBuf::from(format!("{}.spec", kind.name()))
}

/// Wall time and the child's CPU time of one checked `schedule
/// --validate` invocation on the spec of `kind`, ms.
pub fn cli_schedule(cli: &Path, kind: Kind) -> Result<(f64, f64), String> {
    let cpu0 = children_usage().1;
    let start = Instant::now();
    run_cli_schedule(cli, &spec_file(kind))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((ms, (children_usage().1 - cpu0) * 1e3))
}

/// One `schedule --validate` invocation: exit 0 and `validation: ok`.
fn run_cli_schedule(cli: &Path, spec: &Path) -> Result<(), String> {
    let out = Command::new(cli)
        .arg("schedule")
        .arg(spec)
        .arg("--validate")
        .stderr(Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("exit {:?}", out.status.code()));
    }
    if !stdout.ends_with("validation: ok\n") {
        return Err("output lacks `validation: ok`".into());
    }
    Ok(())
}

/// Largest resident set of any waited-for child process (KiB), and their
/// total user plus system CPU time (seconds).
fn children_usage() -> (i64, f64) {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s
    /// starting with `ru_maxrss`.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, exclusively borrowed buffer laid out as the
    // C `struct rusage` on 64-bit Linux, which `getrusage` fills in full.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc != 0 {
        return (0, 0.0);
    }
    let [us, uu, ss, su] = u.times.map(|v| v as f64);
    (u.maxrss, us + ss + (uu + su) / 1e6)
}

// ---------------------------------------------------------------------------
// Daemon plumbing
// ---------------------------------------------------------------------------

/// One JSON-lines connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn connect(path: &str) -> io::Result<Conn> {
        let s = UnixStream::connect(path)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    /// Sends one newline-terminated frame and returns the answer line
    /// without its newline.
    fn call(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut answer = String::new();
        if self.reader.read_line(&mut answer)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        answer.truncate(answer.trim_end_matches('\n').len());
        Ok(answer)
    }
}

/// A running `ftbar-cli serve` with its connection. Dropped without
/// [`Daemon::stop`] (an error path), it kills the process.
pub struct Daemon {
    child: Child,
    conn: Conn,
    /// The daemon's POSIX process CPU clock.
    clock: i32,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Daemon {
    /// Spawns the daemon with its default config and returns it with the
    /// time from spawn to the first answered `status`, seconds.
    pub fn start(cli: &Path, snapshot: Option<&str>) -> io::Result<(Daemon, f64)> {
        let _ = std::fs::remove_file(SOCKET);
        let t = Instant::now();
        let mut cmd = Command::new(cli);
        // One glibc malloc arena. With the default per-thread arenas, which
        // of the two workers takes a request decides which arena holds its
        // memory, and `VmHWM` moved between 21 and 26 MiB from run to run
        // on `daemon-small`; with one arena it stays within 2 %.
        cmd.args(["serve", "--socket", SOCKET])
            .env("MALLOC_ARENA_MAX", "1");
        if let Some(snap) = snapshot {
            cmd.args(["--snapshot", snap]);
        }
        let mut child = cmd.stdout(Stdio::null()).stderr(Stdio::null()).spawn()?;
        let conn = loop {
            match Conn::connect(SOCKET) {
                Ok(c) => break c,
                Err(e) if t.elapsed() > Duration::from_secs(60) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(e);
                }
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        let clock = cpu_clock(child.id());
        let mut d = Daemon { child, conn, clock };
        let status = d.conn.call("{\"op\": \"status\"}\n")?;
        let setup = secs(t);
        if !status.starts_with("{\"status\": \"ok\"") {
            return Err(io::Error::other(format!("bad status answer: {status}")));
        }
        Ok((d, setup))
    }

    /// CPU time of all the daemon's threads so far, seconds.
    fn cpu_s(&self) -> f64 {
        clock_s(self.clock)
    }

    /// Sends one frame; returns the answer with the wall time and the
    /// daemon's CPU time it took, ms.
    pub fn call_timed(&mut self, line: &str) -> io::Result<(String, f64, f64)> {
        let cpu0 = self.cpu_s();
        let start = Instant::now();
        let answer = self.conn.call(line)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Ok((answer, ms, (self.cpu_s() - cpu0) * 1e3))
    }

    /// The daemon's peak resident set (`VmHWM`), MiB.
    fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Drains the daemon and waits for it to exit (killing it if it
    /// does not within a minute).
    pub fn stop(mut self) -> io::Result<()> {
        let _ = self.conn.call("{\"op\": \"shutdown\"}\n");
        let _ = self.conn.writer.shutdown(std::net::Shutdown::Both);
        let t = Instant::now();
        while self.child.try_wait()?.is_none() {
            if t.elapsed() > Duration::from_secs(60) {
                self.child.kill()?;
                self.child.wait()?;
                return Err(io::Error::other("daemon did not drain"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// The POSIX CPU clock of process `pid`: the run time of all its threads,
/// brought up to date for threads still running when read, and without
/// time the hypervisor stole. `-1` (which reads as 0) when unavailable.
fn cpu_clock(pid: u32) -> i32 {
    let mut clock = -1;
    // SAFETY: `clock` is a live, exclusively borrowed `clockid_t`.
    let rc = unsafe { clock_getcpuclockid(pid as i32, &mut clock) };
    if rc == 0 {
        clock
    } else {
        -1
    }
}

/// Reads a clock, seconds; 0 if it cannot be read.
fn clock_s(clock: i32) -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, exclusively borrowed buffer laid out as the C
    // `struct timespec` on 64-bit Linux, which `clock_gettime` fills in.
    if clock == -1 || unsafe { clock_gettime(clock, &mut t) } != 0 {
        return 0.0;
    }
    t.sec as f64 + t.nsec as f64 / 1e9
}

pub fn is_ok(answer: &str) -> bool {
    answer.starts_with("{\"status\": \"ok\"")
}

/// Per-session expected answers and the seeded sample of answers checked
/// against `direct_response` after the timed pass.
struct Checker {
    /// Answer to each session's last line: what a hit must repeat.
    last: HashMap<usize, String>,
    rng: Rng,
    /// `(class, spec, answer)` awaiting the direct-response check.
    samples: Vec<(Kind, String, String)>,
    include_schedule: bool,
    tamper: bool,
}

impl Checker {
    fn new(seed: u64, include_schedule: bool, tamper: bool) -> Self {
        Checker {
            last: HashMap::new(),
            rng: Rng::new(seed ^ 0xC4EC_C0DE),
            samples: Vec::new(),
            include_schedule,
            tamper,
        }
    }

    /// Checks an answer as it arrives; `Err` describes a failure.
    /// With `timed`, the first hit's expected answer is corrupted when
    /// tampering.
    fn on_answer(&mut self, step: &Step, answer: String, timed: bool) -> Result<(), String> {
        if !is_ok(&answer) {
            return Err(format!(
                "{}: error answer {}",
                step.kind.name(),
                truncate(&answer)
            ));
        }
        match &step.spec {
            None => {
                let mut expected = self
                    .last
                    .get(&step.session)
                    .ok_or("hit before open")?
                    .clone();
                if self.tamper && timed {
                    self.tamper = false;
                    expected.insert(1, '~');
                }
                if expected != answer {
                    return Err("hit: answer differs from the first answer to the line".into());
                }
            }
            Some(spec) => {
                let taken = self.samples.iter().filter(|s| s.0 == step.kind).count();
                if taken < CHECK_SAMPLES && self.rng.below(8) == 0 {
                    self.samples.push((step.kind, spec.clone(), answer.clone()));
                }
                self.last.insert(step.session, answer);
            }
        }
        Ok(())
    }

    /// Compares the sampled answers with what an unloaded daemon answers
    /// the same spec (for an edit: the edited spec).
    fn verify_samples(&self, pass: &mut Pass) {
        for (kind, spec, answer) in &self.samples {
            let req = ScheduleRequest {
                id: None,
                spec: spec.clone(),
                scheduler: SchedulerKind::Ftbar,
                npf: None,
                strategy: None,
                timeout_ms: None,
                include_schedule: self.include_schedule,
            };
            if direct_response(&req) != *answer {
                pass.class_mut(*kind).failed += 1;
                pass.problems.push(format!(
                    "{}: answer differs from server::direct_response",
                    kind.name()
                ));
            }
        }
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(160)]
}

/// Sends `steps`, recording each latency and the daemon's CPU time for it
/// under its class when `record`. Returns the loop's wall time, seconds.
fn send_all(
    d: &mut Daemon,
    steps: &[Step],
    checker: &mut Checker,
    pass: &mut Pass,
    record: bool,
) -> io::Result<f64> {
    let t = Instant::now();
    for step in steps {
        let (answer, ms, cpu_ms) = match d.call_timed(&step.line) {
            Ok(timed) => timed,
            Err(e) => {
                // A timeout or a dropped connection: this operation failed
                // and the stream cannot go on.
                if record {
                    pass.class_mut(step.kind).fail();
                }
                return Err(e);
            }
        };
        let verdict = checker.on_answer(step, answer, record);
        if let Err(e) = &verdict {
            pass.problems.push(e.clone());
        }
        if record {
            let chunk = pass.chunks.len();
            match verdict {
                Ok(()) => pass.class_mut(step.kind).ok(ms, cpu_ms, chunk),
                Err(_) => pass.class_mut(step.kind).fail(),
            }
        }
    }
    Ok(secs(t))
}

/// Timed pass: chunks generated untimed, sent timed, until `seconds` of
/// sending have accumulated. Each chunk's requests are recorded under the
/// chunk's index, then the chunk itself.
fn timed(
    d: &mut Daemon,
    mut next: impl FnMut() -> Step,
    seconds: f64,
    checker: &mut Checker,
    pass: &mut Pass,
) -> io::Result<()> {
    while pass.timed_s < seconds {
        let steps: Vec<Step> = (0..CHUNK).map(|_| next()).collect();
        let (ticks, cpu0, done) = (host_cpu_ticks(), d.cpu_s(), pass.completed());
        pass.timed_s += send_all(d, &steps, checker, pass, true)?;
        pass.chunks.push(Chunk {
            steal: steal_share(ticks, host_cpu_ticks()),
            cpu_s: d.cpu_s() - cpu0,
            ops: pass.completed() - done,
        });
    }
    Ok(())
}

/// Starts the daemon `reps` times, each from a fresh copy of `snapshot`
/// when given, recording every set-up time; the last one stays up and is
/// returned.
fn setup_daemon(
    cli: &Path,
    snapshot: Option<&str>,
    reps: usize,
    pass: &mut Pass,
) -> io::Result<Daemon> {
    let mut start = |rep: usize| -> io::Result<Daemon> {
        let copy = match snapshot {
            Some(src) => {
                let copy = format!("gen2-{rep}.snap");
                std::fs::copy(src, &copy)?;
                Some(copy)
            }
            None => None,
        };
        let (d, s) = Daemon::start(cli, copy.as_deref())?;
        pass.setup_s.push(s);
        Ok(d)
    };
    for rep in 1..reps {
        start(rep)?.stop()?;
    }
    start(reps)
}

/// Runs the timed pass, then stops the daemon keeping its status and
/// peak RSS. A lost connection ends the pass as a failed operation.
fn timed_then_stop(
    mut d: Daemon,
    next: impl FnMut() -> Step,
    seconds: f64,
    checker: &mut Checker,
    pass: &mut Pass,
) -> io::Result<()> {
    if let Err(e) = timed(&mut d, next, seconds, checker, pass) {
        pass.problems
            .push(format!("connection to the daemon failed: {e}"));
        return Ok(());
    }
    pass.status = Some(d.conn.call("{\"op\": \"status\"}\n")?);
    pass.peak_rss_mb = d.peak_rss_mb();
    d.stop()
}

// ---------------------------------------------------------------------------
// daemon-edit
// ---------------------------------------------------------------------------

/// Untimed steps after set-up and before the timed pass.
pub fn edit_warmup(tiny: bool) -> usize {
    if tiny {
        10
    } else {
        50
    }
}

pub fn edit_sizes(tiny: bool) -> (usize, usize) {
    if tiny {
        (20, 40)
    } else {
        (120, 190)
    }
}

/// The pristine snapshot the first generation drains to.
pub const EDIT_SNAPSHOT: &str = "gen1.snap";

/// `daemon-edit`: interactive sessions over one socket, restarted from a
/// snapshot of the first generation.
pub fn daemon_edit(o: &Opts) -> io::Result<Pass> {
    let mut stream = EditStream::new(o.seed, edit_sizes(o.tiny));
    let mut pass = Pass::new(&[Kind::Edit, Kind::Hit, Kind::Cold]);
    let mut checker = Checker::new(o.seed, false, o.tamper);

    // Generation 1 opens the sessions and drains to a snapshot.
    let _ = std::fs::remove_file(EDIT_SNAPSHOT);
    let (mut d, _) = Daemon::start(&o.cli, Some(EDIT_SNAPSHOT))?;
    let opens = stream.opens().to_vec();
    send_all(&mut d, &opens, &mut checker, &mut pass, false)?;
    d.stop()?;

    // Generation 2 restores that snapshot; its last set-up stays up.
    let mut d = setup_daemon(&o.cli, Some(EDIT_SNAPSHOT), RESTORE_SETUP_REPS, &mut pass)?;

    let warm: Vec<Step> = (0..edit_warmup(o.tiny))
        .map(|_| stream.next_step())
        .collect();
    send_all(&mut d, &warm, &mut checker, &mut pass, false)?;
    timed_then_stop(d, || stream.next_step(), o.seconds, &mut checker, &mut pass)?;
    checker.verify_samples(&mut pass);
    Ok(pass)
}

// ---------------------------------------------------------------------------
// daemon-small
// ---------------------------------------------------------------------------

/// Untimed requests before the timed pass: enough to fill the 8 MiB
/// response cache, so the timed pass runs in the evicting steady state.
pub fn small_warmup(tiny: bool) -> usize {
    if tiny {
        20
    } else {
        600
    }
}

/// `daemon-small`: a stream of distinct small specs, every one cold,
/// answered with the full schedule.
pub fn daemon_small(o: &Opts) -> io::Result<Pass> {
    let mut stream = SmallStream::new(o.seed);
    let mut pass = Pass::new(&[Kind::Small, Kind::Tiny]);
    let mut checker = Checker::new(o.seed, true, false);
    let mut d = setup_daemon(&o.cli, None, SETUP_REPS, &mut pass)?;
    let warm: Vec<Step> = (0..small_warmup(o.tiny))
        .map(|_| stream.next_step())
        .collect();
    send_all(&mut d, &warm, &mut checker, &mut pass, false)?;
    timed_then_stop(d, || stream.next_step(), o.seconds, &mut checker, &mut pass)?;
    checker.verify_samples(&mut pass);
    Ok(pass)
}
