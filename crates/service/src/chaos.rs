//! Deterministic fault-injection harness driving the real daemon.
//!
//! One seeded [`StdRng`] (the same discipline as `ftbar_sim::scenario`)
//! draws every event: normal requests, worker panics, malformed and
//! truncated frames, oversized payloads, stalled clients, cache-pressure
//! storms. The harness runs a real server on a temp Unix socket and
//! checks three invariants the whole PR rests on:
//!
//! 1. **Liveness** — the daemon answers a well-formed request after every
//!    injected fault, and shuts down cleanly at the end.
//! 2. **Byte identity** — every uninjected response is byte-identical to
//!    the direct, cache-free, queue-free [`direct_response`] bytes.
//! 3. **Code mapping** — every injected failure maps to its documented
//!    [`ErrorCode`](crate::proto::ErrorCode): worker panics to
//!    `internal_panic` (then `poisoned`), malformed frames to
//!    `bad_request`, oversized frames to `too_large`.
//!
//! Event *choices* are deterministic in the seed; wall-clock timing (and
//! therefore cache hit counts) is not, which is why responses carry no
//! cache markers.
//!
//! [`run_restart`] extends the discipline across process generations: a
//! seeded campaign repeatedly populates a daemon, snapshots it, kills
//! it, *tampers with the snapshot file* (truncation, bit flips, version
//! skew, stale temp-file litter from a simulated mid-write kill), and
//! restarts — asserting that every generation comes up serving, that the
//! `status` restore outcome matches the injected damage, and that every
//! replayed request answers bytes identical to its pre-restart response
//! whether it was restored or recomputed cold.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::client::{request, Client, RequestOpts};
use crate::persist;
use crate::proto::ScheduleRequest;
use crate::server::{
    direct_response, direct_with, serve_with_state, Listener, ServerConfig, ServerState,
};
use crate::SchedulerKind;
use ftbar_core::json::JsonObject;

/// The marker the harness plants in specs destined to panic a worker.
pub const PANIC_MARKER: &str = "__chaos_panic__";

/// Chaos campaign configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the single RNG driving every injection choice.
    pub seed: u64,
    /// Number of injected events.
    pub events: usize,
    /// Pool of valid spec texts the normal traffic draws from.
    pub specs: Vec<String>,
    /// Unix-socket path for the temp daemon.
    pub socket: PathBuf,
    /// Daemon configuration; the harness forces `panic_marker` to
    /// [`PANIC_MARKER`] and keeps `handle_signals` off.
    pub server: ServerConfig,
}

impl ChaosConfig {
    /// A campaign over `specs` with tight-but-safe daemon limits: small
    /// cache (storms evict), small frames (oversize is cheap to hit),
    /// short I/O timeout (stalls resolve quickly).
    pub fn quick(seed: u64, events: usize, specs: Vec<String>, socket: PathBuf) -> Self {
        ChaosConfig {
            seed,
            events,
            specs,
            socket,
            server: ServerConfig {
                workers: 2,
                cache_bytes: 16 * 1024,
                max_frame_bytes: 16 * 1024,
                io_timeout_ms: 150,
                default_timeout_ms: 5_000,
                ..ServerConfig::default()
            },
        }
    }
}

/// What a chaos campaign observed.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Uninjected requests whose bytes were compared against
    /// [`direct_response`].
    pub normal: u64,
    /// Injected worker panics (each also probes the poisoned refusal).
    pub panics: u64,
    /// Malformed frames sent.
    pub malformed: u64,
    /// Truncated frames sent (connection cut mid-frame).
    pub truncated: u64,
    /// Oversized frames sent.
    pub oversized: u64,
    /// Stalled/slow-client connections.
    pub stalled: u64,
    /// Cache-pressure storm requests.
    pub storm: u64,
    /// Invariant violations; empty on a green campaign.
    pub violations: Vec<String>,
    /// Whether the daemon drained and the serve loop returned cleanly.
    pub clean_shutdown: bool,
}

impl ChaosReport {
    /// Panics with every violation if the campaign was not green.
    pub fn assert_green(&self) {
        assert!(
            self.violations.is_empty() && self.clean_shutdown,
            "chaos campaign failed (clean_shutdown={}):\n{}",
            self.clean_shutdown,
            self.violations.join("\n")
        );
    }
}

/// Runs a chaos campaign: starts a daemon, injects `config.events`
/// seeded faults, verifies the invariants, shuts the daemon down.
pub fn run(config: &ChaosConfig) -> ChaosReport {
    assert!(!config.specs.is_empty(), "chaos needs at least one spec");
    let mut server_config = config.server.clone();
    server_config.panic_marker = Some(PANIC_MARKER.to_owned());
    server_config.handle_signals = false;
    let direct_config = server_config.clone();

    let listener = Listener::Unix(config.socket.clone());
    let state = ServerState::new(server_config);
    let serve_state = Arc::clone(&state);
    let serve_listener = listener.clone();
    let daemon = std::thread::spawn(move || serve_with_state(&serve_listener, &serve_state));

    let mut report = ChaosReport::default();
    let opts = RequestOpts {
        attempts: 5,
        base_backoff: Duration::from_millis(10),
        overall_deadline: Duration::from_secs(20),
        io_timeout: Duration::from_secs(5),
    };

    // Wait for the socket to come up.
    if let Err(e) = request(&listener, "{\"op\": \"status\"}", &opts) {
        report.violations.push(format!("daemon never came up: {e}"));
        state.begin_shutdown();
        let _ = daemon.join();
        return report;
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    for event in 0..config.events {
        match rng.gen_range(0u32..100) {
            // Uninjected request: bytes must equal the direct path.
            0..=39 => {
                let req = draw_request(&mut rng, &config.specs, event);
                check_normal(&listener, &opts, &req, &mut report);
                report.normal += 1;
            }
            // Worker panic, then the poisoned refusal for the same spec.
            40..=49 => {
                let line = format!(
                    "{{\"spec\": \"{} {}\"}}",
                    PANIC_MARKER,
                    event // distinct per event: first hit panics, second is poisoned
                );
                expect_code(
                    &listener,
                    &opts,
                    &line,
                    "internal_panic",
                    &mut report.violations,
                );
                expect_code(&listener, &opts, &line, "poisoned", &mut report.violations);
                report.panics += 1;
            }
            // Malformed frame.
            50..=59 => {
                let bad = ["{", "not json", "[]", "{\"op\": 7}", "{\"op\": \"nope\"}"]
                    [rng.gen_range(0usize..5)];
                expect_code(&listener, &opts, bad, "bad_request", &mut report.violations);
                report.malformed += 1;
            }
            // Truncated frame: cut the connection mid-frame. No response
            // is owed; the daemon must simply survive.
            60..=69 => {
                if let Ok(mut s) = UnixStream::connect(&config.socket) {
                    let cut = rng.gen_range(1usize..20);
                    let _ = s.write_all(&b"{\"op\": \"status\"}"[..cut.min(16)]);
                    drop(s);
                }
                report.truncated += 1;
            }
            // Oversized frame.
            70..=74 => {
                let big = format!(
                    "{{\"spec\": \"{}\"}}",
                    "x".repeat(state.config().max_frame_bytes + 1)
                );
                expect_code(&listener, &opts, &big, "too_large", &mut report.violations);
                report.oversized += 1;
            }
            // Stalled client: write half a frame, outlive the I/O
            // timeout, then try to finish.
            75..=79 => {
                if let Ok(mut s) = UnixStream::connect(&config.socket) {
                    let _ = s.write_all(b"{\"op\": \"stat");
                    std::thread::sleep(Duration::from_millis(state.config().io_timeout_ms + 50));
                    // The server has dropped us by now; either write may
                    // fail, and that is the point — no daemon hang.
                    let _ = s.write_all(b"us\"}\n");
                }
                report.stalled += 1;
            }
            // Cache-pressure storm: a pipelined burst of near-duplicate
            // requests under a tiny cache budget, each byte-checked.
            _ => {
                let burst = rng.gen_range(4usize..10);
                if let Ok(mut client) = Client::connect(&listener) {
                    for k in 0..burst {
                        let req = draw_request(&mut rng, &config.specs, event * 31 + k);
                        let line = render_request_line(&req);
                        match client.send(&line) {
                            Ok(resp) => {
                                let expected = direct_with(&req, &direct_config);
                                if resp != expected {
                                    report.violations.push(format!(
                                        "storm response diverged for {line}:\n got {resp}\n want {expected}"
                                    ));
                                }
                            }
                            Err(e) => report.violations.push(format!("storm request failed: {e}")),
                        }
                        report.storm += 1;
                    }
                }
            }
        }

        // Liveness probe after every event: the daemon answers status.
        if let Err(e) = request(&listener, "{\"op\": \"status\"}", &opts) {
            report
                .violations
                .push(format!("daemon unresponsive after event {event}: {e}"));
            break;
        }
    }

    // Clean shutdown via the protocol.
    match request(&listener, "{\"op\": \"shutdown\"}", &opts) {
        Ok(resp) => {
            if !resp.contains("\"op\": \"shutdown\"") {
                report
                    .violations
                    .push(format!("unexpected shutdown response: {resp}"));
            }
        }
        Err(e) => report.violations.push(format!("shutdown failed: {e}")),
    }
    match daemon.join() {
        Ok(Ok(())) => report.clean_shutdown = true,
        Ok(Err(e)) => report.violations.push(format!("serve returned error: {e}")),
        Err(_) => report.violations.push("serve thread panicked".to_owned()),
    }
    report
}

/// Draws a request over the spec pool: varies scheduler, npf override,
/// id, and trailing whitespace (distinct raw keys, same canonical key).
fn draw_request(rng: &mut StdRng, specs: &[String], salt: usize) -> ScheduleRequest {
    let mut spec = specs[rng.gen_range(0usize..specs.len())].clone();
    for _ in 0..rng.gen_range(0usize..3) {
        spec.push(' '); // same canonical problem, different raw text
    }
    ScheduleRequest {
        id: rng.gen_bool(0.5).then(|| format!("chaos-{salt}")),
        spec,
        scheduler: if rng.gen_bool(0.8) {
            SchedulerKind::Ftbar
        } else {
            SchedulerKind::Hbp
        },
        npf: if rng.gen_bool(0.3) {
            Some(rng.gen_range(0u32..2))
        } else {
            None
        },
        strategy: None,
        timeout_ms: None,
        include_schedule: rng.gen_bool(0.2),
    }
}

fn render_request_line(req: &ScheduleRequest) -> String {
    let mut line = JsonObject::new();
    if let Some(id) = &req.id {
        line.str("id", id);
    }
    line.str("spec", &req.spec)
        .str("scheduler", req.scheduler.name());
    if let Some(npf) = req.npf {
        line.raw("npf", npf);
    }
    if req.include_schedule {
        line.raw("include_schedule", true);
    }
    line.finish()
}

fn check_normal(
    listener: &Listener,
    opts: &RequestOpts,
    req: &ScheduleRequest,
    report: &mut ChaosReport,
) {
    let line = render_request_line(req);
    match request(listener, &line, opts) {
        Ok(resp) => {
            let expected = direct_response(req);
            if resp != expected {
                report.violations.push(format!(
                    "response diverged for {line}:\n got {resp}\n want {expected}"
                ));
            }
        }
        Err(e) => report
            .violations
            .push(format!("uninjected request failed: {e}")),
    }
}

fn expect_code(
    listener: &Listener,
    opts: &RequestOpts,
    line: &str,
    code: &str,
    violations: &mut Vec<String>,
) {
    match request(listener, line, opts) {
        Ok(resp) => {
            let want = format!("\"code\": \"{code}\"");
            if !resp.contains(&want) {
                violations.push(format!(
                    "expected {want} for frame {line:.60}, got {resp:.200}"
                ));
            }
        }
        Err(e) => violations.push(format!(
            "injected frame got no response (wanted {code}): {e}"
        )),
    }
}

// ---------------------------------------------------------------------------
// Restart campaigns
// ---------------------------------------------------------------------------

/// Restart-chaos campaign configuration.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Seed of the single RNG driving every injection choice.
    pub seed: u64,
    /// Daemon generations (each ends in a kill + snapshot tamper).
    pub rounds: usize,
    /// Pool of valid spec texts the populate traffic draws from.
    pub specs: Vec<String>,
    /// Directory for the per-round sockets and the snapshot file.
    pub dir: PathBuf,
    /// Daemon configuration; the harness forces the snapshot path, the
    /// panic marker, and keeps `handle_signals` off.
    pub server: ServerConfig,
}

impl RestartConfig {
    /// A campaign over `specs` with a small cache and short timeouts.
    pub fn quick(seed: u64, rounds: usize, specs: Vec<String>, dir: PathBuf) -> Self {
        RestartConfig {
            seed,
            rounds,
            specs,
            dir,
            server: ServerConfig {
                workers: 2,
                cache_bytes: 256 * 1024,
                io_timeout_ms: 500,
                default_timeout_ms: 5_000,
                ..ServerConfig::default()
            },
        }
    }
}

/// What a restart campaign observed.
#[derive(Debug, Default)]
pub struct RestartReport {
    /// Daemon generations started.
    pub rounds: u64,
    /// Restarts that reported a full restore.
    pub restored: u64,
    /// Restarts that dropped a torn tail but kept a valid prefix.
    pub tail_dropped: u64,
    /// Restarts that refused the snapshot and started cold.
    pub refused: u64,
    /// Snapshot-during-load storms run.
    pub storms: u64,
    /// Replayed requests whose bytes were compared against their
    /// pre-restart responses.
    pub byte_checked: u64,
    /// Invariant violations; empty on a green campaign.
    pub violations: Vec<String>,
}

impl RestartReport {
    /// Panics with every violation if the campaign was not green.
    pub fn assert_green(&self) {
        assert!(
            self.violations.is_empty(),
            "restart campaign failed:\n{}",
            self.violations.join("\n")
        );
    }
}

/// The snapshot damage injected between two daemon generations, and what
/// restore outcome each kind of damage permits.
enum Tamper {
    /// File untouched; stale garbage littered at the temp path (the
    /// residue of a writer killed mid-snapshot, pre-rename).
    MidWriteKill,
    /// File cut at a seeded offset.
    Truncate,
    /// One seeded bit flipped.
    BitFlip,
    /// Header rewritten to an unknown format version.
    VersionSkew,
}

impl Tamper {
    fn allowed_outcomes(&self) -> &'static [&'static str] {
        match self {
            Tamper::MidWriteKill => &["restored"],
            Tamper::Truncate | Tamper::BitFlip => &["partial-tail-drop", "refused-corrupt"],
            Tamper::VersionSkew => &["refused-corrupt"],
        }
    }
}

/// Runs a restart-chaos campaign: `rounds` daemon generations sharing one
/// snapshot file, each generation verifying the previous one's damage was
/// absorbed (serving, correct restore outcome, byte-identical replays),
/// then taking fresh damage.
pub fn run_restart(config: &RestartConfig) -> RestartReport {
    assert!(!config.specs.is_empty(), "restart chaos needs a spec");
    let _ = std::fs::create_dir_all(&config.dir);
    let snap = config.dir.join("chaos.snap");
    let _ = std::fs::remove_file(&snap);
    let _ = std::fs::remove_file(persist::temp_path(&snap));

    let mut server_config = config.server.clone();
    server_config.panic_marker = Some(PANIC_MARKER.to_owned());
    server_config.handle_signals = false;
    server_config.snapshot_path = Some(snap.clone());
    let direct_config = server_config.clone();

    let mut report = RestartReport::default();
    let opts = RequestOpts {
        attempts: 5,
        base_backoff: Duration::from_millis(10),
        overall_deadline: Duration::from_secs(20),
        io_timeout: Duration::from_secs(5),
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let poison_line = format!("{{\"spec\": \"{PANIC_MARKER} restart probe\"}}");
    // (request line, response bytes) pairs accumulated across rounds;
    // every generation must reproduce all of them exactly.
    let mut recorded: Vec<(String, String)> = Vec::new();
    // What the previous round injected; None before the first restart.
    let mut last_tamper: Option<Tamper> = None;

    for round in 0..config.rounds {
        let socket = config.dir.join(format!("restart-{round}.sock"));
        let listener = Listener::Unix(socket);
        let state = ServerState::new(server_config.clone());
        let serve_state = Arc::clone(&state);
        let serve_listener = listener.clone();
        let daemon = std::thread::spawn(move || serve_with_state(&serve_listener, &serve_state));
        if let Err(e) = request(&listener, "{\"op\": \"status\"}", &opts) {
            report
                .violations
                .push(format!("round {round}: daemon never came up: {e}"));
            state.begin_shutdown();
            let _ = daemon.join();
            break;
        }
        report.rounds += 1;

        // Verify the previous generation's damage was absorbed.
        if let Some(tamper) = last_tamper.take() {
            let status = request(&listener, "{\"op\": \"status\"}", &opts).unwrap_or_default();
            let outcome = tamper
                .allowed_outcomes()
                .iter()
                .find(|o| status.contains(&format!("\"restore\": \"{o}\"")));
            match outcome {
                Some(&"restored") => report.restored += 1,
                Some(&"partial-tail-drop") => report.tail_dropped += 1,
                Some(&"refused-corrupt") => report.refused += 1,
                _ => report.violations.push(format!(
                    "round {round}: restore outcome not in {:?}: {status:.400}",
                    tamper.allowed_outcomes()
                )),
            }
            let strict_poison = matches!(tamper, Tamper::MidWriteKill);
            if strict_poison && !status.contains("\"internal_panic\": 0") {
                report.violations.push(format!(
                    "round {round}: restored daemon shows panics before any probe: {status:.400}"
                ));
            }
            // Byte identity: every recorded response must be reproduced,
            // restored from the snapshot or recomputed cold alike.
            for (line, expected) in &recorded {
                match request(&listener, line, &opts) {
                    Ok(resp) => {
                        if &resp != expected {
                            report.violations.push(format!(
                                "round {round}: replay diverged for {line}:\n got {resp}\n want {expected}"
                            ));
                        }
                    }
                    Err(e) => report
                        .violations
                        .push(format!("round {round}: replay failed: {e}")),
                }
                report.byte_checked += 1;
            }
            // The poisoned probe: a full restore must refuse it without
            // re-running it (no worker panic); after a degraded restore
            // it may panic once more, but must answer and stay up.
            match request(&listener, &poison_line, &opts) {
                Ok(resp) => {
                    if strict_poison && !resp.contains("\"code\": \"poisoned\"") {
                        report.violations.push(format!(
                            "round {round}: restored daemon re-ran a known crasher: {resp:.200}"
                        ));
                    } else if !resp.contains("\"code\": \"poisoned\"")
                        && !resp.contains("\"code\": \"internal_panic\"")
                    {
                        report.violations.push(format!(
                            "round {round}: unexpected poison-probe answer: {resp:.200}"
                        ));
                    }
                }
                Err(e) => report
                    .violations
                    .push(format!("round {round}: poison probe failed: {e}")),
            }
        } else {
            // First generation: teach the daemon its poisoned spec.
            for want in ["internal_panic", "poisoned"] {
                expect_code(&listener, &opts, &poison_line, want, &mut report.violations);
            }
        }

        // Populate fresh traffic (recorded for future replays), with a
        // reschedule riding along so artifact seeds enter the snapshot.
        for k in 0..3 {
            let req = draw_request(&mut rng, &config.specs, round * 97 + k);
            let line = render_request_line(&req);
            match request(&listener, &line, &opts) {
                Ok(resp) => {
                    let expected = direct_with(&req, &direct_config);
                    if resp != expected {
                        report.violations.push(format!(
                            "round {round}: populate diverged for {line}:\n got {resp}\n want {expected}"
                        ));
                    }
                    recorded.push((line, resp));
                }
                Err(e) => report
                    .violations
                    .push(format!("round {round}: populate failed: {e}")),
            }
        }

        // Snapshot-during-load storm: pipelined schedule traffic on one
        // connection racing on-demand snapshots from another.
        if rng.gen_bool(0.5) {
            report.storms += 1;
            let storm_listener = listener.clone();
            let storm_opts = opts.clone();
            let snapper = std::thread::spawn(move || {
                let mut failures = Vec::new();
                for _ in 0..3 {
                    match request(&storm_listener, "{\"op\": \"snapshot\"}", &storm_opts) {
                        Ok(resp) => {
                            if !resp.contains("\"op\": \"snapshot\"") {
                                failures.push(format!("storm snapshot answered: {resp:.200}"));
                            }
                        }
                        Err(e) => failures.push(format!("storm snapshot failed: {e}")),
                    }
                }
                failures
            });
            if let Ok(mut client) = Client::connect(&listener) {
                for k in 0..6 {
                    let req = draw_request(&mut rng, &config.specs, round * 131 + k + 17);
                    let line = render_request_line(&req);
                    match client.send(&line) {
                        Ok(resp) => {
                            let expected = direct_with(&req, &direct_config);
                            if resp != expected {
                                report.violations.push(format!(
                                    "round {round}: storm response diverged for {line}"
                                ));
                            }
                            recorded.push((line, resp));
                        }
                        Err(e) => report
                            .violations
                            .push(format!("round {round}: storm request failed: {e}")),
                    }
                }
            }
            if let Ok(failures) = snapper.join() {
                report.violations.extend(failures);
            }
        }

        // Snapshot on demand, then drain (which snapshots once more).
        match request(&listener, "{\"op\": \"snapshot\"}", &opts) {
            Ok(resp) => {
                if !resp.contains("\"op\": \"snapshot\"") {
                    report
                        .violations
                        .push(format!("round {round}: snapshot answered: {resp:.200}"));
                }
            }
            Err(e) => report
                .violations
                .push(format!("round {round}: snapshot failed: {e}")),
        }
        let _ = request(&listener, "{\"op\": \"shutdown\"}", &opts);
        match daemon.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => report
                .violations
                .push(format!("round {round}: serve returned error: {e}")),
            Err(_) => report
                .violations
                .push(format!("round {round}: serve thread panicked")),
        }

        // Inject seeded damage for the next generation to absorb.
        if round + 1 < config.rounds {
            last_tamper = Some(tamper_snapshot(&snap, &mut rng, &mut report.violations));
        }
    }
    report
}

/// Applies one seeded tamper to the snapshot file, returning what was
/// done so the next generation's restore outcome can be checked.
fn tamper_snapshot(snap: &PathBuf, rng: &mut StdRng, violations: &mut Vec<String>) -> Tamper {
    let bytes = match std::fs::read(snap) {
        Ok(b) => b,
        Err(e) => {
            violations.push(format!("snapshot unreadable before tamper: {e}"));
            return Tamper::MidWriteKill;
        }
    };
    match rng.gen_range(0u32..4) {
        0 => {
            // Kill mid-snapshot: the atomic-rename discipline means a
            // writer killed before the rename leaves the old snapshot
            // intact plus a partial temp file.
            let litter: Vec<u8> = (0..rng.gen_range(1usize..64))
                .map(|_| rng.gen_range(0u32..256) as u8)
                .collect();
            let _ = std::fs::write(persist::temp_path(snap), litter);
            Tamper::MidWriteKill
        }
        1 => {
            let cut = rng.gen_range(1usize..bytes.len());
            let _ = std::fs::write(snap, &bytes[..cut]);
            Tamper::Truncate
        }
        2 => {
            let mut corrupt = bytes;
            let idx = rng.gen_range(0usize..corrupt.len());
            corrupt[idx] ^= 1 << rng.gen_range(0u32..8);
            let _ = std::fs::write(snap, corrupt);
            Tamper::BitFlip
        }
        _ => {
            let mut skewed = bytes;
            skewed[8..12].copy_from_slice(&0xFFFF_FFFEu32.to_le_bytes());
            let _ = std::fs::write(snap, skewed);
            Tamper::VersionSkew
        }
    }
}
