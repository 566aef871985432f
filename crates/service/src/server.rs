//! The long-lived scheduling daemon: listener, admission control, worker
//! pool, response cache, panic isolation, degradation, clean shutdown.
//!
//! Layering (outer to inner):
//!
//! * **Listener shell** ([`serve`]) — non-blocking accept loop (Unix
//!   socket or TCP) polling the shutdown latch, one thread per
//!   connection, socket read/write timeouts so stalled clients cannot
//!   pin resources, per-frame byte cap.
//! * **Frame core** ([`ServerState::handle_frame`]) — parses one request
//!   line and produces exactly one response line. Pure enough to drive
//!   directly from tests and the chaos harness without sockets.
//! * **Worker pool** — bounded `Mutex<VecDeque>` + `Condvar` job queue
//!   (on overflow, jobs past their deadline are dropped first, then
//!   shed-oldest or reject-new), workers recycling
//!   [`EnginePools`] arenas, `catch_unwind` around every job so a
//!   panicking spec answers `internal_panic` — and is remembered in the
//!   poisoned set, refusing identical requests without re-running them.
//! * **Cache** — [`ResponseCache`]: canonical-key response memoization
//!   with a raw-text fast path; hits skip spec parsing entirely.
//!
//! Degradation: when a request reaches a worker with little deadline
//! headroom or behind a deep queue, and the problem is large, the exact
//! sweep falls back to [`SweepStrategy::Clustered`] and the response is
//! flagged `"degraded": true`. Degraded responses are never cached, so
//! cached bytes always equal the un-pressured direct response.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ftbar_core::edit::{EditError, ProblemEdit};
use ftbar_core::engine::EnginePools;
use ftbar_core::ftbar::SweepStrategy;
use ftbar_core::json::JsonObject;
use ftbar_core::reschedule::{reschedule_with_pools, RescheduleError, ScheduleArtifacts};
use ftbar_model::Problem;

use crate::cache::{canonical_key, CacheStats, ResponseCache};
use crate::persist::{self, ArtifactSeed, RestoreStatus, SnapshotData, SnapshotStats};
use crate::proto::{
    parse_request, render_error, render_ok, with_id, ErrorCode, Request, ScheduleRequest,
};
use crate::{panic_message, parse_problem, run_scheduler, signal, JobResult, SchedulerKind};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listener {
    /// A Unix-domain socket at this path (default transport).
    Unix(PathBuf),
    /// A TCP socket, `HOST:PORT`.
    Tcp(String),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Scheduling worker threads.
    pub workers: usize,
    /// Bounded work-queue depth; beyond it, backpressure kicks in.
    pub queue_depth: usize,
    /// Backpressure policy on a queue still full after dropping the jobs
    /// past their deadline: `true` sheds the oldest queued request
    /// (answering it `overloaded`), `false` rejects the new one.
    pub shed_oldest: bool,
    /// Response-cache byte budget; `0` disables caching.
    pub cache_bytes: usize,
    /// Default per-request deadline (overridable per request).
    pub default_timeout_ms: u64,
    /// Maximum request-frame size in bytes; longer frames answer
    /// `too_large`.
    pub max_frame_bytes: usize,
    /// Socket read/write timeout, so stalled clients release their
    /// connection thread.
    pub io_timeout_ms: u64,
    /// Minimum operation count before degradation is considered (the
    /// clustered fallback only pays off on large problems).
    pub degrade_min_ops: usize,
    /// Deadline headroom below which a worker degrades an eligible job.
    pub degrade_headroom_ms: u64,
    /// Queue depth at enqueue time at or above which an eligible job
    /// degrades.
    pub degrade_queue_depth: usize,
    /// Retained-schedule slots for incremental rescheduling: the most
    /// recent N distinct FTBAR answers keep their engine artifacts so a
    /// `reschedule` request repairs instead of re-running. `0` disables
    /// retention (reschedule then always schedules the edited problem
    /// from scratch).
    pub artifact_slots: usize,
    /// Durable-state snapshot file. `None` disables persistence: no
    /// restore at startup, no periodic or drain snapshots, and the
    /// `snapshot` op answers `snapshot_error`.
    pub snapshot_path: Option<PathBuf>,
    /// Seconds between periodic snapshots; `0` disables the ticker
    /// (snapshots still happen on drain and on demand).
    pub snapshot_interval_secs: u64,
    /// Chaos/test hook: a spec containing this marker panics inside the
    /// worker (see [`crate::BatchConfig::panic_marker`]). `None` in
    /// production.
    pub panic_marker: Option<String>,
    /// Install the SIGTERM/SIGINT handler and poll it in the accept
    /// loop. The CLI sets this; tests leave it off.
    pub handle_signals: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            shed_oldest: false,
            cache_bytes: 8 * 1024 * 1024,
            default_timeout_ms: 10_000,
            max_frame_bytes: 1024 * 1024,
            io_timeout_ms: 10_000,
            degrade_min_ops: 256,
            degrade_headroom_ms: 250,
            degrade_queue_depth: 8,
            artifact_slots: 32,
            snapshot_path: None,
            snapshot_interval_secs: 0,
            panic_marker: None,
            handle_signals: false,
        }
    }
}

/// What a worker sends back to the waiting connection thread.
type WorkerReply = Result<(Arc<str>, bool), (ErrorCode, String)>;

struct Job {
    req: ScheduleRequest,
    /// `Some` makes this a reschedule job: apply the edit to the parent
    /// problem identified by `req`, repairing from retained artifacts
    /// when possible.
    edit: Option<ProblemEdit>,
    raw_key: String,
    deadline: Instant,
    depth_at_enqueue: usize,
    reply: mpsc::Sender<WorkerReply>,
}

/// Per-outcome request counters (reported by `status`). Every frame
/// except a successful `status`, `snapshot` or `shutdown` reply lands in
/// exactly one of `ok` and `errors`; `degraded` counts a subset of `ok`
/// and `shed` a subset of the `overloaded` errors.
#[derive(Debug, Default)]
struct Counters {
    ok: AtomicU64,
    degraded: AtomicU64,
    /// Queued requests answered `overloaded` because a newer one shed
    /// them (counted when the shed requester receives that answer).
    shed: AtomicU64,
    /// Reschedule requests answered by incremental repair of retained
    /// artifacts.
    reschedule_repairs: AtomicU64,
    /// Reschedule requests answered by a full run of the edited problem
    /// (structural edit, artifacts missing/evicted, clustered strategy,
    /// or a non-FTBAR scheduler).
    reschedule_fallbacks: AtomicU64,
    /// Snapshots written successfully (periodic, on-demand, and drain).
    snapshots_written: AtomicU64,
    /// Snapshot attempts that failed to write.
    snapshots_failed: AtomicU64,
    /// Snapshot requests coalesced into an already-in-flight write.
    snapshots_coalesced: AtomicU64,
    /// Error replies, indexed by `code as usize` (see [`ErrorCode::ALL`]).
    errors: [AtomicU64; ErrorCode::ALL.len()],
}

/// The longest edit lineage a snapshot seed records. An artifact whose
/// chain outgrows this is still served from memory but is no longer
/// persisted — replaying an unbounded chain at restore would trade
/// startup time for an ever-rarer cache line.
const MAX_SEED_EDITS: usize = 32;

/// A retained artifact plus the replayable lineage that can recreate it
/// after a restart (`None` when the lineage is unknown or too long).
struct ArtifactEntry {
    artifacts: Arc<ScheduleArtifacts>,
    seed: Option<ArtifactSeed>,
}

/// Bounded FIFO store of retained schedule artifacts, keyed by the
/// canonical key of the response they belong to. A reschedule request
/// looks its parent up here; every retained FTBAR answer (schedule or
/// repair) is inserted, evicting the oldest distinct key over capacity.
struct ArtifactStore {
    map: HashMap<String, ArtifactEntry>,
    order: VecDeque<String>,
    cap: usize,
}

impl ArtifactStore {
    fn new(cap: usize) -> Self {
        ArtifactStore {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    fn get(&self, key: &str) -> Option<Arc<ScheduleArtifacts>> {
        self.map.get(key).map(|e| Arc::clone(&e.artifacts))
    }

    fn get_seed(&self, key: &str) -> Option<ArtifactSeed> {
        self.map.get(key).and_then(|e| e.seed.clone())
    }

    fn insert(
        &mut self,
        key: String,
        artifacts: Arc<ScheduleArtifacts>,
        seed: Option<ArtifactSeed>,
    ) {
        if self.cap == 0 {
            return;
        }
        if self
            .map
            .insert(key.clone(), ArtifactEntry { artifacts, seed })
            .is_none()
        {
            self.order.push_back(key);
            while self.order.len() > self.cap {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }

    /// The persistable seeds, oldest insertion first (snapshot order).
    fn export_seeds(&self) -> Vec<ArtifactSeed> {
        self.order
            .iter()
            .filter_map(|k| self.map.get(k).and_then(|e| e.seed.clone()))
            .collect()
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// One response line per request line, plus whether the frame asked the
/// daemon to shut down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Write this response and keep serving.
    Reply(String),
    /// Write this response, then drain and exit.
    ShutdownRequested(String),
}

impl FrameOutcome {
    /// The response line, whichever variant.
    pub fn response(&self) -> &str {
        match self {
            FrameOutcome::Reply(r) | FrameOutcome::ShutdownRequested(r) => r,
        }
    }
}

/// What a restore attempt found, reported by `status` for the life of
/// the process.
#[derive(Debug, Clone)]
pub struct RestoreSummary {
    /// How the snapshot read ended.
    pub status: RestoreStatus,
    /// Response-cache entries re-inserted.
    pub cache_entries: usize,
    /// Raw-memo entries re-inserted.
    pub memos: usize,
    /// Poisoned keys re-inserted.
    pub poisoned: usize,
    /// Artifact seeds successfully replayed into retained artifacts.
    pub seeds_replayed: usize,
    /// Seeds dropped (stale spec, failed replay, retention disabled).
    pub seeds_dropped: usize,
}

/// Snapshot write coordination: one writer at a time, concurrent
/// requests coalesce onto the in-flight write's outcome.
#[derive(Default)]
struct SnapState {
    /// A snapshot write is in flight.
    writing: bool,
    /// Callers currently waiting to coalesce (test observability).
    waiters: usize,
    /// Bumped when a write completes, so waiters know *their* write
    /// finished rather than some earlier one.
    generation: u64,
    /// Timestamp and outcome of the most recent write.
    last: Option<(Instant, Result<SnapshotStats, String>)>,
}

/// Shared state of a running daemon. Construct with [`ServerState::new`],
/// then either drive frames directly ([`ServerState::handle_frame`], with
/// [`ServerState::spawn_workers`]) or hand it to [`serve`].
pub struct ServerState {
    config: ServerConfig,
    cache: Mutex<ResponseCache>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    artifacts: Mutex<ArtifactStore>,
    poisoned: Mutex<HashSet<String>>,
    shutdown: AtomicBool,
    started: Instant,
    counters: Counters,
    in_flight: AtomicUsize,
    active_connections: AtomicUsize,
    snap: Mutex<SnapState>,
    snap_cv: Condvar,
    restored: AtomicBool,
    restore_summary: Mutex<Option<RestoreSummary>>,
}

impl ServerState {
    /// Fresh daemon state (no workers yet).
    pub fn new(config: ServerConfig) -> Arc<Self> {
        Arc::new(ServerState {
            cache: Mutex::new(ResponseCache::new(config.cache_bytes)),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            artifacts: Mutex::new(ArtifactStore::new(config.artifact_slots)),
            poisoned: Mutex::new(HashSet::new()),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            counters: Counters::default(),
            in_flight: AtomicUsize::new(0),
            active_connections: AtomicUsize::new(0),
            snap: Mutex::new(SnapState::default()),
            snap_cv: Condvar::new(),
            restored: AtomicBool::new(false),
            restore_summary: Mutex::new(None),
            config,
        })
    }

    /// The configuration this daemon runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Whether shutdown has been requested (by frame or signal).
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Requests shutdown: stop admitting work, wake idle workers.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue_cv.notify_all();
    }

    /// Spawns the scheduling worker pool; the handles join once shutdown
    /// has been requested and the queue has drained.
    pub fn spawn_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(self);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect()
    }

    /// Handles one request frame, producing exactly one response line.
    ///
    /// This is the whole daemon minus the sockets: admission control,
    /// cache, queueing, deadline, poisoning — tests and the chaos harness
    /// call it directly.
    pub fn handle_frame(&self, line: &str) -> FrameOutcome {
        if line.len() > self.config.max_frame_bytes {
            return FrameOutcome::Reply(self.error(None, ErrorCode::TooLarge, "frame too large"));
        }
        let req = match parse_request(line) {
            Ok(r) => r,
            Err(msg) => {
                return FrameOutcome::Reply(self.error(None, ErrorCode::BadRequest, &msg));
            }
        };
        match req {
            Request::Status => FrameOutcome::Reply(self.render_status()),
            Request::Snapshot => FrameOutcome::Reply(self.handle_snapshot()),
            Request::Shutdown => {
                self.begin_shutdown();
                FrameOutcome::ShutdownRequested(
                    JsonObject::new()
                        .str("status", "ok")
                        .str("op", "shutdown")
                        .raw("draining", true)
                        .finish(),
                )
            }
            Request::Schedule(req) => {
                let raw_key = req.raw_key();
                FrameOutcome::Reply(self.handle_schedule(req, None, raw_key))
            }
            Request::Reschedule(r) => {
                let raw_key = r.raw_key();
                FrameOutcome::Reply(self.handle_schedule(r.base, Some(r.edit), raw_key))
            }
        }
    }

    fn handle_schedule(
        &self,
        req: ScheduleRequest,
        edit: Option<ProblemEdit>,
        raw_key: String,
    ) -> String {
        let id = req.id.clone();
        let id = id.as_deref();
        if self.shutting_down() {
            return self.error(id, ErrorCode::ShuttingDown, "daemon is draining");
        }

        // Poisoned specs are refused cheaply, before any work.
        if self.poisoned.lock().unwrap().contains(&raw_key) {
            return self.error(
                id,
                ErrorCode::Poisoned,
                "this request previously panicked a worker and is refused",
            );
        }

        // Cache fast path: exact raw text, no parsing.
        if let Some(body) = self.cache.lock().unwrap().get_raw(&raw_key) {
            self.counters.ok.fetch_add(1, Ordering::Relaxed);
            return with_id(id, &body);
        }

        let timeout = Duration::from_millis(
            req.timeout_ms
                .unwrap_or(self.config.default_timeout_ms)
                .max(1),
        );
        let deadline = Instant::now() + timeout;
        let (tx, rx) = mpsc::channel::<WorkerReply>();

        // Admission control under the queue lock.
        {
            let mut queue = self.queue.lock().unwrap();
            if queue.len() >= self.config.queue_depth.max(1) {
                // Jobs past their deadline were already answered `timeout`
                // (dropping one disconnects its requester, which answers
                // the same); free their slots before turning anyone away.
                let now = Instant::now();
                queue.retain(|job| job.deadline > now);
            }
            if queue.len() >= self.config.queue_depth.max(1) {
                if self.config.shed_oldest {
                    if let Some(oldest) = queue.pop_front() {
                        let _ = oldest.reply.send(Err((
                            ErrorCode::Overloaded,
                            "shed by a newer request (shed-oldest backpressure)".to_owned(),
                        )));
                    }
                } else {
                    drop(queue);
                    return self.error(
                        id,
                        ErrorCode::Overloaded,
                        "work queue is full (reject-new backpressure)",
                    );
                }
            }
            let depth_at_enqueue = queue.len();
            queue.push_back(Job {
                req,
                edit,
                raw_key,
                deadline,
                depth_at_enqueue,
                reply: tx,
            });
        }
        self.queue_cv.notify_one();

        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Ok((body, degraded))) => {
                self.counters.ok.fetch_add(1, Ordering::Relaxed);
                if degraded {
                    self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                }
                with_id(id, &body)
            }
            Ok(Err((code, message))) => {
                // Workers never answer `overloaded`: only a newer request
                // shedding this one does. A shed job whose requester had
                // already timed out is answered `timeout`, not counted here.
                if code == ErrorCode::Overloaded {
                    self.counters.shed.fetch_add(1, Ordering::Relaxed);
                }
                self.error(id, code, &message)
            }
            Err(_) => self.error(
                id,
                ErrorCode::Timeout,
                &format!("deadline of {} ms elapsed", timeout.as_millis()),
            ),
        }
    }

    fn error(&self, id: Option<&str>, code: ErrorCode, message: &str) -> String {
        self.counters.errors[code as usize].fetch_add(1, Ordering::Relaxed);
        render_error(id, code, message)
    }

    /// Cache statistics snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().unwrap().stats()
    }

    /// Collects the durable state into a [`SnapshotData`]. The three
    /// locks are taken one at a time (never nested); a snapshot is a
    /// point-in-time view per section, which is sound because every
    /// record is independently valid — restore never needs cross-section
    /// consistency (a memo without its entry resolves to a miss, a seed
    /// replays standalone).
    fn collect_snapshot(&self) -> SnapshotData {
        let (cache_entries, memos) = self.cache.lock().unwrap().export();
        let mut poisoned: Vec<String> = self.poisoned.lock().unwrap().iter().cloned().collect();
        poisoned.sort_unstable();
        let seeds = self.artifacts.lock().unwrap().export_seeds();
        SnapshotData {
            cache_entries,
            memos,
            poisoned,
            seeds,
        }
    }

    /// Writes a snapshot now (or coalesces onto one already in flight).
    /// Returns the write's stats and whether this call coalesced.
    ///
    /// # Errors
    ///
    /// A message when no snapshot path is configured or the write (this
    /// call's own, or the in-flight one a coalesced call joined) failed.
    pub fn snapshot_now(&self) -> Result<(SnapshotStats, bool), String> {
        let Some(path) = self.config.snapshot_path.as_ref() else {
            return Err("no snapshot path configured (start with --snapshot PATH)".into());
        };
        {
            let mut s = self.snap.lock().unwrap();
            if s.writing {
                // Coalesce: wait for the in-flight write and share its
                // outcome instead of stacking a second writer.
                let gen = s.generation;
                s.waiters += 1;
                while s.writing && s.generation == gen {
                    s = self.snap_cv.wait(s).unwrap();
                }
                s.waiters -= 1;
                self.counters
                    .snapshots_coalesced
                    .fetch_add(1, Ordering::Relaxed);
                return match &s.last {
                    Some((_, Ok(stats))) => Ok((*stats, true)),
                    Some((_, Err(e))) => Err(e.clone()),
                    None => Err("coalesced snapshot vanished".into()),
                };
            }
            s.writing = true;
        }
        let data = self.collect_snapshot();
        let result = persist::write_snapshot(path, &data).map_err(|e| e.to_string());
        {
            let mut s = self.snap.lock().unwrap();
            s.writing = false;
            s.generation += 1;
            s.last = Some((Instant::now(), result.clone()));
        }
        self.snap_cv.notify_all();
        match result {
            Ok(stats) => {
                self.counters
                    .snapshots_written
                    .fetch_add(1, Ordering::Relaxed);
                Ok((stats, false))
            }
            Err(e) => {
                self.counters
                    .snapshots_failed
                    .fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Restores durable state from the configured snapshot file, once,
    /// before serving. No-op without a snapshot path; a missing file is
    /// a clean first boot. Corruption degrades toward a cold start (see
    /// [`RestoreStatus`]) — this function cannot fail or panic the
    /// daemon, and every restored byte was CRC-validated.
    pub fn restore_from_snapshot(&self) {
        let Some(path) = self.config.snapshot_path.as_ref() else {
            return;
        };
        if self.restored.swap(true, Ordering::SeqCst) {
            return;
        }
        let restore = match persist::read_snapshot(path) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(_) => {
                // Unreadable file (not merely absent): treat as corrupt.
                *self.restore_summary.lock().unwrap() = Some(RestoreSummary {
                    status: RestoreStatus::RefusedCorrupt,
                    cache_entries: 0,
                    memos: 0,
                    poisoned: 0,
                    seeds_replayed: 0,
                    seeds_dropped: 0,
                });
                return;
            }
        };
        let mut summary = RestoreSummary {
            status: restore.status,
            cache_entries: restore.data.cache_entries.len(),
            memos: restore.data.memos.len(),
            poisoned: restore.data.poisoned.len(),
            seeds_replayed: 0,
            seeds_dropped: 0,
        };
        {
            let mut cache = self.cache.lock().unwrap();
            for (canonical, body) in &restore.data.cache_entries {
                cache.restore_entry(canonical, body);
            }
            for (raw, canonical) in &restore.data.memos {
                cache.restore_memo(raw, canonical);
            }
        }
        {
            let mut poisoned = self.poisoned.lock().unwrap();
            for raw in restore.data.poisoned {
                poisoned.insert(raw);
            }
        }
        // One arena serves every replay, as a worker's serves its jobs.
        let mut pools = EnginePools::default();
        for seed in restore.data.seeds {
            // Replay through the deterministic scheduler instead of
            // trusting serialized engine state. `catch_unwind` so an
            // adversarial snapshot can cost us artifacts, never the
            // daemon.
            let replayed = catch_unwind(AssertUnwindSafe(|| {
                rehydrate_seed(&seed, &self.config, &mut pools)
            }))
            .ok()
            .flatten();
            match replayed {
                Some((canonical, artifacts)) => {
                    self.artifacts.lock().unwrap().insert(
                        canonical,
                        Arc::new(artifacts),
                        Some(seed),
                    );
                    summary.seeds_replayed += 1;
                }
                None => summary.seeds_dropped += 1,
            }
        }
        *self.restore_summary.lock().unwrap() = Some(summary);
    }

    fn handle_snapshot(&self) -> String {
        match self.snapshot_now() {
            Ok((stats, coalesced)) => JsonObject::new()
                .str("status", "ok")
                .str("op", "snapshot")
                .raw("bytes", stats.bytes)
                .raw("cache_entries", stats.cache_entries)
                .raw("memos", stats.memos)
                .raw("poisoned", stats.poisoned)
                .raw("seeds", stats.seeds)
                .raw("coalesced", coalesced)
                .finish(),
            Err(msg) => self.error(None, ErrorCode::SnapshotError, &msg),
        }
    }

    fn render_status(&self) -> String {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let (stats, entries, bytes) = {
            let cache = self.cache.lock().unwrap();
            (cache.stats(), cache.len(), cache.used_bytes())
        };
        let cache = JsonObject::new()
            .raw("hits", stats.hits)
            .raw("misses", stats.misses)
            .raw("evictions", stats.evictions)
            .raw("insertions", stats.insertions)
            .raw("entries", entries)
            .raw("bytes", bytes)
            .raw("budget", self.config.cache_bytes)
            .finish();
        let mut requests = JsonObject::new();
        requests
            .raw("ok", load(&self.counters.ok))
            .raw("degraded", load(&self.counters.degraded))
            .raw("shed", load(&self.counters.shed));
        for code in ErrorCode::ALL {
            requests.raw(code.name(), load(&self.counters.errors[code as usize]));
        }
        let reschedule = JsonObject::new()
            .raw("repairs", load(&self.counters.reschedule_repairs))
            .raw("fallbacks", load(&self.counters.reschedule_fallbacks))
            .raw("artifacts", self.artifacts.lock().unwrap().len())
            .finish();
        JsonObject::new()
            .str("status", "ok")
            .str("op", "status")
            .raw("uptime_ms", self.started.elapsed().as_millis())
            .raw("queue_depth", self.queue.lock().unwrap().len())
            .raw("in_flight", self.in_flight.load(Ordering::Relaxed))
            .raw(
                "active_connections",
                self.active_connections.load(Ordering::Relaxed),
            )
            .raw("workers", self.config.workers.max(1))
            .raw("cache", cache)
            .raw("requests", requests.finish())
            .raw("reschedule", reschedule)
            .raw("snapshot", self.render_snapshot_status())
            .finish()
    }

    /// The `"snapshot"` object of the status response: configuration,
    /// written/failed/coalesced counters, the last write's age and
    /// per-section entry counts, and how the startup restore ended.
    fn render_snapshot_status(&self) -> String {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let mut out = JsonObject::new();
        out.raw("configured", self.config.snapshot_path.is_some())
            .raw("written", load(&self.counters.snapshots_written))
            .raw("failed", load(&self.counters.snapshots_failed))
            .raw("coalesced", load(&self.counters.snapshots_coalesced));
        let last = self.snap.lock().unwrap().last.clone();
        out.opt(
            "last_age_ms",
            last.as_ref().map(|(at, _)| at.elapsed().as_millis()),
        );
        let written = last.and_then(|(_, result)| result.ok());
        out.opt("last_bytes", written.map(|stats| stats.bytes));
        if let Some(stats) = written {
            out.raw("last_cache_entries", stats.cache_entries)
                .raw("last_memos", stats.memos)
                .raw("last_poisoned", stats.poisoned)
                .raw("last_seeds", stats.seeds);
        }
        match self.restore_summary.lock().unwrap().as_ref() {
            Some(r) => out
                .str("restore", r.status.name())
                .raw("restored_cache_entries", r.cache_entries)
                .raw("restored_memos", r.memos)
                .raw("restored_poisoned", r.poisoned)
                .raw("seeds_replayed", r.seeds_replayed)
                .raw("seeds_dropped", r.seeds_dropped),
            None => out.str("restore", "none"),
        };
        out.finish()
    }
}

/// Replays an [`ArtifactSeed`] into live retained artifacts: parse the
/// base spec, apply the npf override and the edit chain, and re-run the
/// retaining scheduler. Deterministic engines make the result
/// byte-equivalent to the artifacts the seed was taken from. The run
/// recycles `pools` (left fresh if it fails). `None` drops the seed
/// (stale spec, inapplicable edit, failed run).
fn rehydrate_seed(
    seed: &ArtifactSeed,
    config: &ServerConfig,
    pools: &mut EnginePools,
) -> Option<(String, ScheduleArtifacts)> {
    if seed.scheduler != SchedulerKind::Ftbar || config.artifact_slots == 0 {
        return None;
    }
    let strategy = SweepStrategy::from_name(&seed.strategy)?;
    let mut problem = parse_problem(&seed.spec, seed.npf).ok()?;
    for edit in &seed.edits {
        problem = edit.apply(&problem).ok()?;
    }
    let taken = std::mem::take(pools);
    let (scheduled, recycled) =
        run_scheduler(Cow::Owned(problem), seed.scheduler, strategy, true, taken);
    *pools = recycled;
    let artifacts = scheduled.ok()?.1.artifacts()?;
    let canonical = canonical_key(
        artifacts.problem(),
        seed.scheduler,
        &seed.strategy,
        seed.include_schedule,
    );
    Some((canonical, artifacts))
}

/// Why a worker chose (or declined) the degraded path.
pub(crate) struct Pressure {
    remaining: Duration,
    depth_at_enqueue: usize,
}

fn worker_loop(state: &Arc<ServerState>) {
    let mut pools = EnginePools::default();
    loop {
        let job = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if state.shutting_down() {
                    return; // queue drained, daemon draining: exit
                }
                let (q, _) = state
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap();
                queue = q;
            }
        };
        state.in_flight.fetch_add(1, Ordering::Relaxed);
        let reply = execute_job(state, &job, &mut pools);
        // Leave `in_flight` before answering, so a `status` the requester
        // sends after reading its reply never counts this job.
        state.in_flight.fetch_sub(1, Ordering::Relaxed);
        let _ = job.reply.send(reply);
    }
}

fn execute_job(state: &ServerState, job: &Job, pools: &mut EnginePools) -> WorkerReply {
    let now = Instant::now();
    if now >= job.deadline {
        // The requester has already been answered `timeout`; skip the work.
        return Err((
            ErrorCode::Timeout,
            "deadline elapsed before execution".to_owned(),
        ));
    }
    let pressure = Pressure {
        remaining: job.deadline.saturating_duration_since(now),
        depth_at_enqueue: job.depth_at_enqueue,
    };
    let taken = std::mem::take(pools);
    let outcome = catch_unwind(AssertUnwindSafe(|| match &job.edit {
        None => compute_response(&job.req, &state.config, Some(&pressure), taken),
        Some(edit) => compute_reschedule(state, &job.req, edit, taken),
    }));
    match outcome {
        Ok((result, p)) => {
            *pools = p;
            match result {
                Ok(computed) => {
                    let body: Arc<str> = Arc::from(computed.body.as_str());
                    if !computed.degraded {
                        state.cache.lock().unwrap().insert(
                            &job.raw_key,
                            &computed.canonical,
                            &body,
                        );
                    }
                    if let Some(artifacts) = computed.artifacts {
                        state.artifacts.lock().unwrap().insert(
                            computed.canonical,
                            Arc::new(artifacts),
                            computed.seed,
                        );
                    }
                    Ok((body, computed.degraded))
                }
                Err(e) => Err(e),
            }
        }
        Err(payload) => {
            // Pools died with the panicking closure; restart the arena
            // and remember the request so it is never re-run.
            *pools = EnginePools::default();
            state.poisoned.lock().unwrap().insert(job.raw_key.clone());
            Err((
                ErrorCode::InternalPanic,
                format!("worker panicked: {}", panic_message(payload.as_ref())),
            ))
        }
    }
}

/// A successfully computed schedule answer.
pub(crate) struct Computed {
    /// Rendered id-less response body (the cacheable bytes).
    pub body: String,
    /// Canonical cache key of the problem this body answers.
    pub canonical: String,
    /// True when the degraded (clustered) fallback ran; never cached.
    pub degraded: bool,
    /// Retained engine state for later incremental rescheduling, when
    /// the run produced one worth keeping.
    pub artifacts: Option<ScheduleArtifacts>,
    /// Replayable lineage of `artifacts`, persisted in snapshots so the
    /// artifact store survives restarts.
    pub seed: Option<ArtifactSeed>,
}

/// A computed schedule answer or the error code + message to report.
pub(crate) type ComputedResponse = Result<Computed, (ErrorCode, String)>;

/// Computes the full (body, canonical key, degraded) answer for a
/// schedule request. With `pressure: None` this is the *direct* path:
/// exactly what an unloaded daemon answers — the chaos harness compares
/// server bytes against it.
pub(crate) fn compute_response(
    req: &ScheduleRequest,
    config: &ServerConfig,
    pressure: Option<&Pressure>,
    pools: EnginePools,
) -> (ComputedResponse, EnginePools) {
    check_panic_marker(req, config);
    let problem = match parse_problem(&req.spec, req.npf) {
        Ok(p) => p,
        Err(e) => return (Err((ErrorCode::SpecError, e)), pools),
    };

    // Graceful degradation: under deadline pressure or a deep queue, a
    // large problem falls back from the exact sweep to the clustered
    // one. Only when the caller left the strategy choice to the daemon.
    let exact_requested = matches!(req.strategy, None | Some(SweepStrategy::Adaptive));
    let degraded = pressure.is_some_and(|p| {
        exact_requested
            && req.scheduler == SchedulerKind::Ftbar
            && problem.alg().op_count() >= config.degrade_min_ops
            && (p.remaining < Duration::from_millis(config.degrade_headroom_ms)
                || p.depth_at_enqueue >= config.degrade_queue_depth)
    });
    let strategy = if degraded {
        SweepStrategy::Clustered
    } else {
        req.strategy.unwrap_or_default()
    };
    // Retain the engine state so a later `reschedule` of this problem
    // repairs instead of re-running.
    let retain = !degraded && config.artifact_slots > 0;
    let (scheduled, pools) =
        run_scheduler(Cow::Owned(problem), req.scheduler, strategy, retain, pools);
    let computed = scheduled.map(|(schedule, run)| {
        render_scheduled(req, run.problem(), schedule, degraded).keep(run.artifacts(), || {
            Some(ArtifactSeed::of_request(req, Vec::new()))
        })
    });
    (computed.map_err(|e| (ErrorCode::ScheduleError, e)), pools)
}

/// Chaos/test hook: panics inside the worker when the spec carries the
/// configured marker.
fn check_panic_marker(req: &ScheduleRequest, config: &ServerConfig) {
    if let Some(marker) = &config.panic_marker {
        if req.spec.contains(marker.as_str()) {
            panic!("injected panic (marker `{marker}`)");
        }
    }
}

/// Renders the deterministic (body, canonical key) answer for `schedule`
/// of `problem` under `req`'s rendering options. The canonical key uses
/// the *requested* strategy: degraded bodies are never cached, so the key
/// only ever labels exact responses.
fn render_scheduled(
    req: &ScheduleRequest,
    problem: &Problem,
    schedule: ftbar_core::Schedule,
    degraded: bool,
) -> Computed {
    let result = JobResult::new(req.scheduler, problem, schedule, req.include_schedule);
    let strategy = req.strategy.unwrap_or_default().name();
    Computed {
        body: render_ok(None, &result, degraded),
        canonical: canonical_key(problem, req.scheduler, strategy, req.include_schedule),
        degraded,
        artifacts: None,
        seed: None,
    }
}

impl Computed {
    /// Attaches the run's retained `artifacts`, if any, with their
    /// replayable lineage (`seed` is only called when there are some).
    fn keep(
        mut self,
        artifacts: Option<ScheduleArtifacts>,
        seed: impl FnOnce() -> Option<ArtifactSeed>,
    ) -> Computed {
        if artifacts.is_some() {
            self.seed = seed();
        }
        self.artifacts = artifacts;
        self
    }
}

impl ArtifactSeed {
    /// The lineage of a request's answer: its parent problem plus `edits`.
    fn of_request(req: &ScheduleRequest, edits: Vec<ProblemEdit>) -> ArtifactSeed {
        ArtifactSeed {
            scheduler: req.scheduler,
            strategy: req.strategy.unwrap_or_default().name().to_owned(),
            npf: req.npf,
            include_schedule: req.include_schedule,
            spec: req.spec.clone(),
            edits,
        }
    }
}

/// Computes the answer for a `reschedule` request: parse the parent
/// problem, look up its retained artifacts by canonical key, and repair —
/// falling back to a full run of the edited problem when the artifacts
/// are missing (never scheduled, evicted, clustered, HBP) or the edit is
/// structural. The body is byte-identical to what a `schedule` request
/// for the edited problem answers; repair never degrades.
pub(crate) fn compute_reschedule(
    state: &ServerState,
    req: &ScheduleRequest,
    edit: &ProblemEdit,
    pools: EnginePools,
) -> (ComputedResponse, EnginePools) {
    let config = &state.config;
    check_panic_marker(req, config);
    let problem = match parse_problem(&req.spec, req.npf) {
        Ok(p) => p,
        Err(e) => return (Err((ErrorCode::SpecError, e)), pools),
    };
    let bad_edit = |e: EditError| (ErrorCode::BadEdit, format!("bad edit: {e}"));
    let retain = config.artifact_slots > 0;

    // HBP keeps no artifacts, so it always takes the full-run fallback.
    let (parent, parent_seed) = if req.scheduler == SchedulerKind::Ftbar {
        let strategy = req.strategy.unwrap_or_default().name();
        let parent_key = canonical_key(&problem, req.scheduler, strategy, req.include_schedule);
        let store = state.artifacts.lock().unwrap();
        (store.get(&parent_key), store.get_seed(&parent_key))
    } else {
        (None, None)
    };
    let (computed, pools, repaired) = match parent {
        Some(prev) => {
            // A failed repair drops the arena, as a failed run does.
            let (out, pools) = match reschedule_with_pools(&prev, edit, pools) {
                Ok(done) => done,
                Err(RescheduleError::Edit(e)) => return (Err(bad_edit(e)), EnginePools::default()),
                Err(RescheduleError::Schedule(e)) => {
                    let message = format!("schedule error: {e}");
                    return (
                        Err((ErrorCode::ScheduleError, message)),
                        EnginePools::default(),
                    );
                }
            };
            let computed = render_scheduled(req, out.artifacts.problem(), out.schedule, false);
            let artifacts = (retain && out.artifacts.step_count() > 0).then_some(out.artifacts);
            // Extend the parent's lineage by this edit. A parent whose
            // own lineage was too long to persist leaves this artifact
            // unpersisted too.
            let computed = computed.keep(artifacts, || {
                parent_seed.and_then(|mut s| {
                    (s.edits.len() < MAX_SEED_EDITS).then(|| {
                        s.edits.push(edit.clone());
                        s
                    })
                })
            });
            (computed, pools, !out.report.fell_back)
        }
        None => {
            let edited = match edit.apply(&problem) {
                Ok(p) => p,
                Err(e) => return (Err(bad_edit(e)), pools),
            };
            let strategy = req.strategy.unwrap_or_default();
            let (scheduled, pools) =
                run_scheduler(Cow::Owned(edited), req.scheduler, strategy, retain, pools);
            let (schedule, run) = match scheduled {
                Ok(s) => s,
                Err(e) => return (Err((ErrorCode::ScheduleError, e)), pools),
            };
            // A fallback run starts a fresh lineage from the base request.
            let computed = render_scheduled(req, run.problem(), schedule, false)
                .keep(run.artifacts(), || {
                    Some(ArtifactSeed::of_request(req, vec![edit.clone()]))
                });
            (computed, pools, false)
        }
    };
    let counter = if repaired {
        &state.counters.reschedule_repairs
    } else {
        &state.counters.reschedule_fallbacks
    };
    counter.fetch_add(1, Ordering::Relaxed);
    (Ok(computed), pools)
}

/// The response an unloaded daemon gives `req`, bypassing every queue and
/// cache: the byte-identity reference for tests and the chaos harness.
pub fn direct_response(req: &ScheduleRequest) -> String {
    direct_with(req, &ServerConfig::default())
}

/// [`direct_response`] under `config` (the chaos daemon runs with a panic
/// marker, which must not change uninjected responses).
pub(crate) fn direct_with(req: &ScheduleRequest, config: &ServerConfig) -> String {
    let (result, _pools) = compute_response(req, config, None, EnginePools::default());
    match result {
        Ok(computed) => with_id(req.id.as_deref(), &computed.body),
        Err((code, message)) => render_error(req.id.as_deref(), code, &message),
    }
}

// ---------------------------------------------------------------------------
// Listener shell
// ---------------------------------------------------------------------------

/// Runs the daemon on `listener` until a `shutdown` request (or, with
/// [`ServerConfig::handle_signals`], SIGTERM/SIGINT) drains it.
///
/// Returns `Ok(())` after a clean drain — the process should then exit 0.
///
/// # Errors
///
/// Propagates listener setup failures (bind, nonblocking mode). Accept
/// and per-connection I/O errors are absorbed: a broken client must never
/// take the daemon down.
pub fn serve(listener: &Listener, config: ServerConfig) -> std::io::Result<()> {
    let state = ServerState::new(config);
    serve_with_state(listener, &state)
}

/// [`serve`] over caller-constructed state (tests and the chaos harness
/// keep a handle to inspect counters while the daemon runs).
pub fn serve_with_state(listener: &Listener, state: &Arc<ServerState>) -> std::io::Result<()> {
    if state.config.handle_signals {
        signal::install();
    }
    // Warm restart: restore durable state before the first connection so
    // no request can observe a half-restored cache.
    state.restore_from_snapshot();
    let workers = state.spawn_workers();
    let ticker = spawn_snapshot_ticker(state);
    match listener {
        Listener::Unix(path) => {
            // A stale socket file from a crashed run would fail the bind.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            accept_loop(state, || match l.accept() {
                Ok((stream, _)) => {
                    let timeout = Duration::from_millis(state.config.io_timeout_ms.max(1));
                    let _ = stream.set_read_timeout(Some(timeout));
                    let _ = stream.set_write_timeout(Some(timeout));
                    let reader = stream.try_clone().ok()?;
                    Some((
                        Box::new(reader) as Box<dyn Read + Send>,
                        Box::new(stream) as Box<dyn Write + Send>,
                    ))
                }
                Err(_) => None,
            });
            let _ = std::fs::remove_file(path);
        }
        Listener::Tcp(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            accept_loop(state, || match l.accept() {
                Ok((stream, _)) => {
                    let timeout = Duration::from_millis(state.config.io_timeout_ms.max(1));
                    let _ = stream.set_read_timeout(Some(timeout));
                    let _ = stream.set_write_timeout(Some(timeout));
                    let _ = stream.set_nodelay(true);
                    let reader = stream.try_clone().ok()?;
                    Some((
                        Box::new(reader) as Box<dyn Read + Send>,
                        Box::new(stream) as Box<dyn Write + Send>,
                    ))
                }
                Err(_) => None,
            });
        }
    }

    // Drain: workers exit once the queue is empty, connections once their
    // client hangs up or times out (bounded by io_timeout).
    state.begin_shutdown();
    for w in workers {
        let _ = w.join();
    }
    if let Some(t) = ticker {
        let _ = t.join();
    }
    // Final snapshot after the queue has drained, so the file carries
    // everything the daemon learned — including from requests that were
    // still in flight when shutdown began. This is the SIGTERM path too:
    // the signal only sets a latch, so a snapshot can never be torn by
    // it, only taken here after the drain.
    if state.config.snapshot_path.is_some() {
        let _ = state.snapshot_now();
    }
    let grace = Duration::from_millis(2 * state.config.io_timeout_ms.max(1));
    let drain_start = Instant::now();
    while state.active_connections.load(Ordering::Relaxed) > 0 && drain_start.elapsed() < grace {
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// Spawns the periodic-snapshot thread, when configured. Polls the
/// shutdown latch every 25 ms so drain is never delayed by a long
/// interval; the final drain snapshot is taken by [`serve_with_state`]
/// after the workers join, not here.
fn spawn_snapshot_ticker(state: &Arc<ServerState>) -> Option<std::thread::JoinHandle<()>> {
    if state.config.snapshot_path.is_none() || state.config.snapshot_interval_secs == 0 {
        return None;
    }
    let state = Arc::clone(state);
    Some(std::thread::spawn(move || {
        let period = Duration::from_secs(state.config.snapshot_interval_secs);
        let mut last = Instant::now();
        while !state.shutting_down() {
            std::thread::sleep(Duration::from_millis(25));
            if last.elapsed() >= period {
                let _ = state.snapshot_now();
                last = Instant::now();
            }
        }
    }))
}

/// Polls `accept` until shutdown; `accept` returns a reader/writer pair
/// for each new connection or `None` when no connection is ready.
fn accept_loop<F>(state: &Arc<ServerState>, accept: F)
where
    F: Fn() -> Option<(Box<dyn Read + Send>, Box<dyn Write + Send>)>,
{
    loop {
        if state.shutting_down() || (state.config.handle_signals && signal::requested()) {
            state.begin_shutdown();
            return;
        }
        match accept() {
            Some((reader, writer)) => {
                let state = Arc::clone(state);
                state.active_connections.fetch_add(1, Ordering::Relaxed);
                std::thread::spawn(move || {
                    handle_connection(&state, reader, writer);
                    state.active_connections.fetch_sub(1, Ordering::Relaxed);
                });
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Serves one connection: reads byte-capped JSON lines, answers each with
/// exactly one response line. Any I/O error (including a stalled peer
/// tripping the socket timeout) closes the connection; the daemon lives
/// on.
fn handle_connection(
    state: &ServerState,
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
) {
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(writer);
    let limit = state.config.max_frame_bytes as u64 + 1;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        let n = match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(n) => n,
            Err(_) => return, // stalled or broken client
        };
        if n == 0 {
            return; // EOF
        }
        if buf.last() != Some(&b'\n') && n as u64 >= limit {
            // Oversized frame: answer and close — the stream cannot be
            // resynchronized to the next frame boundary.
            let resp = state.error(None, ErrorCode::TooLarge, "frame exceeds max_frame_bytes");
            let _ = writeln!(writer, "{resp}");
            let _ = writer.flush();
            return;
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(s) => s.trim_end_matches(['\n', '\r']).trim(),
            Err(_) => {
                let resp = state.error(None, ErrorCode::BadRequest, "frame is not UTF-8");
                if writeln!(writer, "{resp}").is_err() || writer.flush().is_err() {
                    return;
                }
                continue;
            }
        };
        if line.is_empty() {
            continue;
        }
        match state.handle_frame(line) {
            FrameOutcome::Reply(resp) => {
                if writeln!(writer, "{resp}").is_err() {
                    return;
                }
                // Flush only when no pipelined frame is already buffered:
                // a deep pipeline gets its replies batched into a few
                // syscalls, while strict request/response still sees the
                // reply immediately (the read buffer is empty then).
                if reader.buffer().is_empty() && writer.flush().is_err() {
                    return;
                }
            }
            FrameOutcome::ShutdownRequested(resp) => {
                let _ = writeln!(writer, "{resp}");
                let _ = writer.flush();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_snapshot_requests_coalesce_not_corrupt() {
        let dir = std::env::temp_dir().join(format!("ftbar-snapcoal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let state = ServerState::new(ServerConfig {
            snapshot_path: Some(dir.join("state.snap")),
            ..ServerConfig::default()
        });
        // Simulate an in-flight write, park two callers on it.
        state.snap.lock().unwrap().writing = true;
        let joiners: Vec<_> = (0..2)
            .map(|_| {
                let st = Arc::clone(&state);
                std::thread::spawn(move || st.snapshot_now())
            })
            .collect();
        // Deterministic rendezvous: wait until both callers are parked.
        while state.snap.lock().unwrap().waiters != 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Complete the fake write; both callers must adopt its outcome.
        {
            let mut s = state.snap.lock().unwrap();
            s.writing = false;
            s.generation += 1;
            s.last = Some((Instant::now(), Ok(SnapshotStats::default())));
        }
        state.snap_cv.notify_all();
        for j in joiners {
            let (stats, coalesced) = j.join().unwrap().unwrap();
            assert!(coalesced, "parked caller must coalesce, not re-write");
            assert_eq!(stats, SnapshotStats::default());
        }
        assert_eq!(
            state.counters.snapshots_coalesced.load(Ordering::Relaxed),
            2
        );
        assert_eq!(state.counters.snapshots_written.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_flight_is_released_before_the_reply() {
        // A requester that has its answer must never see its own job in
        // flight: the worker decrements before it sends, and the channel
        // orders that decrement before the requester's next read.
        let state = ServerState::new(ServerConfig {
            workers: 1,
            cache_bytes: 0,
            ..ServerConfig::default()
        });
        let workers = state.spawn_workers();
        let spec = ftbar_model::spec::print_problem(&ftbar_model::paper_example());
        let frame = JsonObject::new().str("spec", &spec).finish();
        for _ in 0..20 {
            assert!(state
                .handle_frame(&frame)
                .response()
                .contains("\"status\": \"ok\""));
            assert_eq!(state.in_flight.load(Ordering::Relaxed), 0);
            let status = state.handle_frame(r#"{"op": "status"}"#);
            assert!(status.response().contains("\"in_flight\": 0"));
        }
        state.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn snapshot_op_without_path_answers_snapshot_error() {
        let state = ServerState::new(ServerConfig::default());
        let out = state.handle_frame(r#"{"op": "snapshot"}"#);
        assert!(
            out.response().contains("\"code\": \"snapshot_error\""),
            "got {}",
            out.response()
        );
        let status = state.handle_frame(r#"{"op": "status"}"#);
        assert!(status.response().contains("\"configured\": false"));
        assert!(status.response().contains("\"restore\": \"none\""));
        assert!(status.response().contains("\"snapshot_error\": 1"));
    }

    #[test]
    fn snapshot_op_writes_a_loadable_file() {
        let dir = std::env::temp_dir().join(format!("ftbar-snapop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let state = ServerState::new(ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        });
        state.poisoned.lock().unwrap().insert("bad-key".into());
        let out = state.handle_frame(r#"{"op": "snapshot"}"#);
        assert!(out.response().contains("\"op\": \"snapshot\""));
        assert!(out.response().contains("\"poisoned\": 1"));
        let restore = persist::read_snapshot(&path).unwrap().unwrap();
        assert_eq!(restore.status, RestoreStatus::Restored);
        assert_eq!(restore.data.poisoned, vec!["bad-key".to_owned()]);
        let status = state.handle_frame(r#"{"op": "status"}"#);
        assert!(status.response().contains("\"written\": 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
