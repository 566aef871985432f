//! Crash-safe snapshot/restore of durable daemon state (warm restarts).
//!
//! A snapshot is a single file capturing everything the daemon memoizes
//! across requests: the response cache (canonical-key entries and the
//! raw-text memo layer in front of them), the poisoned-spec set, and the
//! *seeds* of the reschedule artifact store. The format is versioned,
//! length-prefixed, and checksummed per record:
//!
//! ```text
//! [magic "FTBARSNP"][version: u32 LE]
//! repeat: [kind: u8][len: u32 LE][payload: len bytes][crc32: u32 LE]
//! last:   [kind 0xED][len 4][record count: u32 LE][crc32]
//! ```
//!
//! The CRC of each record covers its kind byte, length prefix, and
//! payload, so a bit flip anywhere in a record is detected. The trailing
//! `END` record carries the count of preceding records, so a snapshot
//! that merely *stops early* (torn write, truncation, kill mid-write) is
//! distinguishable from one that ends where it meant to.
//!
//! **Writes are atomic**: the snapshot is written to a sibling temp file,
//! flushed with `fsync`, renamed over the target, and the parent
//! directory synced — a reader never observes a half-written snapshot at
//! the target path, no matter when the writer dies.
//!
//! **Restore is paranoid**: a bad magic or unknown version refuses the
//! whole file ([`RestoreStatus::RefusedCorrupt`]); a record that is
//! truncated or fails its CRC silently drops the tail from that point
//! ([`RestoreStatus::PartialTailDrop`]), keeping every record before it;
//! only a snapshot whose `END` trailer is reached and count-consistent
//! restores cleanly ([`RestoreStatus::Restored`]). Corruption can reduce
//! a restore to a cold start but can never produce wrong bytes: cache
//! bodies are re-inserted verbatim, and artifact seeds are *replayed*
//! through the deterministic scheduler rather than deserializing engine
//! internals, so a restored daemon's answers are byte-identical to both
//! its pre-restart answers and a cold daemon's.
//!
//! Artifacts are persisted as [`ArtifactSeed`]s — the request lineage
//! (base schedule request fields plus the ordered edit chain) instead of
//! the retained engine state itself. Rehydration re-runs
//! `schedule_retained` on the reconstructed problem; PR 9's property
//! tests prove repair ≡ from-scratch byte-identity, which makes replay a
//! sound (and compact) serialization of the artifact store.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ftbar_core::edit::ProblemEdit;
use ftbar_core::json::JsonObject;
use ftbar_core::SweepStrategy;
use serde::Value;

use crate::proto::{parse_edit, render_edit};
use crate::SchedulerKind;

/// File magic: first 8 bytes of every snapshot.
pub const MAGIC: &[u8; 8] = b"FTBARSNP";

/// Current snapshot format version. Readers refuse anything else.
pub const VERSION: u32 = 1;

/// Record kind: a response-cache entry (canonical key + rendered body).
const KIND_CACHE: u8 = 1;
/// Record kind: a raw-text memo entry (raw key → canonical key).
const KIND_MEMO: u8 = 2;
/// Record kind: a poisoned raw request key.
const KIND_POISONED: u8 = 3;
/// Record kind: a reschedule artifact seed (JSON).
const KIND_SEED: u8 = 4;
/// Record kind: the END trailer (record count).
const KIND_END: u8 = 0xED;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the per-record checksum of the snapshot
/// format.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Artifact seeds
// ---------------------------------------------------------------------------

/// The replayable lineage of a retained [`ScheduleArtifacts`] entry: the
/// base request that first produced it plus the ordered chain of edits
/// that led to the current problem. Restoring re-parses the spec,
/// re-applies the edits, and re-runs the retained scheduler — the
/// deterministic engines make the replayed artifacts byte-equivalent to
/// the originals.
///
/// [`ScheduleArtifacts`]: ftbar_core::reschedule::ScheduleArtifacts
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactSeed {
    /// Scheduler of the base request (only FTBAR retains artifacts
    /// today, but the seed records it for forward compatibility).
    pub scheduler: SchedulerKind,
    /// Wire name of the requested sweep strategy.
    pub strategy: String,
    /// `npf` override of the base request.
    pub npf: Option<u32>,
    /// Rendering option of the base request (part of the canonical key).
    pub include_schedule: bool,
    /// Base problem spec text, verbatim.
    pub spec: String,
    /// Ordered edit chain applied on top of the base problem.
    pub edits: Vec<ProblemEdit>,
}

impl ArtifactSeed {
    /// Renders the seed as one JSON object (the `KIND_SEED` payload).
    pub fn render(&self) -> String {
        JsonObject::new()
            .str("scheduler", self.scheduler.name())
            .str("strategy", &self.strategy)
            .opt("npf", self.npf)
            .raw("include_schedule", self.include_schedule)
            .str("spec", &self.spec)
            .array("edits", self.edits.iter().map(render_edit))
            .finish()
    }

    /// Parses a seed rendered by [`ArtifactSeed::render`]. `Err` carries
    /// a description of the first malformed field (the restore path drops
    /// such seeds rather than failing the whole snapshot).
    pub fn parse(text: &str) -> Result<ArtifactSeed, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let scheduler = match v.get("scheduler").and_then(Value::as_str) {
            Some("ftbar") => SchedulerKind::Ftbar,
            Some("hbp") => SchedulerKind::Hbp,
            _ => return Err("unknown or missing `scheduler`".into()),
        };
        let strategy = v
            .get("strategy")
            .and_then(Value::as_str)
            .ok_or("`strategy` (string) is required")?
            .to_owned();
        if SweepStrategy::from_name(&strategy).is_none() {
            return Err(format!("unknown strategy `{strategy}`"));
        }
        let npf = match v.get("npf") {
            None | Some(Value::Null) => None,
            Some(Value::Number(serde::Number::UInt(u))) => {
                Some(u32::try_from(*u).map_err(|_| "`npf` out of range".to_owned())?)
            }
            Some(_) => return Err("`npf` must be a non-negative integer or null".into()),
        };
        let include_schedule = match v.get("include_schedule") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("`include_schedule` (bool) is required".into()),
        };
        let spec = v
            .get("spec")
            .and_then(Value::as_str)
            .ok_or("`spec` (string) is required")?
            .to_owned();
        let edits = match v.get("edits") {
            Some(Value::Array(items)) => items
                .iter()
                .map(parse_edit)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("`edits` (array) is required".into()),
        };
        Ok(ArtifactSeed {
            scheduler,
            strategy,
            npf,
            include_schedule,
            spec,
            edits,
        })
    }
}

// ---------------------------------------------------------------------------
// Snapshot data model
// ---------------------------------------------------------------------------

/// Everything a snapshot carries, in restore order.
#[derive(Debug, Default, Clone)]
pub struct SnapshotData {
    /// Response-cache entries `(canonical key, rendered body)`, oldest
    /// access first so re-insertion reproduces the LRU order.
    pub cache_entries: Vec<(String, Arc<str>)>,
    /// Raw-text memo entries `(raw key, canonical key)`, oldest first.
    pub memos: Vec<(String, String)>,
    /// Poisoned raw request keys (sorted at collection time so snapshot
    /// bytes are deterministic for a given state).
    pub poisoned: Vec<String>,
    /// Artifact seeds, oldest insertion first. The canonical key is not
    /// stored: restore re-derives it from the replayed problem, so a
    /// seed can never be filed under a stale key.
    pub seeds: Vec<ArtifactSeed>,
}

impl SnapshotData {
    /// Total record count the END trailer commits to.
    fn record_count(&self) -> usize {
        self.cache_entries.len() + self.memos.len() + self.poisoned.len() + self.seeds.len()
    }
}

/// Per-section entry counts of a snapshot, for `status` reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Response-cache entries.
    pub cache_entries: usize,
    /// Raw-memo entries.
    pub memos: usize,
    /// Poisoned keys.
    pub poisoned: usize,
    /// Artifact seeds.
    pub seeds: usize,
    /// Encoded snapshot size in bytes.
    pub bytes: u64,
}

impl SnapshotStats {
    /// Stats for `data` encoded to `bytes` bytes.
    pub fn of(data: &SnapshotData, bytes: u64) -> Self {
        SnapshotStats {
            cache_entries: data.cache_entries.len(),
            memos: data.memos.len(),
            poisoned: data.poisoned.len(),
            seeds: data.seeds.len(),
            bytes,
        }
    }
}

/// How a restore attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreStatus {
    /// The END trailer was reached and count-consistent: the full
    /// snapshot is restored.
    Restored,
    /// A truncated or CRC-failing record stopped the read mid-stream;
    /// every record before it is restored, the tail is dropped.
    PartialTailDrop,
    /// The header is unreadable (bad magic, unknown version) or no
    /// record survived validation: nothing is restored, the daemon
    /// starts cold.
    RefusedCorrupt,
}

impl RestoreStatus {
    /// Stable wire name, reported by `status`.
    pub fn name(self) -> &'static str {
        match self {
            RestoreStatus::Restored => "restored",
            RestoreStatus::PartialTailDrop => "partial-tail-drop",
            RestoreStatus::RefusedCorrupt => "refused-corrupt",
        }
    }
}

/// The outcome of decoding a snapshot: whatever survived validation,
/// plus how the read ended.
#[derive(Debug)]
pub struct Restore {
    /// Surviving records.
    pub data: SnapshotData,
    /// How the read ended.
    pub status: RestoreStatus,
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

fn push_record(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn prefixed(a: &str, b: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + a.len() + b.len());
    payload.extend_from_slice(&(a.len() as u32).to_le_bytes());
    payload.extend_from_slice(a.as_bytes());
    payload.extend_from_slice(b.as_bytes());
    payload
}

/// Encodes `data` into the versioned, checksummed snapshot byte stream.
pub fn encode_snapshot(data: &SnapshotData) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    for (canonical, body) in &data.cache_entries {
        push_record(&mut out, KIND_CACHE, &prefixed(canonical, body));
    }
    for (raw, canonical) in &data.memos {
        push_record(&mut out, KIND_MEMO, &prefixed(raw, canonical));
    }
    for raw in &data.poisoned {
        push_record(&mut out, KIND_POISONED, raw.as_bytes());
    }
    for seed in &data.seeds {
        push_record(&mut out, KIND_SEED, seed.render().as_bytes());
    }
    push_record(
        &mut out,
        KIND_END,
        &(data.record_count() as u32).to_le_bytes(),
    );
    out
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

fn split_prefixed(payload: &[u8]) -> Option<(&[u8], &[u8])> {
    let len = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
    let rest = &payload[4..];
    if len > rest.len() {
        return None;
    }
    Some((&rest[..len], &rest[len..]))
}

/// Decodes a snapshot byte stream, keeping everything that validates.
/// Never fails: corruption degrades the result toward a cold start (see
/// [`RestoreStatus`]) but cannot produce invalid data.
pub fn decode_snapshot(bytes: &[u8]) -> Restore {
    let refused = || Restore {
        data: SnapshotData::default(),
        status: RestoreStatus::RefusedCorrupt,
    };
    if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
        return refused();
    }
    let version = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
    if version != VERSION {
        return refused();
    }

    let mut data = SnapshotData::default();
    let mut decoded = 0usize;
    let mut pos = MAGIC.len() + 4;
    let mut status = RestoreStatus::PartialTailDrop;
    // Record header: kind + len. Anything short of a full, CRC-valid
    // record from here on is a torn tail.
    while let Some(header) = bytes.get(pos..pos + 5) {
        let kind = header[0];
        let len = u32::from_le_bytes(header[1..5].try_into().unwrap()) as usize;
        let Some(payload) = bytes.get(pos + 5..pos + 5 + len) else {
            break;
        };
        let Some(crc_bytes) = bytes.get(pos + 5 + len..pos + 5 + len + 4) else {
            break;
        };
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(&bytes[pos..pos + 5 + len]) != stored {
            break;
        }
        pos += 5 + len + 4;
        match kind {
            KIND_CACHE => {
                let Some((canonical, body)) = split_prefixed(payload) else {
                    break;
                };
                let (Ok(canonical), Ok(body)) =
                    (std::str::from_utf8(canonical), std::str::from_utf8(body))
                else {
                    break;
                };
                data.cache_entries
                    .push((canonical.to_owned(), Arc::from(body)));
            }
            KIND_MEMO => {
                let Some((raw, canonical)) = split_prefixed(payload) else {
                    break;
                };
                let (Ok(raw), Ok(canonical)) =
                    (std::str::from_utf8(raw), std::str::from_utf8(canonical))
                else {
                    break;
                };
                data.memos.push((raw.to_owned(), canonical.to_owned()));
            }
            KIND_POISONED => {
                let Ok(raw) = std::str::from_utf8(payload) else {
                    break;
                };
                data.poisoned.push(raw.to_owned());
            }
            KIND_SEED => {
                // A seed that no longer parses (e.g. written with an edit
                // kind this build dropped) is skipped, not fatal: the
                // artifact store is a cache, a missing entry only costs a
                // fallback re-run.
                if let Ok(text) = std::str::from_utf8(payload) {
                    if let Ok(seed) = ArtifactSeed::parse(text) {
                        data.seeds.push(seed);
                    }
                }
            }
            KIND_END => {
                let count = payload
                    .get(..4)
                    .and_then(|b| b.try_into().ok())
                    .map(u32::from_le_bytes);
                if count == Some(decoded as u32) {
                    status = RestoreStatus::Restored;
                }
                break;
            }
            // Unknown kinds with a valid CRC are skipped: a same-version
            // writer that learned a new record type stays readable.
            _ => {}
        }
        decoded += 1;
    }
    if status == RestoreStatus::PartialTailDrop && decoded == 0 {
        return refused();
    }
    Restore { data, status }
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// The deterministic sibling temp path snapshots are staged at before the
/// atomic rename. Public so the chaos harness can litter it and prove a
/// stale temp file never corrupts the next snapshot.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically writes a snapshot of `data` at `path`: encode, write to a
/// sibling temp file, `fsync`, rename over the target, then best-effort
/// sync the parent directory. A crash at any point leaves either the old
/// snapshot or the new one at `path`, never a torn hybrid.
///
/// # Errors
///
/// Any I/O failure along the way; the temp file is removed on failure
/// when possible.
pub fn write_snapshot(path: &Path, data: &SnapshotData) -> io::Result<SnapshotStats> {
    let bytes = encode_snapshot(data);
    let tmp = temp_path(path);
    let write = (|| -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Make the rename itself durable. Failure here is not fatal to
    // correctness (the data file is synced), so best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(SnapshotStats::of(data, bytes.len() as u64))
}

/// Reads and decodes the snapshot at `path`. `Ok(None)` when the file
/// does not exist (first boot); decoding problems are reported through
/// [`RestoreStatus`], never as errors.
///
/// # Errors
///
/// Only real I/O failures reading an existing file.
pub fn read_snapshot(path: &Path) -> io::Result<Option<Restore>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(Some(decode_snapshot(&bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotData {
        SnapshotData {
            cache_entries: vec![
                (
                    "canon-a".into(),
                    Arc::from("{\"status\": \"ok\", \"n\": 1}"),
                ),
                (
                    "canon-b".into(),
                    Arc::from("{\"status\": \"ok\", \"n\": 2}"),
                ),
            ],
            memos: vec![
                ("raw-a".into(), "canon-a".into()),
                ("raw-b".into(), "canon-b".into()),
            ],
            poisoned: vec!["bad-raw-1".into(), "bad-raw-2".into()],
            seeds: vec![ArtifactSeed {
                scheduler: SchedulerKind::Ftbar,
                strategy: "adaptive".into(),
                npf: Some(1),
                include_schedule: false,
                spec: "algorithm a { }".into(),
                edits: vec![ProblemEdit::SetNpf { npf: 2 }],
            }],
        }
    }

    fn assert_same(a: &SnapshotData, b: &SnapshotData) {
        assert_eq!(a.cache_entries, b.cache_entries);
        assert_eq!(a.memos, b.memos);
        assert_eq!(a.poisoned, b.poisoned);
        assert_eq!(a.seeds, b.seeds);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn encode_decode_round_trips() {
        let data = sample();
        let bytes = encode_snapshot(&data);
        let restore = decode_snapshot(&bytes);
        assert_eq!(restore.status, RestoreStatus::Restored);
        assert_same(&restore.data, &data);
    }

    #[test]
    fn empty_snapshot_restores_empty() {
        let restore = decode_snapshot(&encode_snapshot(&SnapshotData::default()));
        assert_eq!(restore.status, RestoreStatus::Restored);
        assert_eq!(restore.data.record_count(), 0);
    }

    #[test]
    fn seed_render_parse_round_trips() {
        for seed in [
            sample().seeds[0].clone(),
            ArtifactSeed {
                scheduler: SchedulerKind::Hbp,
                strategy: "clustered".into(),
                npf: None,
                include_schedule: true,
                spec: "spec with \"quotes\"\nand newlines".into(),
                edits: vec![],
            },
        ] {
            assert_eq!(ArtifactSeed::parse(&seed.render()).as_ref(), Ok(&seed));
        }
    }

    #[test]
    fn truncation_drops_tail_keeps_prefix() {
        let data = sample();
        let bytes = encode_snapshot(&data);
        // Cut into the last data record (the END trailer is 13 bytes).
        let cut = bytes.len() - 20;
        let restore = decode_snapshot(&bytes[..cut]);
        assert_eq!(restore.status, RestoreStatus::PartialTailDrop);
        assert!(restore.data.record_count() < data.record_count());
        assert!(restore.data.record_count() > 0);
        // Whatever survived is a prefix of the original, values intact.
        for (i, e) in restore.data.cache_entries.iter().enumerate() {
            assert_eq!(e, &data.cache_entries[i]);
        }
    }

    #[test]
    fn every_truncation_point_is_safe() {
        let data = sample();
        let bytes = encode_snapshot(&data);
        for cut in 0..bytes.len() {
            let restore = decode_snapshot(&bytes[..cut]);
            assert_ne!(
                restore.status,
                RestoreStatus::Restored,
                "truncated at {cut} must not claim a full restore"
            );
            // Survivors are always an exact prefix with intact values.
            for (i, e) in restore.data.cache_entries.iter().enumerate() {
                assert_eq!(e, &data.cache_entries[i], "cut at {cut}");
            }
            for (i, m) in restore.data.memos.iter().enumerate() {
                assert_eq!(m, &data.memos[i], "cut at {cut}");
            }
        }
    }

    #[test]
    fn every_single_bitflip_is_detected_or_harmless() {
        let data = sample();
        let bytes = encode_snapshot(&data);
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x40;
            let restore = decode_snapshot(&corrupt);
            // Whatever is restored must be an exact prefix of the truth —
            // corruption can shrink the restore, never alter a value.
            for (i, e) in restore.data.cache_entries.iter().enumerate() {
                assert_eq!(e, &data.cache_entries[i], "flip at byte {byte}");
            }
            for (i, m) in restore.data.memos.iter().enumerate() {
                assert_eq!(m, &data.memos[i], "flip at byte {byte}");
            }
            for (i, p) in restore.data.poisoned.iter().enumerate() {
                assert_eq!(p, &data.poisoned[i], "flip at byte {byte}");
            }
        }
    }

    #[test]
    fn bad_magic_and_version_refuse() {
        let data = sample();
        let mut bytes = encode_snapshot(&data);
        bytes[0] ^= 0xFF;
        assert_eq!(
            decode_snapshot(&bytes).status,
            RestoreStatus::RefusedCorrupt
        );

        let mut bytes = encode_snapshot(&data);
        bytes[8] = 0xFE; // version skew
        let restore = decode_snapshot(&bytes);
        assert_eq!(restore.status, RestoreStatus::RefusedCorrupt);
        assert_eq!(restore.data.record_count(), 0);

        assert_eq!(decode_snapshot(b"").status, RestoreStatus::RefusedCorrupt);
        assert_eq!(
            decode_snapshot(b"garbage that is not a snapshot").status,
            RestoreStatus::RefusedCorrupt
        );
    }

    #[test]
    fn end_count_mismatch_downgrades() {
        let mut data = sample();
        let bytes = encode_snapshot(&data);
        // Re-encode with one record dropped, then splice the old (larger)
        // END trailer on: count mismatch must not claim `restored`.
        data.poisoned.pop();
        let mut shorter = encode_snapshot(&data);
        let end_len = 1 + 4 + 4 + 4;
        shorter.truncate(shorter.len() - end_len);
        shorter.extend_from_slice(&bytes[bytes.len() - end_len..]);
        let restore = decode_snapshot(&shorter);
        assert_eq!(restore.status, RestoreStatus::PartialTailDrop);
    }

    #[test]
    fn unknown_record_kind_is_skipped() {
        let data = sample();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        push_record(&mut bytes, 0x7F, b"future record type");
        push_record(
            &mut bytes,
            KIND_CACHE,
            &prefixed(&data.cache_entries[0].0, &data.cache_entries[0].1),
        );
        push_record(&mut bytes, KIND_END, &2u32.to_le_bytes());
        let restore = decode_snapshot(&bytes);
        assert_eq!(restore.status, RestoreStatus::Restored);
        assert_eq!(restore.data.cache_entries.len(), 1);
    }

    #[test]
    fn malformed_seed_is_skipped_not_fatal() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        push_record(&mut bytes, KIND_SEED, b"{\"scheduler\": \"quantum\"}");
        push_record(&mut bytes, KIND_POISONED, b"still-here");
        push_record(&mut bytes, KIND_END, &2u32.to_le_bytes());
        let restore = decode_snapshot(&bytes);
        assert_eq!(restore.status, RestoreStatus::Restored);
        assert!(restore.data.seeds.is_empty());
        assert_eq!(restore.data.poisoned, vec!["still-here".to_owned()]);
    }

    #[test]
    fn write_read_round_trips_and_is_atomic() {
        let dir = std::env::temp_dir().join(format!("ftbar-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let data = sample();

        // A littered stale temp file must not break the write.
        std::fs::write(temp_path(&path), b"stale garbage").unwrap();
        let stats = write_snapshot(&path, &data).unwrap();
        assert_eq!(stats.cache_entries, 2);
        assert_eq!(stats.seeds, 1);
        assert!(stats.bytes > 0);
        assert!(!temp_path(&path).exists(), "temp file renamed away");

        let restore = read_snapshot(&path).unwrap().unwrap();
        assert_eq!(restore.status, RestoreStatus::Restored);
        assert_same(&restore.data, &data);

        // Missing file is a clean first-boot signal, not an error.
        assert!(read_snapshot(&dir.join("absent.snap")).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
