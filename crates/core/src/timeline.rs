//! Resource timelines: sorted, non-overlapping booked intervals with
//! gap-insertion (the mechanism behind insertion-based list scheduling).
//!
//! Both processors (executing operation replicas) and links (serializing
//! comms) are modelled as a [`Timeline`]. Intervals are half-open
//! `[start, end)`, so back-to-back bookings do not overlap.

use ftbar_model::Time;
use serde::{Deserialize, Serialize};

/// A booked half-open interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// Inclusive start.
    pub start: Time,
    /// Exclusive end.
    pub end: Time,
}

impl Slot {
    /// Duration of the slot.
    pub fn duration(&self) -> Time {
        self.end - self.start
    }

    /// True if the half-open intervals intersect.
    pub fn overlaps(&self, other: &Slot) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Split threshold: a chunk reaching this many slots is halved, bounding
/// every slot-store memmove to `CHUNK_MAX` elements while keeping the chunk
/// directory short (about `2 len / CHUNK_MAX` entries).
const CHUNK_MAX: usize = 256;

/// One run of consecutive bookings. Always non-empty.
#[derive(Debug, Clone)]
struct Chunk<P> {
    slots: Vec<Slot>,
    payloads: Vec<P>,
    /// The non-empty free intervals between *consecutive slots of this
    /// chunk*, sorted (equivalently: by strictly increasing start). The gap
    /// before the chunk's first slot is not stored anywhere — it is a
    /// chunk-boundary gap, recomputed in O(1) from the neighbouring chunks'
    /// extents wherever needed.
    gaps: Vec<Slot>,
}

impl<P> Chunk<P> {
    fn first(&self) -> Slot {
        self.slots[0]
    }

    fn last(&self) -> Slot {
        *self.slots.last().expect("chunks are non-empty")
    }

    fn rebuild_gaps(&mut self) {
        self.gaps.clear();
        for w in self.slots.windows(2) {
            if w[0].end < w[1].start {
                self.gaps.push(Slot {
                    start: w[0].end,
                    end: w[1].start,
                });
            }
        }
    }

    /// The chunk's directory entry (recomputed after any mutation; the
    /// `max_gap` fold is O(|gaps|), and the lists stay small).
    fn dir_entry(&self) -> DirEntry {
        DirEntry {
            first: self.first(),
            last: self.last(),
            max_gap: self
                .gaps
                .iter()
                .map(Slot::duration)
                .fold(Time::ZERO, Time::max),
        }
    }
}

/// Per-chunk summary mirrored into a dense directory array so the hot
/// searches (probe, locate, remove) scan contiguous memory instead of
/// chasing one pointer per chunk.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    /// The chunk's first slot.
    first: Slot,
    /// The chunk's last slot.
    last: Slot,
    /// Exact largest duration among the chunk's internal gaps
    /// ([`Time::ZERO`] when none): probes skip a whole chunk in O(1) when
    /// nothing in it can fit.
    max_gap: Time,
}

/// A resource timeline holding non-overlapping payloads sorted by start.
///
/// # Versioning
///
/// Every mutation (insert or remove) bumps a monotone [`Timeline::version`]
/// counter. Two observations of the *same* timeline with equal versions are
/// guaranteed to have seen identical bookings — the invariant behind the
/// sweep engine's probe-cache invalidation (see `sweep`). The counter never
/// decreases, so rollback churn conservatively invalidates: a
/// booked-then-unwound slot leaves the contents unchanged but not the
/// version.
///
/// # Example
///
/// ```
/// use ftbar_core::Timeline;
/// use ftbar_model::Time;
///
/// let mut tl: Timeline<&str> = Timeline::new();
/// tl.insert_earliest(Time::ZERO, Time::from_units(2.0), "a");
/// tl.insert_earliest(Time::ZERO, Time::from_units(3.0), "b");
/// // "b" lands after "a".
/// assert_eq!(tl.probe(Time::ZERO, Time::from_units(1.0)), Time::from_units(5.0));
/// assert_eq!(tl.version(), 2);
/// ```
///
/// # Storage
///
/// Bookings live in a directory of bounded-size chunks, each a dense
/// struct-of-arrays run of consecutive slots carrying its own index of the
/// free intervals between them. The `Minimize_start_time` placement loop
/// commits and rolls back nested duplications hundreds of thousands of
/// times on large problems; with flat arrays every such insert or remove is an
/// `O(len)` memmove over the slot, payload, *and* gap stores, which
/// dominated the schedule time beyond N ≈ 5000. Chunking bounds each
/// memmove to `CHUNK_MAX` elements plus a directory walk of
/// `len / CHUNK_MAX` entries (see `DESIGN.md` §11). Probes still scan true
/// free intervals only: per-chunk gap lists in order, plus the O(1)
/// chunk-boundary gaps the lists deliberately omit.
#[derive(Debug, Clone)]
pub struct Timeline<P> {
    chunks: Vec<Chunk<P>>,
    /// `dir[i]` summarizes `chunks[i]`; always in sync.
    dir: Vec<DirEntry>,
    len: usize,
    version: u64,
}

impl<P> Default for Timeline<P> {
    fn default() -> Self {
        Timeline {
            chunks: Vec::new(),
            dir: Vec::new(),
            len: 0,
            version: 0,
        }
    }
}

/// Equality compares the booked contents only; the mutation counter and the
/// chunk layout are bookkeeping, not state (a timeline restored by exact
/// rollback equals its pre-transaction self, whatever splits happened in
/// between).
impl<P: PartialEq> PartialEq for Timeline<P> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<P> Timeline<P> {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of booked slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is booked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// End of the last booked slot ([`Time::ZERO`] when empty).
    pub fn last_end(&self) -> Time {
        self.dir.last().map_or(Time::ZERO, |d| d.last.end)
    }

    /// Monotone mutation counter: bumped by every insert and remove, never
    /// reset. Equal versions of one timeline imply identical contents.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Earliest start `t ≥ ready` such that `[t, t + dur)` is free.
    ///
    /// Zero-duration requests fit in any gap boundary at or after `ready`.
    pub fn probe(&self, ready: Time, dur: Time) -> Time {
        // Common hot case: the request lands at or after every booking
        // (candidate inputs are typically ready near the schedule's
        // frontier) — nothing constrains it.
        let last = self.last_end();
        if ready >= last {
            return ready;
        }
        // Slots ending at or before `ready` cannot constrain the result
        // (they neither push the candidate nor open an earlier return —
        // non-overlap rules out a booking that straddles `ready` next to
        // one that ends at it), and slots are sorted by start *and* end.
        // `next` exists because `ready < last_end`.
        let ci = self.dir.partition_point(|d| d.last.end <= ready);
        let c = &self.chunks[ci];
        let next = c.slots[c.slots.partition_point(|s| s.end <= ready)];
        if ready + dur <= next.start {
            // Fits before the next booking (free run or boundary point).
            return ready;
        }
        if dur == Time::ZERO {
            // `ready` is interior to `next`; the first free boundary is
            // its end (later slots start at or after it).
            return next.end;
        }
        // Otherwise the answer is the start of the first free gap at or
        // beyond `next`'s end that is long enough, or the implicit tail.
        // Gap starts are slot ends, so every such gap starts `>= ready`.
        // Free intervals appear in order as: this chunk's remaining
        // internal gaps, then alternately each boundary gap and the next
        // chunk's internal gaps.
        let gi = c.gaps.partition_point(|g| g.start < next.end);
        for g in &c.gaps[gi..] {
            if g.end - g.start >= dur {
                return g.start;
            }
        }
        let mut prev_end = self.dir[ci].last.end;
        for (d, c) in self.dir[ci + 1..].iter().zip(&self.chunks[ci + 1..]) {
            if d.first.start - prev_end >= dur {
                return prev_end;
            }
            if d.max_gap >= dur {
                for g in &c.gaps {
                    if g.end - g.start >= dur {
                        return g.start;
                    }
                }
                unreachable!("max_gap promised a fitting internal gap");
            }
            prev_end = d.last.end;
        }
        last
    }

    /// Insertion point for `slot` as `(chunk, index)` under the
    /// `(start, end)` key. With a non-empty directory the chunk index is
    /// clamped to the last chunk, so appends land in-chunk rather than
    /// one-past-the-end (callers handle the empty-directory case).
    fn locate_insert(&self, slot: Slot) -> (usize, usize) {
        let key = (slot.start, slot.end);
        let ci = self
            .dir
            .partition_point(|d| (d.last.start, d.last.end) <= key);
        match self.chunks.get(ci) {
            Some(c) => (ci, c.slots.partition_point(|s| (s.start, s.end) <= key)),
            None => {
                let last = self.chunks.len() - 1;
                (last, self.chunks[last].slots.len())
            }
        }
    }

    /// Raw sorted insert of an interval already known to be free, with
    /// gap-index repair and bounded-memmove chunk inserts. `pos` is
    /// `locate_insert(slot)`, or `None` on an empty timeline.
    fn insert_sorted(&mut self, pos: Option<(usize, usize)>, slot: Slot, payload: P) {
        self.version += 1;
        self.len += 1;
        let Some((ci, si)) = pos else {
            self.chunks.push(Chunk {
                slots: vec![slot],
                payloads: vec![payload],
                gaps: Vec::new(),
            });
            self.dir.push(self.chunks[0].dir_entry());
            return;
        };
        let c = &mut self.chunks[ci];
        // Repair the chunk's internal gap index: the free interval the new
        // slot lands in is internal exactly when both its frame slots are
        // in this chunk; boundary gaps (an absent frame side) are not
        // stored, so only the piece whose both ends are in-chunk appears.
        // Either piece may be empty; a zero-width slot splits a gap into
        // two abutting pieces, preserving its barrier semantics.
        let prev_end = (si > 0).then(|| c.slots[si - 1].end);
        let next_start = (si < c.slots.len()).then(|| c.slots[si].start);
        match (prev_end, next_start) {
            (Some(pe), Some(ns)) => {
                if pe < ns {
                    let gi = c.gaps.partition_point(|g| g.start < pe);
                    debug_assert!(
                        c.gaps.get(gi).is_some_and(|g| g.start == pe && g.end == ns),
                        "covering gap present in the index"
                    );
                    c.gaps.remove(gi);
                    let mut at = gi;
                    if pe < slot.start {
                        c.gaps.insert(
                            at,
                            Slot {
                                start: pe,
                                end: slot.start,
                            },
                        );
                        at += 1;
                    }
                    if slot.end < ns {
                        c.gaps.insert(
                            at,
                            Slot {
                                start: slot.end,
                                end: ns,
                            },
                        );
                    }
                }
            }
            (None, Some(ns)) => {
                // Front insert: the covering gap was a boundary gap; only
                // the trailing piece becomes internal.
                if slot.end < ns {
                    c.gaps.insert(
                        0,
                        Slot {
                            start: slot.end,
                            end: ns,
                        },
                    );
                }
            }
            (Some(pe), None) => {
                // Append: the leading piece becomes internal, the tail
                // stays implicit (or becomes the next chunk's boundary).
                if pe < slot.start {
                    c.gaps.push(Slot {
                        start: pe,
                        end: slot.start,
                    });
                }
            }
            (None, None) => unreachable!("chunks are non-empty"),
        }
        c.slots.insert(si, slot);
        c.payloads.insert(si, payload);
        if c.slots.len() >= CHUNK_MAX {
            let half = c.slots.len() / 2;
            let mut tail = Chunk {
                slots: c.slots.split_off(half),
                payloads: c.payloads.split_off(half),
                gaps: Vec::new(),
            };
            // The gap between the halves (if any) becomes a boundary gap
            // and drops out of the stored indexes.
            c.rebuild_gaps();
            tail.rebuild_gaps();
            self.dir[ci] = self.chunks[ci].dir_entry();
            self.dir.insert(ci + 1, tail.dir_entry());
            self.chunks.insert(ci + 1, tail);
        } else {
            self.dir[ci] = self.chunks[ci].dir_entry();
        }
    }

    /// Books `[t, t + dur)` at the earliest feasible `t ≥ ready` and returns
    /// the booked slot.
    pub fn insert_earliest(&mut self, ready: Time, dur: Time, payload: P) -> Slot {
        let start = self.probe(ready, dur);
        let slot = Slot {
            start,
            end: start + dur,
        };
        let pos = (!self.chunks.is_empty()).then(|| self.locate_insert(slot));
        self.insert_sorted(pos, slot, payload);
        slot
    }

    /// Books exactly `[start, start + dur)`.
    ///
    /// # Errors
    ///
    /// Returns `Err(conflicting_slot)` if the interval overlaps a booking.
    pub fn insert_at(&mut self, start: Time, dur: Time, payload: P) -> Result<Slot, Slot> {
        let slot = Slot {
            start,
            end: start + dur,
        };
        // Booked slots are sorted and pairwise disjoint, so only the
        // immediate neighbours of the insertion point can overlap (and the
        // earlier one first, preserving the reported conflict).
        let pos = (!self.chunks.is_empty()).then(|| self.locate_insert(slot));
        if let Some((ci, si)) = pos {
            let c = &self.chunks[ci];
            let prev = if si > 0 {
                Some(c.slots[si - 1])
            } else if ci > 0 {
                Some(self.dir[ci - 1].last)
            } else {
                None
            };
            if let Some(prev) = prev {
                if prev.overlaps(&slot) {
                    return Err(prev);
                }
            }
            let next = c
                .slots
                .get(si)
                .copied()
                .or_else(|| self.dir.get(ci + 1).map(|d| d.first));
            if let Some(next) = next {
                if next.overlaps(&slot) {
                    return Err(next);
                }
            }
        }
        self.insert_sorted(pos, slot, payload);
        Ok(slot)
    }

    /// Iterates over `(slot, payload)` in start order.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &P)> {
        self.chunks
            .iter()
            .flat_map(|c| c.slots.iter().copied().zip(c.payloads.iter()))
    }

    /// Drops the slot at chunk `ci`, index `si`, repairing the gap index
    /// and the chunk directory.
    fn remove_pos(&mut self, ci: usize, si: usize) -> Slot {
        self.version += 1;
        self.len -= 1;
        let c = &mut self.chunks[ci];
        // Mirror of the insert repair: internal flanking pieces (a frame
        // side inside this chunk, non-empty) leave the index; the merged
        // interval joins it only when both frame slots remain in-chunk.
        let prev_end = (si > 0).then(|| c.slots[si - 1].end);
        let next_start = (si + 1 < c.slots.len()).then(|| c.slots[si + 1].start);
        let slot = c.slots[si];
        if let Some(pe) = prev_end {
            if pe < slot.start {
                let gi = c.gaps.partition_point(|g| g.start < pe);
                debug_assert_eq!((c.gaps[gi].start, c.gaps[gi].end), (pe, slot.start));
                c.gaps.remove(gi);
            }
        }
        if let Some(ns) = next_start {
            if slot.end < ns {
                let gi = c.gaps.partition_point(|g| g.start < slot.end);
                debug_assert_eq!((c.gaps[gi].start, c.gaps[gi].end), (slot.end, ns));
                c.gaps.remove(gi);
            }
        }
        if let (Some(pe), Some(ns)) = (prev_end, next_start) {
            if pe < ns {
                let gi = c.gaps.partition_point(|g| g.start < pe);
                c.gaps.insert(gi, Slot { start: pe, end: ns });
            }
        }
        c.payloads.remove(si);
        c.slots.remove(si);
        if c.slots.is_empty() {
            self.chunks.remove(ci);
            self.dir.remove(ci);
        } else {
            self.dir[ci] = self.chunks[ci].dir_entry();
        }
        slot
    }

    /// Removes the booking holding `payload` and returns its slot, or
    /// `None` if no booking carries it. Removing the most recent insertion
    /// restores the timeline exactly — the mechanism behind the schedule
    /// builder's undo-log rollback.
    pub fn remove(&mut self, payload: &P) -> Option<Slot>
    where
        P: PartialEq,
    {
        // Rollback removes the most recent bookings, which usually sit at
        // the tail of the time-sorted store: scan from the back.
        for ci in (0..self.chunks.len()).rev() {
            if let Some(si) = self.chunks[ci].payloads.iter().rposition(|p| p == payload) {
                return Some(self.remove_pos(ci, si));
            }
        }
        None
    }

    /// Removes the booking known to occupy `slot` with `payload` — the
    /// allocation-free form the builder's undo log uses (it records every
    /// booked slot, so the linear payload scan of [`Timeline::remove`] is
    /// replaced by two binary searches).
    ///
    /// Returns `false` (timeline unchanged) if no such booking exists.
    pub fn remove_at(&mut self, slot: Slot, payload: &P) -> bool
    where
        P: PartialEq,
    {
        let key = (slot.start, slot.end);
        let mut ci = self
            .dir
            .partition_point(|d| (d.last.start, d.last.end) < key);
        // Zero-width bookings can share an identical interval; walk the
        // (tiny) run of equal keys until the payload matches.
        while let Some(c) = self.chunks.get(ci) {
            if (self.dir[ci].first.start, self.dir[ci].first.end) > key {
                break;
            }
            let mut si = c.slots.partition_point(|s| (s.start, s.end) < key);
            while let Some(&s) = c.slots.get(si) {
                if (s.start, s.end) > key {
                    return false;
                }
                if c.payloads[si] == *payload {
                    self.remove_pos(ci, si);
                    return true;
                }
                si += 1;
            }
            ci += 1;
        }
        false
    }

    /// Total booked duration.
    pub fn busy_time(&self) -> Time {
        self.iter()
            .map(|(s, _)| s.duration())
            .fold(Time::ZERO, |a, b| a + b)
    }

    /// Verifies the sorted non-overlap invariant, the chunk directory, the
    /// per-chunk gap indexes (used by the validator and the property
    /// tests).
    pub fn check_invariants(&self) -> bool {
        for c in &self.chunks {
            if c.slots.is_empty() || c.slots.len() != c.payloads.len() || c.slots.len() >= CHUNK_MAX
            {
                return false;
            }
            // Each chunk's gap list must hold exactly its non-empty
            // internal free intervals.
            let mut expected = Vec::new();
            for w in c.slots.windows(2) {
                if w[0].end < w[1].start {
                    expected.push(Slot {
                        start: w[0].end,
                        end: w[1].start,
                    });
                }
            }
            if c.gaps != expected {
                return false;
            }
        }
        if self.len != self.chunks.iter().map(|c| c.slots.len()).sum::<usize>() {
            return false;
        }
        // The directory must mirror every chunk exactly.
        if self.dir.len() != self.chunks.len()
            || self.chunks.iter().zip(&self.dir).any(|(c, d)| {
                let e = c.dir_entry();
                d.first != e.first || d.last != e.last || d.max_gap != e.max_gap
            })
        {
            return false;
        }
        let slots: Vec<Slot> = self.iter().map(|(s, _)| s).collect();
        slots.windows(2).all(|w| {
            let (a, b) = (&w[0], &w[1]);
            a.start <= b.start && !a.overlaps(b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: f64) -> Time {
        Time::from_units(u)
    }

    #[test]
    fn empty_probe_returns_ready() {
        let tl: Timeline<()> = Timeline::new();
        assert_eq!(tl.probe(t(3.0), t(1.0)), t(3.0));
        assert_eq!(tl.last_end(), Time::ZERO);
    }

    #[test]
    fn insert_earliest_appends_when_no_gap() {
        let mut tl: Timeline<u32> = Timeline::new();
        let s1 = tl.insert_earliest(Time::ZERO, t(2.0), 1);
        let s2 = tl.insert_earliest(Time::ZERO, t(2.0), 2);
        assert_eq!(s1.start, Time::ZERO);
        assert_eq!(s2.start, t(2.0));
        assert!(tl.check_invariants());
    }

    #[test]
    fn insert_earliest_fills_gaps() {
        let mut tl: Timeline<u32> = Timeline::new();
        tl.insert_at(t(0.0), t(1.0), 1).unwrap();
        tl.insert_at(t(5.0), t(1.0), 2).unwrap();
        // A 2-unit job fits in the [1, 5) gap.
        let s = tl.insert_earliest(t(0.5), t(2.0), 3);
        assert_eq!(s.start, t(1.0));
        // A 5-unit job does not; it goes after the last slot.
        let s = tl.insert_earliest(Time::ZERO, t(5.0), 4);
        assert_eq!(s.start, t(6.0));
        assert!(tl.check_invariants());
    }

    #[test]
    fn probe_respects_ready_inside_gap() {
        let mut tl: Timeline<u32> = Timeline::new();
        tl.insert_at(t(0.0), t(1.0), 1).unwrap();
        tl.insert_at(t(10.0), t(1.0), 2).unwrap();
        assert_eq!(tl.probe(t(4.0), t(2.0)), t(4.0));
        assert_eq!(tl.probe(t(9.5), t(2.0)), t(11.0));
    }

    #[test]
    fn insert_at_detects_overlap() {
        let mut tl: Timeline<u32> = Timeline::new();
        tl.insert_at(t(1.0), t(2.0), 1).unwrap();
        let conflict = tl.insert_at(t(2.0), t(2.0), 2).unwrap_err();
        assert_eq!(conflict.start, t(1.0));
        // Touching at the boundary is fine (half-open).
        assert!(tl.insert_at(t(3.0), t(1.0), 3).is_ok());
        assert!(tl.check_invariants());
    }

    #[test]
    fn zero_duration_bookings() {
        let mut tl: Timeline<u32> = Timeline::new();
        tl.insert_at(t(0.0), t(2.0), 1).unwrap();
        // Even zero-duration work waits for the resource to free up.
        let s = tl.insert_earliest(t(1.0), Time::ZERO, 2);
        assert_eq!(s.start, t(2.0));
        assert_eq!(s.duration(), Time::ZERO);
        // In an open gap it lands at the ready time.
        let s = tl.insert_earliest(t(5.0), Time::ZERO, 3);
        assert_eq!(s.start, t(5.0));
        assert!(tl.check_invariants());
    }

    #[test]
    fn busy_time_sums_durations() {
        let mut tl: Timeline<u32> = Timeline::new();
        tl.insert_at(t(0.0), t(2.0), 1).unwrap();
        tl.insert_at(t(5.0), t(1.5), 2).unwrap();
        assert_eq!(tl.busy_time(), t(3.5));
        assert_eq!(tl.last_end(), t(6.5));
    }

    #[test]
    fn iter_in_start_order() {
        let mut tl: Timeline<u32> = Timeline::new();
        tl.insert_at(t(5.0), t(1.0), 2).unwrap();
        tl.insert_at(t(0.0), t(1.0), 1).unwrap();
        let payloads: Vec<u32> = tl.iter().map(|(_, p)| *p).collect();
        assert_eq!(payloads, vec![1, 2]);
    }

    #[test]
    fn remove_restores_the_previous_timeline() {
        let mut tl: Timeline<u32> = Timeline::new();
        tl.insert_at(t(0.0), t(1.0), 1).unwrap();
        tl.insert_at(t(5.0), t(1.0), 2).unwrap();
        let before: Vec<_> = tl.iter().map(|(s, &p)| (s, p)).collect();
        let slot = tl.insert_earliest(t(0.5), t(2.0), 3);
        assert_eq!(tl.remove(&3), Some(slot));
        let after: Vec<_> = tl.iter().map(|(s, &p)| (s, p)).collect();
        assert_eq!(before, after);
        assert_eq!(tl.remove(&9), None);
        assert!(tl.check_invariants());
    }

    #[test]
    fn remove_at_matches_slot_and_payload() {
        let mut tl: Timeline<u32> = Timeline::new();
        let s1 = tl.insert_at(t(0.0), t(1.0), 1).unwrap();
        let s2 = tl.insert_at(t(5.0), t(1.0), 2).unwrap();
        // Wrong payload / wrong slot: untouched.
        assert!(!tl.remove_at(s1, &2));
        assert!(!tl.remove_at(s2, &1));
        assert_eq!(tl.len(), 2);
        assert!(tl.remove_at(s2, &2));
        assert!(tl.remove_at(s1, &1));
        assert!(tl.is_empty());
        assert!(tl.check_invariants());
    }

    #[test]
    fn remove_at_distinguishes_equal_zero_width_slots() {
        let mut tl: Timeline<u32> = Timeline::new();
        let a = tl.insert_at(t(3.0), Time::ZERO, 1).unwrap();
        let b = tl.insert_at(t(3.0), Time::ZERO, 2).unwrap();
        assert_eq!(a, b);
        assert!(tl.remove_at(b, &2));
        assert_eq!(tl.iter().map(|(_, &p)| p).collect::<Vec<_>>(), vec![1]);
        assert!(tl.check_invariants());
    }

    #[test]
    fn version_bumps_on_every_mutation_but_not_on_probes() {
        let mut tl: Timeline<u32> = Timeline::new();
        assert_eq!(tl.version(), 0);
        tl.insert_earliest(Time::ZERO, t(1.0), 1);
        assert_eq!(tl.version(), 1);
        tl.insert_at(t(5.0), t(1.0), 2).unwrap();
        assert_eq!(tl.version(), 2);
        // Failed inserts and probes leave the version alone.
        assert!(tl.insert_at(t(5.5), t(1.0), 3).is_err());
        tl.probe(Time::ZERO, t(10.0));
        assert_eq!(tl.version(), 2);
        // Removal bumps too (monotone, even though contents are restored),
        // but equality ignores the counter.
        let restored = {
            let mut other = tl.clone();
            other.insert_earliest(Time::ZERO, t(1.0), 9);
            other.remove(&9);
            other
        };
        assert_eq!(restored.version(), 4);
        assert_eq!(restored, tl);
        assert_eq!(tl.remove(&42), None);
        assert_eq!(tl.version(), 2);
    }

    #[test]
    fn chunked_store_matches_flat_reference() {
        // Deterministic churn: many inserts (forcing splits), interleaved
        // gap-filling and removals; compare every probe answer against a
        // naive reference over the flattened contents.
        fn ref_probe(slots: &[(Slot, u32)], ready: Time, dur: Time) -> Time {
            let mut t = ready;
            loop {
                let busy = slots.iter().find(|(s, _)| {
                    s.overlaps(&Slot {
                        start: t,
                        end: t + dur,
                    }) || (dur == Time::ZERO && s.start < t && t < s.end)
                });
                match busy {
                    Some((s, _)) => t = s.end,
                    None => return t,
                }
            }
        }
        let mut tl: Timeline<u32> = Timeline::new();
        let mut reference: Vec<(Slot, u32)> = Vec::new();
        let mut state = 0x1234_5678_u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for i in 0..2000u32 {
            let ready = Time::from_ticks((rand() % 50_000) as u64);
            let dur = Time::from_ticks((rand() % 40) as u64);
            assert_eq!(tl.probe(ready, dur), ref_probe(&reference, ready, dur));
            let slot = tl.insert_earliest(ready, dur, i);
            reference.push((slot, i));
            reference.sort_by_key(|(s, _)| (s.start, s.end));
            if rand() % 3 == 0 {
                let victim = rand() % (i + 1);
                let expect = reference.iter().position(|&(_, p)| p == victim);
                match expect {
                    Some(pos) => {
                        let (s, _) = reference.remove(pos);
                        assert!(tl.remove_at(s, &victim));
                    }
                    None => assert_eq!(tl.remove(&victim), None),
                }
            }
            assert!(tl.check_invariants());
        }
        assert_eq!(
            tl.iter().map(|(s, &p)| (s, p)).collect::<Vec<_>>(),
            reference
        );
    }
}
