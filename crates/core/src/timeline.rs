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

/// Split threshold: a chunk reaching this many slots is split, bounding
/// every slot-store memmove to `CHUNK_MAX` elements while keeping the chunk
/// directory short (at most about `2 len / CHUNK_MAX` entries).
const CHUNK_MAX: usize = 32;

/// Directory entries summarized by one entry of `Timeline::blocks`.
const BLOCK: usize = 16;

/// One run of consecutive bookings. Always non-empty.
#[derive(Debug, Clone)]
struct Chunk<P> {
    slots: Vec<Slot>,
    payloads: Vec<P>,
}

/// Length of the free interval between consecutive slots `a` and `b`.
/// Sorted, non-overlapping slots never end after their successor starts;
/// the subtraction saturates only so the slot scans stay branch-free.
fn gap(a: &Slot, b: &Slot) -> Time {
    b.start.saturating_sub(a.end)
}

/// Start of the first free interval between consecutive `slots` that is at
/// least `dur` long.
fn first_fit(slots: &[Slot], dur: Time) -> Option<Time> {
    slots
        .windows(2)
        .find(|w| gap(&w[0], &w[1]) >= dur)
        .map(|w| w[0].end)
}

impl<P> Chunk<P> {
    fn first(&self) -> Slot {
        self.slots[0]
    }

    fn last(&self) -> Slot {
        *self.slots.last().expect("chunks are non-empty")
    }

    /// The chunk's directory entry, given the boundary gap `lead` before
    /// its first slot (recomputed after any mutation from at most
    /// `CHUNK_MAX` slots).
    fn dir_entry(&self, lead: Time) -> DirEntry {
        DirEntry {
            first: self.first(),
            last: self.last(),
            reach: self
                .slots
                .windows(2)
                .map(|w| gap(&w[0], &w[1]))
                .fold(lead, Time::max),
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
    /// Exact length of the longest free interval that ends at one of the
    /// chunk's slots: the boundary gap before its first slot (none for the
    /// first chunk) or one of its internal gaps. Probes skip a whole chunk
    /// in O(1) when nothing in it can fit.
    reach: Time,
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
/// struct-of-arrays run of at most `CHUNK_MAX` (32) consecutive slots. The
/// `Minimize_start_time` placement loop commits and rolls back nested
/// duplications hundreds of thousands of times on large problems; with
/// flat arrays every such insert or remove is an `O(len)` memmove, which
/// dominated the schedule time beyond N ≈ 5000. Chunking bounds each
/// memmove to one chunk's two arrays plus a directory walk of
/// `len / CHUNK_MAX` entries (see `DESIGN.md` §11). There is no stored gap
/// index: a probe derives free intervals from consecutive slots. Each
/// directory entry keeps the longest gap reaching its chunk, and each block
/// of `BLOCK` entries the longest of those, so a probe skips whole chunks
/// and whole blocks where nothing fits.
#[derive(Debug, Clone)]
pub struct Timeline<P> {
    chunks: Vec<Chunk<P>>,
    /// `dir[i]` summarizes `chunks[i]`; always in sync.
    dir: Vec<DirEntry>,
    /// `blocks[b]` is the largest `reach` in `dir[b * BLOCK..][..BLOCK]`.
    blocks: Vec<Time>,
    len: usize,
    version: u64,
}

impl<P> Default for Timeline<P> {
    fn default() -> Self {
        Timeline {
            chunks: Vec::new(),
            dir: Vec::new(),
            blocks: Vec::new(),
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
        let si = c.slots.partition_point(|s| s.end <= ready);
        let next = c.slots[si];
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
        // Free intervals appear in order as: the gaps after `next` in this
        // chunk, then, per later chunk, its boundary gap and its internal
        // gaps.
        if self.dir[ci].reach >= dur {
            if let Some(t) = first_fit(&c.slots[si..], dur) {
                return t;
            }
        }
        let Some(j) = self.next_reaching(ci + 1, dur) else {
            return last;
        };
        let (prev, d) = (self.dir[j - 1], self.dir[j]);
        if gap(&prev.last, &d.first) >= dur {
            return prev.last.end;
        }
        first_fit(&self.chunks[j].slots, dur).expect("reach promised a fitting internal gap")
    }

    /// The first chunk at or after `from` with a `reach` of at least `dur`:
    /// the rest of `from`'s block entry by entry (unless nothing in the
    /// block fits), then whole blocks.
    fn next_reaching(&self, from: usize, dur: Time) -> Option<usize> {
        let end = from.next_multiple_of(BLOCK).min(self.dir.len());
        if self.blocks.get(from / BLOCK).is_some_and(|&m| m >= dur) {
            if let Some(k) = self.dir[from..end].iter().position(|d| d.reach >= dur) {
                return Some(from + k);
            }
        }
        if end == self.dir.len() {
            return None;
        }
        let b = end / BLOCK + self.blocks[end / BLOCK..].iter().position(|&m| m >= dur)?;
        let k = self.dir[b * BLOCK..].iter().position(|d| d.reach >= dur);
        Some(b * BLOCK + k.expect("the block holds its maximum"))
    }

    /// The boundary gap before chunk `j`'s first slot (none before the
    /// first chunk).
    fn lead(&self, j: usize) -> Time {
        match j {
            0 => Time::ZERO,
            _ => gap(&self.chunks[j - 1].last(), &self.chunks[j].first()),
        }
    }

    /// Recomputes the directory entries of the chunks in `from..to` (capped
    /// at the chunk count) and, if a `reach` moved, the blocks covering
    /// them; with `shifted` (a chunk was inserted or removed), every block
    /// from `from`'s on.
    fn refresh(&mut self, from: usize, to: usize, shifted: bool) {
        let to = to.min(self.chunks.len());
        let mut moved = shifted;
        for j in from..to {
            let e = self.chunks[j].dir_entry(self.lead(j));
            moved |= e.reach != self.dir[j].reach;
            self.dir[j] = e;
        }
        if !moved {
            return;
        }
        let n = self.dir.len();
        self.blocks.resize(n.div_ceil(BLOCK), Time::ZERO);
        let to = if shifted { n } else { to };
        for b in from / BLOCK..to.div_ceil(BLOCK) {
            self.blocks[b] = self.dir[b * BLOCK..n.min((b + 1) * BLOCK)]
                .iter()
                .map(|d| d.reach)
                .fold(Time::ZERO, Time::max);
        }
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

    /// Raw sorted insert of an interval already known to be free, with a
    /// bounded-memmove chunk insert. `pos` is `locate_insert(slot)`, or
    /// `None` on an empty timeline.
    fn insert_sorted(&mut self, pos: Option<(usize, usize)>, slot: Slot, payload: P) {
        self.version += 1;
        self.len += 1;
        let Some((ci, si)) = pos else {
            let chunk = Chunk {
                slots: vec![slot],
                payloads: vec![payload],
            };
            self.dir.push(chunk.dir_entry(Time::ZERO));
            self.chunks.push(chunk);
            self.refresh(0, 1, true);
            return;
        };
        // Only the last chunk takes a new last slot (`locate_insert`), so
        // no later chunk's boundary gap moves.
        debug_assert!(si < self.chunks[ci].slots.len() || ci + 1 == self.chunks.len());
        let c = &mut self.chunks[ci];
        let appended = si == c.slots.len();
        // The free interval an interior slot splits, from the slot before
        // it (the previous chunk's last for a chunk's first slot); none for
        // an append or a new first slot of the lane.
        let split = match si {
            _ if appended => None,
            0 if ci == 0 => None,
            0 => Some(gap(&self.dir[ci - 1].last, &c.slots[0])),
            _ => Some(gap(&c.slots[si - 1], &c.slots[si])),
        };
        c.slots.insert(si, slot);
        c.payloads.insert(si, payload);
        if c.slots.len() < CHUNK_MAX {
            let d = &mut self.dir[ci];
            if appended {
                // An append adds one internal gap and changes no other.
                let g = gap(&d.last, &slot);
                d.last = slot;
                d.reach = d.reach.max(g);
                let b = &mut self.blocks[ci / BLOCK];
                *b = (*b).max(g);
            } else if split.is_some_and(|g| g < d.reach) {
                // Both parts of a split gap are shorter than the longest
                // gap, which stays where it was.
                d.first = c.slots[0];
            } else {
                // A new first slot of the lane opens a gap, and splitting
                // the longest gap may leave a shorter longest one.
                self.refresh(ci, ci + 1, false);
            }
            return;
        }
        // The gap between the halves (if any) becomes a boundary gap. An
        // append starts a new chunk, so lanes built in time order keep
        // their chunks full.
        let half = if appended {
            c.slots.len() - 1
        } else {
            c.slots.len() / 2
        };
        let tail = Chunk {
            slots: c.slots.split_off(half),
            payloads: c.payloads.split_off(half),
        };
        self.dir.insert(ci + 1, self.dir[ci]);
        self.chunks.insert(ci + 1, tail);
        self.refresh(ci, ci + 2, true);
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

    /// Drops the slot at chunk `ci`, index `si`, repairing the chunk
    /// directory.
    fn remove_pos(&mut self, ci: usize, si: usize) -> Slot {
        self.version += 1;
        self.len -= 1;
        let c = &mut self.chunks[ci];
        c.payloads.remove(si);
        let slot = c.slots.remove(si);
        if c.slots.is_empty() {
            // The next chunk's boundary gap now starts at the previous one.
            self.chunks.remove(ci);
            self.dir.remove(ci);
            self.refresh(ci, ci + 1, true);
        } else if si == c.slots.len() || (ci == 0 && si == 0) {
            // A removed last slot moves the next chunk's boundary gap, and
            // it or the lane's first slot takes a gap away with it.
            let to = ci + 1 + usize::from(si == c.slots.len());
            self.refresh(ci, to, false);
        } else {
            // The gaps on either side merge into one: the longest gap can
            // only grow.
            let prev = match si {
                0 => self.dir[ci - 1].last,
                _ => c.slots[si - 1],
            };
            let g = gap(&prev, &c.slots[si]);
            let d = &mut self.dir[ci];
            d.first = c.slots[0];
            d.reach = d.reach.max(g);
            let b = &mut self.blocks[ci / BLOCK];
            *b = (*b).max(g);
        }
        slot
    }

    /// Removes the booking known to occupy `slot` with `payload`, found by
    /// two binary searches. Removing the most recent insertion restores the
    /// timeline exactly — the mechanism behind the schedule builder's
    /// undo-log rollback, which records every booked slot.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<P> Timeline<P> {
        /// Verifies the sorted non-overlap invariant and the chunk directory.
        fn check_invariants(&self) -> bool {
            // Sorted by `(start, end)` and pairwise disjoint: every slot ends
            // no later than its successor starts, which `dir_entry` relies on.
            let slots: Vec<Slot> = self.iter().map(|(s, _)| s).collect();
            if !slots.windows(2).all(|w| {
                let (a, b) = (&w[0], &w[1]);
                (a.start, a.end) <= (b.start, b.end) && !a.overlaps(b)
            }) {
                return false;
            }
            if self.chunks.iter().any(|c| {
                c.slots.is_empty()
                    || c.slots.len() != c.payloads.len()
                    || c.slots.len() >= CHUNK_MAX
            }) {
                return false;
            }
            if self.len != self.chunks.iter().map(|c| c.slots.len()).sum::<usize>() {
                return false;
            }
            // The directory and the blocks must mirror every chunk exactly.
            let dir: Vec<DirEntry> = (0..self.chunks.len())
                .map(|j| self.chunks[j].dir_entry(self.lead(j)))
                .collect();
            let blocks: Vec<Time> = dir
                .chunks(BLOCK)
                .map(|b| b.iter().map(|d| d.reach).fold(Time::ZERO, Time::max))
                .collect();
            blocks == self.blocks
                && dir.len() == self.dir.len()
                && dir
                    .iter()
                    .zip(&self.dir)
                    .all(|(e, d)| d.first == e.first && d.last == e.last && d.reach == e.reach)
        }
    }

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
        assert!(tl.remove_at(slot, &3));
        let after: Vec<_> = tl.iter().map(|(s, &p)| (s, p)).collect();
        assert_eq!(before, after);
        assert!(!tl.remove_at(slot, &3));
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
            let slot = other.insert_earliest(Time::ZERO, t(1.0), 9);
            other.remove_at(slot, &9);
            other
        };
        assert_eq!(restored.version(), 4);
        assert_eq!(restored, tl);
        assert!(!tl.remove_at(
            Slot {
                start: t(5.0),
                end: t(6.0)
            },
            &42
        ));
        assert_eq!(tl.version(), 2);
    }

    /// 40 one-tick bookings one tick apart from tick 10 on, except a
    /// five-tick gap before the 31st: appends fill the first chunk with
    /// 31 slots and start a second one. The 16th is then removed again,
    /// so the first chunk has room for an insert without a split.
    fn two_chunks() -> Timeline<u32> {
        let mut tl: Timeline<u32> = Timeline::new();
        let mut second = Slot {
            start: Time::ZERO,
            end: Time::ZERO,
        };
        for i in 0..40u64 {
            let start = 10 + 2 * i + if i >= 30 { 4 } else { 0 };
            let slot = tl
                .insert_at(Time::from_ticks(start), Time::from_ticks(1), i as u32)
                .unwrap();
            if i == 15 {
                second = slot;
            }
        }
        assert!(tl.remove_at(second, &15));
        assert_eq!(tl.chunks.len(), 2);
        assert_eq!(tl.chunks[0].slots.len(), CHUNK_MAX - 2);
        assert_eq!(tl.dir[0].reach, Time::from_ticks(5));
        assert_eq!(tl.dir[1].reach, Time::from_ticks(1));
        assert!(tl.check_invariants());
        tl
    }

    #[test]
    fn insert_and_remove_before_the_first_slot_move_reach() {
        let mut tl = two_chunks();
        let ticks = Time::from_ticks;
        // A new first slot opens a nine-tick gap, the longest in the chunk.
        let first = tl.insert_at(Time::ZERO, ticks(1), 99).unwrap();
        assert_eq!(tl.dir[0].reach, ticks(9));
        assert_eq!(tl.blocks[0], ticks(9));
        assert!(tl.check_invariants());
        assert_eq!(tl.probe(Time::ZERO, ticks(8)), ticks(1));
        // Removing it closes that gap again.
        assert!(tl.remove_at(first, &99));
        assert_eq!(tl.dir[0].reach, ticks(5));
        assert_eq!(tl.blocks[0], ticks(5));
        assert!(tl.check_invariants());
    }

    #[test]
    fn removing_a_chunks_last_slot_moves_both_reaches() {
        let mut tl = two_chunks();
        let ticks = Time::from_ticks;
        // The first chunk's last slot follows its longest gap; without it
        // the chunk's reach shrinks to the gap the removed 16th slot left,
        // and the next chunk's boundary gap grows from one tick to seven.
        let last = tl.dir[0].last;
        assert!(tl.remove_at(last, &30));
        assert_eq!(tl.dir[0].reach, ticks(3));
        assert_eq!(tl.dir[1].reach, ticks(7));
        assert_eq!(tl.blocks[0], ticks(7));
        assert!(tl.check_invariants());
        // The second chunk's last slot is the lane's last: nothing follows.
        let last = tl.dir[1].last;
        assert!(tl.remove_at(last, &39));
        assert_eq!(tl.last_end(), ticks(91));
        assert!(tl.check_invariants());
    }

    /// Deterministic LCG for the churn tests.
    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        }
    }

    /// Naive probe over flattened contents: the earliest `t ≥ ready` where
    /// `[t, t + dur)` overlaps nothing (a zero-width request is blocked
    /// only strictly inside a booking).
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

    /// One churn regime: `ready` drawn below `horizon`, durations below
    /// `max_dur` ticks (every `zero_every`-th one zero-width), a random
    /// removal with probability 1/3, and every `sweep_every` inserts a
    /// run of `CHUNK_MAX + 8` consecutive bookings removed from a random
    /// point, which empties at least one chunk.
    struct Churn {
        seed: u64,
        steps: u32,
        horizon: u32,
        max_dur: u32,
        zero_every: u32,
        sweep_every: u32,
    }

    /// Drives `c` and compares every probe answer and the final contents
    /// against the flat reference; returns the timeline.
    fn churn_against_reference(c: &Churn) -> Timeline<u32> {
        let mut tl: Timeline<u32> = Timeline::new();
        let mut reference: Vec<(Slot, u32)> = Vec::new();
        let mut rand = lcg(c.seed);
        let mut emptied = 0usize;
        for i in 0..c.steps {
            let ready = Time::from_ticks(u64::from(rand() % c.horizon));
            let dur = if rand().is_multiple_of(c.zero_every) {
                Time::ZERO
            } else {
                Time::from_ticks(u64::from(rand() % c.max_dur))
            };
            assert_eq!(tl.probe(ready, dur), ref_probe(&reference, ready, dur));
            let slot = tl.insert_earliest(ready, dur, i);
            let at = reference.partition_point(|(s, _)| (s.start, s.end) <= (slot.start, slot.end));
            reference.insert(at, (slot, i));
            if rand().is_multiple_of(3) {
                let victim = rand() % (i + 1);
                match reference.iter().position(|&(_, p)| p == victim) {
                    Some(pos) => {
                        let (s, _) = reference.remove(pos);
                        assert!(tl.remove_at(s, &victim));
                    }
                    None => assert!(tl.iter().all(|(_, &p)| p != victim)),
                }
            }
            if i % c.sweep_every == c.sweep_every - 1 && reference.len() > CHUNK_MAX + 8 {
                let chunks = tl.chunks.len();
                let from = rand() as usize % (reference.len() - CHUNK_MAX - 8);
                for (s, p) in reference.drain(from..from + CHUNK_MAX + 8) {
                    assert!(tl.remove_at(s, &p));
                }
                emptied += usize::from(tl.chunks.len() < chunks);
            }
            assert!(tl.check_invariants());
        }
        assert_eq!(
            tl.iter().map(|(s, &p)| (s, p)).collect::<Vec<_>>(),
            reference
        );
        assert!(emptied > 0, "some sweep removal emptied a chunk");
        tl
    }

    #[test]
    fn chunked_store_matches_flat_reference() {
        // Sparse: wide ready spread, gaps of every size.
        for seed in [0x1234_5678, 7, 0xdead_beef, 2024] {
            churn_against_reference(&Churn {
                seed,
                steps: 2000,
                horizon: 50_000,
                max_dur: 40,
                zero_every: 10,
                sweep_every: 400,
            });
        }
    }

    #[test]
    fn chunked_store_matches_flat_reference_when_dense() {
        // Dense: every ready instant falls inside a mostly full lane, so
        // probes walk many short gaps and chunk boundaries; a third of
        // the bookings are zero-width barriers.
        for seed in [1, 99, 0x5eed] {
            let tl = churn_against_reference(&Churn {
                seed,
                steps: 1500,
                horizon: 2_000,
                max_dur: 6,
                zero_every: 3,
                sweep_every: 200,
            });
            assert!(tl.busy_time() * 2 > tl.last_end(), "mostly full");
        }
    }

    #[test]
    fn probe_is_monotone_in_ready_and_in_bookings() {
        // The exact duplication-trial bound rests on this: a later ready
        // instant, or an extra booking, never makes a probe answer earlier.
        let mut rand = lcg(42);
        let mut tl: Timeline<u32> = Timeline::new();
        for i in 0..600u32 {
            for _ in 0..4 {
                let ready = Time::from_ticks(u64::from(rand() % 3_000));
                let later = ready + Time::from_ticks(u64::from(rand() % 50));
                let dur = Time::from_ticks(u64::from(rand() % 12));
                assert!(tl.probe(ready, dur) <= tl.probe(later, dur));
            }
            let probes: Vec<(Time, Time, Time)> = (0..8)
                .map(|_| {
                    let ready = Time::from_ticks(u64::from(rand() % 3_000));
                    let dur = Time::from_ticks(u64::from(rand() % 12));
                    (ready, dur, tl.probe(ready, dur))
                })
                .collect();
            let ready = Time::from_ticks(u64::from(rand() % 3_000));
            let dur = Time::from_ticks(u64::from(rand() % 8));
            tl.insert_earliest(ready, dur, i);
            for (ready, dur, before) in probes {
                assert!(tl.probe(ready, dur) >= before);
            }
        }
    }
}
