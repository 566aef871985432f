//! Canonical request keys and the byte-budget LRU response cache.
//!
//! The daemon serves *millions of near-duplicate requests*: the same
//! problem text arrives re-ordered, re-indented, or re-labelled, and must
//! hit the same cache slot. Two layers make that cheap and exact:
//!
//! 1. **Canonical keys** ([`canonical_key`]) — a deterministic
//!    serialization of the *parsed* problem (ops, deps, architecture,
//!    timings, `rtc`, effective `npf`) plus every response-shaping request
//!    parameter (scheduler, strategy, `include_schedule`). All collections
//!    are sorted by name, so any two spec texts describing the same
//!    problem map to the same key regardless of declaration order. Keys
//!    are compared as full strings — a hash collision can never alias two
//!    distinct problems to one response.
//! 2. **A raw-text memo** — maps the exact raw request fields to the
//!    canonical key, so the steady-state hit path never re-parses the
//!    spec: one string hash, two map lookups, done.
//!
//! Both layers share one byte budget. Eviction is LRU by access stamp;
//! canonical entries and memo entries are evicted together, oldest first.
//! A memo entry whose canonical entry has been evicted resolves lazily to
//! a miss and is dropped.

use std::collections::HashMap;
use std::fmt::Write;
use std::ops::Range;
use std::sync::Arc;

use ftbar_model::{DepId, LinkId, OpId, Problem, ProcId, Time};

use crate::SchedulerKind;

/// Fixed per-entry bookkeeping cost charged against the byte budget, on
/// top of the key/value bytes (map node, stamp, `Arc` header).
const ENTRY_OVERHEAD: usize = 64;

/// Cache observability counters, reported by the `status` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Responses served from cache.
    pub hits: u64,
    /// Lookups that fell through to the scheduler.
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Responses inserted.
    pub insertions: u64,
}

#[derive(Debug)]
struct Entry {
    response: Arc<str>,
    stamp: u64,
    cost: usize,
}

#[derive(Debug)]
struct MemoEntry {
    canonical: String,
    stamp: u64,
    cost: usize,
}

/// A snapshot export: `(canonical, body)` cache entries and
/// `(raw, canonical)` memo records, each oldest access first.
pub type CacheExport = (Vec<(String, Arc<str>)>, Vec<(String, String)>);

/// Byte-budget LRU cache of rendered responses, keyed by canonical
/// problem keys with a raw-text memo in front.
#[derive(Debug)]
pub struct ResponseCache {
    budget: usize,
    used: usize,
    clock: u64,
    entries: HashMap<String, Entry>,
    memo: HashMap<String, MemoEntry>,
    stats: CacheStats,
}

impl ResponseCache {
    /// A cache holding at most `budget` bytes of keys + responses.
    /// A budget of `0` disables caching (every lookup misses).
    pub fn new(budget: usize) -> Self {
        ResponseCache {
            budget,
            used: 0,
            clock: 0,
            entries: HashMap::new(),
            memo: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up a response by the exact raw request key (no parsing).
    pub fn get_raw(&mut self, raw: &str) -> Option<Arc<str>> {
        self.clock += 1;
        let stamp = self.clock;
        let canonical = match self.memo.get_mut(raw) {
            Some(m) => {
                m.stamp = stamp;
                m.canonical.clone()
            }
            None => return self.miss(),
        };
        match self.entries.get_mut(&canonical) {
            Some(e) => {
                e.stamp = stamp;
                self.stats.hits += 1;
                Some(Arc::clone(&e.response))
            }
            None => {
                // The canonical entry was evicted under this memo entry;
                // drop the dangling pointer and fall through to a miss.
                if let Some(m) = self.memo.remove(raw) {
                    self.used = self.used.saturating_sub(m.cost);
                }
                self.miss()
            }
        }
    }

    /// Looks up a response by canonical key (after a raw-memo miss), and
    /// memoizes `raw` → `canonical` on a hit.
    pub fn get_canonical(&mut self, raw: &str, canonical: &str) -> Option<Arc<str>> {
        self.clock += 1;
        let stamp = self.clock;
        let response = match self.entries.get_mut(canonical) {
            Some(e) => {
                e.stamp = stamp;
                Arc::clone(&e.response)
            }
            None => return self.miss(),
        };
        self.stats.hits += 1;
        self.memoize(raw, canonical, stamp);
        Some(response)
    }

    /// Inserts a rendered response under both keys.
    ///
    /// An entry bigger than the whole budget is not cached at all; with a
    /// zero budget this is a no-op.
    pub fn insert(&mut self, raw: &str, canonical: &str, response: &Arc<str>) {
        if self.budget == 0 {
            return;
        }
        self.clock += 1;
        let stamp = self.clock;
        let cost = canonical.len() + response.len() + ENTRY_OVERHEAD;
        if cost <= self.budget && !self.entries.contains_key(canonical) {
            self.entries.insert(
                canonical.to_owned(),
                Entry {
                    response: Arc::clone(response),
                    stamp,
                    cost,
                },
            );
            self.used += cost;
            self.stats.insertions += 1;
        }
        self.memoize(raw, canonical, stamp);
        self.evict_to_budget();
    }

    /// Current cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Number of cached responses (canonical entries).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no responses.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of raw-memo entries.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Exports the cache for a snapshot: `(canonical, body)` entries and
    /// `(raw, canonical)` memos, each sorted oldest access first so
    /// re-inserting in order reproduces the LRU ordering.
    pub fn export(&self) -> CacheExport {
        let mut entries: Vec<(u64, String, Arc<str>)> = self
            .entries
            .iter()
            .map(|(k, e)| (e.stamp, k.clone(), Arc::clone(&e.response)))
            .collect();
        entries.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut memos: Vec<(u64, String, String)> = self
            .memo
            .iter()
            .map(|(k, m)| (m.stamp, k.clone(), m.canonical.clone()))
            .collect();
        memos.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        (
            entries.into_iter().map(|(_, k, r)| (k, r)).collect(),
            memos.into_iter().map(|(_, k, c)| (k, c)).collect(),
        )
    }

    /// Re-inserts a snapshotted response under its canonical key with a
    /// fresh access stamp (restore path; no raw memo).
    pub fn restore_entry(&mut self, canonical: &str, response: &Arc<str>) {
        if self.budget == 0 {
            return;
        }
        self.clock += 1;
        let stamp = self.clock;
        let cost = canonical.len() + response.len() + ENTRY_OVERHEAD;
        if cost <= self.budget && !self.entries.contains_key(canonical) {
            self.entries.insert(
                canonical.to_owned(),
                Entry {
                    response: Arc::clone(response),
                    stamp,
                    cost,
                },
            );
            self.used += cost;
        }
        self.evict_to_budget();
    }

    /// Re-inserts a snapshotted raw → canonical memo entry (restore
    /// path). Memos whose canonical entry did not survive still resolve
    /// lazily to a miss, exactly like a post-eviction dangling memo.
    pub fn restore_memo(&mut self, raw: &str, canonical: &str) {
        if self.budget == 0 {
            return;
        }
        self.clock += 1;
        let stamp = self.clock;
        self.memoize(raw, canonical, stamp);
    }

    fn miss(&mut self) -> Option<Arc<str>> {
        self.stats.misses += 1;
        None
    }

    fn memoize(&mut self, raw: &str, canonical: &str, stamp: u64) {
        let cost = raw.len() + canonical.len() + ENTRY_OVERHEAD;
        if cost > self.budget || self.memo.contains_key(raw) {
            return;
        }
        self.memo.insert(
            raw.to_owned(),
            MemoEntry {
                canonical: canonical.to_owned(),
                stamp,
                cost,
            },
        );
        self.used += cost;
        self.evict_to_budget();
    }

    /// Evicts oldest-stamped entries (responses and memo entries pooled
    /// together) until `used <= budget`.
    fn evict_to_budget(&mut self) {
        while self.used > self.budget {
            let oldest_entry = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, e)| (k.clone(), e.stamp));
            let oldest_memo = self
                .memo
                .iter()
                .min_by_key(|(_, m)| m.stamp)
                .map(|(k, m)| (k.clone(), m.stamp));
            match (oldest_entry, oldest_memo) {
                (Some((ek, es)), Some((mk, ms))) => {
                    if es <= ms {
                        self.remove_entry(&ek);
                    } else {
                        self.remove_memo(&mk);
                    }
                }
                (Some((ek, _)), None) => self.remove_entry(&ek),
                (None, Some((mk, _))) => self.remove_memo(&mk),
                (None, None) => break,
            }
        }
    }

    fn remove_entry(&mut self, key: &str) {
        if let Some(e) = self.entries.remove(key) {
            self.used = self.used.saturating_sub(e.cost);
            self.stats.evictions += 1;
        }
    }

    fn remove_memo(&mut self, key: &str) {
        if let Some(m) = self.memo.remove(key) {
            self.used = self.used.saturating_sub(m.cost);
            self.stats.evictions += 1;
        }
    }
}

/// The canonical key of a scheduling request: a deterministic, sorted
/// serialization of everything the response depends on.
///
/// Two requests get the same key **iff** they describe the same problem
/// (up to declaration order) and ask for it the same way — so serving a
/// cached response under this key is byte-exact, and distinct `npf`,
/// strategy, scheduler, or `include_schedule` values can never collide.
pub fn canonical_key(
    problem: &Problem,
    scheduler: SchedulerKind,
    strategy: &str,
    include_schedule: bool,
) -> String {
    let alg = problem.alg();
    let arch = problem.arch();
    let mut key = String::with_capacity(256);
    key.push_str("v1|scheduler=");
    key.push_str(scheduler.name());
    key.push_str("|strategy=");
    key.push_str(strategy);
    let _ = write!(key, "|npf={}", problem.npf());
    key.push_str("|schedule=");
    key.push_str(if include_schedule { "1" } else { "0" });
    key.push_str("|rtc=");
    match problem.rtc() {
        Some(t) => {
            let _ = write!(key, "{}", t.ticks());
        }
        None => key.push('-'),
    }

    // Entries are ordered by their bytes. Each list also carries a rank
    // key from its leading names (see `name_ranks`), so almost every
    // comparison is between integers, not strings.
    let op_names: Vec<&str> = alg.ops().map(|o| alg.op(o).name()).collect();
    let proc_names: Vec<&str> = arch.procs().map(|p| arch.proc(p).name()).collect();
    let link_names: Vec<&str> = arch.links().map(|l| arch.link(l).name()).collect();
    let src_gt = name_ranks(&op_names, b'>');
    let dst_hash = name_ranks(&op_names, b'#');
    let op_at = name_ranks(&op_names, b'@');
    let proc_eq = name_ranks(&proc_names, b'=');
    let link_eq = name_ranks(&link_names, b'=');

    let mut entries = SortedEntries::default();
    key.push_str("|alg=");
    key.push_str(alg.name());
    key.push_str("|ops:");
    entries.append(&mut key, alg.ops(), unranked, |buf, id| {
        let op = alg.op(id);
        buf.push_str(op.name());
        buf.push('/');
        buf.push_str(op.kind().keyword());
    });

    key.push_str("|deps:");
    let dep_rank = |id| {
        let (s, d) = alg.dep_endpoints(id);
        rank_of(&[(&src_gt, s.index()), (&dst_hash, d.index())])
    };
    entries.append(&mut key, alg.deps(), dep_rank, |buf, id| {
        let (s, d) = alg.dep_endpoints(id);
        let _ = write!(
            buf,
            "{}>{}#{:?}",
            alg.op(s).name(),
            alg.op(d).name(),
            alg.dep(id).size()
        );
    });

    key.push_str("|arch=");
    key.push_str(arch.name());
    key.push_str("|procs:");
    entries.append(&mut key, arch.procs(), unranked, |buf, id| {
        buf.push_str(arch.proc(id).name());
    });

    key.push_str("|links:");
    entries.append(&mut key, arch.links(), unranked, |buf, id| {
        let l = arch.link(id);
        let mut eps: Vec<_> = l.endpoints().iter().map(|p| arch.proc(*p).name()).collect();
        eps.sort_unstable();
        buf.push_str(l.name());
        buf.push('=');
        buf.push_str(&eps.join("+"));
    });

    key.push_str("|exec:");
    let cells = alg
        .ops()
        .flat_map(|op| arch.procs().map(move |proc| (op, proc)));
    let exec_rank =
        |(op, proc): (OpId, ProcId)| rank_of(&[(&op_at, op.index()), (&proc_eq, proc.index())]);
    entries.append(&mut key, cells, exec_rank, |buf, (op, proc)| {
        buf.push_str(alg.op(op).name());
        buf.push('@');
        buf.push_str(arch.proc(proc).name());
        buf.push('=');
        match problem.exec().get(op, proc) {
            Some(t) => push_u64(buf, t.ticks()),
            None => buf.push_str("inf"),
        }
    });

    key.push_str("|comm:");
    let cells = alg.deps().flat_map(|dep| {
        arch.links()
            .filter_map(move |link| problem.comm().get(dep, link).map(|t| (dep, link, t)))
    });
    let comm_rank = |(dep, link, _): (DepId, LinkId, Time)| {
        let (s, d) = alg.dep_endpoints(dep);
        rank_of(&[
            (&src_gt, s.index()),
            (&op_at, d.index()),
            (&link_eq, link.index()),
        ])
    };
    entries.append(&mut key, cells, comm_rank, |buf, (dep, link, t)| {
        let (s, d) = alg.dep_endpoints(dep);
        buf.push_str(alg.op(s).name());
        buf.push('>');
        buf.push_str(alg.op(d).name());
        buf.push('@');
        buf.push_str(arch.link(link).name());
        buf.push('=');
        push_u64(buf, t.ticks());
    });
    key
}

/// Appends `v` in decimal, as `{}` formats it, without going through
/// `fmt` (the key writes a few thousand of these per call).
fn push_u64(buf: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// A sort key for a list entry: the ranks of its leading names, then the
/// entry's bytes. Rank order must agree with byte order wherever the
/// ranks differ; entries with equal ranks compare by their bytes.
type Rank = [u32; 3];

/// The rank of an entry in a short list: its bytes alone decide.
fn unranked<T>(_: T) -> Rank {
    Rank::default()
}

/// Ranks `names` by the byte order of `name` followed by `sep`, the way
/// each name leads its entries `name{sep}…`; equal names share a rank.
///
/// The rank order is the entries' byte order only if no name contains
/// `sep` (else `A` + `@` could be a prefix of name `A@B`); then this
/// returns `None` and the entries compare by their bytes alone.
fn name_ranks(names: &[&str], sep: u8) -> Option<Vec<u32>> {
    if names.iter().any(|n| n.as_bytes().contains(&sep)) {
        return None;
    }
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (names[a].as_bytes(), names[b].as_bytes());
        let n = a.len().min(b.len());
        // Past the common length, the shorter name continues with `sep`.
        a[..n].cmp(&b[..n]).then_with(|| {
            let next = |s: &[u8]| s.get(n).copied().unwrap_or(sep);
            next(a).cmp(&next(b))
        })
    });
    let mut ranks = vec![0; names.len()];
    let mut rank = 0;
    for (pos, &i) in order.iter().enumerate() {
        if pos > 0 && names[i] != names[order[pos - 1]] {
            rank += 1;
        }
        ranks[i] = rank;
    }
    Some(ranks)
}

/// The [`Rank`] of an entry led by the given `(ranks, index)` names, in
/// order. A name without ranks ends the key there: the names after it
/// decide nothing until it is known to be equal, which only the bytes
/// can tell.
fn rank_of(names: &[(&Option<Vec<u32>>, usize)]) -> Rank {
    let mut rank = Rank::default();
    for (slot, (ranks, i)) in rank.iter_mut().zip(names) {
        match ranks {
            Some(r) => *slot = r[*i] + 1,
            None => break,
        }
    }
    rank
}

/// Scratch space for [`canonical_key`]'s sorted lists: every entry of a
/// list is written into one shared buffer and only the spans are sorted,
/// so no entry gets an allocation of its own.
#[derive(Default)]
struct SortedEntries {
    buf: String,
    spans: Vec<(Rank, Range<usize>)>,
}

impl SortedEntries {
    /// Appends the entries `write` renders for `items` to `key`,
    /// comma-separated in byte order — the order a sorted `Vec<String>`
    /// of the same entries has. `rank` must be consistent with that order
    /// (see [`Rank`]).
    fn append<T: Copy>(
        &mut self,
        key: &mut String,
        items: impl Iterator<Item = T>,
        rank: impl Fn(T) -> Rank,
        mut write: impl FnMut(&mut String, T),
    ) {
        self.buf.clear();
        self.spans.clear();
        for item in items {
            let start = self.buf.len();
            write(&mut self.buf, item);
            self.spans.push((rank(item), start..self.buf.len()));
        }
        let buf = &self.buf;
        self.spans.sort_unstable_by(|(ra, a), (rb, b)| {
            ra.cmp(rb).then_with(|| buf[a.clone()].cmp(&buf[b.clone()]))
        });
        for (i, (_, span)) in self.spans.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            key.push_str(&buf[span.clone()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_model::paper_example;

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn raw_memo_serves_without_reparsing() {
        let mut c = ResponseCache::new(64 * 1024);
        let p = paper_example();
        let canon = canonical_key(&p, SchedulerKind::Ftbar, "adaptive", false);
        let resp = arc("{\"status\":\"ok\"}");
        assert!(c.get_raw("raw-a").is_none());
        c.insert("raw-a", &canon, &resp);
        assert_eq!(c.get_raw("raw-a").as_deref(), Some(&*resp));
        // A different raw text with the same canonical key also hits.
        assert!(c.get_raw("raw-b").is_none());
        assert_eq!(c.get_canonical("raw-b", &canon).as_deref(), Some(&*resp));
        // ... and is memoized for next time.
        assert_eq!(c.get_raw("raw-b").as_deref(), Some(&*resp));
        let s = c.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let mut c = ResponseCache::new(0);
        let resp = arc("resp");
        c.insert("raw", "canon", &resp);
        assert!(c.is_empty());
        assert!(c.get_raw("raw").is_none());
        assert!(c.get_canonical("raw", "canon").is_none());
    }

    #[test]
    fn eviction_respects_byte_budget_lru() {
        let mut c = ResponseCache::new(600);
        for i in 0..8 {
            let resp = arc(&format!("response-{i}-{}", "x".repeat(40)));
            c.insert(&format!("raw-{i}"), &format!("canon-{i}"), &resp);
        }
        assert!(
            c.used_bytes() <= 600,
            "budget respected: {}",
            c.used_bytes()
        );
        assert!(c.stats().evictions > 0);
        // The most recently inserted entry survives.
        assert!(c.get_raw("raw-7").is_some() || c.get_canonical("raw-7", "canon-7").is_some());
    }

    #[test]
    fn export_restore_round_trips_with_lru_order() {
        let mut c = ResponseCache::new(64 * 1024);
        for i in 0..4 {
            let resp = arc(&format!("response-{i}"));
            c.insert(&format!("raw-{i}"), &format!("canon-{i}"), &resp);
        }
        // Touch an old entry so export order differs from insert order.
        assert!(c.get_raw("raw-0").is_some());
        let (entries, memos) = c.export();
        assert_eq!(entries.len(), 4);
        assert_eq!(memos.len(), 4);
        assert_eq!(entries.last().unwrap().0, "canon-0", "freshest last");

        let mut restored = ResponseCache::new(64 * 1024);
        for (canonical, body) in &entries {
            restored.restore_entry(canonical, body);
        }
        for (raw, canonical) in &memos {
            restored.restore_memo(raw, canonical);
        }
        assert_eq!(restored.len(), 4);
        assert_eq!(restored.memo_len(), 4);
        for i in 0..4 {
            assert_eq!(
                restored.get_raw(&format!("raw-{i}")).as_deref(),
                Some(format!("response-{i}").as_str())
            );
        }
        // LRU order carried over: shrink the budget of a fresh restore
        // and the oldest-accessed entries fall out first.
        let mut tight = ResponseCache::new(300);
        for (canonical, body) in &entries {
            tight.restore_entry(canonical, body);
        }
        assert!(tight.len() < 4);
        assert!(
            tight.get_canonical("r", "canon-0").is_some(),
            "most recently used entry survives a tight restore"
        );
    }

    /// The key as its definition states it: one `String` per entry,
    /// sorted, comma-joined.
    fn reference_key(problem: &Problem) -> String {
        let (alg, arch) = (problem.alg(), problem.arch());
        let sorted = |mut v: Vec<String>| {
            v.sort_unstable();
            v.join(",")
        };
        let name = |o: OpId| alg.op(o).name();
        let ops = alg
            .ops()
            .map(|o| format!("{}/{}", name(o), alg.op(o).kind().keyword()));
        let deps = alg.deps().map(|d| {
            let (s, t) = alg.dep_endpoints(d);
            format!("{}>{}#{:?}", name(s), name(t), alg.dep(d).size())
        });
        let links = arch.links().map(|l| {
            let mut eps: Vec<_> = arch
                .link(l)
                .endpoints()
                .iter()
                .map(|p| arch.proc(*p).name())
                .collect();
            eps.sort_unstable();
            format!("{}={}", arch.link(l).name(), eps.join("+"))
        });
        let exec = alg.ops().flat_map(|o| {
            arch.procs().map(move |p| {
                let cell = problem
                    .exec()
                    .get(o, p)
                    .map_or("inf".into(), |t| t.ticks().to_string());
                format!("{}@{}={cell}", name(o), arch.proc(p).name())
            })
        });
        let comm = alg.deps().flat_map(|d| {
            let (s, t) = alg.dep_endpoints(d);
            arch.links().filter_map(move |l| {
                let c = problem.comm().get(d, l)?;
                Some(format!(
                    "{}>{}@{}={}",
                    name(s),
                    name(t),
                    arch.link(l).name(),
                    c.ticks()
                ))
            })
        });
        format!(
            "v1|scheduler=ftbar|strategy=adaptive|npf={}|schedule=0|rtc={}|alg={}|ops:{}|deps:{}|arch={}|procs:{}|links:{}|exec:{}|comm:{}",
            problem.npf(),
            problem.rtc().map_or("-".into(), |t| t.ticks().to_string()),
            alg.name(),
            sorted(ops.collect()),
            sorted(deps.collect()),
            arch.name(),
            sorted(arch.procs().map(|p| arch.proc(p).name().to_owned()).collect()),
            sorted(links.collect()),
            sorted(exec.collect()),
            sorted(comm.collect()),
        )
    }

    #[test]
    fn key_matches_its_definition_when_names_contain_separators() {
        // Names that contain the separator after them disable the rank
        // order (`A` + `@` is a prefix of `A@B`); parallel deps tie on
        // their ranks and fall back to their bytes.
        let mut b = ftbar_model::Alg::builder("seps");
        let names = ["A", "A@B", "A>x", "A#1", "A/c", "A=", "A1", "A.b"];
        let ops: Vec<OpId> = names.iter().map(|n| b.comp(*n)).collect();
        b.dep_sized(ops[0], ops[1], 2.0);
        b.dep_sized(ops[0], ops[1], 10.0);
        b.dep(ops[0], ops[2]);
        b.dep(ops[3], ops[4]);
        b.dep(ops[5], ops[6]);
        b.dep(ops[6], ops[7]);
        b.dep(ops[7], ops[1]);
        let alg = b.build().unwrap();
        let mut b = ftbar_model::Arch::builder("m");
        let procs = [b.proc("P"), b.proc("P=1"), b.proc("P1")];
        b.link("L", &procs[..2]);
        b.link("L=x", &procs[1..]);
        b.link("L.1", &[procs[0], procs[2]]);
        let arch = b.build().unwrap();
        let mut exec = ftbar_model::ExecTable::new(alg.op_count(), arch.proc_count());
        for (i, op) in alg.ops().enumerate() {
            for (j, proc) in arch.procs().enumerate() {
                exec.set(
                    op,
                    proc,
                    ftbar_model::Time::from_ticks((i * 7 + j * 3) as u64 % 10 + 1),
                );
            }
        }
        let mut comm = ftbar_model::CommTable::new(alg.dep_count(), arch.link_count());
        for (i, dep) in alg.deps().enumerate() {
            for link in arch.links() {
                comm.set(
                    dep,
                    link,
                    ftbar_model::Time::from_ticks([9, 10, 100][i % 3]),
                );
            }
        }
        let p = Problem::builder(alg, arch, exec, comm).build().unwrap();
        let key = canonical_key(&p, SchedulerKind::Ftbar, "adaptive", false);
        assert_eq!(key, reference_key(&p));
        let paper = paper_example();
        let key = canonical_key(&paper, SchedulerKind::Ftbar, "adaptive", false);
        assert_eq!(key, reference_key(&paper));
    }

    #[test]
    fn distinct_parameters_never_collide() {
        let p = paper_example();
        let base = canonical_key(&p, SchedulerKind::Ftbar, "adaptive", false);
        assert_ne!(
            base,
            canonical_key(&p, SchedulerKind::Hbp, "adaptive", false)
        );
        assert_ne!(
            base,
            canonical_key(&p, SchedulerKind::Ftbar, "clustered", false)
        );
        assert_ne!(
            base,
            canonical_key(&p, SchedulerKind::Ftbar, "adaptive", true)
        );
        let p2 = p.with_npf(0).unwrap();
        assert_ne!(
            base,
            canonical_key(&p2, SchedulerKind::Ftbar, "adaptive", false)
        );
    }
}
