//! Canonical request keys and the byte-budget LRU response cache.
//!
//! The daemon serves *millions of near-duplicate requests*: the same
//! problem text arrives re-ordered, re-indented, or re-labelled. Two
//! layers make answering them cheap and exact:
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
//!    spec: two map lookups on hashes computed once, done.
//!
//! The server looks answers up by raw key only ([`ResponseCache::get_raw`])
//! and never calls [`ResponseCache::get_canonical`]. A reordered spec
//! misses, is scheduled again, and its insert finds the canonical entry
//! already there: the new memo shares that entry instead of adding one.
//!
//! Every key is a [`CacheKey`]: its text is shared, never copied, by the
//! entry, its memos and the server's artifact store, and its hash is
//! computed once. Both layers share one byte budget, which charges every
//! memo its key bytes as if they were its own. Eviction is LRU by access
//! stamp; canonical entries and memo entries are evicted together, oldest
//! first. A memo entry whose canonical entry has been evicted resolves
//! lazily to a miss and is dropped.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

use ftbar_model::{DepId, LinkId, OpId, Problem, ProcId};

use crate::SchedulerKind;

/// Fixed per-entry bookkeeping cost charged against the byte budget, on
/// top of the key/value bytes (map node, stamp, `Arc` header).
const ENTRY_OVERHEAD: usize = 64;

/// A cache key: shared text plus its hash, computed once.
///
/// Clones share the text. Keys are equal when their texts are, so two
/// keys whose hashes collide stay distinct. The hash is keyed by one
/// process-wide [`RandomState`], so maps of these keys resist HashDoS as
/// std's own maps do.
#[derive(Clone, Debug)]
pub struct CacheKey {
    text: Arc<str>,
    hash: u64,
}

impl CacheKey {
    /// The key of `text`, hashed now.
    fn new(text: Arc<str>) -> CacheKey {
        static STATE: OnceLock<RandomState> = OnceLock::new();
        let hash = STATE.get_or_init(RandomState::new).hash_one(&*text);
        CacheKey { text, hash }
    }

    /// The key's text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// A key of `text` with a chosen hash, to force collisions.
    #[cfg(test)]
    fn with_hash(text: &str, hash: u64) -> CacheKey {
        CacheKey {
            text: text.into(),
            hash,
        }
    }
}

impl From<String> for CacheKey {
    fn from(text: String) -> CacheKey {
        CacheKey::new(text.into())
    }
}

impl From<&String> for CacheKey {
    fn from(text: &String) -> CacheKey {
        CacheKey::new(text.as_str().into())
    }
}

impl From<&str> for CacheKey {
    fn from(text: &str) -> CacheKey {
        CacheKey::new(text.into())
    }
}

impl From<&CacheKey> for CacheKey {
    fn from(key: &CacheKey) -> CacheKey {
        key.clone()
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Deref for CacheKey {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

/// The hasher of [`KeyMap`]s: it passes a [`CacheKey`]'s hash through.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only a CacheKey's hash is written to a KeyHasher");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A map keyed by [`CacheKey`]s, which hashes no text.
pub(crate) type KeyMap<V> = HashMap<CacheKey, V, BuildHasherDefault<KeyHasher>>;

/// A set of [`CacheKey`]s, which hashes no text.
pub(crate) type KeySet = HashSet<CacheKey, BuildHasherDefault<KeyHasher>>;

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
    canonical: CacheKey,
    stamp: u64,
    cost: usize,
}

/// A snapshot export: `(canonical, body)` cache entries and
/// `(raw, canonical)` memo records, each oldest access first.
pub type CacheExport = (Vec<(CacheKey, Arc<str>)>, Vec<(CacheKey, CacheKey)>);

/// Byte-budget LRU cache of rendered responses, keyed by canonical
/// problem keys with a raw-text memo in front.
///
/// Every method takes its keys as `impl Into<CacheKey>`: a [`CacheKey`]
/// (or a reference to one) is shared as it is, a string is copied and
/// hashed once.
#[derive(Debug)]
pub struct ResponseCache {
    budget: usize,
    used: usize,
    clock: u64,
    entries: KeyMap<Entry>,
    memo: KeyMap<MemoEntry>,
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
            entries: KeyMap::default(),
            memo: KeyMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up a response by the exact raw request key (no parsing).
    pub fn get_raw(&mut self, raw: impl Into<CacheKey>) -> Option<Arc<str>> {
        let raw = raw.into();
        self.clock += 1;
        let stamp = self.clock;
        let canonical = match self.memo.get_mut(&raw) {
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
                if let Some(m) = self.memo.remove(&raw) {
                    self.used = self.used.saturating_sub(m.cost);
                }
                self.miss()
            }
        }
    }

    /// Looks up a response by canonical key (after a raw-memo miss), and
    /// memoizes `raw` → `canonical` on a hit. The server never calls
    /// this: a raw miss is scheduled again.
    pub fn get_canonical(
        &mut self,
        raw: impl Into<CacheKey>,
        canonical: impl Into<CacheKey>,
    ) -> Option<Arc<str>> {
        self.clock += 1;
        let stamp = self.clock;
        let canonical = canonical.into();
        let response = match self.entries.get_mut(&canonical) {
            Some(e) => {
                e.stamp = stamp;
                Arc::clone(&e.response)
            }
            None => return self.miss(),
        };
        self.stats.hits += 1;
        self.memoize(raw.into(), canonical, stamp);
        Some(response)
    }

    /// Inserts a rendered response under both keys.
    ///
    /// An entry bigger than the whole budget is not cached at all; with a
    /// zero budget this is a no-op.
    pub fn insert(
        &mut self,
        raw: impl Into<CacheKey>,
        canonical: impl Into<CacheKey>,
        response: &Arc<str>,
    ) {
        if self.budget == 0 {
            return;
        }
        self.clock += 1;
        let stamp = self.clock;
        let canonical = canonical.into();
        let cost = canonical.len() + response.len() + ENTRY_OVERHEAD;
        if cost <= self.budget && !self.entries.contains_key(&canonical) {
            self.entries.insert(
                canonical.clone(),
                Entry {
                    response: Arc::clone(response),
                    stamp,
                    cost,
                },
            );
            self.used += cost;
            self.stats.insertions += 1;
        }
        self.memoize(raw.into(), canonical, stamp);
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
        let mut entries: Vec<(u64, CacheKey, Arc<str>)> = self
            .entries
            .iter()
            .map(|(k, e)| (e.stamp, k.clone(), Arc::clone(&e.response)))
            .collect();
        entries.sort_unstable_by(|a, b| (a.0, a.1.as_str()).cmp(&(b.0, b.1.as_str())));
        let mut memos: Vec<(u64, CacheKey, CacheKey)> = self
            .memo
            .iter()
            .map(|(k, m)| (m.stamp, k.clone(), m.canonical.clone()))
            .collect();
        memos.sort_unstable_by(|a, b| (a.0, a.1.as_str()).cmp(&(b.0, b.1.as_str())));
        (
            entries.into_iter().map(|(_, k, r)| (k, r)).collect(),
            memos.into_iter().map(|(_, k, c)| (k, c)).collect(),
        )
    }

    /// Re-inserts a snapshotted response under its canonical key with a
    /// fresh access stamp (restore path; no raw memo).
    pub fn restore_entry(&mut self, canonical: impl Into<CacheKey>, response: &Arc<str>) {
        if self.budget == 0 {
            return;
        }
        self.clock += 1;
        let stamp = self.clock;
        let canonical = canonical.into();
        let cost = canonical.len() + response.len() + ENTRY_OVERHEAD;
        if cost <= self.budget && !self.entries.contains_key(&canonical) {
            self.entries.insert(
                canonical,
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
    pub fn restore_memo(&mut self, raw: impl Into<CacheKey>, canonical: impl Into<CacheKey>) {
        if self.budget == 0 {
            return;
        }
        self.clock += 1;
        let stamp = self.clock;
        self.memoize(raw.into(), canonical.into(), stamp);
    }

    fn miss(&mut self) -> Option<Arc<str>> {
        self.stats.misses += 1;
        None
    }

    /// Memoizes `raw` → `canonical`. The memo shares the text of the
    /// cached entry's key, however `canonical` was spelled, but is charged
    /// both keys' bytes as if they were its own: the budget, and with it
    /// every eviction, stays what it was when each memo held copies.
    fn memoize(&mut self, raw: CacheKey, canonical: CacheKey, stamp: u64) {
        let cost = raw.len() + canonical.len() + ENTRY_OVERHEAD;
        if cost > self.budget || self.memo.contains_key(&raw) {
            return;
        }
        let canonical = match self.entries.get_key_value(&canonical) {
            Some((shared, _)) => shared.clone(),
            None => canonical,
        };
        self.memo.insert(
            raw,
            MemoEntry {
                canonical,
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

    fn remove_entry(&mut self, key: &CacheKey) {
        if let Some(e) = self.entries.remove(key) {
            self.used = self.used.saturating_sub(e.cost);
            self.stats.evictions += 1;
        }
    }

    fn remove_memo(&mut self, key: &CacheKey) {
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
///
/// Each list is written straight into the key in rank order, a name's
/// rank being its place among the names followed by the separator its
/// entries put after it: ops, procs, links and deps are sorted once by
/// the ranks of their names, exec and comm cells follow by nested loops
/// over those orders, and only runs of entries whose ranks tie are
/// sorted by their bytes (DESIGN.md §13).
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
        Some(t) => push_u64(&mut key, t.ticks()),
        None => key.push('-'),
    }

    let op_names: Vec<&str> = alg.ops().map(|o| alg.op(o).name()).collect();
    let proc_names: Vec<&str> = arch.procs().map(|p| arch.proc(p).name()).collect();
    let link_names: Vec<&str> = arch.links().map(|l| arch.link(l).name()).collect();
    let mut runs = TieRuns::default();

    key.push_str("|alg=");
    key.push_str(alg.name());
    key.push_str("|ops:");
    let op_slash = Ranked::new(&op_names, b'/');
    runs.append(&mut key, op_slash.entries(), |buf, op| {
        buf.push_str(op_names[op as usize]);
        buf.push('/');
        buf.push_str(alg.op(OpId(op)).kind().keyword());
    });

    key.push_str("|deps:");
    let src_gt = &Ranked::new(&op_names, b'>');
    let dst_hash = Ranked::new(&op_names, b'#');
    let deps = deps_by_rank(problem, src_gt, &dst_hash);
    runs.append(&mut key, deps, |buf, dep| {
        let (s, d) = alg.dep_endpoints(dep);
        buf.push_str(op_names[s.index()]);
        buf.push('>');
        buf.push_str(op_names[d.index()]);
        buf.push('#');
        push_f64_debug(buf, alg.dep(dep).size());
    });

    key.push_str("|arch=");
    key.push_str(arch.name());
    key.push_str("|procs:");
    // A bare name sorts before every name it prefixes: the end of the
    // entry acts as a separator below every byte.
    let proc_bare = Ranked::new(&proc_names, 0);
    runs.append(&mut key, proc_bare.entries(), |buf, proc| {
        buf.push_str(proc_names[proc as usize]);
    });

    key.push_str("|links:");
    let link_eq = &Ranked::new(&link_names, b'=');
    runs.append(&mut key, link_eq.entries(), |buf, link| {
        let l = arch.link(LinkId(link));
        let mut eps: Vec<_> = l.endpoints().iter().map(|p| arch.proc(*p).name()).collect();
        eps.sort_unstable();
        buf.push_str(l.name());
        buf.push('=');
        buf.push_str(&eps.join("+"));
    });

    // Each cell joins two labels, `op@` or `src>dst@` with `proc=` or
    // `link=`, written once here.
    let op_label = Labels::new(&op_names, |buf, op| {
        buf.push_str(op);
        buf.push('@');
    });
    let proc_label = Labels::new(&proc_names, |buf, proc| {
        buf.push_str(proc);
        buf.push('=');
    });
    let dep_ids: Vec<DepId> = alg.deps().collect();
    let dep_label = Labels::new(&dep_ids, |buf, &dep| {
        let (s, d) = alg.dep_endpoints(dep);
        buf.push_str(op_names[s.index()]);
        buf.push('>');
        buf.push_str(op_names[d.index()]);
        buf.push('@');
    });
    let link_label = Labels::new(&link_names, |buf, link| {
        buf.push_str(link);
        buf.push('=');
    });

    key.push_str("|exec:");
    let op_at = &Ranked::new(&op_names, b'@');
    let proc_eq = &Ranked::new(&proc_names, b'=');
    // Ops that tie on their rank are walked proc by proc, so the cells'
    // ranks still rise.
    let cells = op_at.groups().flat_map(move |ops| {
        proc_eq.order.iter().flat_map(move |&proc| {
            ops.iter().map(move |&op| {
                let rank = rank_of(&[(op_at, op), (proc_eq, proc)]);
                (rank, (op, proc))
            })
        })
    });
    runs.append(&mut key, cells, |buf, (op, proc)| {
        buf.push_str(op_label.get(op));
        buf.push_str(proc_label.get(proc));
        match problem.exec().get(OpId(op), ProcId(proc)) {
            Some(t) => push_u64(buf, t.ticks()),
            None => buf.push_str("inf"),
        }
    });

    key.push_str("|comm:");
    let deps = deps_by_rank(problem, src_gt, op_at);
    // Parallel deps tie on their ranks: each group of them is walked link
    // by link, so the cells' ranks still rise.
    let cells = deps.chunk_by(|a, b| a.0 == b.0).flat_map(move |group| {
        link_eq.order.iter().flat_map(move |&link| {
            group.iter().filter_map(move |&(_, dep)| {
                let t = problem.comm().get(dep, LinkId(link))?;
                let (s, d) = alg.dep_endpoints(dep);
                let rank = rank_of(&[(src_gt, s.0), (op_at, d.0), (link_eq, link)]);
                Some((rank, (dep, link, t)))
            })
        })
    });
    runs.append(&mut key, cells, |buf, (dep, link, t)| {
        buf.push_str(dep_label.get(dep.0));
        buf.push_str(link_label.get(link));
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

/// Appends `v` as `{:?}` formats it. Whole numbers below 2^53 print as
/// their digits and `.0`; this writes those directly, since dep sizes
/// are usually whole.
fn push_f64_debug(buf: &mut String, v: f64) {
    if v.fract() == 0.0 && (1.0..9_007_199_254_740_992.0).contains(&v) {
        push_u64(buf, v as u64);
        buf.push_str(".0");
    } else {
        let _ = write!(buf, "{v:?}");
    }
}

/// Short strings, one per item, in one buffer.
struct Labels {
    text: String,
    /// End of each item's string in `text`.
    ends: Vec<usize>,
}

impl Labels {
    fn new<T>(items: &[T], mut write: impl FnMut(&mut String, &T)) -> Labels {
        let mut labels = Labels {
            text: String::new(),
            ends: Vec::with_capacity(items.len()),
        };
        for item in items {
            write(&mut labels.text, item);
            labels.ends.push(labels.text.len());
        }
        labels
    }

    fn get(&self, i: u32) -> &str {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

/// The rank of a list entry: the ranks of its leading names, each plus
/// one, then zeros. Rank order must agree with the entries' byte order
/// wherever two ranks differ; entries with equal ranks form a tie run,
/// which only their bytes can order.
type Rank = [u32; 3];

/// A list of names sorted by the byte order of each name followed by
/// `sep`, the way each name leads its entries `name{sep}…`.
///
/// That order is the entries' byte order only if no name contains `sep`
/// (else `A` + `@` could be a prefix of name `A@B`). Then every name gets
/// a rank, equal names sharing one; otherwise none does, and the whole
/// list is one tie run.
struct Ranked {
    /// Name indices in rank order.
    order: Vec<u32>,
    /// Rank of each name by index, when the order is the byte order.
    ranks: Option<Vec<u32>>,
}

impl Ranked {
    fn new(names: &[&str], sep: u8) -> Ranked {
        // Past the common length, the shorter name continues with `sep`.
        let cmp = |a: &[u8], b: &[u8]| {
            let n = a.len().min(b.len());
            a[..n].cmp(&b[..n]).then_with(|| {
                let next = |s: &[u8]| s.get(n).copied().unwrap_or(sep);
                next(a).cmp(&next(b))
            })
        };
        // The first eight bytes of `name{sep}`, zero-padded, order the
        // names as `cmp` does; only names that share them need `cmp`.
        let head = |name: &[u8]| {
            let mut bytes = [0u8; 8];
            let n = name.len().min(8);
            bytes[..n].copy_from_slice(&name[..n]);
            if n < 8 {
                bytes[n] = sep;
            }
            u64::from_be_bytes(bytes)
        };
        let mut keyed: Vec<(u64, u32)> = (0..names.len() as u32)
            .map(|i| (head(names[i as usize].as_bytes()), i))
            .collect();
        keyed.sort_unstable_by(|&(ha, a), &(hb, b)| {
            ha.cmp(&hb)
                .then_with(|| cmp(names[a as usize].as_bytes(), names[b as usize].as_bytes()))
        });
        let order: Vec<u32> = keyed.into_iter().map(|(_, i)| i).collect();
        if names.iter().any(|n| n.as_bytes().contains(&sep)) {
            return Ranked { order, ranks: None };
        }
        let mut ranks = vec![0; names.len()];
        let mut rank = 0;
        for pair in order.windows(2) {
            if names[pair[0] as usize] != names[pair[1] as usize] {
                rank += 1;
            }
            ranks[pair[1] as usize] = rank;
        }
        Ranked {
            order,
            ranks: Some(ranks),
        }
    }

    /// The names in rank order, as the single-name entries they lead.
    fn entries(&self) -> impl Iterator<Item = (Rank, u32)> + '_ {
        self.order.iter().map(|&i| (rank_of(&[(self, i)]), i))
    }

    /// The order cut into runs of equal rank (one run without ranks).
    fn groups(&self) -> impl Iterator<Item = &[u32]> {
        let ranks = self.ranks.as_deref();
        self.order
            .chunk_by(move |&a, &b| ranks.is_none_or(|r| r[a as usize] == r[b as usize]))
    }
}

/// The [`Rank`] of an entry led by the given `(names, index)`, in order. A
/// name without ranks ends the rank there: the names after it decide
/// nothing until it is known to be equal, which only the bytes can tell.
fn rank_of(names: &[(&Ranked, u32)]) -> Rank {
    let mut rank = Rank::default();
    for (slot, (names, i)) in rank.iter_mut().zip(names) {
        match &names.ranks {
            Some(r) => *slot = r[*i as usize] + 1,
            None => break,
        }
    }
    rank
}

/// The deps with their [`Rank`]s by source and destination name, sorted
/// by rank; parallel deps are adjacent.
fn deps_by_rank(problem: &Problem, src: &Ranked, dst: &Ranked) -> Vec<(Rank, DepId)> {
    let alg = problem.alg();
    let mut deps: Vec<(Rank, DepId)> = alg
        .deps()
        .map(|dep| {
            let (s, d) = alg.dep_endpoints(dep);
            (rank_of(&[(src, s.0), (dst, d.0)]), dep)
        })
        .collect();
    deps.sort_unstable_by_key(|&(rank, _)| rank);
    deps
}

/// Scratch space for the tie runs of [`canonical_key`]'s lists, shared by
/// all of them.
#[derive(Default)]
struct TieRuns {
    /// Spans of the current run's entries in the key.
    spans: Vec<Range<usize>>,
    /// A copy of the run while it is rewritten in byte order.
    text: String,
}

impl TieRuns {
    /// Appends the entries `write` renders to `key`, comma-separated. They
    /// arrive in rank order, and each run of equal ranks is put into byte
    /// order when it ends, so the list reads as the entries' strings
    /// sorted and joined.
    fn append<T>(
        &mut self,
        key: &mut String,
        entries: impl IntoIterator<Item = (Rank, T)>,
        mut write: impl FnMut(&mut String, T),
    ) {
        let mut run = None;
        for (i, (rank, entry)) in entries.into_iter().enumerate() {
            if run != Some(rank) {
                self.sort_run(key);
                run = Some(rank);
            }
            if i > 0 {
                key.push(',');
            }
            let start = key.len();
            write(key, entry);
            self.spans.push(start..key.len());
        }
        self.sort_run(key);
    }

    /// Rewrites the run that ends `key` in byte order.
    fn sort_run(&mut self, key: &mut String) {
        if self.spans.len() > 1 {
            let from = self.spans[0].start;
            self.text.clear();
            self.text.push_str(&key[from..]);
            let text = &self.text;
            let entry = |span: &Range<usize>| &text[span.start - from..span.end - from];
            self.spans.sort_unstable_by(|a, b| entry(a).cmp(entry(b)));
            key.truncate(from);
            for (i, span) in self.spans.iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                key.push_str(entry(span));
            }
        }
        self.spans.clear();
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
            c.insert(format!("raw-{i}"), format!("canon-{i}"), &resp);
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
            c.insert(format!("raw-{i}"), format!("canon-{i}"), &resp);
        }
        // Touch an old entry so export order differs from insert order.
        assert!(c.get_raw("raw-0").is_some());
        let (entries, memos) = c.export();
        assert_eq!(entries.len(), 4);
        assert_eq!(memos.len(), 4);
        assert_eq!(
            entries.last().unwrap().0.as_str(),
            "canon-0",
            "freshest last"
        );

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
                restored.get_raw(format!("raw-{i}")).as_deref(),
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

    #[test]
    fn keys_with_equal_hashes_stay_distinct() {
        let (a, b) = (
            CacheKey::with_hash("canon-a", 7),
            CacheKey::with_hash("canon-b", 7),
        );
        assert_ne!(a, b);
        let (raw_a, raw_b) = (
            CacheKey::with_hash("raw-a", 9),
            CacheKey::with_hash("raw-b", 9),
        );
        let mut c = ResponseCache::new(64 * 1024);
        c.insert(&raw_a, &a, &arc("response-a"));
        c.insert(&raw_b, &b, &arc("response-b"));
        assert_eq!((c.len(), c.memo_len()), (2, 2));
        assert_eq!(c.get_raw(&raw_a).as_deref(), Some("response-a"));
        assert_eq!(c.get_raw(&raw_b).as_deref(), Some("response-b"));
        let raw_c = CacheKey::with_hash("raw-c", 9);
        assert_eq!(c.get_canonical(&raw_c, &b).as_deref(), Some("response-b"));
        assert_eq!(c.get_raw(&raw_c).as_deref(), Some("response-b"));
    }

    #[test]
    fn memos_share_their_entry_key() {
        let shared = |c: &ResponseCache| {
            let (entries, memos) = c.export();
            memos.iter().all(|(_, canonical)| {
                entries
                    .iter()
                    .any(|(key, _)| Arc::ptr_eq(&key.text, &canonical.text))
            })
        };
        let mut c = ResponseCache::new(64 * 1024);
        c.insert("raw-a", "canon", &arc("response"));
        // A second spelling of the same key, as a reordered spec makes.
        c.insert("raw-b", String::from("canon"), &arc("response"));
        assert_eq!((c.len(), c.memo_len()), (1, 2));
        assert!(shared(&c));
        let (entries, memos) = c.export();
        let mut restored = ResponseCache::new(64 * 1024);
        for (canonical, body) in &entries {
            restored.restore_entry(canonical.as_str(), body);
        }
        for (raw, canonical) in &memos {
            restored.restore_memo(raw.as_str(), canonical.as_str());
        }
        assert_eq!((restored.len(), restored.memo_len()), (1, 2));
        assert!(shared(&restored));
        assert_eq!(restored.used_bytes(), c.used_bytes());
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

    /// A problem drawn from `seed`: ranked (separator-free) names that
    /// prefix each other, parallel deps with distinct sizes, and comm
    /// cells of 9, 10 and 100 ticks, so parallel deps tie on every rank
    /// and only their text orders them. Three seeds in four replace one
    /// op, proc or link name with one that contains its separator.
    fn tie_run_problem(seed: u64) -> Problem {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut pick = |pool: &[&'static str], n: usize| {
            let mut pool = pool.to_vec();
            (0..n)
                .map(|_| pool.swap_remove(next(pool.len())).to_owned())
                .collect::<Vec<_>>()
        };
        let mut ops = pick(
            &["A", "A1", "A10", "A_", "B", "Ba", "a", "T1", "T10", "T2"],
            6,
        );
        let mut procs = pick(&["P", "P1", "P10", "P_", "Q", "p"], 4);
        let mut links = pick(&["L", "L1", "L10", "L_", "M"], 4);
        match seed % 4 {
            1 => ops[2] = ["A@B", "A>x", "A#1", "A/c"][(seed / 4 % 4) as usize].to_owned(),
            2 => procs[1] = "P=1".to_owned(),
            3 => links[0] = "L=x".to_owned(),
            _ => {}
        }
        let mut b = ftbar_model::Alg::builder("ties");
        let ids: Vec<OpId> = ops.iter().map(|n| b.comp(n.as_str())).collect();
        for (i, &src) in ids.iter().enumerate() {
            for &dst in &ids[i + 1..] {
                match next(4) {
                    0 => {
                        b.dep(src, dst);
                    }
                    1 => {
                        b.dep_sized(src, dst, 2.0);
                        b.dep_sized(src, dst, 10.0);
                        b.dep_sized(src, dst, 1.5);
                    }
                    _ => {}
                }
            }
        }
        let alg = b.build().unwrap();
        let mut b = ftbar_model::Arch::builder("m");
        let pids: Vec<ProcId> = procs.iter().map(|n| b.proc(n.as_str())).collect();
        b.link(links[0].as_str(), &pids[..2]);
        b.link(links[1].as_str(), &pids[1..3]);
        b.link(links[2].as_str(), &pids[2..]);
        b.link(links[3].as_str(), &[pids[0], pids[3]]);
        let arch = b.build().unwrap();
        let mut exec = ftbar_model::ExecTable::new(alg.op_count(), arch.proc_count());
        for op in alg.ops() {
            for proc in arch.procs().skip(next(2)) {
                exec.set(
                    op,
                    proc,
                    ftbar_model::Time::from_ticks([9, 10, 100, 1][next(4)]),
                );
            }
        }
        let mut comm = ftbar_model::CommTable::new(alg.dep_count(), arch.link_count());
        for link in arch.links() {
            // Consecutive deps, so every parallel triple, get distinct values.
            let shift = next(3);
            for (i, dep) in alg.deps().enumerate() {
                comm.set(
                    dep,
                    link,
                    ftbar_model::Time::from_ticks([9, 10, 100][(i + shift) % 3]),
                );
            }
        }
        Problem::builder(alg, arch, exec, comm).build().unwrap()
    }

    #[test]
    fn key_matches_its_definition_on_seeded_tie_runs() {
        for seed in 0..64 {
            let p = tie_run_problem(seed);
            let key = canonical_key(&p, SchedulerKind::Ftbar, "adaptive", false);
            assert_eq!(key, reference_key(&p), "seed {seed}");
        }
    }

    #[test]
    fn dep_sizes_are_written_as_debug_formats_them() {
        let sizes = [
            1.0,
            2.0,
            10.0,
            1.5,
            0.1,
            1e-5,
            123_456_789.0,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e15,
            1e16,
            3.0e-300,
            f64::MAX,
            0.1 + 0.2,
        ];
        for v in sizes {
            let mut buf = String::new();
            push_f64_debug(&mut buf, v);
            assert_eq!(buf, format!("{v:?}"));
        }
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
