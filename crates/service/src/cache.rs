//! Sharded, byte-budgeted LRU cache for rendered partition responses,
//! with optional per-entry TTL and an append-on-ack journal.
//!
//! Keys are the canonical request bytes themselves (objective, bound,
//! weights — see [`KeyBuilder`]); values are the rendered JSON response
//! bodies, which are immutable once computed, so a hit can be served
//! without re-running any solver.
//!
//! A 64-bit FNV-1a digest of the key picks the shard and the bucket
//! within the shard, but it is *never* trusted for equality: FNV-1a is
//! not collision-resistant, and the service handles untrusted input, so
//! every lookup compares the full canonical key bytes before serving a
//! hit. Two distinct requests that happen to share a digest simply land
//! in the same bucket and coexist.
//!
//! Sharding bounds lock contention: each shard owns `budget / shards`
//! bytes behind its own mutex, and eviction is strict LRU per shard via
//! an intrusive doubly-linked list over a slab (indices, not pointers —
//! the crate forbids `unsafe`).
//!
//! # Byte budget and admission
//!
//! The cache budgets *bytes*, not entry counts: each entry is charged
//! its key length plus value length plus a fixed bookkeeping overhead,
//! and a shard evicts from its LRU tail until a new entry fits. An
//! admission guard rejects entries larger than
//! [`CacheConfig::max_entry_bytes`] outright — one giant response must
//! not flush a shard — unless the solver's cost estimate marks the
//! response as expensive to recompute, in which case the limit is
//! relaxed fourfold (evicting many cheap entries to keep one costly
//! result is a good trade).
//!
//! # Persistence
//!
//! [`ResultCache::attach_journal`] keeps `--cache-file` in the journal
//! format the session store uses ([`tgp_session::journal`]), under the
//! cache's own magic `TGPCJRNL`. Every admitted insert appends one
//! record, so `kill -9` loses at most a torn tail; boot replays the
//! longest intact prefix, and a grown log is compacted back to a
//! snapshot of the live entries, LRU→MRU (periodically, and on
//! graceful shutdown). Each record payload is one binary entry:
//!
//! ```text
//! key_len u64 LE | cost u64 LE | ttl_remaining_ms u64 LE | key | value
//! ```
//!
//! The journal is a log of inserts: replay applies them in order
//! through the normal admission path, so a later insert under the same
//! key wins, exactly as it did live. Cached values are pure functions
//! of their canonical keys, so replaying an insert whose TTL elapsed
//! since the append can only re-serve a still-correct response; TTL
//! here is a freshness/memory policy, not a correctness guard.
//!
//! A file that is not a cache journal — another magic (including the
//! retired `TGPCACHE` dump format), a future version — is rejected with
//! an error and left untouched; the cache then runs memory-only.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tgp_session::journal::{self, fnv1a, Journal};

/// Default number of independently locked shards (power of two).
/// Multi-loop servers raise it via [`CacheConfig::shards`] so each
/// event loop's workers rarely contend on the same shard mutex.
const SHARDS: usize = 8;

/// Upper bound on [`CacheConfig::shards`]: past this, per-shard budgets
/// get too small to admit normal entries.
const MAX_SHARDS: usize = 256;

const NIL: usize = usize::MAX;

/// Fixed per-entry byte charge covering slab, index and list
/// bookkeeping, so a flood of tiny entries cannot evade the budget.
const ENTRY_OVERHEAD: usize = 96;

/// Cost-estimate threshold (in solver work units) above which a
/// response counts as expensive to recompute and earns the relaxed
/// admission limit.
const COSTLY_WORK_UNITS: u64 = 1_000_000;

/// Expiry sentinel: an entry with this deadline never expires.
const NO_EXPIRY: u64 = u64::MAX;

/// Magic of the `--cache-file` journal.
const JOURNAL_MAGIC: &[u8; 8] = b"TGPCJRNL";
/// Entry payload prefix: key_len + cost + ttl_remaining.
const ENTRY_PREFIX: usize = 24;

/// One cache entry decoded from a journal record.
struct EntryRecord {
    key: Vec<u8>,
    value: String,
    cost: u64,
    ttl_remaining_ms: u64,
}

/// Encodes one entry as a journal record payload.
fn encode_entry(key: &[u8], value: &str, cost: u64, ttl_remaining_ms: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(ENTRY_PREFIX + key.len() + value.len());
    payload.extend_from_slice(&(key.len() as u64).to_le_bytes());
    payload.extend_from_slice(&cost.to_le_bytes());
    payload.extend_from_slice(&ttl_remaining_ms.to_le_bytes());
    payload.extend_from_slice(key);
    payload.extend_from_slice(value.as_bytes());
    payload
}

/// Decodes a journal record payload. `None` for a structurally invalid
/// payload (possible only if a checksum collision let corruption
/// through), which ends the replay like any other corrupt record.
fn decode_entry(payload: &[u8]) -> Option<EntryRecord> {
    if payload.len() < ENTRY_PREFIX {
        return None;
    }
    let key_len = u64::from_le_bytes(payload[0..8].try_into().ok()?) as usize;
    let cost = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let ttl_remaining_ms = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let body = &payload[ENTRY_PREFIX..];
    if key_len > body.len() {
        return None;
    }
    let value = std::str::from_utf8(&body[key_len..]).ok()?.to_string();
    Some(EntryRecord {
        key: body[..key_len].to_vec(),
        value,
        cost,
        ttl_remaining_ms,
    })
}

// The canonical key builder moved to `tgp-solvers` (requests build
// their own keys via `Request::canonical_key`); re-exported here so
// existing embedders keep compiling.
pub use tgp_solvers::KeyBuilder;

/// Sizing and lifetime policy for a [`ResultCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total byte budget across all shards. `0` disables caching.
    pub budget_bytes: usize,
    /// Entries older than this are served as misses. `None` means
    /// entries live until evicted.
    pub ttl: Option<Duration>,
    /// Admission limit: entries larger than this are rejected instead
    /// of cached (relaxed 4× for responses that were expensive to
    /// compute). Clamped to the per-shard budget so an admitted entry
    /// always fits.
    pub max_entry_bytes: usize,
    /// Number of independently locked shards. Rounded up to a power of
    /// two and clamped to `[1, 256]`. The default (8) suits a
    /// single-loop server; the sharded runtime scales this with the
    /// loop count so concurrent loops' workers land on distinct shard
    /// mutexes for all but genuinely colliding keys.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::with_budget(32 << 20)
    }
}

impl CacheConfig {
    /// A config with the given byte budget, no TTL, and the default
    /// admission limit of 1/64 of the budget (at least 4 KiB).
    pub fn with_budget(budget_bytes: usize) -> Self {
        CacheConfig {
            budget_bytes,
            ttl: None,
            max_entry_bytes: (budget_bytes / 64).max(4096),
            shards: SHARDS,
        }
    }

    /// Returns the config with its shard count raised to cover `loops`
    /// event loops (8 shards per loop, power-of-two, never lowered).
    pub fn scaled_for_loops(mut self, loops: usize) -> Self {
        self.shards = self.shards.max(loops.max(1) * SHARDS);
        self
    }
}

#[derive(Debug)]
struct Entry {
    hash: u64,
    key: Box<[u8]>,
    value: String,
    /// Solver work-unit estimate, journaled so re-admission on replay
    /// applies the same policy.
    cost: u64,
    /// Milliseconds on the cache clock; [`NO_EXPIRY`] means never.
    expires_at_ms: u64,
    prev: usize,
    next: usize,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.key.len() + self.value.len() + ENTRY_OVERHEAD
    }
}

fn entry_bytes(key: &[u8], value: &str) -> usize {
    key.len() + value.len() + ENTRY_OVERHEAD
}

enum Lookup {
    Hit(String),
    Expired,
    Miss,
}

/// One shard: a slab of entries threaded into an LRU list plus a
/// hash-bucket index. Buckets hold every slot whose key shares the
/// digest; equality is decided by comparing the stored key bytes.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Entry>,
    free: Vec<usize>,
    index: HashMap<u64, Vec<usize>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// The slot holding exactly `key`, if cached.
    fn lookup(&self, hash: u64, key: &[u8]) -> Option<usize> {
        self.index
            .get(&hash)?
            .iter()
            .copied()
            .find(|&i| *self.slots[i].key == *key)
    }

    fn remove_from_index(&mut self, i: usize) {
        let hash = self.slots[i].hash;
        let bucket = self.index.get_mut(&hash).expect("indexed entry");
        bucket.retain(|&j| j != i);
        if bucket.is_empty() {
            self.index.remove(&hash);
        }
    }

    /// Unlinks, unindexes, and frees slot `i`, releasing its bytes.
    fn remove(&mut self, i: usize) {
        self.unlink(i);
        self.remove_from_index(i);
        self.bytes -= self.slots[i].bytes();
        self.slots[i].key = Box::default();
        self.slots[i].value = String::new();
        self.free.push(i);
    }

    fn get(&mut self, hash: u64, key: &[u8], now_ms: u64) -> Lookup {
        let Some(i) = self.lookup(hash, key) else {
            return Lookup::Miss;
        };
        if now_ms >= self.slots[i].expires_at_ms {
            self.remove(i);
            return Lookup::Expired;
        }
        self.unlink(i);
        self.push_front(i);
        Lookup::Hit(self.slots[i].value.clone())
    }

    /// Inserts (or replaces) an entry, evicting from the LRU tail until
    /// the shard fits its byte budget. The caller has already verified
    /// the entry alone fits `budget`, so this always converges with the
    /// new entry resident. Returns the number of evictions.
    fn insert(
        &mut self,
        hash: u64,
        key: &[u8],
        value: String,
        cost: u64,
        expires_at_ms: u64,
        budget: usize,
    ) -> u64 {
        let mut evicted = 0;
        if let Some(i) = self.lookup(hash, key) {
            self.bytes -= self.slots[i].bytes();
            self.slots[i].value = value;
            self.slots[i].cost = cost;
            self.slots[i].expires_at_ms = expires_at_ms;
            self.bytes += self.slots[i].bytes();
            self.unlink(i);
            self.push_front(i);
            // A larger replacement can push the shard over budget.
            while self.bytes > budget && self.tail != i {
                self.remove(self.tail);
                evicted += 1;
            }
            return evicted;
        }
        let entry = Entry {
            hash,
            key: key.into(),
            value,
            cost,
            expires_at_ms,
            prev: NIL,
            next: NIL,
        };
        let add = entry.bytes();
        while self.bytes + add > budget && self.tail != NIL {
            self.remove(self.tail);
            evicted += 1;
        }
        self.bytes += add;
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = entry;
                i
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.index.entry(hash).or_default().push(i);
        self.push_front(i);
        evicted
    }
}

/// The sharded, byte-budgeted LRU cache.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_budget: usize,
    max_entry_bytes: usize,
    budget_bytes: usize,
    /// Default TTL in ms applied by [`ResultCache::insert`];
    /// [`NO_EXPIRY`] when the config sets no TTL.
    default_ttl_ms: u64,
    /// All entry deadlines are measured on this clock (ms since cache
    /// creation), so wall-clock jumps cannot mass-expire the cache.
    epoch: Instant,
    /// Test-only clock skew; stays 0 in production.
    skew_ms: AtomicU64,
    /// Bumped on every mutation (insert or expiry).
    generation: AtomicU64,
    evicted: AtomicU64,
    rejected_oversize: AtomicU64,
    expired: AtomicU64,
    warm_loaded: AtomicU64,
    /// Insert log attached by [`ResultCache::attach_journal`]; `None`
    /// runs memory-only. Dropped (with a log line) on the first append
    /// failure, so a full disk degrades persistence, not serving.
    journal: Mutex<Option<Journal>>,
}

/// What [`ResultCache::attach_journal`] found at the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttachReport {
    /// Entries admitted from the replay.
    pub admitted: usize,
    /// Whether a torn/corrupt tail was trimmed.
    pub truncated: bool,
}

impl ResultCache {
    /// Creates a cache with the given sizing and lifetime policy.
    /// A zero byte budget disables caching (every lookup misses).
    pub fn new(config: CacheConfig) -> Self {
        let shard_count = config
            .shards
            .clamp(1, MAX_SHARDS)
            .next_power_of_two()
            .min(MAX_SHARDS);
        let per_shard_budget = config.budget_bytes.div_ceil(shard_count);
        ResultCache {
            shards: (0..shard_count).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_budget,
            max_entry_bytes: config.max_entry_bytes.min(per_shard_budget),
            budget_bytes: config.budget_bytes,
            default_ttl_ms: config.ttl.map_or(NO_EXPIRY, |ttl| {
                u64::try_from(ttl.as_millis()).unwrap_or(NO_EXPIRY)
            }),
            epoch: Instant::now(),
            skew_ms: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            rejected_oversize: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            warm_loaded: AtomicU64::new(0),
            journal: Mutex::new(None),
        }
    }

    /// Convenience constructor: byte budget only, defaults elsewhere.
    pub fn with_budget(budget_bytes: usize) -> Self {
        ResultCache::new(CacheConfig::with_budget(budget_bytes))
    }

    fn shard_index(&self, key_hash: u64) -> usize {
        let n = self.shards.len();
        if n == 1 {
            return 0;
        }
        // Top log2(n) bits pick the shard; the full hash buckets within
        // it. (For the default 8 shards this is the historical `>> 61`.)
        (key_hash >> (64 - n.trailing_zeros())) as usize & (n - 1)
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX - 1)
            + self.skew_ms.load(Ordering::Relaxed)
    }

    /// Moves the cache clock forward without sleeping, for
    /// deterministic TTL tests.
    #[cfg(test)]
    fn advance(&self, by: Duration) {
        self.skew_ms
            .fetch_add(u64::try_from(by.as_millis()).unwrap(), Ordering::Relaxed);
    }

    fn deadline(&self, ttl_ms: u64) -> u64 {
        if ttl_ms == NO_EXPIRY {
            NO_EXPIRY
        } else {
            self.now_ms().saturating_add(ttl_ms)
        }
    }

    /// Looks up a rendered response, refreshing its recency on hit.
    /// An expired entry is removed and reported as a miss.
    pub fn get(&self, key: &[u8]) -> Option<String> {
        if self.per_shard_budget == 0 {
            return None;
        }
        let now_ms = self.now_ms();
        let hash = fnv1a(key);
        let outcome = self.shards[self.shard_index(hash)]
            .lock()
            .expect("cache shard poisoned")
            .get(hash, key, now_ms);
        match outcome {
            Lookup::Hit(value) => Some(value),
            Lookup::Expired => {
                self.expired.fetch_add(1, Ordering::Relaxed);
                self.generation.fetch_add(1, Ordering::Relaxed);
                None
            }
            Lookup::Miss => None,
        }
    }

    /// Whether [`ResultCache::insert`] could admit any entry with a
    /// `key_len`-byte key at solver cost `cost`: the admission guard's
    /// own check with an empty value. When it is `false`, no entry
    /// under such a key can be in the cache, so a caller may skip
    /// [`ResultCache::get`] (and hashing the key) outright.
    pub fn admits(&self, key_len: usize, cost: u64) -> bool {
        self.per_shard_budget != 0 && key_len.saturating_add(ENTRY_OVERHEAD) <= self.allowance(cost)
    }

    /// Counts a refused insert that was never offered: a caller told by
    /// [`ResultCache::admits`] that no entry under its key can be held
    /// skips building the key, and reports here the oversize rejection
    /// [`ResultCache::insert`] would have counted.
    pub fn note_refused(&self) {
        if self.per_shard_budget != 0 {
            self.rejected_oversize.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The largest entry the admission guard accepts at solver cost
    /// `cost`: relaxed fourfold for responses that are costly to
    /// recompute, and never beyond one shard's budget.
    fn allowance(&self, cost: u64) -> usize {
        let allowance = if cost >= COSTLY_WORK_UNITS {
            self.max_entry_bytes.saturating_mul(4)
        } else {
            self.max_entry_bytes
        };
        allowance.min(self.per_shard_budget)
    }

    /// Stores a rendered response under the configured TTL. `cost` is
    /// the solver's work estimate for recomputing the response; pass
    /// `0` when unknown (strictest admission). Returns whether the
    /// entry was admitted.
    pub fn insert(&self, key: &[u8], value: String, cost: u64) -> bool {
        self.insert_inner(key, value, cost, self.deadline(self.default_ttl_ms), true)
    }

    fn insert_inner(
        &self,
        key: &[u8],
        value: String,
        cost: u64,
        expires_at_ms: u64,
        journal: bool,
    ) -> bool {
        if self.per_shard_budget == 0 {
            return false;
        }
        if entry_bytes(key, &value) > self.allowance(cost) {
            self.rejected_oversize.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let hash = fnv1a(key);
        // The record is built before the value moves into the shard;
        // the append itself happens after the insert is in memory
        // (append-on-ack), outside the shard lock. Skipped entirely
        // when no journal is attached.
        let journal = journal
            && self
                .journal
                .lock()
                .expect("cache journal poisoned")
                .is_some();
        let record = if journal {
            let ttl_remaining = if expires_at_ms == NO_EXPIRY {
                NO_EXPIRY
            } else {
                expires_at_ms.saturating_sub(self.now_ms())
            };
            Some(encode_entry(key, &value, cost, ttl_remaining))
        } else {
            None
        };
        let evicted = self.shards[self.shard_index(hash)]
            .lock()
            .expect("cache shard poisoned")
            .insert(hash, key, value, cost, expires_at_ms, self.per_shard_budget);
        self.evicted.fetch_add(evicted, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Relaxed);
        if let Some(record) = record {
            self.journal_append(&record);
        }
        true
    }

    /// Appends one record to the attached journal, detaching it (with
    /// a log line) on the first IO failure so a full disk degrades
    /// persistence rather than request serving.
    fn journal_append(&self, record: &[u8]) {
        let mut guard = self.journal.lock().expect("cache journal poisoned");
        if let Some(journal) = guard.as_mut() {
            if let Err(e) = journal.append(record) {
                eprintln!("tgp-serve cache journal append failed: {e} (persistence disabled)");
                *guard = None;
            }
        }
    }

    /// Attaches the append-on-ack journal at `path`, replaying whatever
    /// is already there through the normal admission path first:
    ///
    /// * missing file — a fresh journal is created;
    /// * an existing journal — the longest intact prefix is replayed
    ///   (any torn tail from an abrupt kill is trimmed) and appends
    ///   resume after it.
    ///
    /// Any other file — foreign magic (a retired `TGPCACHE` dump
    /// included), future version — is an error and is left untouched;
    /// the caller should boot cold and memory-only rather than destroy
    /// whatever the operator pointed us at.
    pub fn attach_journal(&self, path: &Path) -> Result<AttachReport, String> {
        if self.per_shard_budget == 0 {
            return Err("cache budget is zero; nothing to persist".into());
        }
        let replay = journal::read(path, JOURNAL_MAGIC, decode_entry)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(replay) = replay else {
            let journal = Journal::create(path, JOURNAL_MAGIC)
                .map_err(|e| format!("create {}: {e}", path.display()))?;
            *self.journal.lock().expect("cache journal poisoned") = Some(journal);
            return Ok(AttachReport {
                admitted: 0,
                truncated: false,
            });
        };
        let mut admitted = 0usize;
        for rec in replay.records {
            let deadline = self.deadline(rec.ttl_remaining_ms);
            if self.insert_inner(&rec.key, rec.value, rec.cost, deadline, false) {
                admitted += 1;
            }
        }
        self.warm_loaded
            .fetch_add(admitted as u64, Ordering::Relaxed);
        let journal = Journal::open_for_append(path, JOURNAL_MAGIC, replay.keep_len)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        *self.journal.lock().expect("cache journal poisoned") = Some(journal);
        Ok(AttachReport {
            admitted,
            truncated: replay.truncated,
        })
    }

    /// Journal payloads for every live (unexpired) entry, walking each
    /// shard LRU→MRU so replay restores recency, with remaining TTLs.
    fn snapshot_records(&self) -> Vec<Vec<u8>> {
        let now_ms = self.now_ms();
        let mut records = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            let mut i = shard.tail;
            while i != NIL {
                let e = &shard.slots[i];
                if now_ms < e.expires_at_ms {
                    let ttl_remaining = if e.expires_at_ms == NO_EXPIRY {
                        NO_EXPIRY
                    } else {
                        e.expires_at_ms - now_ms
                    };
                    records.push(encode_entry(&e.key, &e.value, e.cost, ttl_remaining));
                }
                i = shard.slots[i].prev;
            }
        }
        records
    }

    /// Compacts the attached journal to a snapshot of the live entries
    /// (temp sibling + atomic rename). No-op without a journal. The
    /// journal lock is held across the snapshot, so an insert that
    /// already made it into the journal is also in the snapshot — the
    /// rewrite never loses an acknowledged record.
    pub fn compact_journal(&self) -> std::io::Result<()> {
        let mut guard = self.journal.lock().expect("cache journal poisoned");
        let Some(journal) = guard.as_mut() else {
            return Ok(());
        };
        let records = self.snapshot_records();
        if let Err(e) = journal.rewrite(&records) {
            eprintln!("tgp-serve cache journal compaction failed: {e} (persistence disabled)");
            *guard = None;
            return Err(e);
        }
        Ok(())
    }

    /// Whether the journal has grown enough past the live data to be
    /// worth compacting (over twice the live bytes, plus slack so tiny
    /// caches don't compact on every insert).
    pub fn should_compact(&self) -> bool {
        match self.journal_len() {
            Some(len) => len > 2 * self.bytes_used() as u64 + (64 << 10),
            None => false,
        }
    }

    /// Bytes in the attached journal, or `None` when running
    /// memory-only.
    pub fn journal_len(&self) -> Option<u64> {
        self.journal
            .lock()
            .expect("cache journal poisoned")
            .as_ref()
            .map(Journal::size)
    }

    /// Number of cached entries across all shards (including entries
    /// that have expired but not yet been touched).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget, across all shards.
    pub fn bytes_used(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }

    /// The configured total byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Mutation counter: bumped by every insert and expiry.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Appends the cache's Prometheus metrics to `out`.
    pub fn render_metrics(&self, out: &mut String) {
        use std::fmt::Write as _;
        let gauges = [
            (
                "tgp_cache_entries",
                "Live cache entries.",
                self.len() as u64,
            ),
            (
                "tgp_cache_bytes_used",
                "Bytes charged against the cache budget.",
                self.bytes_used() as u64,
            ),
            (
                "tgp_cache_bytes_budget",
                "Configured cache byte budget.",
                self.budget_bytes as u64,
            ),
            (
                "tgp_cache_journal_bytes",
                "Bytes in the attached cache journal (0 when memory-only).",
                self.journal_len().unwrap_or(0),
            ),
        ];
        for (name, help, value) in gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        let counters = [
            (
                "tgp_cache_evicted_total",
                "Entries evicted to fit the byte budget.",
                self.evicted.load(Ordering::Relaxed),
            ),
            (
                "tgp_cache_rejected_oversize_total",
                "Entries refused by the admission guard.",
                self.rejected_oversize.load(Ordering::Relaxed),
            ),
            (
                "tgp_cache_expired_total",
                "Entries dropped because their TTL elapsed.",
                self.expired.load(Ordering::Relaxed),
            ),
            (
                "tgp_cache_warm_loaded_total",
                "Entries admitted from a cache file at boot.",
                self.warm_loaded.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, value) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Budget sized so each shard fits `per_shard` minimal entries of
    /// key "kNN" + value "vNN"-ish (~`ENTRY_OVERHEAD + 8` bytes each).
    fn small_entry_budget(per_shard: usize) -> usize {
        SHARDS * per_shard * (ENTRY_OVERHEAD + 8)
    }

    /// Keys (as strings) that all land in one shard, for deterministic
    /// LRU ordering tests.
    fn colliding_keys(n: usize) -> Vec<Vec<u8>> {
        // Shard routing depends only on the shard count; any
        // default-config cache reproduces the routing under test.
        let router = ResultCache::with_budget(1);
        let target = router.shard_index(fnv1a(b"k0"));
        let mut keys = Vec::new();
        for i in 0u32.. {
            let key = format!("k{i}").into_bytes();
            if router.shard_index(fnv1a(&key)) == target {
                keys.push(key);
                if keys.len() == n {
                    return keys;
                }
            }
        }
        unreachable!()
    }

    #[test]
    fn tagged_u64s_do_not_concatenate() {
        let mut a = KeyBuilder::default();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = KeyBuilder::default();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = ResultCache::with_budget(1 << 20);
        assert!(cache.get(b"k42").is_none());
        assert!(cache.insert(b"k42", "payload".into(), 0));
        assert_eq!(cache.get(b"k42").as_deref(), Some("payload"));
        assert!(cache.insert(b"k42", "updated".into(), 0));
        assert_eq!(cache.get(b"k42").as_deref(), Some("updated"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn digest_collisions_do_not_alias_entries() {
        // Force two *different* keys into the same hash bucket by
        // driving the shard directly with an identical digest: the
        // byte comparison must keep them apart.
        let budget = 8 * (ENTRY_OVERHEAD + 16);
        let mut shard = Shard::new();
        shard.insert(7, b"alpha", "va".into(), 0, NO_EXPIRY, budget);
        shard.insert(7, b"beta", "vb".into(), 0, NO_EXPIRY, budget);
        assert!(matches!(shard.get(7, b"alpha", 0), Lookup::Hit(v) if v == "va"));
        assert!(matches!(shard.get(7, b"beta", 0), Lookup::Hit(v) if v == "vb"));
        assert!(matches!(shard.get(7, b"gamma", 0), Lookup::Miss));
        assert_eq!(shard.len(), 2);

        // Evicting one colliding entry must leave the other reachable.
        let budget = 2 * (ENTRY_OVERHEAD + 16);
        let mut shard = Shard::new();
        shard.insert(7, b"alpha", "va".into(), 0, NO_EXPIRY, budget);
        shard.insert(7, b"beta", "vb".into(), 0, NO_EXPIRY, budget);
        shard.insert(9, b"gamma", "vc".into(), 0, NO_EXPIRY, budget); // evicts LRU "alpha"
        assert!(matches!(shard.get(7, b"alpha", 0), Lookup::Miss));
        assert!(matches!(shard.get(7, b"beta", 0), Lookup::Hit(v) if v == "vb"));
        assert!(matches!(shard.get(9, b"gamma", 0), Lookup::Hit(v) if v == "vc"));
    }

    #[test]
    fn byte_budget_evicts_in_lru_order() {
        // Room for two small entries per shard.
        let cache = ResultCache::with_budget(small_entry_budget(2));
        let keys = colliding_keys(3);
        cache.insert(&keys[0], "a".into(), 0);
        cache.insert(&keys[1], "b".into(), 0);
        let _ = cache.get(&keys[0]); // refresh key 0, key 1 becomes LRU
        cache.insert(&keys[2], "c".into(), 0); // evicts key 1
        assert!(cache.get(&keys[0]).is_some());
        assert!(cache.get(&keys[1]).is_none(), "LRU entry must go first");
        assert!(cache.get(&keys[2]).is_some());
    }

    #[test]
    fn large_value_evicts_as_many_entries_as_it_needs() {
        let per_shard = 4 * (ENTRY_OVERHEAD + 16);
        let cache = ResultCache::new(CacheConfig {
            budget_bytes: SHARDS * per_shard,
            ttl: None,
            max_entry_bytes: per_shard,
            shards: SHARDS,
        });
        let keys = colliding_keys(4);
        for key in &keys[..3] {
            cache.insert(key, "small".into(), 0);
        }
        // One value sized to claim the whole shard budget: all three
        // residents must be evicted to admit it.
        let big = "x".repeat(per_shard - ENTRY_OVERHEAD - keys[3].len());
        assert!(cache.insert(&keys[3], big.clone(), 0));
        assert_eq!(cache.get(&keys[3]).as_deref(), Some(big.as_str()));
        for key in &keys[..3] {
            assert!(cache.get(key).is_none(), "evicted to make room");
        }
        assert!(cache.bytes_used() <= cache.budget_bytes());
    }

    #[test]
    fn bytes_never_exceed_budget_under_churn() {
        let budget = small_entry_budget(4);
        let cache = ResultCache::with_budget(budget);
        for i in 0..10_000u64 {
            cache.insert(
                format!("key-{i}").as_bytes(),
                format!("value-{}", i % 977),
                i % 7,
            );
            if i % 97 == 0 {
                assert!(cache.bytes_used() <= budget, "budget breached at {i}");
            }
        }
        assert!(cache.bytes_used() <= budget);
        assert!(!cache.is_empty());
    }

    #[test]
    fn oversized_entries_are_rejected_not_cached() {
        let cache = ResultCache::new(CacheConfig {
            budget_bytes: 1 << 20,
            ttl: None,
            max_entry_bytes: 1024,
            shards: SHARDS,
        });
        let big = "x".repeat(2048);
        assert!(!cache.insert(b"big", big, 0));
        assert!(cache.get(b"big").is_none());
        assert!(cache.is_empty());

        // The same value is admitted when it was expensive to compute.
        let big = "x".repeat(2048);
        assert!(cache.insert(b"big", big, COSTLY_WORK_UNITS));
        assert!(cache.get(b"big").is_some());

        // But even a costly response respects the relaxed 4× cap.
        let huge = "x".repeat(5000);
        assert!(!cache.insert(b"huge", huge, COSTLY_WORK_UNITS));
        assert!(cache.get(b"huge").is_none());
    }

    #[test]
    fn admits_is_the_insert_guard_with_an_empty_value() {
        let cache = ResultCache::new(CacheConfig {
            budget_bytes: 1 << 20,
            ttl: None,
            max_entry_bytes: 1024,
            shards: SHARDS,
        });
        let cheap = 1024 - ENTRY_OVERHEAD;
        let costly = 4 * 1024 - ENTRY_OVERHEAD;
        for (key_len, cost) in [
            (cheap, 0),
            (cheap + 1, 0),
            (costly, COSTLY_WORK_UNITS),
            (costly + 1, COSTLY_WORK_UNITS),
        ] {
            let key = vec![b'k'; key_len];
            assert_eq!(
                cache.admits(key_len, cost),
                cache.insert(&key, String::new(), cost),
                "key_len={key_len} cost={cost}"
            );
        }
        assert!(!ResultCache::with_budget(0).admits(0, COSTLY_WORK_UNITS));
    }

    #[test]
    fn entry_larger_than_shard_budget_is_never_admitted() {
        // max_entry_bytes is clamped to the per-shard budget, so an
        // entry that could never fit is rejected instead of thrashing.
        let cache = ResultCache::new(CacheConfig {
            budget_bytes: SHARDS * 256,
            ttl: None,
            max_entry_bytes: usize::MAX,
            shards: SHARDS,
        });
        assert!(!cache.insert(b"k", "x".repeat(512), COSTLY_WORK_UNITS));
        assert!(cache.is_empty());
    }

    #[test]
    fn ttl_expires_exactly_at_the_boundary() {
        let cache = ResultCache::new(CacheConfig {
            budget_bytes: 1 << 20,
            ttl: Some(Duration::from_millis(50)),
            max_entry_bytes: 1 << 16,
            shards: SHARDS,
        });
        cache.insert(b"k", "v".into(), 0);
        cache.advance(Duration::from_millis(49));
        assert_eq!(cache.get(b"k").as_deref(), Some("v"), "one ms early: hit");
        cache.advance(Duration::from_millis(1));
        assert!(cache.get(b"k").is_none(), "deadline reached: miss");
        assert!(cache.is_empty(), "expired entry is removed on access");

        // A fresh insert under the same key starts a new lifetime.
        cache.insert(b"k", "v2".into(), 0);
        assert_eq!(cache.get(b"k").as_deref(), Some("v2"));
    }

    #[test]
    fn no_ttl_means_entries_outlive_any_clock_advance() {
        let cache = ResultCache::with_budget(1 << 20);
        cache.insert(b"k", "v".into(), 0);
        cache.advance(Duration::from_secs(1 << 30));
        assert_eq!(cache.get(b"k").as_deref(), Some("v"));
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = ResultCache::with_budget(0);
        assert!(!cache.insert(b"x", "x".into(), 0));
        assert!(cache.get(b"x").is_none());
        assert!(cache.is_empty());
    }

    /// A fresh journal path for one test (the file itself is removed).
    fn journal_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tgp-cache-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.cachejournal"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn compacted_journal_round_trips_entries_and_recency() {
        let path = journal_path("round-trip");
        let cache = ResultCache::with_budget(1 << 20);
        cache.attach_journal(&path).unwrap();
        for i in 0..20u64 {
            cache.insert(format!("key-{i}").as_bytes(), format!("value-{i}"), i);
        }
        cache.compact_journal().unwrap();
        drop(cache);

        let restored = ResultCache::with_budget(1 << 20);
        assert_eq!(restored.attach_journal(&path).unwrap().admitted, 20);
        for i in 0..20u64 {
            assert_eq!(
                restored.get(format!("key-{i}").as_bytes()).as_deref(),
                Some(format!("value-{i}").as_str())
            );
        }
        std::fs::remove_file(&path).unwrap();

        // Recency: the snapshot walks each shard LRU→MRU, so replay
        // rebuilds the same order and evicts the same entry next.
        let path = journal_path("recency");
        let keys = colliding_keys(4);
        let cache = ResultCache::with_budget(small_entry_budget(3));
        cache.attach_journal(&path).unwrap();
        for key in &keys[..3] {
            cache.insert(key, "v".into(), 0);
        }
        let _ = cache.get(&keys[0]); // key 1 becomes the LRU entry
        cache.compact_journal().unwrap();
        drop(cache);

        let restored = ResultCache::with_budget(small_entry_budget(3));
        assert_eq!(restored.attach_journal(&path).unwrap().admitted, 3);
        restored.insert(&keys[3], "v".into(), 0); // evicts the LRU entry
        assert!(restored.get(&keys[1]).is_none(), "LRU entry must go first");
        for key in [&keys[0], &keys[2], &keys[3]] {
            assert!(restored.get(key).is_some());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_skips_expired_and_preserves_remaining_ttl() {
        let path = journal_path("ttl");
        let cache = ResultCache::new(CacheConfig {
            budget_bytes: 1 << 20,
            ttl: Some(Duration::from_millis(100)),
            max_entry_bytes: 1 << 16,
            shards: SHARDS,
        });
        cache.attach_journal(&path).unwrap();
        cache.insert(b"doomed", "v".into(), 0);
        cache.advance(Duration::from_millis(60));
        cache.insert(b"fresh", "v".into(), 0);
        cache.advance(Duration::from_millis(50)); // "doomed" is now past its deadline
        cache.compact_journal().unwrap();
        drop(cache);

        let restored = ResultCache::with_budget(1 << 20);
        let report = restored.attach_journal(&path).unwrap();
        assert_eq!(report.admitted, 1, "expired entry not compacted");
        assert_eq!(restored.get(b"fresh").as_deref(), Some("v"));
        // "fresh" had 50ms left at compaction; it must still expire.
        restored.advance(Duration::from_millis(50));
        assert!(restored.get(b"fresh").is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_respects_the_admission_guard() {
        let path = journal_path("admit");
        // Compact from a roomy cache, replay into a tight one.
        let roomy = ResultCache::with_budget(1 << 20);
        roomy.attach_journal(&path).unwrap();
        roomy.insert(b"small", "v".into(), 0);
        roomy.insert(b"large", "x".repeat(4000), 0);
        roomy.compact_journal().unwrap();
        drop(roomy);

        let tight = ResultCache::new(CacheConfig {
            budget_bytes: 1 << 20,
            ttl: None,
            max_entry_bytes: 1024,
            shards: SHARDS,
        });
        let report = tight.attach_journal(&path).unwrap();
        assert_eq!(report.admitted, 1, "oversized entry refused");
        assert!(tight.get(b"small").is_some());
        assert!(tight.get(b"large").is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn entry_codec_round_trips_and_rejects_malformed_payloads() {
        let decoded = decode_entry(&encode_entry(b"key-3", "value-3", 3, u64::MAX)).unwrap();
        assert_eq!(decoded.key, b"key-3");
        assert_eq!(decoded.value, "value-3");
        assert_eq!(decoded.cost, 3);
        assert_eq!(decoded.ttl_remaining_ms, u64::MAX);

        assert!(decode_entry(b"").is_none());
        assert!(decode_entry(&[0u8; 23]).is_none());
        // key_len larger than the body.
        let mut p = Vec::new();
        p.extend_from_slice(&100u64.to_le_bytes());
        p.extend_from_slice(&0u64.to_le_bytes());
        p.extend_from_slice(&0u64.to_le_bytes());
        p.extend_from_slice(b"short");
        assert!(decode_entry(&p).is_none());
        // non-UTF-8 value.
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&0u64.to_le_bytes());
        p.extend_from_slice(&0u64.to_le_bytes());
        p.extend_from_slice(&[b'k', 0xff, 0xfe]);
        assert!(decode_entry(&p).is_none());
    }

    #[test]
    fn generation_tracks_mutations() {
        let cache = ResultCache::with_budget(1 << 20);
        let g0 = cache.generation();
        cache.insert(b"k", "v".into(), 0);
        assert!(cache.generation() > g0);
        let g1 = cache.generation();
        let _ = cache.get(b"k"); // a plain hit is not a mutation
        assert_eq!(cache.generation(), g1);
    }

    #[test]
    fn metrics_render_all_series() {
        let cache = ResultCache::with_budget(1 << 20);
        cache.insert(b"k", "v".into(), 0);
        let mut out = String::new();
        cache.render_metrics(&mut out);
        for series in [
            "tgp_cache_entries 1",
            "tgp_cache_bytes_used",
            "tgp_cache_bytes_budget 1048576",
            "tgp_cache_journal_bytes 0",
            "tgp_cache_evicted_total 0",
            "tgp_cache_rejected_oversize_total 0",
            "tgp_cache_expired_total 0",
            "tgp_cache_warm_loaded_total 0",
        ] {
            assert!(out.contains(series), "missing {series} in:\n{out}");
        }
    }

    #[test]
    fn journal_persists_inserts_across_attach_cycles() {
        let path = journal_path("attach");

        let cache = ResultCache::with_budget(1 << 20);
        let report = cache.attach_journal(&path).unwrap();
        assert_eq!(
            report,
            AttachReport {
                admitted: 0,
                truncated: false,
            }
        );
        for i in 0..10u64 {
            cache.insert(format!("key-{i}").as_bytes(), format!("value-{i}"), i);
        }
        cache.insert(b"key-3", "updated".into(), 3);
        drop(cache);

        let restored = ResultCache::with_budget(1 << 20);
        let report = restored.attach_journal(&path).unwrap();
        assert_eq!(report.admitted, 11, "log of inserts: every append replays");
        assert!(!report.truncated);
        assert_eq!(restored.len(), 10, "later insert under the same key wins");
        assert_eq!(restored.get(b"key-3").as_deref(), Some("updated"));
        for i in [0u64, 9] {
            assert_eq!(
                restored.get(format!("key-{i}").as_bytes()).as_deref(),
                Some(format!("value-{i}").as_str())
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_torn_tail_replays_prefix_and_resumes() {
        let path = journal_path("torn");

        let cache = ResultCache::with_budget(1 << 20);
        cache.attach_journal(&path).unwrap();
        cache.insert(b"intact", "v1".into(), 0);
        cache.insert(b"torn", "v2".into(), 0);
        drop(cache);
        // Tear the last record mid-payload, as kill -9 mid-write would.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 2]).unwrap();

        let restored = ResultCache::with_budget(1 << 20);
        let report = restored.attach_journal(&path).unwrap();
        assert_eq!(report.admitted, 1);
        assert!(report.truncated);
        assert_eq!(restored.get(b"intact").as_deref(), Some("v1"));
        assert!(restored.get(b"torn").is_none());

        // Appends resume cleanly after the trim.
        restored.insert(b"after", "v3".into(), 0);
        let again = ResultCache::with_budget(1 << 20);
        assert_eq!(again.attach_journal(&path).unwrap().admitted, 2);
        assert_eq!(again.get(b"after").as_deref(), Some("v3"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_file_fails_attach_and_is_left_untouched() {
        let path = journal_path("foreign");
        // A dump in the retired `TGPCACHE` format (magic, version,
        // entry count, payload checksum, no entries) is foreign too.
        let mut legacy_dump = b"TGPCACHE".to_vec();
        for word in [1, 0, fnv1a(b"")] {
            legacy_dump.extend_from_slice(&u64::to_le_bytes(word));
        }
        for original in [
            b"operator data that is not ours, well past sixteen bytes".to_vec(),
            legacy_dump,
        ] {
            std::fs::write(&path, &original).unwrap();
            let cache = ResultCache::with_budget(1 << 20);
            assert!(cache.attach_journal(&path).is_err());
            assert!(cache.is_empty());
            assert_eq!(std::fs::read(&path).unwrap(), original, "never overwritten");
            // The cache still works memory-only after the failed attach.
            assert!(cache.insert(b"k", "v".into(), 0));
            assert!(cache.journal_len().is_none());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_shrinks_the_journal_and_keeps_entries() {
        let path = journal_path("compact");

        let cache = ResultCache::with_budget(1 << 20);
        cache.attach_journal(&path).unwrap();
        // Re-insert one key many times: memory holds one entry, the
        // log holds every insert.
        let filler = "x".repeat(1024);
        for _ in 0..256 {
            cache.insert(b"hot", filler.clone(), 0);
        }
        assert!(cache.should_compact(), "log far exceeds live bytes");
        let before = cache.journal_len().unwrap();
        cache.compact_journal().unwrap();
        let after = cache.journal_len().unwrap();
        assert!(after < before, "compaction shrank {before} -> {after}");
        assert!(!cache.should_compact());

        let restored = ResultCache::with_budget(1 << 20);
        assert_eq!(restored.attach_journal(&path).unwrap().admitted, 1);
        assert_eq!(restored.get(b"hot").as_deref(), Some(filler.as_str()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_preserves_remaining_ttl_across_attach() {
        let path = journal_path("jttl");

        let cache = ResultCache::new(CacheConfig {
            budget_bytes: 1 << 20,
            ttl: Some(Duration::from_millis(100)),
            max_entry_bytes: 1 << 16,
            shards: SHARDS,
        });
        cache.attach_journal(&path).unwrap();
        cache.insert(b"k", "v".into(), 0);
        drop(cache);

        let restored = ResultCache::new(CacheConfig {
            budget_bytes: 1 << 20,
            ttl: Some(Duration::from_millis(100)),
            max_entry_bytes: 1 << 16,
            shards: SHARDS,
        });
        restored.attach_journal(&path).unwrap();
        assert_eq!(restored.get(b"k").as_deref(), Some("v"));
        restored.advance(Duration::from_millis(100));
        assert!(restored.get(b"k").is_none(), "replayed TTL still expires");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let budget = small_entry_budget(16);
        let cache = Arc::new(ResultCache::with_budget(budget));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = format!("key-{}", (t * 1_000 + i) % 300);
                        if i % 3 == 0 {
                            cache.insert(key.as_bytes(), format!("{t}:{i}"), i);
                        } else {
                            let _ = cache.get(key.as_bytes());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.bytes_used() <= budget);
    }
}
