//! The columnar shuffle data plane.
//!
//! This module is the engine's hot path. Instead of inserting every
//! `(K, V)` emission into a per-partition `BTreeMap` (comparison-bound,
//! pointer-chasing, one allocation per distinct key), the shuffle moves
//! flat **columns**:
//!
//! 1. **Fingerprint at emit.** Every key is hashed exactly once, as the
//!    mapper emits it, to a seed-free 64-bit fingerprint
//!    ([`fingerprint_of`]). Emissions land in [`ColumnBuf`]s — three
//!    parallel arrays `(hashes, keys, vals)` — so the map phase is pure
//!    appends.
//! 2. **Radix partition by hash bits, at emit.** The *top* fingerprint
//!    bits route a pair to its shuffle partition ([`partition_of_hash`],
//!    one partition per worker); inside a partition the *low* bits select
//!    a cache-sized radix bucket ([`bucket_count`] of them). A key's pairs
//!    always share a fingerprint, so they always share a partition and a
//!    bucket. Every map chunk pushes each emission straight into its
//!    `(partition, bucket)` column ([`column_of`]); a partition's bucket
//!    is its chunks' columns concatenated in chunk order
//!    ([`group_buckets`]). The sequential engine is the one-chunk,
//!    one-partition case of the same route.
//! 3. **Group each bucket with an open-addressing table.** A small
//!    linear-probing table (bucket-sized, cache-resident) maps each
//!    fingerprint to a group id in one `O(n)` pass — no per-pair sort at
//!    all ([`group_buckets`]). Groups are discovered in first-arrival
//!    order, so a prefix sum over group sizes places every value with one
//!    more pass. Distinct keys that collide on the full 64-bit
//!    fingerprint (possible, vanishingly rare) are detected during
//!    probing and that bucket falls back to an exact sort-based path (two
//!    slice sorts: rows by `(fingerprint, arrival)`, then each
//!    equal-fingerprint run by `(key, arrival)`), so grouping is exact for
//!    *any* `Hash` impl.
//!
//! The result is a [`GroupedRun`]: a flat `values` column holding every
//! group's values contiguously (arrival order within a group) plus one
//! [`Group`] descriptor per distinct key — no per-key `Vec`, no tree
//! nodes. Sorting the group *descriptors* by key
//! ([`GroupedRun::sort_groups_by_key`]) then restores the engine's
//! determinism contract — outputs in ascending key order, values in
//! emission order within a key — at the cost of one sort over distinct
//! keys instead of one over all pairs; for large directories with
//! fixed-width unsigned keys even that is an `O(n)` LSD radix sort
//! rather than a comparison sort. The dev-only `mr-oracle` crate keeps
//! the old `BTreeMap` pipeline as the regression oracle proving the two
//! paths byte-identical.

use std::any::Any;
use std::hash::{Hash, Hasher};

/// Multiplier of the MUM fingerprint mix (the splitmix64 increment — an
/// odd constant with well-spread bits).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Nonzero seed state so the all-zero input does not fix-point to zero.
const SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// A deterministic, seed-free fingerprint hasher.
///
/// `std`'s `RandomState` is randomly seeded per process, which would make
/// partition loads — and the perf ledger's partition counts — irreproducible;
/// this hasher produces the same fingerprint for the same key bytes on
/// every run. Each integer write is one MUM step (wyhash's primitive: a
/// 64×64→128 multiply whose halves are folded together with xor — a
/// single widening multiply instruction, yet every input bit reaches both
/// the top output bits that route partitions and the low bits that select
/// radix buckets). The hash runs once per mapper emission, so its latency
/// is map-phase hot; this is deliberately the cheapest mix that still
/// passes the spread tests below.
pub(crate) struct FingerprintHasher(u64);

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher(SEED)
    }
}

impl FingerprintHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x).wrapping_mul(u128::from(MUL));
        self.0 = (m >> 64) as u64 ^ m as u64;
    }
}

impl Hasher for FingerprintHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.mix(x as u64);
        self.mix((x >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }

    #[inline]
    fn write_i8(&mut self, x: i8) {
        self.mix(x as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, x: i16) {
        self.mix(x as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, x: i32) {
        self.mix(x as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.mix(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Every write already ran a full MUM avalanche; no extra
        // finalisation pass is needed.
        self.0
    }
}

/// The key's 64-bit shuffle fingerprint, computed once at emit time.
#[inline]
pub(crate) fn fingerprint_of<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = FingerprintHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// The shuffle partition (in `0..partitions`) that owns fingerprint `h`:
/// a multiply-shift on the **top** hash bits, so any partition count —
/// not just powers of two — radix-partitions the fingerprint space into
/// contiguous ranges. Every pair of a given key lands in the same
/// partition, which is what lets grouping and budget checks run
/// per-partition without cross-talk.
#[inline]
pub(crate) fn partition_of_hash(h: u64, partitions: usize) -> usize {
    ((u128::from(h) * partitions as u128) >> 64) as usize
}

/// Flat, append-only emission storage: three parallel columns
/// `(hashes, keys, vals)` of equal length. This is the unit the map
/// phase routes into and the grouping stage consumes — `(K, V)` pairs
/// never exist as boxed or tree-resident values anywhere in the data
/// plane.
pub(crate) struct ColumnBuf<K, V> {
    /// Per-emission key fingerprints (computed once, at emit).
    pub hashes: Vec<u64>,
    /// Emitted keys, in emission order.
    pub keys: Vec<K>,
    /// Emitted values, in emission order.
    pub vals: Vec<V>,
}

impl<K, V> ColumnBuf<K, V> {
    /// An empty buffer with all three columns preallocated for `n`
    /// emissions, so a column whose share of the round is known (or
    /// bounded) never grows mid-map.
    pub fn with_capacity(n: usize) -> Self {
        ColumnBuf {
            hashes: Vec::with_capacity(n),
            keys: Vec::with_capacity(n),
            vals: Vec::with_capacity(n),
        }
    }

    /// Number of buffered emissions.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Appends a pair whose fingerprint is already known.
    #[inline]
    pub fn push(&mut self, hash: u64, key: K, val: V) {
        self.hashes.push(hash);
        self.keys.push(key);
        self.vals.push(val);
    }

    /// Appends all of `other`'s emissions (in order) to `self`.
    pub fn append(&mut self, mut other: ColumnBuf<K, V>) {
        self.hashes.append(&mut other.hashes);
        self.keys.append(&mut other.keys);
        self.vals.append(&mut other.vals);
    }

    /// Drains `segments` into one buffer, in order. A lone segment moves
    /// as is; several are copied once into an exactly sized buffer.
    fn concat(segments: &mut Vec<ColumnBuf<K, V>>) -> ColumnBuf<K, V> {
        if segments.len() == 1 {
            // Cannot fire: the guard just saw exactly one segment.
            return segments.pop().expect("one segment");
        }
        let mut out = ColumnBuf::with_capacity(segments.iter().map(ColumnBuf::len).sum());
        for segment in segments.drain(..) {
            out.append(segment);
        }
        out
    }
}

/// The route of fingerprint `h`: bucket `h & (bucket_count - 1)` of
/// partition [`partition_of_hash`]`(h, partitions)`, as an index into
/// `partitions × bucket_count` columns held partition-major (bucket `b`
/// of partition `pi` is column `pi * bucket_count + b`). A map chunk
/// pushes every emission straight into this column, so each pair is
/// written once, already in the bucket it is grouped from.
///
/// For `bucket_count >= 1` the result is below
/// `partitions × bucket_count`; `bucket_count` should be a power of two
/// (as [`bucket_count`] returns) so the mask selects whole hash bits.
#[inline]
pub(crate) fn column_of(h: u64, partitions: usize, bucket_count: usize) -> usize {
    debug_assert!(bucket_count.is_power_of_two());
    partition_of_hash(h, partitions) * bucket_count + (h & (bucket_count - 1) as u64) as usize
}

/// One reduce group: a distinct key and the `values[start..start + len]`
/// slice of its [`GroupedRun`]. Deliberately *without* the key's
/// fingerprint: the hash has done its routing and grouping work by the
/// time a descriptor exists, and dropping it keeps the directory — the
/// thing [`GroupedRun::sort_groups_by_key`] moves around — as small as
/// possible (16 bytes for `u64` keys instead of 24).
#[derive(Clone, Copy)]
pub(crate) struct Group<K> {
    /// The distinct reduce key.
    pub key: K,
    /// Offset of the group's first value in the run's `values` column.
    pub start: u32,
    /// Number of values in the group — the reducer's load.
    pub len: u32,
}

/// A grouped shuffle partition: one flat `values` column holding every
/// group's values contiguously (emission order within a group), plus one
/// [`Group`] descriptor per distinct key. Produced in deterministic
/// (bucket, first-arrival) order by [`group_buckets`];
/// [`sort_groups_by_key`](Self::sort_groups_by_key) reorders the
/// descriptors (not the values) into ascending key order.
pub(crate) struct GroupedRun<K, V> {
    /// Group descriptors. Keys are distinct within a run.
    pub groups: Vec<Group<K>>,
    /// Every group's values, concatenated.
    pub values: Vec<V>,
}

impl<K, V> GroupedRun<K, V> {
    /// Number of distinct keys (reducers) in the run.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// The value slice of group `i`.
    #[cfg(test)]
    pub fn values_of(&self, i: usize) -> &[V] {
        let g = &self.groups[i];
        &self.values[g.start as usize..(g.start + g.len) as usize]
    }
}

impl<K: Ord + 'static, V> GroupedRun<K, V> {
    /// Sorts the group descriptors into ascending key order. Values stay
    /// put — descriptors carry their `(start, len)` windows with them —
    /// so this costs one pass over *distinct keys*, not over pairs. Keys
    /// are distinct within a run, so the order is total and deterministic.
    ///
    /// Large directories with fixed-width unsigned keys (`u64`/`u32`)
    /// take an LSD radix path — `O(n)` counting passes over the bytes
    /// that actually vary — which was the one comparison sort left on
    /// the columnar plane. Everything else (or anything below
    /// [`RADIX_MIN`], where one comparison sort beats eight counting
    /// passes) falls back to `sort_unstable_by`. The radix path is picked
    /// by downcasting the directory through `Any`: stable Rust cannot
    /// specialise on "`K` is `u64`", but it can test the concrete type.
    /// Both orders are the same total key order, so the choice is
    /// invisible to callers.
    pub fn sort_groups_by_key(&mut self) {
        if self.groups.len() >= RADIX_MIN {
            let groups: &mut dyn Any = &mut self.groups;
            if let Some(groups) = groups.downcast_mut::<Vec<Group<u64>>>() {
                return radix_sort_groups(groups);
            }
            if let Some(groups) = groups.downcast_mut::<Vec<Group<u32>>>() {
                return radix_sort_groups(groups);
            }
        }
        self.groups.sort_unstable_by(|a, b| a.key.cmp(&b.key));
    }
}

/// Directory length below which the comparison sort wins: a radix pass
/// costs up to eight full counting sweeps regardless of size, so small
/// directories are cheaper to pdqsort.
const RADIX_MIN: usize = 2048;

/// Fixed-width unsigned key types the group directory can be
/// radix-sorted on: the `u64` image must order exactly like `Ord`.
trait RadixKey: Copy {
    /// The key as a `u64` whose natural order matches the key's `Ord`.
    fn radix(self) -> u64;
}

impl RadixKey for u64 {
    fn radix(self) -> u64 {
        self
    }
}

impl RadixKey for u32 {
    fn radix(self) -> u64 {
        u64::from(self)
    }
}

/// LSD radix sort of a group directory by key: one stable counting pass
/// per key byte, low to high, skipping bytes that are constant across
/// the directory (for dense key spaces most of the high bytes are).
fn radix_sort_groups<T: RadixKey>(groups: &mut Vec<Group<T>>) {
    let mut or_all = 0u64;
    let mut and_all = u64::MAX;
    for g in groups.iter() {
        let k = g.key.radix();
        or_all |= k;
        and_all &= k;
    }
    // A bit varies across keys iff it is set in some key but not all.
    let varying = or_all ^ and_all;
    if varying == 0 {
        return; // all keys equal (or directory empty / singleton)
    }
    let mut src = std::mem::take(groups);
    let mut dst = src.clone(); // same-length scratch; contents overwritten
    for byte in 0..8 {
        let shift = byte * 8;
        if (varying >> shift) & 0xFF == 0 {
            continue;
        }
        let mut counts = [0usize; 256];
        for g in &src {
            counts[((g.key.radix() >> shift) & 0xFF) as usize] += 1;
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, c) in offsets.iter_mut().zip(counts) {
            *o = acc;
            acc += c;
        }
        for g in &src {
            let b = ((g.key.radix() >> shift) & 0xFF) as usize;
            dst[offsets[b]] = *g;
            offsets[b] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *groups = src;
}

/// Cache-sizing policy for the radix bucketing: aim for ~1024-pair
/// buckets (columns plus probe table stay L1/L2 resident), power-of-two
/// so the selector is a mask, capped at 256 buckets per partition. The
/// bucket of fingerprint `h` is `h & (bucket_count - 1)` — the *low*
/// bits, independent of the top bits that select the partition, so
/// buckets refine partitions.
pub(crate) fn bucket_count(n: usize) -> usize {
    (n / 1024).next_power_of_two().clamp(1, 256)
}

/// Reusable scratch for [`group_buckets`]: every vector is cleared and
/// refilled per bucket, so one partition's grouping performs O(buckets)
/// allocations total instead of O(buckets × vectors).
#[derive(Default)]
struct GroupScratch {
    /// Open-addressing probe table: fingerprint → local group id
    /// (`u32::MAX` = empty). Sized to 2× the bucket, power of two.
    table: Vec<u32>,
    /// Local group id of each bucket position.
    group_of: Vec<u32>,
    /// First-arrival bucket position of each local group (ascending).
    reps: Vec<u32>,
    /// Member count of each local group.
    lens: Vec<u32>,
    /// Prefix sums of `lens`: each group's offset in the bucket's value
    /// segment. Consumed as write cursors by the value scatter.
    starts: Vec<u32>,
}

/// Groups every bucket of one shuffle partition, appending to a single
/// [`GroupedRun`]. `chunks` holds one list of bucket columns per map
/// chunk, in chunk (= input) order, every list the same length. Buckets
/// must refine the partition by fingerprint (all pairs of one key in one
/// bucket index, e.g. routed by [`column_of`]); within each
/// column pairs must be in emission order. Bucket `b` is the chunks'
/// `b`-th columns concatenated in chunk order, so arrival order across
/// chunks is emission order too. Group descriptors come out in
/// deterministic (bucket, first-arrival) order — callers that need the
/// engine's ascending-key contract follow with
/// [`GroupedRun::sort_groups_by_key`]. Within every group, values are in
/// arrival (= emission) order.
pub(crate) fn group_buckets<K: Ord, V>(chunks: Vec<Vec<ColumnBuf<K, V>>>) -> GroupedRun<K, V> {
    let total: usize = chunks.iter().flatten().map(ColumnBuf::len).sum();
    assert!(
        total <= u32::MAX as usize,
        "a shuffle partition exceeds the u32 index space ({total} pairs)"
    );
    let mut run = GroupedRun {
        // Sized for the key-heavy extreme (every key distinct would be
        // `total` groups; half that covers the common word-count-like
        // shape without doubling-realloc copies of a six-figure
        // directory). Duplicate-heavy workloads leave the excess
        // capacity unused — it is transient and O(total) either way.
        groups: Vec::with_capacity((total / 2).max(16)),
        values: Vec::with_capacity(total),
    };
    let mut scratch = GroupScratch::default();
    let buckets = chunks.first().map_or(0, Vec::len);
    let mut chunks: Vec<_> = chunks.into_iter().map(Vec::into_iter).collect();
    let mut segments = Vec::with_capacity(chunks.len());
    for _ in 0..buckets {
        // Cannot fire: every chunk of a partition was routed into the
        // same `bc` buckets, and `buckets` is the first chunk's count.
        segments.extend(chunks.iter_mut().map(|c| {
            c.next()
                .expect("every chunk holds the same number of buckets")
        }));
        group_bucket_hashed(ColumnBuf::concat(&mut segments), &mut run, &mut scratch);
    }
    run
}

/// Groups one radix bucket with a linear-probing fingerprint table —
/// `O(n)`, no sorting — and appends its groups to `out`.
///
/// The probe pass assigns each pair a local group id (first-arrival
/// order) and compares keys whenever two pairs share a fingerprint; if
/// any such pair has *different* keys (a full 64-bit collision), the
/// bucket is handed to the exact sort-based cold path instead.
#[allow(unsafe_code)]
fn group_bucket_hashed<K: Ord, V>(
    bucket: ColumnBuf<K, V>,
    out: &mut GroupedRun<K, V>,
    scratch: &mut GroupScratch,
) {
    let n = bucket.len();
    if n == 0 {
        return;
    }
    let GroupScratch {
        table,
        group_of,
        reps,
        lens,
        starts,
    } = scratch;
    let ColumnBuf {
        hashes,
        keys,
        mut vals,
    } = bucket;

    // Probe: one pass assigns local group ids in first-arrival order.
    // The table holds group ids; a slot's fingerprint lives in
    // `hashes[reps[id]]`, keeping the table itself 4 bytes per slot so
    // a whole bucket's table stays cache-resident. The probe start skips
    // the low 8 bits — those selected the bucket and are constant here.
    let tsize = (n * 2).next_power_of_two();
    let tmask = tsize - 1;
    table.clear();
    table.resize(tsize, u32::MAX);
    group_of.clear();
    reps.clear();
    lens.clear();
    let mut collided = false;
    for (j, &h) in hashes.iter().enumerate() {
        let mut idx = (h >> 8) as usize & tmask;
        let gid = loop {
            let slot = table[idx];
            if slot == u32::MAX {
                let g = reps.len() as u32;
                table[idx] = g;
                reps.push(j as u32);
                lens.push(0);
                break g;
            }
            let rep = reps[slot as usize] as usize;
            if hashes[rep] == h {
                if keys[rep] != keys[j] {
                    collided = true;
                }
                break slot;
            }
            idx = (idx + 1) & tmask;
        };
        lens[gid as usize] += 1;
        group_of.push(gid);
    }
    if collided {
        // A full 64-bit fingerprint collision between distinct keys:
        // essentially never for a real hash, but correctness cannot
        // depend on that. Regroup this bucket exactly by sorting.
        group_bucket_sorted(ColumnBuf { hashes, keys, vals }, out);
        return;
    }

    // Prefix-sum the group sizes into per-group value offsets (relative
    // to this bucket's segment of the output column).
    let g = reps.len();
    starts.clear();
    starts.reserve(g);
    let mut acc = 0u32;
    for &l in lens.iter() {
        starts.push(acc);
        acc += l;
    }

    // Directory: move exactly one key per group out of the key column.
    // Reps ascend (first-arrival order), so a single forward consume of
    // the iterator visits each key once, dropping non-representatives.
    let base = out.values.len() as u32;
    out.groups.reserve(g);
    let mut key_it = keys.into_iter();
    let mut consumed: u32 = 0;
    for ((&rep, &len), &start) in reps.iter().zip(lens.iter()).zip(starts.iter()) {
        while consumed < rep {
            key_it.next();
            consumed += 1;
        }
        // Cannot fire: `rep` is an index into `keys`, and reps ascend, so
        // the iterator has not yet passed it.
        let key = key_it.next().expect("rep indexes a live key");
        consumed += 1;
        out.groups.push(Group {
            key,
            start: base + start,
            len,
        });
    }
    drop(key_it);

    // Values: one scatter pass moves every value directly to its final
    // slot in the output column, advancing its group's cursor.
    assert_eq!(vals.len(), n, "a bucket's columns differ in length");
    let old_len = out.values.len();
    out.values.reserve(n);
    // SAFETY: `vals` holds exactly the `n` values `group_of` indexes
    // (asserted above). `starts` are prefix sums of `lens`, and each
    // position advances its own group's cursor, so the n destinations are
    // exactly the distinct offsets 0..n — every output slot in the
    // reserved region is written once, every source slot is read once.
    // `vals`' length is zeroed first so its elements are never dropped in
    // place, nothing between the two `set_len`s can panic, and the output
    // length is raised only after all n writes.
    // Price: the safe twin (a cycle-swap permutation of `vals`, then one
    // append) cost `matmul_tree` `seq_iter_ms_p50` +12.4 % (0/8 pairs
    // better) and `hamming_join` +7.1 % (1/8) — medians of 8 alternated
    // 25 s `mr-perf --trace 0` pairs on a 2-core host, 2026-10-17.
    unsafe {
        let dst = out.values.as_mut_ptr().add(old_len);
        let src = vals.as_ptr();
        vals.set_len(0);
        for (j, &gid) in group_of.iter().enumerate() {
            // Every gid is < g = starts.len() (assigned by the probe pass).
            let cursor = starts.get_unchecked_mut(gid as usize);
            let d = *cursor;
            *cursor = d + 1;
            std::ptr::copy_nonoverlapping(src.add(j), dst.add(d as usize), 1);
        }
        out.values.set_len(old_len + n);
    }
}

/// Exact sort-based grouping of one bucket — the cold path for full
/// fingerprint collisions (and the reference the hot path must match):
/// sort the `(fingerprint, arrival, key, value)` rows by `(fingerprint,
/// arrival)`, which never compares a key, then re-sort each
/// equal-fingerprint run by `(key, arrival)` and cut a group wherever the
/// fingerprint or the key changes.
fn group_bucket_sorted<K: Ord, V>(bucket: ColumnBuf<K, V>, out: &mut GroupedRun<K, V>) {
    let ColumnBuf { hashes, keys, vals } = bucket;
    let mut rows: Vec<(u64, u32, K, V)> = hashes
        .into_iter()
        .zip(keys)
        .zip(vals)
        .enumerate()
        .map(|(i, ((h, k), v))| (h, i as u32, k, v))
        .collect();
    rows.sort_unstable_by_key(|&(h, arrival, ..)| (h, arrival));
    for run in rows.chunk_by_mut(|a, b| a.0 == b.0) {
        run.sort_unstable_by(|a, b| a.2.cmp(&b.2).then(a.1.cmp(&b.1)));
    }
    // Exactly one key per group survives; the duplicates drop here.
    let mut prev = None;
    for (h, _, key, val) in rows {
        match out.groups.last_mut() {
            Some(g) if prev == Some(h) && g.key == key => g.len += 1,
            _ => out.groups.push(Group {
                key,
                start: out.values.len() as u32,
                len: 1,
            }),
        }
        prev = Some(h);
        out.values.push(val);
    }
}

/// The merged view over every partition's [`GroupedRun`]: a global
/// ascending-key order across runs, without moving any values.
///
/// Keys are disjoint across runs (hash partitioning), so a P-way merge of
/// the per-run ascending key sequences yields the exact global key order
/// a single sorted map would have produced. The merge materialises only
/// `(run, group)` index pairs — and for the common single-partition case
/// not even that: one run's directory already *is* the global order, so
/// the view indexes it directly.
pub(crate) struct Shuffled<K, V> {
    /// One grouped run per shuffle partition, groups ascending by key.
    runs: Vec<GroupedRun<K, V>>,
    /// `(run index, group index)` pairs in global ascending key order;
    /// `None` when there is exactly one run (identity order).
    order: Option<Vec<(u32, u32)>>,
}

impl<K: Ord, V> Shuffled<K, V> {
    /// Merges per-partition runs (each with groups already ascending by
    /// key, keys disjoint across runs) into one globally key-ordered
    /// view.
    pub fn merge(runs: Vec<GroupedRun<K, V>>) -> Self {
        if runs.len() == 1 {
            return Shuffled { runs, order: None };
        }
        let total: usize = runs.iter().map(GroupedRun::len).sum();
        let mut order: Vec<(u32, u32)> = Vec::with_capacity(total);
        let mut heads: Vec<usize> = vec![0; runs.len()];
        loop {
            let mut best: Option<usize> = None;
            for (ri, run) in runs.iter().enumerate() {
                if heads[ri] < run.len() {
                    best = Some(match best {
                        None => ri,
                        Some(b) => {
                            if run.groups[heads[ri]].key < runs[b].groups[heads[b]].key {
                                ri
                            } else {
                                b
                            }
                        }
                    });
                }
            }
            let Some(b) = best else { break };
            order.push((b as u32, heads[b] as u32));
            heads[b] += 1;
        }
        Shuffled {
            runs,
            order: Some(order),
        }
    }
}

impl<K, V> Shuffled<K, V> {
    /// Total number of reduce groups.
    pub fn len(&self) -> usize {
        match &self.order {
            Some(order) => order.len(),
            None => self.runs[0].len(),
        }
    }

    /// The `i`-th group in global key order: `(key, values)`. Random
    /// access twin of [`for_each_in`](Self::for_each_in), which the
    /// engine's batch loops use instead.
    #[cfg(test)]
    pub fn entry(&self, i: usize) -> (&K, &[V]) {
        let (run, g) = match &self.order {
            Some(order) => {
                let (r, g) = order[i];
                (&self.runs[r as usize], g as usize)
            }
            None => (&self.runs[0], i),
        };
        (&run.groups[g].key, run.values_of(g))
    }

    /// Applies `f` to every group in `range` of the global key order —
    /// the reduce phase's inner loop. Dispatching on the order
    /// representation once per *range* (instead of once per entry, as
    /// [`entry`](Self::entry) must) keeps the single-run fast path a
    /// straight directory walk.
    pub fn for_each_in(&self, range: std::ops::Range<usize>, mut f: impl FnMut(&K, &[V])) {
        match &self.order {
            None => {
                let run = &self.runs[0];
                for g in &run.groups[range] {
                    f(
                        &g.key,
                        &run.values[g.start as usize..(g.start + g.len) as usize],
                    );
                }
            }
            Some(order) => {
                for &(r, gi) in &order[range] {
                    let run = &self.runs[r as usize];
                    let g = &run.groups[gi as usize];
                    f(
                        &g.key,
                        &run.values[g.start as usize..(g.start + g.len) as usize],
                    );
                }
            }
        }
    }

    /// Per-group loads (value counts) in global key order.
    pub fn loads(&self) -> Vec<u64> {
        match &self.order {
            Some(order) => order
                .iter()
                .map(|&(r, g)| u64::from(self.runs[r as usize].groups[g as usize].len))
                .collect(),
            None => self.runs[0]
                .groups
                .iter()
                .map(|g| u64::from(g.len))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fingerprints_are_stable_and_spread() {
        for k in 0u64..500 {
            assert_eq!(fingerprint_of(&k), fingerprint_of(&k));
        }
        // 500 distinct keys must reach every one of 8 partitions.
        let mut seen = [false; 8];
        for k in 0u64..500 {
            seen[partition_of_hash(fingerprint_of(&k), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "hash failed to reach a partition");
        // And every one of 16 low-bit buckets.
        let mut low = [false; 16];
        for k in 0u64..500 {
            low[(fingerprint_of(&k) & 15) as usize] = true;
        }
        assert!(low.iter().all(|&s| s), "low bits are not spread");
    }

    #[test]
    fn partition_of_hash_is_in_range_for_any_count() {
        for p in [1usize, 2, 3, 7, 8, 1000] {
            for h in [0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
                assert!(partition_of_hash(h, p) < p);
            }
        }
    }

    /// Builds a ColumnBuf with *fabricated* fingerprints, to drive the
    /// collision paths that real 64-bit fingerprints essentially never
    /// hit.
    fn buf_with_hashes(rows: &[(u64, u64, u64)]) -> ColumnBuf<u64, u64> {
        let mut buf = ColumnBuf::with_capacity(rows.len());
        for &(h, k, v) in rows {
            buf.push(h, k, v);
        }
        buf
    }

    fn groups_of(run: &GroupedRun<u64, u64>) -> Vec<(u64, Vec<u64>)> {
        (0..run.len())
            .map(|i| (run.groups[i].key, run.values_of(i).to_vec()))
            .collect()
    }

    /// Routes `rows` (with their given fingerprints) as one map chunk
    /// into `p × bc` columns by [`column_of`], partition-major.
    fn route(rows: &[(u64, u64, u64)], p: usize, bc: usize) -> Vec<ColumnBuf<u64, u64>> {
        let mut columns: Vec<_> = (0..p * bc).map(|_| ColumnBuf::with_capacity(0)).collect();
        for &(h, k, v) in rows {
            columns[column_of(h, p, bc)].push(h, k, v);
        }
        columns
    }

    /// Routes `rows` as one map chunk into the `bucket_count(rows.len())`
    /// buckets of one partition.
    fn routed(rows: &[(u64, u64, u64)]) -> Vec<ColumnBuf<u64, u64>> {
        route(rows, 1, bucket_count(rows.len()))
    }

    /// Groups `rows` as one partition fed by one map chunk.
    fn group_routed(rows: &[(u64, u64, u64)]) -> GroupedRun<u64, u64> {
        group_buckets(vec![routed(rows)])
    }

    #[test]
    fn grouping_splits_full_fingerprint_collisions_by_key() {
        // Three distinct keys share one fingerprint; values interleave.
        // The probe pass must detect the collision and fall back to the
        // exact sort-based path.
        let mut run = group_routed(&[
            (7, 100, 0),
            (7, 200, 1),
            (7, 100, 2),
            (7, 300, 3),
            (7, 200, 4),
            (7, 100, 5),
        ]);
        run.sort_groups_by_key();
        assert_eq!(
            groups_of(&run),
            vec![(100, vec![0, 2, 5]), (200, vec![1, 4]), (300, vec![3]),]
        );
    }

    #[test]
    fn collisions_across_chunk_segments_group_in_arrival_order() {
        // One bucket fed by three map chunks; distinct keys sharing one
        // fabricated fingerprint arrive from different chunks. The bucket
        // is the chunks' segments in chunk order, so the cold path must
        // split the keys exactly and keep that order inside each key.
        let mut run = group_buckets(vec![
            routed(&[(9, 100, 0), (9, 200, 1)]),
            routed(&[]),
            routed(&[(9, 200, 2), (9, 100, 3), (9, 300, 4)]),
            routed(&[(9, 300, 5), (9, 100, 6)]),
        ]);
        run.sort_groups_by_key();
        assert_eq!(
            groups_of(&run),
            vec![(100, vec![0, 3, 6]), (200, vec![1, 2]), (300, vec![4, 5]),]
        );
    }

    #[test]
    fn collision_bucket_coexists_with_clean_buckets() {
        // One fabricated collision among ordinary pairs: only the
        // affected bucket takes the cold path; the rest group by table.
        let mut rows: Vec<(u64, u64, u64)> = (0..5_000u64)
            .map(|i| (fingerprint_of(&(i % 50)), i % 50, i))
            .collect();
        assert!(bucket_count(rows.len()) > 1, "need several buckets");
        rows.push((fingerprint_of(&3u64), 1_000, 777)); // same print, new key
        let mut run = group_routed(&rows);
        run.sort_groups_by_key();
        assert_eq!(run.len(), 51);
        let by_key = groups_of(&run);
        assert_eq!(by_key[50], (1_000, vec![777]));
        let expect3: Vec<u64> = (0..5_000).filter(|v| v % 50 == 3).collect();
        assert_eq!(by_key[3], (3, expect3));
    }

    #[test]
    fn grouping_preserves_arrival_order_within_key() {
        let rows: Vec<(u64, u64, u64)> = (0..100)
            .map(|i| (fingerprint_of(&(i % 7)), i % 7, i))
            .collect();
        let mut run = group_routed(&rows);
        run.sort_groups_by_key();
        assert_eq!(run.len(), 7);
        for gi in 0..run.len() {
            let k = run.groups[gi].key;
            let expect: Vec<u64> = (0..100).filter(|v| v % 7 == k).collect();
            assert_eq!(run.values_of(gi), expect.as_slice(), "key {k}");
        }
    }

    #[test]
    fn grouping_large_partition_uses_buckets_and_stays_exact() {
        // Big enough that bucket_count > 1: 20_000 pairs over 5_000 keys.
        let rows: Vec<(u64, u64, u64)> = (0..20_000u64)
            .map(|i| {
                let k = (i * 2_654_435_761) % 5_000;
                (fingerprint_of(&k), k, i)
            })
            .collect();
        assert!(bucket_count(rows.len()) > 1);
        let mut run = group_routed(&rows);
        run.sort_groups_by_key();
        assert_eq!(run.len(), 5_000);
        // Keys ascend and every value is in arrival order.
        for w in run.groups.windows(2) {
            assert!(w[0].key < w[1].key);
        }
        for gi in 0..run.len() {
            let vs = run.values_of(gi);
            assert!(vs.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(run.values.len(), 20_000);
    }

    #[test]
    fn grouping_moves_every_value_and_the_run_drops_each_once() {
        // Drop-counting values, fed by two map chunks, through hot
        // buckets and one bucket holding a fabricated full-fingerprint
        // collision: grouping moves values and never drops one, and
        // dropping the run drops every value exactly once.
        struct Tracked<'a>(&'a AtomicUsize);
        impl Drop for Tracked<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut rows: Vec<(u64, u64)> = (0..5_000u64)
            .map(|i| (fingerprint_of(&(i % 50)), i % 50))
            .collect();
        rows.push((fingerprint_of(&3u64), 1_000)); // same print, new key
        let drops: Vec<AtomicUsize> = rows.iter().map(|_| AtomicUsize::new(0)).collect();
        let bc = bucket_count(rows.len());
        assert!(bc > 1, "need several buckets");
        let chunks = rows
            .chunks(2_000)
            .zip(drops.chunks(2_000))
            .map(|(rows, drops)| {
                let mut columns: Vec<_> = (0..bc).map(|_| ColumnBuf::with_capacity(0)).collect();
                for (&(h, k), d) in rows.iter().zip(drops) {
                    columns[column_of(h, 1, bc)].push(h, k, Tracked(d));
                }
                columns
            })
            .collect();
        let run = group_buckets(chunks);
        assert_eq!(run.len(), 51);
        assert_eq!(run.values.len(), rows.len());
        let dropped = |times| drops.iter().all(|d| d.load(Ordering::Relaxed) == times);
        assert!(dropped(0), "grouping dropped a value");
        drop(run);
        assert!(dropped(1), "a value was not dropped exactly once");
    }

    #[test]
    fn hot_and_cold_grouping_agree() {
        // The table path and the sort path must produce identical groups
        // (after the key sort) on the same pairs.
        let rows: Vec<(u64, u64, u64)> = (0..2_000u64)
            .map(|i| {
                let k = (i * 7 + 1) % 311;
                (fingerprint_of(&k), k, i)
            })
            .collect();
        let mut hot = GroupedRun {
            groups: Vec::new(),
            values: Vec::new(),
        };
        group_bucket_hashed(
            buf_with_hashes(&rows),
            &mut hot,
            &mut GroupScratch::default(),
        );
        hot.sort_groups_by_key();
        let mut cold = GroupedRun {
            groups: Vec::new(),
            values: Vec::new(),
        };
        group_bucket_sorted(buf_with_hashes(&rows), &mut cold);
        cold.sort_groups_by_key();
        assert_eq!(groups_of(&hot), groups_of(&cold));
    }

    #[test]
    fn merge_interleaves_disjoint_runs_in_key_order() {
        let mut a = group_routed(&[
            (fingerprint_of(&1u64), 1, 10),
            (fingerprint_of(&5u64), 5, 50),
        ]);
        a.sort_groups_by_key();
        let mut b = group_routed(&[
            (fingerprint_of(&2u64), 2, 20),
            (fingerprint_of(&4u64), 4, 40),
        ]);
        b.sort_groups_by_key();
        let shuffled = Shuffled::merge(vec![a, b]);
        let keys: Vec<u64> = (0..shuffled.len()).map(|i| *shuffled.entry(i).0).collect();
        assert_eq!(keys, vec![1, 2, 4, 5]);
        assert_eq!(shuffled.loads(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn single_run_merge_is_identity() {
        let mut run = group_routed(&[
            (fingerprint_of(&3u64), 3, 30),
            (fingerprint_of(&1u64), 1, 10),
            (fingerprint_of(&2u64), 2, 20),
        ]);
        run.sort_groups_by_key();
        let shuffled = Shuffled::merge(vec![run]);
        assert_eq!(shuffled.len(), 3);
        let keys: Vec<u64> = (0..shuffled.len()).map(|i| *shuffled.entry(i).0).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(shuffled.loads(), vec![1, 1, 1]);
    }

    #[test]
    fn routing_preserves_arrival_order_and_counts() {
        // Three partitions (not a power of two) of four buckets each:
        // every (partition, bucket) segment holds only the fingerprints
        // routed to it, in arrival order, and no pair is lost.
        let (p, bc) = (3usize, 4usize);
        let rows: Vec<(u64, u64, u64)> = (0..1000u64)
            .map(|i| (fingerprint_of(&(i % 64)), i % 64, i))
            .collect();
        let columns = route(&rows, p, bc);
        assert_eq!(columns.len(), p * bc);
        let mut total = 0;
        for (pi, buckets) in columns.chunks(bc).enumerate() {
            for (b, bucket) in buckets.iter().enumerate() {
                assert!(bucket
                    .hashes
                    .iter()
                    .all(|&h| partition_of_hash(h, p) == pi && (h as usize & (bc - 1)) == b));
                // Within a segment, values (== arrival stamps) strictly ascend.
                assert!(bucket.vals.windows(2).all(|w| w[0] < w[1]));
                total += bucket.len();
            }
        }
        assert_eq!(total, 1000);
    }

    #[test]
    fn bucket_count_policy() {
        assert_eq!(bucket_count(1), 1);
        assert_eq!(bucket_count(1024), 1);
        assert_eq!(bucket_count(4096), 4);
        assert_eq!(bucket_count(300_000), 256);
        assert_eq!(bucket_count(10_000_000), 256);
    }

    /// A directory of `n` distinct keys produced by a multiplicative
    /// scramble (so arrival order is far from sorted), with start/len
    /// payloads tied to the key to verify descriptors move as units.
    fn scrambled_directory(n: u64) -> Vec<Group<u64>> {
        (0..n)
            .map(|i| {
                let key = ((i * 2_654_435_761) % (1 << 40)) | (i << 40);
                Group {
                    key,
                    start: (key % 7_919) as u32,
                    len: (key % 13) as u32 + 1,
                }
            })
            .collect()
    }

    #[test]
    fn radix_directory_sort_matches_comparison_sort() {
        // Both sides of the RADIX_MIN threshold, for both radix-capable
        // key widths: the sorted directory must be byte-identical to
        // what the comparison sort produces (same keys AND payloads).
        for n in [
            RADIX_MIN as u64 / 2, // below threshold: comparison path
            RADIX_MIN as u64,     // at threshold: radix path
            RADIX_MIN as u64 * 4, // well above
        ] {
            let groups64 = scrambled_directory(n);
            let mut expect: Vec<(u64, u32, u32)> =
                groups64.iter().map(|g| (g.key, g.start, g.len)).collect();
            expect.sort_unstable();
            let mut run = GroupedRun {
                groups: groups64,
                values: Vec::<u8>::new(),
            };
            run.sort_groups_by_key();
            let got: Vec<(u64, u32, u32)> =
                run.groups.iter().map(|g| (g.key, g.start, g.len)).collect();
            assert_eq!(got, expect, "u64 keys, n={n}");

            let groups32: Vec<Group<u32>> = (0..n as u32)
                .map(|i| Group {
                    key: i.wrapping_mul(2_654_435_761),
                    start: i,
                    len: 1,
                })
                .collect();
            let mut expect32: Vec<u32> = groups32.iter().map(|g| g.key).collect();
            expect32.sort_unstable();
            let mut run32 = GroupedRun {
                groups: groups32,
                values: Vec::<u8>::new(),
            };
            run32.sort_groups_by_key();
            let got32: Vec<u32> = run32.groups.iter().map(|g| g.key).collect();
            assert_eq!(got32, expect32, "u32 keys, n={n}");
        }
    }

    #[test]
    fn radix_sort_handles_degenerate_directories() {
        // Empty, singleton, and all-equal-key directories short-circuit
        // on `varying == 0` without touching the scratch machinery.
        let mut empty: Vec<Group<u64>> = Vec::new();
        radix_sort_groups(&mut empty);
        assert!(empty.is_empty());
        let mut same: Vec<Group<u64>> = (0..10)
            .map(|i| Group {
                key: 42,
                start: i,
                len: 1,
            })
            .collect();
        radix_sort_groups(&mut same);
        assert_eq!(same.len(), 10);
        // Stable: equal keys keep arrival order.
        assert!(same.windows(2).all(|w| w[0].start < w[1].start));
    }

    #[test]
    fn non_radix_keys_take_the_comparison_path() {
        // String keys can't downcast to u64/u32; the fallback must still
        // sort correctly above the threshold.
        let n = RADIX_MIN * 2;
        let groups: Vec<Group<String>> = (0..n)
            .map(|i| Group {
                key: format!("k{:06}", (i * 7919) % n),
                start: i as u32,
                len: 1,
            })
            .collect();
        let mut run = GroupedRun {
            groups,
            values: Vec::<u8>::new(),
        };
        run.sort_groups_by_key();
        assert!(run.groups.windows(2).all(|w| w[0].key < w[1].key));
    }
}
