//! The columnar shuffle data plane.
//!
//! This module is the engine's hot path. Instead of inserting every
//! `(reducer id, input)` emission into a per-partition `BTreeMap`
//! (comparison-bound, pointer-chasing, one allocation per distinct key),
//! the shuffle moves flat **columns** of `(reducer id, input position)`
//! pairs — a `u64` and a `u32`, whatever the input type. The input itself
//! never crosses the shuffle: the pair names it by its index in the
//! round's input slice, and the reduce phase gathers it by that index.
//!
//! 1. **Route by fingerprint at emit.** Every key — a
//!    [`ReducerId`](crate::schema::ReducerId) — is hashed, as the
//!    assignment emits it, to a seed-free 64-bit fingerprint
//!    ([`fingerprint_of`]) that picks its column. Emissions land in
//!    [`ColumnBuf`]s — two parallel arrays `(keys, positions)`, the
//!    paper's key-value pairs with the value named by its index — so the
//!    map phase is pure appends.
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
//!    reducer id to a group id in one `O(n)` pass — no per-pair sort at
//!    all ([`group_buckets`]). The fingerprint, re-derived from the id,
//!    only picks where a probe starts; a slot matches when its group's id
//!    equals the pair's, so distinct ids never share a group. Groups are
//!    discovered in first-arrival order, so a prefix sum over group sizes
//!    places every position with one more, bounds-checked, pass.
//!
//! The result is a [`GroupedRun`]: a flat `positions` column holding
//! every group's input positions contiguously (arrival order within a
//! group) plus one [`Group`] descriptor per distinct key — no per-key
//! `Vec`, no tree nodes. Sorting the group *descriptors* by key
//! ([`GroupedRun::sort_groups_by_key`]) then restores the engine's
//! determinism contract — outputs in ascending key order, inputs in
//! emission order within a key — at the cost of one sort over distinct
//! keys instead of one over all pairs; for large directories even that
//! is an `O(n)` LSD radix sort rather than a comparison sort. The dev-only `mr-oracle` crate keeps
//! the old `BTreeMap` pipeline as the regression oracle proving the two
//! paths byte-identical.

use std::hash::Hasher;

/// Multiplier of the MUM fingerprint mix (the splitmix64 increment — an
/// odd constant with well-spread bits).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Nonzero seed state so the all-zero input does not fix-point to zero.
const SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// A deterministic, seed-free fingerprint hasher.
///
/// `std`'s `RandomState` is randomly seeded per process, which would make
/// partition loads — and the perf ledger's partition counts — irreproducible;
/// this hasher produces the same fingerprint for the same key on every
/// run. Every key the data plane hashes is a [`ReducerId`](crate::schema::ReducerId),
/// a `u64`, and a `u64` write is one MUM step (wyhash's primitive: a
/// 64×64→128 multiply whose halves are folded together with xor — a
/// single widening multiply instruction, yet every input bit reaches both
/// the top output bits that route partitions and the low bits that select
/// radix buckets). The hash runs twice per emitted pair — to route it at
/// emit and to start its probe when its bucket is grouped — so its
/// latency is hot in both phases; this is deliberately the cheapest mix
/// that still passes the spread tests below.
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
    /// One step per byte: the `Hasher` contract's general write, which no
    /// `u64` key reaches.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Every write already ran a full MUM avalanche; no extra
        // finalisation pass is needed.
        self.0
    }
}

/// The reducer id's 64-bit shuffle fingerprint: its route at emit time
/// and its probe start when its bucket is grouped.
#[inline]
pub(crate) fn fingerprint_of(key: u64) -> u64 {
    let mut h = FingerprintHasher::default();
    h.write_u64(key);
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

/// Flat, append-only emission storage: two parallel columns
/// `(keys, positions)` of equal length, one entry per key-value pair.
/// This is the unit the map phase routes into and the grouping stage
/// consumes — `(key, input)` pairs never exist as boxed, tree-resident or
/// copied inputs anywhere in the data plane.
pub(crate) struct ColumnBuf {
    /// Emitted reducer ids, in emission order.
    pub keys: Vec<u64>,
    /// The position, in the round's input slice, of each emitted input.
    pub positions: Vec<u32>,
}

impl ColumnBuf {
    /// An empty buffer with both columns preallocated for `n`
    /// emissions, so a column whose share of the round is known (or
    /// bounded) never grows mid-map.
    pub fn with_capacity(n: usize) -> Self {
        ColumnBuf {
            keys: Vec::with_capacity(n),
            positions: Vec::with_capacity(n),
        }
    }

    /// Number of buffered emissions.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Appends a pair.
    #[inline]
    pub fn push(&mut self, key: u64, position: u32) {
        self.keys.push(key);
        self.positions.push(position);
    }

    /// Appends all of `other`'s emissions (in order) to `self`.
    pub fn append(&mut self, mut other: ColumnBuf) {
        self.keys.append(&mut other.keys);
        self.positions.append(&mut other.positions);
    }

    /// Drains `segments` into one buffer, in order. A lone segment moves
    /// as is; several are copied once into an exactly sized buffer.
    fn concat(segments: &mut Vec<ColumnBuf>) -> ColumnBuf {
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

/// One reduce group: a distinct key and the `positions[start..start + len]`
/// slice of its [`GroupedRun`]. Deliberately *without* the key's
/// fingerprint: the hash has done its routing and grouping work by the
/// time a descriptor exists, and dropping it keeps the directory — the
/// thing [`GroupedRun::sort_groups_by_key`] moves around — as small as
/// possible (16 bytes instead of 24).
#[derive(Clone, Copy)]
pub(crate) struct Group {
    /// The distinct reduce key.
    pub key: u64,
    /// Offset of the group's first position in the run's `positions` column.
    pub start: u32,
    /// Number of positions in the group — the reducer's load.
    pub len: u32,
}

/// A grouped shuffle partition: one flat `positions` column holding
/// every group's input positions contiguously (emission order within a
/// group), plus one [`Group`] descriptor per distinct key. Produced in
/// deterministic (bucket, first-arrival) order by [`group_buckets`];
/// [`sort_groups_by_key`](Self::sort_groups_by_key) reorders the
/// descriptors (not the positions) into ascending key order.
pub(crate) struct GroupedRun {
    /// Group descriptors. Keys are distinct within a run.
    pub groups: Vec<Group>,
    /// Every group's input positions, concatenated.
    pub positions: Vec<u32>,
}

impl GroupedRun {
    /// Number of distinct keys (reducers) in the run.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// The input positions of group `g`.
    #[inline]
    pub fn positions_of(&self, g: &Group) -> &[u32] {
        &self.positions[g.start as usize..(g.start + g.len) as usize]
    }

    /// Sorts the group descriptors into ascending key order. Positions
    /// stay put — descriptors carry their `(start, len)` windows with
    /// them — so this costs one pass over *distinct keys*, not over
    /// pairs. Keys are distinct within a run, so the order is total and
    /// deterministic.
    ///
    /// Large directories take an LSD radix path — `O(n)` counting passes
    /// over the key bytes that actually vary — which was the one
    /// comparison sort left on the columnar plane. Anything below
    /// [`RADIX_MIN`], where one comparison sort beats eight counting
    /// passes, takes `sort_unstable_by_key`. Both give the same order.
    pub fn sort_groups_by_key(&mut self) {
        if self.groups.len() >= RADIX_MIN {
            radix_sort_groups(&mut self.groups);
        } else {
            self.groups.sort_unstable_by_key(|g| g.key);
        }
    }
}

/// Directory length below which the comparison sort wins: a radix pass
/// costs up to eight full counting sweeps regardless of size, so small
/// directories are cheaper to pdqsort.
const RADIX_MIN: usize = 2048;

/// LSD radix sort of a group directory by key: one stable counting pass
/// per key byte, low to high, skipping bytes that are constant across
/// the directory (for dense key spaces most of the high bytes are).
fn radix_sort_groups(groups: &mut Vec<Group>) {
    let mut or_all = 0u64;
    let mut and_all = u64::MAX;
    for g in groups.iter() {
        or_all |= g.key;
        and_all &= g.key;
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
            counts[((g.key >> shift) & 0xFF) as usize] += 1;
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, c) in offsets.iter_mut().zip(counts) {
            *o = acc;
            acc += c;
        }
        for g in &src {
            let b = ((g.key >> shift) & 0xFF) as usize;
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
    /// Open-addressing probe table: reducer id → local group id
    /// (`u32::MAX` = empty), probed from the id's fingerprint. Sized to
    /// 2× the bucket, power of two.
    table: Vec<u32>,
    /// Local group id of each bucket position.
    group_of: Vec<u32>,
    /// First-arrival bucket position of each local group (ascending).
    reps: Vec<u32>,
    /// Member count of each local group.
    lens: Vec<u32>,
    /// Prefix sums of `lens`: each group's offset in the bucket's
    /// segment of the positions column. Consumed as write cursors by the
    /// position scatter.
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
/// [`GroupedRun::sort_groups_by_key`]. Within every group, positions are
/// in arrival (= emission) order.
pub(crate) fn group_buckets(chunks: Vec<Vec<ColumnBuf>>) -> GroupedRun {
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
        positions: Vec::with_capacity(total),
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
        group_bucket_hashed(&ColumnBuf::concat(&mut segments), &mut run, &mut scratch);
    }
    run
}

/// Groups one radix bucket with a linear-probing table keyed by reducer
/// id — `O(n)`, no sorting — and appends its groups to `out`. The probe
/// pass assigns each pair a local group id in first-arrival order; the
/// scatter pass writes each input position to its group's next slot.
fn group_bucket_hashed(bucket: &ColumnBuf, out: &mut GroupedRun, scratch: &mut GroupScratch) {
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
    let ColumnBuf { keys, positions } = bucket;

    // Probe: one pass assigns local group ids in first-arrival order.
    // The table holds group ids; a slot's id lives in `keys[reps[slot]]`,
    // keeping the table itself 4 bytes per slot so a whole bucket's table
    // stays cache-resident. The probe starts at the id's fingerprint,
    // skipping the low 8 bits — those selected the bucket and are
    // constant here.
    let tsize = (n * 2).next_power_of_two();
    let tmask = tsize - 1;
    table.clear();
    table.resize(tsize, u32::MAX);
    group_of.clear();
    reps.clear();
    lens.clear();
    for (j, &key) in keys.iter().enumerate() {
        let mut idx = (fingerprint_of(key) >> 8) as usize & tmask;
        let gid = loop {
            let slot = table[idx];
            if slot == u32::MAX {
                let g = reps.len() as u32;
                table[idx] = g;
                reps.push(j as u32);
                lens.push(0);
                break g;
            }
            if keys[reps[slot as usize] as usize] == key {
                break slot;
            }
            idx = (idx + 1) & tmask;
        };
        lens[gid as usize] += 1;
        group_of.push(gid);
    }

    // Prefix-sum the group sizes into per-group offsets (relative to
    // this bucket's segment of the output column).
    let g = reps.len();
    starts.clear();
    starts.reserve(g);
    let mut acc = 0u32;
    for &l in lens.iter() {
        starts.push(acc);
        acc += l;
    }

    // Directory: one descriptor per group, keyed by its first arrival.
    let base = out.positions.len() as u32;
    out.groups.reserve(g);
    for ((&rep, &len), &start) in reps.iter().zip(lens.iter()).zip(starts.iter()) {
        out.groups.push(Group {
            key: keys[rep as usize],
            start: base + start,
            len,
        });
    }

    // Positions: one scatter pass writes every position to its final
    // slot in the bucket's segment, advancing its group's cursor. The
    // cursors cover exactly the offsets `0..n`, each once; both writes
    // are bounds-checked.
    let old_len = out.positions.len();
    out.positions.resize(old_len + n, 0);
    let segment = &mut out.positions[old_len..];
    for (&gid, &position) in group_of.iter().zip(positions) {
        let cursor = &mut starts[gid as usize];
        segment[*cursor as usize] = position;
        *cursor += 1;
    }
}

/// The merged view over every partition's [`GroupedRun`]: a global
/// ascending-key order across runs, without moving any positions.
///
/// Keys are disjoint across runs (hash partitioning), so a P-way merge of
/// the per-run ascending key sequences yields the exact global key order
/// a single sorted map would have produced. The merge materialises only
/// `(run, group)` index pairs — and for the common single-partition case
/// not even that: one run's directory already *is* the global order, so
/// the view indexes it directly.
pub(crate) struct Shuffled {
    /// One grouped run per shuffle partition, groups ascending by key.
    runs: Vec<GroupedRun>,
    /// `(run index, group index)` pairs in global ascending key order;
    /// `None` when there is exactly one run (identity order).
    order: Option<Vec<(u32, u32)>>,
}

impl Shuffled {
    /// Merges per-partition runs (each with groups already ascending by
    /// key, keys disjoint across runs) into one globally key-ordered
    /// view.
    pub fn merge(runs: Vec<GroupedRun>) -> Self {
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

    /// Total number of reduce groups.
    pub fn len(&self) -> usize {
        match &self.order {
            Some(order) => order.len(),
            None => self.runs[0].len(),
        }
    }

    /// The `i`-th group in global key order: `(key, input positions)`.
    /// Random access twin of [`for_each_in`](Self::for_each_in), which
    /// the engine's batch loops use instead.
    #[cfg(test)]
    pub fn entry(&self, i: usize) -> (u64, &[u32]) {
        let (run, g) = match &self.order {
            Some(order) => {
                let (r, g) = order[i];
                (&self.runs[r as usize], g as usize)
            }
            None => (&self.runs[0], i),
        };
        (run.groups[g].key, run.positions_of(&run.groups[g]))
    }

    /// Applies `f` to every group in `range` of the global key order,
    /// with its input positions — the reduce phase's inner loop.
    /// Dispatching on the order representation once per *range* (instead
    /// of once per entry, as [`entry`](Self::entry) must) keeps the
    /// single-run fast path a straight directory walk.
    pub fn for_each_in(&self, range: std::ops::Range<usize>, mut f: impl FnMut(u64, &[u32])) {
        match &self.order {
            None => {
                let run = &self.runs[0];
                for g in &run.groups[range] {
                    f(g.key, run.positions_of(g));
                }
            }
            Some(order) => {
                for &(r, gi) in &order[range] {
                    let run = &self.runs[r as usize];
                    let g = &run.groups[gi as usize];
                    f(g.key, run.positions_of(g));
                }
            }
        }
    }

    /// Total number of pairs: every run's positions.
    pub fn pairs(&self) -> usize {
        self.runs.iter().map(|run| run.positions.len()).sum()
    }

    /// Per-group loads (position counts) in global key order.
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

    #[test]
    fn fingerprints_are_stable_and_spread() {
        for k in 0u64..500 {
            assert_eq!(fingerprint_of(k), fingerprint_of(k));
        }
        // 500 distinct keys must reach every one of 8 partitions.
        let mut seen = [false; 8];
        for k in 0u64..500 {
            seen[partition_of_hash(fingerprint_of(k), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "hash failed to reach a partition");
        // And every one of 16 low-bit buckets.
        let mut low = [false; 16];
        for k in 0u64..500 {
            low[(fingerprint_of(k) & 15) as usize] = true;
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

    fn groups_of(run: &GroupedRun) -> Vec<(u64, Vec<u32>)> {
        run.groups
            .iter()
            .map(|g| (g.key, run.positions_of(g).to_vec()))
            .collect()
    }

    /// Routes `(key, position)` rows as one map chunk into `p × bc`
    /// columns by [`column_of`], partition-major.
    fn route(rows: &[(u64, u32)], p: usize, bc: usize) -> Vec<ColumnBuf> {
        let mut columns: Vec<_> = (0..p * bc).map(|_| ColumnBuf::with_capacity(0)).collect();
        for &(k, v) in rows {
            columns[column_of(fingerprint_of(k), p, bc)].push(k, v);
        }
        columns
    }

    /// Routes `rows` as one map chunk into the `bucket_count(rows.len())`
    /// buckets of one partition.
    fn routed(rows: &[(u64, u32)]) -> Vec<ColumnBuf> {
        route(rows, 1, bucket_count(rows.len()))
    }

    /// Groups `rows` as one partition fed by one map chunk.
    fn group_routed(rows: &[(u64, u32)]) -> GroupedRun {
        group_buckets(vec![routed(rows)])
    }

    /// The first `count` reducer ids from 100 up that share one radix
    /// bucket (of `bucket_count(n)`) and one probe start in the table of
    /// a bucket holding `n` pairs, in ascending order: every id after the
    /// first must probe past the groups of the ids before it.
    fn probe_mates(count: usize, n: usize) -> Vec<u64> {
        let bmask = bucket_count(n) as u64 - 1;
        let tmask = (n * 2).next_power_of_two() as u64 - 1;
        let start = |k: u64| {
            let h = fingerprint_of(k);
            (h & bmask, (h >> 8) & tmask)
        };
        let first = start(100);
        (100..).filter(|&k| start(k) == first).take(count).collect()
    }

    #[test]
    fn grouping_splits_probe_collisions_by_key() {
        // Three distinct ids share one probe start; positions interleave.
        // The probe must tell the ids apart and walk past a foreign
        // group to find or open each id's own.
        let k = probe_mates(3, 6);
        let mut run = group_routed(&[
            (k[0], 0),
            (k[1], 1),
            (k[0], 2),
            (k[2], 3),
            (k[1], 4),
            (k[0], 5),
        ]);
        run.sort_groups_by_key();
        assert_eq!(
            groups_of(&run),
            vec![(k[0], vec![0, 2, 5]), (k[1], vec![1, 4]), (k[2], vec![3])]
        );
    }

    #[test]
    fn collisions_across_chunk_segments_group_in_arrival_order() {
        // One bucket fed by four map chunks; distinct ids sharing one
        // probe start arrive from different chunks. The bucket is the
        // chunks' segments in chunk order, so grouping must split the ids
        // exactly and keep that order inside each id.
        let k = probe_mates(3, 7);
        let mut run = group_buckets(vec![
            routed(&[(k[0], 0), (k[1], 1)]),
            routed(&[]),
            routed(&[(k[1], 2), (k[0], 3), (k[2], 4)]),
            routed(&[(k[2], 5), (k[0], 6)]),
        ]);
        run.sort_groups_by_key();
        assert_eq!(
            groups_of(&run),
            vec![
                (k[0], vec![0, 3, 6]),
                (k[1], vec![1, 2]),
                (k[2], vec![4, 5])
            ]
        );
    }

    #[test]
    fn grouping_preserves_arrival_order_within_key() {
        let rows: Vec<(u64, u32)> = (0..100u32).map(|i| (u64::from(i % 7), i)).collect();
        let mut run = group_routed(&rows);
        run.sort_groups_by_key();
        assert_eq!(run.len(), 7);
        for g in &run.groups {
            let k = g.key;
            let expect: Vec<u32> = (0..100u32).filter(|v| u64::from(v % 7) == k).collect();
            assert_eq!(run.positions_of(g), expect.as_slice(), "key {k}");
        }
    }

    #[test]
    fn grouping_large_partition_uses_buckets_and_stays_exact() {
        // Big enough that bucket_count > 1: 20_000 pairs over 5_000 keys.
        let rows: Vec<(u64, u32)> = (0..20_000u32)
            .map(|i| ((u64::from(i) * 2_654_435_761) % 5_000, i))
            .collect();
        assert!(bucket_count(rows.len()) > 1);
        let mut run = group_routed(&rows);
        run.sort_groups_by_key();
        assert_eq!(run.len(), 5_000);
        // Keys ascend and every position is in arrival order.
        for w in run.groups.windows(2) {
            assert!(w[0].key < w[1].key);
        }
        for g in &run.groups {
            let ps = run.positions_of(g);
            assert!(ps.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(run.positions.len(), 20_000);
    }

    #[test]
    fn grouping_moves_every_value_and_the_run_drops_each_once() {
        // Input positions fed by two map chunks into several buckets,
        // each position emitted once: grouping writes every position to
        // exactly one slot of the run (none lost, none written twice),
        // and each group holds exactly its key's positions in order.
        let mut keys: Vec<u64> = (0..5_000u64).map(|i| i % 50).collect();
        keys.push(1_000);
        let bc = bucket_count(keys.len());
        assert!(bc > 1, "need several buckets");
        let chunks = keys
            .chunks(2_000)
            .zip((0u32..).step_by(2_000))
            .map(|(keys, base)| {
                let mut columns: Vec<_> = (0..bc).map(|_| ColumnBuf::with_capacity(0)).collect();
                for (&k, position) in keys.iter().zip(base..) {
                    columns[column_of(fingerprint_of(k), 1, bc)].push(k, position);
                }
                columns
            })
            .collect();
        let run = group_buckets(chunks);
        assert_eq!(run.len(), 51);
        assert_eq!(run.positions.len(), keys.len());
        let mut written = vec![0u32; keys.len()];
        for &position in &run.positions {
            written[position as usize] += 1;
        }
        assert!(
            written.iter().all(|&times| times == 1),
            "a position was lost or written twice"
        );
        for g in &run.groups {
            let expect: Vec<u32> = (0u32..)
                .zip(&keys)
                .filter(|&(_, &k)| k == g.key)
                .map(|(position, _)| position)
                .collect();
            assert_eq!(run.positions_of(g), expect.as_slice(), "key {}", g.key);
        }
    }

    #[test]
    fn merge_interleaves_disjoint_runs_in_key_order() {
        let mut a = group_routed(&[(1, 10), (5, 50)]);
        a.sort_groups_by_key();
        let mut b = group_routed(&[(2, 20), (4, 40)]);
        b.sort_groups_by_key();
        let shuffled = Shuffled::merge(vec![a, b]);
        let keys: Vec<u64> = (0..shuffled.len()).map(|i| shuffled.entry(i).0).collect();
        assert_eq!(keys, vec![1, 2, 4, 5]);
        assert_eq!(shuffled.loads(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn single_run_merge_is_identity() {
        let mut run = group_routed(&[(3, 30), (1, 10), (2, 20)]);
        run.sort_groups_by_key();
        let shuffled = Shuffled::merge(vec![run]);
        assert_eq!(shuffled.len(), 3);
        let keys: Vec<u64> = (0..shuffled.len()).map(|i| shuffled.entry(i).0).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(shuffled.loads(), vec![1, 1, 1]);
    }

    #[test]
    fn routing_preserves_arrival_order_and_counts() {
        // Three partitions (not a power of two) of four buckets each:
        // every (partition, bucket) segment holds only the ids whose
        // fingerprints route to it, in arrival order, and no pair is lost.
        let (p, bc) = (3usize, 4usize);
        let rows: Vec<(u64, u32)> = (0..1000u32).map(|i| (u64::from(i % 64), i)).collect();
        let columns = route(&rows, p, bc);
        assert_eq!(columns.len(), p * bc);
        let mut total = 0;
        for (pi, buckets) in columns.chunks(bc).enumerate() {
            for (b, bucket) in buckets.iter().enumerate() {
                assert!(bucket.keys.iter().all(|&k| {
                    let h = fingerprint_of(k);
                    partition_of_hash(h, p) == pi && (h as usize & (bc - 1)) == b
                }));
                // Within a segment, positions (== arrival stamps) strictly ascend.
                assert!(bucket.positions.windows(2).all(|w| w[0] < w[1]));
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
    fn scrambled_directory(n: u64) -> Vec<Group> {
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
        // Both sides of the RADIX_MIN threshold: the sorted directory
        // must be byte-identical to what the comparison sort produces
        // (same keys AND payloads).
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
                positions: Vec::new(),
            };
            run.sort_groups_by_key();
            let got: Vec<(u64, u32, u32)> =
                run.groups.iter().map(|g| (g.key, g.start, g.len)).collect();
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn radix_sort_handles_degenerate_directories() {
        // Empty, singleton, and all-equal-key directories short-circuit
        // on `varying == 0` without touching the scratch machinery.
        let mut empty: Vec<Group> = Vec::new();
        radix_sort_groups(&mut empty);
        assert!(empty.is_empty());
        let mut same: Vec<Group> = (0..10)
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
}
