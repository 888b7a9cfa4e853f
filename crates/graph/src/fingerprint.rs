//! Canonical structural fingerprints of computation graphs.
//!
//! The analysis service caches one expensive spectral session per graph, so
//! it needs a cache key that (a) is identical for structurally identical
//! graphs regardless of how their vertices happen to be numbered, and
//! (b) collides between *different* graphs only with hash-negligible
//! probability. [`fingerprint`] delivers both with Weisfeiler–Leman color
//! refinement over the CSR adjacency:
//!
//! 1. every vertex starts with a color derived from its operation, its
//!    in/out degree, and its exact longest-path depth from the sources
//!    and height to the sinks (global attributes that catch long-range
//!    differences the bounded refinement below cannot reach),
//! 2. each round re-colors every vertex from its own color plus the
//!    *sorted multisets* of its parents' and children's colors (sorting
//!    makes the round independent of edge order; multisets preserve
//!    parallel edges),
//! 3. after `O(log n)` rounds the fingerprint is a hash of the sorted
//!    final color multiset together with the vertex and edge counts.
//!
//! Every ingredient is a set or sorted multiset, so any relabeling
//! `π: V → V` maps each vertex to the same color sequence and the whole
//! graph to the same [`Fingerprint`]. The converse (fingerprint-equal ⇒
//! structurally equal) holds up to 128-bit hash collisions and the usual
//! WL limits; for the op-labeled, degree-diverse DAGs this workspace
//! analyzes, refinement separates non-isomorphic graphs in practice (this
//! is property-tested against the spectral bounds in `tests/fingerprint.rs`
//! at the workspace root).
//!
//! Refinement costs `O((n + m) log n)` with a sort per vertex per round,
//! which dominates a warm service request. [`FingerprintMemo`] skips it
//! for graphs seen before *with the same labelling*: a bounded [`Memo`]
//! from a cheap one-pass content key of the labelled graph to its
//! fingerprint. The servers key a second [`Memo`] by request-body bytes
//! ([`Memo::bytes_key`]), so a repeated body skips the decode as well.

use crate::dag::CompGraph;
use crate::ops::OpKind;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A 128-bit order-independent structural hash of a [`CompGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Lowercase fixed-width hex form (32 digits), the service's wire
    /// format.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the form produced by [`Fingerprint::to_hex`] — exactly 32
    /// lowercase hex digits; non-canonical spellings (uppercase, signs)
    /// are rejected so each fingerprint has one wire form.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        (s.len() == 32 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
            .then(|| u128::from_str_radix(s, 16).ok())
            .flatten()
            .map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// SplitMix64 finalizer — the mixing primitive for one 64-bit lane.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A vertex color: two independently seeded 64-bit lanes, so the combined
/// fingerprint behaves like a 128-bit hash rather than a 64-bit one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Color(u64, u64);

const LANE0: u64 = 0x8C3F_27A1_5E94_D6B7;
const LANE1: u64 = 0x243F_6A88_85A3_08D3;

impl Color {
    fn seed(tag: u64) -> Color {
        Color(mix(tag ^ LANE0), mix(tag ^ LANE1))
    }

    fn absorb(&mut self, other: Color) {
        self.0 = mix(self.0 ^ other.0.rotate_left(17));
        self.1 = mix(self.1 ^ other.1.rotate_left(29));
    }

    fn absorb_u64(&mut self, v: u64) {
        self.absorb(Color(mix(v ^ LANE0), mix(v ^ LANE1)));
    }
}

/// Stable numeric tag for an operation (relabeling-independent by
/// construction: it depends only on the op itself).
fn op_tag(op: OpKind) -> u64 {
    match op {
        OpKind::Input => 1,
        OpKind::Add => 2,
        OpKind::Sub => 3,
        OpKind::Mul => 4,
        OpKind::Div => 5,
        OpKind::Sum => 6,
        OpKind::Butterfly => 7,
        OpKind::BhkUpdate => 8,
        OpKind::Custom(tag) => 0x100 + tag as u64,
    }
}

/// Longest-path distance of every vertex from the sources (`forward`) or
/// to the sinks (`!forward`), in O(n + m) over a topological sweep. A
/// relabeling-invariant *global* vertex attribute: WL refinement below
/// only propagates information `rounds` hops, so without it two graphs
/// differing only in how long-range path structure is distributed (e.g.
/// chain components of lengths 100+900 vs 500+500) could collide.
fn longest_path_depths(g: &CompGraph, forward: bool) -> Vec<u64> {
    let n = g.n();
    let mut depth = vec![0u64; n];
    let mut indeg: Vec<usize> = (0..n)
        .map(|v| {
            if forward {
                g.in_degree(v)
            } else {
                g.out_degree(v)
            }
        })
        .collect();
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    while let Some(v) = queue.pop() {
        let next = if forward { g.children(v) } else { g.parents(v) };
        for &w in next {
            let w = w as usize;
            depth[w] = depth[w].max(depth[v] + 1);
            indeg[w] -= 1;
            if indeg[w] == 0 {
                queue.push(w);
            }
        }
    }
    depth
}

/// Computes the canonical structural fingerprint of `g` (see module docs).
pub fn fingerprint(g: &CompGraph) -> Fingerprint {
    let n = g.n();
    // Round 0: op + degrees + exact longest-path depth/height.
    let depths = longest_path_depths(g, true);
    let heights = longest_path_depths(g, false);
    let mut colors: Vec<Color> = (0..n)
        .map(|v| {
            let mut c = Color::seed(op_tag(g.op(v)));
            c.absorb_u64(g.in_degree(v) as u64);
            c.absorb_u64(g.out_degree(v) as u64);
            c.absorb_u64(depths[v]);
            c.absorb_u64(heights[v]);
            c
        })
        .collect();

    // O(log n) refinement rounds: enough for the neighborhood signature of
    // every vertex to reach across the graphs' typical diameters while
    // keeping fingerprinting O((n + m) log n).
    let rounds = usize::BITS as usize - n.leading_zeros() as usize + 2;
    let mut next = colors.clone();
    let mut scratch: Vec<Color> = Vec::new();
    for _ in 0..rounds {
        for v in 0..n {
            let mut c = colors[v];
            c.absorb_u64(0x5ca1ab1e); // domain-separate self from neighbors
            for (side, nbrs) in [(0x0au64, g.parents(v)), (0x0bu64, g.children(v))] {
                scratch.clear();
                scratch.extend(nbrs.iter().map(|&u| colors[u as usize]));
                scratch.sort_unstable();
                c.absorb_u64(side);
                for &nc in &scratch {
                    c.absorb(nc);
                }
            }
            next[v] = c;
        }
        std::mem::swap(&mut colors, &mut next);
    }

    // The fingerprint is the hash of the sorted color multiset plus the
    // global counts, so vertex order never matters.
    colors.sort_unstable();
    let mut acc = Color::seed(0x6f70_5f67_7261_7068); // "op_graph"
    acc.absorb_u64(n as u64);
    acc.absorb_u64(g.num_edges() as u64);
    for &c in &colors {
        acc.absorb(c);
    }
    Fingerprint(((acc.0 as u128) << 64) | acc.1 as u128)
}

/// Entries a [`Memo`] holds before it resets. A full fingerprint memo's
/// table (32-byte entries in 8192 buckets) is ≈270 KB.
pub const MEMO_CAPACITY: usize = 4096;

/// Point-in-time counters of a [`Memo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Keys currently memoized.
    pub entries: usize,
    /// The fixed bound on `entries` ([`MEMO_CAPACITY`]).
    pub capacity: usize,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups the memo could not answer.
    pub misses: u64,
    /// Times the memo was full and was cleared to admit a new key.
    pub resets: u64,
}

/// A bounded map from seeded 128-bit keys to values: the one memo type
/// behind [`FingerprintMemo`] (labelled graph → fingerprint) and the
/// servers' request-body memos (body bytes → what they resolved to).
///
/// Keys start from secret per-process seeds (drawn from the standard
/// library's randomly keyed hasher), so a client cannot craft two inputs
/// that share a key; collision odds are then those of a 128-bit hash, no
/// worse than those of the fingerprint itself.
///
/// The memo holds at most [`MEMO_CAPACITY`] keys. Admitting a key into a
/// full memo clears it first (counted in [`MemoStats::resets`]) — cheaper
/// than LRU bookkeeping on every hit, and a reset only costs one
/// recomputation per key still in use.
#[derive(Debug)]
pub struct Memo<V> {
    seeds: [u64; 4],
    /// Secret odd multipliers of [`Memo::bytes_key`]'s four lanes.
    multipliers: [u64; 4],
    map: Mutex<HashMap<u128, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    resets: AtomicU64,
}

impl<V: Clone> Default for Memo<V> {
    fn default() -> Self {
        Memo::new()
    }
}

/// Tags of [`Memo::bytes_key`]'s four lane multipliers, each hashed
/// with the memo's secret state.
const BYTE_LANES: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];

/// The folded multiply: the high and low halves of the 128-bit product
/// `x · c`, XORed. Unlike a wrapping multiply, the output difference of
/// an input difference depends on `x` and `c`, so with a secret `c` no
/// input difference has a known output difference.
fn fold_mul(x: u64, c: u64) -> u64 {
    let p = x as u128 * c as u128;
    (p >> 64) as u64 ^ p as u64
}

impl<V: Clone> Memo<V> {
    /// An empty memo with fresh random seeds.
    pub fn new() -> Memo<V> {
        let state = std::collections::hash_map::RandomState::new();
        let seed = |lane: u64| {
            let mut h = state.build_hasher();
            h.write_u64(lane);
            h.finish()
        };
        Memo {
            seeds: [seed(LANE0), seed(LANE1), seed(LANE0 ^ 1), seed(LANE1 ^ 1)],
            multipliers: BYTE_LANES.map(|tag| seed(tag) | 1),
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            resets: AtomicU64::new(0),
        }
    }

    /// The seeded key of a byte string, at near memory speed: four
    /// independent lanes over 32-byte blocks (the last one zero-padded),
    /// each step a folded multiply by a secret multiplier, finished with
    /// the length through SplitMix. Equal bytes always share a key within
    /// one memo.
    pub fn bytes_key(&self, bytes: &[u8]) -> u128 {
        let mut lanes = self.seeds;
        let multipliers = self.multipliers;
        let mut eat = |block: &[u8]| {
            for (k, lane) in lanes.iter_mut().enumerate() {
                let word = u64::from_le_bytes(block[8 * k..8 * k + 8].try_into().expect("8 bytes"));
                *lane = fold_mul(*lane ^ word, multipliers[k]);
            }
        };
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            eat(block);
        }
        let rest = blocks.remainder();
        let mut tail = [0u8; 32];
        tail[..rest.len()].copy_from_slice(rest);
        eat(&tail);
        let len = bytes.len() as u64;
        let a = mix(lanes[0] ^ mix(lanes[1] ^ len));
        let b = mix(lanes[2] ^ mix(lanes[3] ^ a));
        ((a as u128) << 64) | b as u128
    }

    /// The value memoized under `key`, counted as a hit or a miss.
    pub fn get(&self, key: u128) -> Option<V> {
        let found = self.map.lock().expect("memo lock").get(&key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Memoizes `value` under `key`, clearing a full memo first.
    pub fn insert(&self, key: u128, value: V) {
        let mut map = self.map.lock().expect("memo lock");
        if map.len() >= MEMO_CAPACITY && !map.contains_key(&key) {
            map.clear();
            self.resets.fetch_add(1, Ordering::Relaxed);
        }
        map.insert(key, value);
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            entries: self.map.lock().expect("memo lock").len(),
            capacity: MEMO_CAPACITY,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
        }
    }
}

/// A bounded [`Memo`] from the labelled graph to its [`fingerprint`].
///
/// The key is a 128-bit hash of the labelled graph — `n`, `m`, the op
/// table and the forward CSR — in one `O(n + m)` pass with no sorting,
/// seeded like every [`Memo`] key. Isomorphic graphs under different
/// labellings get different keys and each pays one refinement; they still
/// resolve to the same fingerprint.
#[derive(Debug, Default)]
pub struct FingerprintMemo(Memo<Fingerprint>);

impl FingerprintMemo {
    /// An empty memo with fresh random seeds.
    pub fn new() -> FingerprintMemo {
        FingerprintMemo(Memo::new())
    }

    /// The seeded content key of the labelled graph `g` (see the type
    /// docs). Equal labelled graphs always share a key within one memo.
    fn content_key(&self, g: &CompGraph) -> u128 {
        let (ptr, idx) = g.children_csr();
        let [mut a, mut b, ..] = self.0.seeds;
        let mut eat = |w: u64| {
            a = mix(a ^ w);
            b = mix(b ^ w.rotate_left(29));
        };
        // The counts fix every section's length, so the word stream
        // parses one way only.
        eat(g.n() as u64);
        eat(idx.len() as u64);
        for &op in g.ops() {
            eat(op_tag(op));
        }
        for &p in &ptr[1..] {
            eat(p as u64);
        }
        for pair in idx.chunks(2) {
            eat(pair[0] as u64 | (pair.get(1).copied().unwrap_or(0) as u64) << 32);
        }
        ((a as u128) << 64) | b as u128
    }

    /// The fingerprint of `g`: memoized under its content key, refined
    /// (and memoized) on a miss.
    pub fn fingerprint(&self, g: &CompGraph) -> Fingerprint {
        let key = self.content_key(g);
        if let Some(fp) = self.0.get(key) {
            return fp;
        }
        // Refine outside the lock: concurrent misses on one graph may
        // both refine, and agree.
        let fp = fingerprint(g);
        self.0.insert(key, fp);
        fp
    }

    /// Point-in-time counters (a miss is one refinement).
    pub fn stats(&self) -> MemoStats {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{EdgeListGraph, GraphBuilder};
    use crate::generators::{diamond_dag, fft_butterfly, naive_matmul};

    /// Rebuilds `g` with vertices renamed by `perm[v]`.
    fn relabel(g: &CompGraph, perm: &[u32]) -> CompGraph {
        let mut ops = vec![OpKind::Input; g.n()];
        for v in 0..g.n() {
            ops[perm[v] as usize] = g.op(v);
        }
        let edges = g
            .edges()
            .map(|(u, v)| (perm[u], perm[v]))
            .collect::<Vec<_>>();
        CompGraph::try_from(EdgeListGraph { ops, edges }).unwrap()
    }

    #[test]
    fn hex_roundtrips() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(fp.to_hex().len(), 32);
        assert!(Fingerprint::from_hex("xyz").is_none());
        assert!(Fingerprint::from_hex("00").is_none());
        // Only the canonical spelling is accepted.
        assert!(Fingerprint::from_hex("+00000000000000000000000000000ff").is_none());
        assert!(Fingerprint::from_hex("000000000000000000000000000000FF").is_none());
    }

    #[test]
    fn identical_graphs_agree_and_families_differ() {
        let a = fft_butterfly(4);
        let b = fft_butterfly(4);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&fft_butterfly(5)));
        assert_ne!(fingerprint(&a), fingerprint(&naive_matmul(3)));
        assert_ne!(fingerprint(&a), fingerprint(&diamond_dag(4, 4)));
    }

    #[test]
    fn relabeling_preserves_the_fingerprint() {
        let g = naive_matmul(3);
        let n = g.n() as u32;
        // A fixed but thorough permutation: reversal plus a coprime stride.
        let perm: Vec<u32> = (0..n).map(|v| (v.wrapping_mul(31) + 7) % n).collect();
        let mut seen = vec![false; n as usize];
        for &p in &perm {
            assert!(!std::mem::replace(&mut seen[p as usize], true));
        }
        let h = relabel(&g, &perm);
        assert_eq!(fingerprint(&g), fingerprint(&h));
        let rev: Vec<u32> = (0..n).rev().collect();
        assert_eq!(fingerprint(&g), fingerprint(&relabel(&g, &rev)));
    }

    #[test]
    fn edge_direction_and_ops_matter() {
        let mut b = GraphBuilder::new();
        let x = b.add_vertex(OpKind::Input);
        let y = b.add_vertex(OpKind::Add);
        b.add_edge(x, y);
        let g1 = b.build().unwrap();

        let mut b = GraphBuilder::new();
        let x = b.add_vertex(OpKind::Add);
        let y = b.add_vertex(OpKind::Input);
        b.add_edge(x, y);
        let g2 = b.build().unwrap();
        // Same shape, ops swapped across the edge.
        assert_ne!(fingerprint(&g1), fingerprint(&g2));

        let mut b = GraphBuilder::new();
        let x = b.add_vertex(OpKind::Input);
        let y = b.add_vertex(OpKind::Add);
        b.add_edge(x, y);
        b.add_edge(x, y);
        let g3 = b.build().unwrap();
        // Parallel edges are part of the structure.
        assert_ne!(fingerprint(&g1), fingerprint(&g3));
    }

    /// A directed chain of `Add` vertices with an `Input` head.
    fn chain(b: &mut GraphBuilder, len: usize) {
        let mut prev = b.add_vertex(OpKind::Input);
        for _ in 1..len {
            let next = b.add_vertex(OpKind::Add);
            b.add_edge(prev, next);
            prev = next;
        }
    }

    #[test]
    fn long_range_component_structure_is_distinguished() {
        // Same n, m, ops and degree multisets; the difference (how total
        // path length splits across components) sits hundreds of hops
        // from every chain end — beyond any bounded WL radius. The
        // longest-path seeding must separate them.
        let mut b = GraphBuilder::new();
        chain(&mut b, 100);
        chain(&mut b, 900);
        let uneven = b.build().unwrap();
        let mut b = GraphBuilder::new();
        chain(&mut b, 500);
        chain(&mut b, 500);
        let even = b.build().unwrap();
        assert_eq!(uneven.n(), even.n());
        assert_eq!(uneven.num_edges(), even.num_edges());
        assert_ne!(fingerprint(&uneven), fingerprint(&even));
    }

    #[test]
    fn memo_agrees_with_refinement_and_skips_it_on_repeats() {
        let memo = FingerprintMemo::new();
        let g = naive_matmul(3);
        assert_eq!(memo.fingerprint(&g), fingerprint(&g));
        assert_eq!(memo.fingerprint(&g.clone()), fingerprint(&g));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1), "{s:?}");
    }

    #[test]
    fn memo_keys_the_labelling_but_resolves_isomorphic_graphs_alike() {
        let memo = FingerprintMemo::new();
        let g = naive_matmul(3);
        let rev: Vec<u32> = (0..g.n() as u32).rev().collect();
        let relabelled = relabel(&g, &rev);
        assert_ne!(memo.content_key(&g), memo.content_key(&relabelled));
        assert_eq!(memo.fingerprint(&g), memo.fingerprint(&relabelled));
        assert_eq!(memo.stats().misses, 2, "a new labelling refines once");

        // One edge more: a memo miss with its own fingerprint.
        let mut el = g.to_edge_list();
        let (u, v) = el.edges[0];
        el.edges.push((u, v));
        let denser = CompGraph::try_from(el).unwrap();
        assert_ne!(memo.content_key(&g), memo.content_key(&denser));
        assert_eq!(memo.fingerprint(&denser), fingerprint(&denser));
        assert_ne!(memo.fingerprint(&denser), fingerprint(&g));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (1, 3), "{s:?}");
    }

    #[test]
    fn memo_keys_are_seeded_per_memo() {
        let g = fft_butterfly(3);
        let (a, b) = (FingerprintMemo::new(), FingerprintMemo::new());
        assert_eq!(a.content_key(&g), a.content_key(&g));
        assert_ne!(a.content_key(&g), b.content_key(&g), "keys are seeded");
    }

    #[test]
    fn memo_stays_within_capacity() {
        let memo = FingerprintMemo::new();
        let graphs = 10 * MEMO_CAPACITY;
        for tag in 0..graphs as u32 {
            let mut b = GraphBuilder::new();
            let x = b.add_vertex(OpKind::Input);
            let y = b.add_vertex(OpKind::Custom(tag));
            b.add_edge(x, y);
            memo.fingerprint(&b.build().unwrap());
            assert!(memo.stats().entries <= MEMO_CAPACITY);
        }
        let s = memo.stats();
        assert_eq!(s.misses, graphs as u64);
        assert_eq!(s.resets, 9, "{s:?}");
        assert_eq!(s.entries, MEMO_CAPACITY);
    }

    #[test]
    fn bytes_keys_are_seeded_and_separate_padding_from_length() {
        let (a, b) = (Memo::<()>::new(), Memo::<()>::new());
        let body = br#"{"graph":{"ops":["input"],"edges":[]},"memories":[2]}"#;
        let copy = *body;
        assert_eq!(a.bytes_key(body), a.bytes_key(&copy));
        assert_ne!(a.bytes_key(body), b.bytes_key(body), "keys are seeded");
        // Zero padding of the last block never aliases a longer input,
        // and every block position and byte is keyed.
        let mut keys = std::collections::HashSet::new();
        for len in 0..96 {
            assert!(keys.insert(a.bytes_key(&vec![0u8; len])), "len {len}");
            let mut flipped = vec![0u8; 96];
            flipped[len] = 1;
            assert!(keys.insert(a.bytes_key(&flipped)), "flip at {len}");
        }
        // A fixed multiply–rotate step maps a top-bit flip in one block's
        // word to one known bit flip in the lane, which the next block's
        // word cancels under every seed; a folded multiply by a secret
        // multiplier leaves no such pair.
        let body: Vec<u8> = (0..96u8).map(|i| i.wrapping_mul(37)).collect();
        for memo in [&a, &b, &Memo::<()>::new()] {
            for i in 0..2 {
                for k in 0..4 {
                    let mut twin = body.clone();
                    twin[32 * i + 8 * k + 7] ^= 0x80;
                    twin[32 * (i + 1) + 8 * k + 3] ^= 0x40;
                    assert_ne!(
                        memo.bytes_key(&body),
                        memo.bytes_key(&twin),
                        "block {i} lane {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn memo_counts_hits_and_resets_when_full() {
        let memo = Memo::<u32>::new();
        assert_eq!(memo.get(7), None);
        memo.insert(7, 1);
        assert_eq!(memo.get(7), Some(1));
        // `capacity` distinct keys in all: the next one resets.
        for key in 1..MEMO_CAPACITY as u128 {
            memo.insert(1000 + key, 0);
        }
        assert_eq!(memo.stats().resets, 0);
        memo.insert(1000, 0);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.resets), (1, 1, 1), "{s:?}");
        assert_eq!((s.entries, s.capacity), (1, MEMO_CAPACITY));
        assert_eq!(memo.get(7), None, "the reset dropped the first key");
    }

    #[test]
    fn empty_graph_is_fingerprintable() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(
            fingerprint(&g),
            fingerprint(&GraphBuilder::new().build().unwrap())
        );
        assert_eq!(FingerprintMemo::new().fingerprint(&g), fingerprint(&g));
    }
}
