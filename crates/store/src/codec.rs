//! The versioned compact binary codec for stored analysis artifacts.
//!
//! Everything the store persists — computation graphs, Laplacian spectra,
//! min-cut sweep results, simulated upper bounds, whole session
//! snapshots — is encoded by this
//! module into a byte layout that is:
//!
//! * **explicitly little-endian**: every multi-byte integer and every
//!   `f64` (as its IEEE-754 bit pattern) is written LE regardless of host,
//!   so a store written on one machine reads identically on any other;
//! * **versioned**: each document starts with a one-byte format version
//!   ([`SESSION_VERSION`]); decoders reject versions they do not know
//!   instead of misreading them;
//! * **self-checking at the record layer**: the segment log wraps each
//!   encoded document in a CRC32-protected record ([`crc32`] implements
//!   the IEEE/zlib polynomial), so torn or bit-rotted tails are detected,
//!   never half-decoded;
//! * **frozen by a golden-bytes test**: `golden_session_bytes_are_stable`
//!   pins the exact encoding of a known document, so any accidental
//!   layout change fails loudly instead of silently orphaning every
//!   existing store.
//!
//! Layout of a session document (all integers LE; `[..]*` repeats):
//!
//! ```text
//! session  := ver:u8  graph  nspec:u32 [spectrum]*  ncuts:u32 [cut]*
//!             ndec:u32 [dec]*            (ver ≥ 2; ver 1 documents end
//!                                         after cuts. Encoded as
//!                                         ndec = 0; decoded records
//!                                         are validated, then
//!                                         discarded)
//!             nsim:u32 [sim]*            (ver ≥ 3; ver 1–2 documents
//!                                         decode as nsim = 0)
//! graph    := n:u32 [op]*n  m:u32 [from:u32 to:u32]*m
//! op       := tag:u8            (0..=7: Input,Add,Sub,Mul,Div,Sum,
//!                                Butterfly,BhkUpdate)
//!           | 8:u8 payload:u32  (Custom)
//! spectrum := key  len:u32 [eig:f64bits-u64]*len
//! key      := kind:u8 h:u64 (0:u8
//!                            | 1:u8 subspace:u64 tol:u64 max_sweeps:u64
//!                              seed:u64          (Lanczos, sweep policy 0)
//!                            | 3:u8 subspace:u64 tol:u64 max_sweeps:u64
//!                              seed:u64 revision:u8
//!                                                (Lanczos, sweep policy
//!                                                 ≥ 1))
//!                            (tag 2, the retired single-sweep estimate,
//!                             fails as a bad method tag)
//! cut      := (0:u8 | 1:u8 count:u64 seed:u64)
//!             bound:u64 best_vertex:u64 max_cut:u64 evaluated:u64
//! dec      := target:u64 cut_edges:u64 invariant:u8 ncomp:u32
//!             [fp:u128 len:u32 [v:u32]*len]*ncomp
//! sim      := memory:u64 (0:u8 | 1:u8 io:u64)   (strictly ascending
//!                                                memories; 0 = no policy
//!                                                fits in memory)
//! ```
//!
//! Floats round-trip by bit pattern, so a restored spectrum reproduces
//! bounds **bit-identically** — the property the warm-start service
//! integration is built on.

use graphio_baselines::convex_mincut::ConvexMinCutResult;
use graphio_graph::{CompGraph, EdgeListGraph, OpKind};
use graphio_spectral::{CutKey, LaplacianKind, MethodKey, SessionExport, SpectrumKey};
use std::fmt;

/// Version byte of the session document format. Version 2 appended a
/// decompositions section (written by the since-removed compose analysis
/// mode; now always encoded empty, and read and discarded on decode) and
/// version 3 the simulated upper bounds; older documents still decode,
/// with no simulations (a restored session recomputes them lazily).
pub const SESSION_VERSION: u8 = 3;

/// A malformed or unsupported encoded document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the document did.
    Truncated,
    /// A format version this decoder does not understand.
    UnsupportedVersion(u8),
    /// An enum tag outside the defined range.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The bytes decoded but describe an impossible value (e.g. a cyclic
    /// graph).
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "document truncated"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            CodecError::Invalid(msg) => write!(f, "invalid document: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// CRC32 (IEEE 802.3 / zlib polynomial, reflected), the per-record
/// checksum of the segment log.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Cursor-based decoder over a byte slice. Every read is bounds-checked
/// and returns [`CodecError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }

    /// Reads an `f64` from its little-endian bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }
}

fn put_op(w: &mut Writer, op: OpKind) {
    match op {
        OpKind::Input => w.put_u8(0),
        OpKind::Add => w.put_u8(1),
        OpKind::Sub => w.put_u8(2),
        OpKind::Mul => w.put_u8(3),
        OpKind::Div => w.put_u8(4),
        OpKind::Sum => w.put_u8(5),
        OpKind::Butterfly => w.put_u8(6),
        OpKind::BhkUpdate => w.put_u8(7),
        OpKind::Custom(tag) => {
            w.put_u8(8);
            w.put_u32(tag);
        }
    }
}

fn get_op(r: &mut Reader<'_>) -> Result<OpKind, CodecError> {
    Ok(match r.get_u8()? {
        0 => OpKind::Input,
        1 => OpKind::Add,
        2 => OpKind::Sub,
        3 => OpKind::Mul,
        4 => OpKind::Div,
        5 => OpKind::Sum,
        6 => OpKind::Butterfly,
        7 => OpKind::BhkUpdate,
        8 => OpKind::Custom(r.get_u32()?),
        tag => return Err(CodecError::BadTag { what: "op", tag }),
    })
}

/// An edge sequence whose counting-sort rebuild reproduces **both** CSR
/// directions of `g` exactly.
///
/// `CompGraph` derives each vertex's child order *and* parent order from
/// the edge-insertion order it was built with; a decoded graph must
/// reproduce both, because downstream consumers are order-sensitive (the
/// pebble simulator touches operands in parent order, so LRU/Bélády
/// traces — and therefore the analysis document's `sim_upper` bytes —
/// would drift otherwise). Emitting edges in plain source-major order
/// preserves child order but scrambles parent order.
///
/// Both orders are projections of the original insertion sequence, so a
/// common linear extension always exists; this finds one by Kahn's
/// algorithm over edge instances, where an edge is emittable when it
/// heads both its source's remaining child list and its target's
/// remaining parent list. The smallest ready edge id is taken each step,
/// making the sequence canonical: encoding the same `CompGraph` twice
/// yields identical bytes.
fn csr_preserving_edge_order(g: &CompGraph) -> Vec<(u32, u32)> {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap, VecDeque};
    let n = g.n();
    let m = g.num_edges();
    // Edge instances are identified by their forward-CSR id `e`; the k-th
    // parallel (u, v) instance in v's parent list pairs with the k-th in
    // u's child list.
    let mut fwd_ptr = Vec::with_capacity(n + 1);
    fwd_ptr.push(0usize);
    let mut src_of = vec![0u32; m];
    let mut dst_of = vec![0u32; m];
    let mut by_pair: HashMap<(u32, u32), VecDeque<usize>> = HashMap::new();
    let mut e = 0usize;
    for u in 0..n {
        for &v in g.children(u) {
            src_of[e] = u as u32;
            dst_of[e] = v;
            by_pair.entry((u as u32, v)).or_default().push_back(e);
            e += 1;
        }
        fwd_ptr.push(e);
    }
    // Each target's parent list, as forward edge ids.
    let mut tgt_list: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, list) in tgt_list.iter_mut().enumerate() {
        for &u in g.parents(v) {
            let e = by_pair
                .get_mut(&(u, v as u32))
                .and_then(VecDeque::pop_front)
                .expect("parent instance pairs with a child instance");
            list.push(e);
        }
    }
    let mut src_pos = fwd_ptr.clone();
    let mut tgt_pos = vec![0usize; n];
    let at_heads = |e: usize, src_pos: &[usize], tgt_pos: &[usize], tgt_list: &[Vec<usize>]| {
        let (u, v) = (src_of[e] as usize, dst_of[e] as usize);
        src_pos[u] == e && tgt_list[v].get(tgt_pos[v]) == Some(&e)
    };
    let mut ready = BinaryHeap::new();
    for u in 0..n {
        if fwd_ptr[u] < fwd_ptr[u + 1] {
            let e = fwd_ptr[u];
            if at_heads(e, &src_pos, &tgt_pos, &tgt_list) {
                ready.push(Reverse(e));
            }
        }
    }
    let mut order = Vec::with_capacity(m);
    while let Some(Reverse(e)) = ready.pop() {
        // An edge heading both chains can be pushed by both advance
        // checks below; revalidate so the duplicate pop is a no-op.
        if !at_heads(e, &src_pos, &tgt_pos, &tgt_list) {
            continue;
        }
        let (u, v) = (src_of[e] as usize, dst_of[e] as usize);
        order.push((u as u32, v as u32));
        src_pos[u] += 1;
        tgt_pos[v] += 1;
        if src_pos[u] < fwd_ptr[u + 1] && at_heads(src_pos[u], &src_pos, &tgt_pos, &tgt_list) {
            ready.push(Reverse(src_pos[u]));
        }
        if let Some(&e2) = tgt_list[v].get(tgt_pos[v]) {
            if at_heads(e2, &src_pos, &tgt_pos, &tgt_list) {
                ready.push(Reverse(e2));
            }
        }
    }
    debug_assert_eq!(
        order.len(),
        m,
        "both CSR orders stem from one insertion order"
    );
    order
}

/// `g` as a portable edge list in the canonical CSR-preserving order —
/// rebuilding a `CompGraph` from it reproduces both adjacency directions
/// exactly. This is what `graphio store get/export` must emit (rather
/// than `CompGraph::to_edge_list`, whose source-major order scrambles
/// parent order): the pebble simulator touches operands in parent
/// order, so a scrambled rebuild would serve different `sim_upper`
/// bytes under the *same* fingerprint.
pub fn canonical_edge_list(g: &CompGraph) -> EdgeListGraph {
    EdgeListGraph {
        ops: g.ops().to_vec(),
        edges: csr_preserving_edge_order(g),
    }
}

/// Encodes `g` (vertex ops, then directed edges in a canonical order that
/// round-trips both CSR directions) into `w`.
pub fn put_graph(w: &mut Writer, g: &CompGraph) {
    w.put_u32(g.n() as u32);
    for v in 0..g.n() {
        put_op(w, g.op(v));
    }
    let edges = csr_preserving_edge_order(g);
    w.put_u32(edges.len() as u32);
    for (u, v) in edges {
        w.put_u32(u);
        w.put_u32(v);
    }
}

/// Decodes a graph encoded by [`put_graph`], re-validating it (bounds,
/// self-loops, acyclicity) through the normal builder path.
pub fn get_graph(r: &mut Reader<'_>) -> Result<CompGraph, CodecError> {
    let n = r.get_u32()? as usize;
    // Cap preallocation by what the buffer could possibly hold, so a
    // corrupt length cannot balloon memory before Truncated surfaces.
    let mut ops = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        ops.push(get_op(r)?);
    }
    let m = r.get_u32()? as usize;
    let mut edges = Vec::with_capacity(m.min(r.remaining() / 8));
    for _ in 0..m {
        let from = r.get_u32()?;
        let to = r.get_u32()?;
        edges.push((from, to));
    }
    CompGraph::try_from(EdgeListGraph { ops, edges })
        .map_err(|e| CodecError::Invalid(e.to_string()))
}

fn put_spectrum_key(w: &mut Writer, key: &SpectrumKey) {
    w.put_u8(match key.kind {
        LaplacianKind::Normalized => 0,
        LaplacianKind::Unnormalized => 1,
    });
    w.put_u64(key.h as u64);
    match &key.method {
        MethodKey::Dense => w.put_u8(0),
        MethodKey::Lanczos {
            subspace,
            tol_bits,
            max_sweeps,
            seed,
            revision,
        } => {
            // Revision 0 keeps its original tag, so old records re-encode
            // to their own bytes.
            w.put_u8(if *revision == 0 { 1 } else { 3 });
            w.put_u64(*subspace as u64);
            w.put_u64(*tol_bits);
            w.put_u64(*max_sweeps as u64);
            w.put_u64(*seed);
            if *revision != 0 {
                w.put_u8(*revision);
            }
        }
    }
}

fn get_spectrum_key(r: &mut Reader<'_>) -> Result<SpectrumKey, CodecError> {
    let kind = match r.get_u8()? {
        0 => LaplacianKind::Normalized,
        1 => LaplacianKind::Unnormalized,
        tag => return Err(CodecError::BadTag { what: "kind", tag }),
    };
    let h = r.get_u64()? as usize;
    let method = match r.get_u8()? {
        0 => MethodKey::Dense,
        tag @ (1 | 3) => MethodKey::Lanczos {
            subspace: r.get_u64()? as usize,
            tol_bits: r.get_u64()?,
            max_sweeps: r.get_u64()? as usize,
            seed: r.get_u64()?,
            revision: if tag == 3 { r.get_u8()? } else { 0 },
        },
        tag => {
            return Err(CodecError::BadTag {
                what: "method",
                tag,
            })
        }
    };
    Ok(SpectrumKey { kind, h, method })
}

fn put_cut(w: &mut Writer, key: &CutKey, cut: &ConvexMinCutResult) {
    match key {
        CutKey::All => w.put_u8(0),
        CutKey::Sample { count, seed } => {
            w.put_u8(1);
            w.put_u64(*count as u64);
            w.put_u64(*seed);
        }
    }
    w.put_u64(cut.bound);
    w.put_u64(cut.best_vertex as u64);
    w.put_u64(cut.max_cut);
    w.put_u64(cut.vertices_evaluated as u64);
}

fn get_cut(r: &mut Reader<'_>) -> Result<(CutKey, ConvexMinCutResult), CodecError> {
    let key = match r.get_u8()? {
        0 => CutKey::All,
        1 => CutKey::Sample {
            count: r.get_u64()? as usize,
            seed: r.get_u64()?,
        },
        tag => return Err(CodecError::BadTag { what: "cut", tag }),
    };
    let cut = ConvexMinCutResult {
        bound: r.get_u64()?,
        best_vertex: r.get_u64()? as usize,
        max_cut: r.get_u64()?,
        vertices_evaluated: r.get_u64()? as usize,
    };
    Ok((key, cut))
}

/// Reads past one decomposition record of a version 2–3 document. The
/// compose analysis mode that wrote these records is gone, so their
/// contents are dropped — but they still come from disk, so they are
/// validated first: every component vertex list is non-empty, strictly
/// ascending, and in bounds for the `n`-vertex graph the document
/// carries.
fn skip_decomposition(r: &mut Reader<'_>, n: usize) -> Result<(), CodecError> {
    let _target = r.get_u64()?;
    let _cut_edges = r.get_u64()?;
    match r.get_u8()? {
        0 | 1 => {}
        tag => {
            return Err(CodecError::BadTag {
                what: "invariant",
                tag,
            })
        }
    }
    let ncomp = r.get_u32()?;
    for _ in 0..ncomp {
        let _fingerprint = r.get_u128()?;
        let len = r.get_u32()?;
        if len == 0 {
            return Err(CodecError::Invalid("empty decomposition component".into()));
        }
        let mut prev: Option<u32> = None;
        for _ in 0..len {
            let v = r.get_u32()?;
            if v as usize >= n {
                return Err(CodecError::Invalid(format!(
                    "component vertex {v} out of bounds for {n}-vertex graph"
                )));
            }
            if prev.is_some_and(|p| p >= v) {
                return Err(CodecError::Invalid(
                    "component vertices not strictly ascending".into(),
                ));
            }
            prev = Some(v);
        }
    }
    Ok(())
}

fn put_sim(w: &mut Writer, memory: usize, best: Option<u64>) {
    w.put_u64(memory as u64);
    match best {
        None => w.put_u8(0),
        Some(io) => {
            w.put_u8(1);
            w.put_u64(io);
        }
    }
}

fn get_sim(r: &mut Reader<'_>) -> Result<(usize, Option<u64>), CodecError> {
    let memory = r.get_u64()? as usize;
    let best = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_u64()?),
        tag => return Err(CodecError::BadTag { what: "sim", tag }),
    };
    Ok((memory, best))
}

/// A decoded store document: the graph plus its session snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSession {
    /// The graph under analysis (the first-seen representative of its
    /// fingerprint class).
    pub graph: CompGraph,
    /// The computed artifacts: spectra, min-cut sweeps and simulated upper
    /// bounds.
    pub export: SessionExport,
}

/// Encodes a graph and its session snapshot into the store's document
/// bytes. Deterministic: [`SessionExport`] is key-sorted, so the same
/// session state always encodes to the same bytes (the store's
/// skip-if-unchanged write-through relies on this).
pub fn encode_session(graph: &CompGraph, export: &SessionExport) -> Vec<u8> {
    let _span = graphio_obs::span!("codec_encode");
    let mut w = Writer::new();
    w.put_u8(SESSION_VERSION);
    put_graph(&mut w, graph);
    w.put_u32(export.spectra.len() as u32);
    for (key, eigs) in &export.spectra {
        put_spectrum_key(&mut w, key);
        w.put_u32(eigs.len() as u32);
        for &e in eigs {
            w.put_f64(e);
        }
    }
    w.put_u32(export.cuts.len() as u32);
    for (key, cut) in &export.cuts {
        put_cut(&mut w, key, cut);
    }
    // The decompositions section of version 2–3 documents: always empty
    // now, kept so the layout (and every stored byte) is unchanged.
    w.put_u32(0);
    w.put_u32(export.sims.len() as u32);
    for &(memory, best) in &export.sims {
        put_sim(&mut w, memory, best);
    }
    w.into_bytes()
}

/// Decodes a document produced by [`encode_session`].
///
/// # Errors
/// [`CodecError`] on truncation, unknown versions/tags, or graphs that
/// fail re-validation.
pub fn decode_session(bytes: &[u8]) -> Result<StoredSession, CodecError> {
    let _span = graphio_obs::span!("codec_decode");
    let mut r = Reader::new(bytes);
    let version = r.get_u8()?;
    if !(1..=SESSION_VERSION).contains(&version) {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let graph = get_graph(&mut r)?;
    let nspec = r.get_u32()? as usize;
    let mut spectra = Vec::with_capacity(nspec.min(r.remaining()));
    for _ in 0..nspec {
        let key = get_spectrum_key(&mut r)?;
        let len = r.get_u32()? as usize;
        let mut eigs = Vec::with_capacity(len.min(r.remaining() / 8));
        for _ in 0..len {
            eigs.push(r.get_f64()?);
        }
        spectra.push((key, eigs));
    }
    let ncuts = r.get_u32()? as usize;
    let mut cuts = Vec::with_capacity(ncuts.min(r.remaining() / 33));
    for _ in 0..ncuts {
        cuts.push(get_cut(&mut r)?);
    }
    // Version 1 documents end here; the decompositions section arrived
    // with version 2 and is validated, then dropped.
    if version >= 2 {
        let ndec = r.get_u32()?;
        for _ in 0..ndec {
            skip_decomposition(&mut r, graph.n())?;
        }
    }
    // The simulated upper bounds arrived with version 3.
    let mut sims: Vec<(usize, Option<u64>)> = Vec::new();
    if version >= 3 {
        let nsim = r.get_u32()? as usize;
        sims.reserve(nsim.min(r.remaining() / 9));
        for _ in 0..nsim {
            let sim = get_sim(&mut r)?;
            if sims.last().is_some_and(|&(prev, _)| prev >= sim.0) {
                return Err(CodecError::Invalid(
                    "simulated bounds not strictly ascending by memory".into(),
                ));
            }
            sims.push(sim);
        }
    }
    if r.remaining() != 0 {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes after document",
            r.remaining()
        )));
    }
    Ok(StoredSession {
        graph,
        export: SessionExport {
            spectra,
            cuts,
            sims,
        },
    })
}

// ---------------------------------------------------------------------
// Trace records (the `serve --trace-store` document type)
// ---------------------------------------------------------------------

/// Version byte of the trace-record encoding. Independent of
/// [`SESSION_VERSION`]: trace records live in their own store directory
/// and evolve on their own schedule. Version 2 added per-span allocation
/// attribution (`alloc_bytes`/`allocs`); version-1 documents still decode
/// (their spans read back as zero allocation).
pub const TRACE_RECORD_VERSION: u8 = 2;

/// One phase-tree node of a persisted trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredTraceSpan {
    /// The phase name (a `span!` literal at record time).
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Microseconds from the request root to this span opening.
    pub start_us: u64,
    /// The span's duration in microseconds.
    pub dur_us: u64,
    /// Bytes allocated while the span was open (inclusive of children,
    /// like `dur_us`). Zero when the binary ran without the counting
    /// allocator or the record predates version 2.
    pub alloc_bytes: u64,
    /// Allocation count while the span was open (inclusive).
    pub allocs: u64,
}

/// A persisted flight-recorder record: what `serve --trace-store DIR`
/// writes for pinned (slow or error) traces so they survive restarts.
/// Mirrors `graphio_obs::recorder::TraceRecord`, with owned strings in
/// place of `&'static` names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredTrace {
    /// The request's 128-bit trace ID (also the store key).
    pub trace: u128,
    /// The endpoint label.
    pub endpoint: String,
    /// The HTTP status answered.
    pub status: u16,
    /// The graph fingerprint, when resolved.
    pub fingerprint: Option<u128>,
    /// The session cache outcome (`hit`/`store`/`miss`), when resolved.
    pub outcome: Option<String>,
    /// Total request wall time in microseconds.
    pub elapsed_us: u64,
    /// Spans dropped past the recorder's caps.
    pub dropped_spans: u64,
    /// The recorder's insertion sequence number.
    pub seq: u64,
    /// The flattened phase tree.
    pub spans: Vec<StoredTraceSpan>,
}

impl StoredTrace {
    /// Converts a live recorder record for persistence.
    #[must_use]
    pub fn from_record(record: &graphio_obs::TraceRecord) -> StoredTrace {
        StoredTrace {
            trace: record.trace,
            endpoint: record.endpoint.to_string(),
            status: record.status,
            fingerprint: record.fingerprint,
            outcome: record.outcome.map(|o| o.as_str().to_string()),
            elapsed_us: record.elapsed_us,
            dropped_spans: record.dropped_spans,
            seq: record.seq,
            spans: record
                .nodes()
                .iter()
                .map(|n| StoredTraceSpan {
                    name: n.name.to_string(),
                    parent: n.parent.map(|p| p as u32),
                    start_us: n.start_us,
                    dur_us: n.dur_us,
                    alloc_bytes: n.alloc_bytes,
                    allocs: n.allocs,
                })
                .collect(),
        }
    }

    /// The record as one JSON object — byte-identical to what
    /// `graphio_obs::recorder::TraceRecord::to_json` serves for the same
    /// record, so `GET /trace/{id}` answers identically from the live
    /// ring and from the persisted store.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"trace\":\"{:032x}\",\"endpoint\":\"{}\",\"status\":{},",
            self.trace, self.endpoint, self.status,
        );
        match self.fingerprint {
            Some(fp) => out.push_str(&format!("\"fingerprint\":\"{fp:032x}\",")),
            None => out.push_str("\"fingerprint\":null,"),
        }
        match &self.outcome {
            Some(o) => out.push_str(&format!("\"outcome\":\"{o}\",")),
            None => out.push_str("\"outcome\":null,"),
        }
        out.push_str(&format!(
            "\"elapsed_us\":{},\"dropped_spans\":{},\"seq\":{},\"spans\":[",
            self.elapsed_us, self.dropped_spans, self.seq,
        ));
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"dur_us\":{},\
                 \"alloc_bytes\":{},\"allocs\":{}}}",
                span.name, span.start_us, span.dur_us, span.alloc_bytes, span.allocs
            ));
        }
        out.push_str("]}");
        out
    }
}

fn put_str(w: &mut Writer, s: &str) {
    w.put_u32(s.len() as u32);
    for &b in s.as_bytes() {
        w.put_u8(b);
    }
}

fn get_str(r: &mut Reader<'_>) -> Result<String, CodecError> {
    let len = r.get_u32()? as usize;
    if len > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        bytes.push(r.get_u8()?);
    }
    String::from_utf8(bytes).map_err(|_| CodecError::Invalid("non-UTF-8 string".to_string()))
}

/// Sentinel for "no parent" in the span encoding (span counts are far
/// below it, enforced on decode).
const NO_PARENT: u32 = u32::MAX;

/// Encodes one trace record. Deterministic, so the store's
/// skip-if-unchanged write-through applies to re-pinned traces too.
#[must_use]
pub fn encode_trace_record(t: &StoredTrace) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(TRACE_RECORD_VERSION);
    w.put_u128(t.trace);
    put_str(&mut w, &t.endpoint);
    w.put_u32(u32::from(t.status));
    match t.fingerprint {
        Some(fp) => {
            w.put_u8(1);
            w.put_u128(fp);
        }
        None => w.put_u8(0),
    }
    match t.outcome.as_deref() {
        None => w.put_u8(0),
        Some("hit") => w.put_u8(1),
        Some("store") => w.put_u8(2),
        Some("miss") => w.put_u8(3),
        // Unknown outcomes degrade to "none" rather than poisoning the
        // record; the vocabulary is closed at record time.
        Some(_) => w.put_u8(0),
    }
    w.put_u64(t.elapsed_us);
    w.put_u64(t.dropped_spans);
    w.put_u64(t.seq);
    w.put_u32(t.spans.len() as u32);
    for span in &t.spans {
        put_str(&mut w, &span.name);
        w.put_u32(span.parent.unwrap_or(NO_PARENT));
        w.put_u64(span.start_us);
        w.put_u64(span.dur_us);
        w.put_u64(span.alloc_bytes);
        w.put_u64(span.allocs);
    }
    w.into_bytes()
}

/// Decodes a document produced by [`encode_trace_record`].
///
/// # Errors
/// [`CodecError`] on truncation, unknown versions/tags, or structurally
/// invalid trees (a parent at or past its child).
pub fn decode_trace_record(bytes: &[u8]) -> Result<StoredTrace, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.get_u8()?;
    if version != 1 && version != TRACE_RECORD_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let trace = r.get_u128()?;
    let endpoint = get_str(&mut r)?;
    let status = u16::try_from(r.get_u32()?)
        .map_err(|_| CodecError::Invalid("status out of range".to_string()))?;
    let fingerprint = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_u128()?),
        tag => {
            return Err(CodecError::BadTag {
                what: "fingerprint",
                tag,
            })
        }
    };
    let outcome = match r.get_u8()? {
        0 => None,
        1 => Some("hit".to_string()),
        2 => Some("store".to_string()),
        3 => Some("miss".to_string()),
        tag => {
            return Err(CodecError::BadTag {
                what: "outcome",
                tag,
            })
        }
    };
    let elapsed_us = r.get_u64()?;
    let dropped_spans = r.get_u64()?;
    let seq = r.get_u64()?;
    let nspans = r.get_u32()? as usize;
    let mut spans = Vec::with_capacity(nspans.min(r.remaining() / 24));
    for i in 0..nspans {
        let name = get_str(&mut r)?;
        let parent = match r.get_u32()? {
            NO_PARENT => None,
            p if (p as usize) < i => Some(p),
            p => {
                return Err(CodecError::Invalid(format!(
                    "span {i} has parent {p} at or past itself"
                )))
            }
        };
        let start_us = r.get_u64()?;
        let dur_us = r.get_u64()?;
        // Version 1 predates allocation attribution: its spans read back
        // as zero, matching a binary without the counting allocator.
        let (alloc_bytes, allocs) = if version >= 2 {
            (r.get_u64()?, r.get_u64()?)
        } else {
            (0, 0)
        };
        spans.push(StoredTraceSpan {
            name,
            parent,
            start_us,
            dur_us,
            alloc_bytes,
            allocs,
        });
    }
    if r.remaining() != 0 {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes after trace record",
            r.remaining()
        )));
    }
    Ok(StoredTrace {
        trace,
        endpoint,
        status,
        fingerprint,
        outcome,
        elapsed_us,
        dropped_spans,
        seq,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphio_graph::GraphBuilder;

    fn tiny_graph() -> CompGraph {
        // in ──▶ mul ──▶ add ◀── in, with a parallel edge into mul.
        let mut b = GraphBuilder::new();
        let x = b.add_vertex(OpKind::Input);
        let y = b.add_vertex(OpKind::Input);
        let m = b.add_vertex(OpKind::Mul);
        let a = b.add_vertex(OpKind::Custom(9));
        b.add_edge(x, m);
        b.add_edge(x, m);
        b.add_edge(m, a);
        b.add_edge(y, a);
        b.build().unwrap()
    }

    fn tiny_export() -> SessionExport {
        SessionExport {
            spectra: vec![
                (
                    SpectrumKey {
                        kind: LaplacianKind::Normalized,
                        h: 3,
                        method: MethodKey::Dense,
                    },
                    vec![0.0, 0.5, 1.25],
                ),
                (
                    SpectrumKey {
                        kind: LaplacianKind::Unnormalized,
                        h: 2,
                        method: MethodKey::Lanczos {
                            subspace: 96,
                            tol_bits: 1e-8_f64.to_bits(),
                            max_sweeps: 40,
                            seed: 7,
                            revision: graphio_linalg::lanczos::SWEEP_POLICY_REVISION,
                        },
                    },
                    vec![-0.0, 2.0],
                ),
            ],
            cuts: vec![
                (
                    CutKey::All,
                    ConvexMinCutResult {
                        bound: 4,
                        best_vertex: 2,
                        max_cut: 3,
                        vertices_evaluated: 4,
                    },
                ),
                (
                    CutKey::Sample {
                        count: 512,
                        seed: 0xC07,
                    },
                    ConvexMinCutResult {
                        bound: 2,
                        best_vertex: 1,
                        max_cut: 2,
                        vertices_evaluated: 512,
                    },
                ),
            ],
            sims: vec![(1, None), (2, Some(6)), (64, Some(4))],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn session_roundtrips_exactly() {
        let g = tiny_graph();
        let export = tiny_export();
        let bytes = encode_session(&g, &export);
        let back = decode_session(&bytes).unwrap();
        assert_eq!(back.graph, g);
        assert_eq!(back.export, export);
        // Float identity is by bit pattern (covers -0.0).
        for ((_, a), (_, b)) in export.spectra.iter().zip(&back.export.spectra) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// A Lanczos spectrum key from a store written before the sweep
    /// policy had revisions (tag 1) decodes as revision 0 and re-encodes
    /// to its own bytes; a current key takes tag 3 with its revision.
    #[test]
    fn lanczos_keys_carry_their_sweep_policy_revision() {
        let key = |revision| SpectrumKey {
            kind: LaplacianKind::Normalized,
            h: 48,
            method: MethodKey::Lanczos {
                subspace: 96,
                tol_bits: 1e-8_f64.to_bits(),
                max_sweeps: 512,
                seed: 0x5eed,
                revision,
            },
        };
        let encode = |key: &SpectrumKey| {
            let mut w = Writer::new();
            put_spectrum_key(&mut w, key);
            w.into_bytes()
        };
        let old = encode(&key(0));
        assert_eq!(old[9], 1, "revision 0 keeps tag 1");
        assert_eq!(old.len(), 1 + 8 + 1 + 4 * 8);
        let current = encode(&key(graphio_linalg::lanczos::SWEEP_POLICY_REVISION));
        assert_eq!(current[9], 3);
        assert_eq!(current.len(), old.len() + 1);
        for (bytes, revision) in [
            (&old, 0),
            (&current, graphio_linalg::lanczos::SWEEP_POLICY_REVISION),
        ] {
            let decoded = get_spectrum_key(&mut Reader::new(bytes)).unwrap();
            assert_eq!(decoded, key(revision));
            assert_eq!(&encode(&decoded), bytes);
        }
        assert_ne!(key(0), key(1), "an old spectrum must miss a fresh lookup");
    }

    /// The retired single-sweep estimate stored its spectra under method
    /// tag 2. Such a record now fails to decode with a bad method tag, so
    /// a store reads it as absent and the analysis recomputes. Built from
    /// raw bytes: the encoder can no longer write the tag.
    #[test]
    fn method_tag_2_records_fail_to_decode() {
        // Version byte and graph, then the four section counts, all zero.
        let mut doc = encode_session(&tiny_graph(), &SessionExport::default());
        doc.truncate(doc.len() - 16);
        doc.extend(from_hex(concat!(
            "01000000",         // 1 spectrum
            "00",               // kind = Normalized
            "0800000000000000", // h = 8
            "02",               // method = the retired single-sweep estimate
            "6000000000000000", // steps = 96
            "1000000000000000", // window = 16
            "ed5e000000000000", // seed = 0x5eed
            "01000000",         // 1 eigenvalue
            "0000000000000000", // 0.0
            "00000000",         // no cuts
            "00000000",         // no decompositions
            "00000000",         // no simulated bounds
        )));
        assert_eq!(
            decode_session(&doc),
            Err(CodecError::BadTag {
                what: "method",
                tag: 2
            })
        );
    }

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The one decomposition record of the version-2 and version-3
    /// golden documents, count included: what the removed compose mode
    /// persisted for the two-vertex golden graph.
    const GOLDEN_DECOMPOSITIONS: &str = concat!(
        "01000000",                         // 1 decomposition
        "0200000000000000",                 // target = 2
        "0100000000000000",                 // cut_edges = 1
        "01",                               // invariant = true
        "02000000",                         // 2 components
        "a5000000000000000000000000000000", // fp = 0xA5
        "01000000",                         // 1 vertex
        "00000000",                         // vertex 0
        "5a000000000000000000000000000000", // fp = 0x5A
        "01000000",                         // 1 vertex
        "01000000",                         // vertex 1
    );

    /// Golden-bytes compatibility pin: if this test ever fails, the codec
    /// changed shape and [`SESSION_VERSION`] must be bumped (with a
    /// migration path for existing stores) instead of silently orphaning
    /// them.
    ///
    /// The pinned document carries one decomposition, as stores written
    /// while the compose analysis mode existed do. It must still decode,
    /// and re-encoding it must give the same bytes with the
    /// decompositions section emptied (count 0, records gone).
    #[test]
    fn golden_session_bytes_are_stable() {
        let hex = concat!(
            "03",                               // session version
            "02000000",                         // n = 2
            "00",                               // op[0] = Input
            "0804030201",                       // op[1] = Custom(0x01020304)
            "01000000",                         // m = 1
            "00000000",                         // edge from 0
            "01000000",                         // edge to 1
            "01000000",                         // 1 spectrum
            "00",                               // kind = Normalized
            "0200000000000000",                 // h = 2
            "00",                               // method = Dense
            "02000000",                         // 2 eigenvalues
            "000000000000e03f",                 // 0.5
            "000000000000f83f",                 // 1.5
            "01000000",                         // 1 cut
            "00",                               // CutKey::All
            "0200000000000000",                 // bound = 2
            "0100000000000000",                 // best_vertex = 1
            "0100000000000000",                 // max_cut = 1
            "0200000000000000",                 // vertices_evaluated = 2
            "01000000",                         // 1 decomposition
            "0200000000000000",                 // target = 2
            "0100000000000000",                 // cut_edges = 1
            "01",                               // invariant = true
            "02000000",                         // 2 components
            "a5000000000000000000000000000000", // fp = 0xA5
            "01000000",                         // 1 vertex
            "00000000",                         // vertex 0
            "5a000000000000000000000000000000", // fp = 0x5A
            "01000000",                         // 1 vertex
            "01000000",                         // vertex 1
            "02000000",                         // 2 simulated bounds
            "0200000000000000",                 // memory = 2
            "01",                               // simulated
            "0300000000000000",                 // io = 3
            "0400000000000000",                 // memory = 4
            "00",                               // no policy fits
        );
        let bytes = from_hex(hex);
        // The CRC of the golden bytes is part of the contract too: it is
        // what an existing store's records carry. (Value pinned from the
        // implementation validated against the standard vectors above.)
        assert_eq!(crc32(&bytes), 0x322C_077B);

        let mut b = GraphBuilder::new();
        let x = b.add_vertex(OpKind::Input);
        let y = b.add_vertex(OpKind::Custom(0x0102_0304));
        b.add_edge(x, y);
        let g = b.build().unwrap();
        let export = SessionExport {
            spectra: vec![(
                SpectrumKey {
                    kind: LaplacianKind::Normalized,
                    h: 2,
                    method: MethodKey::Dense,
                },
                vec![0.5, 1.5],
            )],
            cuts: vec![(
                CutKey::All,
                ConvexMinCutResult {
                    bound: 2,
                    best_vertex: 1,
                    max_cut: 1,
                    vertices_evaluated: 2,
                },
            )],
            sims: vec![(2, Some(3)), (4, None)],
        };
        let back = decode_session(&bytes).unwrap();
        assert_eq!(back.graph, g);
        assert_eq!(back.export, export);

        let reencoded = encode_session(&back.graph, &back.export);
        assert_eq!(reencoded, encode_session(&g, &export));
        let reencoded_hex: String = reencoded.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            reencoded_hex,
            hex.replacen(GOLDEN_DECOMPOSITIONS, "00000000", 1),
            "codec layout changed — bump SESSION_VERSION and migrate"
        );
    }

    /// Version-2 documents (everything a store written before the
    /// simulated-bounds section holds) keep decoding. These bytes are the
    /// version-2 golden pin verbatim.
    #[test]
    fn version_2_documents_still_decode() {
        let hex = concat!(
            "02",                               // session version
            "02000000",                         // n = 2
            "00",                               // op[0] = Input
            "0804030201",                       // op[1] = Custom(0x01020304)
            "01000000",                         // m = 1
            "00000000",                         // edge from 0
            "01000000",                         // edge to 1
            "01000000",                         // 1 spectrum
            "00",                               // kind = Normalized
            "0200000000000000",                 // h = 2
            "00",                               // method = Dense
            "02000000",                         // 2 eigenvalues
            "000000000000e03f",                 // 0.5
            "000000000000f83f",                 // 1.5
            "01000000",                         // 1 cut
            "00",                               // CutKey::All
            "0200000000000000",                 // bound = 2
            "0100000000000000",                 // best_vertex = 1
            "0100000000000000",                 // max_cut = 1
            "0200000000000000",                 // vertices_evaluated = 2
            "01000000",                         // 1 decomposition
            "0200000000000000",                 // target = 2
            "0100000000000000",                 // cut_edges = 1
            "01",                               // invariant = true
            "02000000",                         // 2 components
            "a5000000000000000000000000000000", // fp = 0xA5
            "01000000",                         // 1 vertex
            "00000000",                         // vertex 0
            "5a000000000000000000000000000000", // fp = 0x5A
            "01000000",                         // 1 vertex
            "01000000",                         // vertex 1
        );
        let bytes = from_hex(hex);
        // The version-2 record CRC as existing stores carry it.
        assert_eq!(crc32(&bytes), 0xFF6C_CEED);
        let back = decode_session(&bytes).unwrap();
        assert_eq!(back.graph.n(), 2);
        assert_eq!(back.export.spectra.len(), 1);
        assert_eq!(back.export.cuts.len(), 1);
        assert!(back.export.sims.is_empty());
        // Re-encoding upgrades it: the v3 layout is the v2 bytes under the
        // new version byte, with the decompositions section emptied, plus
        // an empty simulated-bounds section.
        let upgraded = encode_session(&back.graph, &back.export);
        let kept = bytes.len() - GOLDEN_DECOMPOSITIONS.len() / 2;
        assert_eq!(upgraded[0], 3);
        assert_eq!(&upgraded[1..kept], &bytes[1..kept]);
        assert_eq!(&upgraded[kept..], &[0, 0, 0, 0, 0, 0, 0, 0]);
    }

    /// Version-1 documents — everything an existing store holds — must
    /// keep decoding forever. These bytes are the version-1 golden pin
    /// verbatim (same document as above, minus the decompositions
    /// section, under the old version byte).
    #[test]
    fn version_1_documents_still_decode() {
        let hex = concat!(
            "01",               // session version 1
            "02000000",         // n = 2
            "00",               // op[0] = Input
            "0804030201",       // op[1] = Custom(0x01020304)
            "01000000",         // m = 1
            "00000000",         // edge from 0
            "01000000",         // edge to 1
            "01000000",         // 1 spectrum
            "00",               // kind = Normalized
            "0200000000000000", // h = 2
            "00",               // method = Dense
            "02000000",         // 2 eigenvalues
            "000000000000e03f", // 0.5
            "000000000000f83f", // 1.5
            "01000000",         // 1 cut
            "00",               // CutKey::All
            "0200000000000000", // bound = 2
            "0100000000000000", // best_vertex = 1
            "0100000000000000", // max_cut = 1
            "0200000000000000", // vertices_evaluated = 2
        );
        let bytes = from_hex(hex);
        // The version-1 record CRC as existing stores carry it.
        assert_eq!(crc32(&bytes), 0xD3C9_7A9E);
        let back = decode_session(&bytes).unwrap();
        assert_eq!(back.graph.n(), 2);
        assert_eq!(back.export.spectra.len(), 1);
        assert_eq!(back.export.cuts.len(), 1);
        assert!(back.export.sims.is_empty());
    }

    /// Decompositions sections still come from disk, so they are
    /// validated before being dropped. Built from raw bytes: the encoder
    /// no longer writes decomposition records.
    #[test]
    fn corrupt_decompositions_are_rejected() {
        let g = tiny_graph();
        // A document whose decompositions section is `section`: the tiny
        // session without simulated bounds ends in two zero counts
        // (decompositions, then sims); splice `section` over the first.
        let with_section = |section: &str| -> Vec<u8> {
            let export = SessionExport {
                sims: Vec::new(),
                ..tiny_export()
            };
            let mut bytes = encode_session(&g, &export);
            assert_eq!(&bytes[bytes.len() - 8..], &[0; 8]);
            bytes.truncate(bytes.len() - 8);
            bytes.extend(from_hex(section));
            bytes.extend([0; 4]);
            bytes
        };
        // One decomposition of one component holding `vertices`.
        let one_component = |vertices: &[u32]| -> String {
            let mut hex = String::from(concat!(
                "01000000",                         // 1 decomposition
                "0002000000000000",                 // target = 512
                "0100000000000000",                 // cut_edges = 1
                "01",                               // invariant = true
                "01000000",                         // 1 component
                "efbeadde000000000000000000000000", // fp = 0xDEADBEEF
            ));
            for v in std::iter::once(vertices.len() as u32).chain(vertices.iter().copied()) {
                hex.extend(v.to_le_bytes().iter().map(|b| format!("{b:02x}")));
            }
            hex
        };
        // A well-formed section decodes, and is dropped.
        let back = decode_session(&with_section(&one_component(&[0, 2]))).unwrap();
        assert_eq!(back.graph, g);
        assert_eq!(
            back.export,
            SessionExport {
                sims: Vec::new(),
                ..tiny_export()
            }
        );
        // Out-of-bounds vertex id, unsorted vertex list, empty component.
        for vertices in [&[0, 99][..], &[2, 0], &[]] {
            assert!(
                matches!(
                    decode_session(&with_section(&one_component(vertices))),
                    Err(CodecError::Invalid(_))
                ),
                "component {vertices:?} must be rejected"
            );
        }
    }

    #[test]
    fn corrupt_sims_are_rejected() {
        let g = tiny_graph();
        let mut unsorted = tiny_export();
        unsorted.sims.swap(0, 1);
        assert!(matches!(
            decode_session(&encode_session(&g, &unsorted)),
            Err(CodecError::Invalid(_))
        ));
        let mut duplicate = tiny_export();
        duplicate.sims[1].0 = duplicate.sims[0].0;
        assert!(matches!(
            decode_session(&encode_session(&g, &duplicate)),
            Err(CodecError::Invalid(_))
        ));
        // The last sim is `64, Some(4)`: its tag byte sits 9 bytes from
        // the end.
        let mut bad_tag = encode_session(&g, &tiny_export());
        let at = bad_tag.len() - 9;
        bad_tag[at] = 7;
        assert_eq!(
            decode_session(&bad_tag),
            Err(CodecError::BadTag {
                what: "sim",
                tag: 7
            })
        );
    }

    #[test]
    fn truncation_and_bad_tags_are_rejected() {
        let g = tiny_graph();
        let bytes = encode_session(&g, &tiny_export());
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_session(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert_eq!(
            decode_session(&wrong_version),
            Err(CodecError::UnsupportedVersion(99))
        );
        let mut bad_op = bytes.clone();
        bad_op[5] = 0xFF; // first op tag
        assert!(matches!(
            decode_session(&bad_op),
            Err(CodecError::BadTag { what: "op", .. })
        ));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            decode_session(&trailing),
            Err(CodecError::Invalid(_))
        ));
    }

    fn sample_trace() -> StoredTrace {
        StoredTrace {
            trace: 0x0011_2233_4455_6677_8899_AABB_CCDD_EEFF,
            endpoint: "/analyze".to_string(),
            status: 200,
            fingerprint: Some(0xA5),
            outcome: Some("hit".to_string()),
            elapsed_us: 12_345,
            dropped_spans: 2,
            seq: 41,
            spans: vec![
                StoredTraceSpan {
                    name: "/analyze".to_string(),
                    parent: None,
                    start_us: 0,
                    dur_us: 12_000,
                    alloc_bytes: 4096,
                    allocs: 12,
                },
                StoredTraceSpan {
                    name: "eigensolve".to_string(),
                    parent: Some(0),
                    start_us: 10,
                    dur_us: 11_000,
                    alloc_bytes: 2048,
                    allocs: 5,
                },
            ],
        }
    }

    #[test]
    fn trace_records_roundtrip_exactly() {
        let t = sample_trace();
        let bytes = encode_trace_record(&t);
        assert_eq!(decode_trace_record(&bytes).unwrap(), t);
        // Optional fields absent.
        let mut bare = t.clone();
        bare.fingerprint = None;
        bare.outcome = None;
        bare.spans.clear();
        let bytes = encode_trace_record(&bare);
        assert_eq!(decode_trace_record(&bytes).unwrap(), bare);
        // Determinism (the store's skip-if-unchanged write-through).
        assert_eq!(encode_trace_record(&t), encode_trace_record(&t));
    }

    #[test]
    fn trace_record_decode_rejects_corruption() {
        let bytes = encode_trace_record(&sample_trace());
        for cut in [0, 1, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_trace_record(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert_eq!(
            decode_trace_record(&wrong_version),
            Err(CodecError::UnsupportedVersion(99))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_trace_record(&trailing),
            Err(CodecError::Invalid(_))
        ));
        // A forward parent reference is structurally invalid.
        let mut forward = sample_trace();
        forward.spans[0].parent = Some(1);
        assert!(matches!(
            decode_trace_record(&encode_trace_record(&forward)),
            Err(CodecError::Invalid(_))
        ));
    }

    /// Golden pin for the trace-record layout, mirroring the session pin:
    /// a change here means bumping [`TRACE_RECORD_VERSION`].
    #[test]
    fn golden_trace_record_bytes_are_stable() {
        let t = StoredTrace {
            trace: 0xAB,
            endpoint: "/t".to_string(),
            status: 503,
            fingerprint: None,
            outcome: Some("miss".to_string()),
            elapsed_us: 7,
            dropped_spans: 0,
            seq: 1,
            spans: vec![StoredTraceSpan {
                name: "x".to_string(),
                parent: None,
                start_us: 0,
                dur_us: 7,
                alloc_bytes: 9,
                allocs: 2,
            }],
        };
        let bytes = encode_trace_record(&t);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "02",                               // trace record version
                "ab000000000000000000000000000000", // trace = 0xAB
                "02000000",                         // endpoint len = 2
                "2f74",                             // "/t"
                "f7010000",                         // status = 503
                "00",                               // no fingerprint
                "03",                               // outcome = miss
                "0700000000000000",                 // elapsed_us = 7
                "0000000000000000",                 // dropped_spans = 0
                "0100000000000000",                 // seq = 1
                "01000000",                         // 1 span
                "01000000",                         // name len = 1
                "78",                               // "x"
                "ffffffff",                         // parent = none
                "0000000000000000",                 // start_us = 0
                "0700000000000000",                 // dur_us = 7
                "0900000000000000",                 // alloc_bytes = 9
                "0200000000000000",                 // allocs = 2
            ),
            "trace codec layout changed — bump TRACE_RECORD_VERSION"
        );
        // A version-1 document (no alloc fields) still decodes, its spans
        // reading back as zero allocation.
        let mut v1 = bytes.clone();
        v1[0] = 1;
        v1.truncate(v1.len() - 16);
        let decoded = decode_trace_record(&v1).expect("version-1 record decodes");
        assert_eq!(decoded.spans[0].alloc_bytes, 0);
        assert_eq!(decoded.spans[0].allocs, 0);
        assert_eq!(decoded.spans[0].dur_us, 7);
    }

    #[test]
    fn trace_record_json_matches_the_live_recorder_schema() {
        let t = sample_trace();
        let json = t.to_json();
        for needle in [
            "\"trace\":\"00112233445566778899aabbccddeeff\"",
            "\"endpoint\":\"/analyze\"",
            "\"status\":200,",
            "\"fingerprint\":\"000000000000000000000000000000a5\"",
            "\"outcome\":\"hit\"",
            "\"elapsed_us\":12345",
            "\"spans\":[{\"name\":\"/analyze\",\"parent\":null",
            "{\"name\":\"eigensolve\",\"parent\":0",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
    }

    #[test]
    fn invalid_graphs_fail_revalidation() {
        // Hand-encode a 1-vertex graph with a self-loop.
        let mut w = Writer::new();
        w.put_u8(SESSION_VERSION);
        w.put_u32(1);
        w.put_u8(0); // Input
        w.put_u32(1); // one edge
        w.put_u32(0);
        w.put_u32(0); // 0 -> 0
        w.put_u32(0); // no spectra
        w.put_u32(0); // no cuts
        assert!(matches!(
            decode_session(&w.into_bytes()),
            Err(CodecError::Invalid(_))
        ));
    }
}
