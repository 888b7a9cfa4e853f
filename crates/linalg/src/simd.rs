//! Runtime-dispatched AVX2 kernels with an always-compiled scalar fallback.
//!
//! Every hot loop in this crate — dot products (single and 4-wide),
//! `axpy`/`axpby`/`scal` and the fused 4-vector update, the CSR mat-vec,
//! the Householder rank-2 row update and the QL row rotation — funnels
//! through this module. Dispatch is decided per kernel entry from the
//! process-global [`SimdPolicy`] knob and cached
//! `is_x86_feature_detected!` probes (AVX2, plus AVX-512F where the
//! wider mat-vec body applies); on non-x86_64 targets (or when the
//! features are absent) the scalar bodies below are the only path, so
//! the fallback can never rot out of the build.
//!
//! # Determinism contract
//!
//! * **Element-wise kernels** (`axpy`, `axpby`, `scal`, the fused
//!   4-vector update `axpy4`, the rank-2 row update, the QL row rotation)
//!   perform exactly the same multiply/add sequence per element in
//!   scalar and vector form — no FMA contraction (a fused multiply-add
//!   rounds once where `mul` + `add` round twice, so `Strict` never emits
//!   it). These are bit-identical under every policy.
//! * **Dot products** use one canonical shape in both implementations:
//!   four accumulator lanes striped over the input
//!   (`lane j ← elements j, j+4, j+8, …`), combined as
//!   `((l0 + l1) + (l2 + l3))`, then a sequential tail for the remainder.
//!   The scalar body *is* that algorithm, so `Strict` (and `Off`) produce
//!   bit-identical results whether or not AVX2 ran.
//!   The 4-wide multi-dot `dot4` shares one pass over `x` between four
//!   products but gives each its own 4-lane accumulator and tail, so each
//!   result is `dot(x, q_j)` bit for bit.
//! * **CSR mat-vec** vectorizes *across* rows, not within them: graph
//!   Laplacian rows are a handful of scattered entries, far too short for
//!   in-row lanes to pay. [`crate::CsrMatrix`] stores an interleaved
//!   (SELL-style) mirror of its rows in blocks of [`SELL_ROWS`] = 8, and
//!   the kernels assign lane `r` of the accumulator to row `r`, so every
//!   row's sum accumulates **left to right in column order** — the natural
//!   scalar loop — in scalar, AVX2, and AVX-512 form alike. Short rows pad
//!   with `(col 0, value 0.0)` steps, and the scalar twin walks the same
//!   padded layout, so all three bodies are structurally bit-identical.
//!
//! The knob is settable programmatically ([`set_policy`]) and via the
//! `GRAPHIO_SIMD` environment variable (`off` | `strict`), which
//! CI uses to run the whole suite with vector code disabled.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How much SIMD the kernels may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Never dispatch to vector code (the scalar reference path).
    Off,
    /// Vector code only where results stay bit-identical to scalar
    /// (element-wise ops + the canonical striped reduction). The default.
    #[default]
    Strict,
}

impl SimdPolicy {
    /// Parses the CLI / `GRAPHIO_SIMD` spelling.
    pub fn parse(s: &str) -> Option<SimdPolicy> {
        match s {
            "off" => Some(SimdPolicy::Off),
            "strict" => Some(SimdPolicy::Strict),
            _ => None,
        }
    }

    /// The CLI spelling (`off` | `strict`).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdPolicy::Off => "off",
            SimdPolicy::Strict => "strict",
        }
    }
}

/// 0 = unset (defer to `GRAPHIO_SIMD` / default); 1..=2 map to the policy.
static GLOBAL: AtomicUsize = AtomicUsize::new(0);

fn env_default() -> SimdPolicy {
    static CACHED: OnceLock<SimdPolicy> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("GRAPHIO_SIMD")
            .ok()
            .and_then(|v| SimdPolicy::parse(&v))
            .unwrap_or_default()
    })
}

/// Sets the process-global SIMD policy (overrides `GRAPHIO_SIMD`).
pub fn set_policy(policy: SimdPolicy) {
    let enc = match policy {
        SimdPolicy::Off => 1,
        SimdPolicy::Strict => 2,
    };
    GLOBAL.store(enc, Ordering::Relaxed);
}

/// The currently configured policy (after the `GRAPHIO_SIMD` override).
pub fn policy() -> SimdPolicy {
    match GLOBAL.load(Ordering::Relaxed) {
        1 => SimdPolicy::Off,
        2 => SimdPolicy::Strict,
        _ => env_default(),
    }
}

/// Whether the running CPU supports the AVX2 kernels.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CACHED: OnceLock<bool> = OnceLock::new();
        *CACHED.get_or_init(|| is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the running CPU supports the AVX-512F mat-vec body (eight f64
/// lanes in one register — one gather per interleaved step instead of two).
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CACHED: OnceLock<bool> = OnceLock::new();
        *CACHED.get_or_init(|| is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Rows per interleaved CSR block: the lane count of one AVX-512 `f64`
/// register (two AVX2 registers). [`crate::CsrMatrix`] builds its
/// interleaved mirror in blocks of this height.
pub const SELL_ROWS: usize = 8;

/// Inputs shorter than this skip SIMD dispatch (and the stats counters)
/// entirely — a handful of scalar ops beats the vector setup.
const MIN_SIMD_LEN: usize = 8;

/// Resolved dispatch decision for one kernel entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    Scalar,
    Strict,
}

/// Decides the route for a kernel entry over `len` elements, ticking the
/// stats counters: one `simd_kernel_calls` per entry that dispatches to
/// vector code, one `scalar_fallbacks` per entry that wanted vector code
/// but cannot run it on this CPU.
pub(crate) fn route(len: usize) -> Route {
    let policy = policy();
    if policy == SimdPolicy::Off || len < MIN_SIMD_LEN {
        return Route::Scalar;
    }
    if !avx2_available() {
        crate::stats::record_scalar_fallback();
        return Route::Scalar;
    }
    crate::stats::record_simd_kernel_call();
    Route::Strict
}

// ---------------------------------------------------------------------------
// Canonical scalar bodies (the reference semantics for `Strict`).
// ---------------------------------------------------------------------------

/// Canonical striped-lane dot product: the scalar spelling of the `Strict`
/// reduction (4 lanes, `((l0+l1)+(l2+l3))`, sequential tail).
pub fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let quads = n - n % 4;
    let mut l = [0.0f64; 4];
    let mut i = 0;
    while i < quads {
        l[0] += x[i] * y[i];
        l[1] += x[i + 1] * y[i + 1];
        l[2] += x[i + 2] * y[i + 2];
        l[3] += x[i + 3] * y[i + 3];
        i += 4;
    }
    let mut tail = 0.0;
    for k in quads..n {
        tail += x[k] * y[k];
    }
    ((l[0] + l[1]) + (l[2] + l[3])) + tail
}

/// Reference interleaved mat-vec: lane `r`
/// of each 8-wide accumulator is row `r`, each lane summing its row's
/// entries left to right in column order (padding steps contribute
/// `0.0 · x[0]`). The vector bodies replay exactly this per-lane op
/// sequence, so all three are bit-identical.
///
/// `sell_ptr[b] .. sell_ptr[b + 1]` is block `b`'s step range; step `s`
/// of a block stores its 8 columns at `cols[s*8 .. s*8+8]` (values
/// likewise). `y` covers every row of the matrix.
pub(crate) fn sell_matvec_scalar(
    sell_ptr: &[usize],
    cols: &[u32],
    vals: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    for (b, yb) in y.chunks_mut(SELL_ROWS).enumerate() {
        let mut acc = [0.0f64; SELL_ROWS];
        let mut p = sell_ptr[b] * SELL_ROWS;
        for _ in sell_ptr[b]..sell_ptr[b + 1] {
            for (l, a) in acc.iter_mut().enumerate() {
                *a += vals[p + l] * x[cols[p + l] as usize];
            }
            p += SELL_ROWS;
        }
        yb.copy_from_slice(&acc[..yb.len()]);
    }
}

/// Four canonical dot products `⟨x, q_j⟩` in one pass over `x`. Each keeps
/// its own lanes and tail, so result `j` equals `dot_scalar(x, q[j])` bit
/// for bit.
fn dot4_scalar(x: &[f64], q: [&[f64]; 4]) -> [f64; 4] {
    let n = x.len();
    let quads = n - n % 4;
    let mut l = [[0.0f64; 4]; 4];
    let mut i = 0;
    while i < quads {
        for (lj, qj) in l.iter_mut().zip(q) {
            lj[0] += x[i] * qj[i];
            lj[1] += x[i + 1] * qj[i + 1];
            lj[2] += x[i + 2] * qj[i + 2];
            lj[3] += x[i + 3] * qj[i + 3];
        }
        i += 4;
    }
    let mut out = [0.0f64; 4];
    for ((o, lj), qj) in out.iter_mut().zip(l).zip(q) {
        let mut tail = 0.0;
        for k in quads..n {
            tail += x[k] * qj[k];
        }
        *o = ((lj[0] + lj[1]) + (lj[2] + lj[3])) + tail;
    }
    out
}

fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `y ← y + a_0·x_0 + a_1·x_1 + a_2·x_2 + a_3·x_3`, terms added in
/// ascending `j` — per element exactly four sequential `axpy` calls.
fn axpy4_scalar(a: [f64; 4], x: [&[f64]; 4], y: &mut [f64]) {
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = *yi;
        acc += a[0] * x[0][i];
        acc += a[1] * x[1][i];
        acc += a[2] * x[2][i];
        acc += a[3] * x[3][i];
        *yi = acc;
    }
}

fn axpby_scalar(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = alpha * xi + beta * *yi;
    }
}

fn scal_scalar(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

fn rank2_row_scalar(row: &mut [f64], uj: f64, ej: f64, e: &[f64], u: &[f64]) {
    for ((rk, ek), uk) in row.iter_mut().zip(e.iter()).zip(u.iter()) {
        *rk -= uj * ek + ej * uk;
    }
}

/// The QL Givens rotation on two rows: `hi ← s·lo + c·hi`,
/// `lo ← c·lo − s·hi` (with the old `hi`).
fn rotate_rows_scalar(s: f64, c: f64, lo: &mut [f64], hi: &mut [f64]) {
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        let f = *h;
        *h = s * *l + c * f;
        *l = c * *l - s * f;
    }
}

// ---------------------------------------------------------------------------
// AVX2 bodies.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// `Strict` dot: one 4-lane accumulator, `mul` + `add` per step (no
    /// FMA), lanes combined exactly like [`super::dot_scalar`].
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `x.len() == y.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_strict(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let quads = n - n % 4;
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < quads {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(xv, yv));
            i += 4;
        }
        let mut l = [0.0f64; 4];
        _mm256_storeu_pd(l.as_mut_ptr(), acc);
        let mut tail = 0.0;
        for k in quads..n {
            tail += x[k] * y[k];
        }
        ((l[0] + l[1]) + (l[2] + l[3])) + tail
    }

    /// `Strict` 4-wide multi-dot: one load of `x` per quad feeds four
    /// 4-lane accumulators, each combined exactly like
    /// [`super::dot_scalar`], so result `j` equals `dot_strict(x, q[j])`.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and every `q[j].len() == x.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot4_strict(x: &[f64], q: [&[f64]; 4]) -> [f64; 4] {
        let n = x.len();
        let quads = n - n % 4;
        let mut acc = [_mm256_setzero_pd(); 4];
        let mut i = 0;
        while i < quads {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            for (a, qj) in acc.iter_mut().zip(q) {
                let qv = _mm256_loadu_pd(qj.as_ptr().add(i));
                *a = _mm256_add_pd(*a, _mm256_mul_pd(xv, qv));
            }
            i += 4;
        }
        let mut out = [0.0f64; 4];
        for ((o, a), qj) in out.iter_mut().zip(acc).zip(q) {
            let mut l = [0.0f64; 4];
            _mm256_storeu_pd(l.as_mut_ptr(), a);
            let mut tail = 0.0;
            for k in quads..n {
                tail += x[k] * qj[k];
            }
            *o = ((l[0] + l[1]) + (l[2] + l[3])) + tail;
        }
        out
    }

    /// Interleaved mat-vec, two 4-lane registers per 8-row block — the
    /// same per-lane op sequence as [`super::sell_matvec_scalar`]. Steps
    /// whose 8 columns are consecutive (`c0 .. c0+8`, common for the
    /// structured generator families: the diagonal and any "straight"
    /// edge map 8 consecutive rows to 8 consecutive columns) use plain
    /// vector loads; scattered steps use hardware gathers — either way
    /// the same `x` elements reach the same lanes.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, the interleaved layout is
    /// well-formed (as described on `sell_matvec_scalar`), and every
    /// column index is `< x.len()` and `<= i32::MAX`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sell_matvec(
        sell_ptr: &[usize],
        cols: &[u32],
        vals: &[f64],
        x: &[f64],
        y: &mut [f64],
    ) {
        const C: usize = super::SELL_ROWS;
        let step = _mm_setr_epi32(0, 1, 2, 3);
        for (b, yb) in y.chunks_mut(C).enumerate() {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            let mut p = sell_ptr[b] * C;
            for _ in sell_ptr[b]..sell_ptr[b + 1] {
                let c0 = *cols.get_unchecked(p);
                let i0 = _mm_loadu_si128(cols.as_ptr().add(p) as *const __m128i);
                let i1 = _mm_loadu_si128(cols.as_ptr().add(p + 4) as *const __m128i);
                let e0 = _mm_add_epi32(_mm_set1_epi32(c0 as i32), step);
                let e1 = _mm_add_epi32(_mm_set1_epi32((c0 as i32).wrapping_add(4)), step);
                let contiguous = _mm_movemask_epi8(_mm_cmpeq_epi32(i0, e0)) == 0xFFFF
                    && _mm_movemask_epi8(_mm_cmpeq_epi32(i1, e1)) == 0xFFFF;
                let (x0, x1) = if contiguous {
                    let base = x.as_ptr().add(c0 as usize);
                    (_mm256_loadu_pd(base), _mm256_loadu_pd(base.add(4)))
                } else {
                    (
                        _mm256_i32gather_pd::<8>(x.as_ptr(), i0),
                        _mm256_i32gather_pd::<8>(x.as_ptr(), i1),
                    )
                };
                let v0 = _mm256_loadu_pd(vals.as_ptr().add(p));
                let v1 = _mm256_loadu_pd(vals.as_ptr().add(p + 4));
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v0, x0));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v1, x1));
                p += C;
            }
            let mut out = [0.0f64; C];
            _mm256_storeu_pd(out.as_mut_ptr(), acc0);
            _mm256_storeu_pd(out.as_mut_ptr().add(4), acc1);
            yb.copy_from_slice(&out[..yb.len()]);
        }
    }

    /// `y ← y + alpha·x` (element-wise; bit-identical to scalar).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `x.len() == y.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let quads = n - n % 4;
        let a = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i < quads {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            _mm256_storeu_pd(
                y.as_mut_ptr().add(i),
                _mm256_add_pd(yv, _mm256_mul_pd(a, xv)),
            );
            i += 4;
        }
        for k in quads..n {
            y[k] += alpha * x[k];
        }
    }

    /// `y ← y + Σ_j a_j·x_j`, ascending `j`, one load/store of `y` per
    /// quad (element-wise; bit-identical to four sequential `axpy` calls).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and every
    /// `x[j].len() >= y.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy4(a: [f64; 4], x: [&[f64]; 4], y: &mut [f64]) {
        let n = y.len();
        let quads = n - n % 4;
        let av = a.map(|aj| _mm256_set1_pd(aj));
        let mut i = 0;
        while i < quads {
            let mut yv = _mm256_loadu_pd(y.as_ptr().add(i));
            for (aj, xj) in av.iter().zip(x) {
                let xv = _mm256_loadu_pd(xj.as_ptr().add(i));
                yv = _mm256_add_pd(yv, _mm256_mul_pd(*aj, xv));
            }
            _mm256_storeu_pd(y.as_mut_ptr().add(i), yv);
            i += 4;
        }
        for k in quads..n {
            let mut acc = y[k];
            acc += a[0] * x[0][k];
            acc += a[1] * x[1][k];
            acc += a[2] * x[2][k];
            acc += a[3] * x[3][k];
            y[k] = acc;
        }
    }

    /// `y ← alpha·x + beta·y` (element-wise; bit-identical to scalar).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `x.len() == y.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        let n = y.len();
        let quads = n - n % 4;
        let a = _mm256_set1_pd(alpha);
        let b = _mm256_set1_pd(beta);
        let mut i = 0;
        while i < quads {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            _mm256_storeu_pd(
                y.as_mut_ptr().add(i),
                _mm256_add_pd(_mm256_mul_pd(a, xv), _mm256_mul_pd(b, yv)),
            );
            i += 4;
        }
        for k in quads..n {
            y[k] = alpha * x[k] + beta * y[k];
        }
    }

    /// `x ← alpha·x` (element-wise; bit-identical to scalar).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scal(alpha: f64, x: &mut [f64]) {
        let n = x.len();
        let quads = n - n % 4;
        let a = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i < quads {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            _mm256_storeu_pd(x.as_mut_ptr().add(i), _mm256_mul_pd(a, xv));
            i += 4;
        }
        for xk in &mut x[quads..] {
            *xk *= alpha;
        }
    }

    /// `row[k] -= uj·e[k] + ej·u[k]` (element-wise; bit-identical to
    /// scalar: the inner sum is `add(mul, mul)` in both forms).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and
    /// `row.len() <= min(e.len(), u.len())`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rank2_row(row: &mut [f64], uj: f64, ej: f64, e: &[f64], u: &[f64]) {
        let n = row.len();
        let quads = n - n % 4;
        let ujv = _mm256_set1_pd(uj);
        let ejv = _mm256_set1_pd(ej);
        let mut i = 0;
        while i < quads {
            let ev = _mm256_loadu_pd(e.as_ptr().add(i));
            let uv = _mm256_loadu_pd(u.as_ptr().add(i));
            let rv = _mm256_loadu_pd(row.as_ptr().add(i));
            let upd = _mm256_add_pd(_mm256_mul_pd(ujv, ev), _mm256_mul_pd(ejv, uv));
            _mm256_storeu_pd(row.as_mut_ptr().add(i), _mm256_sub_pd(rv, upd));
            i += 4;
        }
        for k in quads..n {
            row[k] -= uj * e[k] + ej * u[k];
        }
    }

    /// The QL row rotation `hi ← s·lo + c·hi`, `lo ← c·lo − s·hi`
    /// (element-wise; bit-identical to [`super::rotate_rows_scalar`]).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `lo.len() == hi.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rotate_rows(s: f64, c: f64, lo: &mut [f64], hi: &mut [f64]) {
        let n = lo.len();
        let quads = n - n % 4;
        let sv = _mm256_set1_pd(s);
        let cv = _mm256_set1_pd(c);
        let mut i = 0;
        while i < quads {
            let lv = _mm256_loadu_pd(lo.as_ptr().add(i));
            let hv = _mm256_loadu_pd(hi.as_ptr().add(i));
            let new_hi = _mm256_add_pd(_mm256_mul_pd(sv, lv), _mm256_mul_pd(cv, hv));
            let new_lo = _mm256_sub_pd(_mm256_mul_pd(cv, lv), _mm256_mul_pd(sv, hv));
            _mm256_storeu_pd(hi.as_mut_ptr().add(i), new_hi);
            _mm256_storeu_pd(lo.as_mut_ptr().add(i), new_lo);
            i += 4;
        }
        for k in quads..n {
            let f = hi[k];
            hi[k] = s * lo[k] + c * f;
            lo[k] = c * lo[k] - s * f;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// Interleaved mat-vec, one 8-lane register per block — the same
    /// per-lane op sequence as [`super::sell_matvec_scalar`] and
    /// [`super::avx2::sell_matvec`], but each step is a single 8-wide
    /// load-or-gather plus one `mul` + `add`.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F is available, the interleaved layout
    /// is well-formed, and every column index is `< x.len()` and
    /// `<= i32::MAX`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sell_matvec(
        sell_ptr: &[usize],
        cols: &[u32],
        vals: &[f64],
        x: &[f64],
        y: &mut [f64],
    ) {
        const C: usize = super::SELL_ROWS;
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        for (b, yb) in y.chunks_mut(C).enumerate() {
            let mut acc = _mm512_setzero_pd();
            let mut p = sell_ptr[b] * C;
            for _ in sell_ptr[b]..sell_ptr[b + 1] {
                let c0 = *cols.get_unchecked(p);
                let idx = _mm256_loadu_si256(cols.as_ptr().add(p) as *const __m256i);
                let expect = _mm256_add_epi32(_mm256_set1_epi32(c0 as i32), iota);
                let eq = _mm256_cmpeq_epi32(idx, expect);
                let xv = if _mm256_movemask_epi8(eq) == -1 {
                    _mm512_loadu_pd(x.as_ptr().add(c0 as usize))
                } else {
                    _mm512_i32gather_pd::<8>(idx, x.as_ptr())
                };
                let vv = _mm512_loadu_pd(vals.as_ptr().add(p));
                acc = _mm512_add_pd(acc, _mm512_mul_pd(vv, xv));
                p += C;
            }
            let mut out = [0.0f64; C];
            _mm512_storeu_pd(out.as_mut_ptr(), acc);
            yb.copy_from_slice(&out[..yb.len()]);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatching entry points (used by `vecops`, `csr`, `householder`).
// ---------------------------------------------------------------------------

/// Dot product under the active policy.
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    match route(x.len()) {
        Route::Scalar => dot_scalar(x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: route() returned a SIMD lane only after the AVX2 probe,
        // and callers checked the lengths.
        Route::Strict => unsafe { avx2::dot_strict(x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => dot_scalar(x, y),
    }
}

/// Four dot products `⟨x, q_j⟩` under the active policy, bit-identical to
/// four [`dot`] calls.
///
/// # Panics
/// Panics if any `q[j]` differs in length from `x`.
pub(crate) fn dot4(x: &[f64], q: [&[f64]; 4]) -> [f64; 4] {
    assert!(
        q.iter().all(|qj| qj.len() == x.len()),
        "dot4: length mismatch"
    );
    match route(x.len()) {
        Route::Scalar => dot4_scalar(x, q),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: route() returned a SIMD lane only after the AVX2 probe,
        // and the lengths were checked above.
        Route::Strict => unsafe { avx2::dot4_strict(x, q) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => dot4_scalar(x, q),
    }
}

/// `y ← y + Σ_j a_j·x_j` (ascending `j`) under the active policy,
/// bit-identical to four sequential [`axpy`] calls.
///
/// # Panics
/// Panics if any `x[j]` differs in length from `y`.
pub(crate) fn axpy4(a: [f64; 4], x: [&[f64]; 4], y: &mut [f64]) {
    assert!(
        x.iter().all(|xj| xj.len() == y.len()),
        "axpy4: length mismatch"
    );
    match route(y.len()) {
        Route::Scalar => axpy4_scalar(a, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: route() returned a SIMD lane only after the AVX2 probe,
        // and the lengths were checked above.
        _ => unsafe { avx2::axpy4(a, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => axpy4_scalar(a, x, y),
    }
}

/// `y ← y + alpha·x` under the active policy.
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    match route(y.len()) {
        Route::Scalar => axpy_scalar(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot`.
        _ => unsafe { avx2::axpy(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => axpy_scalar(alpha, x, y),
    }
}

/// `y ← alpha·x + beta·y` under the active policy.
pub(crate) fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    match route(y.len()) {
        Route::Scalar => axpby_scalar(alpha, x, beta, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot`.
        _ => unsafe { avx2::axpby(alpha, x, beta, y) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => axpby_scalar(alpha, x, beta, y),
    }
}

/// `x ← alpha·x` under the active policy.
pub(crate) fn scal(alpha: f64, x: &mut [f64]) {
    match route(x.len()) {
        Route::Scalar => scal_scalar(alpha, x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot`.
        _ => unsafe { avx2::scal(alpha, x) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scal_scalar(alpha, x),
    }
}

/// `row[k] -= uj·e[k] + ej·u[k]` under a pre-resolved route (the
/// Householder panel kernels resolve once per panel, not once per row).
pub(crate) fn rank2_row_routed(
    route: Route,
    row: &mut [f64],
    uj: f64,
    ej: f64,
    e: &[f64],
    u: &[f64],
) {
    match route {
        Route::Scalar => rank2_row_scalar(row, uj, ej, e, u),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller resolved the route via `route()`, which only
        // returns a SIMD lane after the AVX2 probe.
        _ => unsafe { avx2::rank2_row(row, uj, ej, e, u) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => rank2_row_scalar(row, uj, ej, e, u),
    }
}

/// The QL row rotation under a pre-resolved route (the QL iteration
/// resolves once per call, not once per rotation).
///
/// # Panics
/// Panics if the rows differ in length.
pub(crate) fn rotate_rows_routed(route: Route, s: f64, c: f64, lo: &mut [f64], hi: &mut [f64]) {
    assert_eq!(lo.len(), hi.len(), "rotate_rows: length mismatch");
    match route {
        Route::Scalar => rotate_rows_scalar(s, c, lo, hi),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller resolved the route via `route()`, which only
        // returns a SIMD lane after the AVX2 probe; lengths checked above.
        _ => unsafe { avx2::rotate_rows(s, c, lo, hi) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => rotate_rows_scalar(s, c, lo, hi),
    }
}

/// `y ← y + alpha·x` under a pre-resolved route.
pub(crate) fn axpy_routed(route: Route, alpha: f64, x: &[f64], y: &mut [f64]) {
    match route {
        Route::Scalar => axpy_scalar(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `rank2_row_routed`.
        _ => unsafe { avx2::axpy(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => axpy_scalar(alpha, x, y),
    }
}

/// Interleaved mat-vec under a pre-resolved route (the mat-vec resolves
/// once per call, then every block runs the same body). Lanes are rows,
/// so there is no horizontal reduction. The widest available body wins —
/// AVX-512F when the CPU has it, else AVX2.
pub(crate) fn sell_matvec_routed(
    route: Route,
    sell_ptr: &[usize],
    cols: &[u32],
    vals: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    match route {
        Route::Scalar => sell_matvec_scalar(sell_ptr, cols, vals, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller resolved the route via `route()`, which only
        // returns a SIMD lane after the AVX2 probe; `CsrMatrix` guards the
        // `i32::MAX` column range before engaging SIMD and owns the layout
        // invariants.
        _ => unsafe {
            if avx512_available() {
                avx512::sell_matvec(sell_ptr, cols, vals, x, y)
            } else {
                avx2::sell_matvec(sell_ptr, cols, vals, x, y)
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => sell_matvec_scalar(sell_ptr, cols, vals, x, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) as f64 * 0.137).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 5 + 1) as f64 * 0.211).cos()).collect();
        (x, y)
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in [SimdPolicy::Off, SimdPolicy::Strict] {
            assert_eq!(SimdPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(SimdPolicy::parse("avx512"), None);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn strict_kernels_bit_identical_for_all_remainders() {
        if !avx2_available() {
            return;
        }
        // Lengths 0..64 cover every remainder class of the 4-wide loops.
        for n in 0..64usize {
            let (x, mut y) = vecs(n);
            // SAFETY: guarded by avx2_available() above.
            unsafe {
                assert_eq!(dot_scalar(&x, &y), avx2::dot_strict(&x, &y), "dot n={n}");
                let mut y2 = y.clone();
                axpy_scalar(0.37, &x, &mut y);
                avx2::axpy(0.37, &x, &mut y2);
                assert_eq!(y, y2, "axpy n={n}");
                axpby_scalar(1.25, &x, -0.5, &mut y);
                avx2::axpby(1.25, &x, -0.5, &mut y2);
                assert_eq!(y, y2, "axpby n={n}");
                scal_scalar(-1.75, &mut y);
                avx2::scal(-1.75, &mut y2);
                assert_eq!(y, y2, "scal n={n}");
                let e: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
                rank2_row_scalar(&mut y, 0.9, -1.1, &e, &x);
                avx2::rank2_row(&mut y2, 0.9, -1.1, &e, &x);
                assert_eq!(y, y2, "rank2 n={n}");
                let mut e2 = e.clone();
                rotate_rows_scalar(0.6, -0.8, &mut y, &mut e2);
                let mut e3 = e.clone();
                avx2::rotate_rows(0.6, -0.8, &mut y2, &mut e3);
                assert_eq!((&y, &e2), (&y2, &e3), "rotate n={n}");
            }
        }
    }

    #[test]
    fn four_wide_kernels_match_the_single_vector_kernels() {
        // Every remainder class of the 4-lane loops; the scalar twins must
        // equal per-vector `dot_scalar` / sequential `axpy_scalar` exactly,
        // and (where AVX2 runs) so must the vector bodies.
        for n in 0..40usize {
            let (x, y0) = vecs(n);
            let q: Vec<Vec<f64>> = (0..4)
                .map(|j| {
                    (0..n)
                        .map(|i| ((i * (j + 2)) as f64 * 0.29).sin())
                        .collect()
                })
                .collect();
            let qs = [&q[0][..], &q[1][..], &q[2][..], &q[3][..]];
            let per_vector = qs.map(|qj| dot_scalar(&x, qj));
            assert_eq!(dot4_scalar(&x, qs), per_vector, "dot4 n={n}");
            let a = [0.37, -1.25, 2.5e-3, -0.81];
            let mut sequential = y0.clone();
            for (aj, qj) in a.iter().zip(qs) {
                axpy_scalar(*aj, qj, &mut sequential);
            }
            let mut fused = y0.clone();
            axpy4_scalar(a, qs, &mut fused);
            assert_eq!(fused, sequential, "axpy4 n={n}");
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                // SAFETY: guarded by avx2_available().
                unsafe {
                    assert_eq!(avx2::dot4_strict(&x, qs), per_vector, "avx2 dot4 n={n}");
                    let mut fused = y0.clone();
                    avx2::axpy4(a, qs, &mut fused);
                    assert_eq!(fused, sequential, "avx2 axpy4 n={n}");
                }
            }
        }
    }

    /// Hand-builds an interleaved layout: block `b` holds rows
    /// `b*8 .. b*8+8` with the given per-row `(cols, vals)`.
    fn sell_layout(rows: &[(Vec<u32>, Vec<f64>)]) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let nblocks = rows.len().div_ceil(SELL_ROWS);
        let mut ptr = vec![0usize];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for b in 0..nblocks {
            let block = &rows[b * SELL_ROWS..rows.len().min((b + 1) * SELL_ROWS)];
            let steps = block.iter().map(|(c, _)| c.len()).max().unwrap_or(0);
            for k in 0..steps {
                for lane in 0..SELL_ROWS {
                    let (c, v) = block
                        .get(lane)
                        .and_then(|(rc, rv)| rc.get(k).map(|&c| (c, rv[k])))
                        .unwrap_or((0, 0.0));
                    cols.push(c);
                    vals.push(v);
                }
            }
            ptr.push(ptr[b] + steps);
        }
        (ptr, cols, vals)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sell_matvec_bodies_bit_identical_across_patterns() {
        if !avx2_available() {
            return;
        }
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.173).sin()).collect();
        // Row counts covering partial final blocks, with contiguous,
        // scattered, mixed, and empty rows of assorted lengths — the
        // contiguity fast path, the gather path, and padding all engage.
        for nrows in [1usize, 7, 8, 9, 16, 23] {
            let rows: Vec<(Vec<u32>, Vec<f64>)> = (0..nrows)
                .map(|r| {
                    let len = [0usize, 3, 5, 8, 13, 21][r % 6];
                    let cols: Vec<u32> = if r % 3 == 0 {
                        (r as u32 * 8..r as u32 * 8 + len as u32).collect()
                    } else {
                        let mut c: Vec<u32> = (0..len as u32)
                            .map(|i| (i * 37 + r as u32 * 11) % 256)
                            .collect();
                        c.sort_unstable();
                        c.dedup();
                        c
                    };
                    let vals: Vec<f64> = (0..cols.len())
                        .map(|i| ((i + r) as f64 * 0.91).cos())
                        .collect();
                    (cols, vals)
                })
                .collect();
            let (ptr, cols, vals) = sell_layout(&rows);
            let mut y_ref = vec![0.0f64; nrows];
            sell_matvec_scalar(&ptr, &cols, &vals, &x, &mut y_ref);
            // Plain per-row sequential sums must agree exactly (padding
            // only appends `+ 0.0 · x[0]` terms).
            for (r, (rc, rv)) in rows.iter().enumerate() {
                let mut s = 0.0;
                for (c, v) in rc.iter().zip(rv) {
                    s += v * x[*c as usize];
                }
                assert_eq!(s, y_ref[r], "row {r}");
            }
            let mut y = vec![0.0f64; nrows];
            // SAFETY: guarded by avx2_available(); columns < 256.
            unsafe { avx2::sell_matvec(&ptr, &cols, &vals, &x, &mut y) };
            assert_eq!(y_ref, y, "avx2 nrows={nrows}");
            if avx512_available() {
                let mut y = vec![0.0f64; nrows];
                // SAFETY: guarded by avx512_available(); columns < 256.
                unsafe { avx512::sell_matvec(&ptr, &cols, &vals, &x, &mut y) };
                assert_eq!(y_ref, y, "avx512 nrows={nrows}");
            }
        }
    }
}
