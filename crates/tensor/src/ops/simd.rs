//! Explicit AVX2/FMA GEMM microkernels with packed panels — f32 and
//! int8.
//!
//! The portable GEMMs in [`matmul`](super::matmul) lean on LLVM
//! autovectorizing a multi-accumulator dot product. This module is the
//! hand-written alternative every CPU BLAS ships: a 6×16 register-tile
//! microkernel (`6 rows × 2 YMM columns = 12 f32 accumulators`, the
//! classic AVX2 shape that fits the 16-register file with room for the
//! B loads and the A broadcast), fed by **packed panels**:
//!
//! * B is repacked per `KC×NC` block into NR-wide column panels (a
//!   narrow block packs several consecutive KC blocks at once, up to
//!   the same `KC·NC` buffer — see [`gemm`]) so the
//!   microkernel reads one contiguous, reusable stream regardless of
//!   whether the logical B is row-major (`matmul`), transposed (`linear`
//!   weights) or an *implicit im2col patch matrix* gathered straight
//!   from a convolution input — the packing routine is where layout
//!   differences die, the microkernel never knows.
//! * A is repacked per `MR×KC` panel into k-major order on the worker's
//!   stack — or, when a block has one column panel, read in place.
//!
//! Narrow outputs (`n ≤ 4`, the batch-1 convs of late ResNet stages and
//! small-batch `linear`) run a third kernel, [`mk_16xn`], that puts 8
//! rows of A in each vector instead of 8 columns of B — see Selection.
//!
//! `KC`/`NC` default to 256/512 and can be swept via `FX_GEMM_KC` /
//! `FX_GEMM_NC` (read once per process, validated and rounded to the
//! panel quantum — see [`gemm_kc`]/[`gemm_nc`]). `NC` only re-tiles the
//! columns, so it never changes an output bit. `KC` does change f32
//! bits: each KC block is its own FMA chain, and the blocks' partial
//! sums are then added in k order, so a different `KC` rounds
//! differently. Every f32 parity guarantee below holds at a fixed `KC`;
//! int8 accumulation is exact, so neither knob changes int8 bytes.
//!
//! Pack buffers are drawn from [`pool`](crate::pool) (and fully
//! overwritten, including zero edge padding, so recycled-buffer stale
//! contents can never leak into a result). The epilogue — per-row or
//! per-column bias plus optional ReLU — is applied on the accumulated
//! output, elementwise-identical to running the separate bias/ReLU
//! kernels afterwards.
//!
//! ## The int8 microkernel
//!
//! [`gemm_i8_nt`] is the quantized sibling: `i8×i8→i32` with the same
//! panel blocking and a **fused requantize+bias+ReLU epilogue** that
//! writes the final `i8` at write-back. The widening trick differs from
//! FBGEMM's `_mm256_maddubs_epi16` chain on purpose: `maddubs` adds two
//! u8×i8 products into a *saturating* i16, and `127·255 + 127·255`
//! overflows it — saturation would make SIMD results diverge from the
//! scalar fallback on adversarial inputs, breaking the bit-exactness
//! contract. Instead the B panel is pre-widened to i16 with consecutive
//! k-pairs interleaved per column, the A panel packs each k-pair as two
//! i16 in one i32, and `_mm256_madd_epi16` (broadcast pair × 8 column
//! pairs) produces **exact** i32 pair-dot-products: `i16×i16 + i16×i16`
//! peaks at `2·127²·... ≪ 2³¹`, and the running i32 accumulation is
//! exact for any k the models reach (overflow needs k ≳ 1.3·10⁵).
//! Because integer accumulation has no rounding at all, the SIMD path
//! is **bit-identical** to the scalar reference in any summation order
//! — a stronger guarantee than the f32 path can offer.
//!
//! The activation zero point is folded in after accumulation with the
//! FBGEMM row-offset identity `Σ(a−za)·w = Σa·w − za·Σw` (per-column
//! weight sums), and requantization runs through the same scalar helper
//! ([`crate::quant`]'s `requant_one`) the fallback uses, per element —
//! scalar/SIMD int8 outputs are therefore equal by construction.
//!
//! ## Numerics and determinism (f32)
//!
//! Each output element is accumulated **sequentially over k** within a
//! KC block (one fused-multiply-add per k step), and the KC blocks'
//! partial sums are added in k order, so at a fixed `KC` a value
//! depends only on its own row of A and column of B — never on tile
//! position, batch size, or thread count. That is the property the
//! serve-layer parity suite relies on: a row answered inside a batch of
//! 8 is bit-identical to the same row answered alone. The k-loop is
//! 8×-unrolled, but unrolling only peels the *same* chain — per-element
//! order is untouched. The SIMD path is *not* bit-identical to the
//! portable fallback (different summation order, and FMA keeps the
//! product unrounded); the documented bound is
//! `|Δ| ≤ 2·K·ε·Σ|aᵢ·bᵢ|` — see the ULP-tolerance sweep in the tests.
//!
//! ## Selection
//!
//! [`simd_enabled`] is decided once per process: `FX_SIMD=0` forces the
//! portable fallback (the mode `scripts/verify.sh` sweeps to keep it
//! from rotting), anything else uses runtime detection of AVX2+FMA.
//! When enabled, *every* GEMM goes through these microkernels; there is
//! no cutover to the portable engine by shape, which would make results
//! depend on the batch dimension and break serve/solo parity.
//!
//! Within the engine a cutover by shape is allowed only between kernels
//! that compute the identical per-element chain (zero start, one
//! sequential FMA per k step within a KC block, blocks added in k
//! order). [`gemm`] makes two: a column panel of ≤ 8 valid columns runs
//! [`mk_6x8`] instead of [`mk_6x16`], and an output of `n ≤ 4` columns
//! sends its full 16-row groups of A to the lanes-over-rows [`mk_16xn`]
//! (rows in the vector lanes, B broadcast), which at `n = 1` does 8
//! useful multiply-adds per FMA where [`mk_6x8`] does 1. Both choices
//! leave every output bit as it was, which the widening test checks.

use crate::pool;
use crate::threading::parallel_chunks;
use std::sync::OnceLock;

/// Microkernel tile rows.
pub(crate) const MR: usize = 6;
/// Microkernel tile columns (two 8-lane YMM vectors).
pub(crate) const NR: usize = 16;
/// Default k-panel depth: 6·256 f32 of A (6 KiB) stays L1-resident,
/// 256·16 f32 of B per column panel streams from L2.
const KC_DEFAULT: usize = 256;
/// Default column-block width: one packed B block is `KC·NC` f32
/// (512 KiB max), reused across every row panel of A.
const NC_DEFAULT: usize = 512;
/// Upper bound for `FX_GEMM_KC`; the A pack panel lives on the worker
/// stack, so the cap keeps it at `6·1024` f32 (24 KiB).
const KC_MAX: usize = 1024;
/// Upper bound for `FX_GEMM_NC` (the packed B block is pool-allocated,
/// the cap just keeps sweeps sane).
const NC_MAX: usize = 8192;

/// Read a blocking parameter from `var` once: accepts integers in
/// `[min, max]`, rounded **down** to a multiple of `quantum`; anything
/// else (unset, unparsable, out of range) falls back to `default`.
fn block_param(var: &str, default: usize, min: usize, max: usize, quantum: usize) -> usize {
    match std::env::var(var) {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(v) if (min..=max).contains(&v) => (v / quantum * quantum).max(min),
            _ => default,
        },
        Err(_) => default,
    }
}

/// K-panel depth (`FX_GEMM_KC`, default 256, once-read; multiple of 8 in
/// `[8, 1024]`). Shared by the f32 and int8 paths.
pub(crate) fn gemm_kc() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| block_param("FX_GEMM_KC", KC_DEFAULT, 8, KC_MAX, 8))
}

/// Column-block width (`FX_GEMM_NC`, default 512, once-read; multiple of
/// NR=16 in `[16, 8192]`). Shared by the f32 and int8 paths.
pub(crate) fn gemm_nc() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| block_param("FX_GEMM_NC", NC_DEFAULT, NR, NC_MAX, NR))
}

/// Whether the explicit AVX2/FMA microkernel path is in use (decided
/// once per process: `FX_SIMD=0` forces the portable fallback;
/// otherwise runtime detection of AVX2 and FMA).
pub fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var("FX_SIMD").is_ok_and(|v| v == "0") {
            return false;
        }
        simd_available()
    })
}

/// Whether this CPU can run the microkernel at all (ignores `FX_SIMD`).
#[cfg(target_arch = "x86_64")]
pub fn simd_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Whether this CPU can run the microkernel at all (ignores `FX_SIMD`).
#[cfg(not(target_arch = "x86_64"))]
pub fn simd_available() -> bool {
    false
}

/// Whether the int8 microkernel may fuse its multiply-add pairs into
/// `vpdpwssd` (AVX-512 VNNI at 256-bit width, decided once per process;
/// `FX_VNNI=0` forces the plain `vpmaddwd`+`vpaddd` form). Purely a
/// throughput knob: VNNI computes the identical exact i32 dot-product
/// accumulation in one instruction, so outputs are bit-identical either
/// way (unit-tested below).
#[cfg(target_arch = "x86_64")]
pub(crate) fn vnni_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var("FX_VNNI").is_ok_and(|v| v == "0") {
            return false;
        }
        std::arch::is_x86_feature_detected!("avx512vnni")
            && std::arch::is_x86_feature_detected!("avx512vl")
    })
}

/// Prefetch `s[idx]` into L1 if it is in bounds (a pure hint: never
/// faults, never changes results; the bounds check only avoids handing
/// the CPU a pointer past the allocation).
#[inline(always)]
fn prefetch<T>(s: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < s.len() {
        // SAFETY: in-bounds pointer; prefetch performs no memory access
        // visible to the program.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(s.as_ptr().add(idx) as *const i8);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (s, idx);
}

/// Where the logical `[k, n]` B operand's elements come from. Packing
/// resolves the layout; the microkernel sees identical panels for all
/// three.
pub(crate) enum BSrc<'a> {
    /// Row-major `[k, n]`: element `(kk, j)` lives at `b[kk*n + j]`.
    RowMajor(&'a [f32]),
    /// Transposed row-major `[n, k]` (a `Linear` weight): element
    /// `(kk, j)` lives at `b[j*k + kk]`.
    Transposed(&'a [f32]),
    /// Implicit im2col: element `(kk, j)` is kernel-offset `kk` of
    /// convolution patch `j`, gathered from the input tensor on the fly
    /// (zero where the window hangs over the padding). The full patch
    /// matrix is never materialized.
    Patches(&'a PatchSrc<'a>),
}

/// Geometry for the implicit-GEMM convolution B operand: columns are
/// patches `j = (img, oy, ox)`, rows are kernel offsets
/// `kk = (ch, ky, kx)` within one group.
pub(crate) struct PatchSrc<'a> {
    /// Full input `[N, C, H, W]`.
    pub x: &'a [f32],
    /// Total input channels `C`.
    pub c: usize,
    /// Input spatial extents.
    pub h: usize,
    /// See `h`.
    pub w: usize,
    /// First absolute input channel of the group.
    pub ch0: usize,
    /// Kernel extents.
    pub kh: usize,
    /// See `kh`.
    pub kw: usize,
    /// Stride.
    pub stride: (usize, usize),
    /// Padding.
    pub padding: (usize, usize),
    /// Dilation.
    pub dilation: (usize, usize),
    /// Output spatial extents.
    pub oh: usize,
    /// See `oh`.
    pub ow: usize,
}

/// Pack the `[k0..k0+kc) × [j0..j0+nc)` window of B into NR-wide column
/// panels: panel `jp` holds, for each k step, NR contiguous values
/// (zero-padded past the matrix edge). Every element of the used region
/// is written, so a recycled pool buffer can never leak stale data.
fn pack_b(src: &BSrc, n: usize, k: usize, k0: usize, kc: usize, j0: usize, nc: usize, pb: &mut [f32]) {
    let n_panels = nc.div_ceil(NR);
    for jp in 0..n_panels {
        let jbase = j0 + jp * NR;
        let nr_eff = NR.min(j0 + nc - jbase);
        let panel = &mut pb[jp * kc * NR..(jp + 1) * kc * NR];
        match src {
            BSrc::RowMajor(b) => {
                for (kk, row) in panel.chunks_mut(NR).enumerate() {
                    // Pull the next source row toward L1 while this one
                    // is being copied.
                    prefetch(b, (k0 + kk + 1) * n + jbase);
                    let srow = &b[(k0 + kk) * n + jbase..(k0 + kk) * n + jbase + nr_eff];
                    row[..nr_eff].copy_from_slice(srow);
                    row[nr_eff..].fill(0.0);
                }
            }
            BSrc::Transposed(b) => {
                panel.fill(0.0);
                for jj in 0..nr_eff {
                    // The next column starts a stride away — warm it up
                    // while scattering this one.
                    prefetch(b, (jbase + jj + 1) * k + k0);
                    let col = &b[(jbase + jj) * k + k0..(jbase + jj) * k + k0 + kc];
                    for (kk, &v) in col.iter().enumerate() {
                        panel[kk * NR + jj] = v;
                    }
                }
            }
            BSrc::Patches(p) => {
                let plane = p.h * p.w;
                let hw_out = p.oh * p.ow;
                let khw = p.kh * p.kw;
                // Decompose each column's patch index once per panel:
                // (image base offset, padded window origin).
                let mut cols = [(0usize, 0isize, 0isize); NR];
                for (jj, slot) in cols.iter_mut().take(nr_eff).enumerate() {
                    let pj = jbase + jj;
                    let img = pj / hw_out;
                    let rem = pj % hw_out;
                    let (oy, ox) = (rem / p.ow, rem % p.ow);
                    *slot = (
                        img * p.c * plane,
                        (oy * p.stride.0) as isize - p.padding.0 as isize,
                        (ox * p.stride.1) as isize - p.padding.1 as isize,
                    );
                }
                // Walk k rows as an incrementally-carried (ch, ky, kx)
                // odometer — no per-element div/mod.
                let mut ch = k0 / khw;
                let mut ky = (k0 % khw) / p.kw;
                let mut kx = k0 % p.kw;
                for kk in 0..kc {
                    let row = &mut panel[kk * NR..(kk + 1) * NR];
                    let dy = (ky * p.dilation.0) as isize;
                    let dx = (kx * p.dilation.1) as isize;
                    let ch_base = (p.ch0 + ch) * plane;
                    for (jj, &(ib, iy0, ix0)) in cols.iter().take(nr_eff).enumerate() {
                        let iy = iy0 + dy;
                        let ix = ix0 + dx;
                        row[jj] = if (iy as usize) < p.h && (ix as usize) < p.w {
                            // Negative coordinates wrap to huge usize
                            // values, so one unsigned compare per axis
                            // covers both padding sides.
                            p.x[ib + ch_base + iy as usize * p.w + ix as usize]
                        } else {
                            0.0 // padding cell
                        };
                    }
                    row[nr_eff..].fill(0.0);
                    kx += 1;
                    if kx == p.kw {
                        kx = 0;
                        ky += 1;
                        if ky == p.kh {
                            ky = 0;
                            ch += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Pack the `[i0..i0+mr) × [k0..k0+kc)` window of A (row-major, leading
/// dimension `lda`) into k-major order: MR values per k step, rows past
/// the matrix edge zero-padded.
fn pack_a(a: &[f32], lda: usize, i0: usize, mr: usize, k0: usize, kc: usize, pa: &mut [f32]) {
    for kk in 0..kc {
        if kk % 16 == 0 {
            // One line ahead in every source row (the walk is strided
            // by lda, so hardware prefetch gets no credit here).
            for r in 0..mr {
                prefetch(a, (i0 + r) * lda + k0 + kk + 16);
            }
        }
        for r in 0..MR {
            pa[kk * MR + r] = if r < mr { a[(i0 + r) * lda + k0 + kk] } else { 0.0 };
        }
    }
}

/// The 6×16 AVX2/FMA microkernel: accumulate
/// `C[0..mr, 0..nr] (+)= A-panel · pb[kc×NR]` with one sequential FMA
/// chain per output element. `first` overwrites C, otherwise the tile
/// is added to it (a separate float add — the same per-element
/// operation whether the tile is written by full-width stores or the
/// partial-tile scalar path, so edge tiles are bit-identical to
/// interior ones).
///
/// The k loop is unrolled 8× with a scalar tail; unrolling only peels
/// iterations of the *same* per-element FMA chain, so it cannot change
/// a bit.
///
/// The A panel is addressed as `pa[kk*ska + r*sra]`: the packed k-major
/// layout uses `(ska, sra) = (MR, 1)`, while a narrow-N GEMM skips
/// packing entirely and reads the row-major A in place with
/// `(ska, sra) = (1, lda)` — the broadcast value is identical either
/// way, so the choice cannot change a single output bit.
///
/// # Safety
/// Requires AVX2+FMA (checked by the caller via [`simd_available`]);
/// the A panel must cover `(kc-1)*ska + (MR-1)*sra` elements from `pa`
/// (i.e. direct addressing requires `mr == MR` full row panels),
/// `pb` must hold `kc*NR` elements and `c` must cover `mr` rows of
/// `ldc` columns with `nr` valid columns per row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_6x16(
    kc: usize,
    pa: *const f32,
    ska: usize,
    sra: usize,
    pb: *const f32,
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    macro_rules! fma_step {
        ($kk:expr) => {{
            let kk = $kk;
            let b0 = _mm256_loadu_ps(pb.add(kk * NR));
            let b1 = _mm256_loadu_ps(pb.add(kk * NR + 8));
            let mut ap = pa.add(kk * ska);
            for lanes in acc.iter_mut() {
                let av = _mm256_broadcast_ss(&*ap);
                ap = ap.add(sra);
                lanes[0] = _mm256_fmadd_ps(av, b0, lanes[0]);
                lanes[1] = _mm256_fmadd_ps(av, b1, lanes[1]);
            }
        }};
    }
    let mut kk = 0;
    while kk + 8 <= kc {
        fma_step!(kk);
        fma_step!(kk + 1);
        fma_step!(kk + 2);
        fma_step!(kk + 3);
        fma_step!(kk + 4);
        fma_step!(kk + 5);
        fma_step!(kk + 6);
        fma_step!(kk + 7);
        kk += 8;
    }
    while kk < kc {
        fma_step!(kk);
        kk += 1;
    }
    if mr == MR && nr == NR {
        for (r, lanes) in acc.iter().enumerate() {
            let p = c.add(r * ldc);
            if first {
                _mm256_storeu_ps(p, lanes[0]);
                _mm256_storeu_ps(p.add(8), lanes[1]);
            } else {
                _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), lanes[0]));
                _mm256_storeu_ps(p.add(8), _mm256_add_ps(_mm256_loadu_ps(p.add(8)), lanes[1]));
            }
        }
    } else {
        // Edge tile: spill the full tile and write back only the valid
        // window with the same per-element add/overwrite.
        let mut buf = [0.0f32; MR * NR];
        for (r, lanes) in acc.iter().enumerate() {
            _mm256_storeu_ps(buf.as_mut_ptr().add(r * NR), lanes[0]);
            _mm256_storeu_ps(buf.as_mut_ptr().add(r * NR + 8), lanes[1]);
        }
        for r in 0..mr {
            for j in 0..nr {
                let p = c.add(r * ldc + j);
                if first {
                    *p = buf[r * NR + j];
                } else {
                    *p += buf[r * NR + j];
                }
            }
        }
    }
}

/// The 6×8 narrow variant of [`mk_6x16`], used when a column panel has
/// at most one YMM vector of valid columns (small or trailing N).
/// Per-element arithmetic is the identical sequential FMA chain — FMA
/// lanes are independent, so an element's value never depends on how
/// wide the tile that computed it was; this halves the wasted work on
/// narrow outputs without touching numerics.
///
/// # Safety
/// Same contract as [`mk_6x16`] (including the `(ska, sra)` A
/// addressing), with `nr ≤ 8`; `pb` rows are still `NR`-strided.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_6x8(
    kc: usize,
    pa: *const f32,
    ska: usize,
    sra: usize,
    pb: *const f32,
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); MR];
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(pb.add(kk * NR));
        let mut ap = pa.add(kk * ska);
        for lane in acc.iter_mut() {
            let av = _mm256_broadcast_ss(&*ap);
            ap = ap.add(sra);
            *lane = _mm256_fmadd_ps(av, b0, *lane);
        }
    }
    if mr == MR && nr == 8 {
        for (r, lane) in acc.iter().enumerate() {
            let p = c.add(r * ldc);
            if first {
                _mm256_storeu_ps(p, *lane);
            } else {
                _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), *lane));
            }
        }
    } else {
        let mut buf = [0.0f32; MR * 8];
        for (r, lane) in acc.iter().enumerate() {
            _mm256_storeu_ps(buf.as_mut_ptr().add(r * 8), *lane);
        }
        for r in 0..mr {
            for j in 0..nr {
                let p = c.add(r * ldc + j);
                if first {
                    *p = buf[r * 8 + j];
                } else {
                    *p += buf[r * 8 + j];
                }
            }
        }
    }
}

/// Rows per group of the lanes-over-rows kernel [`mk_16xn`]: two YMM
/// vectors of output rows.
const MN: usize = 16;
/// Widest output (`n`) that [`gemm`] sends to [`mk_16xn`].
const NARROW_N: usize = 4;

/// Load the 8×8 block `p[r*ld + q]` (`r, q < 8`) and transpose it in
/// registers: lane `r` of vector `q` of the result is `p[r*ld + q]`.
/// Rows `r` and `r+4` share one vector per 4 columns (128-bit halves),
/// so only the in-lane 4×4 transposes need shuffles.
#[cfg(target_arch = "x86_64")]
macro_rules! load_8x8_transposed {
    ($p:expr, $ld:expr) => {{
        let (p, ld) = ($p, $ld);
        let mut t = [_mm256_setzero_ps(); 8];
        for q0 in [0, 4] {
            // x_r: columns q0..q0+4 of row r (low half) and row r+4.
            let mut x = [_mm256_setzero_ps(); 4];
            for (r, xr) in x.iter_mut().enumerate() {
                *xr = _mm256_insertf128_ps::<1>(
                    _mm256_castps128_ps256(_mm_loadu_ps(p.add(r * ld + q0))),
                    _mm_loadu_ps(p.add((r + 4) * ld + q0)),
                );
            }
            let [x0, x1, x2, x3] = x;
            let (lo01, hi01) = (_mm256_unpacklo_ps(x0, x1), _mm256_unpackhi_ps(x0, x1));
            let (lo23, hi23) = (_mm256_unpacklo_ps(x2, x3), _mm256_unpackhi_ps(x2, x3));
            t[q0] = _mm256_shuffle_ps::<0x44>(lo01, lo23);
            t[q0 + 1] = _mm256_shuffle_ps::<0xEE>(lo01, lo23);
            t[q0 + 2] = _mm256_shuffle_ps::<0x44>(hi01, hi23);
            t[q0 + 3] = _mm256_shuffle_ps::<0xEE>(hi01, hi23);
        }
        t
    }};
}

/// The lanes-over-rows microkernel for narrow outputs (`N ≤ 4`
/// columns): accumulate `C[0..16, 0..N] (+)= A[0..16, 0..kc] · pb` with
/// each YMM lane holding a different output **row**, so every FMA does
/// eight useful multiply-adds where [`mk_6x8`] at `N = 1` does one.
///
/// A is row-major, read in place: per 8 k-steps, two 8×8 blocks are
/// loaded and transposed in registers, giving one vector of 8 rows per
/// k step, which is multiplied by the broadcast packed-B value of each
/// column. A `kc` that is not a multiple of 8 finishes with one
/// gathered column of A per remaining k step.
///
/// Per output element this is exactly [`mk_6x8`]'s arithmetic: the
/// accumulator starts at zero and takes one sequential FMA per k step
/// in k order (`fma(a, b, c)` rounds `a·b + c` once, and `a·b` is
/// symmetric, so putting A in the vector and B in the broadcast changes
/// nothing), `first` overwrites C and a later block adds its partial
/// sum with one float add. So the output bits equal the 6-row path's
/// and the cutover by shape cannot break serve/solo parity.
///
/// # Safety
/// Requires AVX2+FMA (checked by the caller via [`simd_available`]);
/// `a` must start a 16-row window of leading dimension `lda`
/// (`a.len() ≥ 15·lda + kc`), `pb` must hold `kc` packed rows of `NR`
/// (`pb.len() ≥ kc·NR`, column `j` of k step `kk` at `kk·NR + j`), and
/// `c` must cover 16 rows of `ldc ≥ N` columns that no other thread
/// writes during the call. Both slice bounds are debug-asserted.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mk_16xn<const N: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    pb: &[f32],
    c: *mut f32,
    ldc: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    debug_assert!(
        (1..=NARROW_N).contains(&N) && ldc >= N,
        "mk_16xn: bad output width"
    );
    debug_assert!(
        kc > 0 && a.len() >= (MN - 1) * lda + kc,
        "mk_16xn: A window out of bounds"
    );
    debug_assert!(pb.len() >= kc * NR, "mk_16xn: packed B span out of bounds");
    let (a, pb) = (a.as_ptr(), pb.as_ptr());
    // acc[j][h]: column j, rows 8h..8h+8.
    let mut acc = [[_mm256_setzero_ps(); 2]; N];
    // One sweep over k for the listed 8-row halves.
    macro_rules! sweep {
        ($halves:expr) => {{
            let mut kk = 0;
            while kk + 8 <= kc {
                for h in $halves {
                    // SAFETY (all reads below): rows 8h..8h+8 at k
                    // kk..kk+8 lie in the A window, k steps kk..kk+8 in
                    // `pb` (contract above).
                    let t = load_8x8_transposed!(a.add(8 * h * lda + kk), lda);
                    for (q, col) in t.iter().enumerate() {
                        let bq = pb.add((kk + q) * NR);
                        for (j, lanes) in acc.iter_mut().enumerate() {
                            lanes[h] =
                                _mm256_fmadd_ps(*col, _mm256_broadcast_ss(&*bq.add(j)), lanes[h]);
                        }
                    }
                }
                kk += 8;
            }
            while kk < kc {
                let bq = pb.add(kk * NR);
                for h in $halves {
                    let r = a.add(8 * h * lda + kk);
                    let col = _mm256_setr_ps(
                        *r,
                        *r.add(lda),
                        *r.add(2 * lda),
                        *r.add(3 * lda),
                        *r.add(4 * lda),
                        *r.add(5 * lda),
                        *r.add(6 * lda),
                        *r.add(7 * lda),
                    );
                    for (j, lanes) in acc.iter_mut().enumerate() {
                        lanes[h] =
                            _mm256_fmadd_ps(col, _mm256_broadcast_ss(&*bq.add(j)), lanes[h]);
                    }
                }
                kk += 1;
            }
        }};
    }
    // At N = 1 one sweep feeds both halves: two independent FMA chains
    // sharing each B broadcast. Wider N sweeps once per half, so the
    // transposed block and the N accumulators stay in registers.
    if N == 1 {
        sweep!([0, 1]);
    } else {
        sweep!([0]);
        sweep!([1]);
    }
    let mut buf = [[0.0f32; MN]; N];
    for (col, lanes) in buf.iter_mut().zip(&acc) {
        _mm256_storeu_ps(col.as_mut_ptr(), lanes[0]);
        _mm256_storeu_ps(col.as_mut_ptr().add(8), lanes[1]);
    }
    for r in 0..MN {
        for (j, col) in buf.iter().enumerate() {
            // SAFETY: row r < 16, column j < N ≤ ldc (contract above).
            let p = c.add(r * ldc + j);
            if first {
                *p = col[r];
            } else {
                *p += col[r];
            }
        }
    }
}

#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: used only to carve disjoint row-panel windows of C below.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Blocked, panel-packed GEMM: `C[m,n] = A[m,k] · B` (+ epilogue), with
/// B's layout resolved by [`BSrc`]. `C` is fully overwritten. The
/// epilogue adds `row_bias[i]` and/or `col_bias[j]` and applies ReLU
/// after the accumulation finishes — elementwise identical to running
/// the separate kernels afterwards.
///
/// B is packed one k-span at a time (see the loop below); row panels
/// are distributed over the kernel thread pool and share the packed
/// span read-only, so results are independent of the thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: BSrc,
    c: &mut [f32],
    row_bias: Option<&[f32]>,
    col_bias: Option<&[f32]>,
    relu: bool,
) {
    assert!(simd_available(), "simd::gemm requires AVX2+FMA");
    assert_eq!(a.len(), m * k, "gemm: A length mismatch");
    assert_eq!(c.len(), m * n, "gemm: C length mismatch");
    match &b {
        BSrc::RowMajor(b) => assert_eq!(b.len(), k * n, "gemm: B length mismatch"),
        BSrc::Transposed(b) => assert_eq!(b.len(), n * k, "gemm: Bᵀ length mismatch"),
        BSrc::Patches(_) => {}
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        epilogue(m, n, c, row_bias, col_bias, relu);
        return;
    }

    let (kc_blk, nc_blk) = (gemm_kc(), gemm_nc());
    let mut pb = pool::alloc_f32(kc_blk * nc_blk);
    let c_len = c.len();
    let c_base = SendPtr(c.as_mut_ptr());
    // A narrow output (n ≤ 4, a single one-panel column block) sends its
    // full 16-row groups of A to the lanes-over-rows kernel; the rows
    // past the last group take the 6-row panels. Both compute the same
    // per-element chain, so the split never changes a bit.
    let m16 = if n <= NARROW_N { m / MN * MN } else { 0 };
    let n_groups = m16 / MN;
    let n_items = n_groups + (m - m16).div_ceil(MR);
    for jc in (0..n).step_by(nc_blk) {
        let nc_eff = nc_blk.min(n - jc);
        let n_jpanels = nc_eff.div_ceil(NR);
        // One dispatch per k-span: as many whole KC blocks as fit the
        // `KC·NC` pack buffer at this block's width. A narrow block
        // (small N) packs all of k at once and each worker streams its
        // rows of A start to finish; a full-width block spans one KC
        // block. Each KC block is still its own microkernel call in k
        // order, so every element sees the same chain either way.
        let span = (kc_blk * nc_blk / (n_jpanels * NR) / kc_blk * kc_blk).max(kc_blk);
        for s0 in (0..k).step_by(span) {
            let s_end = k.min(s0 + span);
            // KC block `k0` of the span is packed at offset
            // `(k0 - s0)·n_jpanels·NR` (every block but the last is
            // full, so the blocks abut).
            for k0 in (s0..s_end).step_by(kc_blk) {
                let kc_eff = kc_blk.min(k - k0);
                let off = (k0 - s0) * n_jpanels * NR;
                let dst = &mut pb[off..off + n_jpanels * kc_eff * NR];
                pack_b(&b, n, k, k0, kc_eff, jc, nc_eff, dst);
            }
            let pb_ref: &[f32] = &pb;
            parallel_chunks(n_items, |range| {
                let c_base = c_base;
                let mut pa = [0.0f32; MR * KC_MAX];
                for item in range {
                    if item < n_groups {
                        let i0 = item * MN;
                        debug_assert!((i0 + MN) * n <= c_len, "gemm: C row group out of bounds");
                        for k0 in (s0..s_end).step_by(kc_blk) {
                            let kc_eff = kc_blk.min(k - k0);
                            // One column panel: KC block `k0` sits at
                            // `(k0 - s0)·NR` in the span.
                            let off = (k0 - s0) * NR;
                            let a_win = &a[i0 * k + k0..(i0 + MN - 1) * k + k0 + kc_eff];
                            let b_win = &pb_ref[off..off + kc_eff * NR];
                            let first = k0 == 0;
                            // SAFETY: AVX2+FMA asserted above; `a_win` and
                            // `b_win` are the kernel's A window and packed
                            // B block, bounds-checked by the slicing; the
                            // C rows i0..i0+16 (n ≤ 4 columns each) are in
                            // bounds (debug-asserted above) and row groups
                            // are disjoint across items, so each call
                            // writes an exclusive window.
                            unsafe {
                                let cp = c_base.0.add(i0 * n);
                                match n {
                                    1 => mk_16xn::<1>(kc_eff, a_win, k, b_win, cp, n, first),
                                    2 => mk_16xn::<2>(kc_eff, a_win, k, b_win, cp, n, first),
                                    3 => mk_16xn::<3>(kc_eff, a_win, k, b_win, cp, n, first),
                                    _ => mk_16xn::<4>(kc_eff, a_win, k, b_win, cp, n, first),
                                }
                            }
                        }
                        continue;
                    }
                    let i0 = m16 + (item - n_groups) * MR;
                    let mr_eff = MR.min(m - i0);
                    debug_assert!(
                        (i0 + mr_eff) * n <= c_len,
                        "gemm: C row panel out of bounds"
                    );
                    // Packing A pays for itself only if the panel is
                    // reused across ≥2 column panels; a narrow-N block
                    // reads row-major A in place instead (identical
                    // broadcast values — see the microkernel docs).
                    // Partial row panels always pack (zero padding).
                    let direct_a = n_jpanels == 1 && mr_eff == MR;
                    for k0 in (s0..s_end).step_by(kc_blk) {
                        let kc_eff = kc_blk.min(k - k0);
                        let first = k0 == 0;
                        let off = (k0 - s0) * n_jpanels * NR;
                        debug_assert!(
                            off + n_jpanels * kc_eff * NR <= pb_ref.len(),
                            "gemm: B span out of bounds"
                        );
                        let (ap, ska, sra) = if direct_a {
                            debug_assert!(
                                i0 * k + k0 + (MR - 1) * k + kc_eff <= a.len(),
                                "gemm: direct A window out of bounds"
                            );
                            // SAFETY: `a.len() == m·k` (asserted on entry)
                            // and this row panel is full (`i0 + MR ≤ m`),
                            // so the offset is inside `a`; the debug check
                            // above covers the whole window the
                            // microkernel reads from it.
                            (unsafe { a.as_ptr().add(i0 * k + k0) }, 1, k)
                        } else {
                            pack_a(a, k, i0, mr_eff, k0, kc_eff, &mut pa);
                            (pa.as_ptr(), MR, 1)
                        };
                        for jp in 0..n_jpanels {
                            let j = jc + jp * NR;
                            let nr_eff = NR.min(n - j);
                            // SAFETY: AVX2+FMA asserted above. The A
                            // window is `a` rows i0..i0+MR at k0..k0+kc_eff
                            // (direct) or the packed `pa` of MR·kc_eff
                            // values; the B panel `jp` holds kc_eff·NR
                            // values inside the packed span (asserted
                            // above); the C tile is rows i0..i0+mr_eff,
                            // columns j..j+nr_eff of the m×n output, and
                            // row panels are disjoint across `rp`, so
                            // each microkernel writes an exclusive window.
                            // The narrow variant computes identical
                            // per-element FMA chains, just one vector wide.
                            unsafe {
                                let pbp = pb_ref.as_ptr().add(off + jp * kc_eff * NR);
                                let cp = c_base.0.add(i0 * n + j);
                                let (mr, nr) = (mr_eff, nr_eff);
                                if nr <= 8 {
                                    mk_6x8(kc_eff, ap, ska, sra, pbp, cp, n, mr, nr, first);
                                } else {
                                    mk_6x16(kc_eff, ap, ska, sra, pbp, cp, n, mr, nr, first);
                                }
                            }
                        }
                    }
                }
            });
        }
    }
    pool::recycle_f32(pb);
    epilogue(m, n, c, row_bias, col_bias, relu);
}

/// Bias + ReLU epilogue over the finished accumulator, in the same
/// elementwise order as the standalone kernels (`+ bias`, then
/// `max(0)`).
fn epilogue(
    m: usize,
    n: usize,
    c: &mut [f32],
    row_bias: Option<&[f32]>,
    col_bias: Option<&[f32]>,
    relu: bool,
) {
    if row_bias.is_none() && col_bias.is_none() && !relu {
        return;
    }
    if let Some(rb) = row_bias {
        assert_eq!(rb.len(), m, "gemm: row bias length mismatch");
    }
    if let Some(cb) = col_bias {
        assert_eq!(cb.len(), n, "gemm: col bias length mismatch");
    }
    for (i, row) in c.chunks_mut(n).enumerate() {
        if let Some(rb) = row_bias {
            let bv = rb[i];
            row.iter_mut().for_each(|v| *v += bv);
        }
        if let Some(cb) = col_bias {
            for (v, &bv) in row.iter_mut().zip(cb) {
                *v += bv;
            }
        }
        if relu {
            row.iter_mut().for_each(|v| *v = v.max(0.0));
        }
    }
}

// ===========================================================================
// int8 path
// ===========================================================================

/// How [`gemm_i8_nt`] lays out the requantized `i8` result at
/// write-back.
pub(crate) enum QOutI8 {
    /// `out[i*n + j]` — quantized linear.
    RowMajor,
    /// Rows are `(image, patch)` pairs (`i = img*p + patch`), columns
    /// are output channels: `out[img*n*p + j*p + patch]` — the NCHW
    /// write-back of a quantized conv's im2col GEMM, fused with the
    /// `[P,O] → [O,P]` transpose.
    ImagePatch {
        /// Patches per image (`oh·ow`).
        p: usize,
    },
}

/// Pack one i32 from an (even, odd) k-pair of i8 values: two
/// sign-extended i16 halves, low half = even k. This is the operand
/// shape `_mm256_madd_epi16` multiplies exactly.
#[inline(always)]
fn pack_pair(lo: i8, hi: i8) -> i32 {
    ((lo as i16 as u16 as u32) | ((hi as i16 as u16 as u32) << 16)) as i32
}

/// Pack the `[k0..k0+kc) × [j0..j0+nc)` window of the transposed-layout
/// (`[n, k]`) i8 B into NR-wide column panels of **interleaved i16
/// k-pairs**: panel `jp`, pair `kp`, column `jj` occupies
/// `pb[jp·kcp·2NR + kp·2NR + 2jj + {0,1}]` (even k then odd k). The odd
/// tail of `kc` and columns past the edge are zero — a zero pair
/// contributes exactly 0 to the i32 accumulator, so padding cannot
/// change results. Every used element is written (pool-recycled buffers
/// can't leak).
#[allow(clippy::too_many_arguments)]
fn pack_b_i8(b: &[i8], k: usize, k0: usize, kc: usize, j0: usize, nc: usize, kcp: usize, pb: &mut [i16]) {
    let n_panels = nc.div_ceil(NR);
    for jp in 0..n_panels {
        let jbase = j0 + jp * NR;
        let nr_eff = NR.min(j0 + nc - jbase);
        let panel = &mut pb[jp * kcp * 2 * NR..(jp + 1) * kcp * 2 * NR];
        panel.fill(0);
        for jj in 0..nr_eff {
            prefetch(b, (jbase + jj + 1) * k + k0);
            let col = &b[(jbase + jj) * k + k0..(jbase + jj) * k + k0 + kc];
            for (kk, &v) in col.iter().enumerate() {
                panel[(kk / 2) * 2 * NR + 2 * jj + (kk & 1)] = v as i16;
            }
        }
    }
}

/// B panels prepacked over the **full** k extent, kc-block agnostic:
/// panel `jp` occupies `data[jp·kcp·2NR ..]` with its k-pair rows
/// contiguous at stride `2NR`, so a `[k0, k0+kc)` block (any even `k0`)
/// is the contiguous sub-slice starting at row `k0/2`. Weights are
/// immutable across inference calls, so [`crate::quant`] builds this
/// once per weight tensor and reuses it every call (FBGEMM's
/// `PackBMatrix` prepacking) — steady-state GEMMs never re-pack B.
pub(crate) struct PackedBI8 {
    pub(crate) data: Vec<i16>,
    /// k-pair rows per panel (`k.div_ceil(2)`).
    pub(crate) kcp: usize,
}

/// Prepack all of the `[n, k]` transposed-layout B into [`PackedBI8`].
pub(crate) fn pack_b_full(b: &[i8], k: usize, n: usize) -> PackedBI8 {
    let kcp = k.div_ceil(2);
    let mut data = vec![0i16; n.div_ceil(NR) * kcp * 2 * NR];
    if k > 0 && n > 0 {
        pack_b_i8(b, k, 0, k, 0, n, kcp, &mut data);
    }
    PackedBI8 { data, kcp }
}

/// Pack the `[i0..i0+mr) × [k0..k0+kc)` window of the i8 A into k-pair
/// major order: MR packed pairs per `kp` step ([`pack_pair`]), rows past
/// the edge and the odd-k tail zero-padded. Row-at-a-time over
/// `chunks_exact` so the hot loop carries no bounds checks.
fn pack_a_i8(a: &[i8], lda: usize, i0: usize, mr: usize, k0: usize, kc: usize, pa: &mut [i32]) {
    let kcp = kc.div_ceil(2);
    for r in 0..mr {
        let row = &a[(i0 + r) * lda + k0..(i0 + r) * lda + k0 + kc];
        prefetch(a, (i0 + r + 1) * lda + k0);
        let mut pairs = row.chunks_exact(2);
        for (slot, pair) in pa[r..].iter_mut().step_by(MR).zip(&mut pairs) {
            *slot = pack_pair(pair[0], pair[1]);
        }
        if let &[lo] = pairs.remainder() {
            pa[(kcp - 1) * MR + r] = pack_pair(lo, 0);
        }
    }
    for r in mr..MR {
        for slot in pa[r..kcp * MR].iter_mut().step_by(MR) {
            *slot = 0;
        }
    }
}

/// The 6×16 int8 microkernel: `C[0..mr, 0..nr] (+)= A·B` over `kcp`
/// k-pairs, i32 accumulators. Per pair and row: broadcast the packed
/// (i16,i16) A pair, `_mm256_madd_epi16` against 8 interleaved B column
/// pairs per YMM — an **exact** i32 per column — then `_mm256_add_epi32`
/// into the accumulator. Everything is integer and exact, so tile
/// shape, edge handling and summation order cannot change any bit.
///
/// # Safety
/// Requires AVX2; `pa` holds `kcp*MR` packed pairs, `pb` holds
/// `kcp*2*NR` i16, `c` covers `mr` rows of `ldc` i32 with `nr` valid
/// columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_i8_6x16(
    kcp: usize,
    pa: *const i32,
    pb: *const i16,
    c: *mut i32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_si256(); 2]; MR];
    // 2× unrolled k-pair loop with a B-panel prefetch ~8 pairs ahead.
    // Unrolling only duplicates the loop body — each accumulator still
    // receives the same adds in the same order, so results are
    // unchanged (and exact regardless: integer adds commute).
    let mut kp = 0;
    while kp + 2 <= kcp {
        _mm_prefetch::<_MM_HINT_T0>(pb.add((kp + 8) * 2 * NR) as *const i8);
        let b0 = _mm256_loadu_si256(pb.add(kp * 2 * NR) as *const __m256i);
        let b1 = _mm256_loadu_si256(pb.add(kp * 2 * NR + NR) as *const __m256i);
        let c0 = _mm256_loadu_si256(pb.add((kp + 1) * 2 * NR) as *const __m256i);
        let c1 = _mm256_loadu_si256(pb.add((kp + 1) * 2 * NR + NR) as *const __m256i);
        let mut ap = pa.add(kp * MR);
        for lanes in acc.iter_mut() {
            let av = _mm256_set1_epi32(*ap);
            let aw = _mm256_set1_epi32(*ap.add(MR));
            ap = ap.add(1);
            lanes[0] = _mm256_add_epi32(lanes[0], _mm256_madd_epi16(av, b0));
            lanes[1] = _mm256_add_epi32(lanes[1], _mm256_madd_epi16(av, b1));
            lanes[0] = _mm256_add_epi32(lanes[0], _mm256_madd_epi16(aw, c0));
            lanes[1] = _mm256_add_epi32(lanes[1], _mm256_madd_epi16(aw, c1));
        }
        kp += 2;
    }
    if kp < kcp {
        let b0 = _mm256_loadu_si256(pb.add(kp * 2 * NR) as *const __m256i);
        let b1 = _mm256_loadu_si256(pb.add(kp * 2 * NR + NR) as *const __m256i);
        let mut ap = pa.add(kp * MR);
        for lanes in acc.iter_mut() {
            let av = _mm256_set1_epi32(*ap);
            ap = ap.add(1);
            lanes[0] = _mm256_add_epi32(lanes[0], _mm256_madd_epi16(av, b0));
            lanes[1] = _mm256_add_epi32(lanes[1], _mm256_madd_epi16(av, b1));
        }
    }
    if mr == MR && nr == NR {
        for (r, lanes) in acc.iter().enumerate() {
            let p = c.add(r * ldc);
            if first {
                _mm256_storeu_si256(p as *mut __m256i, lanes[0]);
                _mm256_storeu_si256(p.add(8) as *mut __m256i, lanes[1]);
            } else {
                _mm256_storeu_si256(
                    p as *mut __m256i,
                    _mm256_add_epi32(_mm256_loadu_si256(p as *const __m256i), lanes[0]),
                );
                _mm256_storeu_si256(
                    p.add(8) as *mut __m256i,
                    _mm256_add_epi32(_mm256_loadu_si256(p.add(8) as *const __m256i), lanes[1]),
                );
            }
        }
    } else {
        let mut buf = [0i32; MR * NR];
        for (r, lanes) in acc.iter().enumerate() {
            _mm256_storeu_si256(buf.as_mut_ptr().add(r * NR) as *mut __m256i, lanes[0]);
            _mm256_storeu_si256(buf.as_mut_ptr().add(r * NR + 8) as *mut __m256i, lanes[1]);
        }
        for r in 0..mr {
            for j in 0..nr {
                let p = c.add(r * ldc + j);
                if first {
                    *p = buf[r * NR + j];
                } else {
                    *p += buf[r * NR + j];
                }
            }
        }
    }
}

/// The 6×8 narrow variant of [`mk_i8_6x16`] (`nr ≤ 8`); `pb` rows are
/// still `2·NR`-strided. Integer arithmetic — identical results by
/// construction.
///
/// # Safety
/// Same contract as [`mk_i8_6x16`] with `nr ≤ 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_i8_6x8(
    kcp: usize,
    pa: *const i32,
    pb: *const i16,
    c: *mut i32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_si256(); MR];
    for kp in 0..kcp {
        let b0 = _mm256_loadu_si256(pb.add(kp * 2 * NR) as *const __m256i);
        let mut ap = pa.add(kp * MR);
        for lane in acc.iter_mut() {
            let av = _mm256_set1_epi32(*ap);
            ap = ap.add(1);
            *lane = _mm256_add_epi32(*lane, _mm256_madd_epi16(av, b0));
        }
    }
    if mr == MR && nr == 8 {
        for (r, lane) in acc.iter().enumerate() {
            let p = c.add(r * ldc);
            if first {
                _mm256_storeu_si256(p as *mut __m256i, *lane);
            } else {
                _mm256_storeu_si256(
                    p as *mut __m256i,
                    _mm256_add_epi32(_mm256_loadu_si256(p as *const __m256i), *lane),
                );
            }
        }
    } else {
        let mut buf = [0i32; MR * 8];
        for (r, lane) in acc.iter().enumerate() {
            _mm256_storeu_si256(buf.as_mut_ptr().add(r * 8) as *mut __m256i, *lane);
        }
        for r in 0..mr {
            for j in 0..nr {
                let p = c.add(r * ldc + j);
                if first {
                    *p = buf[r * 8 + j];
                } else {
                    *p += buf[r * 8 + j];
                }
            }
        }
    }
}

/// [`mk_i8_6x16`] with the madd+add pair fused into `vpdpwssd`
/// (AVX-512 VNNI at YMM width): `dpwssd(acc, a, b)` computes exactly
/// `acc + Σ₂ sx(a_i16)·sx(b_i16)` — the same exact i32 arithmetic as
/// `add_epi32(acc, madd_epi16(a, b))`, one instruction instead of two —
/// so this variant is bit-identical to the plain one by construction.
///
/// # Safety
/// Same contract as [`mk_i8_6x16`], plus AVX-512 VNNI + VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512vnni,avx512vl")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_i8_6x16_vnni(
    kcp: usize,
    pa: *const i32,
    pb: *const i16,
    c: *mut i32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_si256(); 2]; MR];
    let mut kp = 0;
    while kp + 2 <= kcp {
        _mm_prefetch::<_MM_HINT_T0>(pb.add((kp + 8) * 2 * NR) as *const i8);
        let b0 = _mm256_loadu_si256(pb.add(kp * 2 * NR) as *const __m256i);
        let b1 = _mm256_loadu_si256(pb.add(kp * 2 * NR + NR) as *const __m256i);
        let c0 = _mm256_loadu_si256(pb.add((kp + 1) * 2 * NR) as *const __m256i);
        let c1 = _mm256_loadu_si256(pb.add((kp + 1) * 2 * NR + NR) as *const __m256i);
        let mut ap = pa.add(kp * MR);
        for lanes in acc.iter_mut() {
            let av = _mm256_set1_epi32(*ap);
            let aw = _mm256_set1_epi32(*ap.add(MR));
            ap = ap.add(1);
            lanes[0] = _mm256_dpwssd_epi32(_mm256_dpwssd_epi32(lanes[0], av, b0), aw, c0);
            lanes[1] = _mm256_dpwssd_epi32(_mm256_dpwssd_epi32(lanes[1], av, b1), aw, c1);
        }
        kp += 2;
    }
    if kp < kcp {
        let b0 = _mm256_loadu_si256(pb.add(kp * 2 * NR) as *const __m256i);
        let b1 = _mm256_loadu_si256(pb.add(kp * 2 * NR + NR) as *const __m256i);
        let mut ap = pa.add(kp * MR);
        for lanes in acc.iter_mut() {
            let av = _mm256_set1_epi32(*ap);
            ap = ap.add(1);
            lanes[0] = _mm256_dpwssd_epi32(lanes[0], av, b0);
            lanes[1] = _mm256_dpwssd_epi32(lanes[1], av, b1);
        }
    }
    if mr == MR && nr == NR {
        for (r, lanes) in acc.iter().enumerate() {
            let p = c.add(r * ldc);
            if first {
                _mm256_storeu_si256(p as *mut __m256i, lanes[0]);
                _mm256_storeu_si256(p.add(8) as *mut __m256i, lanes[1]);
            } else {
                _mm256_storeu_si256(
                    p as *mut __m256i,
                    _mm256_add_epi32(_mm256_loadu_si256(p as *const __m256i), lanes[0]),
                );
                _mm256_storeu_si256(
                    p.add(8) as *mut __m256i,
                    _mm256_add_epi32(_mm256_loadu_si256(p.add(8) as *const __m256i), lanes[1]),
                );
            }
        }
    } else {
        let mut buf = [0i32; MR * NR];
        for (r, lanes) in acc.iter().enumerate() {
            _mm256_storeu_si256(buf.as_mut_ptr().add(r * NR) as *mut __m256i, lanes[0]);
            _mm256_storeu_si256(buf.as_mut_ptr().add(r * NR + 8) as *mut __m256i, lanes[1]);
        }
        for r in 0..mr {
            for j in 0..nr {
                let p = c.add(r * ldc + j);
                if first {
                    *p = buf[r * NR + j];
                } else {
                    *p += buf[r * NR + j];
                }
            }
        }
    }
}

/// The 6×8 narrow VNNI variant ([`mk_i8_6x8`] with `vpdpwssd`) — exact,
/// bit-identical to the plain form.
///
/// # Safety
/// Same contract as [`mk_i8_6x8`], plus AVX-512 VNNI + VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512vnni,avx512vl")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_i8_6x8_vnni(
    kcp: usize,
    pa: *const i32,
    pb: *const i16,
    c: *mut i32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_si256(); MR];
    for kp in 0..kcp {
        let b0 = _mm256_loadu_si256(pb.add(kp * 2 * NR) as *const __m256i);
        let mut ap = pa.add(kp * MR);
        for lane in acc.iter_mut() {
            let av = _mm256_set1_epi32(*ap);
            ap = ap.add(1);
            *lane = _mm256_dpwssd_epi32(*lane, av, b0);
        }
    }
    if mr == MR && nr == 8 {
        for (r, lane) in acc.iter().enumerate() {
            let p = c.add(r * ldc);
            if first {
                _mm256_storeu_si256(p as *mut __m256i, *lane);
            } else {
                _mm256_storeu_si256(
                    p as *mut __m256i,
                    _mm256_add_epi32(_mm256_loadu_si256(p as *const __m256i), *lane),
                );
            }
        }
    } else {
        let mut buf = [0i32; MR * 8];
        for (r, lane) in acc.iter().enumerate() {
            _mm256_storeu_si256(buf.as_mut_ptr().add(r * 8) as *mut __m256i, *lane);
        }
        for r in 0..mr {
            for j in 0..nr {
                let p = c.add(r * ldc + j);
                if first {
                    *p = buf[r * 8 + j];
                } else {
                    *p += buf[r * 8 + j];
                }
            }
        }
    }
}

/// Dispatch one microkernel tile to the VNNI or plain form. The `vnni`
/// flag is hoisted out of the tile loops by the caller; both forms
/// produce identical bytes (exact integer arithmetic, same order).
///
/// # Safety
/// Contracts of [`mk_i8_6x16`] / [`mk_i8_6x8`]; `vnni` only when
/// AVX-512 VNNI + VL are available.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_i8_tile(
    vnni: bool,
    kcp: usize,
    pa: *const i32,
    pb: *const i16,
    c: *mut i32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    if nr <= 8 {
        if vnni {
            mk_i8_6x8_vnni(kcp, pa, pb, c, ldc, mr, nr, first);
        } else {
            mk_i8_6x8(kcp, pa, pb, c, ldc, mr, nr, first);
        }
    } else if vnni {
        mk_i8_6x16_vnni(kcp, pa, pb, c, ldc, mr, nr, first);
    } else {
        mk_i8_6x16(kcp, pa, pb, c, ldc, mr, nr, first);
    }
}

#[derive(Clone, Copy)]
struct SendPtrI32(*mut i32);
// SAFETY: used only to carve disjoint row-panel windows of the i32
// accumulator below.
unsafe impl Send for SendPtrI32 {}
unsafe impl Sync for SendPtrI32 {}

#[derive(Clone, Copy)]
struct SendPtrI8(*mut i8);
// SAFETY: used only for disjoint per-row writes of the i8 output below.
unsafe impl Send for SendPtrI8 {}
unsafe impl Sync for SendPtrI8 {}

/// Requantize one accumulator row (`n` i32 at `acc`) into `n` i8 at
/// `dst`: `round_ne((acc − zp_corr[j])·mult[j] + badd[j] [max 0]) +
/// out_zp`, clamped to i8. Eight lanes at a time with a scalar tail
/// through [`crate::quant::requant_one`]; every vector op is the exact
/// IEEE counterpart of the scalar helper (`cvtdq2ps` = `as f32`,
/// `cvtps2dq` = `round_ties_even() as i32`, `maxps` = the `> 0.0`
/// select), so lanes and tail — and the scalar engine — agree bitwise.
///
/// # Safety
/// Requires AVX2; `acc`, `zp_corr`, `mult`, `badd` hold `n` readable
/// elements, `dst` `n` writable bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requant_row_avx2(
    acc: *const i32,
    zp_corr: *const i32,
    mult: *const f32,
    badd: *const f32,
    n: usize,
    relu: bool,
    out_zp: i32,
    dst: *mut i8,
) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let zp_v = _mm256_set1_epi32(out_zp);
    let lo_v = _mm256_set1_epi32(-128);
    let hi_v = _mm256_set1_epi32(127);
    let mut j = 0;
    while j + 8 <= n {
        let c = _mm256_sub_epi32(
            _mm256_loadu_si256(acc.add(j) as *const __m256i),
            _mm256_loadu_si256(zp_corr.add(j) as *const __m256i),
        );
        let mut v = _mm256_add_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(c), _mm256_loadu_ps(mult.add(j))),
            _mm256_loadu_ps(badd.add(j)),
        );
        if relu {
            v = _mm256_max_ps(v, zero);
        }
        let q = _mm256_min_epi32(
            hi_v,
            _mm256_max_epi32(lo_v, _mm256_add_epi32(_mm256_cvtps_epi32(v), zp_v)),
        );
        // 8×i32 → 8×i8: the values are already in [-128, 127], so the
        // saturating packs are pure narrowing.
        let w = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
        let bytes = _mm_packs_epi16(w, w);
        _mm_storel_epi64(dst.add(j) as *mut __m128i, bytes);
        j += 8;
    }
    while j < n {
        let corrected = (*acc.add(j)).wrapping_sub(*zp_corr.add(j));
        *dst.add(j) =
            crate::quant::requant_one(corrected, *mult.add(j), *badd.add(j), relu, out_zp);
        j += 1;
    }
}

/// Blocked int8 GEMM with fused requantization:
/// `out = requantize(A[m,k]·Bᵀ − za·colsum + bias, relu)` where `pb` is
/// the prepacked transposed (`[n, k]`) weight layout ([`pack_b_full`])
/// — the only layout the quantized operators produce (linear weights
/// and im2col'd conv patches both stream `[rows, k]` against
/// `[out_channels, k]`).
///
/// Accumulation is exact i32 (see the module docs for why `madd_epi16`
/// over pre-widened pairs instead of `maddubs`); the epilogue applies
/// the FBGEMM row-offset correction `− a_zp·col_sums[j]`, then
/// requantizes through [`requant_row_avx2`] — op-for-op the IEEE twin
/// of the scalar engine's `requant_one` loop — so the int8 output is
/// **bit-identical** across engines, thread counts, batch positions and
/// blocking parameters.
///
/// `mult`/`badd` are the precomputed per-output-column requantization
/// coefficients (see [`crate::quant::qgemm_requant`], which derives
/// them once and hands the same slices to both engines); `layout` picks
/// the write-back index mapping.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i8_nt(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    pb: &PackedBI8,
    a_zp: i32,
    col_sums: &[i32],
    mult: &[f32],
    badd: &[f32],
    out_zp: i32,
    relu: bool,
    layout: &QOutI8,
    out: &mut [i8],
) {
    assert!(simd_available(), "simd::gemm_i8_nt requires AVX2");
    assert_eq!(a.len(), m * k, "gemm_i8: A length mismatch");
    assert_eq!(out.len(), m * n, "gemm_i8: output length mismatch");
    assert_eq!(col_sums.len(), n, "gemm_i8: col_sums length mismatch");
    assert_eq!(mult.len(), n, "gemm_i8: mult length mismatch");
    assert_eq!(badd.len(), n, "gemm_i8: badd length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let kcp_full = k.div_ceil(2);
    assert_eq!(
        pb.data.len(),
        n.div_ceil(NR) * kcp_full * 2 * NR,
        "gemm_i8: packed B size mismatch"
    );
    assert_eq!(pb.kcp, kcp_full, "gemm_i8: packed B kcp mismatch");

    let (kc_blk, nc_blk) = (gemm_kc(), gemm_nc());

    // Zero-point correction per column, shared by both paths below.
    let mut zp_corr = pool::alloc_i32(n);
    for (c, &s) in zp_corr.iter_mut().zip(col_sums) {
        *c = a_zp.wrapping_mul(s);
    }

    // Fused strip path: when one (kc, nc) block covers the whole GEMM,
    // requantize each 6-row strip straight out of an L1-resident
    // accumulator instead of materializing (and re-reading) the full
    // `m×n` i32 buffer. Bit-identical to the blocked path: per output
    // element the k-chain order and the epilogue ops are the same —
    // only where the i32s briefly live differs.
    let vnni = vnni_enabled();
    if k > 0 && k <= kc_blk && n <= nc_blk {
        let kcp = kcp_full;
        let n_rpanels = m.div_ceil(MR);
        let n_jpanels = n.div_ceil(NR);
        let out_base = SendPtrI8(out.as_mut_ptr());
        let pb_ref: &[i16] = &pb.data;
        let zp_corr_ref: &[i32] = &zp_corr;
        parallel_chunks(n_rpanels, |range| {
            let out_base = out_base;
            let mut pa = [0i32; MR * (KC_MAX / 2)];
            let mut strip = pool::alloc_i32(MR * n);
            let mut tmp = match *layout {
                QOutI8::ImagePatch { .. } => pool::alloc_i8(n),
                QOutI8::RowMajor => Vec::new(),
            };
            for rp in range {
                let i0 = rp * MR;
                let mr_eff = MR.min(m - i0);
                pack_a_i8(a, k, i0, mr_eff, 0, k, &mut pa);
                for jp in 0..n_jpanels {
                    let j = jp * NR;
                    let nr_eff = NR.min(n - j);
                    // SAFETY: AVX2 asserted above; `strip` is
                    // worker-local and `first=true` fully overwrites the
                    // `mr_eff × nr_eff` window before any read.
                    unsafe {
                        let pbp = pb_ref.as_ptr().add(jp * kcp * 2 * NR);
                        let cp = strip.as_mut_ptr().add(j);
                        mk_i8_tile(vnni, kcp, pa.as_ptr(), pbp, cp, n, mr_eff, nr_eff, true);
                    }
                }
                for r in 0..mr_eff {
                    let i = i0 + r;
                    match *layout {
                        // SAFETY (both arms): AVX2 asserted; row `i` of
                        // `out` (resp. its ImagePatch image) is written
                        // by exactly one worker (disjoint row panels).
                        QOutI8::RowMajor => unsafe {
                            requant_row_avx2(
                                strip.as_ptr().add(r * n),
                                zp_corr_ref.as_ptr(),
                                mult.as_ptr(),
                                badd.as_ptr(),
                                n,
                                relu,
                                out_zp,
                                out_base.0.add(i * n),
                            );
                        },
                        QOutI8::ImagePatch { p } => {
                            unsafe {
                                requant_row_avx2(
                                    strip.as_ptr().add(r * n),
                                    zp_corr_ref.as_ptr(),
                                    mult.as_ptr(),
                                    badd.as_ptr(),
                                    n,
                                    relu,
                                    out_zp,
                                    tmp.as_mut_ptr(),
                                );
                            }
                            let (img, patch) = (i / p, i % p);
                            for (j, &v) in tmp.iter().enumerate() {
                                // SAFETY: distinct (i, j) map to distinct
                                // ImagePatch indices; rows are disjoint.
                                unsafe { *out_base.0.add(img * n * p + j * p + patch) = v };
                            }
                        }
                    }
                }
            }
            pool::recycle_i32(strip);
            if tmp.capacity() > 0 {
                pool::recycle_i8(tmp);
            }
        });
        pool::recycle_i32(zp_corr);
        return;
    }

    let mut acc = pool::alloc_i32(m * n);
    if k > 0 {
        let acc_base = SendPtrI32(acc.as_mut_ptr());
        for jc in (0..n).step_by(nc_blk) {
            let nc_eff = nc_blk.min(n - jc);
            let n_jpanels = nc_eff.div_ceil(NR);
            // `nc_blk` is NR-quantized and `kc_blk` 8-quantized, so `jc`
            // lands on a panel boundary and `k0` on an (even) pair
            // boundary: a k-block of a prepacked panel is the contiguous
            // rows `[k0/2, k0/2 + kcp_eff)`.
            let jp0 = jc / NR;
            for (pi, k0) in (0..k).step_by(kc_blk).enumerate() {
                let kc_eff = kc_blk.min(k - k0);
                let kcp_eff = kc_eff.div_ceil(2);
                let first = pi == 0;
                let pb_ref: &[i16] = &pb.data;
                let n_rpanels = m.div_ceil(MR);
                parallel_chunks(n_rpanels, |range| {
                    let acc_base = acc_base;
                    let mut pa = [0i32; MR * (KC_MAX / 2)];
                    for rp in range {
                        let i0 = rp * MR;
                        let mr_eff = MR.min(m - i0);
                        pack_a_i8(a, k, i0, mr_eff, k0, kc_eff, &mut pa);
                        for jp in 0..n_jpanels {
                            let j = jc + jp * NR;
                            let nr_eff = NR.min(n - j);
                            // SAFETY: AVX2 asserted above; row panels are
                            // disjoint across `rp`, so each microkernel
                            // writes an exclusive accumulator window.
                            unsafe {
                                let pbp = pb_ref
                                    .as_ptr()
                                    .add(((jp0 + jp) * kcp_full + k0 / 2) * 2 * NR);
                                let cp = acc_base.0.add(i0 * n + j);
                                mk_i8_tile(vnni, kcp_eff, pa.as_ptr(), pbp, cp, n, mr_eff, nr_eff, first);
                            }
                        }
                    }
                });
            }
        }
    } else {
        acc.fill(0);
    }

    // Fused write-back: zero-point correction + requantize + bias +
    // ReLU, vectorized row-at-a-time ([`requant_row_avx2`]).
    let out_base = SendPtrI8(out.as_mut_ptr());
    let acc_ref: &[i32] = &acc;
    let zp_corr_ref: &[i32] = &zp_corr;
    match *layout {
        QOutI8::RowMajor => parallel_chunks(m, |rows| {
            let out_base = out_base;
            for i in rows {
                // SAFETY: AVX2 asserted; row `i` of `out` is an exclusive
                // window per worker (disjoint row ranges).
                unsafe {
                    requant_row_avx2(
                        acc_ref.as_ptr().add(i * n),
                        zp_corr_ref.as_ptr(),
                        mult.as_ptr(),
                        badd.as_ptr(),
                        n,
                        relu,
                        out_zp,
                        out_base.0.add(i * n),
                    );
                }
            }
        }),
        QOutI8::ImagePatch { p } => parallel_chunks(m, |rows| {
            let out_base = out_base;
            let mut tmp = pool::alloc_i8(n);
            for i in rows {
                // SAFETY: AVX2 asserted; `tmp` is worker-local.
                unsafe {
                    requant_row_avx2(
                        acc_ref.as_ptr().add(i * n),
                        zp_corr_ref.as_ptr(),
                        mult.as_ptr(),
                        badd.as_ptr(),
                        n,
                        relu,
                        out_zp,
                        tmp.as_mut_ptr(),
                    );
                }
                let (img, patch) = (i / p, i % p);
                for (j, &v) in tmp.iter().enumerate() {
                    // SAFETY: distinct (i, j) map to distinct indices
                    // under the ImagePatch layout; rows are disjoint.
                    unsafe { *out_base.0.add(img * n * p + j * p + patch) = v };
                }
            }
            pool::recycle_i8(tmp);
        }),
    }
    pool::recycle_i32(zp_corr);
    pool::recycle_i32(acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng, StdRng};

    #[test]
    #[ignore]
    fn perf_probe_microkernel() {
        use std::time::Instant;
        let kcp = 128usize;
        let pa = vec![0x0101_0101i32; kcp * MR];
        let pb = vec![1i16; kcp * 2 * NR];
        let mut c = vec![0i32; MR * 64];
        let iters = 200_000u32;
        unsafe { mk_i8_6x16(kcp, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), NR, MR, NR, true) };
        let t = Instant::now();
        for _ in 0..iters {
            unsafe { mk_i8_6x16(kcp, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), NR, MR, NR, true) };
        }
        let per = t.elapsed().as_secs_f64() / iters as f64;
        let macs = (MR * NR * 2 * kcp) as f64;
        eprintln!(
            "mk_i8_6x16: {:.1} ns/call, {:.1} GMAC/s ({:.2} ns/kp)",
            per * 1e9,
            macs / per / 1e9,
            per * 1e9 / kcp as f64
        );
        std::hint::black_box(&c);
    }

    #[test]
    #[ignore]
    fn perf_probe_gemm_components() {
        use std::time::Instant;
        let (m, k, n) = (256usize, 256usize, 256usize);
        let (kc, kcp) = (k, k / 2);
        let a = vec![3i8; m * k];
        let b = vec![5i8; n * k];
        let mut pb = vec![0i16; kcp * 2 * n.div_ceil(NR) * NR];
        let mut pa = vec![0i32; MR * kcp];
        let mut acc = vec![0i32; m * n];
        let mut out = vec![0i8; m * n];
        let iters = 200;

        let t = Instant::now();
        for _ in 0..iters {
            pack_b_i8(&b, k, 0, kc, 0, n, kcp, &mut pb);
        }
        eprintln!("pack_b (full):  {:.3} ms", t.elapsed().as_secs_f64() / iters as f64 * 1e3);

        let n_rp = m.div_ceil(MR);
        let t = Instant::now();
        for _ in 0..iters {
            for rp in 0..n_rp {
                let i0 = rp * MR;
                pack_a_i8(&a, k, i0, MR.min(m - i0), 0, kc, &mut pa);
            }
        }
        eprintln!("pack_a (all rp): {:.3} ms", t.elapsed().as_secs_f64() / iters as f64 * 1e3);

        let t = Instant::now();
        for _ in 0..iters {
            for rp in 0..n_rp {
                let i0 = rp * MR;
                let mr = MR.min(m - i0);
                for jp in 0..n / NR {
                    unsafe {
                        mk_i8_6x16(
                            kcp,
                            pa.as_ptr(),
                            pb.as_ptr().add(jp * kcp * 2 * NR),
                            acc.as_mut_ptr().add(i0 * n + jp * NR),
                            n,
                            mr,
                            NR,
                            true,
                        )
                    };
                }
            }
        }
        eprintln!("mk loop (real):  {:.3} ms", t.elapsed().as_secs_f64() / iters as f64 * 1e3);

        let zp_corr = vec![77i32 * 3; n];
        let mult = vec![0.005f32; n];
        let badd = vec![0.0f32; n];
        let t = Instant::now();
        for _ in 0..iters {
            for i in 0..m {
                unsafe {
                    requant_row_avx2(
                        acc.as_ptr().add(i * n),
                        zp_corr.as_ptr(),
                        mult.as_ptr(),
                        badd.as_ptr(),
                        n,
                        false,
                        0,
                        out.as_mut_ptr().add(i * n),
                    );
                }
            }
        }
        eprintln!("epilogue:        {:.3} ms", t.elapsed().as_secs_f64() / iters as f64 * 1e3);
        std::hint::black_box((&out, &acc));
    }

    /// Single-accumulator reference in the microkernel's summation
    /// order (sequential over k), used for the tight-tolerance checks.
    fn reference(m: usize, k: usize, n: usize, a: &[f32], b_at: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += (a[i * k + kk] as f64) * (b_at(kk, j) as f64);
                }
            }
        }
        c.into_iter().map(|v| v as f32).collect()
    }

    /// Documented ULP-style tolerance for a K-deep f32 reduction against
    /// a higher-precision oracle: `2·K·ε` relative to the magnitude sum.
    fn tol(k: usize, scale: f32) -> f32 {
        2.0 * (k.max(1) as f32) * f32::EPSILON * scale.max(1.0)
    }

    fn rand_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f64..1.0) as f32).collect()
    }

    fn rand_i8(len: usize, rng: &mut StdRng) -> Vec<i8> {
        (0..len).map(|_| rng.gen_range(-128i64..128) as i8).collect()
    }

    /// Odd-shape sweep (K below one lane, K=0, single row/column, exact
    /// tile multiples, primes) pitting the AVX2 path against an f64
    /// oracle in the same summation order.
    #[test]
    fn avx2_gemm_matches_oracle_over_odd_shapes() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        let shapes = [
            (1usize, 0usize, 1usize),
            (1, 1, 1),
            (1, 3, 1),
            (1, 2048, 10),
            (5, 7, 13),
            (6, 16, 16),
            (7, 17, 18),
            (12, 256, 32),
            (13, 257, 31),
            (3, 5, 40),
            (23, 300, 17),
            (6, 512, 1),
        ];
        let mut rng = StdRng::seed_from_u64(0x51D);
        for &(m, k, n) in &shapes {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let scale = k as f32; // |a|,|b| ≤ 1 ⇒ Σ|a·b| ≤ k
            let want = reference(m, k, n, &a, |kk, j| b[kk * n + j]);

            let mut c = vec![f32::NAN; m * n];
            gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut c, None, None, false);
            for (i, (&got, &w)) in c.iter().zip(&want).enumerate() {
                assert!(
                    (got - w).abs() <= tol(k, scale),
                    "nn {m}x{k}x{n} elem {i}: {got} vs {w}"
                );
            }

            // Same logical B, transposed storage — must agree with the
            // same oracle through the transposing packer.
            let mut bt = vec![0.0f32; n * k];
            for kk in 0..k {
                for j in 0..n {
                    bt[j * k + kk] = b[kk * n + j];
                }
            }
            let mut ct = vec![f32::NAN; m * n];
            gemm(m, k, n, &a, BSrc::Transposed(&bt), &mut ct, None, None, false);
            assert_eq!(c, ct, "nt packing must be bit-identical to nn ({m}x{k}x{n})");
        }
    }

    /// The fused epilogue must equal running bias-add and ReLU as
    /// separate passes, bit for bit.
    #[test]
    fn fused_epilogue_matches_separate_passes() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        let (m, k, n) = (9, 33, 21);
        let mut rng = StdRng::seed_from_u64(7);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let rbias = rand_vec(m, &mut rng);
        let cbias = rand_vec(n, &mut rng);

        let mut plain = vec![0.0f32; m * n];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut plain, None, None, false);
        for (i, row) in plain.chunks_mut(n).enumerate() {
            row.iter_mut().for_each(|v| *v += rbias[i]);
            for (v, &bv) in row.iter_mut().zip(&cbias) {
                *v += bv;
            }
            row.iter_mut().for_each(|v| *v = v.max(0.0));
        }
        let mut fused = vec![f32::NAN; m * n];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut fused, Some(&rbias), Some(&cbias), true);
        assert_eq!(plain, fused);
    }

    /// Thread count must not change a single bit (row panels only ever
    /// split the output, never the reduction).
    #[test]
    fn thread_count_does_not_change_bits() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        let (m, k, n) = (37, 65, 29);
        let mut rng = StdRng::seed_from_u64(11);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let prev = crate::threading::num_threads();
        crate::threading::set_num_threads(1);
        let mut c1 = vec![0.0f32; m * n];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut c1, None, None, false);
        crate::threading::set_num_threads(7);
        let mut c7 = vec![0.0f32; m * n];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut c7, None, None, false);
        crate::threading::set_num_threads(prev);
        assert_eq!(c1, c7);
    }

    /// Column count must not change the bits of existing columns: the
    /// guarantee dynamic batching relies on (a conv's patch axis grows
    /// with the batch). k spans several KC blocks, so a narrow output
    /// (one k-span per dispatch, A read in place) is checked against a
    /// wide one (one KC block per dispatch, A packed), for every B
    /// source, at 1 and 2 kernel threads. m = 11 is all 6-row panels
    /// (the last one partial); m = 43 puts two 16-row groups through the
    /// lanes-over-rows kernel at n ≤ 4 and leaves an 11-row tail; each k
    /// is taken once as a multiple of 8 and once with a k tail.
    #[test]
    fn wider_output_preserves_existing_columns_bitwise() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        #[derive(Clone, Copy, Debug)]
        enum Src {
            RowMajor,
            Transposed,
            /// Square kernel of this size, padded to keep 2×2 images 2×2.
            Patches(usize),
        }
        let n_big = 600usize;
        let k_target = 3 * gemm_kc() + 37;
        let mut rng = StdRng::seed_from_u64(13);
        for src in [
            Src::RowMajor,
            Src::Transposed,
            Src::Patches(1),
            Src::Patches(3),
        ] {
            // A 3×3 patch has 9 offsets per channel, so its k is a
            // multiple of 9; a channel count that is a multiple of 8
            // makes k one of 8 too.
            let khw = match src {
                Src::Patches(kh) => kh * kh,
                _ => 1,
            };
            let ch_tail = k_target.div_ceil(khw);
            for (m, ch) in [
                (11usize, ch_tail),
                (43, ch_tail),
                (43, ch_tail.next_multiple_of(8)),
            ] {
                let k = ch * khw;
                let a = rand_vec(m * k, &mut rng);
                // Column j of B is `bt[j*k..(j+1)*k]`; patch columns come
                // from 2×2 images instead, 4 per image.
                let bt = rand_vec(n_big * k, &mut rng);
                let x = rand_vec(n_big / 4 * ch * 4, &mut rng);
                let run = |n: usize| {
                    let mut c = vec![f32::NAN; m * n];
                    match src {
                        Src::RowMajor => {
                            let mut b = vec![0.0f32; k * n];
                            for j in 0..n {
                                for kk in 0..k {
                                    b[kk * n + j] = bt[j * k + kk];
                                }
                            }
                            gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut c, None, None, false);
                        }
                        Src::Transposed => {
                            let b = BSrc::Transposed(&bt[..n * k]);
                            gemm(m, k, n, &a, b, &mut c, None, None, false);
                        }
                        Src::Patches(kh) => {
                            let p = PatchSrc {
                                x: &x[..n.div_ceil(4) * ch * 4],
                                c: ch,
                                h: 2,
                                w: 2,
                                ch0: 0,
                                kh,
                                kw: kh,
                                stride: (1, 1),
                                padding: (kh / 2, kh / 2),
                                dilation: (1, 1),
                                oh: 2,
                                ow: 2,
                            };
                            gemm(m, k, n, &a, BSrc::Patches(&p), &mut c, None, None, false);
                        }
                    }
                    c
                };
                let prev = crate::threading::num_threads();
                let mut reference: Option<Vec<f32>> = None;
                for threads in [1, 2] {
                    crate::threading::set_num_threads(threads);
                    let c_big = run(n_big);
                    let want = reference.get_or_insert_with(|| c_big.clone());
                    assert!(
                        want.iter()
                            .zip(&c_big)
                            .all(|(w, g)| w.to_bits() == g.to_bits()),
                        "{src:?} m={m} k={k}: {threads} threads changed bits of the wide output"
                    );
                    for n_small in [1usize, 2, 3, 4, 8, 9, 16] {
                        let c_small = run(n_small);
                        for i in 0..m {
                            for j in 0..n_small {
                                assert_eq!(
                                    c_small[i * n_small + j].to_bits(),
                                    want[i * n_big + j].to_bits(),
                                    "{src:?} m={m} k={k} threads={threads} n={n_small}: \
                                     element ({i},{j}) changed bits when the output widened"
                                );
                            }
                        }
                    }
                }
                crate::threading::set_num_threads(prev);
            }
        }
    }

    /// The int8 microkernel's accumulator must equal the scalar i32
    /// triple loop exactly — integers, so `assert_eq` with zero
    /// tolerance, over odd shapes including edge tiles and odd k
    /// (exercising the zero-padded pair tail), adversarial ±127 values
    /// (which would saturate a maddubs-based kernel), and both layouts.
    #[test]
    fn i8_gemm_accumulator_is_exact() {
        if !simd_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let shapes = [
            (1usize, 1usize, 1usize),
            (1, 3, 1),
            (5, 7, 13),
            (6, 16, 16),
            (7, 17, 18),
            (13, 257, 31),
            (23, 64, 17),
            (6, 511, 9),
            (12, 33, 40),
        ];
        let mut rng = StdRng::seed_from_u64(0xAB);
        for &(m, k, n) in &shapes {
            let mut a = rand_i8(m * k, &mut rng);
            let mut b = rand_i8(n * k, &mut rng);
            // Worst-case magnitude corners in fixed spots: the maddubs
            // saturation trap (two consecutive ±127·∓128 pairs).
            if k >= 2 {
                a[0] = -128;
                a[1] = -128;
                b[0] = 127;
                b[1] = 127;
            }
            let a_zp: i32 = 3;
            let col_sums: Vec<i32> = (0..n)
                .map(|j| b[j * k..(j + 1) * k].iter().map(|&v| v as i32).sum())
                .collect();
            // Identity requant (scale 1, zp 0) saturates, so compare the
            // *requantized* output against the scalar oracle running the
            // identical epilogue — exact acc ⇒ exact bytes.
            let x_scale = 0.05f32;
            let (out_scale, out_zp) = (0.11f32, -7);
            let mult = vec![x_scale * 0.02 * (1.0 / out_scale); n];
            let badd = vec![0.0f32; n];
            let mut want = vec![0i8; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0i32;
                    for kk in 0..k {
                        acc += a[i * k + kk] as i32 * b[j * k + kk] as i32;
                    }
                    acc = acc.wrapping_sub(a_zp.wrapping_mul(col_sums[j]));
                    want[i * n + j] =
                        crate::quant::requant_one(acc, mult[j], badd[j], false, out_zp);
                }
            }
            let pb = pack_b_full(&b, k, n);
            let mut got = vec![0i8; m * n];
            gemm_i8_nt(
                m, k, n, &a, &pb, a_zp, &col_sums, &mult, &badd, out_zp, false,
                &QOutI8::RowMajor, &mut got,
            );
            assert_eq!(got, want, "i8 gemm {m}x{k}x{n} diverged from scalar oracle");
        }
    }

    /// Thread count and the ImagePatch write-back must not change int8
    /// bytes (integer accumulation is order-free; the layout only
    /// permutes indices).
    #[test]
    fn i8_gemm_threads_and_layout_are_bitwise_stable() {
        if !simd_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let (imgs, p, k, n) = (3usize, 14usize, 29usize, 10usize);
        let m = imgs * p;
        let mut rng = StdRng::seed_from_u64(0xC0);
        let a = rand_i8(m * k, &mut rng);
        let b = rand_i8(n * k, &mut rng);
        let col_sums: Vec<i32> = (0..n)
            .map(|j| b[j * k..(j + 1) * k].iter().map(|&v| v as i32).sum())
            .collect();
        let mult = vec![0.04f32 * 0.03 * (1.0 / 0.2); n];
        let badd = vec![0.0f32; n];
        let pb = pack_b_full(&b, k, n);
        let run = |layout: &QOutI8| {
            let mut out = vec![0i8; m * n];
            gemm_i8_nt(
                m, k, n, &a, &pb, -5, &col_sums, &mult, &badd, 1, true, layout,
                &mut out,
            );
            out
        };
        let prev = crate::threading::num_threads();
        crate::threading::set_num_threads(1);
        let rm1 = run(&QOutI8::RowMajor);
        let ip1 = run(&QOutI8::ImagePatch { p });
        crate::threading::set_num_threads(7);
        let rm7 = run(&QOutI8::RowMajor);
        let ip7 = run(&QOutI8::ImagePatch { p });
        crate::threading::set_num_threads(prev);
        assert_eq!(rm1, rm7, "thread count changed int8 bytes");
        assert_eq!(ip1, ip7, "thread count changed int8 bytes (ImagePatch)");
        // The two layouts hold the same bytes, permuted.
        for i in 0..m {
            for j in 0..n {
                let (img, patch) = (i / p, i % p);
                assert_eq!(rm1[i * n + j], ip1[img * n * p + j * p + patch]);
            }
        }
    }

    /// The VNNI microkernels must be bit-identical to the plain
    /// madd+add forms on every tile shape (full, edge rows, narrow and
    /// edge columns, odd k): `vpdpwssd` is the same exact i32
    /// arithmetic, fused.
    #[test]
    fn i8_vnni_kernels_match_plain_bitwise() {
        if !simd_available() || !vnni_enabled() {
            eprintln!("skipping: no AVX2+VNNI on this host");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xD1);
        for &(kcp, mr, nr) in
            &[(64usize, MR, NR), (7, 3, NR), (64, MR, 11), (1, 1, 16), (33, MR, 8), (5, 2, 5)]
        {
            let pa: Vec<i32> = (0..kcp * MR)
                .map(|_| {
                    pack_pair(rng.gen_range(-128i64..128) as i8, rng.gen_range(-128i64..128) as i8)
                })
                .collect();
            let pb: Vec<i16> =
                (0..kcp * 2 * NR).map(|_| rng.gen_range(-128i64..128) as i16).collect();
            let ldc = NR + 3;
            let mut plain = vec![7i32; MR * ldc];
            let mut vnni = vec![7i32; MR * ldc];
            for first in [true, false] {
                // SAFETY: AVX2 + VNNI checked above; buffers sized per
                // the kernel contracts.
                unsafe {
                    mk_i8_tile(false, kcp, pa.as_ptr(), pb.as_ptr(), plain.as_mut_ptr(), ldc, mr, nr, first);
                    mk_i8_tile(true, kcp, pa.as_ptr(), pb.as_ptr(), vnni.as_mut_ptr(), ldc, mr, nr, first);
                }
                assert_eq!(plain, vnni, "VNNI diverged at kcp={kcp} mr={mr} nr={nr} first={first}");
            }
        }
    }

    /// FX_GEMM_KC/FX_GEMM_NC validation: in-range values round to the
    /// quantum, junk falls back to the default.
    #[test]
    fn block_param_validates() {
        // Unset → default.
        assert_eq!(block_param("FX_TEST_UNSET_BLOCK", 256, 8, 1024, 8), 256);
        std::env::set_var("FX_TEST_BLOCK_A", "384");
        assert_eq!(block_param("FX_TEST_BLOCK_A", 256, 8, 1024, 8), 384);
        std::env::set_var("FX_TEST_BLOCK_A", "100");
        assert_eq!(block_param("FX_TEST_BLOCK_A", 256, 8, 1024, 8), 96);
        std::env::set_var("FX_TEST_BLOCK_A", "7");
        assert_eq!(block_param("FX_TEST_BLOCK_A", 256, 8, 1024, 8), 256);
        std::env::set_var("FX_TEST_BLOCK_A", "99999");
        assert_eq!(block_param("FX_TEST_BLOCK_A", 256, 8, 1024, 8), 256);
        std::env::set_var("FX_TEST_BLOCK_A", "banana");
        assert_eq!(block_param("FX_TEST_BLOCK_A", 256, 8, 1024, 8), 256);
        std::env::remove_var("FX_TEST_BLOCK_A");
    }
}
