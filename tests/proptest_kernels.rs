//! Property tests pinning the wave-kernel contract: for every 3-D
//! kernel, evaluating a [`Wave`] of independent pencils must be
//! **bitwise** identical to evaluating the same pencils one by one with
//! `eval_pencil` — for every wave width (including the narrow-wave
//! pencil fallback), every pencil length (including the `len % 8`
//! remainder lanes of the 8-wide vector pass), and ragged waves whose
//! pencils have unequal lengths. This is the invariant that lets the
//! tile walk regroup cells into chunked super-diagonal waves, and the
//! worker pool redistribute them across threads, without perturbing a
//! single bit of the distributed-vs-sequential verification.
//!
//! The fast tier ([`KernelTier::Fast`]) is *not* bitwise: it may
//! reassociate and drop domain guards. Its property is a ULP bound
//! against the pinned tier on the reachable (non-negative, contractive)
//! domain, plus NaN-freedom.
//!
//! The second half pins the recurrence check of `stencil::verify` for
//! all seven kernels: on random shapes and boundaries, its verdict on a
//! sequential-sweep grid with zero, one or several corrupted cells must
//! equal bitwise equality with the uncorrupted sweep; a grid swept with
//! another boundary, or checked against another shape, must be rejected
//! without a panic.

use proptest::prelude::*;
use stencil::dist2d::Decomp2D;
use stencil::dist3d::Decomp3D;
use stencil::grid::{Grid2D, Grid3D};
use stencil::kernel::{
    Alignment2D, Example1, Fused3D, Kernel2D, Kernel3D, LongestPath3D, Paper3D, Relax3D, Smooth2D,
    Wave, MAX_WAVE,
};
use stencil::seq::{run_seq2d, run_seq3d};
use stencil::verify::{satisfies_recurrence2d, satisfies_recurrence3d};

/// Pencil shapes and inputs for one wave: `(len, km1, im1, jm1)` per
/// entry. Lengths are drawn small and independently so ragged waves and
/// 8-lane remainders are both routine.
fn pencils(max_m: usize, max_len: usize) -> impl Strategy<Value = Vec<(Vec<f32>, Vec<f32>, f32)>> {
    let pencil = (0..=max_len).prop_flat_map(|len| {
        (
            prop::collection::vec(0.0f32..4.0, len),
            prop::collection::vec(0.0f32..4.0, len),
            0.0f32..4.0,
        )
    });
    prop::collection::vec(pencil, 1..=max_m)
}

/// Evaluate the pencils both ways and require bit-for-bit equality;
/// then run the fast tier and bound its drift. Returns the pinned
/// outputs for kernel-specific follow-up assertions.
fn check_kernel<K: Kernel3D>(
    k: K,
    inputs: &[(Vec<f32>, Vec<f32>, f32)],
) -> Result<(), TestCaseError> {
    // Scalar reference: one eval_pencil call per pencil.
    let mut pinned: Vec<Vec<f32>> = Vec::new();
    for (n, (im1, jm1, km1)) in inputs.iter().enumerate() {
        let mut out = vec![0.0f32; im1.len()];
        k.eval_pencil(n as i64 + 1, 2, 1, im1, jm1, *km1, &mut out);
        pinned.push(out);
    }

    // Wave form (bitwise tier): same pencils, one batched call.
    let mut wave_out: Vec<Vec<f32>> = inputs.iter().map(|(a, _, _)| vec![0.0; a.len()]).collect();
    {
        let mut wave = Wave::new();
        let mut rest: &mut [Vec<f32>] = &mut wave_out;
        for (n, (im1, jm1, km1)) in inputs.iter().enumerate() {
            let (out, r) = rest.split_first_mut().unwrap();
            rest = r;
            wave.push(n as i64 + 1, 2, 1, im1, jm1, *km1, out);
        }
        k.eval_wave(&mut wave);
    }
    for (n, (got, want)) in wave_out.iter().zip(&pinned).enumerate() {
        for (z, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "pencil {} cell {}: wave {} != pencil {}",
                n,
                z,
                g,
                w
            );
        }
    }

    // Fast tier: ULP-bounded against pinned on the reachable domain,
    // never NaN. The bound is loose — it catches catastrophic
    // divergence (a dropped guard going NaN, a wrong carry), not
    // rounding; the tier's contract is "close", not "equal".
    let mut fast_out: Vec<Vec<f32>> = inputs.iter().map(|(a, _, _)| vec![0.0; a.len()]).collect();
    {
        let mut wave = Wave::new();
        let mut rest: &mut [Vec<f32>] = &mut fast_out;
        for (n, (im1, jm1, km1)) in inputs.iter().enumerate() {
            let (out, r) = rest.split_first_mut().unwrap();
            rest = r;
            wave.push(n as i64 + 1, 2, 1, im1, jm1, *km1, out);
        }
        k.eval_wave_fast(&mut wave);
    }
    for (n, (got, want)) in fast_out.iter().zip(&pinned).enumerate() {
        for (z, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert!(
                g.is_finite(),
                "pencil {} cell {}: fast tier produced {}",
                n,
                z,
                g
            );
            let ulps = (g.to_bits() as i64 - w.to_bits() as i64).unsigned_abs();
            prop_assert!(
                ulps <= 1024 || (g - w).abs() <= 1e-5,
                "pencil {} cell {}: fast {} vs pinned {} ({} ulps)",
                n,
                z,
                g,
                w,
                ulps
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's √ kernel: two-pass wave vs scalar chain.
    #[test]
    fn paper3d_wave_is_bitwise(inputs in pencils(MAX_WAVE, 40)) {
        check_kernel(Paper3D, &inputs)?;
    }

    /// Damped relaxation with a random (stable) ω.
    #[test]
    fn relax3d_wave_is_bitwise(inputs in pencils(MAX_WAVE, 40), omega in 0.05f32..1.0) {
        check_kernel(Relax3D { omega }, &inputs)?;
    }

    /// FMA smoothing with random contractive weights (2·wa + wc < 1).
    #[test]
    fn fused3d_wave_is_bitwise(inputs in pencils(MAX_WAVE, 40), wa in 0.01f32..0.45, wc in 0.01f32..0.09) {
        check_kernel(Fused3D { wa, wc }, &inputs)?;
    }

    /// A kernel with *no* wave override exercises the default
    /// pencil-by-pencil path (bitwise by construction — the test pins
    /// that the default stays that way).
    #[test]
    fn longest_path_wave_is_bitwise(inputs in pencils(MAX_WAVE, 24)) {
        check_kernel(LongestPath3D, &inputs)?;
    }
}

/// Exhaustive sweep of the length × width corner cases the proptests
/// sample: every pencil length 0..=33 (all `% 8` remainders, the empty
/// pencil, and a two-block span) at every wave width 1..=MAX_WAVE, with
/// ragged tails (pencil `n` is `n` cells shorter) so the interleaved
/// carry pass exercises its per-chain length guard.
#[test]
fn wave_matches_pencil_for_every_length_and_width() {
    for len in 0..=33usize {
        for m in 1..=MAX_WAVE {
            let inputs: Vec<(Vec<f32>, Vec<f32>, f32)> = (0..m)
                .map(|n| {
                    let l = len.saturating_sub(n);
                    let im1: Vec<f32> = (0..l)
                        .map(|z| 0.25 + ((n * 7 + z) % 13) as f32 * 0.3)
                        .collect();
                    let jm1: Vec<f32> = (0..l)
                        .map(|z| 0.5 + ((n * 5 + z) % 11) as f32 * 0.2)
                        .collect();
                    (im1, jm1, 1.0 + n as f32 * 0.1)
                })
                .collect();
            check_kernel(Paper3D, &inputs).unwrap();
            check_kernel(Relax3D::default(), &inputs).unwrap();
            check_kernel(Fused3D::default(), &inputs).unwrap();
        }
    }
}

/// One corrupted cell: `face` picks where (0 anywhere, 1/2/3 on the
/// i=0/j=0/k=0 face, 4 the last cell), `pick` which cell there, and
/// `kind` how (0 flip bit `bit`, 1 write NaN, 2 swap +0.0/−0.0 — any
/// other value becomes +0.0).
type Mutation = (usize, u64, u8, u32);

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec((0usize..5, 0u64..u64::MAX, 0u8..3, 0u32..32), 0..=4)
}

/// The coordinates `m` corrupts in a grid of extents `dims`.
fn cell(dims: &[usize], (face, pick, _, _): Mutation) -> Vec<usize> {
    let mut r = pick;
    let mut at: Vec<usize> = dims
        .iter()
        .map(|&n| {
            let c = (r % n as u64) as usize;
            r /= n as u64;
            c
        })
        .collect();
    match face {
        1..=3 if face <= dims.len() => at[face - 1] = 0,
        4 => at.iter_mut().zip(dims).for_each(|(c, &n)| *c = n - 1),
        _ => {}
    }
    at
}

fn corrupt(v: f32, (_, _, kind, bit): Mutation) -> f32 {
    match kind {
        0 => f32::from_bits(v.to_bits() ^ (1 << bit)),
        1 => f32::NAN,
        _ if v.to_bits() == 0 => -0.0,
        _ => 0.0,
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The recurrence verdict on a corrupted 3-D sweep equals bitwise
/// equality with the clean sweep; another boundary and other shapes are
/// rejected.
fn check_recurrence3d<K: Kernel3D>(
    kernel: K,
    (nx, ny, nz): (usize, usize, usize),
    boundary: f32,
    muts: &[Mutation],
) -> Result<(), TestCaseError> {
    let d = Decomp3D {
        nx,
        ny,
        nz,
        pi: 1,
        pj: 1,
        v: 1,
        boundary,
    };
    let reference = run_seq3d(kernel, nx, ny, nz, boundary);
    let mut g = reference.clone();
    for &m in muts {
        let c = cell(&[nx, ny, nz], m);
        let v = corrupt(g.get(c[0] as i64, c[1] as i64, c[2] as i64), m);
        g.set(c[0], c[1], c[2], v);
    }
    prop_assert_eq!(
        satisfies_recurrence3d(kernel, d, &g),
        bits_equal(g.data(), reference.data()),
        "{:?} b={} muts={:?}",
        (nx, ny, nz),
        boundary,
        muts
    );

    // The other boundary changes the first cell for every kernel (also
    // Paper3D, which clamps negative boundaries to 0).
    let other = run_seq3d(kernel, nx, ny, nz, boundary.abs() + 0.5);
    prop_assert!(!satisfies_recurrence3d(kernel, d, &other));

    let mut shapes = vec![(nx + 1, ny, nz), (nx, ny + 1, nz), (nx, ny, nz + 1)];
    if nx != ny {
        shapes.push((ny, nx, nz));
    }
    for (nx, ny, nz) in shapes {
        let wrong = Decomp3D { nx, ny, nz, ..d };
        prop_assert!(!satisfies_recurrence3d(kernel, wrong, &reference));
    }
    Ok(())
}

/// The 2-D counterpart of [`check_recurrence3d`].
fn check_recurrence2d<K: Kernel2D>(
    kernel: K,
    (nx, ny): (usize, usize),
    boundary: f32,
    muts: &[Mutation],
) -> Result<(), TestCaseError> {
    let d = Decomp2D {
        nx,
        ny,
        ranks: 1,
        v: 1,
        boundary,
    };
    let reference = run_seq2d(kernel, nx, ny, boundary);
    let mut g = reference.clone();
    for &m in muts {
        let c = cell(&[nx, ny], m);
        let v = corrupt(g.get(c[0] as i64, c[1] as i64), m);
        g.set(c[0], c[1], v);
    }
    prop_assert_eq!(
        satisfies_recurrence2d(kernel, d, &g),
        bits_equal(g.data(), reference.data()),
        "{:?} b={} muts={:?}",
        (nx, ny),
        boundary,
        muts
    );

    let other = run_seq2d(kernel, nx, ny, boundary.abs() + 0.5);
    prop_assert!(!satisfies_recurrence2d(kernel, d, &other));

    let mut shapes = vec![(nx + 1, ny), (nx, ny + 1)];
    if nx != ny {
        shapes.push((ny, nx));
    }
    for (nx, ny) in shapes {
        let wrong = Decomp2D { nx, ny, ..d };
        prop_assert!(!satisfies_recurrence2d(kernel, wrong, &reference));
    }
    Ok(())
}

fn shape3() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=4, 1usize..=4, 1usize..=24)
}

fn shape2() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=12, 1usize..=12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn paper3d_recurrence_check_is_bitwise(s in shape3(), b in -4.0f32..4.0, m in mutations()) {
        check_recurrence3d(Paper3D, s, b, &m)?;
    }

    #[test]
    fn relax3d_recurrence_check_is_bitwise(
        s in shape3(), b in -4.0f32..4.0, m in mutations(), omega in 0.05f32..1.0
    ) {
        check_recurrence3d(Relax3D { omega }, s, b, &m)?;
    }

    #[test]
    fn fused3d_recurrence_check_is_bitwise(
        s in shape3(), b in -4.0f32..4.0, m in mutations(), wa in 0.01f32..0.45, wc in 0.01f32..0.09
    ) {
        check_recurrence3d(Fused3D { wa, wc }, s, b, &m)?;
    }

    #[test]
    fn longest_path3d_recurrence_check_is_bitwise(s in shape3(), b in -4.0f32..4.0, m in mutations()) {
        check_recurrence3d(LongestPath3D, s, b, &m)?;
    }

    #[test]
    fn example1_recurrence_check_is_bitwise(s in shape2(), b in -4.0f32..4.0, m in mutations()) {
        check_recurrence2d(Example1, s, b, &m)?;
    }

    #[test]
    fn smooth2d_recurrence_check_is_bitwise(
        s in shape2(), b in -4.0f32..4.0, m in mutations(), omega in 0.05f32..1.0
    ) {
        check_recurrence2d(Smooth2D { omega }, s, b, &m)?;
    }

    #[test]
    fn alignment2d_recurrence_check_is_bitwise(
        s in shape2(), b in -4.0f32..4.0, m in mutations(), alphabet in 1u32..=5
    ) {
        check_recurrence2d(Alignment2D { alphabet }, s, b, &m)?;
    }
}

/// Every single-cell corruption of every kernel's sweep is caught, on a
/// grid small enough to try each cell with each corruption kind.
#[test]
fn recurrence_check_catches_every_single_cell_corruption() {
    fn each3<K: Kernel3D>(kernel: K) {
        let (nx, ny, nz) = (3, 2, 5);
        let reference = run_seq3d(kernel, nx, ny, nz, 1.5);
        let d = Decomp3D {
            nx,
            ny,
            nz,
            pi: 1,
            pj: 1,
            v: 1,
            boundary: 1.5,
        };
        assert!(satisfies_recurrence3d(kernel, d, &reference));
        for (i, j, k) in
            (0..nx).flat_map(|i| (0..ny).flat_map(move |j| (0..nz).map(move |k| (i, j, k))))
        {
            for m in [(0, 0, 0, 0), (0, 0, 0, 31), (0, 0, 1, 0), (0, 0, 2, 0)] {
                let mut g: Grid3D = reference.clone();
                g.set(i, j, k, corrupt(g.get(i as i64, j as i64, k as i64), m));
                assert!(
                    !satisfies_recurrence3d(kernel, d, &g),
                    "({i},{j},{k}) {m:?}"
                );
            }
        }
    }
    fn each2<K: Kernel2D>(kernel: K) {
        let (nx, ny) = (4, 5);
        let reference = run_seq2d(kernel, nx, ny, 1.5);
        let d = Decomp2D {
            nx,
            ny,
            ranks: 1,
            v: 1,
            boundary: 1.5,
        };
        assert!(satisfies_recurrence2d(kernel, d, &reference));
        for (i, j) in (0..nx).flat_map(|i| (0..ny).map(move |j| (i, j))) {
            for m in [(0, 0, 0, 0), (0, 0, 0, 31), (0, 0, 1, 0), (0, 0, 2, 0)] {
                let mut g: Grid2D = reference.clone();
                g.set(i, j, corrupt(g.get(i as i64, j as i64), m));
                assert!(!satisfies_recurrence2d(kernel, d, &g), "({i},{j}) {m:?}");
            }
        }
    }
    each3(Paper3D);
    each3(Relax3D::default());
    each3(Fused3D::default());
    each3(LongestPath3D);
    each2(Example1);
    each2(Smooth2D::default());
    each2(Alignment2D::default());
}
