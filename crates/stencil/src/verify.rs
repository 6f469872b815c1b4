//! Verification of executor output, in two forms.
//!
//! **Recurrence check** ([`satisfies_recurrence3d`],
//! [`satisfies_recurrence2d`]): every cell must equal, bit for bit, the
//! kernel's scalar `eval` of its upstream neighbours read from the same
//! grid, with out-of-range neighbours reading the plan's boundary. The
//! recurrence has exactly one solution: walking the cells in
//! lexicographic order, the first cell that differs from the sequential
//! sweep has neighbours that all equal the sweep's, so its `eval` yields
//! the sweep's value and the check fails there. Passing is therefore
//! *identical* to bitwise equality with [`crate::seq`], not a weaker
//! proxy — but the check has no loop-carried dependence and allocates no
//! reference grid, so it costs a few percent of re-running the sweep. It
//! calls only `Kernel*::eval`, never the vectorised `eval_pencil` /
//! `eval_wave` forms the executors run, so it stays independent of them.
//!
//! **Reference comparison** ([`verify_paper3d`], [`verify_example1`]):
//! run the distributed executor and diff against the sequential sweep.
//! The sweep stays the oracle wherever a tolerance is needed (the fast
//! kernel tier, whose local residual does not bound accumulated error)
//! and in the tests. Distributed runs must be **bitwise** equal to it:
//! each cell is written once from final neighbour values, so float
//! non-associativity cannot creep in.

use crate::dist2d::{run_example1_dist, Decomp2D};
use crate::dist3d::{run_paper3d_dist, Decomp3D, ExecMode};
use crate::engine::EngineError;
use crate::grid::{Grid2D, Grid3D};
use crate::kernel::{Kernel2D, Kernel3D};
use crate::seq::{run_example1_seq, run_paper3d_seq};
use msgpass::thread_backend::LatencyModel;

/// True iff `grid` is the solution of `kernel`'s recurrence over the
/// plan `d`: every cell `(i,j,k)` is bitwise equal to
/// `kernel.eval(i, j, k, A(i−1,j,k), A(i,j−1,k), A(i,j,k−1))`, with
/// neighbours outside `d`'s extents reading `d.boundary`. Extents and
/// boundary come from `d`, not from the grid; a grid of another shape
/// is `false`. Equivalent to bitwise equality with
/// [`crate::seq::run_seq3d`] (see the module docs).
pub fn satisfies_recurrence3d<K: Kernel3D>(kernel: K, d: Decomp3D, grid: &Grid3D) -> bool {
    let (nx, ny, nz) = (d.nx, d.ny, d.nz);
    if (grid.nx(), grid.ny(), grid.nz()) != (nx, ny, nz) {
        return false;
    }
    let data = grid.data();
    let pencil = |i: usize, j: usize| &data[(i * ny + j) * nz..][..nz];
    // Stands in for the i−1 / j−1 pencil on the low faces: one pencil,
    // not a grid.
    let edge = vec![d.boundary; nz];
    (0..nx).all(|i| {
        (0..ny).all(|j| {
            let im1 = if i > 0 { pencil(i - 1, j) } else { &edge };
            let jm1 = if j > 0 { pencil(i, j - 1) } else { &edge };
            pencil_satisfies(
                &kernel,
                i as i64,
                j as i64,
                im1,
                jm1,
                d.boundary,
                pencil(i, j),
            )
        })
    })
}

/// One `k`-pencil of [`satisfies_recurrence3d`]: `out[0]` from `km1`,
/// then `out[k]` from `out[k−1]`. Every input is read from the grid, so
/// nothing is carried between cells and the loop is free to vectorise.
fn pencil_satisfies<K: Kernel3D>(
    kernel: &K,
    i: i64,
    j: i64,
    im1: &[f32],
    jm1: &[f32],
    km1: f32,
    out: &[f32],
) -> bool {
    let n = out.len();
    let first = kernel.eval(i, j, 0, im1[0], jm1[0], km1).to_bits() == out[0].to_bits();
    let rest = (1..)
        .zip(out[1..].iter().zip(&out[..n - 1]))
        .zip(im1[1..].iter().zip(&jm1[1..]))
        .fold(true, |ok, ((k, (&o, &prev)), (&a, &c))| {
            ok & (kernel.eval(i, j, k, a, c, prev).to_bits() == o.to_bits())
        });
    first && rest
}

/// The 2-D form of [`satisfies_recurrence3d`]: every cell `(i,j)` is
/// bitwise equal to `kernel.eval(i, j, A(i−1,j−1), A(i−1,j), A(i,j−1))`,
/// neighbours outside `d`'s extents reading `d.boundary`; a grid of
/// another shape is `false`. Equivalent to bitwise equality with
/// [`crate::seq::run_seq2d`].
pub fn satisfies_recurrence2d<K: Kernel2D>(kernel: K, d: Decomp2D, grid: &Grid2D) -> bool {
    let (nx, ny) = (d.nx, d.ny);
    if (grid.nx(), grid.ny()) != (nx, ny) {
        return false;
    }
    let b = d.boundary;
    let data = grid.data();
    let edge = vec![b; ny];
    (0..nx).all(|i| {
        let out = &data[i * ny..][..ny];
        let up = if i > 0 {
            &data[(i - 1) * ny..][..ny]
        } else {
            &edge
        };
        let gi = i as i64;
        let first = kernel.eval(gi, 0, b, up[0], b).to_bits() == out[0].to_bits();
        let rest = (1..)
            .zip(out[1..].iter().zip(&out[..ny - 1]))
            .zip(up[..ny - 1].iter().zip(&up[1..]))
            .fold(true, |ok, ((j, (&o, &jm1)), (&diag, &im1))| {
                ok & (kernel.eval(gi, j, diag, im1, jm1).to_bits() == o.to_bits())
            });
        first && rest
    })
}

/// Outcome of a verification run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VerifyReport {
    /// Maximum absolute difference (0.0 for a pass).
    pub max_abs_diff: f32,
    /// Wall-clock seconds of the distributed run.
    pub elapsed_secs: f64,
}

impl VerifyReport {
    /// True iff the distributed run is bitwise identical.
    pub fn passed(&self) -> bool {
        self.max_abs_diff == 0.0
    }
}

/// Verify a 3-D decomposition in the given mode against the sequential
/// reference. Returns the engine's typed error if the decomposition or
/// its communication plan is rejected.
pub fn verify_paper3d(
    d: Decomp3D,
    latency: LatencyModel,
    mode: ExecMode,
) -> Result<VerifyReport, EngineError> {
    let (dist, elapsed) = run_paper3d_dist(d, latency, mode)?;
    let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
    Ok(VerifyReport {
        max_abs_diff: dist.max_abs_diff(&seq),
        elapsed_secs: elapsed.as_secs_f64(),
    })
}

/// Verify a 2-D decomposition in the given mode. Returns the engine's
/// typed error if the decomposition or its communication plan is
/// rejected.
pub fn verify_example1(
    d: Decomp2D,
    latency: LatencyModel,
    mode: ExecMode,
) -> Result<VerifyReport, EngineError> {
    let (dist, elapsed) = run_example1_dist(d, latency, mode)?;
    let seq = run_example1_seq(d.nx, d.ny, d.boundary);
    Ok(VerifyReport {
        max_abs_diff: dist.max_abs_diff(&seq),
        elapsed_secs: elapsed.as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Example1, Paper3D};

    #[test]
    fn verify_3d_both_modes() {
        let d = Decomp3D {
            nx: 4,
            ny: 4,
            nz: 20,
            pi: 2,
            pj: 2,
            v: 5,
            boundary: 1.0,
        };
        assert!(verify_paper3d(d, LatencyModel::zero(), ExecMode::Blocking)
            .expect("valid")
            .passed());
        assert!(
            verify_paper3d(d, LatencyModel::zero(), ExecMode::Overlapping)
                .expect("valid")
                .passed()
        );
    }

    #[test]
    fn verify_2d_both_modes() {
        let d = Decomp2D {
            nx: 30,
            ny: 8,
            ranks: 4,
            v: 7,
            boundary: 2.0,
        };
        assert!(verify_example1(d, LatencyModel::zero(), ExecMode::Blocking)
            .expect("valid")
            .passed());
        assert!(
            verify_example1(d, LatencyModel::zero(), ExecMode::Overlapping)
                .expect("valid")
                .passed()
        );
    }

    #[test]
    fn verify_with_injected_latency_still_correct() {
        // Latency changes timing, never results.
        let lat = LatencyModel {
            startup_us: 200.0,
            per_byte_us: 0.01,
        };
        let d = Decomp3D {
            nx: 4,
            ny: 4,
            nz: 12,
            pi: 2,
            pj: 2,
            v: 4,
            boundary: 1.0,
        };
        assert!(verify_paper3d(d, lat, ExecMode::Overlapping)
            .expect("valid")
            .passed());
    }

    #[test]
    fn recurrence_check_accepts_distributed_runs_and_rejects_corruption() {
        let d = Decomp3D {
            nx: 4,
            ny: 4,
            nz: 20,
            pi: 2,
            pj: 2,
            v: 5,
            boundary: 1.0,
        };
        let (mut g, _) = run_paper3d_dist(d, LatencyModel::zero(), ExecMode::Overlapping).unwrap();
        assert!(satisfies_recurrence3d(Paper3D, d, &g));
        assert!(!satisfies_recurrence3d(
            Paper3D,
            Decomp3D { boundary: 2.0, ..d },
            &g
        ));
        assert!(!satisfies_recurrence3d(
            Paper3D,
            Decomp3D { nz: 21, ..d },
            &g
        ));
        g.set(3, 3, 19, g.get(3, 3, 19) + 1.0);
        assert!(!satisfies_recurrence3d(Paper3D, d, &g));

        let d2 = Decomp2D {
            nx: 30,
            ny: 8,
            ranks: 4,
            v: 7,
            boundary: 2.0,
        };
        let (mut g2, _) =
            run_example1_dist(d2, LatencyModel::zero(), ExecMode::Overlapping).unwrap();
        assert!(satisfies_recurrence2d(Example1, d2, &g2));
        assert!(!satisfies_recurrence2d(
            Example1,
            Decomp2D { ny: 4, ..d2 },
            &g2
        ));
        g2.set(0, 0, f32::NAN);
        assert!(!satisfies_recurrence2d(Example1, d2, &g2));
    }

    #[test]
    fn report_fields() {
        let d = Decomp2D {
            nx: 8,
            ny: 4,
            ranks: 2,
            v: 4,
            boundary: 1.0,
        };
        let r = verify_example1(d, LatencyModel::zero(), ExecMode::Blocking).expect("valid");
        assert!(r.passed());
        assert!(r.elapsed_secs >= 0.0);
    }
}
