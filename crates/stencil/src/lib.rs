//! # stencil
//!
//! The workloads of the IPPS 2001 loop-tiling paper, executed for real:
//! dense grids ([`grid`]), wavefront kernels ([`kernel`]), sequential
//! references ([`seq`]) and distributed tiled executors for both the
//! non-overlapping (§3) and overlapping (§4) schedules, running on the
//! `msgpass` threaded backend with injected wire latency ([`dist2d`],
//! [`dist3d`]). The pipeline loop itself lives once in [`engine`]: a
//! [`engine::TileOps`] implementation per dimensionality, driven by a
//! `tiling-core` `StepPlan` whose schedule type selects blocking or
//! overlapped communication. [`decomp`] holds the shared decomposition
//! arithmetic and typed validation errors. [`verify`] checks that a
//! grid is bitwise the sequential sweep's, either by checking every cell
//! against the recurrence or by diffing against the sweep itself.
//!
//! Kernels (all single-assignment wavefront recurrences, so distributed
//! results are exactly reproducible):
//!
//! | kernel | dims | recurrence |
//! |---|---|---|
//! | [`kernel::Paper3D`] | 3 | the paper's `√A(i−1)+√A(j−1)+√A(k−1)` |
//! | [`kernel::Relax3D`] | 3 | damped smoothing `ω/3·(…)` |
//! | [`kernel::LongestPath3D`] | 3 | max-plus lattice paths |
//! | [`kernel::Fused3D`] | 3 | FMA smoothing `wa·A(i−1)+wa·A(j−1)+wc·A(k−1)` |
//! | [`kernel::Example1`] | 2 | the §3 Example 1 sum (damped) |
//! | [`kernel::Alignment2D`] | 2 | LCS-style sequence alignment DP |
//! | [`kernel::Smooth2D`] | 2 | axis-dependence Gauss–Seidel sweep |
//!
//! The executors are generic over [`kernel::Kernel2D`] /
//! [`kernel::Kernel3D`] and over any [`msgpass::comm::Communicator`],
//! which is how the trace-driven recorder replays them unchanged.
//!
//! ```
//! use stencil::dist3d::{run_paper3d_dist, Decomp3D, ExecMode};
//! use stencil::seq::run_paper3d_seq;
//! use msgpass::thread_backend::LatencyModel;
//!
//! let d = Decomp3D { nx: 4, ny: 4, nz: 16, pi: 2, pj: 2, v: 4, boundary: 1.0 };
//! let (dist, _) = run_paper3d_dist(d, LatencyModel::zero(), ExecMode::Overlapping).unwrap();
//! let seq = run_paper3d_seq(4, 4, 16, 1.0);
//! assert_eq!(dist.max_abs_diff(&seq), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decomp;
pub mod dist2d;
pub mod dist3d;
pub mod engine;
pub mod grid;
pub mod halo;
pub mod kernel;
pub mod legacy;
pub mod modelcheck;
pub mod plan;
pub(crate) mod pool;
pub mod preflight;
pub mod proto;
pub mod seq;
pub mod verify;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::decomp::DecompError;
    pub use crate::dist2d::{run_dist2d, run_dist2d_with, run_example1_dist, Decomp2D};
    pub use crate::dist3d::{
        run_dist3d, run_dist3d_traced, run_dist3d_with, run_paper3d_dist, Decomp3D, ExecMode,
    };
    pub use crate::engine::{
        run_rank, EngineError, LaneStats, NoopObserver, Phase, PhaseLog, StepObserver, TileOps,
        TraceObserver,
    };
    pub use crate::grid::{Grid2D, Grid3D};
    pub use crate::kernel::{
        Alignment2D, Example1, Fused3D, Kernel2D, Kernel3D, LongestPath3D, Paper3D, Relax3D,
        Smooth2D,
    };
    pub use crate::plan::{Compiled2D, Compiled3D};
    pub use crate::preflight::{check_plan2d, check_plan3d};
    pub use crate::seq::{
        measure_t_c_paper3d, run_example1_seq, run_paper3d_seq, run_seq2d, run_seq3d,
    };
    pub use crate::verify::{
        satisfies_recurrence2d, satisfies_recurrence3d, verify_example1, verify_paper3d,
        VerifyReport,
    };
}
