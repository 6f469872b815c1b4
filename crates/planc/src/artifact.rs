//! [`PlanArtifact`]: the immutable, analyzer-approved output of plan
//! compilation.
//!
//! An artifact bundles everything an execution needs and nothing it
//! has to re-derive: the sealed [`Compiled2D`]/[`Compiled3D`] (which
//! carries the validated decomposition, the `StepPlan` and the
//! pre-flight [`AnalysisReport`]), the resolved tile height, the
//! closed-form time prediction, and the [`PlanKey`] identifying it in
//! the cache. Executing an artifact never re-validates, re-optimizes
//! or re-analyzes — pre-flight ran exactly once, at compile time.

use crate::cache::PlanKey;
use crate::spec::{KernelName, PlanRequest};
use crate::worlds::WorldPool;
use analyzer::AnalysisReport;
use msgpass::fault::FaultStats;
use msgpass::thread_backend::{LatencyModel, WorldConfig};
use std::time::Duration;
use stencil::engine::{EngineError, ExecMode};
use stencil::grid::{Grid2D, Grid3D};
use stencil::kernel::{Example1, Fused3D, LongestPath3D, Paper3D, Relax3D, Smooth2D};
use stencil::plan::{self, Compiled2D, Compiled3D};
use stencil::seq::{run_seq2d, run_seq3d};
use stencil::verify::{satisfies_recurrence2d, satisfies_recurrence3d};
use tiling_core::machine::KernelTier;

/// Fast-tier verification tolerance against the sequential reference:
/// ULP-scale drift from reassociated arithmetic.
const FAST_TOLERANCE: f32 = 1e-4;

/// Evaluate `$body` with `$k` bound to the value of the 3-D kernel
/// named by `$name` — one monomorphized arm per kernel.
macro_rules! with_kernel3 {
    ($name:expr, |$k:ident| $body:expr) => {
        match $name {
            KernelName::Paper3D => {
                let $k = Paper3D;
                $body
            }
            KernelName::Relax3D => {
                let $k = Relax3D::default();
                $body
            }
            KernelName::Fused3D => {
                let $k = Fused3D::default();
                $body
            }
            KernelName::LongestPath3D => {
                let $k = LongestPath3D;
                $body
            }
            k => unreachable!("2-D kernel {k:?} sealed into a 3-D plan"),
        }
    };
}

/// The 2-D counterpart of `with_kernel3!`.
macro_rules! with_kernel2 {
    ($name:expr, |$k:ident| $body:expr) => {
        match $name {
            KernelName::Example1 => {
                let $k = Example1;
                $body
            }
            KernelName::Smooth2D => {
                let $k = Smooth2D::default();
                $body
            }
            k => unreachable!("3-D kernel {k:?} sealed into a 2-D plan"),
        }
    };
}

/// The sealed executable bundle inside an artifact.
#[derive(Clone, Copy, Debug)]
pub enum CompiledWorkload {
    /// A 2-D strip plan.
    Dim2(Compiled2D),
    /// A 3-D block plan.
    Dim3(Compiled3D),
}

/// Execution options.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Verify the assembled grid after the timed parallel region. On
    /// [`KernelTier::Bitwise`] every cell is checked against the
    /// kernel's recurrence — exactly bitwise equality with the
    /// sequential sweep, at a few percent of its cost, with no reference
    /// grid allocated. On [`KernelTier::Fast`] the sequential sweep is
    /// re-run and the grids must agree within `1e-4`.
    pub verify: bool,
}

/// The assembled result grid of an execution.
#[derive(Clone, Debug)]
pub enum GridResult {
    /// 2-D output.
    Dim2(Grid2D),
    /// 3-D output.
    Dim3(Grid3D),
}

impl GridResult {
    /// The 3-D grid, if this was a 3-D plan.
    pub fn dim3(&self) -> Option<&Grid3D> {
        match self {
            GridResult::Dim3(g) => Some(g),
            GridResult::Dim2(_) => None,
        }
    }

    /// The 2-D grid, if this was a 2-D plan.
    pub fn dim2(&self) -> Option<&Grid2D> {
        match self {
            GridResult::Dim2(g) => Some(g),
            GridResult::Dim3(_) => None,
        }
    }
}

/// What one execution of an artifact produced.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The assembled grid.
    pub grid: GridResult,
    /// Wall-clock time of the parallel region.
    pub elapsed: Duration,
    /// Grid cells computed per second of parallel region.
    pub cells_per_sec: f64,
    /// `Some(ok)` when [`ExecOptions::verify`] was set.
    pub verified: Option<bool>,
    /// Per-rank fault counters (empty on the pooled-world path).
    pub faults: Vec<FaultStats>,
}

/// A compiled, analyzer-approved, immutable plan. See the module docs.
#[derive(Clone, Debug)]
pub struct PlanArtifact {
    pub(crate) key: PlanKey,
    pub(crate) request: PlanRequest,
    pub(crate) v: usize,
    pub(crate) compiled: CompiledWorkload,
    pub(crate) report: AnalysisReport,
    pub(crate) predicted_us: Option<f64>,
}

impl PlanArtifact {
    /// The cache key derived from the compilation inputs.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// The request this artifact was compiled from.
    pub fn request(&self) -> &PlanRequest {
        &self.request
    }

    /// The resolved tile height (explicit or closed-form `V*`).
    pub fn v(&self) -> usize {
        self.v
    }

    /// The sealed executable bundle.
    pub fn compiled(&self) -> &CompiledWorkload {
        &self.compiled
    }

    /// The 3-D compiled plan, if this is a 3-D artifact.
    pub fn compiled3(&self) -> Option<&Compiled3D> {
        match &self.compiled {
            CompiledWorkload::Dim3(c) => Some(c),
            CompiledWorkload::Dim2(_) => None,
        }
    }

    /// The 2-D compiled plan, if this is a 2-D artifact.
    pub fn compiled2(&self) -> Option<&Compiled2D> {
        match &self.compiled {
            CompiledWorkload::Dim2(c) => Some(c),
            CompiledWorkload::Dim3(_) => None,
        }
    }

    /// The pre-flight static-analysis report (compiled exactly once).
    pub fn report(&self) -> &AnalysisReport {
        &self.report
    }

    /// The plan's logical makespan (analyzer step count).
    pub fn logical_makespan(&self) -> i64 {
        self.report.logical_makespan
    }

    /// Pipeline steps per rank.
    pub fn steps(&self) -> usize {
        match &self.compiled {
            CompiledWorkload::Dim2(c) => c.decomp().steps(),
            CompiledWorkload::Dim3(c) => c.decomp().steps(),
        }
    }

    /// World size the plan executes on.
    pub fn ranks(&self) -> usize {
        match &self.compiled {
            CompiledWorkload::Dim2(c) => c.ranks(),
            CompiledWorkload::Dim3(c) => c.ranks(),
        }
    }

    /// The schedule mode the plan was compiled for.
    pub fn mode(&self) -> ExecMode {
        self.request.mode
    }

    /// Closed-form predicted total time at the resolved height (µs),
    /// when the machine model admits one.
    pub fn predicted_us(&self) -> Option<f64> {
        self.predicted_us
    }

    /// Total grid cells one execution computes.
    pub fn cells(&self) -> usize {
        match &self.compiled {
            CompiledWorkload::Dim2(c) => {
                let d = c.decomp();
                d.nx * d.ny
            }
            CompiledWorkload::Dim3(c) => {
                let d = c.decomp();
                d.nx * d.ny * d.nz
            }
        }
    }

    /// The world configuration the artifact was compiled for: zero
    /// injected latency, the request's transport and tier, pre-flight
    /// skipped (it already ran at compile time).
    pub fn world_config(&self) -> WorldConfig {
        self.stamp(WorldConfig::new(LatencyModel::zero()))
    }

    /// Stamp the plan-owned fields onto a caller-supplied base config
    /// (latency, faults, reliability, workers and pinning stay the
    /// caller's): the transport and tier come from the compilation
    /// inputs, and the per-run pre-flight is off because it already ran
    /// at compile time.
    pub fn stamp(&self, base: WorldConfig) -> WorldConfig {
        let mut cfg = base;
        cfg.transport = self.request.transport;
        cfg.kernel_tier = self.request.tier;
        cfg.skip_preflight = true;
        cfg
    }

    /// Execute on a fresh world with the artifact's own configuration.
    pub fn execute(&self, opts: ExecOptions) -> Result<ExecOutcome, EngineError> {
        self.execute_with(&self.world_config(), opts)
    }

    /// Execute on a fresh world built from `base` with the plan-owned
    /// fields stamped over it (see [`PlanArtifact::stamp`]) — how the
    /// chaos harness runs a compiled plan under faults and injected
    /// latency.
    pub fn execute_with(
        &self,
        base: &WorldConfig,
        opts: ExecOptions,
    ) -> Result<ExecOutcome, EngineError> {
        let cfg = self.stamp(base.clone());
        let kernel = self.request.kernel;
        let (grid, elapsed, faults) = match &self.compiled {
            CompiledWorkload::Dim3(c) => {
                let (g, elapsed, faults) = with_kernel3!(kernel, |k| plan::run3d_with(k, c, &cfg))?;
                (GridResult::Dim3(g), elapsed, faults)
            }
            CompiledWorkload::Dim2(c) => {
                let (g, elapsed, faults) = with_kernel2!(kernel, |k| plan::run2d_with(k, c, &cfg))?;
                (GridResult::Dim2(g), elapsed, faults)
            }
        };
        Ok(self.outcome(grid, elapsed, faults, opts))
    }

    /// Execute on a warm world checked out of `pool` (3-D plans; 2-D
    /// plans fall back to [`PlanArtifact::execute`]). The world is
    /// returned to the pool only on success — an errored world may hold
    /// undrained messages and is discarded.
    pub fn execute_pooled(
        &self,
        pool: &WorldPool,
        opts: ExecOptions,
    ) -> Result<ExecOutcome, EngineError> {
        let c = match &self.compiled {
            CompiledWorkload::Dim3(c) => c,
            CompiledWorkload::Dim2(_) => return self.execute(opts),
        };
        let cfg = self.world_config();
        let mut world = pool.checkout(&cfg, c.ranks());
        let tier = self.request.tier;
        // On error the world is dropped: it may hold undrained state.
        let (grid, elapsed) = with_kernel3!(self.request.kernel, |k| {
            plan::run3d_on_world(k, c, tier, &mut world)
        })?;
        pool.checkin(&cfg, world);
        Ok(self.outcome(GridResult::Dim3(grid), elapsed, Vec::new(), opts))
    }

    /// Whether `grid` is this plan's correct result, on the artifact's
    /// tier. [`KernelTier::Bitwise`] checks every cell against the
    /// kernel's recurrence over the plan's extents and boundary —
    /// exactly bitwise equality with the sequential sweep, without
    /// re-running it (see [`stencil::verify`]). [`KernelTier::Fast`]
    /// keeps the sweep as the reference with a `1e-4` tolerance: a local
    /// residual does not bound fast math's accumulated error. A grid of
    /// the wrong dimensionality or shape is `false` on both tiers.
    fn verdict(&self, grid: &GridResult) -> bool {
        let kernel = self.request.kernel;
        match (self.request.tier, &self.compiled, grid) {
            (KernelTier::Bitwise, CompiledWorkload::Dim3(c), GridResult::Dim3(g)) => {
                with_kernel3!(kernel, |k| satisfies_recurrence3d(k, c.decomp(), g))
            }
            (KernelTier::Bitwise, CompiledWorkload::Dim2(c), GridResult::Dim2(g)) => {
                with_kernel2!(kernel, |k| satisfies_recurrence2d(k, c.decomp(), g))
            }
            (KernelTier::Fast, CompiledWorkload::Dim3(c), GridResult::Dim3(g)) => {
                let d = c.decomp();
                (g.nx(), g.ny(), g.nz()) == (d.nx, d.ny, d.nz)
                    && g.max_abs_diff(&with_kernel3!(kernel, |k| {
                        run_seq3d(k, d.nx, d.ny, d.nz, d.boundary)
                    })) <= FAST_TOLERANCE
            }
            (KernelTier::Fast, CompiledWorkload::Dim2(c), GridResult::Dim2(g)) => {
                let d = c.decomp();
                (g.nx(), g.ny()) == (d.nx, d.ny)
                    && g.max_abs_diff(&with_kernel2!(kernel, |k| {
                        run_seq2d(k, d.nx, d.ny, d.boundary)
                    })) <= FAST_TOLERANCE
            }
            _ => false,
        }
    }

    fn outcome(
        &self,
        grid: GridResult,
        elapsed: Duration,
        faults: Vec<FaultStats>,
        opts: ExecOptions,
    ) -> ExecOutcome {
        ExecOutcome {
            verified: opts.verify.then(|| self.verdict(&grid)),
            cells_per_sec: self.cells() as f64 / elapsed.as_secs_f64().max(1e-12),
            grid,
            elapsed,
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;

    const TIERS: [KernelTier; 2] = [KernelTier::Bitwise, KernelTier::Fast];

    fn artifact3(tier: KernelTier) -> PlanArtifact {
        compile(&PlanRequest::grid3(4, 4, 32, 2, 2).with_v(8).with_tier(tier)).expect("compiles")
    }

    fn artifact2(tier: KernelTier) -> PlanArtifact {
        compile(&PlanRequest::strip2(24, 8, 2).with_v(6).with_tier(tier)).expect("compiles")
    }

    fn executed(a: &PlanArtifact) -> GridResult {
        let out = a.execute(ExecOptions { verify: true }).expect("runs");
        assert_eq!(out.verified, Some(true));
        out.grid
    }

    #[test]
    fn corrupted_grid_fails_on_both_tiers() {
        for tier in TIERS {
            let a = artifact3(tier);
            let good = executed(&a).dim3().expect("3-D").clone();
            for (i, j, k) in [(0, 0, 0), (1, 2, 17), (3, 3, 31)] {
                for bad in [good.get(i, j, k) + 1.0, f32::NAN] {
                    let mut g = good.clone();
                    g.set(i as usize, j as usize, k as usize, bad);
                    assert!(
                        !a.verdict(&GridResult::Dim3(g)),
                        "{tier:?} ({i},{j},{k}) = {bad}"
                    );
                }
            }

            let a = artifact2(tier);
            let good = executed(&a).dim2().expect("2-D").clone();
            for (i, j) in [(0, 0), (11, 5), (23, 7)] {
                for bad in [good.get(i, j) + 1.0, f32::NAN] {
                    let mut g = good.clone();
                    g.set(i as usize, j as usize, bad);
                    assert!(
                        !a.verdict(&GridResult::Dim2(g)),
                        "{tier:?} ({i},{j}) = {bad}"
                    );
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_is_false_not_a_panic() {
        for tier in TIERS {
            let a = artifact3(tier);
            for g in [
                Grid3D::new(4, 4, 31, 0.0, 1.0),
                Grid3D::new(4, 2, 32, 0.0, 1.0),
                Grid3D::new(1, 1, 1, 0.0, 1.0),
            ] {
                assert!(!a.verdict(&GridResult::Dim3(g)), "{tier:?}");
            }
            assert!(!a.verdict(&GridResult::Dim2(Grid2D::new(4, 4, 0.0, 1.0))));

            let a = artifact2(tier);
            assert!(!a.verdict(&GridResult::Dim2(Grid2D::new(24, 4, 0.0, 1.0))));
            assert!(!a.verdict(&GridResult::Dim3(Grid3D::new(24, 8, 1, 0.0, 1.0))));
        }
    }
}
