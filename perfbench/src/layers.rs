//! Direct calls into each layer's public functions, for the traced
//! pass. One wire line becomes one request: `planc` parse and compile,
//! `tiling_core` nest parse and closed form, `analyzer` preflight, a
//! fresh `msgpass` world, the `stencil` run with a phase observer, the
//! sequential reference, and finally the public entry point the
//! untraced pass drives, so the entry point's cost beyond the summed
//! layer calls shows as overhead.

use crate::check::Tally;
use crate::trace::Tracer;
use msgpass::thread_backend::{build_world_with, LatencyModel, ThreadComm, WorldConfig};
use planc::{
    CompiledWorkload, Compiler, ExecOptions, GridResult, JobRequest, JobResponse, KernelName,
    PlanArtifact, PlanRequest, PlanService, Provenance, VChoice, WorkloadSpec,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use stencil::dist2d::Decomp2D;
use stencil::dist3d::Decomp3D;
use stencil::engine::{EngineError, ExecMode, Phase, StepObserver};
use stencil::grid::{Grid2D, Grid3D};
use stencil::kernel::{Example1, Fused3D, LongestPath3D, Paper3D, Relax3D, Smooth2D};
use stencil::plan::{self, Compiled3D};
use tiling_core::closed_form::{nonoverlap_optimal_v, overlap_optimal_v};
use tiling_core::dependence::DependenceSet;
use tiling_core::machine::KernelTier;
use tiling_core::space::IterationSpace;

/// Bind the 3-D kernel named by `$name` to `$k` and evaluate `$body`.
macro_rules! with_kernel3 {
    ($name:expr, $k:ident => $body:expr) => {
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
            k => unreachable!("2-D kernel {k:?} in a 3-D plan"),
        }
    };
}

fn seq3(kernel: KernelName, d: Decomp3D) -> Grid3D {
    with_kernel3!(kernel, k => stencil::seq::run_seq3d(k, d.nx, d.ny, d.nz, d.boundary))
}

fn seq2(kernel: KernelName, d: Decomp2D) -> Grid2D {
    match kernel {
        KernelName::Example1 => stencil::seq::run_seq2d(Example1, d.nx, d.ny, d.boundary),
        KernelName::Smooth2D => {
            stencil::seq::run_seq2d(Smooth2D::default(), d.nx, d.ny, d.boundary)
        }
        k => unreachable!("3-D kernel {k:?} in a 2-D plan"),
    }
}

/// The benchmark's own `stencil::seq` run of an artifact's grid.
pub fn reference(art: &PlanArtifact) -> GridResult {
    let kernel = art.request().kernel;
    match art.compiled() {
        CompiledWorkload::Dim3(c) => GridResult::Dim3(seq3(kernel, c.decomp())),
        CompiledWorkload::Dim2(c) => GridResult::Dim2(seq2(kernel, c.decomp())),
    }
}

/// Compare an execution's grid with the reference, bit for bit.
pub fn check_grid(tally: &mut Tally, got: &GridResult, want: &GridResult, what: &str) -> bool {
    match (got, want) {
        (GridResult::Dim3(g), GridResult::Dim3(w)) => tally.grid3(g, w, what),
        (GridResult::Dim2(g), GridResult::Dim2(w)) => tally.grid2(g, w, what),
        _ => tally.check(false, || {
            format!("{what}: grid rank does not match the plan")
        }),
    }
}

/// Run a warm world through the plan (pooled execution's path).
pub fn run_on_world(
    art: &PlanArtifact,
    c: &Compiled3D,
    world: &mut [ThreadComm<f32>],
) -> Result<(Grid3D, Duration), EngineError> {
    let tier: KernelTier = art.request().tier;
    with_kernel3!(art.request().kernel, k => plan::run3d_on_world(k, c, tier, world))
}

/// Per-rank phase times of one run, µs per pipeline step, split the
/// paper's way: A₁ = pack + post-send, A₂ = compute, A₃ = unpack +
/// post-receive, B = waits and blocking transfers.
#[derive(Debug)]
pub struct PhaseLog {
    /// A₁ per step.
    pub a1: Vec<f64>,
    /// A₂ per step.
    pub a2: Vec<f64>,
    /// A₃ per step.
    pub a3: Vec<f64>,
    /// B per step.
    pub b: Vec<f64>,
    /// Raw intervals, kept only when asked for (trace-file detail).
    pub intervals: Option<Vec<(&'static str, Instant, Instant)>>,
}

impl PhaseLog {
    fn new(steps: usize, keep: bool) -> Self {
        PhaseLog {
            a1: vec![0.0; steps],
            a2: vec![0.0; steps],
            a3: vec![0.0; steps],
            b: vec![0.0; steps],
            intervals: keep.then(|| Vec::with_capacity(steps * 12)),
        }
    }
}

impl StepObserver for PhaseLog {
    const ENABLED: bool = true;

    fn on_phase(&mut self, phase: Phase, start: Instant, end: Instant) {
        let us = (end - start).as_secs_f64() * 1e6;
        let (lane, name) = match phase {
            Phase::Pack { .. } | Phase::PostSend { .. } => (&mut self.a1, "stencil.a1_send"),
            Phase::Compute { .. } => (&mut self.a2, "stencil.a2_compute"),
            Phase::Unpack { .. } | Phase::PostRecv { .. } => (&mut self.a3, "stencil.a3_recv"),
            _ => (&mut self.b, "stencil.b_wait"),
        };
        if let Some(slot) = lane.get_mut(phase.step()) {
            *slot += us;
        }
        if let Some(iv) = &mut self.intervals {
            iv.push((name, start, end));
        }
    }
}

/// Execute a 3-D plan on a fresh world with a [`PhaseLog`] per rank.
pub fn run_observed(
    art: &PlanArtifact,
    c: &Compiled3D,
    cfg: &WorldConfig,
    keep_intervals: bool,
) -> Result<(Grid3D, Duration, Vec<PhaseLog>), EngineError> {
    let steps = c.decomp().steps();
    let make = |_: &ThreadComm<f32>| PhaseLog::new(steps, keep_intervals);
    with_kernel3!(art.request().kernel, k => {
        plan::run3d_observed_with(k, c, cfg, make).map(|(g, t, logs, _)| (g, t, logs))
    })
}

/// The closed-form optimum `V*` the pipeline's optimize stage derives
/// for this plan's shape, machine and mode.
pub fn v_star(art: &PlanArtifact) -> f64 {
    let machine = art.request().machine.params();
    let (space, deps, cross, dim) = match art.compiled() {
        CompiledWorkload::Dim3(c) => {
            let d = c.decomp();
            (
                IterationSpace::from_extents(&[d.nx as i64, d.ny as i64, d.nz as i64]),
                DependenceSet::paper_3d(),
                vec![d.bx() as i64, d.by() as i64],
                2,
            )
        }
        CompiledWorkload::Dim2(c) => {
            let d = c.decomp();
            (
                IterationSpace::from_extents(&[d.nx as i64, d.ny as i64]),
                DependenceSet::example_1(),
                vec![d.by() as i64],
                0,
            )
        }
    };
    let cf = match art.mode() {
        ExecMode::Overlapping => overlap_optimal_v(&space, &deps, &machine, &cross, dim),
        ExecMode::Blocking => nonoverlap_optimal_v(&space, &deps, &machine, &cross, dim),
    };
    cf.v_star
}

/// The public entry point a traced request ends with.
#[derive(Clone, Copy)]
pub enum Entry<'a> {
    /// A `PlanService` job, as `paper serve` submits it.
    Service(&'a PlanService),
    /// `PlanArtifact::execute_with` on this base world configuration,
    /// as `paper perf` and `paper tune` call it.
    Direct(&'a WorldConfig),
}

/// Drive one wire line through every layer with spans; see the module
/// docs. `keep_phases` also records each rank's phase intervals.
pub fn traced_line(
    t: &mut Tracer,
    tally: &mut Tally,
    compiler: &Compiler,
    line: &str,
    execute: bool,
    entry: Entry<'_>,
    keep_phases: bool,
) {
    t.next_request();
    t.span("request", |t| {
        let (req, parse_us) = t.span("planc.parse_kv", |_| PlanRequest::parse_kv(line));
        let req = match req {
            Ok(r) => r,
            Err(e) => return tally.error(format!("{line}: {e}")),
        };
        let start = Instant::now();
        let (art, prov) = compiler.compile_with_provenance(&req);
        let end = Instant::now();
        let name = match prov {
            Provenance::CacheHit => "planc.compile_hit",
            _ => "planc.compile_miss",
        };
        t.record(name, 0, start, end);
        let art = match art {
            Ok(a) => a,
            Err(e) => return tally.error(format!("{line}: {e}")),
        };
        if let WorkloadSpec::Source { text, .. } = &req.workload {
            t.span("tiling_core.parse_nest", |_| {
                black_box(tiling_core::parse::parse_loop_nest(text)).is_ok()
            });
        }
        if req.v == VChoice::Auto {
            t.span("tiling_core.v_star", |_| black_box(v_star(&art)));
        }
        let (report, _) = t.span("analyzer.preflight", |_| match art.compiled() {
            CompiledWorkload::Dim3(c) => stencil::preflight::check_plan3d(&c.decomp(), art.mode()),
            CompiledWorkload::Dim2(c) => stencil::preflight::check_plan2d(&c.decomp(), art.mode()),
        });
        match report {
            Ok(r) => {
                t.sample("analyzer.events", r.events as f64);
                t.sample("analyzer.messages", r.messages as f64);
            }
            Err(e) => return tally.error(format!("{line}: preflight: {e}")),
        }

        // The layers the entry point itself runs, summed for the overhead:
        // a service request parses and compiles its line before running it.
        let (base, mut direct_us) = match entry {
            Entry::Service(_) => (
                WorldConfig::new(LatencyModel::zero()),
                parse_us + (end - start).as_secs_f64() * 1e6,
            ),
            Entry::Direct(cfg) => (cfg.clone(), 0.0),
        };
        if execute {
            match layer_execute(t, tally, &art, &art.stamp(base), keep_phases, line) {
                Some(us) => direct_us += us,
                None => return,
            }
        }

        let (reply, entry_us) = t.span("planc.entry", |_| match entry {
            Entry::Service(svc) => {
                let req = PlanRequest::parse_kv(line).map_err(|e| e.to_string())?;
                let job = if execute {
                    JobRequest::Execute(req, ExecOptions { verify: true })
                } else {
                    JobRequest::Compile(req)
                };
                let reply = svc.try_submit(job).and_then(|tk| tk.wait());
                match reply.map_err(|e| e.to_string())? {
                    JobResponse::Executed(_, out) => Ok(out.verified),
                    JobResponse::Compiled(_) => Ok(None),
                }
            }
            Entry::Direct(cfg) => art
                .execute_with(cfg, ExecOptions { verify: true })
                .map(|out| out.verified)
                .map_err(|e| e.to_string()),
        });
        match reply {
            Ok(verified) if execute => {
                tally.verified(verified, line);
            }
            Ok(_) => {
                tally.check(true, String::new);
            }
            Err(e) => return tally.error(format!("{line}: {e}")),
        }
        t.sample("planc.service.overhead_us", entry_us - direct_us);
    });
}

/// The execute half of a traced request: world spawn, observed run and
/// sequential reference. Returns the µs of the run's parallel region
/// plus the reference, or `None` after counting a failure.
fn layer_execute(
    t: &mut Tracer,
    tally: &mut Tally,
    art: &PlanArtifact,
    cfg: &WorldConfig,
    keep_phases: bool,
    line: &str,
) -> Option<f64> {
    let ranks = art.ranks();
    t.span("msgpass.world_spawn", |_| {
        drop(black_box(build_world_with::<f32>(ranks, cfg)));
    });
    let (elapsed, grid) = match art.compiled() {
        CompiledWorkload::Dim3(c) => {
            let (run, _) = t.span("stencil.run", |t| {
                let run = run_observed(art, c, cfg, keep_phases);
                if let Ok((_, _, logs)) = &run {
                    for (rank, log) in logs.iter().enumerate() {
                        for &(name, s, e) in log.intervals.iter().flatten() {
                            t.record(name, rank + 1, s, e);
                        }
                    }
                }
                run
            });
            let (grid, elapsed, logs) = match run {
                Ok(r) => r,
                Err(e) => {
                    tally.error(format!("{line}: {e}"));
                    return None;
                }
            };
            let d = c.decomp();
            let rank_cells = (d.bx() * d.by() * d.nz) as f64;
            for log in &logs {
                for s in 0..log.a2.len() {
                    t.sample("stencil.a1_send_us", log.a1[s]);
                    t.sample("stencil.a2_compute_us", log.a2[s]);
                    t.sample("stencil.a3_recv_us", log.a3[s]);
                    t.sample("stencil.b_wait_us", log.b[s]);
                }
                let a2_s: f64 = log.a2.iter().sum::<f64>() / 1e6;
                t.sample("stencil.kernel_cells_per_s", rank_cells / a2_s);
            }
            (elapsed, GridResult::Dim3(grid))
        }
        CompiledWorkload::Dim2(_) => {
            let (run, _) = t.span("stencil.run", |_| {
                art.execute_with(cfg, ExecOptions::default())
            });
            match run {
                Ok(out) => (out.elapsed, out.grid),
                Err(e) => {
                    tally.error(format!("{line}: {e}"));
                    return None;
                }
            }
        }
    };
    if let Some(p) = art.predicted_us() {
        t.sample("tiling_core.pred_ratio", elapsed.as_secs_f64() * 1e6 / p);
    }
    let (want, seq_us) = t.span("stencil.seq", |_| reference(art));
    t.sample(
        "stencil.seq_cells_per_s",
        art.cells() as f64 / (seq_us / 1e6),
    );
    let same = check_grid(tally, &grid, &want, line);
    same.then_some(elapsed.as_secs_f64() * 1e6 + seq_us)
}
