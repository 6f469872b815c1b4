//! The three workloads. Each is a closed loop with one client in this
//! process: the next request goes out only when the previous reply is
//! in hand and checked. Service workloads run `PlanService` with one
//! worker; every world has two ranks.

use crate::check::Tally;
use crate::churn::Churn;
use crate::layers::{self, Entry};
use crate::stats;
use crate::trace::Tracer;
use msgpass::comm::Communicator;
use msgpass::thread_backend::{build_world_with, run_world, LatencyModel, WorldConfig};
use msgpass::transport::TransportKind;
use planc::{
    Compiler, ExecOptions, ExecOutcome, JobRequest, JobResponse, PlanArtifact, PlanRequest,
    PlanService, ServiceConfig, ServiceMetrics, WorldPool,
};
use std::time::{Duration, Instant};
use sweep::config::{generate, SweepSpec};
use sweep::output::to_csv;
use sweep::run::{run_sweep, RowStatus, SweepRow};
use tiling_core::machine::MachineParams;

/// The `warm-execute` request: 4.19 M cells, 64 steps, slot transport.
pub const WARM_LINE: &str =
    "workload=grid3 nx=16 ny=16 nz=16384 pi=2 pj=1 kernel=relax3d v=256 transport=shared-slots";
/// The `latency-overlap` request: auto V under the paper's cluster model.
pub const LATENCY_LINE: &str =
    "workload=grid3 nx=8 ny=8 nz=65536 pi=2 pj=1 kernel=paper3d mode=overlap v=auto";
/// The largest `plan-churn` execute shape: its scaling pair and probe plan.
pub const CHURN_SHAPE: &str =
    "workload=grid3 nx=6 ny=6 nz=2048 pi=2 pj=1 kernel=relax3d v=64 transport=shared-slots";

/// Set-ups per run of the service workloads; `setup_s` is their median.
const SETUPS: usize = 15;
/// Set-ups per run of `plan-churn`, whose set-up takes about a millisecond.
const CHEAP_SETUPS: usize = 101;
/// Share of a run's seconds given to the paired scaling trials.
const PAIRED_SHARE: f64 = 0.2;
/// Windows per timed loop.
const WINDOWS: u32 = 16;

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Compute-bound: one repeated execute line through the service.
    WarmExecute,
    /// Communication-bound: fresh worlds under the paper's latency.
    LatencyOverlap,
    /// Compile-bound: a seeded stream of mostly new keys.
    PlanChurn,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 3] = [
        Workload::WarmExecute,
        Workload::LatencyOverlap,
        Workload::PlanChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmExecute => "warm-execute",
            Workload::LatencyOverlap => "latency-overlap",
            Workload::PlanChurn => "plan-churn",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The most threads a timed phase keeps runnable at once, on every
/// workload: the two rank threads of a world (the client and the service
/// worker are blocked while the ranks run).
pub const BUSY_THREADS: usize = 2;

/// What an untraced pass measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up, s.
    pub setup_s: Vec<f64>,
    /// Each successful request, submit to checked reply, ms.
    pub request_ms: Vec<f64>,
    /// Each completion (the parallel region), ms.
    pub completion_ms: Vec<f64>,
    /// The closed-form prediction beside each completion, ms.
    pub predicted_ms: Vec<f64>,
    /// Requests completed in the timed loop.
    pub jobs: u64,
    /// Length of the timed loop, s.
    pub timed_s: f64,
    /// The timed loop's windows.
    pub windows: Vec<stats::Window>,
    /// Median paired `t(1)/(2·t(2))` and the number of pairs.
    pub scaling: Option<(f64, usize)>,
    /// Requests that repeat an earlier request of the run.
    pub repeated_keys: u64,
    /// Checks made and failed.
    pub tally: Tally,
    /// The service's counters after the loop.
    pub service: Option<ServiceMetrics>,
    /// Peak resident set after the loop and its checks (before the
    /// paired trials), MiB.
    pub peak_rss_mb: Option<f64>,
}

/// Run `w`'s untraced pass: set-ups, a closed loop of `secs` seconds
/// (less the paired trials' share when `paired` is set), the once-per-run
/// bitwise check, and the paired scaling trials.
pub fn measure(w: Workload, seed: u64, secs: f64, paired: bool) -> Measured {
    let share = if paired { PAIRED_SHARE } else { 0.0 };
    let loop_for = Duration::from_secs_f64(secs * (1.0 - share));
    let pair_for = Duration::from_secs_f64(secs * share);
    let mut m = Measured::default();
    match w {
        Workload::WarmExecute => warm_execute(&mut m, loop_for),
        Workload::LatencyOverlap => latency_overlap(&mut m, loop_for),
        Workload::PlanChurn => plan_churn(&mut m, seed, loop_for),
    }
    m.peak_rss_mb = crate::host::peak_rss_mb();
    if paired {
        let r = match w {
            Workload::WarmExecute => pooled_scaling(WARM_LINE, pair_for),
            Workload::LatencyOverlap => {
                let cfg = latency_cfg();
                scaling(LATENCY_LINE, pair_for, |a| {
                    a.execute_with(&cfg, ExecOptions::default())
                })
            }
            Workload::PlanChurn => pooled_scaling(CHURN_SHAPE, pair_for),
        };
        match r {
            Ok(s) => {
                m.tally.passed(2 * s.1 as u64);
                m.scaling = Some(s);
            }
            Err(e) => m.tally.error(format!("paired scaling trial: {e}")),
        }
    }
    m
}

/// The world `latency-overlap` executes on: the paper's cluster wire.
pub fn latency_cfg() -> WorldConfig {
    WorldConfig::new(LatencyModel::from_machine(&MachineParams::paper_cluster()))
}

fn service() -> PlanService {
    PlanService::start(ServiceConfig {
        workers: 1,
        queue_cap: 4,
        cache_cap: 32,
    })
}

fn compile_line(line: &str) -> Result<PlanArtifact, String> {
    let req = PlanRequest::parse_kv(line)?;
    planc::compile(&req).map_err(|e| e.to_string())
}

/// One service request as `paper serve` handles a wire line: parse,
/// submit, wait. Records the latency of a checked success; returns the
/// reply.
fn serve(m: &mut Measured, svc: &PlanService, line: &str, execute: bool) -> Option<JobResponse> {
    let start = Instant::now();
    let reply = PlanRequest::parse_kv(line).and_then(|req| {
        let job = if execute {
            JobRequest::Execute(req, ExecOptions { verify: true })
        } else {
            JobRequest::Compile(req)
        };
        svc.try_submit(job)
            .and_then(|ticket| ticket.wait())
            .map_err(|e| e.to_string())
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            m.tally.error(format!("{line}: {e}"));
            return None;
        }
    };
    let ok = match &reply {
        JobResponse::Executed(art, out) => {
            m.completion_ms.push(out.elapsed.as_secs_f64() * 1e3);
            if let Some(p) = art.predicted_us() {
                m.predicted_ms.push(p / 1e3);
            }
            m.tally.verified(out.verified, line)
        }
        JobResponse::Compiled(_) => m.tally.check(true, String::new),
    };
    ok.then(|| {
        m.request_ms.push(ms);
        reply
    })
}

/// Start a service and warm it with one execute job, `setups` times;
/// returns the last service.
fn serviced_setup(m: &mut Measured, warm_line: &str, setups: usize) -> PlanService {
    let mut last = None;
    for _ in 0..setups {
        drop(last.take());
        let start = Instant::now();
        let svc = service();
        let before = m.request_ms.len();
        serve(m, &svc, warm_line, true);
        m.setup_s.push(start.elapsed().as_secs_f64());
        // The warm-up is set-up, not a timed request.
        m.request_ms.truncate(before);
        m.completion_ms.clear();
        m.predicted_ms.clear();
        last = Some(svc);
    }
    last.expect("at least one set-up")
}

fn timed_loop(m: &mut Measured, dur: Duration, mut one: impl FnMut(&mut Measured)) {
    let start = Instant::now();
    let mut windows = stats::Windows::start(dur / WINDOWS);
    loop {
        one(m);
        m.jobs += 1;
        windows.mark(m.jobs, m.request_ms.len(), m.completion_ms.len());
        if start.elapsed() >= dur {
            break;
        }
    }
    m.timed_s = start.elapsed().as_secs_f64();
    m.windows = windows.closed;
}

fn warm_execute(m: &mut Measured, dur: Duration) {
    let svc = serviced_setup(m, WARM_LINE, SETUPS);
    let mut last = None;
    timed_loop(m, dur, |m| {
        if let Some(r) = serve(m, &svc, WARM_LINE, true) {
            last = Some(r);
        }
    });
    m.repeated_keys = m.jobs;
    m.service = Some(svc.metrics());
    check_last(m, last);
}

/// Compare one returned grid per run with the benchmark's own call of
/// the sequential reference.
fn check_last(m: &mut Measured, last: Option<JobResponse>) {
    match last {
        Some(JobResponse::Executed(art, out)) => {
            let want = layers::reference(&art);
            layers::check_grid(&mut m.tally, &out.grid, &want, "bitwise check");
        }
        _ => m.tally.error("no execute reply to check bitwise"),
    }
}

fn latency_overlap(m: &mut Measured, dur: Duration) {
    let cfg = latency_cfg();
    let mut art = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let a = match compile_line(LATENCY_LINE) {
            Ok(a) => a,
            Err(e) => return m.tally.error(format!("{LATENCY_LINE}: {e}")),
        };
        match a.execute_with(&cfg, ExecOptions { verify: true }) {
            Ok(out) => {
                m.tally.verified(out.verified, "latency-overlap warm-up");
            }
            Err(e) => m.tally.error(format!("latency-overlap warm-up: {e}")),
        }
        m.setup_s.push(start.elapsed().as_secs_f64());
        art = Some(a);
    }
    let art = art.expect("SETUPS > 0");
    let predicted_ms = art.predicted_us().map(|p| p / 1e3);
    let mut last = None;
    timed_loop(m, dur, |m| {
        let start = Instant::now();
        match art.execute_with(&cfg, ExecOptions { verify: true }) {
            Ok(out) => {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if m.tally.verified(out.verified, LATENCY_LINE) {
                    m.request_ms.push(ms);
                    m.completion_ms.push(out.elapsed.as_secs_f64() * 1e3);
                    m.predicted_ms.extend(predicted_ms);
                }
                last = Some(out);
            }
            Err(e) => m.tally.error(format!("{LATENCY_LINE}: {e}")),
        }
    });
    m.repeated_keys = m.jobs;
    match last {
        Some(out) => {
            let want = layers::reference(&art);
            layers::check_grid(&mut m.tally, &out.grid, &want, "bitwise check");
        }
        None => m.tally.error("no execute reply to check bitwise"),
    }
}

fn plan_churn(m: &mut Measured, seed: u64, dur: Duration) {
    let svc = serviced_setup(m, CHURN_SHAPE, CHEAP_SETUPS);
    let mut stream = Churn::new(seed);
    let mut last = None;
    timed_loop(m, dur, |m| {
        let line = stream.next_line();
        m.repeated_keys += line.repeat as u64;
        if let Some(r @ JobResponse::Executed(..)) = serve(m, &svc, &line.text, line.execute) {
            last = Some(r);
        }
    });
    m.service = Some(svc.metrics());
    check_last(m, last);
}

fn check_rows(tally: &mut Tally, rows: &[SweepRow], panics: usize, errors: usize) -> bool {
    let bad = rows.iter().find(|r| r.status != RowStatus::Ok);
    tally.check(panics == 0 && errors == 0 && bad.is_none(), || match bad {
        Some(r) => format!(
            "sweep config {}: {} {}",
            r.config.id,
            r.status.name(),
            r.detail
        ),
        None => format!("sweep: {panics} panics, {errors} errors"),
    })
}

/// `t(1 rank) / (2 · t(2 ranks))` from ABAB pairs of executions of
/// `line` (2 ranks) and its `pi=1` twin by `exec`. Every trial's grid is
/// compared bit for bit, after its timed region, with the sequential
/// reference, computed once; a trial that differs is an error.
fn scaling<E: std::fmt::Display>(
    line: &str,
    budget: Duration,
    exec: impl Fn(&PlanArtifact) -> Result<ExecOutcome, E>,
) -> Result<(f64, usize), String> {
    let two = compile_line(line)?;
    let one = compile_line(&line.replace("pi=2", "pi=1"))?;
    let want = layers::reference(&two);
    let run = |a: &PlanArtifact| {
        let out = exec(a).map_err(|e| e.to_string())?;
        let mut tally = Tally::default();
        if layers::check_grid(&mut tally, &out.grid, &want, "scaling trial") {
            Ok(out.elapsed.as_secs_f64())
        } else {
            Err(tally.errors.concat())
        }
    };
    run(&one)?;
    run(&two)?;
    stats::paired(budget, 5, || run(&one), || run(&two), |a, b| a / (2.0 * b))
}

/// [`scaling`] on warm worlds from one pool, as the service runs them.
fn pooled_scaling(line: &str, budget: Duration) -> Result<(f64, usize), String> {
    let pool = WorldPool::default();
    scaling(line, budget, |a| {
        a.execute_pooled(&pool, ExecOptions::default())
    })
}

/// The traced pass: the workload's own requests through
/// [`layers::traced_line`] until `dur` has passed, then the fixed
/// probe. Returns the checks made.
pub fn traced(w: Workload, seed: u64, dur: Duration, t: &mut Tracer) -> (Tally, ServiceMetrics) {
    let mut tally = Tally::default();
    let compiler = Compiler::new(32);
    let start = Instant::now();
    let mut first = true;
    let mut each = |t: &mut Tracer, tally: &mut Tally, line: &str, execute: bool, entry: Entry| {
        layers::traced_line(t, tally, &compiler, line, execute, entry, first && execute);
        first &= !execute;
    };
    match w {
        Workload::WarmExecute => {
            let svc = service();
            while tally.attempted == 0 || start.elapsed() < dur {
                each(t, &mut tally, WARM_LINE, true, Entry::Service(&svc));
            }
        }
        Workload::LatencyOverlap => {
            let cfg = latency_cfg();
            while tally.attempted == 0 || start.elapsed() < dur {
                each(t, &mut tally, LATENCY_LINE, true, Entry::Direct(&cfg));
            }
        }
        Workload::PlanChurn => {
            let svc = service();
            let mut stream = Churn::new(seed);
            while tally.attempted == 0 || start.elapsed() < dur {
                let line = stream.next_line();
                each(
                    t,
                    &mut tally,
                    &line.text,
                    line.execute,
                    Entry::Service(&svc),
                );
            }
        }
    }
    let probe = probe(w, seed, t, &mut tally);
    (tally, probe)
}

/// The sweep's layers with spans: `generate`, then each config on a
/// one-config `run_sweep` slice (`cluster_sim.simulate`). Every row must
/// be Ok, and a second run of all the configs must give the same CSV.
fn traced_sweep(t: &mut Tracer, tally: &mut Tally, spec: &SweepSpec) {
    t.next_request();
    let (configs, _) = t.span("sweep.generate", |_| generate(spec));
    let mut rows = Vec::with_capacity(configs.len());
    let mut ok = 0usize;
    for c in &configs {
        t.next_request();
        let (out, _) = t.span("cluster_sim.simulate", |_| {
            run_sweep(std::slice::from_ref(c), 1)
        });
        if check_rows(tally, &out.rows, out.panics, out.errors) {
            ok += 1;
        }
        for m in out.rows.iter().filter_map(|r| r.metrics) {
            if m.pred_in_model && m.predicted_us > 0.0 {
                t.sample("tiling_core.pred_ratio", m.makespan_us / m.predicted_us);
            }
        }
        rows.extend(out.rows);
    }
    t.sample("sweep.ok_ratio", ok as f64 / configs.len().max(1) as f64);
    let again = run_sweep(&configs, 1);
    tally.check(to_csv(&again.rows) == to_csv(&rows), || {
        "sweep CSV differs between two runs of the same configs".into()
    });
}

/// A fixed set of calls that reaches every layer: a short request
/// stream through its own service, slot-against-mpsc ping-pong pairs
/// with the workload's face size, steady-state pool allocations of the
/// workload's plan, and a small sweep. Metrics fall back to these only
/// where the workload's own traffic never reached the layer. Returns
/// the probe service's counters.
fn probe(w: Workload, seed: u64, t: &mut Tracer, tally: &mut Tally) -> ServiceMetrics {
    t.set_probe(true);
    let svc = service();
    let compiler = Compiler::new(32);
    let mut stream = Churn::new(seed.wrapping_add(1));
    for _ in 0..PROBE_LINES {
        let line = stream.next_line();
        let entry = Entry::Service(&svc);
        layers::traced_line(t, tally, &compiler, &line.text, line.execute, entry, false);
    }
    let plan_line = match w {
        Workload::WarmExecute => WARM_LINE,
        Workload::LatencyOverlap => LATENCY_LINE,
        Workload::PlanChurn => CHURN_SHAPE,
    };
    match compile_line(plan_line) {
        Ok(art) => {
            let c = art.compiled3().expect("3-D probe plan");
            let d = c.decomp();
            pingpong(t, tally, d.by() * art.v().min(d.nz));
            pool_allocs(t, tally, &art);
        }
        Err(e) => tally.error(format!("{plan_line}: {e}")),
    }
    let small = SweepSpec {
        seed,
        random_configs: 16,
        quick: true,
        figures: false,
    };
    traced_sweep(t, tally, &small);
    t.set_probe(false);
    svc.metrics()
}

/// Wire lines in the probe's request stream.
const PROBE_LINES: usize = 24;
/// Round trips per ping-pong trial.
const ROUNDS: usize = 200;
/// Slot/mpsc trial pairs.
const PINGPONG_PAIRS: usize = 8;

/// Two ranks bounce a `floats`-long face `ROUNDS` times; ABAB pairs of
/// the slot transport and mpsc. Samples µs per round trip.
fn pingpong(t: &mut Tracer, tally: &mut Tally, floats: usize) {
    let trial = |t: &mut Tracer, kind: TransportKind, name: &'static str| {
        let cfg = WorldConfig::new(LatencyModel::zero()).with_transport(kind);
        let mut world = build_world_with::<f32>(2, &cfg);
        t.next_request();
        let ((results, elapsed), _) = t.span(name, |_| {
            run_world(&mut world, false, |comm| {
                let mut buf = vec![comm.rank() as f32; floats];
                let peer = 1 - comm.rank();
                for round in 0..ROUNDS as u64 {
                    if comm.rank() == 0 {
                        comm.send_from(peer, round, &buf);
                        comm.recv_into(peer, round, &mut buf);
                    } else {
                        comm.recv_into(peer, round, &mut buf);
                        comm.send_from(peer, round, &buf);
                    }
                }
                buf[floats - 1]
            })
        });
        let ok = results.iter().all(|r| matches!(r, Ok(v) if *v == 0.0));
        (ok, elapsed.as_secs_f64() * 1e6 / ROUNDS as f64)
    };
    for _ in 0..PINGPONG_PAIRS {
        for (kind, span, metric) in [
            (
                TransportKind::shared_slots(),
                "msgpass.slot_pingpong",
                "msgpass.slot_pingpong_us",
            ),
            (
                TransportKind::Mpsc,
                "msgpass.mpsc_pingpong",
                "msgpass.mpsc_pingpong_us",
            ),
        ] {
            let (ok, us) = trial(t, kind, span);
            if tally.check(ok, || format!("{span}: payload came back changed")) {
                t.sample(metric, us);
            }
        }
    }
}

/// Fresh payload allocations per pipeline step once a world is warm:
/// the difference of the pool counters across a second run.
fn pool_allocs(t: &mut Tracer, tally: &mut Tally, art: &PlanArtifact) {
    let c = art.compiled3().expect("3-D probe plan");
    let mut world = build_world_with::<f32>(art.ranks(), &art.world_config());
    let fresh = |w: &[msgpass::thread_backend::ThreadComm<f32>]| {
        w.iter().map(|c| c.pool_stats().fresh_allocs).sum::<u64>()
    };
    let mut runs = [0u64; 2];
    for r in &mut runs {
        if let Err(e) = layers::run_on_world(art, c, &mut world) {
            return tally.error(format!("pool allocation probe: {e}"));
        }
        *r = fresh(&world);
    }
    tally.check(true, String::new);
    t.sample(
        "msgpass.pool_allocs_per_step",
        (runs[1] - runs[0]) as f64 / art.steps() as f64,
    );
}
