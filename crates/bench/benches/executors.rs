//! Criterion benchmarks of the real threaded executors: blocking vs
//! overlapping wall-clock time on scaled-down instances of the paper's
//! workload, with injected wire latency; plus the cost of verifying an
//! executor's output grid.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use msgpass::thread_backend::LatencyModel;
use stencil::dist2d::{run_example1_dist, Decomp2D};
use stencil::dist3d::{run_paper3d_dist, Decomp3D, ExecMode};

fn bench_dist3d(c: &mut Criterion) {
    let d = Decomp3D {
        nx: 8,
        ny: 8,
        nz: 1024,
        pi: 2,
        pj: 2,
        v: 64,
        boundary: 1.0,
    };
    let lat = LatencyModel {
        startup_us: 200.0,
        per_byte_us: 0.02,
    };
    let mut g = c.benchmark_group("dist3d_8x8x1024_4ranks");
    g.sample_size(10);
    g.bench_function("blocking", |b| {
        b.iter(|| black_box(run_paper3d_dist(d, lat, ExecMode::Blocking).unwrap().1))
    });
    g.bench_function("overlapping", |b| {
        b.iter(|| black_box(run_paper3d_dist(d, lat, ExecMode::Overlapping).unwrap().1))
    });
    g.finish();
}

fn bench_dist2d(c: &mut Criterion) {
    let d = Decomp2D {
        nx: 2048,
        ny: 16,
        ranks: 4,
        v: 128,
        boundary: 1.0,
    };
    let lat = LatencyModel {
        startup_us: 150.0,
        per_byte_us: 0.02,
    };
    let mut g = c.benchmark_group("dist2d_2048x16_4ranks");
    g.sample_size(10);
    g.bench_function("blocking", |b| {
        b.iter(|| black_box(run_example1_dist(d, lat, ExecMode::Blocking).unwrap().1))
    });
    g.bench_function("overlapping", |b| {
        b.iter(|| black_box(run_example1_dist(d, lat, ExecMode::Overlapping).unwrap().1))
    });
    g.finish();
}

fn bench_recording(c: &mut Criterion) {
    use msgpass::recording::record_sequential;
    use stencil::dist3d::run_rank3d;
    use stencil::kernel::Paper3D;
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 256,
        pi: 2,
        pj: 2,
        v: 32,
        boundary: 1.0,
    };
    let mut g = c.benchmark_group("trace_driven");
    g.sample_size(10);
    g.bench_function("record_4ranks_8steps", |b| {
        b.iter(|| {
            black_box(record_sequential::<f32, _, _>(4, |comm| {
                run_rank3d(comm, Paper3D, d, ExecMode::Overlapping)
            }))
        })
    });
    g.finish();
}

/// Verification of one output grid on the repository benchmark's
/// warm-execute shape (`grid3 16×16×16384 relax3d`, boundary 1): the
/// bitwise tier's cell-by-cell recurrence check against re-running the
/// sequential sweep and diffing, which it replaced (and which the fast
/// tier still pays).
fn bench_verify(c: &mut Criterion) {
    use stencil::kernel::Relax3D;
    use stencil::seq::run_seq3d;
    use stencil::verify::satisfies_recurrence3d;
    let d = Decomp3D {
        nx: 16,
        ny: 16,
        nz: 16384,
        pi: 2,
        pj: 1,
        v: 256,
        boundary: 1.0,
    };
    let k = Relax3D::default();
    let grid = run_seq3d(k, d.nx, d.ny, d.nz, d.boundary);
    let mut g = c.benchmark_group("verify");
    g.sample_size(10);
    g.throughput(Throughput::Elements((d.nx * d.ny * d.nz) as u64));
    g.bench_function("recurrence_check", |b| {
        b.iter(|| assert!(satisfies_recurrence3d(k, black_box(d), black_box(&grid))))
    });
    g.bench_function("seq_sweep_and_diff", |b| {
        b.iter(|| {
            let reference = run_seq3d(k, d.nx, d.ny, d.nz, black_box(d.boundary));
            assert_eq!(black_box(&grid).max_abs_diff(&reference), 0.0)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dist3d,
    bench_dist2d,
    bench_recording,
    bench_verify
);
criterion_main!(benches);
