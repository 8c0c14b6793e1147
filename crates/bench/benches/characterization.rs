//! Benches for the characterization figures (`fig4b`, `fig5`, `fig7`,
//! `fig8`, `fig9`, `fig10`, `fig11`) and `table1`: each iteration regenerates
//! the figure's data series on a reduced chip population. `fig11` also runs
//! at paper scale (160 chips × 256 pages), the size `repro fig11` measures.

use criterion::{criterion_group, criterion_main, Criterion};
use rr_charact::figures;
use rr_charact::platform::TestPlatform;
use rr_core::rpt::ReadTimingParamTable;
use rr_flash::calibration::Calibration;
use rr_flash::geometry::PageKind;
use rr_flash::timing::NandTimings;
use std::hint::black_box;

const CHIPS: usize = 8;
const PAGES: usize = 64;
/// Pages sampled per chip by `repro` at paper scale.
const PAPER_PAGES: usize = 256;

fn table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1");
    g.bench_function("timing_model", |b| {
        b.iter(|| {
            let t = NandTimings::table1();
            let mut acc = 0u64;
            for kind in [PageKind::Lsb, PageKind::Csb, PageKind::Msb] {
                acc += t.t_r(black_box(kind)).as_ns();
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn fig4b(c: &mut Criterion) {
    let platform = TestPlatform::new(CHIPS, 1);
    let mut g = c.benchmark_group("fig4b");
    g.bench_function("rber_trajectories", |b| {
        b.iter(|| black_box(figures::fig4b(&platform, 2000.0, 12.0, &[16, 21], 3)))
    });
    g.finish();
}

fn fig5(c: &mut Criterion) {
    let platform = TestPlatform::new(CHIPS, 1);
    let mut g = c.benchmark_group("fig5");
    g.sample_size(20);
    g.bench_function("retry_step_map", |b| {
        b.iter(|| black_box(figures::fig5(&platform, PAGES)))
    });
    g.finish();
}

fn fig7(c: &mut Criterion) {
    let mut platform = TestPlatform::new(CHIPS, 1);
    let mut g = c.benchmark_group("fig7");
    g.sample_size(20);
    g.bench_function("m_err_map", |b| {
        b.iter(|| black_box(figures::fig7(&mut platform, PAGES)))
    });
    g.finish();
}

fn fig8(c: &mut Criterion) {
    let mut platform = TestPlatform::new(CHIPS, 1);
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    g.bench_function("individual_timing_sweeps", |b| {
        b.iter(|| black_box(figures::fig8(&mut platform, PAGES / 2)))
    });
    g.finish();
}

fn fig9(c: &mut Criterion) {
    let mut platform = TestPlatform::new(CHIPS, 1);
    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    g.bench_function("joint_timing_sweep", |b| {
        b.iter(|| black_box(figures::fig9(&mut platform, PAGES / 2)))
    });
    g.finish();
}

fn fig10(c: &mut Criterion) {
    let mut platform = TestPlatform::new(CHIPS, 1);
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    g.bench_function("temperature_sweep", |b| {
        b.iter(|| black_box(figures::fig10(&mut platform, PAGES / 2)))
    });
    g.finish();
}

fn fig11(c: &mut Criterion) {
    let mut platform = TestPlatform::new(CHIPS, 1);
    let mut g = c.benchmark_group("fig11");
    g.sample_size(10);
    g.bench_function("safe_tpre_search", |b| {
        b.iter(|| black_box(figures::fig11(&mut platform, PAGES / 2)))
    });
    let mut paper = TestPlatform::paper_scale(1);
    g.bench_function("safe_tpre_search/paper_scale", |b| {
        b.iter(|| black_box(figures::fig11(&mut paper, PAPER_PAGES)))
    });
    g.bench_function("rpt_from_calibration", |b| {
        b.iter(|| {
            black_box(ReadTimingParamTable::from_calibration(
                &Calibration::asplos21(),
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, table1, fig4b, fig5, fig7, fig8, fig9, fig10, fig11);
criterion_main!(benches);
