//! # rr-bench — shared helpers for the Criterion benchmark harness
//!
//! The benches (in `benches/`) regenerate each paper table/figure at reduced
//! population/trace sizes and measure the wall-clock cost of doing so; the
//! full-size regeneration lives in the `repro` CLI. One bench group exists
//! per table/figure (`table1`, `table2`, `fig4b` … `fig15`) plus micro-benches
//! for the hot substrate paths.

use rr_core::experiment::{
    run_matrix_parallel, run_one, run_one_with_mode, MatrixCell, OperatingPoint,
};
use rr_core::rpt::ReadTimingParamTable;
use rr_sim::config::SsdConfig;
use rr_sim::metrics::SimReport;
use rr_sim::replay::ReplayMode;
use rr_workloads::msrc::MsrcWorkload;
use rr_workloads::trace::Trace;
use rr_workloads::ycsb::YcsbWorkload;

pub use rr_core::experiment::Mechanism;

/// The benchmark SSD configuration (scaled geometry, Table-1 latencies).
pub fn bench_config() -> SsdConfig {
    SsdConfig::scaled_for_tests().with_seed(0xBE_5EED)
}

/// The benchmark operating point: the (2K P/E, 6-month) condition §7.2
/// highlights.
pub fn bench_point() -> OperatingPoint {
    OperatingPoint::new(2000.0, 6.0)
}

/// Runs one mechanism over a trace at the benchmark point.
pub fn run_mechanism(mechanism: Mechanism, trace: &Trace) -> SimReport {
    let cfg = bench_config();
    let rpt = ReadTimingParamTable::default();
    run_one(&cfg, mechanism, bench_point(), trace, &rpt)
}

/// Runs one mechanism over a trace closed-loop at `queue_depth` outstanding
/// requests (the `sweep_qd` bench group's unit of work).
pub fn run_mechanism_closed_loop(
    mechanism: Mechanism,
    trace: &Trace,
    queue_depth: u32,
) -> SimReport {
    let cfg = bench_config();
    let rpt = ReadTimingParamTable::default();
    run_one_with_mode(
        &cfg,
        mechanism,
        bench_point(),
        trace,
        &rpt,
        ReplayMode::closed_loop(queue_depth),
    )
}

/// Runs one mechanism over a trace open-loop with arrivals compressed by
/// `rate` (the `sim_throughput` bench group's offered-load unit of work).
pub fn run_mechanism_rate(mechanism: Mechanism, trace: &Trace, rate: f64) -> SimReport {
    let cfg = bench_config();
    let rpt = ReadTimingParamTable::default();
    run_one_with_mode(
        &cfg,
        mechanism,
        bench_point(),
        trace,
        &rpt,
        ReplayMode::open_loop_rate(rate),
    )
}

/// A reduced Fig. 14-style workload set for the matrix-runner benches: four
/// traces (two MSRC, two YCSB) with their read-dominance tags.
pub fn matrix_traces(requests_per_trace: usize) -> Vec<(Trace, bool)> {
    vec![
        (MsrcWorkload::Mds1.synthesize(requests_per_trace, 11), true),
        (MsrcWorkload::Stg0.synthesize(requests_per_trace, 12), false),
        (YcsbWorkload::C.synthesize(requests_per_trace, 13), true),
        (YcsbWorkload::A.synthesize(requests_per_trace, 14), false),
    ]
}

/// Runs the Fig. 14 mechanism set over [`matrix_traces`] at two aged points
/// on `jobs` threads (`1` falls back to the serial path inside
/// [`run_matrix_parallel`]). Any `jobs` value returns bit-identical cells;
/// the benches compare their wall-clock.
pub fn run_bench_matrix(traces: &[(Trace, bool)], jobs: usize) -> Vec<MatrixCell> {
    let cfg = bench_config();
    let points = [
        OperatingPoint::new(2000.0, 6.0),
        OperatingPoint::new(2000.0, 12.0),
    ];
    run_matrix_parallel(&cfg, traces, &points, &Mechanism::FIG14, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_workloads::ycsb::YcsbWorkload;

    #[test]
    fn helpers_produce_valid_runs() {
        let trace = YcsbWorkload::C.synthesize(200, 1);
        let report = run_mechanism(Mechanism::PnAr2, &trace);
        assert_eq!(report.requests_completed, 200);
    }

    #[test]
    fn closed_loop_helper_reports_tails() {
        let trace = YcsbWorkload::C.synthesize(150, 1);
        let report = run_mechanism_closed_loop(Mechanism::Baseline, &trace, 8);
        assert_eq!(report.requests_completed, 150);
        assert!(report.read_latency.p999.is_some());
    }

    #[test]
    fn bench_matrix_parallel_matches_serial() {
        let traces = matrix_traces(120);
        assert_eq!(run_bench_matrix(&traces, 1), run_bench_matrix(&traces, 4));
    }
}
