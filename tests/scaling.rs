//! Scaling checks, in two senses. Geometry scaling: the evaluation uses a
//! capacity-scaled SSD (64 blocks/plane instead of the paper's 1,888) for
//! test-budget reasons; the response-time *ratios* between mechanisms must
//! be insensitive to that scaling (DESIGN.md §7). Thread scaling: the
//! device-worker budget of array runs must grow monotonically with the
//! device count, stay within it, and never oversubscribe the host when
//! `--jobs` cell workers each drive their own array.

use ssd_readretry::prelude::*;

fn ratio_at(blocks_per_plane: u32) -> (f64, f64) {
    let mut cfg = SsdConfig::scaled_for_tests();
    cfg.chip.blocks_per_plane = blocks_per_plane;
    let point = OperatingPoint::new(2000.0, 6.0);
    let rpt = ReadTimingParamTable::default();
    let trace = MsrcWorkload::Usr1.synthesize(1_500, 17);
    let baseline = run_one(&cfg, Mechanism::Baseline, point, &trace, &rpt);
    let pr2 = run_one(&cfg, Mechanism::Pr2, point, &trace, &rpt);
    let pnar2 = run_one(&cfg, Mechanism::PnAr2, point, &trace, &rpt);
    (
        pr2.avg_response_us() / baseline.avg_response_us(),
        pnar2.avg_response_us() / baseline.avg_response_us(),
    )
}

#[test]
fn normalized_response_times_are_geometry_insensitive() {
    let (pr2_small, pnar2_small) = ratio_at(32);
    let (pr2_large, pnar2_large) = ratio_at(128);
    assert!(
        (pr2_small - pr2_large).abs() < 0.05,
        "PR2 ratio drifts with geometry: {pr2_small} vs {pr2_large}"
    );
    assert!(
        (pnar2_small - pnar2_large).abs() < 0.05,
        "PnAR2 ratio drifts with geometry: {pnar2_small} vs {pnar2_large}"
    );
}

#[test]
fn worker_budget_is_monotone_clamped_and_never_oversubscribes() {
    // The budget that turns an array's devices into threads: monotone in
    // the device count, never above it, never below one, and divided (not
    // multiplied) across `--jobs` cell workers, so the threads of all cells
    // together stay within the host's parallelism.
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut prev = 0usize;
    for devices in 0u32..=8 {
        let w = worker_budget(devices, 1);
        assert!(w >= 1, "budget must always allow inline execution");
        assert!(
            w <= devices.max(1) as usize,
            "budget exceeds the device count: {w} > {devices}"
        );
        assert!(w >= prev, "budget must be monotone in devices");
        prev = w;
    }
    for jobs in 1usize..=2 * avail + 1 {
        for devices in [1u32, 2, 4, 16] {
            let w = worker_budget(devices, jobs);
            assert!(
                jobs * w <= avail.max(jobs),
                "{jobs} jobs x {w} device workers oversubscribe {avail} CPUs"
            );
            assert!(
                w <= worker_budget(devices, 1),
                "more concurrent jobs must never widen the per-run budget"
            );
        }
    }
}
