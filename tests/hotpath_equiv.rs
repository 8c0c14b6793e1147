//! Hot-path equivalence suite: every performance switch must be
//! **semantics-neutral**. The pooled transaction slab and the cross-run
//! arena may only change wall-clock — a run's
//! [`ssd_readretry::sim::metrics::SimReport`] must be bit-identical with any
//! combination of them on or off, across workload families, replay modes,
//! and queue depths.

use ssd_readretry::prelude::*;
use ssd_readretry::sim::replay::ReplayMode as Mode;

fn base_cfg() -> SsdConfig {
    SsdConfig::scaled_for_tests().with_seed(0xE9_BEEF)
}

fn workloads() -> Vec<Trace> {
    vec![
        MsrcWorkload::Mds1.synthesize(300, 11),
        YcsbWorkload::C.synthesize(300, 11),
    ]
}

fn modes() -> Vec<Mode> {
    vec![Mode::OpenLoop, Mode::closed_loop(1), Mode::closed_loop(16)]
}

/// Runs every (workload, mode) cell under two configs and asserts equality.
fn assert_equivalent(reference: &SsdConfig, variant: &SsdConfig, what: &str) {
    let rpt = ReadTimingParamTable::default();
    let point = OperatingPoint::new(2000.0, 6.0);
    for mechanism in [Mechanism::Baseline, Mechanism::PnAr2] {
        for trace in workloads() {
            for mode in modes() {
                let a = run_one_with_mode(reference, mechanism, point, &trace, &rpt, mode);
                let b = run_one_with_mode(variant, mechanism, point, &trace, &rpt, mode);
                assert_eq!(
                    a,
                    b,
                    "{what} changed the report: {} on {} under {:?}",
                    mechanism.name(),
                    trace.name,
                    mode
                );
            }
        }
    }
}

#[test]
fn txn_slab_reuse_is_bit_neutral_across_msrc_ycsb_and_queue_depths() {
    let pooled = base_cfg();
    let mut fresh = base_cfg();
    fresh.hotpath.txn_slab_reuse = false;
    assert_equivalent(&pooled, &fresh, "transaction slab reuse");
}

#[test]
fn all_hotpath_switches_off_matches_all_on() {
    let fast = base_cfg();
    let mut slow = base_cfg();
    slow.hotpath.txn_slab_reuse = false;
    assert_equivalent(&fast, &slow, "hot-path switches");
}

#[test]
fn arena_reuse_across_cells_matches_fresh_construction() {
    // One arena carried across different traces, footprints, mechanisms and
    // operating points — exactly what a matrix worker does — must produce
    // the same reports as building a fresh simulator per cell.
    let rpt = ReadTimingParamTable::default();
    let mut arena = SimArena::new();
    let cells: Vec<(Trace, Mechanism, OperatingPoint, Mode)> = vec![
        (
            MsrcWorkload::Mds1.synthesize(250, 5),
            Mechanism::Baseline,
            OperatingPoint::new(2000.0, 12.0),
            Mode::OpenLoop,
        ),
        (
            YcsbWorkload::C.synthesize(180, 5),
            Mechanism::PnAr2,
            OperatingPoint::new(1000.0, 6.0),
            Mode::closed_loop(8),
        ),
        (
            MsrcWorkload::Stg0.synthesize(220, 6),
            Mechanism::Pr2,
            OperatingPoint::new(2000.0, 6.0),
            Mode::open_loop_rate(2.0),
        ),
    ];
    for (trace, mechanism, point, mode) in &cells {
        let base =
            base_cfg().with_condition(ssd_readretry::flash::calibration::OperatingCondition::new(
                point.pec,
                point.retention_months,
                30.0,
            ));
        let pooled = Ssd::run_pooled(
            &mut arena,
            base.clone(),
            mechanism.make_controller(&rpt),
            trace.footprint_pages,
            &trace.requests,
            *mode,
        )
        .expect("valid configuration");
        let fresh = Ssd::new(base, mechanism.make_controller(&rpt), trace.footprint_pages)
            .expect("valid configuration")
            .run_with(&trace.requests, *mode);
        assert_eq!(
            pooled,
            fresh,
            "arena run diverged for {} on {}",
            mechanism.name(),
            trace.name
        );
    }
}

#[test]
fn matrix_runner_matches_per_cell_fresh_runs() {
    // The matrix runner's shared-arena, shared-Arc-config path must report
    // exactly what independent run_one calls report.
    let base = base_cfg();
    let traces = vec![
        (MsrcWorkload::Mds1.synthesize(200, 3), true),
        (YcsbWorkload::C.synthesize(150, 3), true),
    ];
    let points = [
        OperatingPoint::new(1000.0, 6.0),
        OperatingPoint::new(2000.0, 12.0),
    ];
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2, Mechanism::NoRR];
    let cells = run_matrix(&base, &traces, &points, &mechanisms);
    let rpt = ReadTimingParamTable::default();
    for c in &cells {
        let (trace, _) = traces
            .iter()
            .find(|(t, _)| t.name == c.workload)
            .expect("cell names a known trace");
        let mechanism = mechanisms
            .iter()
            .copied()
            .find(|m| m.name() == c.mechanism)
            .expect("cell names a known mechanism");
        let report = run_one(&base, mechanism, c.point, trace, &rpt);
        assert_eq!(c.avg_response_us, report.avg_response_us());
        assert_eq!(c.read_latency, report.read_latency);
        assert_eq!(c.events, report.events_processed);
        assert!(c.events > 0, "a simulated cell must process events");
    }
}

#[test]
fn single_queue_rr_front_end_is_bit_identical_to_plain_replay() {
    // The multi-queue front end degenerates at N = 1: one round-robin queue
    // with no admission window must replay exactly like the plain
    // single-generator path — same events, same latencies, same report,
    // bit for bit — for every replay mode.
    let rpt = ReadTimingParamTable::default();
    let base = base_cfg().with_condition(
        ssd_readretry::flash::calibration::OperatingCondition::new(2000.0, 6.0, 30.0),
    );
    let modes = vec![
        Mode::OpenLoop,
        Mode::open_loop_rate(2.0),
        Mode::closed_loop(1),
        Mode::closed_loop(16),
    ];
    for trace in workloads() {
        for &mode in &modes {
            let plain = Ssd::new(
                base.clone(),
                Mechanism::PnAr2.make_controller(&rpt),
                trace.footprint_pages,
            )
            .expect("valid configuration")
            .run_with(&trace.requests, mode);
            let queued = Ssd::new(
                base.clone(),
                Mechanism::PnAr2.make_controller(&rpt),
                trace.footprint_pages,
            )
            .expect("valid configuration")
            .run_with_queues(&trace.requests, &HostQueueConfig::single(mode));
            assert_eq!(
                plain, queued,
                "single-queue front end diverged on {} under {:?}",
                trace.name, mode
            );
            // The lone per-queue entry mirrors the aggregate classes.
            assert_eq!(queued.per_queue.len(), 1);
            assert_eq!(queued.per_queue[0].reads, queued.read_latency);
            assert_eq!(queued.per_queue[0].writes, queued.write_latency);
            assert_eq!(queued.per_queue[0].completed, queued.requests_completed);
        }
    }
}

#[test]
fn hotpath_switches_are_bit_neutral_under_multi_queue_wrr() {
    // Transaction-slab pooling must stay semantics-neutral when requests arrive through the windowed WRR
    // front end (submission-queue waits, arbitration, per-queue metrics).
    let rpt = ReadTimingParamTable::default();
    let front = HostQueueConfig::uniform(2, Mode::closed_loop(8))
        .with_arb(ssd_readretry::sim::config::ArbPolicy::WeightedRoundRobin)
        .with_weights(&[3, 1])
        .with_window(8);
    let mut slow = base_cfg();
    slow.hotpath.txn_slab_reuse = false;
    for trace in workloads() {
        let run = |cfg: &SsdConfig| {
            let cfg = cfg.clone().with_condition(
                ssd_readretry::flash::calibration::OperatingCondition::new(2000.0, 6.0, 30.0),
            );
            Ssd::new(
                cfg,
                Mechanism::PnAr2.make_controller(&rpt),
                trace.footprint_pages,
            )
            .expect("valid configuration")
            .run_with_queues(&trace.requests, &front)
        };
        let fast_report = run(&base_cfg());
        let slow_report = run(&slow);
        assert_eq!(
            fast_report, slow_report,
            "hot-path switches changed a multi-queue report on {}",
            trace.name
        );
        assert_eq!(fast_report.per_queue.len(), 2);
    }
}

#[test]
fn explicit_greedy_gc_policy_is_bit_identical_to_the_default() {
    // The GC-policy subsystem must be invisible until a non-default policy
    // is chosen: a config that sets `GcPolicy::Greedy` explicitly replays
    // exactly like one that never mentions it — the in-test proxy for the
    // CI stdout diff pinning today's default output.
    let implicit = base_cfg();
    assert_eq!(implicit.gc_policy, GcPolicy::Greedy);
    let explicit = base_cfg().with_gc_policy(GcPolicy::Greedy);
    assert_equivalent(&implicit, &explicit, "explicit Greedy GC policy");
}

#[test]
fn hotpath_switches_are_bit_neutral_under_every_gc_policy() {
    // The hot-path contract extends to the GC-policy subsystem:
    // transaction pooling may not perturb a run under any policy, including on a GC-heavy workload where the policies actually
    // make decisions.
    let rpt = ReadTimingParamTable::default();
    let policies = [
        GcPolicy::ReadPreempt { budget: 2 },
        GcPolicy::WindowedTokens {
            tokens: 1,
            window_us: 5_000,
        },
        GcPolicy::QueueShield { queue: 0 },
    ];
    // Small blocks so the write-heavy trace keeps GC running.
    let gc_heavy = |policy: GcPolicy, hotpath_on: bool| {
        let mut cfg = base_cfg().with_gc_policy(policy);
        cfg.chip.blocks_per_plane = 16;
        cfg.chip.pages_per_block = 12;
        cfg.hotpath.txn_slab_reuse = hotpath_on;
        let footprint = cfg.max_lpns();
        // The shared GC-stress generator — the same trace `repro
        // --gc-stress` and `tests/gc_policy.rs` run.
        let trace = ssd_readretry::workloads::synth::gc_stress_trace(footprint, 2_000).requests;
        let front = HostQueueConfig::uniform(2, Mode::closed_loop(16))
            .with_arb(ssd_readretry::sim::config::ArbPolicy::WeightedRoundRobin)
            .with_weights(&[2, 1])
            .with_window(16);
        Ssd::new(cfg, Mechanism::PnAr2.make_controller(&rpt), footprint)
            .expect("valid configuration")
            .run_with_queues(&trace, &front)
    };
    for policy in policies {
        let fast = gc_heavy(policy, true);
        let slow = gc_heavy(policy, false);
        assert_eq!(
            fast, slow,
            "hot-path switches changed a report under {policy:?}"
        );
        assert!(fast.gc_collections > 0, "{policy:?} run must exercise GC");
    }
}

#[test]
fn warm_started_qd_sweep_is_bit_identical_to_the_cold_start() {
    // The warm-start contract: forking a preconditioned device image across
    // sweep cells (`--from-image`) may only change wall-clock — the cells
    // must match the cold re-preconditioning path bit for bit, serial and
    // work-stealing alike.
    let base = base_cfg();
    let traces = workloads();
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let setup = QueueSetup::single();
    let depths = [1u32, 8];
    let bank = ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages))
        .expect("valid configuration");
    let cold = run_qd_sweep_queued(&base, &traces, point, &depths, &mechanisms, &setup, 1);
    for jobs in [1, 2] {
        let warm = run_qd_sweep_queued_from(
            &base,
            &traces,
            point,
            &depths,
            &mechanisms,
            &setup,
            jobs,
            &bank,
        )
        .expect("bank covers the sweep");
        assert_eq!(
            cold, warm,
            "warm-started QD sweep diverged at jobs = {jobs}"
        );
    }
}

#[test]
fn warm_started_rate_sweep_is_bit_identical_to_the_cold_start() {
    let base = base_cfg();
    let traces = workloads();
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let setup = QueueSetup::single();
    let rates = [1.0, 2.0];
    let bank = ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages))
        .expect("valid configuration");
    let cold = run_rate_sweep_queued(&base, &traces, point, &rates, &mechanisms, &setup, 1);
    for jobs in [1, 2] {
        let warm = run_rate_sweep_queued_from(
            &base,
            &traces,
            point,
            &rates,
            &mechanisms,
            &setup,
            jobs,
            &bank,
        )
        .expect("bank covers the sweep");
        assert_eq!(
            cold, warm,
            "warm-started rate sweep diverged at jobs = {jobs}"
        );
    }
}

#[test]
fn warm_started_matrix_is_bit_identical_to_the_cold_start() {
    let base = base_cfg();
    let traces = vec![
        (MsrcWorkload::Mds1.synthesize(200, 3), true),
        (YcsbWorkload::C.synthesize(150, 3), true),
    ];
    let points = [
        OperatingPoint::new(1000.0, 6.0),
        OperatingPoint::new(2000.0, 12.0),
    ];
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2, Mechanism::NoRR];
    let bank = ImageBank::preconditioned(&base, traces.iter().map(|(t, _)| t.footprint_pages))
        .expect("valid configuration");
    let cold = run_matrix_parallel(&base, &traces, &points, &mechanisms, 1);
    for jobs in [1, 2] {
        let warm = run_matrix_parallel_from(&base, &traces, &points, &mechanisms, jobs, &bank)
            .expect("bank covers the matrix");
        assert_eq!(cold, warm, "warm-started matrix diverged at jobs = {jobs}");
    }
}

#[test]
fn warm_started_gc_stress_multi_queue_sweep_matches_the_cold_start() {
    // The acceptance case of the device-image work: the GC-stress sweep
    // under a 2-queue WRR front end, forked from an aged image, must match
    // the cold path while actually exercising garbage collection.
    let mut base = base_cfg().with_gc_policy(GcPolicy::ReadPreempt { budget: 2 });
    base.chip.blocks_per_plane = 16;
    base.chip.pages_per_block = 12;
    let trace = ssd_readretry::workloads::synth::gc_stress_trace(base.max_lpns(), 2_000);
    let traces = vec![trace];
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let setup = QueueSetup {
        queues: 2,
        arb: ssd_readretry::sim::config::ArbPolicy::WeightedRoundRobin,
        burst: 1,
        weights: Some(vec![2, 1]),
        window: None,
    };
    let bank = ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages))
        .expect("valid configuration");
    let cold = run_qd_sweep_queued(&base, &traces, point, &[16], &mechanisms, &setup, 1);
    for jobs in [1, 2] {
        let warm = run_qd_sweep_queued_from(
            &base,
            &traces,
            point,
            &[16],
            &mechanisms,
            &setup,
            jobs,
            &bank,
        )
        .expect("bank covers the sweep");
        assert_eq!(
            cold, warm,
            "warm-started GC-stress sweep diverged at jobs = {jobs}"
        );
    }
    assert!(
        cold.iter().all(|c| c.events > 0),
        "stress cells must simulate work"
    );
}

#[test]
fn mismatched_banks_are_rejected_with_a_typed_error() {
    // A bank built under different model inputs (seed) or lacking a
    // footprint must be refused up front — never silently replayed into
    // different results.
    let base = base_cfg();
    let traces = workloads();
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechanisms = [Mechanism::Baseline];
    let setup = QueueSetup::single();
    let wrong_seed = ImageBank::preconditioned(
        &base.clone().with_seed(0xD1FF),
        traces.iter().map(|t| t.footprint_pages),
    )
    .expect("valid configuration");
    assert!(run_qd_sweep_queued_from(
        &base,
        &traces,
        point,
        &[4],
        &mechanisms,
        &setup,
        1,
        &wrong_seed
    )
    .is_err());
    let missing_footprint =
        ImageBank::preconditioned(&base, [traces[0].footprint_pages + 1]).expect("valid");
    assert!(run_qd_sweep_queued_from(
        &base,
        &traces,
        point,
        &[4],
        &mechanisms,
        &setup,
        1,
        &missing_footprint
    )
    .is_err());
}

#[test]
fn single_device_array_runners_delegate_bit_identically() {
    // The array-layer gate: `--devices 1` must route through the exact
    // pre-array code path. The `run_*_array_from` runners with a
    // single-device setup return the same cells, bit for bit, as the
    // single-device runners they wrap — across the matrix and both load
    // sweeps, at every worker count.
    let base = base_cfg();
    let traces = workloads();
    let matrix_traces: Vec<(Trace, bool)> = traces.iter().map(|t| (t.clone(), true)).collect();
    let point = OperatingPoint::new(2000.0, 6.0);
    let points = [point];
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let setup = QueueSetup::single();
    let depths = [1u32, 8];
    let rates = [1.0, 2.0];
    let bank = ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages))
        .expect("valid configuration");
    let single = ArraySetup::single();
    assert!(!single.is_array());
    for jobs in [1usize, 2] {
        let matrix =
            run_matrix_parallel_from(&base, &matrix_traces, &points, &mechanisms, jobs, &bank)
                .expect("bank covers the matrix");
        let matrix_arr = run_matrix_array_from(
            &base,
            &matrix_traces,
            &points,
            &mechanisms,
            jobs,
            single,
            &bank,
        )
        .expect("bank covers the matrix");
        assert_eq!(
            matrix, matrix_arr,
            "single-device array matrix diverged at jobs={jobs}"
        );
        let qd = run_qd_sweep_queued_from(
            &base,
            &traces,
            point,
            &depths,
            &mechanisms,
            &setup,
            jobs,
            &bank,
        )
        .expect("bank covers the sweep");
        let qd_arr = run_qd_sweep_array_from(
            &base,
            &traces,
            point,
            &depths,
            &mechanisms,
            &setup,
            jobs,
            single,
            &bank,
        )
        .expect("bank covers the sweep");
        assert_eq!(
            qd, qd_arr,
            "single-device array QD sweep diverged at jobs={jobs}"
        );
        assert!(qd_arr.iter().all(|c| c.array.is_none()));
        let rate = run_rate_sweep_queued_from(
            &base,
            &traces,
            point,
            &rates,
            &mechanisms,
            &setup,
            jobs,
            &bank,
        )
        .expect("bank covers the sweep");
        let rate_arr = run_rate_sweep_array_from(
            &base,
            &traces,
            point,
            &rates,
            &mechanisms,
            &setup,
            jobs,
            single,
            &bank,
        )
        .expect("bank covers the sweep");
        assert_eq!(
            rate, rate_arr,
            "single-device array rate sweep diverged at jobs={jobs}"
        );
    }
}

#[test]
fn events_processed_is_deterministic_and_nonzero() {
    let rpt = ReadTimingParamTable::default();
    let trace = MsrcWorkload::Mds1.synthesize(150, 2);
    let point = OperatingPoint::new(2000.0, 6.0);
    let a = run_one(&base_cfg(), Mechanism::Baseline, point, &trace, &rpt);
    let b = run_one(&base_cfg(), Mechanism::Baseline, point, &trace, &rpt);
    assert_eq!(a.events_processed, b.events_processed);
    // Every request needs at least an arrival event plus flash work.
    assert!(a.events_processed > a.requests_completed);
}
