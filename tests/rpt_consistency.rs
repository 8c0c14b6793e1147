//! The RPT built analytically from the calibration must agree with the RPT
//! built the paper's way — by profiling a (virtual) chip population on the
//! characterization platform (Fig. 11 → §6.2's offline profiling).

use ssd_readretry::charact::figures::max_safe_reduction;
use ssd_readretry::charact::platform::{PageSweep, TestPlatform};
use ssd_readretry::core::rpt::ReadTimingParamTable;
use ssd_readretry::flash::calibration::Calibration;
use ssd_readretry::flash::calibration::{ECC_CAPABILITY_PER_KIB, RPT_SAFETY_MARGIN_BITS};
use ssd_readretry::flash::timing::SensePhases;
use std::cell::RefCell;

#[test]
fn measured_profile_matches_analytic_rpt() {
    let analytic = ReadTimingParamTable::from_calibration(&Calibration::asplos21());

    let mut platform = TestPlatform::new(24, 31);
    platform.set_temperature(85.0);
    let pages = platform.sample_pages(256);
    // `build` asks about one bucket's whole reduction search in a row, so
    // one page sweep per (pec, months) bucket serves all of it.
    let bucket: RefCell<Option<((f64, f64), PageSweep)>> = RefCell::new(None);
    let measured = ReadTimingParamTable::build(|pec, months, reduction| {
        let mut bucket = bucket.borrow_mut();
        if bucket.as_ref().map(|(key, _)| *key) != Some((pec, months)) {
            *bucket = Some(((pec, months), platform.page_sweep(&pages, pec, months)));
        }
        let (_, sweep) = bucket.as_ref().expect("just filled");
        let phases = SensePhases::table1().with_reduction(reduction, 0.0, 0.0);
        sweep.m_err(&phases) + RPT_SAFETY_MARGIN_BITS <= ECC_CAPABILITY_PER_KIB
    });

    for (a, m) in analytic.rows().iter().zip(measured.rows()) {
        assert_eq!(a.pec_max, m.pec_max);
        assert_eq!(a.retention_months_max, m.retention_months_max);
        // The measured profile may differ by a search step or two because the
        // finite page sample does not always contain the population max.
        assert!(
            (a.pre_reduction - m.pre_reduction).abs() <= 0.04 + 1e-9,
            "bucket ({}, {}): analytic {:.2} vs measured {:.2}",
            a.pec_max,
            a.retention_months_max,
            a.pre_reduction,
            m.pre_reduction
        );
    }

    // Both tables must land in Fig. 11's 40–54 % band.
    for row in measured.rows() {
        assert!((0.38..=0.55).contains(&row.pre_reduction));
    }

    // And the measured profile tightens monotonically with wear.
    let first_ret_bucket = measured.rows()[0].retention_months_max;
    let col: Vec<f64> = measured
        .rows()
        .iter()
        .filter(|r| r.retention_months_max == first_ret_bucket)
        .map(|r| r.pre_reduction)
        .collect();
    for w in col.windows(2) {
        assert!(w[1] <= w[0] + 1e-9, "reduction must not grow with PEC");
    }

    let reduction_profiled = max_safe_reduction(&platform, &pages, 2000.0, 12.0).0;
    assert!(
        (0.38..=0.44).contains(&reduction_profiled),
        "worst bucket ≈ 40 %"
    );
}
