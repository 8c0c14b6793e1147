//! Property-based tests for the flash model: calibration monotonicity, the
//! error model's plateau structure, ONFI round-trips, and the V_TH model.

use proptest::prelude::*;
use rr_flash::calibration::{Calibration, OperatingCondition, ECC_CAPABILITY_PER_KIB};
use rr_flash::error_model::{round_u32, ErrorModel, PageId};
use rr_flash::geometry::{ChipGeometry, PageAddr};
use rr_flash::onfi;
use rr_flash::timing::SensePhases;
use rr_flash::vth::VthModel;

proptest! {
    #[test]
    fn m_err_monotone_in_all_three_axes(
        pec in 0f64..1900.0,
        months in 0f64..11.0,
        temp in 31.0f64..85.0,
    ) {
        let cal = Calibration::asplos21();
        let here = cal.m_err(OperatingCondition::new(pec, months, temp));
        let more_pec = cal.m_err(OperatingCondition::new(pec + 100.0, months, temp));
        let more_ret = cal.m_err(OperatingCondition::new(pec, months + 1.0, temp));
        let colder = cal.m_err(OperatingCondition::new(pec, months, temp - 1.0));
        prop_assert!(more_pec >= here);
        prop_assert!(more_ret >= here);
        prop_assert!(colder >= here);
    }

    #[test]
    fn delta_m_err_superadditive_in_pre_disch(
        pec in 0f64..2000.0,
        months in 0f64..12.0,
        pre in 0.01f64..0.5,
        disch in 0.01f64..0.35,
    ) {
        let cal = Calibration::asplos21();
        let cond = OperatingCondition::new(pec, months, 85.0);
        let joint = cal.delta_m_err(cond, pre, 0.0, disch);
        let separate =
            cal.delta_m_err(cond, pre, 0.0, 0.0) + cal.delta_m_err(cond, 0.0, 0.0, disch);
        prop_assert!(joint >= separate - 1e-9, "joint {joint} < sum {separate}");
    }

    #[test]
    fn required_steps_within_table_and_plateau_holds(
        block in any::<u64>(),
        page in 0u32..1152,
        pec in prop::sample::select(vec![0.0, 500.0, 1000.0, 1500.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 1.0, 3.0, 6.0, 9.0, 12.0]),
    ) {
        let model = ErrorModel::new(77);
        let cond = OperatingCondition::new(pec, months, 30.0);
        let id = PageId::new(block, page);
        let n = model.required_step_index(id, cond);
        prop_assert!(n <= 40, "steps within the retry table");
        let default = SensePhases::table1();
        // All steps strictly before N fail; N succeeds.
        if n > 0 {
            prop_assert!(!model.read_succeeds(id, cond, n - 1, &default));
        }
        prop_assert!(model.read_succeeds(id, cond, n, &default));
    }

    #[test]
    fn rpt_style_reduction_never_breaks_final_step(
        block in any::<u64>(),
        page in 0u32..1152,
        pec in prop::sample::select(vec![0.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 3.0, 6.0, 12.0]),
        temp in prop::sample::select(vec![30.0, 55.0, 85.0]),
    ) {
        // 40 % is the Fig. 11 worst-case-safe reduction; it must hold for
        // every page at every condition (that is the whole AR² contract).
        let model = ErrorModel::new(99);
        let cond = OperatingCondition::new(pec, months, temp);
        let id = PageId::new(block, page);
        let n = model.required_step_index(id, cond);
        let reduced = SensePhases::table1().with_reduction(0.40, 0.0, 0.0);
        prop_assert!(model.read_succeeds(id, cond, n, &reduced));
    }

    #[test]
    fn onfi_read_encoding_roundtrips(
        die in 0u32..4,
        plane in 0u32..2,
        block in 0u32..1888,
        page in 0u32..576,
        cache in any::<bool>(),
    ) {
        let addr = PageAddr::new(die, plane, block, page);
        let seq = if cache {
            onfi::encode_cache_read(addr, 576)
        } else {
            onfi::encode_page_read(addr, 576)
        };
        let row_expect = page + 576 * (block * 2 + plane);
        match onfi::decode(&seq).expect("well-formed sequence") {
            onfi::DecodedCommand::PageRead { row } => {
                prop_assert!(!cache);
                prop_assert_eq!(row, row_expect);
            }
            onfi::DecodedCommand::CacheRead { row } => {
                prop_assert!(cache);
                prop_assert_eq!(row, row_expect);
            }
            other => prop_assert!(false, "unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn page_keys_injective_within_chip(
        a in (0u32..2, 0u32..2, 0u32..8, 0u32..24),
        b in (0u32..2, 0u32..2, 0u32..8, 0u32..24),
    ) {
        let g = ChipGeometry::tiny();
        let pa = PageAddr::new(a.0, a.1, a.2, a.3);
        let pb = PageAddr::new(b.0, b.1, b.2, b.3);
        if pa != pb {
            prop_assert_ne!(pa.page_key(&g), pb.page_key(&g));
        } else {
            prop_assert_eq!(pa.page_key(&g), pb.page_key(&g));
        }
    }

    #[test]
    fn vth_errors_decrease_toward_optimum(
        pec in 0f64..2000.0,
        months in 0.5f64..12.0,
        frac in 0.05f64..0.95,
    ) {
        let m = VthModel::aged(pec, months);
        let defaults = VthModel::default_vrefs();
        let opt_offset = m.optimal_vref(4) - defaults[4];
        let part_way = m.errors_per_kib_at(4, defaults[4] + opt_offset * frac);
        let at_default = m.errors_per_kib_at(4, defaults[4]);
        let at_optimum = m.errors_per_kib_at(4, defaults[4] + opt_offset);
        prop_assert!(part_way <= at_default + 1e-9);
        prop_assert!(at_optimum <= part_way + 1e-9);
    }

    #[test]
    fn final_errors_never_exceed_capability_at_default_timing(
        block in any::<u64>(),
        page in 0u32..1152,
        pec in 0f64..2000.0,
        months in 0f64..12.0,
        temp in prop::sample::select(vec![30.0, 55.0, 85.0]),
    ) {
        // The invariant behind "read-retry eventually succeeds": every page's
        // final-step error count fits the ECC capability with default timing.
        let model = ErrorModel::new(123);
        let cond = OperatingCondition::new(pec, months, temp);
        let e = model.final_step_errors(PageId::new(block, page), cond);
        prop_assert!(e <= ECC_CAPABILITY_PER_KIB);
    }

    #[test]
    fn round_u32_matches_libm_round_on_any_bit_pattern(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(round_u32(x), x.round() as u32, "x = {:e}", x);
    }

    #[test]
    fn round_u32_matches_libm_round_across_the_u32_range(x in -10.0f64..4.3e9) {
        prop_assert_eq!(round_u32(x), x.round() as u32, "x = {}", x);
    }

    #[test]
    fn errors_within_is_errors_with_profile_up_to_the_capability(
        block in any::<u64>(),
        page in 0u32..1152,
        step in 0u32..45,
        pec in prop::sample::select(vec![0.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 3.0, 6.0, 12.0]),
        pre in prop::sample::select(vec![0.0, 0.3, 0.4, 0.54, 0.58]),
        outlier_rate in prop::sample::select(vec![0.0, 0.5, 1.0]),
    ) {
        let model = ErrorModel::new(0x0E77).with_outlier_rate(outlier_rate);
        let cond = OperatingCondition::new(pec, months, 30.0);
        let id = PageId::new(block, page);
        let profile = model.page_profile(id, cond);
        let phases = SensePhases::table1().with_reduction(pre, 0.0, 0.0);
        let penalty = model.timing_penalty(id, cond, &phases);
        let exact = model.errors_with_profile(id, &profile, step, penalty);
        // The fixed capabilities, plus the tightest ones around the count.
        for capability in [0, 40, 72, 150, 1000, exact.saturating_sub(1), exact] {
            prop_assert_eq!(
                model.errors_within(id, &profile, step, penalty, capability),
                (exact <= capability).then_some(exact),
                "step {} of required {}, capability {}",
                step,
                profile.required_step,
                capability
            );
        }
    }
}

/// The edge cases of `round_u32`: signed zeros, halves (which round away
/// from zero), the largest double below one half, negatives, the `u32`
/// boundary, and the non-finite values.
#[test]
fn round_u32_matches_libm_round_on_edge_cases() {
    let edges = [
        0.0,
        -0.0,
        0.5,
        1.5,
        2.5,
        -0.5,
        -1.5,
        0.49999999999999994,
        -0.49999999999999994,
        72.5,
        -3.7,
        4294967294.5,
        4294967295.0,
        4294967295.49,
        4294967295.5,
        4294967296.0,
        1e300,
        -1e300,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    for x in edges {
        assert_eq!(round_u32(x), x.round() as u32, "x = {x:e}");
    }
}
