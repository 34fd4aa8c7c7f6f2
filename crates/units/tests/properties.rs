//! Property-based tests for quantity arithmetic.

use proptest::prelude::*;

use capmaestro_units::{Ratio, Watts};

fn finite_watts() -> impl Strategy<Value = f64> {
    -1e9f64..1e9
}

proptest! {
    #[test]
    fn addition_commutes(a in finite_watts(), b in finite_watts()) {
        prop_assert_eq!(Watts::new(a) + Watts::new(b), Watts::new(b) + Watts::new(a));
    }

    #[test]
    fn add_then_subtract_roundtrips(a in finite_watts(), b in finite_watts()) {
        let result = (Watts::new(a) + Watts::new(b)) - Watts::new(b);
        prop_assert!(result.approx_eq(Watts::new(a), Watts::new(1e-3f64.max(a.abs() * 1e-12))));
    }

    #[test]
    fn saturating_sub_never_negative(a in finite_watts(), b in finite_watts()) {
        prop_assert!(Watts::new(a).saturating_sub(Watts::new(b)) >= Watts::ZERO);
    }

    #[test]
    fn clamp_respects_bounds(v in finite_watts(), lo in -1e6f64..1e6, width in 0.0f64..1e6) {
        let hi = lo + width;
        let clamped = Watts::new(v).clamp(Watts::new(lo), Watts::new(hi));
        prop_assert!(clamped >= Watts::new(lo));
        prop_assert!(clamped <= Watts::new(hi));
        if v >= lo && v <= hi {
            prop_assert_eq!(clamped, Watts::new(v));
        }
    }

    #[test]
    fn min_max_are_selections(a in finite_watts(), b in finite_watts()) {
        let (wa, wb) = (Watts::new(a), Watts::new(b));
        let min = wa.min(wb);
        let max = wa.max(wb);
        prop_assert!(min == wa || min == wb);
        prop_assert!(max == wa || max == wb);
        prop_assert!(min <= max);
    }

    #[test]
    fn kilowatt_roundtrip(kw in -1e6f64..1e6) {
        let w = Watts::from_kilowatts(kw);
        prop_assert!((w.as_kilowatts() - kw).abs() < 1e-9 * kw.abs().max(1.0));
    }

    #[test]
    fn ratio_complement_involutes(r in 0.0f64..1.0) {
        let ratio = Ratio::new(r);
        let back = ratio.complement().complement();
        prop_assert!((back.as_f64() - r).abs() < 1e-12);
    }

    #[test]
    fn clamped_ratio_is_fraction(r in -10.0f64..10.0) {
        let c = Ratio::new_clamped(r);
        prop_assert!(c >= Ratio::ZERO && c <= Ratio::ONE);
    }

    #[test]
    fn scaling_watts_by_fraction_shrinks(w in 0.0f64..1e6, r in 0.0f64..1.0) {
        let scaled = Watts::new(w) * Ratio::new(r);
        prop_assert!(scaled >= Watts::ZERO);
        prop_assert!(scaled <= Watts::new(w));
    }

    #[test]
    fn sum_matches_fold(values in prop::collection::vec(0.0f64..1e5, 0..20)) {
        let sum: Watts = values.iter().map(|&v| Watts::new(v)).sum();
        let fold = values.iter().fold(0.0, |acc, v| acc + v);
        prop_assert!((sum.as_f64() - fold).abs() < 1e-6);
    }
}
