//! Property-based tests for distributions, samplers, and schedules.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use capmaestro_units::Seconds;
use capmaestro_workload::{DiscreteDistribution, NormalSampler, Schedule, WebServerModel};
use capmaestro_units::Ratio;

proptest! {
    /// Samples always come from the support.
    #[test]
    fn samples_in_support(
        bins in prop::collection::vec((0.0f64..1.0, 0.01f64..10.0), 1..10),
        seed in 0u64..1000,
    ) {
        let d = DiscreteDistribution::new(bins.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let v = d.sample(&mut rng);
            prop_assert!(d.values().contains(&v));
        }
    }

    /// Probabilities normalize regardless of input weights.
    #[test]
    fn probabilities_normalize(
        bins in prop::collection::vec((0.0f64..1.0, 0.01f64..100.0), 1..30),
    ) {
        let d = DiscreteDistribution::new(bins).unwrap();
        let total: f64 = d.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!((d.expect(|_| 1.0) - 1.0).abs() < 1e-9);
    }

    /// Clamped normal samples always respect the bounds.
    #[test]
    fn clamped_normal_in_bounds(
        mean in -1.0f64..2.0,
        std in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let sampler = NormalSampler::new(mean, std);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let x = sampler.sample_clamped(&mut rng, 0.0, 1.0);
            prop_assert!((0.0..=1.0).contains(&x));
        }
    }

    /// A schedule's value is always one of its configured values, and the
    /// final value wins for large t.
    #[test]
    fn schedule_values_from_configuration(
        initial in 0.0f64..100.0,
        steps in prop::collection::vec(0.0f64..100.0, 0..5),
    ) {
        let mut schedule = Schedule::new(initial);
        let mut values = vec![initial];
        for (i, v) in steps.iter().enumerate() {
            schedule = schedule.then_at(Seconds::new((i as f64 + 1.0) * 10.0), *v);
            values.push(*v);
        }
        for t in [0.0, 5.0, 15.0, 25.0, 35.0, 45.0, 1e6] {
            let v = schedule.value_at(Seconds::new(t));
            prop_assert!(values.contains(&v));
        }
        prop_assert_eq!(schedule.value_at(Seconds::new(1e9)), *values.last().unwrap());
    }

    /// Web-server throughput scales linearly with performance and latency
    /// inversely; their product is constant.
    #[test]
    fn webserver_throughput_latency_product(perf in 0.05f64..1.0) {
        let m = WebServerModel::new(1000.0, 5.0);
        let p = m.at_performance(Ratio::new(perf));
        let product = p.throughput_qps * p.latency_ms;
        prop_assert!((product - 1000.0 * 5.0).abs() < 1e-6);
    }
}
