//! Percentiles the way the ledger reports them: a median, plus the
//! highest percentile that still has at least ten samples beyond it —
//! a p99 quoted from 40 samples would be one observation, not a
//! percentile.

/// Tail percentiles the picker may choose from, highest first.
const TAIL_CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// Samples beyond a percentile for it to be reported.
const MIN_BEYOND: f64 = 10.0;

/// What [`pick`] reports for one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Picked {
    pub n: usize,
    pub p50: f64,
    /// `(q, value)` of the highest supportable tail percentile, or
    /// `None` when even p75 has fewer than ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

pub fn pick(samples: &[f64]) -> Picked {
    let s = sorted(samples);
    let tail = TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|q| s.len() as f64 * (1.0 - q) >= MIN_BEYOND)
        .map(|q| (q, percentile(&s, q)));
    Picked {
        n: s.len(),
        p50: percentile(&s, 0.5),
        tail,
    }
}

/// `name p50 … pNN … n=…`: the median and the highest percentile with
/// at least ten samples beyond it.
pub fn tail_line(name: &str, samples: &[f64]) -> String {
    let picked = pick(samples);
    match picked.tail {
        Some((q, value)) => format!(
            "{name} p50 {} p{} {value} n={}",
            picked.p50,
            q * 100.0,
            picked.n
        ),
        None => format!(
            "{name} p50 {} n={} (too few for a tail)",
            picked.p50, picked.n
        ),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Wall time of the typical cycle. `walls` holds one duration per loop
/// iteration, `cycle` iterations to a cycle, every cycle doing the same
/// work at the same position. Each position contributes the median of
/// its durations over the cycles, so a burst of host noise costs the
/// iterations it hit — one sample of each of a few positions — not the
/// cycles, and through them the run.
pub fn typical_cycle(walls: &[f64], cycle: usize) -> f64 {
    (0..cycle)
        .map(|position| {
            let at_position: Vec<f64> = walls
                .iter()
                .skip(position)
                .step_by(cycle)
                .copied()
                .collect();
            median(&at_position)
        })
        .sum()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The deterministic stream every workload derives its inputs from
/// (SplitMix64). The program under test only ever sees the generated
/// inputs, never the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// SplitMix64's finalizer: a stateless hash of one word.
pub fn mix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_reports_median_and_highest_supported_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let picked = pick(&samples);
        assert_eq!(picked.n, 1000);
        assert_eq!(picked.p50, 500.0);
        // 1000 × (1 − 0.99) = 10 samples beyond p99; p99.9 has only one.
        assert_eq!(picked.tail, Some((0.99, 990.0)));

        let picked = pick(&samples[..200]);
        assert_eq!(picked.tail, Some((0.95, 190.0)));
        let picked = pick(&samples[..40]);
        assert_eq!(picked.tail, Some((0.75, 30.0)));
        assert_eq!(pick(&samples[..39]).tail, None);
        assert_eq!(pick(&[]).p50, 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank_on_unsorted_input() {
        let s = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
    }

    #[test]
    fn typical_cycle_sums_each_position_s_median_over_the_cycles() {
        // Three cycles of two positions; one iteration was hit by noise.
        let walls = [1.0, 10.0, 1.0, 10.0, 7.0, 10.0];
        assert_eq!(typical_cycle(&walls, 2), 11.0);
        assert_eq!(typical_cycle(&[], 2), 0.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        let mut r = Rng::new(8);
        for _ in 0..1000 {
            let x = r.uniform(250.0, 490.0);
            assert!((250.0..490.0).contains(&x));
        }
    }
}
