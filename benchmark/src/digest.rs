//! The simulation digest: FNV-1a over the bit patterns of everything a
//! workload decided, checkpointed on a fixed simulated cadence so two
//! runs of different wall length compare over their common prefix.
//!
//! A speed-only change must leave every checkpoint identical; a changed
//! digest is a failure, and an issue that means to change simulated
//! behaviour re-blesses `expected/` as a benchmark change of its own.

use std::path::Path;

/// Running FNV-1a (64-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn fold_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn fold_f64(&mut self, value: f64) {
        self.fold_u64(value.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// One checkpoint: simulated seconds (or rounds) completed, and the
/// running digest at that point.
pub type Checkpoint = (u64, u64);

/// Compares `got` with `want` over their common prefix. Returns how
/// many checkpoints were compared, or the first divergence.
pub fn compare_prefix(got: &[Checkpoint], want: &[Checkpoint]) -> Result<usize, String> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(format!(
                "checkpoint {i}: got {} {:016x}, want {} {:016x}",
                g.0, g.1, w.0, w.1
            ));
        }
    }
    Ok(got.len().min(want.len()))
}

/// What `expected/<workload>.seed1.digest` blesses for seed 1: the
/// digest at every checkpoint and, for the checkpoints a traced pass
/// reached, the priority inversions counted up to there (the one
/// invariant kind a workload may be excused from holding at zero).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    pub checkpoints: Vec<Checkpoint>,
    /// Cumulative count per checkpoint; may be shorter.
    pub inversions: Vec<u64>,
}

impl Expected {
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "# {workload}, seed 1: <simulated seconds or rounds> <running fnv-1a digest> [<priority inversions so far>]\n\
             # regenerate with `benchmark/run.sh --bless` in a benchmark-only change\n"
        );
        for (i, (at, digest)) in self.checkpoints.iter().enumerate() {
            out.push_str(&format!("{at} {digest:016x}"));
            if let Some(count) = self.inversions.get(i) {
                out.push_str(&format!(" {count}"));
            }
            out.push('\n');
        }
        out
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut expected = Expected::default();
        for line in text
            .lines()
            .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        {
            let mut words = line.split_whitespace();
            let at = words.next().and_then(|w| w.parse::<u64>().ok());
            let digest = words.next().and_then(|w| u64::from_str_radix(w, 16).ok());
            let (Some(at), Some(digest)) = (at, digest) else {
                return Err(format!("bad digest line {line:?}"));
            };
            expected.checkpoints.push((at, digest));
            if let Some(word) = words.next() {
                let count = word
                    .parse::<u64>()
                    .map_err(|_| format!("bad inversion count in {line:?}"))?;
                if expected.inversions.len() + 1 != expected.checkpoints.len() {
                    return Err(format!("inversion counts must form a prefix: {line:?}"));
                }
                expected.inversions.push(count);
            }
        }
        Ok(expected)
    }

    /// The blessed file `file`, or `None` when none was blessed.
    pub fn load(dir: &Path, file: &str) -> Result<Option<Expected>, String> {
        let path = dir.join("expected").join(file);
        match std::fs::read_to_string(&path) {
            Ok(text) => Expected::parse(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// The first checkpoint at which `got` counts more inversions than
    /// were blessed, over the checkpoints both have.
    pub fn inversions_exceeded(&self, got: &[u64]) -> Option<String> {
        got.iter()
            .zip(&self.inversions)
            .position(|(g, w)| g > w)
            .map(|i| {
                format!(
                    "checkpoint {i}: {} priority inversions, {} were blessed",
                    got[i], self.inversions[i]
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_test_vector() {
        // FNV-1a 64 of the single byte 'a' is af63dc4c8601ec8c; folding a
        // word is folding its eight little-endian bytes.
        let mut d = Digest::default();
        d.0 ^= u64::from(b'a');
        d.0 = d.0.wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);

        let mut a = Digest::default();
        a.fold_f64(1.5);
        let mut b = Digest::default();
        b.fold_u64(1.5f64.to_bits());
        assert_eq!(a, b);
        let mut c = Digest::default();
        c.fold_f64(-1.5);
        assert_ne!(a, c);
    }

    #[test]
    fn expected_file_round_trips_and_prefix_compare_finds_divergence() {
        let cps = vec![(64, 0xdead_beef_0000_0001), (128, 7)];
        let expected = Expected {
            checkpoints: cps.clone(),
            inversions: vec![2],
        };
        let text = expected.render("fleet_churn");
        assert_eq!(Expected::parse(&text).expect("parses"), expected);
        assert!(Expected::parse("64 1\n128 2 5\n").is_err());
        assert_eq!(expected.inversions_exceeded(&[2, 9]), None);
        assert!(expected.inversions_exceeded(&[3]).is_some());
        assert_eq!(compare_prefix(&cps[..1], &cps), Ok(1));
        assert_eq!(compare_prefix(&cps, &cps[..1]), Ok(1));
        let other = vec![(64, 0xdead_beef_0000_0001), (128, 8)];
        assert!(compare_prefix(&cps, &other).is_err());
    }
}
