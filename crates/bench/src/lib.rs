//! Shared helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! this library holds the tiny bits they share (CLI parsing, headers).
//! Performance benchmarks live in the repository's `benchmark/` package.

#![warn(missing_docs)]

use std::env;

/// Simple `--key value` / `--flag` argument access for experiment
/// binaries (no external CLI dependency needed for fixed harnesses).
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Self {
        Args {
            raw: env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit list (tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// Whether `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        let key = format!("--{name}");
        self.raw.iter().any(|a| a == &key)
    }

    /// The value following `--name`, parsed, or `default`.
    ///
    /// # Panics
    ///
    /// Panics with a clear message if the value fails to parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        let key = format!("--{name}");
        for pair in self.raw.windows(2) {
            if pair[0] == key {
                return pair[1]
                    .parse()
                    .unwrap_or_else(|e| panic!("invalid value for {key}: {e}"));
            }
        }
        default
    }
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, what: &str) {
    println!("== CapMaestro reproduction: {id} ==");
    println!("   {what}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_and_values() {
        let args = Args::from_vec(vec![
            "--quick".into(),
            "--trials".into(),
            "500".into(),
        ]);
        assert!(args.flag("quick"));
        assert!(!args.flag("full"));
        assert_eq!(args.get("trials", 100usize), 500);
        assert_eq!(args.get("reps", 3usize), 3);
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn bad_value_panics() {
        let args = Args::from_vec(vec!["--trials".into(), "abc".into()]);
        let _ = args.get("trials", 1usize);
    }
}
