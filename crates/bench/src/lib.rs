//! The experiment harness for the paper's tables and figures.
//!
//! The library returns each reproduced run as plain numbers or series:
//! [`table1`], [`fig5`], [`priority_run`] (Table 2, Figs. 6a/6b) and
//! [`stranded_run`] (Table 3, Figs. 7b/7c), plus the policy arena and the
//! scale sample. The `repro` binary renders them, one subcommand per entry
//! of [`COMMANDS`], and the root reproduction tests assert on the same
//! functions, so the numbers the harness prints are the numbers the tests
//! pin. `chaos` and `partition` are the two soak binaries beside it.
//! Performance benchmarks live in the repository's `benchmark/` package.

#![warn(missing_docs)]

use std::env;

mod arena;
mod paper;
mod report;
mod scale;

pub use arena::{policy_arena, ArenaRun, SCENARIOS};
pub use paper::{fig5, priority_run, stranded_run, table1, Fig5, PriorityRun, StrandedRun, Table1};
pub use report::{series_csv, sparkline, Table};
pub use scale::{scale_sample, ScaleSample};

/// Every `repro` subcommand and the flags it reads: `--name` is a switch,
/// `--name VALUE` takes a value. `repro` rejects any other argument.
pub const COMMANDS: [(&str, &str); 21] = [
    ("table1", ""),
    ("table2", ""),
    ("table3", ""),
    ("fig5", "--csv"),
    ("fig6a", ""),
    ("fig6b", "--csv"),
    ("fig7b", ""),
    ("fig7c", "--csv"),
    ("fig8", ""),
    ("fig9", "--worst-trials N --reps N --seed N"),
    ("fig10", "--worst-trials N --seed N --csv"),
    ("sensitivity", "--worst-trials N"),
    ("ablation", ""),
    ("tiers", ""),
    ("phase_imbalance", "--worst-trials N"),
    ("scheduler", "--jobs N --seed N"),
    ("control_period", ""),
    ("day", "--spr N --csv"),
    (
        "dcsim",
        "--racks N --spr N --util F --seconds N --fail-feed-at T --seed N \
         --policy none|local|global --spo --no-control --csv",
    ),
    ("scale", "--workers N"),
    (
        "policies",
        "--smoke --seconds N --seed N --seeds K --out PATH",
    ),
];

/// Simple `--key value` / `--flag` argument access for experiment
/// binaries (no external CLI dependency needed for fixed harnesses).
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments, unchecked.
    pub fn capture() -> Self {
        Args {
            raw: env::args().skip(1).collect(),
        }
    }

    /// Parses a `repro` command line: a subcommand from [`COMMANDS`], then
    /// only the flags it reads, each value flag followed by its value.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the accepted subcommands or flags.
    pub fn parse(mut raw: impl Iterator<Item = String>) -> Result<(&'static str, Args), String> {
        let given = raw.next().unwrap_or_default();
        let Some(&(name, flags)) = COMMANDS.iter().find(|(name, _)| *name == given) else {
            let mut usage = match given.as_str() {
                "" => "repro: missing subcommand; usage:".to_string(),
                _ => format!("repro: unknown subcommand `{given}`; usage:"),
            };
            for (name, flags) in COMMANDS {
                usage.push_str(format!("\n  repro {name} {flags}").trim_end());
            }
            return Err(usage);
        };
        let raw: Vec<String> = raw.collect();
        let spec: Vec<&str> = flags.split_whitespace().collect();
        let reject = |why: String| {
            let accepted = if flags.is_empty() { "none" } else { flags };
            Err(format!("repro {name}: {why}; accepted flags: {accepted}"))
        };
        let mut i = 0;
        while i < raw.len() {
            let Some(at) = spec
                .iter()
                .position(|s| s.starts_with("--") && *s == raw[i])
            else {
                return reject(format!("unknown argument `{}`", raw[i]));
            };
            if spec.get(at + 1).is_some_and(|s| !s.starts_with("--")) {
                if i + 1 == raw.len() {
                    return reject(format!("`{}` needs a value", raw[i]));
                }
                i += 1;
            }
            i += 1;
        }
        Ok((name, Args { raw }))
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

    fn parse(line: &str) -> Result<(&'static str, Args), String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_and_values() {
        let (name, args) = parse("fig10 --csv --worst-trials 500").unwrap();
        assert_eq!(name, "fig10");
        assert!(args.flag("csv"));
        assert!(!args.flag("full"));
        assert_eq!(args.get("worst-trials", 100usize), 500);
        assert_eq!(args.get("seed", 3usize), 3);
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn bad_value_panics() {
        let (_, args) = parse("fig9 --reps abc").unwrap();
        let _ = args.get("reps", 1usize);
    }

    #[test]
    fn unknown_subcommand_lists_every_subcommand() {
        for line in ["", "fig11", "--csv"] {
            let usage = parse(line).unwrap_err();
            for (name, flags) in COMMANDS {
                let line = format!("repro {name} {flags}");
                assert!(usage.lines().any(|l| l.trim() == line.trim()), "{usage}");
            }
        }
    }

    #[test]
    fn unread_flags_are_rejected_with_the_accepted_ones() {
        let err = parse("dcsim --utilization 0.5").unwrap_err();
        assert!(
            err.contains("`--utilization`") && err.contains("--util F"),
            "{err}"
        );
        let err = parse("table1 --csv").unwrap_err();
        assert!(err.ends_with("accepted flags: none"), "{err}");
        let err = parse("fig9 7").unwrap_err();
        assert!(err.contains("unknown argument `7`"), "{err}");
        // A placeholder in the spec is not a flag.
        assert!(parse("fig9 N").is_err());
    }

    #[test]
    fn a_value_flag_needs_its_value() {
        let err = parse("scale --workers").unwrap_err();
        assert!(err.contains("`--workers` needs a value"), "{err}");
        assert!(parse("policies --smoke --out x.json --seeds 2").is_ok());
    }

    #[test]
    fn every_subcommand_is_listed_once() {
        for (i, (name, _)) in COMMANDS.iter().enumerate() {
            assert!(
                !COMMANDS[..i].iter().any(|(n, _)| n == name),
                "{name} twice"
            );
            assert!(parse(name).is_ok());
        }
    }
}
