//! The run commands in the docs resolve: every `--bin NAME` names a binary
//! target of the workspace, and every `repro SUBCOMMAND` names an entry of
//! `capmaestro_bench::COMMANDS`, the list `repro` dispatches on.

use std::path::Path;

/// The documents whose commands are checked, relative to the repository.
const DOCS: [&str; 4] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
];

/// Every binary target: the `src/bin/*.rs` files of the workspace crates.
fn binaries(root: &Path) -> Vec<String> {
    let mut names = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let Ok(bins) = std::fs::read_dir(krate.expect("dir entry").path().join("src/bin")) else {
            continue;
        };
        for bin in bins {
            let path = bin.expect("dir entry").path();
            if path.extension().is_some_and(|ext| ext == "rs") {
                names.push(
                    path.file_stem()
                        .expect("file name")
                        .to_string_lossy()
                        .into_owned(),
                );
            }
        }
    }
    names
}

/// The word after each `marker` in `text`, with its 1-based line number.
/// Shell variables (`$b`) and placeholders (`<…>`) are not words.
fn words_after<'a>(text: &'a str, marker: &str) -> Vec<(usize, &'a str)> {
    let mut words = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices(marker) {
            let rest = &line[at + marker.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(rest.len());
            if end > 0 {
                words.push((n + 1, &rest[..end]));
            }
        }
    }
    words
}

#[test]
fn every_documented_binary_and_repro_subcommand_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let binaries = binaries(root);
    let subcommands: Vec<String> = capmaestro_bench::COMMANDS
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    let (mut checked, mut stale) = (0, Vec::new());
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("readable doc");
        let bins = words_after(&text, "--bin ")
            .into_iter()
            .map(|w| (w, &binaries, "--bin"));
        let subs = ["--bin repro -- ", "`repro "]
            .into_iter()
            .flat_map(|marker| words_after(&text, marker))
            .map(|w| (w, &subcommands, "repro"));
        for ((line, word), known, kind) in bins.chain(subs) {
            checked += 1;
            if !known.iter().any(|k| k == word) {
                stale.push(format!("{doc}:{line}: {kind} {word}"));
            }
        }
    }
    assert!(
        checked > 20,
        "only {checked} commands found: is the scan broken?"
    );
    assert!(
        stale.is_empty(),
        "docs name commands that do not exist:\n{}",
        stale.join("\n")
    );
}
