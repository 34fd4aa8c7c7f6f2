//! The docs resolve. Every `--bin NAME` names a binary target of the
//! workspace, and every `repro SUBCOMMAND` names an entry of
//! `capmaestro_bench::COMMANDS`, the list `repro` dispatches on. Every
//! backticked source, doc, JSON, script or manifest path in README.md,
//! DESIGN.md and EXPERIMENTS.md names a file of the repository.

use std::path::{Path, PathBuf};

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

/// The documents whose file paths are checked.
const PATH_DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The extensions that make a backticked word a file path.
const PATH_EXTENSIONS: [&str; 5] = [".rs", ".md", ".json", ".sh", ".toml"];

/// Paths the docs name that a command writes, so no checkout holds them.
const WRITTEN_BY_COMMANDS: [&str; 1] = [
    // `capmaestrod --trace trace.json` (README.md).
    "trace.json",
];

/// Every file of the repository, relative to `root` with `/` separators:
/// the files git tracks, so local untracked files change no verdict.
/// Outside a git checkout (an exported tree, or no `git` on the path),
/// the working tree minus `.git` and what the root `.gitignore` lists.
fn repository_files(root: &Path) -> Vec<String> {
    let tracked = std::process::Command::new("git")
        .args(["ls-files", "-z"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success() && !out.stdout.is_empty());
    if let Some(out) = tracked {
        let listing = String::from_utf8_lossy(&out.stdout);
        return listing
            .split('\0')
            .filter(|file| !file.is_empty())
            .map(str::to_owned)
            .collect();
    }
    let gitignore = std::fs::read_to_string(root.join(".gitignore")).unwrap_or_default();
    let ignored: Vec<&str> = gitignore
        .lines()
        .map(|line| line.trim().trim_matches('/'))
        .collect();
    let (mut files, mut dirs) = (Vec::new(), vec![PathBuf::new()]);
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(root.join(&dir)).expect("readable dir") {
            let entry = entry.expect("dir entry");
            let path = dir.join(entry.file_name());
            let name = path.to_string_lossy().replace('\\', "/");
            if name == ".git" || ignored.contains(&name.as_str()) {
                continue;
            }
            if entry.file_type().expect("file type").is_dir() {
                dirs.push(path);
            } else {
                files.push(name);
            }
        }
    }
    files
}

/// Whether a doc's `path` names one of `files`: repo-relative, under a
/// crate as `<crate>/…` (from `crates/<crate>/src/` or `crates/<crate>/`),
/// or the tail of exactly one file.
fn resolves(path: &str, files: &[String]) -> bool {
    let has = |candidate: &str| files.iter().any(|f| f == candidate);
    let in_crate = path.split_once('/').is_some_and(|(krate, rest)| {
        has(&format!("crates/{krate}/src/{rest}")) || has(&format!("crates/{krate}/{rest}"))
    });
    let tails = files
        .iter()
        .filter(|f| f.ends_with(&format!("/{path}")))
        .count();
    has(path) || in_crate || tails == 1
}

/// The file paths among the backticked spans of `text`, with their
/// 1-based line numbers: whitespace-separated words ending in one of
/// [`PATH_EXTENSIONS`], cut at a `::item` or `:line` suffix.
fn backticked_paths(text: &str) -> Vec<(usize, &str)> {
    let mut paths = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            for word in span.split_whitespace() {
                let word = word.split(':').next().unwrap_or_default();
                let word = word.trim_end_matches([',', ')', ';']);
                if PATH_EXTENSIONS.iter().any(|ext| word.ends_with(ext)) {
                    paths.push((n + 1, word));
                }
            }
        }
    }
    paths
}

#[test]
fn every_documented_file_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = repository_files(root);
    let (mut checked, mut stale) = (0, Vec::new());
    for doc in PATH_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("readable doc");
        for (line, path) in backticked_paths(&text) {
            checked += 1;
            if !WRITTEN_BY_COMMANDS.contains(&path) && !resolves(path, &files) {
                stale.push(format!("{doc}:{line}: {path}"));
            }
        }
    }
    assert!(
        checked > 50,
        "only {checked} paths found: is the scan broken?"
    );
    assert!(
        stale.is_empty(),
        "docs name files that do not exist:\n{}",
        stale.join("\n")
    );
}
