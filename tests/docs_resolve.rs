//! The docs resolve. Every `--bin NAME` names a binary target of the
//! workspace, and every `repro SUBCOMMAND` names an entry of
//! `capmaestro_bench::COMMANDS`, the list `repro` dispatches on. Every
//! backticked source, doc, JSON, script or manifest path in README.md,
//! DESIGN.md and EXPERIMENTS.md names a file of the repository, and every
//! backticked `Type::member` there names a `fn`, field, const or variant
//! declared on a type of that name in the workspace's sources.

use std::collections::{HashMap, HashSet};
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

/// `Type::member` names the docs may use though no workspace type
/// declares them.
const UNDECLARED_MEMBERS: [&str; 3] = [
    // Retired, and named as such by the prose that records their removal.
    "ControlTree::gather",
    "ControlPlane::reset_round_cache",
    // The standard library's `hash_map::Entry`.
    "Entry::Occupied",
];

/// The backticked `Type::member` names of `text` (a `Type::{a, b}` group
/// names each member), with their 1-based line numbers. A type starts
/// with an upper-case letter; a module path before it is ignored.
fn backticked_members(text: &str) -> Vec<(usize, String)> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut names = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            for (at, _) in span.match_indices("::") {
                let ty_start = span[..at]
                    .rfind(|c: char| !is_ident(c))
                    .map_or(0, |i| i + 1);
                let ty = &span[ty_start..at];
                if !ty.starts_with(|c: char| c.is_ascii_uppercase()) {
                    continue;
                }
                let rest = &span[at + 2..];
                let members = match rest.strip_prefix('{') {
                    Some(group) => group.split('}').next().unwrap_or_default(),
                    None => &rest[..rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len())],
                };
                for member in members.split(',').map(str::trim).filter(|m| !m.is_empty()) {
                    names.push((n + 1, format!("{ty}::{member}")));
                }
            }
        }
    }
    names
}

/// `text` with its `<…>` groups removed.
fn without_generics(text: &str) -> String {
    let mut depth = 0usize;
    text.chars()
        .filter(|&c| {
            match c {
                '<' => depth += 1,
                '>' if depth > 0 => depth -= 1,
                _ => return depth == 0,
            }
            false
        })
        .collect()
}

/// The type a block header declares or implements: `struct T`, `enum T`,
/// `trait T`, or the self type of an `impl … [for] T`.
fn header_type(header: &str) -> Option<String> {
    let header = header.trim_start();
    let header = ["pub(crate) ", "pub(super) ", "pub "]
        .iter()
        .find_map(|p| header.strip_prefix(p))
        .unwrap_or(header);
    let named = if let Some(rest) = header.strip_prefix("impl") {
        let rest = without_generics(rest);
        let rest = rest.split(" where").next().unwrap_or_default();
        let self_type = rest.rsplit(" for ").next().unwrap_or_default().trim();
        self_type
            .rsplit("::")
            .next()
            .unwrap_or_default()
            .to_string()
    } else {
        let rest = ["struct ", "enum ", "trait "]
            .iter()
            .find_map(|p| header.strip_prefix(p))?;
        rest.to_string()
    };
    let name: String = named
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// The member a line of a type or impl block declares, if any: a `fn`,
/// `const` or associated `type`, a field (`name: T`) or a variant.
fn declared_member(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let line = ["pub(crate) ", "pub(super) ", "pub "]
        .iter()
        .find_map(|p| line.strip_prefix(p))
        .unwrap_or(line);
    let ident_end = |s: &str| {
        s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(s.len())
    };
    for keyword in ["const fn ", "fn ", "const ", "type "] {
        if let Some(rest) = line.strip_prefix(keyword) {
            return Some(&rest[..ident_end(rest)]).filter(|name| !name.is_empty());
        }
    }
    let name = &line[..ident_end(line)];
    let after = &line[name.len()..];
    let field = after.starts_with(':') && !after.starts_with("::");
    let variant = name.starts_with(|c: char| c.is_ascii_uppercase())
        && (after.is_empty() || after.starts_with([',', '(', ' ']));
    (!name.is_empty() && (field || variant)).then_some(name)
}

/// The `{` and `}` of each line that are code: not in a string or char
/// literal (strings may span lines) or a `//` comment.
fn brace_deltas(lines: &[&str]) -> Vec<(i32, i32)> {
    let mut in_string = false;
    lines
        .iter()
        .map(|line| {
            let (mut opens, mut closes) = (0, 0);
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                match (in_string, c) {
                    (true, '\\') => {
                        chars.next();
                    }
                    (true, '"') | (false, '"') => in_string = !in_string,
                    (true, _) => {}
                    (false, '/') if chars.peek() == Some(&'/') => break,
                    // A char literal: `'{'`, `'}'` or an escape; a lifetime
                    // has no closing quote after one character.
                    (false, '\'') => {
                        let mut ahead = chars.clone();
                        let first = ahead.next();
                        if first == Some('\\') {
                            ahead.next();
                        }
                        if ahead.next() == Some('\'') {
                            chars = ahead;
                        }
                    }
                    (false, '{') => opens += 1,
                    (false, '}') => closes += 1,
                    _ => {}
                }
            }
            (opens, closes)
        })
        .collect()
}

/// Every member declared on each type under `crates/*/src` and `src/`:
/// the lines of each `struct`, `enum`, `trait` and `impl` block, keyed
/// by the block's type.
fn declared_members(root: &Path) -> HashMap<String, HashSet<String>> {
    let mut dirs = vec![root.join("src")];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        dirs.push(krate.expect("dir entry").path().join("src"));
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(std::fs::read_to_string(&path).expect("readable source"));
            }
        }
    }
    let mut members: HashMap<String, HashSet<String>> = HashMap::new();
    for source in &files {
        let lines: Vec<&str> = source.lines().collect();
        let depths = brace_deltas(&lines);
        for (start, header) in lines.iter().enumerate() {
            let Some(ty) = header_type(header) else {
                continue;
            };
            // The block runs from its header until its braces balance.
            let (mut depth, mut opened) = (0i32, false);
            for (line, &(opens, closes)) in lines[start..].iter().zip(&depths[start..]) {
                if opened && depth == 1 {
                    if let Some(member) = declared_member(line) {
                        members
                            .entry(ty.clone())
                            .or_default()
                            .insert(member.to_string());
                    }
                }
                depth += opens - closes;
                opened |= opens > 0;
                if (opened && depth <= 0) || (!opened && line.trim_end().ends_with(';')) {
                    break;
                }
            }
        }
    }
    members
}

#[test]
fn every_documented_type_member_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let members = declared_members(root);
    let (mut checked, mut stale) = (HashSet::new(), Vec::new());
    for doc in PATH_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("readable doc");
        for (line, name) in backticked_members(&text) {
            let (ty, member) = name.split_once("::").expect("a Type::member name");
            let declared = members.get(ty).is_some_and(|set| set.contains(member));
            if !declared && !UNDECLARED_MEMBERS.contains(&name.as_str()) {
                stale.push(format!("{doc}:{line}: {name}"));
            }
            checked.insert(name);
        }
    }
    assert!(
        checked.len() > 40,
        "only {} names found: is the scan broken?",
        checked.len()
    );
    assert!(
        stale.is_empty(),
        "docs name type members that no type declares:\n{}",
        stale.join("\n")
    );
}
