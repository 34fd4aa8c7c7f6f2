//! The docs resolve. Every `--bin NAME` names a binary target of the
//! workspace, and every `repro SUBCOMMAND` names an entry of
//! `capmaestro_bench::COMMANDS`, the list `repro` dispatches on. Every
//! backticked source, doc, JSON, script or manifest path in README.md,
//! DESIGN.md and EXPERIMENTS.md names a file of the repository, and every
//! backticked `Type::member` there names a `fn`, field, const or variant
//! declared on a type of that name in the workspace's sources. Every
//! backticked lower-case path (`crate::module::item`) names a module of a
//! workspace crate and, last, a module, `fn` or `const` declared in it.
//! Every bare backticked `snake_case` name is declared somewhere in the
//! product's sources, or spelled in one of their string literals.

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

/// Lower-case paths the docs may use though nothing declares them.
const UNDECLARED_PATHS: [&str; 1] = [
    // Retired, and named as such by the prose that records its removal.
    "spo::optimize_stranded_power",
];

/// First segments of paths into the standard library and its primitive
/// types, which no workspace crate declares.
const STD_ROOTS: [&str; 2] = ["std", "f64"];

/// The backticked lower-case paths of `text`, with their 1-based line
/// numbers: each `a::b…` not glued to a file name (`x.rs::test`), cut
/// before its first segment that does not start lower-case, with at
/// least two segments left and a first one outside [`STD_ROOTS`].
fn backticked_module_paths(text: &str) -> Vec<(usize, String)> {
    let in_path = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    let mut paths = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            let mut start = None;
            for (at, c) in span.char_indices().chain([(span.len(), ' ')]) {
                if in_path(c) {
                    start.get_or_insert(at);
                    continue;
                }
                let Some(from) = start.take() else {
                    continue;
                };
                if span[..from].ends_with('.') {
                    continue;
                }
                let segments: Vec<&str> = span[from..at]
                    .split("::")
                    .take_while(|seg| seg.starts_with(|c: char| c.is_ascii_lowercase()))
                    .collect();
                if segments.len() >= 2
                    && !STD_ROOTS.contains(&segments[0])
                    && segments.iter().all(|seg| !seg.contains(':'))
                {
                    paths.push((n + 1, segments.join("::")));
                }
            }
        }
    }
    paths
}

/// A module: the source file that holds it, the lines of its body in
/// that file, and the directory its file submodules live in.
struct Module {
    lines: Vec<String>,
    body: std::ops::Range<usize>,
    dir: PathBuf,
}

impl Module {
    /// The module a file holds; `x.rs` keeps its submodules in `x/`, a
    /// `lib.rs` or `mod.rs` beside itself.
    fn file(path: &Path) -> Option<Module> {
        let text = std::fs::read_to_string(path).ok()?;
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let parent = path.parent()?;
        let stem = path.file_stem()?.to_string_lossy();
        let dir = match stem.as_ref() {
            "lib" | "mod" => parent.to_path_buf(),
            _ => parent.join(stem.as_ref()),
        };
        Some(Module {
            body: 0..lines.len(),
            lines,
            dir,
        })
    }

    /// The items declared at the module's top level: `(keyword, name,
    /// line)` for each `fn`, `const` and `mod`.
    fn items(&self) -> Vec<(&'static str, String, usize)> {
        let lines: Vec<&str> = self.lines.iter().map(String::as_str).collect();
        let deltas = brace_deltas(&lines);
        let mut items = Vec::new();
        let mut depth = 0;
        for at in self.body.clone() {
            if depth == 0 {
                let line = lines[at].trim_start();
                let line = ["pub(crate) ", "pub(super) ", "pub "]
                    .iter()
                    .find_map(|p| line.strip_prefix(p))
                    .unwrap_or(line);
                for (prefix, keyword) in [
                    ("const fn ", "fn"),
                    ("fn ", "fn"),
                    ("const ", "const"),
                    ("mod ", "mod"),
                ] {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        let end = rest
                            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                            .unwrap_or(rest.len());
                        items.push((keyword, rest[..end].to_string(), at));
                        break;
                    }
                }
            }
            depth += deltas[at].0 - deltas[at].1;
        }
        items
    }

    /// Submodule `name`: a file `name.rs` or `name/mod.rs` in the module's
    /// directory, or an inline `mod name { … }`.
    fn submodule(&self, name: &str) -> Option<Module> {
        let file = [format!("{name}.rs"), format!("{name}/mod.rs")]
            .into_iter()
            .map(|file| self.dir.join(file))
            .find(|path| path.is_file());
        if let Some(path) = file {
            return Module::file(&path);
        }
        let (_, _, at) = self.items().into_iter().find(|(keyword, item, at)| {
            *keyword == "mod" && item == name && self.lines[*at].contains('{')
        })?;
        let lines: Vec<&str> = self.lines.iter().map(String::as_str).collect();
        let deltas = brace_deltas(&lines);
        let mut depth = 0;
        let end = (at..self.body.end).find(|&line| {
            depth += deltas[line].0 - deltas[line].1;
            depth <= 0
        })?;
        Some(Module {
            lines: self.lines.clone(),
            body: at + 1..end,
            dir: self.dir.join(name),
        })
    }

    /// Whether `segments` name a chain of submodules below this one, the
    /// last of which may instead be a `fn`, `const` or `mod` declared in
    /// the module before it.
    fn resolves(&self, segments: &[&str]) -> bool {
        let Some((first, rest)) = segments.split_first() else {
            return true;
        };
        if let Some(module) = self.submodule(first) {
            if module.resolves(rest) {
                return true;
            }
        }
        rest.is_empty() && self.items().iter().any(|(_, item, _)| item == first)
    }
}

/// The modules a path's first segment may name: crate `<c>`'s root for
/// `capmaestro_<c>` or `<c>`, otherwise every `<seg>.rs` or
/// `<seg>/mod.rs` under a crate's `src`.
fn root_modules(root: &Path, first: &str) -> Vec<Module> {
    let krate = first.strip_prefix("capmaestro_").unwrap_or(first);
    let lib = root.join("crates").join(krate).join("src/lib.rs");
    if let Some(module) = Module::file(&lib) {
        return vec![module];
    }
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|krate| krate.expect("dir entry").path().join("src"))
        .collect();
    let mut modules = Vec::new();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            if path.is_dir() {
                if name == first {
                    modules.extend(Module::file(&path.join("mod.rs")));
                }
                dirs.push(path);
            } else if name == format!("{first}.rs") {
                modules.extend(Module::file(&path));
            }
        }
    }
    modules
}

#[test]
fn every_documented_module_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut checked, mut stale) = (HashSet::new(), Vec::new());
    for doc in PATH_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("readable doc");
        for (line, path) in backticked_module_paths(&text) {
            let segments: Vec<&str> = path.split("::").collect();
            let resolved = root_modules(root, segments[0])
                .iter()
                .any(|module| module.resolves(&segments[1..]));
            if !resolved && !UNDECLARED_PATHS.contains(&path.as_str()) {
                stale.push(format!("{doc}:{line}: {path}"));
            }
            checked.insert(path);
        }
    }
    assert!(
        checked.len() > 25,
        "only {} paths found: is the scan broken?",
        checked.len()
    );
    assert!(
        stale.is_empty(),
        "docs name module paths that do not resolve:\n{}",
        stale.join("\n")
    );
}

/// Bare names the docs may use though no product source declares them.
const UNDECLARED_NAMES: [&str; 4] = [
    // The crate the workspace avoids depending on (DESIGN.md).
    "rand_distr",
    // Formula symbols of the solver allocators: child i's weight, upper
    // bound and demand, as `core::alloc`'s rustdoc writes them.
    "w_i",
    "ub_i",
    "d_i",
];

/// The bare backticked names of `text` — a whole span that is one
/// lower-case identifier with an `_` — with their 1-based line numbers.
fn backticked_bare_names(text: &str) -> Vec<(usize, &str)> {
    let mut names = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            let ident = span
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if ident && span.contains('_') && span.starts_with(|c: char| c.is_ascii_lowercase()) {
                names.push((n + 1, span));
            }
        }
    }
    names
}

/// The contents of the string literals of `source` (raw strings
/// included), outside `//` comments and char literals.
fn string_literals(source: &str) -> Vec<String> {
    let mut literals = Vec::new();
    let mut chars = source.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '/' if chars.peek() == Some(&'/') => {
                chars.by_ref().find(|&c| c == '\n');
            }
            // A char literal (`'"'`, `'\''`); a lifetime has no closing quote.
            '\'' => {
                let mut ahead = chars.clone();
                if ahead.next() == Some('\\') {
                    ahead.next();
                }
                if ahead.next() == Some('\'') {
                    chars = ahead;
                }
            }
            'r' if matches!(chars.peek(), Some('#' | '"')) => {
                let hashes = std::iter::from_fn(|| chars.next_if_eq(&'#')).count();
                if chars.next_if_eq(&'"').is_none() {
                    continue;
                }
                let close = format!("\"{}", "#".repeat(hashes));
                let mut literal = String::new();
                for c in chars.by_ref() {
                    literal.push(c);
                    if literal.ends_with(&close) {
                        literal.truncate(literal.len() - close.len());
                        break;
                    }
                }
                literals.push(literal);
            }
            '"' => {
                let mut literal = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => literal.extend(chars.next()),
                        '"' => break,
                        c => literal.push(c),
                    }
                }
                literals.push(literal);
            }
            _ => {}
        }
    }
    literals
}

/// What the product's sources (`crates/*/src`, `src`, `examples` and
/// `benchmark/src`) declare — every `fn`, field, `const`, `static` and
/// `mod`, and the name of every example and binary — and the contents of
/// their string literals.
fn product_names(root: &Path) -> (HashSet<String>, Vec<String>) {
    let mut dirs = vec![
        root.join("src"),
        root.join("examples"),
        root.join("benchmark/src"),
    ];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        dirs.push(krate.expect("dir entry").path().join("src"));
    }
    let (mut declared, mut literals) = (HashSet::new(), Vec::new());
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            if dir.ends_with("examples") || dir.ends_with("bin") {
                declared.insert(
                    path.file_stem()
                        .expect("file name")
                        .to_string_lossy()
                        .into_owned(),
                );
            }
            let source = std::fs::read_to_string(&path).expect("readable source");
            for line in source.lines() {
                let item = ["pub(crate) ", "pub(super) ", "pub "]
                    .iter()
                    .find_map(|p| line.trim_start().strip_prefix(p))
                    .unwrap_or(line.trim_start());
                let module = ["mod ", "static "]
                    .iter()
                    .find_map(|p| item.strip_prefix(p));
                let name = match module {
                    Some(rest) => rest
                        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .next(),
                    None => declared_member(line),
                };
                declared.extend(name.filter(|n| !n.is_empty()).map(str::to_owned));
            }
            literals.extend(string_literals(&source));
        }
    }
    (declared, literals)
}

#[test]
fn every_documented_bare_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (declared, literals) = product_names(root);
    let (mut checked, mut stale) = (HashSet::new(), Vec::new());
    for doc in PATH_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("readable doc");
        for (line, name) in backticked_bare_names(&text) {
            let resolved = declared.contains(name) || literals.iter().any(|l| l.contains(name));
            if !resolved && !UNDECLARED_NAMES.contains(&name) {
                stale.push(format!("{doc}:{line}: {name}"));
            }
            checked.insert(name.to_owned());
        }
    }
    assert!(
        checked.len() > 60,
        "only {} names found: is the scan broken?",
        checked.len()
    );
    assert!(
        stale.is_empty(),
        "docs name identifiers the product neither declares nor spells:\n{}",
        stale.join("\n")
    );
}
