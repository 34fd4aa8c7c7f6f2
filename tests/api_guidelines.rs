//! API-guideline conformance checks (Rust API Guidelines):
//! C-SEND-SYNC (types are Send/Sync where possible), C-GOOD-ERR (error
//! types implement `Error + Send + Sync + 'static`), C-DEBUG (public types
//! implement Debug with non-empty output).

use std::error::Error;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: Error + Send + Sync + 'static>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send_sync::<capmaestro::units::Watts>();
    assert_send_sync::<capmaestro::units::Ratio>();
    assert_send_sync::<capmaestro::topology::Topology>();
    assert_send_sync::<capmaestro::topology::ControlTreeSpec>();
    assert_send_sync::<capmaestro::topology::CircuitBreaker>();
    assert_send_sync::<capmaestro::server::Server>();
    assert_send_sync::<capmaestro::core::ControlTree>();
    assert_send_sync::<capmaestro::core::PriorityMetrics>();
    assert_send_sync::<capmaestro::core::CappingController>();
    assert_send_sync::<capmaestro::core::Allocation>();
    assert_send_sync::<capmaestro::core::ControlPlane>();
    assert_send_sync::<capmaestro::core::Farm>();
    assert_send_sync::<capmaestro::sim::Engine>();
    assert_send_sync::<capmaestro::sim::Trace>();
    assert_send_sync::<capmaestro::sim::CapacityPlanner>();
    assert_send_sync::<capmaestro::sim::JobSchedule>();
    assert_send_sync::<capmaestro::workload::DiscreteDistribution>();
    assert_send_sync::<capmaestro::workload::DiurnalPattern>();
}

#[test]
fn observability_types_are_send_and_sync() {
    use capmaestro::core::obs;
    assert_send_sync::<obs::MetricsRegistry>();
    assert_send_sync::<obs::MetricsSnapshot>();
    assert_send_sync::<obs::NullRecorder>();
    assert_send_sync::<std::sync::Arc<dyn obs::Recorder>>();
    assert_send_sync::<obs::RoundPhase>();
    assert_send_sync::<capmaestro::core::RoundReport>();
    assert_send_sync::<capmaestro::core::PlaneConfig>();
    assert_send_sync::<capmaestro::core::workers::DeploymentConfig>();
}

#[test]
fn serve_types_are_send_and_sync() {
    use capmaestro::serve;
    assert_send_sync::<serve::HttpServer>();
    assert_send_sync::<serve::HttpConfig>();
    assert_send_sync::<serve::ShutdownHandle>();
    assert_send_sync::<serve::Router>();
    assert_send_sync::<serve::ServeState>();
    assert_send_sync::<serve::Request>();
    assert_send_sync::<serve::Response>();
    assert_send_sync::<serve::HttpLimits>();
    assert_send_sync::<serve::HealthSnapshot>();
    assert_send_sync::<std::sync::Arc<dyn serve::Handler>>();
    assert_send_sync::<serve::daemon::DaemonConfig>();
    assert_send_sync::<serve::client::HttpResponse>();
    assert_send_sync::<serve::ApiError>();
    assert_send_sync::<serve::OpRejection>();
}

#[test]
fn oplog_types_are_send_and_sync() {
    use capmaestro::core::oplog;
    assert_send_sync::<oplog::OpLog>();
    assert_send_sync::<oplog::Envelope>();
    assert_send_sync::<oplog::Op>();
    assert_send_sync::<oplog::DesiredState>();
    assert_send_sync::<oplog::AppendOutcome>();
    assert_send_sync::<oplog::RecoveryReport>();
    assert_send_sync::<oplog::ReconcilePlan>();
}

#[test]
fn error_types_are_well_behaved() {
    assert_error::<capmaestro::topology::TopologyError>();
    assert_error::<capmaestro::core::obs::ParseError>();
    assert_error::<capmaestro::serve::HttpError>();
    assert_error::<capmaestro::serve::BudgetError>();
    assert_error::<capmaestro::serve::ApiError>();
    assert_error::<capmaestro::serve::OpRejection>();
    assert_error::<capmaestro::core::oplog::OplogError>();
}

#[test]
fn debug_representations_are_never_empty() {
    use capmaestro::units::{Ratio, Watts};
    assert!(!format!("{:?}", Watts::ZERO).is_empty());
    assert!(!format!("{:?}", Ratio::ONE).is_empty());
    assert!(!format!("{:?}", capmaestro::topology::Priority::HIGH).is_empty());
    assert!(!format!("{:?}", capmaestro::core::PriorityMetrics::empty()).is_empty());
    let topo = capmaestro::topology::presets::figure2_feed();
    assert!(!format!("{topo:?}").is_empty());
    let registry = capmaestro::core::obs::MetricsRegistry::new();
    assert!(!format!("{registry:?}").is_empty());
    assert!(!format!("{:?}", registry.snapshot()).is_empty());
    assert!(!format!("{:?}", capmaestro::core::obs::NullRecorder).is_empty());
    assert!(!format!("{:?}", capmaestro::core::obs::RoundPhase::Sense).is_empty());
    assert!(!format!("{:?}", capmaestro::core::PlaneConfig::default()).is_empty());
}

#[test]
fn round_report_debug_is_never_empty_via_public_api() {
    use capmaestro::core::{ControlPlane, ControlTree, Farm, PlaneConfig};
    use capmaestro::server::{Server, ServerConfig};
    use capmaestro::units::{Seconds, Watts};

    let topo = capmaestro::topology::presets::figure2_feed();
    let trees: Vec<ControlTree> = topo
        .control_tree_specs()
        .into_iter()
        .map(ControlTree::new)
        .collect();
    let mut farm = Farm::new();
    for (id, _) in topo.servers() {
        let mut server = Server::new(ServerConfig::paper_default().single_corded());
        server.set_offered_demand(Watts::new(420.0));
        server.settle();
        farm.insert(id, server);
    }
    let mut plane = ControlPlane::new(trees, vec![Watts::new(1240.0)], PlaneConfig::default());
    for _ in 0..8 {
        plane.sample(&mut farm);
        farm.step_all(Seconds::new(1.0));
    }
    let report = plane.round(&mut farm);
    assert!(!format!("{report:?}").is_empty());
}

#[test]
fn display_messages_are_lowercase_without_trailing_punctuation() {
    // C-GOOD-ERR: "lowercase without trailing punctuation".
    let err = capmaestro::core::obs::prometheus::validate("not a metrics page")
        .expect_err("garbage must not validate");
    let msg = err.to_string();
    assert!(msg.chars().next().unwrap().is_lowercase());
    assert!(!msg.ends_with('.'));

    let err = capmaestro::core::obs::json::parse("{").expect_err("truncated json must not parse");
    let msg = err.to_string();
    assert!(msg.chars().next().unwrap().is_lowercase());
    assert!(!msg.ends_with('.'));

    let err = capmaestro::serve::HttpError {
        status: 400,
        reason: "malformed request line".to_string(),
    };
    let msg = err.to_string();
    assert!(msg.chars().next().unwrap().is_lowercase());
    assert!(!msg.ends_with('.'));

    let err = capmaestro::serve::BudgetError::NotFinite;
    let msg = err.to_string();
    assert!(msg.chars().next().unwrap().is_lowercase());
    assert!(!msg.ends_with('.'));

    let err = capmaestro::serve::OpRejection::UnknownTree { tree: 9, trees: 1 };
    let msg = err.to_string();
    assert!(msg.chars().next().unwrap().is_lowercase());
    assert!(!msg.ends_with('.'));

    let err = capmaestro::core::oplog::OplogError::KeyTooLong { len: 500 };
    let msg = err.to_string();
    assert!(msg.chars().next().unwrap().is_lowercase());
    assert!(!msg.ends_with('.'));
}

/// The public-function budget: `pub fn` declarations under `crates/*/src`
/// and `src/`. The surface may shrink freely (lower the number when it
/// does); growing it past the budget needs a deliberate edit here, so it
/// cannot regrow silently.
const PUB_FN_BUDGET: usize = 568;

/// Calls `f(path, contents)` for every `.rs` file under `dir`.
fn for_each_source(dir: &std::path::Path, f: &mut dyn FnMut(&std::path::Path, &str)) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            for_each_source(&path, f);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = std::fs::read_to_string(&path).expect("readable source file");
            f(&path, &source);
        }
    }
}

fn count_pub_fns(dir: &std::path::Path) -> usize {
    let mut count = 0;
    for_each_source(dir, &mut |_, source| {
        count += source
            .lines()
            .filter(|line| line.trim_start().starts_with("pub fn "))
            .count();
    });
    count
}

#[test]
fn public_fn_count_stays_within_budget() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut total = count_pub_fns(&root.join("src"));
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            total += count_pub_fns(&src);
        }
    }
    assert!(
        total <= PUB_FN_BUDGET,
        "{total} `pub fn`s exceed the budget of {PUB_FN_BUDGET}: remove surface \
         elsewhere, or raise the budget deliberately in this test"
    );
}

/// `pub fn`s no product code outside their crate names, each kept public
/// for the cross-crate test or harness named beside it.
const UNCALLED_PUB_FNS: &[(&str, &str)] = &[
    ("assert_matches", "the spec's round comparison, run by core's leaf_spec.rs and sim's incremental rounds"),
    ("gather_in", "pinned_walk_props.rs holds the gather walk to capmaestro_spec"),
    ("budget_in", "pinned_walk_props.rs holds the budget walk to capmaestro_spec"),
    ("allocate_in", "pinned_walk_props.rs holds the pinned walk to capmaestro_spec"),
    ("allocate_with", "pinned_walk_props.rs holds the cold walk to capmaestro_spec"),
    ("leaf_budget", "spo_spec.rs, pinned_walk_props.rs and policy_differential.rs compare leaf budgets with the spec"),
    ("gather_stats", "spo_spec.rs checks the SPO and tree walks' skip counts against the spec"),
    ("optimize_stranded_power_in", "spo_spec.rs holds SPO to capmaestro_spec"),
    ("normalize", "sim's trace_golden.rs compares traces after normalizing them"),
    ("encode_envelope", "oplog_props.rs round-trips envelopes and writes torn files frame by frame"),
    ("decode_envelope", "oplog_props.rs checks the envelope decoder is total"),
    ("kill_worker", "the fault hook serve's socket_transport.rs and shutdown_under_load.rs drive"),
    ("respawn_worker", "the fault hook shutdown_under_load.rs drives, with its backoff"),
    ("body_str", "the strict client oracle serve's socket-level suites read responses with"),
    ("parse_response", "the strict client oracle shutdown_under_load.rs parses torn responses with"),
    ("send_raw", "the strict client oracle v1_api.rs sends hand-written requests with"),
    ("approx_eq", "the watt tolerance core's and server's unit tests and end_to_end.rs compare with"),
    ("push_screened", "called only by the executable spec (ROADMAP item 2)"),
    ("estimate_with_idle", "called only by the executable spec (ROADMAP item 2)"),
    ("update_pairs", "called only by the executable spec (ROADMAP item 2)"),
    ("force_dc_cap", "called only by the executable spec (ROADMAP item 2)"),
    ("set_supply_input", "called only by the executable spec (ROADMAP item 2)"),
    ("input_at", "called only by the executable spec (ROADMAP item 2)"),
];

/// A source file without its `#[cfg(test)] mod … { … }` blocks (each
/// closed by the first unindented `}` after it, as rustfmt lays it out).
fn product_part(source: &str) -> String {
    let mut product = String::with_capacity(source.len());
    let mut lines = source.lines().peekable();
    while let Some(line) = lines.next() {
        let opens_tests = lines
            .peek()
            .is_some_and(|next| next.trim_start().starts_with("mod ") && next.contains('{'));
        if line.trim() == "#[cfg(test)]" && opens_tests {
            lines.by_ref().find(|l| *l == "}");
            continue;
        }
        product.push_str(line);
        product.push('\n');
    }
    product
}

/// The files of the test-only modules declared under `dir` with
/// `#[cfg(test)] mod name;`, and their submodule directories.
fn test_module_paths(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut paths = Vec::new();
    for_each_source(dir, &mut |path, source| {
        let mut lines = source.lines();
        while let Some(line) = lines.next() {
            if line.trim() != "#[cfg(test)]" {
                continue;
            }
            let Some(name) = lines.next().and_then(|l| l.trim().strip_prefix("mod ")) else {
                continue;
            };
            let Some(name) = name.strip_suffix(';') else {
                continue;
            };
            let parent = path.parent().expect("a source file has a directory");
            // `foo.rs` declares `foo/name.rs`; `lib.rs` and `mod.rs` declare `name.rs`.
            let stem = path.file_stem().unwrap_or_default();
            let home = if stem == "lib" || stem == "mod" {
                parent.to_path_buf()
            } else {
                parent.join(stem)
            };
            paths.push(home.join(format!("{name}.rs")));
            paths.push(home.join(name));
        }
    });
    paths
}

/// Every identifier in the product code of the `.rs` files under `dir`:
/// test-only modules and `#[cfg(test)] mod` blocks are not callers.
fn identifiers_under(dir: &std::path::Path, out: &mut std::collections::HashSet<String>) {
    if !dir.is_dir() {
        return;
    }
    let tests = test_module_paths(dir);
    for_each_source(dir, &mut |path, source| {
        if tests.iter().any(|test| path.starts_with(test)) {
            return;
        }
        let product = product_part(source);
        let words = product.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        out.extend(words.filter(|w| !w.is_empty()).map(str::to_string));
    });
}

/// Public means a product caller: every `pub fn` in a crate's library
/// source is named by product code outside that source — another crate's
/// `src` (binaries included), the facade's `src`, `examples/` or
/// `benchmark/src` — or it is on [`UNCALLED_PUB_FNS`]. Tests are not
/// callers: a function only tests reach is `pub(crate)` and tested in its
/// own module. Nor is the executable spec (`crates/spec`), which only
/// tests take as a dependency. The match is by name, so a common name
/// (`new`, `len`) always passes; the check catches the distinctive ones.
#[test]
fn every_public_fn_is_named_outside_its_crate() {
    use std::collections::HashSet;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates: Vec<std::path::PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|krate| krate.join("src").is_dir())
        .collect();
    let mut shared = HashSet::new();
    for dir in ["src", "examples", "benchmark/src"] {
        identifiers_under(&root.join(dir), &mut shared);
    }
    let mut unnamed = Vec::new();
    for krate in &crates {
        let (src, bins) = (krate.join("src"), krate.join("src").join("bin"));
        let mut outside = shared.clone();
        identifiers_under(&bins, &mut outside);
        let spec = root.join("crates/spec");
        for other in crates
            .iter()
            .filter(|other| *other != krate && **other != spec)
        {
            identifiers_under(&other.join("src"), &mut outside);
        }
        for_each_source(&src, &mut |path, source| {
            if path.starts_with(&bins) {
                return;
            }
            for (n, line) in source.lines().enumerate() {
                let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                    continue;
                };
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                let allowed = UNCALLED_PUB_FNS.iter().any(|(allowed, _)| *allowed == name);
                if !outside.contains(&name) && !allowed {
                    let at = path.strip_prefix(root).unwrap_or(path).display();
                    unnamed.push(format!("{at}:{}: {name}", n + 1));
                }
            }
        });
    }
    assert!(
        unnamed.is_empty(),
        "`pub fn`s no other crate, example or benchmark names: make each \
         `pub(crate)` (or delete it), or list it in UNCALLED_PUB_FNS with a reason:\n{}",
        unnamed.join("\n")
    );
}

/// The executable specification (`crates/spec`) is a test reference, never
/// part of the product: every manifest may name `capmaestro-spec` only as
/// a dev-dependency.
#[test]
fn the_spec_crate_is_only_a_dev_dependency() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let manifest = krate.expect("readable dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    let (mut dev_uses, mut offenders) = (0, Vec::new());
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).expect("readable manifest");
        let mut section = String::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or_default().trim();
            if let Some(header) = line.strip_prefix('[') {
                section = header.trim_end_matches(']').trim().to_string();
                // `[dev-dependencies.capmaestro-spec]` table form.
                if let Some(table) = section.strip_suffix(".capmaestro-spec") {
                    let at = format!("{}:{}", manifest.display(), n + 1);
                    if table == "dev-dependencies" { dev_uses += 1 } else { offenders.push(at) }
                }
                continue;
            }
            let key = line.split(['=', '.']).next().unwrap_or_default().trim();
            if key == "capmaestro-spec" {
                if section == "dev-dependencies" {
                    dev_uses += 1;
                } else {
                    offenders.push(format!("{}:{} [{section}]", manifest.display(), n + 1));
                }
            }
        }
    }
    // The check is live: the suites that compare against the spec use it.
    assert!(dev_uses > 0, "no manifest takes capmaestro-spec as a dev-dependency");
    assert!(
        offenders.is_empty(),
        "capmaestro-spec outside [dev-dependencies]:\n{}",
        offenders.join("\n")
    );
}

/// The leaf-control ladder (sense → estimate → stale-hold → fail-safe →
/// PI-cap) has one home, `core::leaf`, which both round loops drive.
/// Outside comments and `#[cfg(test)]`, nothing else under
/// `crates/core/src` may name the estimator or the capping controller —
/// only their defining modules and the crate-root re-exports — so a third
/// copy of the ladder cannot grow back unnoticed.
#[test]
fn only_leaf_rs_drives_the_estimator_and_capping_controller() {
    const NAMES: [&str; 5] = [
        "DemandEstimator",
        "CappingController",
        "push_screened",
        "update_pairs",
        "force_dc_cap",
    ];
    const HOMES: [&str; 4] = ["leaf.rs", "estimator.rs", "capping.rs", "lib.rs"];
    let core_src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut offenders = Vec::new();
    for_each_source(&core_src, &mut |path, source| {
        if HOMES.iter().any(|home| path == core_src.join(home)) {
            return;
        }
        let product = source.split("#[cfg(test)]").next().unwrap_or_default();
        for (n, line) in product.lines().enumerate() {
            let code = !line.trim_start().starts_with("//");
            for name in NAMES.iter().filter(|name| code && line.contains(**name)) {
                offenders.push(format!("{}:{}: {name}", path.display(), n + 1));
            }
        }
    });
    // The grep is live: the one allowed driver does name all of them.
    let leaf = std::fs::read_to_string(core_src.join("leaf.rs")).expect("crates/core/src/leaf.rs");
    assert!(NAMES.iter().all(|name| leaf.contains(name)));
    assert!(
        offenders.is_empty(),
        "leaf-control types used outside core::leaf:\n{}",
        offenders.join("\n")
    );
}
