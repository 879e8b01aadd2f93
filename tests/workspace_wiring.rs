//! Workspace-wiring smoke tests: the manifests must keep every
//! experiment binary, bench, and example both *present on
//! disk* and *declared/discoverable* so `cargo build --workspace
//! --all-targets` (run in CI) compiles all of them. A deleted or
//! renamed target file fails here immediately instead of silently
//! vanishing from the build.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of the `ldp` package is the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_file_stems(dir: &Path) -> BTreeSet<String> {
    let mut stems = BTreeSet::new();
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|x| x == "rs") {
            stems.insert(
                path.file_stem()
                    .expect("file stem")
                    .to_string_lossy()
                    .into_owned(),
            );
        }
    }
    stems
}

/// The 15 exp_* binaries DESIGN.md indexes, plus the ldp-sim demo.
const EXPECTED_EXPERIMENTS: [&str; 16] = [
    "exp_a1_oracle_params",
    "exp_a2_postprocess",
    "exp_a3_range_queries",
    "exp_e1_rr",
    "exp_e2_fo_variance",
    "exp_e3_rappor",
    "exp_e4_apple_cms",
    "exp_e5_microsoft",
    "exp_e6_heavy_hitters",
    "exp_e7_marginals",
    "exp_e8_spatial",
    "exp_e9_hybrid",
    "exp_e10_graph",
    "exp_e11_central_vs_local",
    "exp_e12_rounds",
    "ldp_sim",
];

#[test]
fn every_experiment_binary_is_present() {
    let mut found = rust_file_stems(&repo_root().join("crates/bench/src/bin"));
    // The demo simulator lives in the facade crate, not ldp-bench.
    assert!(
        repo_root().join("src/bin/ldp-sim.rs").is_file(),
        "src/bin/ldp-sim.rs missing"
    );
    found.insert("ldp_sim".to_string());
    let expected: BTreeSet<String> = EXPECTED_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, expected,
        "experiment binaries drifted from DESIGN.md's index \
         (update DESIGN.md, EXPERIMENTS.md, and this list together)"
    );
}

#[test]
fn every_bench_is_present_and_declared() {
    let root = repo_root();
    let found = rust_file_stems(&root.join("crates/bench/benches"));
    let expected: BTreeSet<String> = ["aggregate_throughput"].map(String::from).into();
    assert_eq!(found, expected, "bench files drifted");

    // A bench with its own `fn main` only builds if the manifest declares
    // it with `harness = false`; discovery alone would wire in the
    // default libtest harness and run no code of the bench.
    let manifest = std::fs::read_to_string(root.join("crates/bench/Cargo.toml"))
        .expect("read crates/bench/Cargo.toml");
    for name in &expected {
        assert!(
            manifest.contains(&format!("name = \"{name}\"")),
            "bench {name} not declared in crates/bench/Cargo.toml"
        );
    }
    assert_eq!(
        manifest.matches("harness = false").count(),
        expected.len(),
        "every [[bench]] needs harness = false"
    );
}

#[test]
fn every_example_is_present() {
    let found = rust_file_stems(&repo_root().join("examples"));
    let expected: BTreeSet<String> = [
        "app_usage",
        "checkpoint_restore",
        "emoji_keyboard",
        "itemset_mining",
        "location_heatmap",
        "mechanism_planner",
        "next_word",
        "quickstart",
        "url_telemetry",
    ]
    .map(String::from)
    .into();
    assert_eq!(found, expected, "examples drifted");
}

#[test]
fn docs_cited_by_crate_rustdoc_exist() {
    // crates/bench/Cargo.toml and crates/workloads/src/lib.rs cite
    // DESIGN.md and EXPERIMENTS.md; keep those references real.
    let root = repo_root();
    for doc in ["DESIGN.md", "EXPERIMENTS.md", "README.md", "ROADMAP.md"] {
        assert!(root.join(doc).is_file(), "{doc} missing from repo root");
    }
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    assert!(
        design.contains("Substitution table") && design.contains("Experiment index"),
        "DESIGN.md must keep the sections the crate docs point at"
    );
}

#[test]
fn workspace_manifest_declares_all_members() {
    let manifest =
        std::fs::read_to_string(repo_root().join("Cargo.toml")).expect("read root Cargo.toml");
    for member in [
        "crates/core",
        "crates/sketch",
        "crates/rappor",
        "crates/apple",
        "crates/microsoft",
        "crates/analytics",
        "crates/workloads",
        "crates/bench",
        "vendor/rand",
        "vendor/proptest",
    ] {
        // A member builds a library or, like crates/bench, only binaries.
        let dir = repo_root().join(member);
        assert!(
            dir.join("Cargo.toml").is_file()
                && (dir.join("src/lib.rs").is_file() || dir.join("src/bin").is_dir()),
            "{member} must stay a buildable workspace member"
        );
        // Globs cover crates/* and vendor/*; a member is wired either
        // by glob or by an explicit path in workspace.dependencies.
        assert!(
            manifest.contains(&format!("path = \"{member}\""))
                || manifest.contains("\"crates/*\"") && member.starts_with("crates/")
                || manifest.contains("\"vendor/*\"") && member.starts_with("vendor/"),
            "{member} not reachable from the workspace manifest"
        );
    }
}
