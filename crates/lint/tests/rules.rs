//! Fixture-driven integration tests for the determinism-contract rules,
//! plus the meta-test that keeps the live workspace itself clean.
//!
//! Each fixture under `tests/fixtures/` is a deliberate positive or
//! negative case. Fixtures are fed to [`analyze_source`] under synthetic
//! repo-relative paths, because path placement (library vs `tests/`,
//! crate root or not) is part of the panic and unsafe rules' contract.
//! The workspace walker never descends into `fixtures/` directories, so
//! the deliberate violations here can never pollute the real report.

use freeride_lint::rules::{
    FORBID_UNSAFE, NON_EXHAUSTIVE_VOCAB, NO_AMBIENT_RNG, NO_HASH_COLLECTIONS, NO_WALL_CLOCK,
    WAIVER_DISCIPLINE,
};
use freeride_lint::{analyze_source, FileReport};

/// A sim-facing library path: every rule is live here.
const SIM_PATH: &str = "crates/core/src/fixture.rs";

fn rules_fired(report: &FileReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn wall_clock_fires_per_site() {
    let src = include_str!("fixtures/wall_clock_fires.rs");
    let report = analyze_source(SIM_PATH, src);
    assert_eq!(rules_fired(&report), vec![NO_WALL_CLOCK, NO_WALL_CLOCK]);
    let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5, 6], "one finding per read, at its own line");
}

#[test]
fn wall_clock_waivers_suppress() {
    let src = include_str!("fixtures/wall_clock_waived.rs");
    let report = analyze_source(SIM_PATH, src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn ambient_rng_fires_on_all_forms_even_in_tests() {
    let src = include_str!("fixtures/ambient_rng_fires.rs");
    // The rule has no allowlist: a test path is just as much a violation.
    for path in [SIM_PATH, "crates/core/tests/fixture.rs"] {
        let report = analyze_source(path, src);
        assert_eq!(
            rules_fired(&report),
            vec![NO_AMBIENT_RNG; 4],
            "at {path}: {:?}",
            report.findings
        );
    }
}

#[test]
fn seeded_rng_is_clean() {
    let src = include_str!("fixtures/ambient_rng_clean.rs");
    let report = analyze_source(SIM_PATH, src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn hash_collections_fire_per_mention() {
    let src = include_str!("fixtures/hash_collections_fires.rs");
    let report = analyze_source(SIM_PATH, src);
    // Three mentions each of HashMap and HashSet: use, signature, body.
    assert_eq!(rules_fired(&report), vec![NO_HASH_COLLECTIONS; 6]);
}

#[test]
fn hash_names_in_comments_never_fire() {
    // Regression: crates/sim/src/event.rs's module docs once mentioned a
    // `HashSet<u64>` in prose; the rule must read tokens, not prose.
    let src = include_str!("fixtures/hash_in_doc_comment.rs");
    let report = analyze_source("crates/sim/src/fixture.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn panic_sites_counted_outside_cfg_test_only() {
    let src = include_str!("fixtures/panic_sites.rs");
    let report = analyze_source(SIM_PATH, src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let kinds: Vec<&str> = report.panic_sites.iter().map(|(_, w)| w.as_str()).collect();
    assert_eq!(
        kinds,
        vec!["unwrap", "expect", "panic", "unreachable"],
        "cfg(test) sites and unwrap_or* must not count"
    );
}

#[test]
fn panic_sites_exempt_on_test_paths() {
    let src = include_str!("fixtures/panic_sites.rs");
    let report = analyze_source("crates/core/tests/fixture.rs", src);
    assert!(report.panic_sites.is_empty(), "{:?}", report.panic_sites);
}

#[test]
fn forbid_unsafe_required_at_crate_roots() {
    let missing = include_str!("fixtures/forbid_unsafe_missing.rs");
    let report = analyze_source("crates/core/src/lib.rs", missing);
    assert_eq!(rules_fired(&report), vec![FORBID_UNSAFE]);

    // The same file is fine when it is not a crate root…
    let report = analyze_source(SIM_PATH, missing);
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    // …and a root carrying the attribute is fine everywhere.
    let present = include_str!("fixtures/forbid_unsafe_present.rs");
    for root in [
        "crates/core/src/lib.rs",
        "crates/lint/src/main.rs",
        "crates/bench/src/bin/table1.rs",
    ] {
        let report = analyze_source(root, present);
        assert!(
            report.findings.is_empty(),
            "at {root}: {:?}",
            report.findings
        );
    }
}

#[test]
fn vocabulary_enums_must_be_non_exhaustive() {
    let missing = include_str!("fixtures/non_exhaustive_missing.rs");
    let report = analyze_source(SIM_PATH, missing);
    assert_eq!(rules_fired(&report), vec![NON_EXHAUSTIVE_VOCAB]);
    assert!(report.findings[0].message.contains("SubmitError"));

    let present = include_str!("fixtures/non_exhaustive_present.rs");
    let report = analyze_source(SIM_PATH, present);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn tokenizer_traps_yield_zero_findings() {
    let src = include_str!("fixtures/tokenizer_traps.rs");
    let report = analyze_source(SIM_PATH, src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.panic_sites.is_empty(), "{:?}", report.panic_sites);
}

#[test]
fn waiver_discipline_catches_bad_waivers() {
    let src = include_str!("fixtures/waiver_bad.rs");
    let report = analyze_source(SIM_PATH, src);
    assert_eq!(rules_fired(&report), vec![WAIVER_DISCIPLINE; 3]);
    let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages[0].contains("malformed"), "{messages:?}");
    assert!(messages[1].contains("not-a-rule"), "{messages:?}");
    assert!(messages[2].contains("stale"), "{messages:?}");
}

/// The meta-test: the live workspace must be clean under its own
/// analyzer — zero rule findings, every crate at or under its committed
/// panic budget, and `vendor/` matching the committed manifest. This is
/// what lets `cargo test` alone catch a determinism-contract regression
/// even when nobody runs `freeride-analyze` by hand.
#[test]
fn live_workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");

    let report = freeride_lint::analyze_workspace(&root).expect("workspace walks");
    assert!(
        report.findings.is_empty(),
        "live workspace has rule findings: {:#?}",
        report.findings
    );

    let budgets = freeride_lint::baseline::load(&root).expect("baseline parses");
    assert!(
        !budgets.is_empty(),
        "lint-baseline.json is missing; run freeride-analyze --update-baseline"
    );
    for (name, &count) in &report.panic_counts {
        let budget = budgets.get(name).copied().unwrap_or(0);
        assert!(
            count <= budget,
            "crate {name} has {count} panic sites against a budget of {budget}"
        );
    }

    let manifest = freeride_lint::vendor::load(&root)
        .expect("manifest parses")
        .expect("vendor-manifest.json is missing; run --update-vendor-manifest");
    let current = freeride_lint::vendor::hash_vendor(&root).expect("vendor hashes");
    let drift = freeride_lint::vendor::diff(&current, &manifest);
    assert!(drift.is_empty(), "vendor drift: {drift:#?}");
}
