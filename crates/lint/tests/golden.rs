//! Golden fixture tests: each known-bad fixture pins its exact diagnostics
//! (rule + line), and each allowlisted fixture must come back clean. The
//! fixtures live under `tests/fixtures/` — a directory the workspace walk
//! explicitly skips, because they violate the rules by design.

use cia_lint::lint_source;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// (rule, line) pairs of the diagnostics, in report order.
fn fired(path: &str, src: &str) -> Vec<(String, usize)> {
    lint_source(path, src).into_iter().map(|d| (d.rule.to_string(), d.line)).collect()
}

#[test]
fn bad_determinism_fires_every_token_rule_exactly_once() {
    let src = fixture("bad/determinism.rs");
    // Linted as if it lived in a deterministic-path crate, where all of
    // D01/D02/D03/D05/D06/D07 apply.
    let got = fired("crates/core/src/fixture.rs", &src);
    let want = vec![
        ("D01".to_string(), 8),  // `HashMap::new()` (the `use` line is exempt)
        ("D02".to_string(), 18), // `Instant::now()`
        ("D03".to_string(), 23), // `StdRng::from_entropy()`
        ("D05".to_string(), 27), // `x as u32`
        ("D06".to_string(), 31), // `std::thread::spawn`
        ("D07".to_string(), 35), // `.sum::<f32>()`
    ];
    assert_eq!(got, want);
}

#[test]
fn diagnostics_carry_span_accurate_columns() {
    let src = fixture("bad/determinism.rs");
    let diags = lint_source("crates/core/src/fixture.rs", &src);
    let d05 = diags.iter().find(|d| d.rule == "D05").expect("D05 fires");
    // `    x as u32` — the `as` keyword starts at column 7.
    assert_eq!((d05.line, d05.col), (27, 7));
    assert_eq!(d05.snippet, "x as u32");
}

#[test]
fn relaxed_crates_skip_the_det_path_rules_but_not_the_global_ones() {
    let src = fixture("bad/determinism.rs");
    // cia-bench is not on the deterministic path: D01/D07 must not fire,
    // while the globally-scoped rules still do.
    let got = fired("crates/bench/src/fixture.rs", &src);
    let want = vec![
        ("D02".to_string(), 18),
        ("D03".to_string(), 23),
        ("D05".to_string(), 27),
        ("D06".to_string(), 31),
    ];
    assert_eq!(got, want);
}

#[test]
fn bad_unsafe_block_without_safety_comment_fires_d04() {
    let src = fixture("bad/unsafe_block.rs");
    // D04 applies everywhere, deterministic path or not.
    let got = fired("crates/data/src/fixture.rs", &src);
    assert_eq!(got, vec![("D04".to_string(), 6)]);
}

#[test]
fn bad_nan_comparators_fire_d08_at_the_partial_cmp() {
    let src = fixture("bad/nan_comparator.rs");
    // D08 applies everywhere, deterministic path or not.
    let got = fired("crates/data/src/fixture.rs", &src);
    assert_eq!(got, vec![("D08".to_string(), 4), ("D08".to_string(), 9)]);
}

#[test]
fn bad_allow_comments_fire_the_meta_rules() {
    let src = fixture("bad/stale_allow.rs");
    let got = fired("crates/core/src/fixture.rs", &src);
    let want = vec![
        ("L00".to_string(), 4),  // reason missing
        ("L01".to_string(), 7),  // suppresses nothing
        ("L00".to_string(), 10), // unknown rule ID
    ];
    assert_eq!(got, want);
}

#[test]
fn clean_allowed_fixture_lints_clean_on_the_deterministic_path() {
    let src = fixture("clean/allowed.rs");
    let diags = lint_source("crates/gossip/src/fixture.rs", &src);
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

#[test]
fn clean_safety_fixture_accepts_both_safety_comment_shapes() {
    let src = fixture("clean/safety.rs");
    let diags = lint_source("crates/data/src/fixture.rs", &src);
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

#[test]
fn every_d_rule_has_a_pinned_true_positive() {
    // Union of the fixture expectations above must cover D01–D08 — the
    // acceptance bar for this suite. Recomputed here so a fixture edit
    // that silently drops a rule fails loudly.
    let mut seen: Vec<String> = Vec::new();
    for (path, name) in [
        ("crates/core/src/fixture.rs", "bad/determinism.rs"),
        ("crates/data/src/fixture.rs", "bad/unsafe_block.rs"),
        ("crates/data/src/fixture.rs", "bad/nan_comparator.rs"),
    ] {
        for d in lint_source(path, &fixture(name)) {
            seen.push(d.rule.to_string());
        }
    }
    for rule in ["D01", "D02", "D03", "D04", "D05", "D06", "D07", "D08"] {
        assert!(seen.iter().any(|r| r == rule), "no fixture true-positive for {rule}");
    }
}
