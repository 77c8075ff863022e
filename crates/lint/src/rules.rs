//! The determinism-contract rules.
//!
//! Every rule operates on the lexed token stream of one file (comments
//! already stripped), so prose in comments and rule keywords inside string
//! literals can never fire a rule. See the README's rule catalog for the
//! contract each rule enforces and the repository-wide context.

use crate::lexer::{TokKind, Token};

/// Rule: no wall-clock reads in simulation code.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule: no ambient (unseeded) randomness anywhere.
pub const NO_AMBIENT_RNG: &str = "no-ambient-rng";
/// Rule: no iteration-order-unstable collections.
pub const NO_HASH_COLLECTIONS: &str = "no-hash-collections";
/// Rule: panic sites in non-test code are budgeted per crate.
pub const PANIC_DISCIPLINE: &str = "panic-discipline";
/// Rule: every crate root carries `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE: &str = "forbid-unsafe-everywhere";
/// Rule: the error/event vocabulary enums are `#[non_exhaustive]`.
pub const NON_EXHAUSTIVE_VOCAB: &str = "non-exhaustive-vocabulary";
/// Rule: waivers are well-formed, justified, and actually used.
pub const WAIVER_DISCIPLINE: &str = "waiver-discipline";
/// Rule: vendored stand-ins match the committed manifest.
pub const VENDOR_INTEGRITY: &str = "vendor-integrity";

/// Every rule name a waiver may reference.
pub const KNOWN_RULES: [&str; 8] = [
    NO_WALL_CLOCK,
    NO_AMBIENT_RNG,
    NO_HASH_COLLECTIONS,
    PANIC_DISCIPLINE,
    FORBID_UNSAFE,
    NON_EXHAUSTIVE_VOCAB,
    WAIVER_DISCIPLINE,
    VENDOR_INTEGRITY,
];

/// The error/event vocabulary: public enums that cross the API boundary
/// and grow variants release over release, so they must be
/// `#[non_exhaustive]` to keep downstream matches from breaking.
const VOCAB_ENUMS: [&str; 10] = [
    "SubmitError",
    "OomError",
    "OomKind",
    "LaunchError",
    "TraceEventKind",
    "StopReason",
    "FaultKind",
    "RecoveryKind",
    "HealthState",
    "Placement",
];

/// One rule violation at a specific line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// 1-based line (0 for file- or crate-level findings).
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Everything the rules need to know about one file.
pub struct FileCtx<'a> {
    /// Repo-relative path with forward slashes (e.g. `crates/core/src/x.rs`).
    pub path: &'a str,
    /// Source text.
    pub src: &'a str,
    /// Code tokens: the lexed stream with comments filtered out.
    pub code: &'a [Token],
    /// True for integration tests, benches, and examples (path-based).
    pub is_test_code: bool,
    /// True for `src/lib.rs`, `src/main.rs`, and `src/bin/*.rs` files.
    pub is_crate_root: bool,
    /// Inclusive line ranges of `#[cfg(test)] mod … { … }` bodies.
    pub cfg_test_lines: Vec<(u32, u32)>,
}

impl FileCtx<'_> {
    fn in_cfg_test(&self, line: u32) -> bool {
        self.cfg_test_lines
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

/// Classifies `path` (repo-relative, `/`-separated) as test-ish code:
/// integration tests, benches, examples, and anything under a `tests`
/// directory (fixtures are skipped by the walker before this).
pub fn path_is_test_code(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Classifies `path` as a crate root: the file that must carry the
/// crate-wide `#![forbid(unsafe_code)]`.
pub fn path_is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs") || path.ends_with("src/main.rs") || path.contains("/src/bin/")
}

/// Computes the line ranges of `#[cfg(test)] mod name { … }` bodies so
/// panic-discipline can skip unit tests embedded in library files.
pub fn cfg_test_ranges(src: &str, code: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !is_cfg_test_attr(src, code, i) {
            i += 1;
            continue;
        }
        // Skip this and any further attribute groups, then expect a mod.
        let mut j = i;
        while j < code.len() && code[j].kind == TokKind::Punct('#') {
            match skip_attr(code, j) {
                Some(next) => j = next,
                None => break,
            }
        }
        if j + 2 < code.len()
            && code[j].is_ident(src, "mod")
            && code[j + 1].kind == TokKind::Ident
            && code[j + 2].kind == TokKind::Punct('{')
        {
            let open = j + 2;
            let mut depth = 0usize;
            let mut k = open;
            while k < code.len() {
                match code[k].kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let close_line = code.get(k).map_or(u32::MAX, |t| t.line);
            out.push((code[open].line, close_line));
            i = k;
        }
        i += 1;
    }
    out
}

/// True if `code[i..]` starts the exact attribute `#[cfg(test)]`.
fn is_cfg_test_attr(src: &str, code: &[Token], i: usize) -> bool {
    code.len() > i + 6
        && code[i].kind == TokKind::Punct('#')
        && code[i + 1].kind == TokKind::Punct('[')
        && code[i + 2].is_ident(src, "cfg")
        && code[i + 3].kind == TokKind::Punct('(')
        && code[i + 4].is_ident(src, "test")
        && code[i + 5].kind == TokKind::Punct(')')
        && code[i + 6].kind == TokKind::Punct(']')
}

/// If `code[i]` opens an attribute (`#[` or `#![`), returns the index just
/// past its closing `]`.
fn skip_attr(code: &[Token], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if code.get(j)?.kind == TokKind::Punct('!') {
        j += 1;
    }
    if code.get(j)?.kind != TokKind::Punct('[') {
        return None;
    }
    let mut depth = 0usize;
    while j < code.len() {
        match code[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// `no-wall-clock`: `Instant::now` and any `SystemTime` use are banned
/// everywhere. The simulation's only clock is [`SimTime`]; a wall-clock
/// read anywhere in sim state is a nondeterminism hole. The few sites
/// that measure host time (the obs wall-profiling seam in the
/// orchestrator, the bench harness) carry a justified waiver each.
///
/// [`SimTime`]: https://docs.rs/freeride-sim
pub fn no_wall_clock(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let code = ctx.code;
    for (i, tok) in code.iter().enumerate() {
        if tok.is_ident(ctx.src, "Instant") && matches_path_call(ctx.src, code, i, "now") {
            findings.push(Finding {
                rule: NO_WALL_CLOCK,
                line: tok.line,
                message: "`Instant::now()` reads the wall clock; simulation code must \
                          derive all time from `SimTime`"
                    .to_string(),
            });
        } else if tok.is_ident(ctx.src, "SystemTime") {
            findings.push(Finding {
                rule: NO_WALL_CLOCK,
                line: tok.line,
                message: "`SystemTime` reads the wall clock; simulation code must \
                          derive all time from `SimTime`"
                    .to_string(),
            });
        }
    }
}

/// True if `code[i]` is followed by `:: method`, i.e. the sequence
/// `<code[i]> :: method`.
fn matches_path_call(src: &str, code: &[Token], i: usize, method: &str) -> bool {
    code.len() > i + 3
        && code[i + 1].kind == TokKind::Punct(':')
        && code[i + 2].kind == TokKind::Punct(':')
        && code[i + 3].is_ident(src, method)
}

/// `no-ambient-rng`: `thread_rng`, `rand::random`, `from_entropy`, and
/// `OsRng` are banned everywhere — all randomness must flow from seeded
/// per-job streams, or two identical runs stop being identical.
pub fn no_ambient_rng(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let code = ctx.code;
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let text = tok.text(ctx.src);
        let hit = match text {
            "thread_rng" | "from_entropy" | "OsRng" => true,
            "rand" => matches_path_call(ctx.src, code, i, "random"),
            _ => false,
        };
        if hit {
            findings.push(Finding {
                rule: NO_AMBIENT_RNG,
                line: tok.line,
                message: format!(
                    "`{text}` draws ambient entropy; all randomness must come from \
                     seeded per-job streams (`SimRng`)"
                ),
            });
        }
    }
}

/// `no-hash-collections`: `HashMap`/`HashSet` are banned everywhere.
/// Their iteration order is randomized per process, so any state or
/// output that ever iterates one diverges across runs; use `BTreeMap`/
/// `BTreeSet`, or waive with a reason explaining why iteration order can
/// never observably leak.
pub fn no_hash_collections(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for tok in ctx.code {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let text = tok.text(ctx.src);
        if text == "HashMap" || text == "HashSet" {
            findings.push(Finding {
                rule: NO_HASH_COLLECTIONS,
                line: tok.line,
                message: format!(
                    "`{text}` has randomized iteration order; sim-facing crates must \
                     use `BTreeMap`/`BTreeSet` for reproducible runs"
                ),
            });
        }
    }
}

/// `panic-discipline`: returns the lines of panic sites (`.unwrap(`,
/// `.expect(`, `panic!`, `unreachable!`) in non-test code. Sites are
/// *counted* per crate against the committed `lint-baseline.json` ratchet
/// rather than reported individually — legacy debt is tolerated at its
/// recorded level and may only shrink.
pub fn panic_sites(ctx: &FileCtx<'_>) -> Vec<(u32, String)> {
    let mut sites = Vec::new();
    if ctx.is_test_code {
        return sites;
    }
    let code = ctx.code;
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokKind::Ident || ctx.in_cfg_test(tok.line) {
            continue;
        }
        let text = tok.text(ctx.src);
        let site = match text {
            "unwrap" | "expect" => {
                i > 0
                    && code[i - 1].kind == TokKind::Punct('.')
                    && code
                        .get(i + 1)
                        .is_some_and(|t| t.kind == TokKind::Punct('('))
            }
            "panic" | "unreachable" => code
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Punct('!')),
            _ => false,
        };
        if site {
            sites.push((tok.line, text.to_string()));
        }
    }
    sites
}

/// `forbid-unsafe-everywhere`: every crate root must carry
/// `#![forbid(unsafe_code)]` — the simulation's determinism argument
/// assumes no aliasing or data-race UB anywhere in the tree.
pub fn forbid_unsafe(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !ctx.is_crate_root {
        return;
    }
    let code = ctx.code;
    for i in 0..code.len() {
        if code[i].kind == TokKind::Punct('#')
            && code
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Punct('!'))
            && code
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Punct('['))
            && code
                .get(i + 3)
                .is_some_and(|t| t.is_ident(ctx.src, "forbid"))
            && code
                .get(i + 4)
                .is_some_and(|t| t.kind == TokKind::Punct('('))
            && code
                .get(i + 5)
                .is_some_and(|t| t.is_ident(ctx.src, "unsafe_code"))
        {
            return;
        }
    }
    findings.push(Finding {
        rule: FORBID_UNSAFE,
        line: 1,
        message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
    });
}

/// `non-exhaustive-vocabulary`: the public error/event vocabulary enums
/// must be `#[non_exhaustive]`, so adding a variant (which this tree does
/// every few PRs) is not a breaking change for downstream matches.
pub fn non_exhaustive_vocabulary(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let code = ctx.code;
    for i in 0..code.len() {
        if !(code[i].is_ident(ctx.src, "pub")
            && code.get(i + 1).is_some_and(|t| t.is_ident(ctx.src, "enum")))
        {
            continue;
        }
        let Some(name_tok) = code.get(i + 2) else {
            continue;
        };
        let name = name_tok.text(ctx.src);
        if name_tok.kind != TokKind::Ident || !VOCAB_ENUMS.contains(&name) {
            continue;
        }
        if !attrs_before(ctx.src, code, i, "non_exhaustive") {
            findings.push(Finding {
                rule: NON_EXHAUSTIVE_VOCAB,
                line: code[i].line,
                message: format!(
                    "vocabulary enum `{name}` must be `#[non_exhaustive]`: its variant \
                     set grows across releases"
                ),
            });
        }
    }
}

/// Walks attribute groups immediately preceding `code[item]` and reports
/// whether any contains the identifier `want`.
fn attrs_before(src: &str, code: &[Token], item: usize, want: &str) -> bool {
    let mut end = item; // exclusive: first token past the attrs
    while end > 0 && code[end - 1].kind == TokKind::Punct(']') {
        // Find the matching `[` backwards.
        let mut depth = 0usize;
        let mut j = end - 1;
        loop {
            match code[j].kind {
                TokKind::Punct(']') => depth += 1,
                TokKind::Punct('[') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return false; // unbalanced; give up
            }
            j -= 1;
        }
        if j == 0 || code[j - 1].kind != TokKind::Punct('#') {
            return false; // a `]` that is not an attribute (e.g. array)
        }
        if code[j..end - 1].iter().any(|t| t.is_ident(src, want)) {
            return true;
        }
        end = j - 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokKind};

    fn ctx_of<'a>(path: &'a str, src: &'a str, code: &'a [Token]) -> FileCtx<'a> {
        FileCtx {
            path,
            src,
            code,
            is_test_code: path_is_test_code(path),
            is_crate_root: path_is_crate_root(path),
            cfg_test_lines: cfg_test_ranges(src, code),
        }
    }

    fn code_tokens(src: &str) -> Vec<Token> {
        lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect()
    }

    #[test]
    fn path_classification() {
        assert!(path_is_test_code("tests/cluster.rs"));
        assert!(path_is_test_code("crates/core/benches/micro.rs"));
        assert!(path_is_test_code("examples/quickstart.rs"));
        assert!(!path_is_test_code("crates/core/src/manager.rs"));
        assert!(path_is_crate_root("crates/core/src/lib.rs"));
        assert!(path_is_crate_root("crates/lint/src/main.rs"));
        assert!(path_is_crate_root("crates/bench/src/bin/perf.rs"));
        assert!(!path_is_crate_root("crates/core/src/manager.rs"));
    }

    #[test]
    fn cfg_test_mod_bodies_are_ranged() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let code = code_tokens(src);
        let ranges = cfg_test_ranges(src, &code);
        assert_eq!(ranges, vec![(3, 5)]);
    }

    #[test]
    fn instant_elapsed_alone_is_not_flagged() {
        // Only the `::now` read is the violation; a passed-in Instant
        // value (e.g. through an API boundary) is not a *read*.
        let src = "fn f(t: Instant) -> Duration { t.elapsed() }";
        let code = code_tokens(src);
        let mut findings = Vec::new();
        no_wall_clock(&ctx_of("crates/core/src/x.rs", src, &code), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn vocabulary_enum_without_attr_fires() {
        let src = "#[derive(Debug)]\npub enum StopReason { Done }\n";
        let code = code_tokens(src);
        let mut findings = Vec::new();
        non_exhaustive_vocabulary(
            &ctx_of("crates/core/src/task.rs", src, &code),
            &mut findings,
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("StopReason"));
    }

    #[test]
    fn vocabulary_enum_with_attr_passes() {
        let src = "#[derive(Debug)]\n#[non_exhaustive]\npub enum StopReason { Done }\n";
        let code = code_tokens(src);
        let mut findings = Vec::new();
        non_exhaustive_vocabulary(
            &ctx_of("crates/core/src/task.rs", src, &code),
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn non_vocabulary_enum_is_ignored() {
        let src = "pub enum Whatever { A }\n";
        let code = code_tokens(src);
        let mut findings = Vec::new();
        non_exhaustive_vocabulary(&ctx_of("crates/core/src/x.rs", src, &code), &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn array_index_before_enum_is_not_an_attribute() {
        // `]` directly before the item that is not an attr must not
        // confuse the backward scan.
        let src = "const X: [u8; 1] = [0];\npub enum StopReason { Done }\n";
        let code = code_tokens(src);
        let mut findings = Vec::new();
        non_exhaustive_vocabulary(&ctx_of("crates/core/src/x.rs", src, &code), &mut findings);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn panic_sites_skip_cfg_test_and_count_all_four_forms() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   x.unwrap();\n\
                   x.expect(\"why\");\n\
                   panic!(\"boom\");\n\
                   unreachable!()\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn g(x: Option<u8>) { x.unwrap(); }\n\
                   }\n";
        let code = code_tokens(src);
        let ctx = ctx_of("crates/core/src/x.rs", src, &code);
        let sites = panic_sites(&ctx);
        assert_eq!(sites.len(), 4, "{sites:?}");
    }

    #[test]
    fn unwrap_or_is_not_a_panic_site() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap_or_default() }\n";
        let code = code_tokens(src);
        let ctx = ctx_of("crates/core/src/x.rs", src, &code);
        assert!(panic_sites(&ctx).is_empty());
    }

    #[test]
    fn test_paths_have_no_panic_budget() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        let code = code_tokens(src);
        let ctx = ctx_of("tests/e2e.rs", src, &code);
        assert!(panic_sites(&ctx).is_empty());
    }

    #[test]
    fn forbid_unsafe_checks_roots_only() {
        let src = "pub fn f() {}";
        let code = code_tokens(src);
        let mut findings = Vec::new();
        forbid_unsafe(&ctx_of("crates/core/src/lib.rs", src, &code), &mut findings);
        assert_eq!(findings.len(), 1);
        findings.clear();
        forbid_unsafe(
            &ctx_of("crates/core/src/manager.rs", src, &code),
            &mut findings,
        );
        assert!(findings.is_empty());

        let ok = "#![forbid(unsafe_code)]\npub fn f() {}";
        let code = code_tokens(ok);
        forbid_unsafe(&ctx_of("crates/core/src/lib.rs", ok, &code), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn ambient_rng_forms() {
        let src = "let a = thread_rng();\nlet b = rand::random::<u64>();\n\
                   let c = ChaCha8Rng::from_entropy();\nlet d = OsRng;\n";
        let code = code_tokens(src);
        let mut findings = Vec::new();
        no_ambient_rng(&ctx_of("crates/sim/src/rng.rs", src, &code), &mut findings);
        assert_eq!(findings.len(), 4, "{findings:?}");
        // `random` not behind `rand::` is someone's own seeded method.
        let src = "let x = self.random();";
        let code = code_tokens(src);
        findings.clear();
        no_ambient_rng(&ctx_of("crates/sim/src/rng.rs", src, &code), &mut findings);
        assert!(findings.is_empty());
    }
}
