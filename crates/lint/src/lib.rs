//! `freeride-lint`: the determinism-contract static analyzer.
//!
//! The workspace's load-bearing guarantee is byte-identical simulation
//! output for any `--threads`, traced or untraced. That guarantee rests
//! on conventions — no wall-clock reads in sim crates, no ambient RNG,
//! ordered collections only, `#[non_exhaustive]` error/event enums — that
//! runtime determinism sweeps only catch twenty minutes after a diff
//! lands. This crate mechanizes them as diff-time checks:
//!
//! | rule | contract |
//! |------|----------|
//! | `no-wall-clock` | `Instant::now`/`SystemTime` only under waiver |
//! | `no-ambient-rng` | `thread_rng`/`rand::random`/`from_entropy`/`OsRng` banned everywhere |
//! | `no-hash-collections` | `HashMap`/`HashSet` banned everywhere |
//! | `panic-discipline` | panic sites budgeted per crate by `lint-baseline.json`, ratcheting down |
//! | `forbid-unsafe-everywhere` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `non-exhaustive-vocabulary` | error/event vocabulary enums are `#[non_exhaustive]` |
//! | `waiver-discipline` | waivers are well-formed, justified, and in use |
//! | `vendor-integrity` | `vendor/` matches the committed `vendor-manifest.json` |
//!
//! Silencing a rule at a site takes an inline waiver with a mandatory
//! reason, on the offending line or the line above:
//!
//! ```text
//! // freeride: allow(no-wall-clock) -- bench harness measures real time
//! let start = Instant::now();
//! ```
//!
//! The analyzer is deliberately dependency-free — its own hand-rolled
//! tokenizer (comment-, string-, and raw-string-aware; no `syn`), a tiny
//! JSON subset for its two artifacts, and nothing else — so it builds
//! offline and can never destabilize the crates it polices.
//!
//! The `freeride-analyze` binary walks the workspace (skipping `vendor/`
//! and `target/`), prints `file:line: rule — message` findings plus a
//! per-crate summary table, and exits nonzero on any new violation. See
//! the repository README ("Static analysis") for the operator guide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod vendor;
pub mod waiver;

pub use engine::{analyze_source, analyze_workspace, FileReport, WorkspaceReport};
pub use lexer::{lex, TokKind, Token};
pub use rules::{Finding, KNOWN_RULES};
