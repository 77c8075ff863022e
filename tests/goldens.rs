//! Golden text of every experiment bin.
//!
//! Each entry of `freeride_bench::EXPERIMENTS` renders the text its bin
//! prints, at 2 epochs and at `--threads 1` and `4`, and must equal the
//! committed `tests/goldens/<name>.txt` byte for byte. The goldens hold
//! the paper's tables and figures as this reproduction prints them, so a
//! change to any simulated number, or to how a thread count schedules
//! the sweep, fails here with the first line that moved.
//!
//! A mismatch writes the rendered text to `CARGO_TARGET_TMPDIR`. If the
//! change is intended, copy that file over the golden and show the diff
//! with the change.

#![forbid(unsafe_code)]

use freeride_bench::{BenchArgs, EXPERIMENTS};
use std::path::{Path, PathBuf};

const EPOCHS: usize = 2;

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// The first line where `rendered` leaves `golden`, 1-based.
fn first_difference(golden: &str, rendered: &str) -> String {
    let golden: Vec<&str> = golden.split('\n').collect();
    let rendered: Vec<&str> = rendered.split('\n').collect();
    match (0..golden.len().max(rendered.len())).find(|&i| golden.get(i) != rendered.get(i)) {
        Some(i) => format!(
            "line {}: golden {:?}, rendered {:?}",
            i + 1,
            golden.get(i),
            rendered.get(i)
        ),
        None => "no line differs".to_string(),
    }
}

#[test]
fn every_experiment_renders_its_golden_at_one_and_four_threads() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("goldens");
    std::fs::create_dir_all(&out_dir).expect("create the rendered-text directory");
    let mut failures = Vec::new();
    for (name, experiment) in EXPERIMENTS {
        let path = goldens_dir().join(format!("{name}.txt"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for threads in [1, 4] {
            let rendered = experiment(&BenchArgs {
                epochs: EPOCHS,
                threads,
                seed: None,
            });
            if rendered != golden {
                let written = out_dir.join(format!("{name}.threads{threads}.txt"));
                std::fs::write(&written, &rendered).expect("write the rendered text");
                failures.push(format!(
                    "{name} at --threads {threads}: {} (rendered text in {})",
                    first_difference(&golden, &rendered),
                    written.display()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // Every experiment's golden was read above, so an extra file is one
    // no experiment renders.
    let files = std::fs::read_dir(goldens_dir()).expect("list tests/goldens");
    assert_eq!(
        files.count(),
        EXPERIMENTS.len(),
        "a golden without an experiment"
    );
}

/// Every bin prints an experiment's text, so every bin's output is
/// pinned above.
#[test]
fn every_bin_is_an_experiment() {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/bin");
    let mut bins: Vec<String> = std::fs::read_dir(&bin_dir)
        .expect("list crates/bench/src/bin")
        .map(|entry| {
            let path = entry.expect("read a bin entry").path();
            let stem = path.file_stem().expect("a bin file has a stem");
            stem.to_string_lossy().into_owned()
        })
        .collect();
    bins.sort();
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    assert_eq!(bins, names, "a bin without an experiment");
}
