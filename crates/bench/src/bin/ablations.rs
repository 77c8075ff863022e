//! Ablations of FreeRide's design choices.
//! The text comes from `freeride_bench::paper::ablations`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::paper::ablations);
}
