//! Figure 2: bubble shapes and rates under different model sizes.
//! The text comes from `freeride_bench::paper::figure2`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::paper::figure2);
}
