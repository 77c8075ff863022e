//! Figure 9: bubble time breakdown.
//! The text comes from `freeride_bench::paper::figure9`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::paper::figure9);
}
