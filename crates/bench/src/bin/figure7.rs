//! Figure 7: sensitivity to batch size, model size, micro-batches.
//! The text comes from `freeride_bench::paper::figure7`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::paper::figure7);
}
