//! Figure 1: a pipeline training epoch, its bubbles and stage memory.
//! The text comes from `freeride_bench::paper::figure1`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::paper::figure1);
}
