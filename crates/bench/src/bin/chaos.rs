//! One fault trace under every resilience mechanism.
//! The text comes from `freeride_bench::chaos::render`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::chaos::render);
}
