//! Heterogeneous fleets: fleet mix x placement policy.
//! The text comes from `freeride_bench::hetero::render`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::hetero::render);
}
