//! Multi-job cluster scaling: job count x placement policy.
//! The text comes from `freeride_bench::cluster::render`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::cluster::render);
}
