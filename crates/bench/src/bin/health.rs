//! One fault trace under every supervision level.
//! The text comes from `freeride_bench::health::render`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::health::render);
}
