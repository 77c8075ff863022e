//! Figure 8: the GPU resource-limit demonstrations.
//! The text comes from `freeride_bench::paper::figure8`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::paper::figure8);
}
