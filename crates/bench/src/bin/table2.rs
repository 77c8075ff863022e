//! Table 2: time increase `I` and cost savings `S`, four methods.
//! The text comes from `freeride_bench::paper::table2`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::paper::table2);
}
