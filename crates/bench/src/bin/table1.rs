//! Table 1: side-task throughput on bubbles, Server-II and CPU.
//! The text comes from `freeride_bench::paper::table1`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::paper::table1);
}
