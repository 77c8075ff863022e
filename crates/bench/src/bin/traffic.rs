//! Open-loop multi-tenant traffic against the service front-end.
//! The text comes from `freeride_bench::traffic::render`.

#![forbid(unsafe_code)]

fn main() {
    freeride_bench::run(freeride_bench::traffic::render);
}
