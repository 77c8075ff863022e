//! Output-identity pin for the real side-task kernels.
//!
//! Every built-in workload runs 400 steps at three seeds, and the values
//! its steps return are reduced to an FNV-1a digest of their bits. The
//! resize and matrix-product kernels are also pinned on shapes the
//! workloads never use. The constants were captured before the kernels
//! were rewritten for speed, so a rewrite that adds, drops or reorders a
//! single floating-point term fails here.

mod common;

use common::Fnv;
use freeride::sim::DetRng;
use freeride::tasks::{CsrGraph, Image, Matrix, PageRank, WorkloadKind};

/// Digest of the first 400 step values of `kind` built at `seed`.
fn steps_digest(kind: WorkloadKind, seed: u64) -> u64 {
    let mut task = kind.build(seed);
    task.create();
    task.init_gpu();
    let mut h = Fnv::new();
    for _ in 0..400 {
        h.word(task.run_step().to_bits());
    }
    h.finish()
}

/// Asserts the digests of `kind` at seeds 1, 7 and 99.
fn assert_steps_pinned(kind: WorkloadKind, expected: [u64; 3]) {
    let actual = [1, 7, 99].map(|seed| steps_digest(kind, seed));
    assert_eq!(
        actual.map(|d| format!("{d:#018x}")),
        expected.map(|d| format!("{d:#018x}")),
        "{kind:?} at seeds 1, 7, 99"
    );
}

#[test]
fn resnet18_steps_are_pinned() {
    assert_steps_pinned(
        WorkloadKind::ResNet18,
        [0xc7f2e1c8de56232c, 0xb2c7083bf82d2d47, 0x69e789dd9abc3710],
    );
}

#[test]
fn resnet50_steps_are_pinned() {
    assert_steps_pinned(
        WorkloadKind::ResNet50,
        [0xdd3aad37234483b2, 0x107a19dcbd9f2791, 0x630b2b11576c17fb],
    );
}

#[test]
fn vgg19_steps_are_pinned() {
    assert_steps_pinned(
        WorkloadKind::Vgg19,
        [0xab19a5658998a755, 0xee01e72d6d0f9756, 0x090d8591605f2998],
    );
}

#[test]
fn pagerank_steps_are_pinned() {
    assert_steps_pinned(
        WorkloadKind::PageRank,
        [0x25e3a7ef533eb394, 0x43a762dbd20bbb60, 0xe3fdab4c5622756e],
    );
}

/// Digest of 1,000 PageRank steps on a power-law graph: every returned
/// delta, then `last_delta`, `iterations` and every rank.
fn pagerank_digest(nodes: usize, seed: u64) -> u64 {
    let graph = CsrGraph::power_law(nodes, 4, &mut DetRng::seed_from_u64(seed));
    let mut pr = PageRank::new(graph);
    let mut h = Fnv::new();
    for _ in 0..1000 {
        h.word(pr.step().to_bits());
    }
    h.word(pr.last_delta().to_bits());
    h.word(pr.iterations());
    for r in pr.ranks() {
        h.word(r.to_bits());
    }
    h.finish()
}

/// The rank vector falls into a bit-exact limit cycle after 58–80 steps,
/// which `PageRank` then replays. One graph per cycle length seen, with
/// digests captured while every step was still computed, so replaying any
/// period must read back exactly what recomputing it did.
#[test]
fn pagerank_cycles_are_pinned() {
    let cases: [((usize, u64), u64, &str); 5] = [
        ((1000, 1), 0x1ae5cd9fce702b21, "period 2"),
        ((1000, 84), 0xff56fe104ea8d871, "period 4"),
        ((1000, 5), 0x252e2f540dbd8189, "period 6"),
        ((100, 5), 0x3b15d5cb2a120319, "period 1"),
        ((300, 50), 0x3e1803fdd82f5f5b, "period 10"),
    ];
    for ((nodes, seed), expected, period) in cases {
        assert_eq!(
            format!("{:#018x}", pagerank_digest(nodes, seed)),
            format!("{expected:#018x}"),
            "{nodes} nodes, seed {seed} ({period})"
        );
    }
}

#[test]
fn graph_sgd_steps_are_pinned() {
    assert_steps_pinned(
        WorkloadKind::GraphSgd,
        [0xcefce192c1d2a5eb, 0xa99bb933ad06b863, 0x5a2514ffb13f2d99],
    );
}

#[test]
fn image_steps_are_pinned() {
    assert_steps_pinned(
        WorkloadKind::ImageProc,
        [0xbd1be61621d5dc06, 0xab788b94eb69367a, 0xfd4d062dfe332608],
    );
}

/// Asserts that 400 steps of `kind` taken in uneven chunks through
/// `run_steps`, as the middleware batches a task's charged steps, end on
/// the bits of the 400th `run_step` value at seeds 1, 7 and 99. The
/// constants were captured while every step ran singly.
fn assert_chunked_steps_pinned(kind: WorkloadKind, expected: [u64; 3]) {
    let actual = [1, 7, 99].map(|seed| {
        let mut task = kind.build(seed);
        task.create();
        task.init_gpu();
        let mut last = None;
        for n in [1, 2, 7, 128, 262] {
            last = task.run_steps(n);
        }
        assert_eq!(task.steps_done(), 400, "{kind:?} at seed {seed}");
        last.map_or(0, f64::to_bits)
    });
    assert_eq!(
        actual.map(|d| format!("{d:#018x}")),
        expected.map(|d| format!("{d:#018x}")),
        "{kind:?} at seeds 1, 7, 99"
    );
}

#[test]
fn resnet18_chunked_steps_are_pinned() {
    assert_chunked_steps_pinned(
        WorkloadKind::ResNet18,
        [0x3fe4659d8cc178f9, 0x3fe25d9c3d23b41f, 0x3fe3eca00f96597a],
    );
}

#[test]
fn resnet50_chunked_steps_are_pinned() {
    assert_chunked_steps_pinned(
        WorkloadKind::ResNet50,
        [0x3fe502cc91fd51c1, 0x3fe48f0cb81673b3, 0x3fe0598c727010d0],
    );
}

#[test]
fn vgg19_chunked_steps_are_pinned() {
    assert_chunked_steps_pinned(
        WorkloadKind::Vgg19,
        [0x3fdeea69b84b8012, 0x3fe238ad1abdf51f, 0x3fda6506a4a8704d],
    );
}

#[test]
fn pagerank_chunked_steps_are_pinned() {
    assert_chunked_steps_pinned(
        WorkloadKind::PageRank,
        [0x3c84400000000000, 0x3c7c600000000000, 0x3c85280000000000],
    );
}

#[test]
fn graph_sgd_chunked_steps_are_pinned() {
    assert_chunked_steps_pinned(
        WorkloadKind::GraphSgd,
        [0x3fa964d417ed247a, 0x3faa064ced0b582e, 0x3fa8edf3eace5289],
    );
}

#[test]
fn image_chunked_steps_are_pinned() {
    assert_chunked_steps_pinned(
        WorkloadKind::ImageProc,
        [0x405fac638e38e38e, 0x405ff871c71c71c7, 0x405ff5dc71c71c72],
    );
}

fn image_digest(img: &Image) -> u64 {
    let mut h = Fnv::new();
    for y in 0..img.height() {
        for x in 0..img.width() {
            for c in 0..3 {
                h.bytes(&[img.get(x, y, c)]);
            }
        }
    }
    h.finish()
}

#[test]
fn resize_is_pinned_on_odd_scales() {
    let mut rng = DetRng::seed_from_u64(5);
    let img = Image::synthetic(64, 48, &mut rng);
    assert_eq!(image_digest(&img), 0xfcb785784c34a13a, "source image");
    let down = img.resize(37, 29);
    assert_eq!((down.width(), down.height()), (37, 29));
    assert_eq!(image_digest(&down), 0xd06655cb30c42ddf, "64x48 -> 37x29");
    let up = img.resize(131, 97);
    assert_eq!((up.width(), up.height()), (131, 97));
    assert_eq!(image_digest(&up), 0x37c68d6d98499e37, "64x48 -> 131x97");
}

/// Digest of a matrix's shape and every element's bits.
fn matrix_digest(m: &Matrix) -> u64 {
    let mut h = Fnv::new();
    h.word(m.rows() as u64);
    h.word(m.cols() as u64);
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            h.word(m.get(r, c).to_bits());
        }
    }
    h.finish()
}

#[test]
fn matmul_is_pinned_with_skipped_zeros() {
    let mut rng = DetRng::seed_from_u64(11);
    let mut a = Matrix::random(5, 7, &mut rng);
    // Exact zeros, one of them negative, take the skip path.
    for (r, c) in [(0, 0), (1, 3), (4, 6), (2, 2)] {
        a.set(r, c, 0.0);
    }
    a.set(3, 1, -0.0);
    let b = Matrix::random(7, 3, &mut rng);
    assert_eq!(matrix_digest(&a.matmul(&b)), 0x6fba2345409425f7);
}

#[test]
fn matmul_accepts_empty_operands() {
    // A zero-wide operand has zero-length rows: a kernel that walks rows
    // with `chunks_exact` panics here.
    let inner_empty = Matrix::zeros(3, 0).matmul(&Matrix::zeros(0, 4));
    assert_eq!((inner_empty.rows(), inner_empty.cols()), (3, 4));
    assert_eq!(matrix_digest(&inner_empty), 0x764dd881414c8722);
    let narrow = Matrix::zeros(3, 4).matmul(&Matrix::zeros(4, 0));
    assert_eq!((narrow.rows(), narrow.cols()), (3, 0));
    assert_eq!(matrix_digest(&narrow), 0xd71e358174147ca6);
    let flat = Matrix::zeros(0, 4).matmul(&Matrix::zeros(4, 2));
    assert_eq!((flat.rows(), flat.cols()), (0, 2));
    assert_eq!(matrix_digest(&flat), 0xc615adcb76ddf8a7);
}
