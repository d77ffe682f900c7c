//! Bit-exact pin of the blocked GP kernels.
//!
//! `golden_flow` places a 500-cell design: one net block and one node
//! block, so the blocked wirelength and density decompositions never run
//! there. This test places a design large enough to split both kernels
//! into several blocks (more than 2,048 nets and more than 2,048 movable
//! nodes) and pins the final HPWL and a hash of every position bit-exactly
//! at one and two threads. The constants were recorded before the
//! wirelength, density and spectral kernels were restructured; a kernel
//! rewrite that changes any IEEE operation or its order shows up here.

use xplace::core::{GlobalPlacer, XplaceConfig};
use xplace::db::synthesis::{synthesize, SynthesisSpec};

const SEED: u64 = 20_260_117;
const CELLS: usize = 2_600;
const NETS: usize = 2_700;
const MAX_ITERS: usize = 60;

const PINNED_HPWL_BITS: u64 = 0x40e3_3f53_32fb_ec3f;
const PINNED_POSITIONS_FNV: u64 = 0x44fa_4d3a_0271_4ee7;

/// FNV-1a (64-bit) over the little-endian bits of every `x`, then `y`.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn place(threads: usize) -> (u64, u64) {
    let spec = SynthesisSpec::new("blocked", CELLS, NETS).with_seed(SEED);
    let mut design = synthesize(&spec).expect("synthesis succeeds");
    let mut cfg = XplaceConfig::xplace().with_threads(threads);
    cfg.schedule.max_iterations = MAX_ITERS;
    let report = GlobalPlacer::new(cfg)
        .place(&mut design)
        .expect("placement succeeds");
    let positions = design.positions();
    let hash = fnv1a(
        positions
            .iter()
            .map(|p| p.x)
            .chain(positions.iter().map(|p| p.y)),
    );
    assert_eq!(
        report.iterations, MAX_ITERS,
        "the run must not converge early"
    );
    (report.final_hpwl.to_bits(), hash)
}

#[test]
fn blocked_kernels_match_pinned_bits_at_one_and_two_threads() {
    for threads in [1, 2] {
        let (hpwl_bits, hash) = place(threads);
        println!(
            "threads {threads}: hpwl bits {hpwl_bits:#018x} ({}), positions fnv {hash:#018x}",
            f64::from_bits(hpwl_bits)
        );
        assert_eq!(
            hpwl_bits, PINNED_HPWL_BITS,
            "HPWL bits drifted at threads {threads}"
        );
        assert_eq!(
            hash, PINNED_POSITIONS_FNV,
            "position hash drifted at threads {threads}"
        );
    }
}
