//! Proof that steady-state noise synthesis is allocation-free: once a
//! [`ShapedNoise`] has synthesized its first block, further `fill`
//! calls reuse its spectrum and sample buffers and its shared FFT plan,
//! and [`WhiteNoise::fill`] draws straight into the caller's buffer.

#[path = "../../dsp/tests/support/alloc_count.rs"]
mod alloc_count;

use alloc_count::{allocations, serialize_test};
use nfbist_analog::noise::{ShapedNoise, WhiteNoise};

#[test]
fn steady_state_shaped_noise_fill_is_allocation_free() {
    let _serial = serialize_test();
    let block = 1 << 12;
    let mut src = ShapedNoise::new(|f| 1e-6 / (1.0 + f), 2e4, block, 5).unwrap();
    let mut out = vec![0.0; 777];
    // Warm-up: the first block.
    src.fill(&mut out).unwrap();
    let (count, result) = allocations(|| {
        // Chunks that straddle several block boundaries.
        for _ in 0..32 {
            src.fill(&mut out)?;
        }
        Ok::<(), nfbist_analog::AnalogError>(())
    });
    result.unwrap();
    assert_eq!(count, 0, "steady-state ShapedNoise::fill must not allocate");
    assert!(out.iter().any(|&v| v != 0.0));
}

#[test]
fn steady_state_white_noise_fill_is_allocation_free() {
    let _serial = serialize_test();
    let mut src = WhiteNoise::new(0.5, 9).unwrap();
    let mut out = vec![0.0; 4_096];
    let (count, ()) = allocations(|| {
        for _ in 0..8 {
            src.fill(&mut out);
        }
    });
    assert_eq!(count, 0, "WhiteNoise::fill must not allocate");
    assert!(out.iter().any(|&v| v != 0.0));
}
