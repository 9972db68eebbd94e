//! Proof that the steady-state workspace PSD path is allocation-free.
//!
//! A counting global allocator (`support/alloc_count.rs`) wraps the
//! system allocator and counts the measuring thread only; after a
//! warm-up call populates the [`DspWorkspace`] plan cache, repeated
//! `estimate_into` calls must perform **zero** heap allocations — no
//! FFT re-planning, no segment/spectrum/accumulator buffers. This is
//! the acceptance criterion of the batch-execution redesign: the Welch
//! hot loop runs at memory-bandwidth speed with nothing for the
//! allocator to do.

#[path = "support/alloc_count.rs"]
mod alloc_count;

use alloc_count::{allocations, serialize_test};
use nfbist_dsp::psd::{DspWorkspace, PeriodogramConfig, WelchConfig};
use nfbist_dsp::window::Window;

fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

#[test]
fn steady_state_welch_estimate_is_allocation_free() {
    let _serial = serialize_test();
    // Radix-2 and Bluestein (the paper's 10⁴-point size, scaled down
    // to keep the test quick) both have to hold the property.
    for nfft in [1_024usize, 1_000] {
        let x = noise(20_000, 42);
        let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann);
        let mut ws = DspWorkspace::new();
        let mut out = vec![0.0f64; nfft / 2 + 1];

        // Warm-up: plans the FFT and allocates every scratch buffer.
        cfg.estimate_into(&x, 20_000.0, &mut ws, &mut out).unwrap();
        let warm = out.clone();

        let (count, result) = allocations(|| cfg.estimate_into(&x, 20_000.0, &mut ws, &mut out));
        result.unwrap();
        assert_eq!(
            count, 0,
            "steady-state welch (nfft {nfft}) must not allocate"
        );
        assert_eq!(out, warm, "reused buffers must not change the result");
    }
}

#[test]
fn steady_state_detrended_welch_is_allocation_free() {
    let _serial = serialize_test();
    let x = noise(10_000, 7);
    let cfg = WelchConfig::new(512).unwrap().detrend(true);
    let mut ws = DspWorkspace::new();
    let mut out = vec![0.0f64; 257];
    cfg.estimate_into(&x, 8_000.0, &mut ws, &mut out).unwrap();
    let (count, result) = allocations(|| cfg.estimate_into(&x, 8_000.0, &mut ws, &mut out));
    result.unwrap();
    assert_eq!(count, 0, "detrend path must not allocate either");
}

#[test]
fn steady_state_periodogram_is_allocation_free() {
    let _serial = serialize_test();
    let x = noise(2_048, 3);
    let cfg = PeriodogramConfig::new().window(Window::Hann);
    let mut ws = DspWorkspace::new();
    let mut out = vec![0.0f64; 1_025];
    cfg.estimate_into(&x, 4_000.0, &mut ws, &mut out).unwrap();
    let (count, result) = allocations(|| cfg.estimate_into(&x, 4_000.0, &mut ws, &mut out));
    result.unwrap();
    assert_eq!(count, 0, "steady-state periodogram must not allocate");
}

#[test]
fn allocating_entry_point_still_allocates_but_matches() {
    let _serial = serialize_test();
    // Sanity check on the counter itself, and on result equivalence
    // between the two entry points.
    let x = noise(8_192, 11);
    let cfg = WelchConfig::new(1_024).unwrap();
    let mut ws = DspWorkspace::new();
    let reused = cfg.estimate_with(&x, 10_000.0, &mut ws).unwrap();
    let (count, alloc) = allocations(|| cfg.estimate(&x, 10_000.0).unwrap());
    assert!(count > 0, "the per-call path does allocate");
    assert_eq!(alloc, reused);
}

#[test]
fn steady_state_streaming_welch_push_is_allocation_free() {
    let _serial = serialize_test();
    use nfbist_dsp::psd::StreamingWelch;
    // O(segment) memory means: once the carry, accumulator and plan
    // exist, pushing more chunks of a long record allocates nothing —
    // record length is a pure time cost.
    for nfft in [1_024usize, 1_000] {
        let chunk = noise(1_777, 13);
        let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann);
        let mut sw = StreamingWelch::new(cfg, 20_000.0).unwrap();
        // Warm-up: plans the FFT, grows the carry to one segment.
        sw.push(&chunk).unwrap();
        sw.push(&chunk).unwrap();
        let (count, result) = allocations(|| {
            for _ in 0..32 {
                sw.push(&chunk)?;
            }
            Ok::<(), nfbist_dsp::DspError>(())
        });
        result.unwrap();
        assert_eq!(
            count, 0,
            "steady-state streaming push (nfft {nfft}) must not allocate"
        );
        assert!(sw.segments() > 0);
    }
    // And the no-allocation finalize writes into caller scratch.
    let chunk = noise(4_096, 14);
    let mut sw = StreamingWelch::new(WelchConfig::new(512).unwrap(), 8_000.0).unwrap();
    sw.push(&chunk).unwrap();
    let mut out = vec![0.0f64; 257];
    sw.finalize_into(&mut out).unwrap();
    let (count, result) = allocations(|| sw.finalize_into(&mut out));
    result.unwrap();
    assert_eq!(count, 0, "finalize_into must not allocate");
}

#[test]
fn steady_state_sliding_welch_is_allocation_free() {
    let _serial = serialize_test();
    use nfbist_dsp::psd::SlidingWelch;
    // The monitoring loop's hot path: the window ring is allocated up
    // front, so pushing chunks and emitting windowed estimates — long
    // after the ring has wrapped — costs the allocator nothing.
    for nfft in [1_024usize, 1_000] {
        let chunk = noise(1_777, 17);
        let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann);
        let mut sw = SlidingWelch::new(cfg, 20_000.0, 6).unwrap();
        let mut out = vec![0.0f64; nfft / 2 + 1];
        // Warm-up: plans the FFT, fills carry and ring slots.
        sw.push(&chunk).unwrap();
        sw.push(&chunk).unwrap();
        sw.finalize_into(&mut out).unwrap();
        let (count, result) = allocations(|| {
            for _ in 0..32 {
                sw.push(&chunk)?;
                sw.finalize_into(&mut out)?;
            }
            Ok::<(), nfbist_dsp::DspError>(())
        });
        result.unwrap();
        assert_eq!(
            count, 0,
            "steady-state sliding push/emit (nfft {nfft}) must not allocate"
        );
        assert!(sw.segments_seen() > sw.window_segments(), "ring wrapped");
    }
}

#[test]
fn steady_state_forgetting_welch_is_allocation_free() {
    let _serial = serialize_test();
    use nfbist_dsp::psd::ForgettingWelch;
    for nfft in [1_024usize, 1_000] {
        let chunk = noise(1_777, 19);
        let cfg = WelchConfig::new(nfft).unwrap().window(Window::Hann);
        let mut fw = ForgettingWelch::new(cfg, 20_000.0, 0.9).unwrap();
        let mut out = vec![0.0f64; nfft / 2 + 1];
        fw.push(&chunk).unwrap();
        fw.push(&chunk).unwrap();
        fw.finalize_into(&mut out).unwrap();
        let (count, result) = allocations(|| {
            for _ in 0..32 {
                fw.push(&chunk)?;
                fw.finalize_into(&mut out)?;
            }
            Ok::<(), nfbist_dsp::DspError>(())
        });
        result.unwrap();
        assert_eq!(
            count, 0,
            "steady-state forgetting push/emit (nfft {nfft}) must not allocate"
        );
        assert!(fw.segments_seen() > 0);
    }
}
