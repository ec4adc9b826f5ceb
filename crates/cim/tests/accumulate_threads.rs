//! The digitize → shift-add reduce must not depend on the thread count:
//! `PsumPipeline::accumulate` splits a batch of one across output-channel
//! blocks, and each output element must still see its terms in the fixed
//! split-outer, row-tile-inner order.
//!
//! `CQ_THREADS` is read once per process, so the check re-runs this test
//! binary as a child under `CQ_THREADS=1` and `CQ_THREADS=2` and compares
//! the digests the child prints.

use cq_cim::{Adc, AdcDigitizer, CimConfig, PsumPipeline, TilingPlan};
use cq_quant::QuantFormat;
use cq_tensor::{CqRng, Tensor};
use std::process::Command;

const CHILD: &str = "batch1_reduce_digest";

/// A batch-1 reduce big enough to fork two tasks: 8 row tiles × 32
/// channels × 3 splits over a 64×64 output.
fn batch1_reduce() -> Tensor {
    let cfg = CimConfig::tiny();
    let plan = TilingPlan::new(&cfg, 24, 32, 3, 3);
    let (gch, hw) = (plan.num_row_tiles * plan.out_ch, 64);
    let mut rng = CqRng::new(17);
    let psums: Vec<Tensor> = (0..plan.num_splits)
        .map(|_| {
            rng.uniform_tensor(&[1, gch, hw, hw], -40.0, 40.0)
                .map(f32::floor)
        })
        .collect();
    let weight_scales: Vec<f32> = (0..gch).map(|i| 0.01 + 0.001 * i as f32).collect();
    let psum_scales: Vec<f32> = (0..plan.num_splits * gch)
        .map(|i| 0.5 + 0.25 * (i % 9) as f32)
        .collect();
    let pipeline = PsumPipeline::new(
        plan.clone(),
        cfg.bit_split(),
        1,
        1,
        0.05,
        weight_scales,
        None,
    );
    let dig = AdcDigitizer::new(Adc::new(QuantFormat::signed(3)), &psum_scales, &plan);
    pipeline.reduce(&psums, &dig)
}

fn digest(t: &Tensor) -> u64 {
    t.data().iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
#[ignore = "child of accumulate_is_identical_across_thread_counts"]
fn batch1_reduce_digest() {
    println!("digest={:016x}", digest(&batch1_reduce()));
}

#[test]
fn accumulate_is_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = Command::new(std::env::current_exe().expect("test binary path"))
            .args([
                CHILD,
                "--exact",
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("CQ_THREADS", threads)
            .output()
            .expect("child test run");
        assert!(
            out.status.success(),
            "child under CQ_THREADS={threads} failed"
        );
        // libtest prints the test name on the same line before the output.
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (_, rest) = stdout
            .split_once("digest=")
            .expect("child prints its digest");
        rest[..16].to_owned()
    };
    let (one, two) = (run("1"), run("2"));
    assert_eq!(one, two, "batch-1 reduce differs between 1 and 2 threads");
    assert_eq!(one, format!("{:016x}", digest(&batch1_reduce())));
}
