//! One-stage QAT must not depend on the thread count: the training convs
//! split their work across the exec pool and the LSQ backward splits its
//! scale groups, and every loss, weight and scale must still come out
//! bit-identical.
//!
//! `CQ_THREADS` is read once per process, so the check re-runs this test
//! binary as a child under `CQ_THREADS=1` and `CQ_THREADS=2` and compares
//! the digests the child prints.

use cq_cim::CimConfig;
use cq_core::{build_cim_resnet, QuantScheme};
use cq_data::{generate, Augment, SyntheticSpec};
use cq_nn::{Layer, LrSchedule, ResNetSpec};
use cq_train::{train_with_scheme, TrainConfig};
use std::process::Command;

const CHILD: &str = "qat_digest";

/// A 2-epoch ci-scale CIFAR-10 job (ResNet-8 width 6 on 12×12 images,
/// 32×32 arrays, batch 16) under the paper's scheme; returns a digest of
/// every epoch loss and every parameter, LSQ scales included.
fn qat_digest_value() -> u64 {
    let mut cim = CimConfig::cifar10();
    cim.array_rows = 32;
    cim.array_cols = 32;
    let data = SyntheticSpec {
        image_size: 12,
        train_per_class: 8,
        test_per_class: 4,
        ..SyntheticSpec::cifar10_like(8, 8, 75)
    };
    let (train, test) = generate(&data);
    let scheme = QuantScheme::ours();
    let mut net = build_cim_resnet(ResNetSpec::resnet8(10, 6), &cim, &scheme, 75);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: LrSchedule::Cosine {
            base: 0.05,
            total_epochs: 2,
        },
        momentum: 0.9,
        weight_decay: 5e-4,
        augment: Augment::standard(),
        seed: 152,
    };
    let result = train_with_scheme(&mut net, &scheme, &train, &test, &cfg);
    assert_eq!(result.history.len(), 2, "two epochs");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u32| h = (h ^ u64::from(bits)).wrapping_mul(0x0100_0000_01b3);
    for e in &result.history {
        eat(e.train_loss.to_bits());
    }
    let mut params = 0;
    net.visit_params("", &mut |p| {
        params += 1;
        p.value.iter().for_each(|v| eat(v.to_bits()));
    });
    assert!(params > 0, "the model exposes its parameters");
    h
}

#[test]
#[ignore = "child of qat_is_identical_across_thread_counts"]
fn qat_digest() {
    println!("digest={:016x}", qat_digest_value());
}

#[test]
fn qat_is_identical_across_thread_counts() {
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
    assert_eq!(one, two, "QAT differs between 1 and 2 threads");
}
