//! The models under test and the seeded inputs fed to them.

use cq_bench::{ExperimentSetting, Scale};
use cq_cim::CimConfig;
use cq_core::{build_cim_resnet, QuantScheme};
use cq_nn::{Layer, Mode, ResNet, ResNetSpec};
use cq_tensor::{CqRng, Tensor};

/// Weight seed of every model. The model is the system under test, so it
/// stays the same across runs; `--seed` picks the traffic and data.
pub const MODEL_SEED: u64 = 7;

/// One servable model: architecture, CIM macro, quantization scheme and
/// input resolution.
#[derive(Clone)]
pub struct ModelSpec {
    pub name: &'static str,
    pub spec: ResNetSpec,
    pub cim: CimConfig,
    pub scheme: QuantScheme,
    /// Input height and width.
    pub hw: usize,
}

impl ModelSpec {
    /// The paper's CIFAR-10 Table II shape: ResNet-20 at 32×32×3, 3b
    /// weights at 1b/cell, binary psums, 128×128 arrays, column-wise
    /// weight and psum quantization.
    pub fn resnet20() -> Self {
        Self {
            name: "resnet20-ours",
            spec: ResNetSpec::resnet20(10),
            cim: CimConfig::cifar10(),
            scheme: QuantScheme::ours(),
            hw: 32,
        }
    }

    /// The quick CIFAR-10 setting (ResNet-8, width 6, 12×12 inputs,
    /// 32×32 arrays) under `scheme`.
    pub fn tiny(name: &'static str, scheme: QuantScheme) -> Self {
        let setting = ExperimentSetting::cifar10(Scale::Quick, 0);
        Self {
            name,
            spec: setting.model,
            cim: setting.cim,
            scheme,
            hw: setting.data.image_size,
        }
    }

    /// Builds the network and runs one eval forward, which initializes
    /// the lazy activation and psum scales that freezing needs.
    pub fn build_warm(&self) -> ResNet {
        let mut net = build_cim_resnet(self.spec.clone(), &self.cim, &self.scheme, MODEL_SEED);
        let warm = CqRng::new(MODEL_SEED + 1)
            .normal_tensor(&[2, self.spec.in_channels, self.hw, self.hw], 1.0)
            .map(|v| v.max(0.0));
        let _ = net.forward(&warm, Mode::Eval);
        net
    }

    /// A seeded batch of input images `[batch, C, hw, hw]`.
    pub fn images(&self, rng: &mut CqRng, batch: usize) -> Tensor {
        rng.normal_tensor(&[batch, self.spec.in_channels, self.hw, self.hw], 1.0)
    }
}

/// Bit-exact tensor equality (shape and every f32 bit pattern).
pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
