//! A fully-connected layer executed on the CIM pipeline.
//!
//! The paper keeps the classifier full-precision (as does this repo's
//! default ResNet), but a CIM library needs a quantized FC for models that
//! map *every* matrix multiply to crossbars. A linear layer is exactly a
//! 1×1 convolution over a 1×1 "image", so [`CimLinear`] wraps
//! [`CimConv2d`] — inheriting column-wise quantization, bit-splitting,
//! tiling, and the crossbar-engine export for free.

use crate::{CimConv2d, VariationCfg};
use cq_cim::CimConfig;
use cq_nn::{Layer, Mode, ParamView};
use cq_quant::Granularity;
use cq_tensor::{CqRng, Tensor};

/// Quantized fully-connected layer over `[B, IN]` inputs.
pub struct CimLinear {
    conv: CimConv2d,
    in_features: usize,
    out_features: usize,
}

impl CimLinear {
    /// Creates a CIM linear layer (`bias` always enabled, matching the
    /// usual classifier head).
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot tile a 1×1 kernel (never happens
    /// for non-degenerate configs).
    pub fn new(
        in_features: usize,
        out_features: usize,
        cfg: CimConfig,
        w_gran: Granularity,
        p_gran: Granularity,
        rng: &mut CqRng,
    ) -> Self {
        let conv = CimConv2d::new(
            in_features,
            out_features,
            1,
            1,
            0,
            cfg,
            w_gran,
            p_gran,
            true,
            rng,
        );
        Self {
            conv,
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The underlying CIM convolution (tiling plan, quantizers, export).
    pub fn inner(&self) -> &CimConv2d {
        &self.conv
    }

    /// Mutable access to the underlying CIM convolution.
    pub fn inner_mut(&mut self) -> &mut CimConv2d {
        &mut self.conv
    }

    /// Sets inference-time device variation on the underlying layer.
    pub fn set_variation(&mut self, v: Option<VariationCfg>) {
        self.conv.set_variation(v);
    }

    /// Freezes the underlying convolution for serving (see
    /// [`CimConv2d::freeze`]).
    ///
    /// # Panics
    ///
    /// Panics if quantization is disabled or scales are uninitialized.
    pub fn freeze(&mut self) {
        self.conv.freeze();
    }

    /// Drops the frozen serving state.
    pub fn unfreeze(&mut self) {
        self.conv.unfreeze();
    }
}

impl Layer for CimLinear {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.rank(), 2, "CimLinear input must be [B, IN]");
        assert_eq!(x.dim(1), self.in_features, "input features");
        let b = x.dim(0);
        let x4 = x.reshape(&[b, self.in_features, 1, 1]);
        let y4 = self.conv.forward(&x4, mode);
        y4.reshape(&[b, self.out_features])
    }

    fn forward_shared(&self, x: &Tensor) -> Option<Tensor> {
        assert_eq!(x.rank(), 2, "CimLinear input must be [B, IN]");
        assert_eq!(x.dim(1), self.in_features, "input features");
        let b = x.dim(0);
        let x4 = x.reshape(&[b, self.in_features, 1, 1]);
        let y4 = self.conv.forward_shared(&x4)?;
        Some(y4.reshape(&[b, self.out_features]))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.rank(), 2, "CimLinear grad must be [B, OUT]");
        let b = grad_out.dim(0);
        let g4 = grad_out.reshape(&[b, self.out_features, 1, 1]);
        let dx4 = self.conv.backward(&g4);
        dx4.reshape(&[b, self.in_features])
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(ParamView<'_>)) {
        self.conv.visit_params(prefix, f);
    }

    fn apply(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
        self.conv.apply(f);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_nn::Sgd;

    fn make(rng_seed: u64) -> CimLinear {
        let mut rng = CqRng::new(rng_seed);
        CimLinear::new(
            12,
            5,
            CimConfig::tiny(),
            Granularity::Column,
            Granularity::Column,
            &mut rng,
        )
    }

    fn relu_batch(seed: u64, b: usize, f: usize) -> Tensor {
        CqRng::new(seed)
            .normal_tensor(&[b, f], 1.0)
            .map(|v| v.max(0.0))
    }

    #[test]
    fn forward_shape_and_tiling() {
        let mut lin = make(1);
        // 12 features on 32-row arrays with 1x1 kernels: one row tile.
        assert_eq!(lin.inner().plan().num_row_tiles, 1);
        let x = relu_batch(2, 3, 12);
        let y = lin.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[3, 5]);
    }

    /// A prepared `CimLinear` serves through the shared path, bit-equal
    /// to the per-call eval forward at batch 1 and at a pipelined batch.
    #[test]
    fn prepared_linear_matches_eval_forward_bitwise() {
        let mut lin = make(11);
        let _ = lin.forward(&relu_batch(12, 4, 12), Mode::Eval); // init scales
        let xs = [relu_batch(13, 1, 12), relu_batch(14, 3, 12)];
        let want: Vec<Tensor> = xs.iter().map(|x| lin.forward(x, Mode::Eval)).collect();
        let pm = crate::PreparedCimModel::new(Box::new(lin));
        for (x, w) in xs.iter().zip(&want) {
            assert_eq!(&pm.infer(x), w, "batch {}", x.dim(0));
        }
    }

    #[test]
    fn multi_tile_when_features_exceed_rows() {
        let mut rng = CqRng::new(3);
        let lin = CimLinear::new(
            80,
            4,
            CimConfig::tiny(), // 32 rows
            Granularity::Column,
            Granularity::Column,
            &mut rng,
        );
        assert_eq!(lin.inner().plan().num_row_tiles, 3); // ceil(80/32)
    }

    #[test]
    fn gradient_flows_and_loss_decreases() {
        let mut lin = make(5);
        let x = relu_batch(6, 8, 12);
        let target = CqRng::new(7).normal_tensor(&[8, 5], 0.5);
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..25 {
            let y = lin.forward(&x, Mode::Train);
            let diff = y.sub(&target);
            let loss = diff.sq_sum() / diff.numel() as f32;
            if it == 0 {
                first = loss;
            }
            last = loss;
            lin.zero_grads();
            let _ = lin.backward(&diff.scale(2.0 / diff.numel() as f32));
            opt.step(&mut lin);
        }
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    #[test]
    fn crossbar_export_is_bit_exact() {
        let mut lin = make(9);
        let x = relu_batch(10, 2, 12);
        let fast = lin.forward(&x, Mode::Eval);
        let engine = cq_cim::CrossbarLayer::new(lin.inner_mut().to_quantized_conv());
        let b = x.dim(0);
        let a_int = lin.inner().quantize_activations(&x.reshape(&[b, 12, 1, 1]));
        let slow = engine.forward(&a_int).reshape(&[b, 5]);
        assert_eq!(fast, slow);
    }
}
