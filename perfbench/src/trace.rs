//! The traced run. Each layer is timed from outside, by calling that
//! layer's public functions at the shapes the workload's models run:
//!
//! * inference layers (`tensor`, `cim`, `quant` activations, `core`,
//!   `nn`): every frozen conv of each resident model is rebuilt as a
//!   `PreparedConv` from its `QuantizedConv` export and swept stage by
//!   stage on a batch of 8 — activation quantization, front-end (channel
//!   pad plus grouped psums on the resolved backend), digitize (ADC
//!   `accumulate` plus `finish`) — and its integer chain is replayed call
//!   by call through `im2col_i8`, `widen_i8_to_i32` and `igemm_into`. The
//!   non-CIM layers (stem conv, BN, ReLU, residual adds, pooling, FC) are
//!   timed as fresh layers at the same shapes. The stage sums are
//!   reconciled against a whole `PreparedCimModel::infer` sweep run layer
//!   after layer (pipeline depth 1).
//! * serving (`serve`): an untraced and a traced window of the workload's
//!   own load, the traced one timing every `submit` call.
//! * training (`train`, `data`, `quant` weights): QAT epochs of the
//!   `qat-tiny` setting, stepped by hand so forward, backward, optimizer
//!   and batching are timed apart, against an untraced
//!   `train_with_scheme` job of the same budget.
//!
//! Layers a workload does not run are still measured (at the geometry of
//! the workload that does), so every traced run reports every metric.

use crate::models::{bits_equal, ModelSpec};
use crate::qat;
use crate::report::Report;
use crate::stats::{mean, median, quantile};
use crate::workloads::{self, Workload};
use cq_cim::{
    Adc, AdcDigitizer, ExecBackend, HybridDigitizer, IdealDigitizer, IntGroupedWeights,
    PreparedConv, QuantizedConv,
};
use cq_core::{
    backend_instance, for_each_cim_conv, set_psum_quant_enabled, set_quant_enabled, CimConv2d,
    PreparedCimModel, QuantScheme,
};
use cq_data::{generate, shuffled_batches};
use cq_nn::{
    softmax_cross_entropy, BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, Mode, Relu,
    ResNetSpec, Sgd,
};
use cq_tensor::{
    conv_out_dim, exec, igemm_into, im2col_i8, widen_i8_to_i32, ConvShape, CqRng, Tensor,
};
use cq_train::{evaluate, train_with_scheme};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batch of the stage-by-stage sweep (`*.b8` metrics).
const B8: usize = 8;
/// Batch sizes of the whole-model sweeps (`core.sweep_ms.b*`).
const SWEEP_BATCHES: [usize; 4] = [1, 2, 4, 8];
/// The stage sums (CIM conv stages plus non-CIM layers) must match the
/// whole b8 sweep run layer after layer (pipeline depth 1, the order the
/// stages are timed in) within this share of it. The default sweep
/// overlaps two waves across cores, so it is reported beside it but
/// cannot be reconciled against a serial sum. On a 2-core x86-64 VM the
/// ResNet-20 serial sweep ran 26-28% above its stage sum (the tiny models
/// 5-10%); that remainder is `core.unattributed_ms.b8`.
const RECONCILE_TOLERANCE: f64 = 0.35;
/// QAT epochs of the traced training section.
const TRACE_EPOCHS: usize = 2;

/// Median wall time of `f` in ms, over enough calls to fill about
/// `budget` (at least 5, at most 400), after one untimed call.
fn time_ms(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let first = t.elapsed().as_secs_f64().max(1e-7);
    let reps = (budget.as_secs_f64() / first).clamp(5.0, 400.0) as usize;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// One CIM conv of a ResNet: its input geometry, in forward order.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Site {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    /// Input height and width.
    hw: usize,
}

/// The CIM convs of `spec` at input size `hw`, in the order
/// `for_each_cim_conv` visits them: per block conv1, conv2, then the
/// projection shortcut (the stem stays full precision).
fn cim_sites(spec: &ResNetSpec, hw: usize) -> Vec<Site> {
    assert!(!spec.large_stem, "only the CIFAR stem is traced");
    let mut sites = Vec::new();
    let (mut in_ch, mut h) = (spec.stem_width, hw);
    for (si, (&width, &blocks)) in spec
        .stage_widths
        .iter()
        .zip(&spec.blocks_per_stage)
        .enumerate()
    {
        for bi in 0..blocks {
            let stride = if bi == 0 { spec.stage_strides[si] } else { 1 };
            let h_out = conv_out_dim(h, 3, stride, 1);
            sites.push(Site {
                in_ch,
                out_ch: width,
                k: 3,
                stride,
                hw: h,
            });
            sites.push(Site {
                in_ch: width,
                out_ch: width,
                k: 3,
                stride: 1,
                hw: h_out,
            });
            if stride != 1 || in_ch != width {
                sites.push(Site {
                    in_ch,
                    out_ch: width,
                    k: 1,
                    stride,
                    hw: h,
                });
            }
            in_ch = width;
            h = h_out;
        }
    }
    sites
}

/// The non-CIM layers of one b8 forward as fresh layers at the model's
/// shapes: stem conv, every BN and ReLU, global pooling and the FC layer,
/// plus the residual adds.
struct NonCim {
    layers: Vec<(Box<dyn Layer>, Tensor)>,
    adds: Vec<(Tensor, Tensor)>,
}

impl NonCim {
    fn new(spec: &ResNetSpec, hw: usize) -> Self {
        let mut rng = CqRng::new(3);
        let mut act = |c: usize, h: usize| rng.normal_tensor(&[B8, c, h, h], 1.0);
        let mut layers: Vec<(Box<dyn Layer>, Tensor)> = Vec::new();
        let mut adds = Vec::new();
        let stem = Conv2d::new(
            spec.in_channels,
            spec.stem_width,
            3,
            1,
            1,
            false,
            &mut CqRng::new(4),
        );
        layers.push((Box::new(stem), act(spec.in_channels, hw)));
        layers.push((
            Box::new(BatchNorm2d::new(spec.stem_width)),
            act(spec.stem_width, hw),
        ));
        layers.push((Box::new(Relu::new()), act(spec.stem_width, hw)));
        let (mut in_ch, mut h) = (spec.stem_width, hw);
        for (si, (&width, &blocks)) in spec
            .stage_widths
            .iter()
            .zip(&spec.blocks_per_stage)
            .enumerate()
        {
            for bi in 0..blocks {
                let stride = if bi == 0 { spec.stage_strides[si] } else { 1 };
                h = conv_out_dim(h, 3, stride, 1);
                // bn1, relu1, bn2, the shortcut's BN when projecting, the
                // residual add and relu_out.
                layers.push((Box::new(BatchNorm2d::new(width)), act(width, h)));
                layers.push((Box::new(Relu::new()), act(width, h)));
                layers.push((Box::new(BatchNorm2d::new(width)), act(width, h)));
                if stride != 1 || in_ch != width {
                    layers.push((Box::new(BatchNorm2d::new(width)), act(width, h)));
                }
                adds.push((act(width, h), act(width, h)));
                layers.push((Box::new(Relu::new()), act(width, h)));
                in_ch = width;
            }
        }
        let x = act(in_ch, h);
        let pooled = GlobalAvgPool::new().forward(&x, Mode::Eval);
        layers.push((Box::new(GlobalAvgPool::new()), x));
        let fc = Linear::new(in_ch, spec.num_classes, true, &mut CqRng::new(5));
        layers.push((Box::new(fc), pooled));
        Self { layers, adds }
    }

    /// Runs every layer once.
    fn run(&mut self) {
        for (layer, x) in &mut self.layers {
            black_box(layer.forward(x, Mode::Eval));
        }
        for (a, b) in &self.adds {
            black_box(a.add(b));
        }
    }
}

/// Work counts of one conv per image; they depend only on the model, so
/// they repeat exactly across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Counts {
    igemm_macs: u64,
    /// Panel, widened-activation and accumulator bytes of every GEMM call,
    /// computed from tensor sizes.
    igemm_bytes: u64,
    adc_conversions: u64,
    dequant_mults: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Self) {
        self.igemm_macs += o.igemm_macs;
        self.igemm_bytes += o.igemm_bytes;
        self.adc_conversions += o.adc_conversions;
        self.dequant_mults += o.dequant_mults;
    }
}

/// Per-image counts of a conv from its frozen description.
fn conv_counts(
    desc: &QuantizedConv,
    prepared: &PreparedConv,
    hw: usize,
    dequant_mults: usize,
) -> Counts {
    let p = &desc.plan;
    let oh = conv_out_dim(hw, p.kh, desc.stride, desc.pad);
    let pixels = (oh * oh) as u64;
    let (splits, tiles, oc) = (p.num_splits as u64, p.num_row_tiles as u64, p.out_ch as u64);
    let cr = (p.ch_per_array * p.kh * p.kw) as u64;
    let calls = splits * tiles;
    let (igemm_macs, igemm_bytes) = if prepared.integer_kernel_active() {
        (
            calls * oc * cr * pixels,
            calls * (oc * cr + 4 * cr * pixels + 4 * oc * pixels),
        )
    } else {
        (0, 0)
    };
    let converted = if desc.psum_quant {
        (splits - desc.digital_splits as u64) * tiles * oc * pixels
    } else {
        0
    };
    Counts {
        igemm_macs,
        igemm_bytes,
        adc_conversions: converted,
        dequant_mults: dequant_mults as u64,
    }
}

/// One frozen conv, ready to be swept stage by stage.
struct Conv {
    desc: QuantizedConv,
    prepared: PreparedConv,
    site: Site,
    counts: Counts,
}

/// Exports every CIM conv of `model` (frozen in place) with its site.
fn frozen_convs(model: &mut dyn Layer, spec: &ResNetSpec, hw: usize) -> Vec<Conv> {
    let sites = cim_sites(spec, hw);
    let mut convs = Vec::new();
    for_each_cim_conv(model, |c: &mut CimConv2d| {
        let desc = c.to_quantized_conv();
        let site = sites[convs.len()];
        let p = &desc.plan;
        assert_eq!(
            (p.in_ch, p.out_ch, p.kh, desc.stride),
            (site.in_ch, site.out_ch, site.k, site.stride),
            "CIM conv {} does not match the traced ResNet geometry",
            convs.len()
        );
        let prepared = PreparedConv::new(desc.clone());
        let counts = conv_counts(&desc, &prepared, site.hw, c.dequant_mults());
        convs.push(Conv {
            desc,
            prepared,
            site,
            counts,
        });
    });
    assert_eq!(
        convs.len(),
        sites.len(),
        "CIM conv count vs ResNet geometry"
    );
    convs
}

/// Per-image work counts of a whole model.
#[cfg(test)]
fn model_counts(m: &ModelSpec) -> Counts {
    let mut net = m.build_warm();
    let mut total = Counts::default();
    for c in frozen_convs(&mut net, &m.spec, m.hw) {
        total += c.counts;
    }
    total
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One frozen conv set up to run its serving path stage by stage on a
/// batch of 8 post-ReLU activations.
struct Staged<'a> {
    conv: &'a Conv,
    x: Tensor,
    a_int: Tensor,
    a_pad: Tensor,
    psums: Vec<Tensor>,
    col: Vec<f32>,
    grouped: Vec<Tensor>,
    int_weights: Option<Vec<IntGroupedWeights>>,
    backend: Arc<dyn ExecBackend>,
    oh: usize,
}

impl<'a> Staged<'a> {
    fn new(conv: &'a Conv, rng: &mut CqRng) -> Self {
        let (desc, pc, site) = (&conv.desc, &conv.prepared, &conv.site);
        let p = &desc.plan;
        let x = rng
            .normal_tensor(&[B8, site.in_ch, site.hw, site.hw], 1.0)
            .map(|v| v.max(0.0));
        let oh = conv_out_dim(site.hw, p.kh, desc.stride, desc.pad);
        let pipeline = pc.pipeline();
        let grouped = pipeline.split_grouped_weights(&desc.w_int);
        let act_max_abs = desc.act_format.qn().abs().max(desc.act_format.qp());
        let mut staged = Self {
            conv,
            a_int: pc.quantize_activations(&x),
            a_pad: Tensor::zeros(&[B8, p.padded_in_ch, site.hw, site.hw]),
            psums: (0..p.num_splits)
                .map(|_| Tensor::zeros(&[B8, p.num_row_tiles * p.out_ch, oh, oh]))
                .collect(),
            col: Vec::new(),
            int_weights: pipeline.split_grouped_weights_int(&grouped, act_max_abs),
            grouped,
            backend: backend_instance(pc.active_backend()),
            x,
            oh,
        };
        staged.frontend();
        staged
    }

    /// Channel pad plus every split's grouped psums over all row tiles,
    /// on the backend the layer resolved.
    fn frontend(&mut self) {
        let (desc, pipeline) = (&self.conv.desc, self.conv.prepared.pipeline());
        desc.plan.pad_channels_into(&self.a_int, &mut self.a_pad);
        let tiles = 0..desc.plan.num_row_tiles;
        match &self.int_weights {
            Some(iw) if self.backend.integer() => pipeline.grouped_psums_int_into(
                self.backend.as_ref(),
                &self.a_pad,
                iw,
                tiles,
                &mut self.psums,
            ),
            _ => pipeline.grouped_psums_into(
                self.backend.as_ref(),
                &self.a_pad,
                &self.grouped,
                &mut self.psums,
                &mut self.col,
            ),
        }
    }

    /// The layer's digitizer over the psums (`accumulate`), then the
    /// activation scale and bias (`finish`).
    fn digitize(&self) -> Tensor {
        let (desc, pipeline) = (&self.conv.desc, self.conv.prepared.pipeline());
        let p = &desc.plan;
        let mut acc = Tensor::zeros(&[B8, p.out_ch, self.oh, self.oh]);
        if desc.psum_quant {
            let dig = AdcDigitizer::new(Adc::new(desc.psum_format), &desc.psum_scales, p);
            if desc.digital_splits > 0 {
                let hybrid = HybridDigitizer::new(dig, desc.digital_splits);
                pipeline.accumulate(&self.psums, &hybrid, 1.0, &mut acc);
            } else {
                pipeline.accumulate(&self.psums, &dig, 1.0, &mut acc);
            }
        } else {
            pipeline.accumulate(&self.psums, &IdealDigitizer, 1.0, &mut acc);
        }
        pipeline.finish(acc)
    }

    /// Whether the stages, run in sequence, reproduce `PreparedConv::infer`
    /// and the frozen layer of the served model bit-exactly.
    fn exact(&mut self, frozen: &mut CimConv2d) -> bool {
        self.a_int = self.conv.prepared.quantize_activations(&self.x);
        self.frontend();
        let staged = self.digitize();
        bits_equal(&staged, &self.conv.prepared.infer(&self.x))
            && bits_equal(&staged, &Layer::forward(frozen, &self.x, Mode::Eval))
    }

    /// One timed pass: `[conv, actquant, frontend, digitize]` in ms.
    fn stages(&mut self) -> [f64; 4] {
        let pc = &self.conv.prepared;
        let t = Instant::now();
        black_box(pc.infer(&self.x));
        let conv = ms_since(t);
        let t = Instant::now();
        self.a_int = pc.quantize_activations(&self.x);
        let actquant = ms_since(t);
        let t = Instant::now();
        self.frontend();
        let frontend = ms_since(t);
        let t = Instant::now();
        black_box(self.digitize());
        [conv, actquant, frontend, ms_since(t)]
    }

    /// The integer chain call by call on this thread — busy time of each
    /// tensor kernel over the batch: `[im2col, widen, igemm]` in ms.
    /// Zero when the layer does not run the integer kernels.
    fn kernels(&self) -> [f64; 3] {
        let mut sums = [0.0; 3];
        let Some(iw) = self.int_weights.as_ref().filter(|_| self.backend.integer()) else {
            return sums;
        };
        let desc = &self.conv.desc;
        let p = &desc.plan;
        let tiles = p.num_row_tiles;
        let s = ConvShape::new(
            self.a_pad.shape(),
            &[tiles * p.out_ch, p.ch_per_array, p.kh, p.kw],
            desc.stride,
            desc.pad,
            tiles,
        );
        let (cr, cc) = (s.col_rows(), s.col_cols());
        let in_img = s.in_ch * s.in_h * s.in_w;
        let mut col = vec![0i8; cr * cc];
        let mut wide = vec![0i32; cr * cc];
        let mut acc = vec![0i32; p.out_ch * cc];
        for img in self.a_pad.data().chunks_exact(in_img) {
            for g in 0..tiles {
                let t0 = Instant::now();
                im2col_i8(img, g * p.ch_per_array, p.ch_per_array, &s, &mut col);
                let t1 = Instant::now();
                widen_i8_to_i32(&col, &mut wide);
                let t2 = Instant::now();
                for w in iw {
                    acc.fill(0);
                    igemm_into(&w.panels()[g], &wide, cc, &mut acc);
                }
                black_box(&acc);
                sums[0] += (t1 - t0).as_secs_f64() * 1e3;
                sums[1] += (t2 - t1).as_secs_f64() * 1e3;
                sums[2] += ms_since(t2);
            }
        }
        sums
    }
}

/// Stage times of one conv at batch 8, in ms (medians over rounds).
#[derive(Default, Clone, Copy)]
struct ConvTimes {
    conv: f64,
    actquant: f64,
    frontend: f64,
    digitize: f64,
    im2col: f64,
    widen: f64,
    igemm: f64,
}

/// Inference-layer figures of one model.
struct Inference {
    name: &'static str,
    convs: Vec<ConvTimes>,
    counts: Counts,
    noncim_ms: f64,
    /// `core.sweep_ms.b1/b2/b4/b8`, at the default pipeline depth.
    sweep_ms: [f64; 4],
    /// `core.serial_sweep_ms.b8`: pipeline depth 1.
    serial_sweep_ms: f64,
    freeze_ms: f64,
    rounds: usize,
    exact: bool,
}

impl Inference {
    fn sum(&self, f: impl Fn(&ConvTimes) -> f64) -> f64 {
        self.convs.iter().map(f).sum()
    }

    fn stages_ms(&self) -> f64 {
        self.sum(|c| c.actquant + c.frontend + c.digitize) + self.noncim_ms
    }

    fn unattributed_ms(&self) -> f64 {
        self.serial_sweep_ms - self.stages_ms()
    }
}

/// Decomposes one model's inference in rounds until `budget` is spent
/// (at least 5, at most 400 rounds). Every round runs each measured call
/// once — each conv's stages and kernels, the non-CIM layers, the sweeps
/// — so a slowdown of the host hits all of them alike; each figure is the
/// median over rounds.
fn trace_inference(m: &ModelSpec, seed: u64, budget: Duration) -> Inference {
    let mut freeze = Vec::new();
    let mut prepared = None;
    for _ in 0..3 {
        let net = m.build_warm();
        let t = Instant::now();
        let p = PreparedCimModel::new(Box::new(net));
        freeze.push(ms_since(t));
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("three freezes");
    let convs = frozen_convs(prepared.model_mut(), &m.spec, m.hw);
    let mut rng = CqRng::new(seed ^ 0x7ACE);
    let mut staged: Vec<Staged> = convs.iter().map(|c| Staged::new(c, &mut rng)).collect();
    let mut exact = true;
    let mut i = 0;
    for_each_cim_conv(prepared.model_mut(), |c| {
        exact &= staged[i].exact(c);
        i += 1;
    });
    let mut noncim = NonCim::new(&m.spec, m.hw);
    let inputs: Vec<Tensor> = SWEEP_BATCHES
        .iter()
        .map(|&b| m.images(&mut rng, b))
        .collect();
    let depth = prepared.pipeline_depth();

    let mut stage_samples = vec![Vec::new(); convs.len()];
    let mut kernel_samples = vec![Vec::new(); convs.len()];
    let mut noncim_samples = Vec::new();
    let mut sweep_samples = vec![Vec::new(); SWEEP_BATCHES.len() + 1];
    let start = Instant::now();
    let mut rounds = 0;
    // Round 0 warms every path and is discarded.
    while rounds < 6 || (start.elapsed() < budget && rounds < 401) {
        for (k, s) in staged.iter_mut().enumerate() {
            stage_samples[k].push(s.stages());
            kernel_samples[k].push(s.kernels());
        }
        let t = Instant::now();
        noncim.run();
        noncim_samples.push(ms_since(t));
        for (k, x) in inputs.iter().enumerate() {
            let t = Instant::now();
            black_box(prepared.infer(x));
            sweep_samples[k].push(ms_since(t));
        }
        prepared.set_pipeline_depth(1);
        let t = Instant::now();
        black_box(prepared.infer(&inputs[SWEEP_BATCHES.len() - 1]));
        sweep_samples[SWEEP_BATCHES.len()].push(ms_since(t));
        prepared.set_pipeline_depth(depth);
        rounds += 1;
    }
    let med = |v: &[f64]| median(&v[1..]);
    let convs_t: Vec<ConvTimes> = stage_samples
        .iter()
        .zip(&kernel_samples)
        .map(|(st, ke)| {
            let col = |i: usize| med(&st.iter().map(|r| r[i]).collect::<Vec<_>>());
            let kcol = |i: usize| med(&ke.iter().map(|r| r[i]).collect::<Vec<_>>());
            ConvTimes {
                conv: col(0),
                actquant: col(1),
                frontend: col(2),
                digitize: col(3),
                im2col: kcol(0),
                widen: kcol(1),
                igemm: kcol(2),
            }
        })
        .collect();
    let mut counts = Counts::default();
    for c in &convs {
        counts += c.counts;
    }
    let sweep = |k: usize| med(&sweep_samples[k]);
    Inference {
        name: m.name,
        convs: convs_t,
        counts,
        noncim_ms: med(&noncim_samples),
        sweep_ms: [sweep(0), sweep(1), sweep(2), sweep(3)],
        serial_sweep_ms: sweep(4),
        freeze_ms: median(&freeze),
        rounds: rounds - 1,
        exact,
    }
}

/// Training-layer figures of the `qat-tiny` setting.
struct Training {
    forward_ms: f64,
    backward_ms: f64,
    optim_ms: f64,
    eval_ms_per_epoch: f64,
    batch_ms: f64,
    weight_lsq_ms: f64,
    bitsplit_ms: f64,
    /// Wall time per step: traced loop and untraced `train_with_scheme`.
    traced_step_ms: f64,
    untraced_step_ms: f64,
    learned: bool,
}

fn trace_training(seed: u64, budget: Duration) -> Training {
    let mut setting = qat::setting(seed);
    setting.train.epochs = TRACE_EPOCHS;
    let cfg = setting.train.clone();
    let (train, test) = generate(&setting.data);
    let steps = (TRACE_EPOCHS * train.len().div_ceil(qat::BATCH)) as f64;

    let mut net = qat::build_model(&setting);
    let r = train_with_scheme(&mut net, &QuantScheme::ours(), &train, &test, &cfg);
    let untraced_step_ms = r.total_seconds * 1e3 / steps;

    let mut net = qat::build_model(&setting);
    set_quant_enabled(&mut net, true);
    set_psum_quant_enabled(&mut net, true);
    let mut opt = Sgd::new(cfg.lr.lr_at(0), cfg.momentum, cfg.weight_decay);
    let mut rng = CqRng::new(cfg.seed);
    let (mut fwd, mut bwd, mut optim, mut batch, mut eval) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut losses = Vec::new();
    let start = Instant::now();
    for e in 0..TRACE_EPOCHS {
        opt.lr = cfg.lr.lr_at(e);
        let t = Instant::now();
        let batches = shuffled_batches(&train, cfg.batch_size, &mut rng, cfg.augment);
        batch.push(t.elapsed().as_secs_f64() * 1e3 / batches.len() as f64);
        let mut loss_sum = 0.0;
        for b in &batches {
            let t0 = Instant::now();
            let logits = net.forward(&b.images, Mode::Train);
            let t1 = Instant::now();
            let out = softmax_cross_entropy(&logits, &b.labels);
            net.zero_grads();
            let _ = net.backward(&out.grad);
            let t2 = Instant::now();
            opt.step(&mut net);
            let t3 = Instant::now();
            fwd.push((t1 - t0).as_secs_f64() * 1e3);
            bwd.push((t2 - t1).as_secs_f64() * 1e3);
            optim.push((t3 - t2).as_secs_f64() * 1e3);
            loss_sum += out.loss as f64;
        }
        losses.push(loss_sum / batches.len() as f64);
        let t = Instant::now();
        black_box(evaluate(&mut net, &test, cfg.batch_size));
        eval.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let traced_step_ms = start.elapsed().as_secs_f64() * 1e3 / steps;
    let learned = losses.iter().all(|l| l.is_finite());

    // Weight LSQ (quantize plus STE backward) and bit-splitting, per QAT
    // step at each conv's shape.
    let mut lsq = 0.0;
    let mut bitsplit = 0.0;
    let mut convs = 0;
    for_each_cim_conv(&mut net, |_| convs += 1);
    let each = budget / (2 * convs.max(1)) as u32;
    for_each_cim_conv(&mut net, |c| {
        let layout = c.plan().weight_layout(c.weight_granularity());
        let w = c.weight().clone();
        let grad = Tensor::full(w.shape(), 1e-3);
        let mut q = c.weight_quantizer().clone();
        lsq += time_ms(each, || {
            black_box(q.forward_int(&w, &layout));
            black_box(q.backward(&w, &grad, &layout));
        });
        let w_int = q.forward_int(&w, &layout);
        let split = c.to_quantized_conv().bit_split;
        bitsplit += time_ms(each, || {
            for s in 0..split.num_splits() {
                black_box(split.split_tensor(&w_int, s));
            }
        });
    });
    Training {
        forward_ms: median(&fwd),
        backward_ms: median(&bwd),
        optim_ms: median(&optim),
        eval_ms_per_epoch: median(&eval),
        batch_ms: median(&batch),
        weight_lsq_ms: lsq,
        bitsplit_ms: bitsplit,
        traced_step_ms,
        untraced_step_ms,
        learned,
    }
}

/// The traced run of workload `w`.
pub fn run(w: Workload, seed: u64, window: Duration) -> Report {
    let mut report = Report::default();
    let models = workloads::models(w);

    // Serving first: the untraced window also warms arenas and the pool.
    let dep = workloads::deploy(w, seed);
    let serve_window = window.mul_f64(0.25);
    let warm = workloads::traced_serve_window(w, &dep, seed ^ 0xA5A5, workloads::WARMUP, false);
    let plain = workloads::traced_serve_window(w, &dep, seed, serve_window, false);
    let spawned_before = exec::os_threads_spawned();
    let traced = workloads::traced_serve_window(w, &dep, seed, serve_window, true);
    let _ = dep.session.shutdown();
    for out in [&warm, &plain, &traced] {
        report.attempted += out.attempted;
        report.failed += out.failed();
    }

    let inference: Vec<Inference> = models
        .iter()
        .map(|m| trace_inference(m, seed, window.mul_f64(0.3) / models.len() as u32))
        .collect();
    let spawned = exec::os_threads_spawned() - spawned_before;
    let training = trace_training(seed, window.mul_f64(0.05));

    workloads::serving_check(&mut report);
    report.check(
        "stage-by-stage conv sweeps bit-exact to PreparedConv::infer and the frozen layer",
        inference.iter().all(|i| i.exact),
    );
    report.check("traced QAT losses finite", training.learned);
    for inf in &inference {
        let share = inf.unattributed_ms().abs() / inf.serial_sweep_ms;
        report.check(
            format!(
                "{}: stage sum within {RECONCILE_TOLERANCE} of core.serial_sweep_ms.b8 (off by {share:.3})",
                inf.name
            ),
            share <= RECONCILE_TOLERANCE,
        );
    }
    report.check("no executor threads spawned in steady state", spawned == 0);

    // Inference layers: the mean over resident models (traffic is split
    // evenly between them).
    let avg = |f: &dyn Fn(&Inference) -> f64| mean(&inference.iter().map(f).collect::<Vec<_>>());
    // Single-threaded GEMM rate; 0 when no layer runs the integer kernels
    // (e.g. `CQ_BACKEND=f32`).
    let igemm_ms = avg(&|i| i.sum(|c| c.igemm));
    let macs = avg(&|i| i.counts.igemm_macs as f64);
    let gmac_per_s = if igemm_ms > 0.0 {
        macs * B8 as f64 / (igemm_ms * 1e6)
    } else {
        0.0
    };
    report.layer("tensor.igemm_gmac_per_s", gmac_per_s, "GMAC/s");
    report.layer("tensor.igemm_macs_per_image", macs, "count");
    report.layer(
        "tensor.igemm_bytes_per_image",
        avg(&|i| i.counts.igemm_bytes as f64),
        "bytes",
    );
    report.layer("tensor.im2col_ms.b8", avg(&|i| i.sum(|c| c.im2col)), "ms");
    report.layer("tensor.widen_ms.b8", avg(&|i| i.sum(|c| c.widen)), "ms");
    report.layer("tensor.os_threads_spawned", spawned as f64, "count");
    report.layer("cim.conv_ms.b8", avg(&|i| i.sum(|c| c.conv)), "ms");
    report.layer("cim.frontend_ms.b8", avg(&|i| i.sum(|c| c.frontend)), "ms");
    report.layer("cim.digitize_ms.b8", avg(&|i| i.sum(|c| c.digitize)), "ms");
    report.layer("cim.actquant_ms.b8", avg(&|i| i.sum(|c| c.actquant)), "ms");
    report.layer(
        "cim.adc_conversions_per_image",
        avg(&|i| i.counts.adc_conversions as f64),
        "count",
    );
    report.layer(
        "cim.dequant_mults",
        avg(&|i| i.counts.dequant_mults as f64),
        "count",
    );
    report.layer("core.freeze_ms", avg(&|i| i.freeze_ms), "ms");
    for (k, b) in SWEEP_BATCHES.iter().enumerate() {
        report.layer(
            &format!("core.sweep_ms.b{b}"),
            avg(&|i| i.sweep_ms[k]),
            "ms",
        );
    }
    report.layer("core.serial_sweep_ms.b8", avg(&|i| i.serial_sweep_ms), "ms");
    report.layer(
        "core.unattributed_ms.b8",
        avg(&|i| i.unattributed_ms()),
        "ms",
    );
    report.layer("nn.noncim_ms.b8", avg(&|i| i.noncim_ms), "ms");
    for inf in &inference {
        let prefix = if inference.len() > 1 {
            format!("{}.", inf.name)
        } else {
            String::new()
        };
        for (l, c) in inf.convs.iter().enumerate() {
            report.detail(&format!("{prefix}cim.conv_ms.L{l}"), c.conv, "ms", None);
        }
    }

    // Serving layer, from the traced window.
    let sweep_for = |model: usize, rows: usize| {
        let k = SWEEP_BATCHES
            .iter()
            .position(|&b| b == rows)
            .expect("request size is a sweep batch");
        inference[model].sweep_ms[k]
    };
    let noncompute: Vec<f64> = traced
        .latency_ms
        .iter()
        .zip(&traced.rows)
        .zip(&traced.models)
        .map(|((ms, &rows), &model)| ms - sweep_for(model, rows))
        .collect();
    let stats = traced.stats.as_ref().expect("serving windows carry stats");
    report.layer("serve.submit_us_p50", median(&traced.submit_us), "us");
    report.layer("serve.noncompute_ms_p50", median(&noncompute), "ms");
    report.layer("serve.noncompute_ms_p99", quantile(&noncompute, 0.99), "ms");
    report.layer(
        "serve.rows_per_sweep",
        stats.rows_swept as f64 / stats.batches.max(1) as f64,
        "rows",
    );
    report.layer("serve.queue_depth_mean", stats.mean_queue_depth, "requests");
    report.layer(
        "serve.queue_depth_peak",
        stats.peak_queue_depth as f64,
        "requests",
    );
    report.layer(
        "serve.rejected",
        (stats.rejected + stats.quota_rejected) as f64,
        "count",
    );
    report.layer("serve.output_mismatches", traced.mismatches as f64, "count");

    // Training layers.
    report.layer("train.forward_ms", training.forward_ms, "ms");
    report.layer("train.backward_ms", training.backward_ms, "ms");
    report.layer("train.optim_ms", training.optim_ms, "ms");
    report.layer("train.eval_ms_per_epoch", training.eval_ms_per_epoch, "ms");
    report.layer("data.batch_ms", training.batch_ms, "ms");
    report.layer("quant.weight_lsq_ms", training.weight_lsq_ms, "ms");
    report.layer("quant.bitsplit_ms", training.bitsplit_ms, "ms");

    // The benchmark itself.
    report.layer(
        "bench.generator_lag_ms_p99",
        quantile(&traced.lag_ms, 0.99),
        "ms",
    );
    let overhead = match w {
        Workload::QatTiny => training.traced_step_ms / training.untraced_step_ms - 1.0,
        _ => median(&traced.latency_ms) / median(&plain.latency_ms) - 1.0,
    };
    report.layer("bench.tracing_overhead_share", overhead, "share");
    report.notes.push(format!(
        "serving windows ({}): {} untraced and {} traced requests; inference stages timed at batch {B8}, \
         each the median over {} interleaved rounds (tensor kernels: busy time on one thread); \
         reconciliation tolerance {RECONCILE_TOLERANCE} of core.serial_sweep_ms.b8; tracing overhead = \
         relative change of {} between the untraced and the traced section",
        if w == Workload::ServeTiny {
            "open-loop Poisson at the fixed rate, latency from each request's due time"
        } else {
            "closed loop as in the untraced run"
        },
        plain.latency_ms.len(),
        traced.latency_ms.len(),
        inference.iter().map(|i| i.rounds.to_string()).collect::<Vec<_>>().join("/"),
        if w == Workload::QatTiny { "mean QAT step time" } else { "median request latency" },
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Work counts depend only on the model, so they repeat exactly across
    /// independent builds — a later change can rest a count claim on them.
    #[test]
    fn counts_repeat_exactly() {
        for m in [
            ModelSpec::resnet20(),
            ModelSpec::tiny("tiny-ours", QuantScheme::ours()),
            ModelSpec::tiny("tiny-bwma", QuantScheme::bwma()),
        ] {
            let a = model_counts(&m);
            assert_eq!(a, model_counts(&m), "{}", m.name);
            assert!(a.igemm_macs > 0 && a.adc_conversions > 0 && a.dequant_mults > 0);
        }
    }

    /// Once the executor pool is warm, inference spawns no OS threads.
    #[test]
    fn steady_state_spawns_no_threads() {
        let m = ModelSpec::tiny("tiny-ours", QuantScheme::ours());
        let mut model = PreparedCimModel::new(Box::new(m.build_warm()));
        let x = m.images(&mut CqRng::new(1), B8);
        let _ = model.infer(&x);
        let before = exec::os_threads_spawned();
        for _ in 0..5 {
            let _ = model.infer(&x);
        }
        assert_eq!(exec::os_threads_spawned(), before);
    }

    #[test]
    fn sites_follow_the_resnet20_layout() {
        let sites = cim_sites(&ResNetSpec::resnet20(10), 32);
        assert_eq!(sites.len(), 20);
        assert_eq!(
            sites[6],
            Site {
                in_ch: 16,
                out_ch: 32,
                k: 3,
                stride: 2,
                hw: 32
            }
        );
        assert_eq!(
            sites[8],
            Site {
                in_ch: 16,
                out_ch: 32,
                k: 1,
                stride: 2,
                hw: 32
            }
        );
        assert_eq!(
            sites[19],
            Site {
                in_ch: 64,
                out_ch: 64,
                k: 3,
                stride: 1,
                hw: 8
            }
        );
    }
}
