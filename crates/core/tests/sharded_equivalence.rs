//! Bit-exactness matrix for **split execution**: however a sweep is cut
//! up — `max_batch` chunking, pipeline waves of depth {1, 2, 7} (7
//! exceeds every chunk's row count), row segments run concurrently, and
//! the (batch × row-tile) kernel items every frozen conv spreads over the
//! exec pool — `PreparedCimModel::infer` and `infer_batch` must equal the
//! forced-f32 `infer_batch` oracle bit-for-bit across psq mode ×
//! granularity × digitizer on **every backend chain**: every cell runs
//! the forced f32 oracle,
//! the `auto` chain (integer i8/i32 panels where the frozen slices are
//! integer-eligible, simd-f32 fallback under variation), and the scalar
//! loop-nest reference.
//!
//! Digitizer regimes map onto the pipeline as in `prepared_inference`:
//! with psum quantization off the ideal (infinite-precision) converter
//! runs; with it on the behavioural ADC runs; `Variation` additionally
//! bakes per-cell log-normal device variation into the frozen weights.

use cq_cim::CimConfig;
use cq_core::{
    build_cim_resnet, set_psum_quant_enabled, set_variation, BackendSet, PreparedCimModel,
    QuantScheme, VariationMode,
};
use cq_nn::{Layer, Mode, ResNetSpec};
use cq_quant::Granularity;
use cq_tensor::{CqRng, Tensor};

/// One digitizer regime of the matrix.
#[derive(Clone, Copy, Debug)]
enum Digitizer {
    /// No device variation: ideal converter (psq off) or plain ADC (psq on).
    Clean,
    /// Per-cell log-normal variation baked into the frozen weights.
    Variation,
}

fn prepared_model(psq: bool, gran: Granularity, dig: Digitizer, seed: u64) -> PreparedCimModel {
    let mut net = build_cim_resnet(
        ResNetSpec::resnet8(4, 4),
        &CimConfig::tiny(),
        &QuantScheme::custom(gran, gran),
        seed,
    );
    if !psq {
        set_psum_quant_enabled(&mut net, false);
    }
    if let Digitizer::Variation = dig {
        set_variation(&mut net, Some(0.15), VariationMode::PerCell, 77);
    }
    // Initialize every lazy scale before freezing.
    let warm = CqRng::new(seed + 1000).normal_tensor(&[2, 3, 12, 12], 1.0);
    let _ = net.forward(&warm, Mode::Eval);
    PreparedCimModel::new(Box::new(net))
}

fn check_cell(psq: bool, gran: Granularity, dig: Digitizer, seed: u64) {
    let ctx = format!("psq={psq} gran={gran} dig={dig:?}");
    let rng = &mut CqRng::new(seed + 2000);
    // A small and an oversized request: with max_batch = 3 the second is
    // chunked, so the waves compose with the coalescing/chunking path.
    let requests = [
        rng.normal_tensor(&[1, 3, 12, 12], 1.0),
        rng.normal_tensor(&[7, 3, 12, 12], 1.0),
    ];
    let mut pm = prepared_model(psq, gran, dig, seed);
    pm.set_max_batch(Some(3));
    // The forced f32 kernels are the oracle the whole cell pins against.
    pm.set_backends(BackendSet::f32()).unwrap();
    let want = pm.infer_batch(&requests);

    for backends in [BackendSet::f32(), BackendSet::auto(), BackendSet::scalar()] {
        let ctx = format!("{ctx} chain={backends:?}");
        pm.set_backends(backends.clone()).unwrap();
        // Under the `auto` chain, Clean cells run the integer panels in
        // every frozen conv (tiny-config slices are always
        // integer-eligible) while Variation cells fall back to simd-f32
        // in every conv (the baked per-cell perturbation pushes slices
        // off-integer). The forced chains never activate the panels.
        let (active, total) = pm.count_integer_kernels();
        assert!(total > 0, "{ctx}: no frozen convs counted");
        let expect_active = match dig {
            Digitizer::Clean if backends == BackendSet::auto() => total,
            _ => 0,
        };
        assert_eq!(
            active, expect_active,
            "{ctx}: integer-kernel activation count"
        );
        for depth in [1usize, 2, 7] {
            // 7 exceeds every sweep's row count here — the waves must
            // clamp, never produce empty ones.
            pm.set_pipeline_depth(depth);
            let got = pm.infer_batch(&requests);
            assert_eq!(got, want, "{ctx} depth={depth}: infer_batch diverged");
            // The unchunked `infer` on each whole request.
            for (req, w) in requests.iter().zip(&want) {
                assert_eq!(&pm.infer(req), w, "{ctx} depth={depth}: infer diverged");
            }
        }
        pm.set_pipeline_depth(2);
    }
}

/// psq {off, on} × granularity × digitizer × chain × wave depth {1, 2, 7}.
#[test]
fn sharded_equivalence_full_matrix() {
    let mut seed = 9000;
    for psq in [false, true] {
        for gran in Granularity::ALL {
            for dig in [Digitizer::Clean, Digitizer::Variation] {
                check_cell(psq, gran, dig, seed);
                seed += 100;
            }
        }
    }
}

/// A representative cell must be bit-identical across executor pool
/// widths 1, 2, and the machine parallelism — (batch × row-tile) kernel
/// items and pipeline waves reschedule with the pool, the bits never move.
#[test]
fn sharded_cell_is_bit_exact_at_every_pool_width() {
    let requests = {
        let rng = &mut CqRng::new(31416);
        [
            rng.normal_tensor(&[1, 3, 12, 12], 1.0),
            rng.normal_tensor(&[7, 3, 12, 12], 1.0),
        ]
    };
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut outputs: Vec<(usize, Vec<Tensor>)> = Vec::new();
    for width in [1, 2, ncpu] {
        let pool = cq_tensor::exec::ExecPool::with_threads(width);
        let got = pool.install(|| {
            // Rebuilt per width: construction is deterministic per seed.
            let mut pm = prepared_model(true, Granularity::Column, Digitizer::Clean, 31415);
            pm.set_max_batch(Some(3));
            let got = pm.infer_batch(&requests);
            assert_eq!(
                got,
                pm.infer_batch(&requests),
                "width {width}: not idempotent"
            );
            got
        });
        outputs.push((width, got));
    }
    let (w0, base) = &outputs[0];
    for (w, got) in &outputs[1..] {
        assert_eq!(got, base, "pool width {w} diverged from width {w0}");
    }
}

/// Row segments: slicing an oversized request into contiguous row
/// segments, running each through the shared path concurrently, and
/// concatenating the slices must reproduce the whole sweep bit-for-bit —
/// the decomposition pipeline waves and concurrent serve workers rely on.
#[test]
fn batch_segment_sharding_rejoins_bit_exactly() {
    let pm = prepared_model(true, Granularity::Column, Digitizer::Clean, 4242);
    let big = CqRng::new(4243).normal_tensor(&[9, 3, 12, 12], 1.0);
    let want = pm.infer_batch(std::slice::from_ref(&big)).pop().unwrap();
    let pm = &pm;
    for max_rows in [2usize, 4, 9, 16] {
        let rows = big.dim(0);
        let segments: Vec<_> = (0..rows)
            .step_by(max_rows)
            .map(|lo| lo..(lo + max_rows).min(rows))
            .collect();
        let mut parts: Vec<Option<Tensor>> = vec![None; segments.len()];
        std::thread::scope(|sc| {
            for (seg, out) in segments.into_iter().zip(parts.iter_mut()) {
                let big = &big;
                sc.spawn(move || {
                    *out = Some(pm.infer(&big.slice_outer(seg.start, seg.end)));
                });
            }
        });
        let parts: Vec<Tensor> = parts.into_iter().map(Option::unwrap).collect();
        let got = Tensor::concat_outer(&parts.iter().collect::<Vec<_>>());
        assert_eq!(got, want, "max_rows={max_rows}");
    }
}

/// **Mixed-scheme multi-model serving**: one resident model per scheme
/// (paper LSQ column-wise, BWMA, hybrid-ADC) in a single 2-worker
/// session. Every request — small and
/// oversized — must come back bit-identical to the standalone
/// whole-model forward of the scheme that served it, and the final stats
/// must attribute images to all three schemes.
#[test]
fn mixed_scheme_multi_model_serve_matches_whole_model() {
    use cq_serve::{CimServer, ModelRegistry, Request, ServeConfig};

    let schemes = [
        QuantScheme::ours(),
        QuantScheme::bwma(),
        QuantScheme::hybrid_adc(),
    ];
    let build = |scheme: &QuantScheme, seed: u64| {
        let mut net = build_cim_resnet(ResNetSpec::resnet8(4, 4), &CimConfig::tiny(), scheme, seed);
        let warm = CqRng::new(seed + 1000).normal_tensor(&[2, 3, 12, 12], 1.0);
        let _ = net.forward(&warm, Mode::Eval);
        net
    };
    let mut refs = Vec::new();
    let mut registry = ModelRegistry::new();
    for (i, scheme) in schemes.iter().enumerate() {
        let seed = 6100 + 10 * i as u64;
        // Construction is deterministic per seed: the reference net and
        // the served twin are bit-identical models.
        refs.push(build(scheme, seed));
        registry.register(
            scheme.name.clone(),
            PreparedCimModel::new(Box::new(build(scheme, seed))),
        );
    }
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .workers(2)
            .max_batch(Some(3))
            .build()
            .unwrap(),
    )
    .start();

    let rng = &mut CqRng::new(6200);
    let mut tickets = Vec::new();
    for batch in [1usize, 7] {
        for (i, scheme) in schemes.iter().enumerate() {
            let x = rng.normal_tensor(&[batch, 3, 12, 12], 1.0);
            let t = session
                .submit(Request::to(scheme.name.as_str()).batch(x.clone()))
                .unwrap();
            tickets.push((i, x, t));
        }
    }
    for (i, x, t) in tickets {
        let want = refs[i].forward(&x, Mode::Eval);
        assert_eq!(
            t.wait().output,
            want,
            "scheme '{}' diverged from its whole-model forward under \
             mixed-scheme serving",
            schemes[i].name
        );
    }

    let (stats, _models) = session.shutdown();
    let by_scheme = stats.images_by_scheme();
    for scheme in &schemes {
        let images = by_scheme
            .iter()
            .find(|(s, _)| s == &scheme.name)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert_eq!(images, 8, "scheme '{}' image attribution", scheme.name);
    }
}
