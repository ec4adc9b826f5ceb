//! **Serving SLO** — open-loop latency/throughput of the `cq-serve`
//! front-end (bounded queue + SLO-aware batch scheduler + multi-model
//! registry) under seeded Poisson-ish request
//! streams, driven through the **owned-session client**: one replay
//! thread keeps every ticket in flight and multiplexes completions
//! through a single `CompletionSet::wait_any_timeout` loop (no
//! thread-per-ticket), with every wait bounded so a scheduler regression
//! fails CI loudly instead of hanging it.
//!
//! The experiment first calibrates closed-loop capacity (submit
//! everything at once, Block admission), then replays four open-loop
//! points against two resident models:
//!
//! * **underload** — ~60% of calibrated capacity, Block admission, mixed
//!   `Latency`/`Bulk` classes;
//! * **overload-fifo** — ~130% of capacity, Reject admission, all-bulk
//!   FIFO scheduling — the PR 3 baseline;
//! * **overload-slo** — the **same offered load** with 50% latency-class
//!   tickets (deadlines attached), so the artifact
//!   directly shows the latency-class p99 win over FIFO at equal load;
//! * **overload-aged** — the identical stream again under
//!   `SchedulerPolicy::Aging`, so the artifact also shows the bulk
//!   starvation bound working (aged promotions > 0, bulk p99 pulled back
//!   toward the FIFO level) at a small latency-class cost.
//!
//! Per point it reports p50/p99 submit→complete latency (overall and per
//! class), deadline-miss rate, achieved images/sec, shed requests, queue
//! depth, and aged promotions. Results are returned as markdown and
//! written to `BENCH_serving.json` (consumed by CI as an artifact).
//! Arrival schedules and inputs are
//! seeded; wall-clock numbers vary with the machine, the stream replayed
//! does not.

use crate::{markdown_table, ExperimentSetting, Scale};
use cq_core::{build_cim_resnet, PreparedCimModel, QuantScheme};
use cq_nn::{Layer, Mode};
use cq_serve::{
    Admission, BackendKind, BackendStats, CimServer, CompletionSet, LatencyHistogram, ModelId,
    ModelRegistry, Request, SchedulerPolicy, ServeConfig, ServeSession, ServeStats, Slo,
    StreamSpec, SubmitError, TenantSpec,
};
use cq_tensor::{max_threads, CqRng, Tensor};
use std::time::{Duration, Instant};

/// Upper bound on any single completion wait during a replay: generous
/// against slow CI machines, but finite — a scheduler deadlock or lost
/// wakeup fails the benchmark instead of hanging the job.
const STALL_BOUND: Duration = Duration::from_secs(120);

/// Per-SLO-class measurements at one load point.
#[derive(Debug, Clone)]
pub struct ClassPoint {
    /// Class label ("latency" / "bulk").
    pub slo: &'static str,
    /// Tickets completed under this class.
    pub completed: u64,
    /// Completions after their deadline.
    pub missed: u64,
    /// Median submit→complete latency.
    pub p50_ms: f64,
    /// 99th-percentile submit→complete latency.
    pub p99_ms: f64,
}

/// One measured offered-load point.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Point label ("underload" / "overload-fifo" / "overload-slo" /
    /// "overload-aged").
    pub label: &'static str,
    /// Admission policy at this point.
    pub admission: Admission,
    /// Offered arrival rate, requests/sec (requests carry 1–6 images).
    pub offered_rps: f64,
    /// Fraction of stream requests carrying the latency class (classes
    /// are reported against the stream labels even at the FIFO point).
    pub latency_fraction: f64,
    /// `true` = PR 3 FIFO baseline (every request submitted as bulk);
    /// `false` = SLO scheduling with the stream's classes.
    pub fifo: bool,
    /// Scheduler policy label ("strict" / "aging").
    pub policy: &'static str,
    /// The aging threshold, when `policy == "aging"`.
    pub bulk_max_age_ms: Option<f64>,
    /// Requests admitted and served.
    pub completed: u64,
    /// Requests shed by Reject admission.
    pub rejected: u64,
    /// Served images over the point's makespan.
    pub images_per_sec: f64,
    /// Median submit→complete latency (all classes).
    pub p50_ms: f64,
    /// 99th-percentile submit→complete latency (all classes).
    pub p99_ms: f64,
    /// Fraction of deadline-carrying (stream-latency) requests that
    /// missed their deadline.
    pub deadline_miss_rate: f64,
    /// Mean queue depth (sampled at each admission).
    pub mean_queue_depth: f64,
    /// Peak queue depth.
    pub peak_queue_depth: usize,
    /// Bulk sweeps served ahead of pending latency work by the aging
    /// policy.
    pub aged_promotions: u64,
    /// Per-execution-backend counters (indexed by
    /// [`BackendKind::index`]).
    pub backends: [BackendStats; 3],
    /// Per-class breakdown (present for classes that saw traffic).
    pub classes: Vec<ClassPoint>,
}

/// Per-tenant measurements at the churn point (from
/// [`TenantStats`](cq_serve::TenantStats), histogram collapsed to
/// count/p50/p99).
#[derive(Debug, Clone)]
pub struct TenantPoint {
    /// Tenant name.
    pub name: String,
    /// Weighted-fair scheduling weight.
    pub weight: f32,
    /// Requests served for this tenant.
    pub served: u64,
    /// Images served for this tenant (the unit WFQ balances).
    pub rows: u64,
    /// Submissions turned away at a quota.
    pub quota_rejected: u64,
    /// Observations in the tenant's latency histogram.
    pub hist_count: u64,
    /// Histogram p50 (bucket upper bound), microseconds.
    pub hist_p50_us: u64,
    /// Histogram p99 (bucket upper bound), microseconds.
    pub hist_p99_us: u64,
}

/// The long-running hot-swap churn point: tenant-tagged traffic against
/// an autoscaling pool while resident models are evicted and replaced
/// mid-stream. `lost_tickets == 0` is asserted at run time — every
/// admitted ticket resolved even across the swaps and pool resizes.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// Offered arrival rate, requests/sec.
    pub offered_rps: f64,
    /// Requests replayed.
    pub requests: usize,
    /// Mid-stream evict+register cycles performed.
    pub swaps: u64,
    /// `ServeStats::hot_registered` after the run.
    pub hot_registered: u64,
    /// `ServeStats::evictions` after the run.
    pub evictions: u64,
    /// Evict tickets that resolved with their reclaimed model.
    pub reclaimed: u64,
    /// Admitted tickets that never resolved — asserted `0` at run time.
    pub lost_tickets: u64,
    /// Requests served.
    pub completed: u64,
    /// Served images over the point's makespan.
    pub images_per_sec: f64,
    /// Median submit→complete latency.
    pub p50_ms: f64,
    /// 99th-percentile submit→complete latency.
    pub p99_ms: f64,
    /// Autoscaler grow+shrink events.
    pub worker_resizes: u64,
    /// Configured pool floor.
    pub workers_min: usize,
    /// Configured pool ceiling.
    pub workers_max: usize,
    /// Most workers ever live at once.
    pub workers_peak: usize,
    /// Observations in the merged (latency + bulk) histogram.
    pub hist_count: u64,
    /// Merged-histogram p50 (bucket upper bound), microseconds.
    pub hist_p50_us: u64,
    /// Merged-histogram p99 (bucket upper bound), microseconds.
    pub hist_p99_us: u64,
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantPoint>,
}

/// Full result of the serving experiment.
#[derive(Debug, Clone)]
pub struct ServingResult {
    /// Experiment size.
    pub scale: Scale,
    /// Effective kernel thread cap during the run.
    pub threads: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Resident models.
    pub models: usize,
    /// Requests per load point.
    pub requests: usize,
    /// Image shape `[C, H, W]`.
    pub image: [usize; 3],
    /// Closed-loop capacity the load points are scaled from.
    pub calibrated_ips: f64,
    /// The measured offered-load points.
    pub points: Vec<LoadPoint>,
    /// The hot-swap churn point (tenants + autoscaling + mid-stream
    /// model swaps).
    pub churn: ChurnPoint,
}

fn point_json(p: &LoadPoint) -> String {
    let classes = p
        .classes
        .iter()
        .map(|c| {
            format!(
                "{{\"slo\": \"{}\", \"completed\": {}, \"missed\": {}, \
                 \"p50_latency_ms\": {:.3}, \"p99_latency_ms\": {:.3}}}",
                c.slo, c.completed, c.missed, c.p50_ms, c.p99_ms
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let backends = BackendKind::ALL
        .iter()
        .map(|kind| {
            let b = &p.backends[kind.index()];
            format!(
                "{{\"backend\": \"{}\", \"sweeps\": {}, \
                 \"images\": {}, \"active_layers\": {}}}",
                kind.name(),
                b.sweeps,
                b.images,
                b.active_layers
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "    {{\"label\": \"{}\", \"admission\": \"{}\", \"offered_rps\": {:.3}, \
         \"latency_fraction\": {:.2}, \"scheduling\": \"{}\", \
         \"policy\": \"{}\", \"bulk_max_age_ms\": {}, \
         \"completed\": {}, \"rejected\": {}, \"images_per_sec\": {:.3}, \
         \"p50_latency_ms\": {:.3}, \"p99_latency_ms\": {:.3}, \
         \"deadline_miss_rate\": {:.4}, \
         \"mean_queue_depth\": {:.3}, \"peak_queue_depth\": {}, \
         \"aged_promotions\": {}, \
         \"backends\": [{}], \
         \"classes\": [{}]}}",
        p.label,
        match p.admission {
            Admission::Block => "block",
            Admission::Reject => "reject",
        },
        p.offered_rps,
        p.latency_fraction,
        if p.fifo { "fifo" } else { "slo" },
        p.policy,
        p.bulk_max_age_ms
            .map_or("null".to_string(), |ms| format!("{ms:.3}")),
        p.completed,
        p.rejected,
        p.images_per_sec,
        p.p50_ms,
        p.p99_ms,
        p.deadline_miss_rate,
        p.mean_queue_depth,
        p.peak_queue_depth,
        p.aged_promotions,
        backends,
        classes
    )
}

fn churn_json(c: &ChurnPoint) -> String {
    let tenants = c
        .tenants
        .iter()
        .map(|t| {
            format!(
                "{{\"tenant\": \"{}\", \"weight\": {:.2}, \"served\": {}, \
                 \"rows\": {}, \"quota_rejected\": {}, \
                 \"histogram\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}}}}}",
                t.name,
                t.weight,
                t.served,
                t.rows,
                t.quota_rejected,
                t.hist_count,
                t.hist_p50_us,
                t.hist_p99_us
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "  \"churn\": {{\"offered_rps\": {:.3}, \"requests\": {}, \"swaps\": {}, \
         \"hot_registered\": {}, \"evictions\": {}, \"reclaimed\": {}, \
         \"lost_tickets\": {}, \"completed\": {}, \"images_per_sec\": {:.3}, \
         \"p50_latency_ms\": {:.3}, \"p99_latency_ms\": {:.3}, \
         \"worker_resizes\": {}, \"workers_min\": {}, \"workers_max\": {}, \
         \"workers_peak\": {}, \
         \"histogram\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}}}, \
         \"tenants\": [{}]}}",
        c.offered_rps,
        c.requests,
        c.swaps,
        c.hot_registered,
        c.evictions,
        c.reclaimed,
        c.lost_tickets,
        c.completed,
        c.images_per_sec,
        c.p50_ms,
        c.p99_ms,
        c.worker_resizes,
        c.workers_min,
        c.workers_max,
        c.workers_peak,
        c.hist_count,
        c.hist_p50_us,
        c.hist_p99_us,
        tenants
    )
}

impl ServingResult {
    /// Renders the machine-readable report (hand-rolled JSON; the
    /// workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"scale\": \"{:?}\",\n", self.scale));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!("  \"models\": {},\n", self.models));
        s.push_str(&format!("  \"requests_per_point\": {},\n", self.requests));
        s.push_str(&format!(
            "  \"image\": [{}, {}, {}],\n",
            self.image[0], self.image[1], self.image[2]
        ));
        s.push_str(&format!(
            "  \"calibrated_images_per_sec\": {:.3},\n",
            self.calibrated_ips
        ));
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(&point_json(p));
            s.push_str(if i + 1 < self.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str(&churn_json(&self.churn));
        s.push_str("\n}\n");
        s
    }
}

/// `q`-quantile (0..=1) of unsorted latency samples, in milliseconds.
fn percentile_ms(samples: &mut [Duration], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx].as_secs_f64() * 1e3
}

/// Builds one frozen model for the setting (deterministic per seed).
fn build_model(setting: &ExperimentSetting, seed: u64) -> PreparedCimModel {
    let (c, hw) = (setting.data.channels, setting.data.image_size);
    let mut net = build_cim_resnet(
        setting.model.clone(),
        &setting.cim,
        &QuantScheme::ours(),
        seed,
    );
    let warm = CqRng::new(seed + 1)
        .normal_tensor(&[2, c, hw, hw], 1.0)
        .map(|v| v.max(0.0));
    let _ = net.forward(&warm, Mode::Eval);
    PreparedCimModel::new(Box::new(net))
}

/// One replayed ticket outcome.
struct Outcome {
    slo: Slo,
    missed: bool,
    latency: Duration,
}

/// Replays `stream` (paired with pre-generated inputs) against an owned
/// session: submits each request at its arrival offset through the
/// `Request` builder, keeps every admitted ticket in flight in one
/// `CompletionSet`, then drains them through bounded
/// `wait_any_timeout` calls — one thread multiplexing the entire
/// in-flight window, and a hang-proof failure mode.
///
/// With `fifo` set, every request is submitted as [`Slo::Bulk`] — the
/// PR 3 FIFO baseline — but outcomes still carry the request's *stream*
/// class, so the would-be-latency subset is directly comparable between
/// the FIFO and SLO schedules over identical requests. Stream-latency
/// requests carry `deadline` in both modes (deadline accounting is
/// orthogonal to scheduling class).
fn replay(
    session: &ServeSession,
    ids: &[ModelId],
    stream: &[cq_serve::StreamRequest],
    inputs: &[Tensor],
    deadline: Option<Duration>,
    fifo: bool,
) -> (Vec<Outcome>, Duration) {
    let t0 = Instant::now();
    let mut inflight = CompletionSet::new();
    // Stream class per inserted ticket, indexed by the set's dense keys.
    let mut stream_slo: Vec<Slo> = Vec::with_capacity(stream.len());
    for (r, x) in stream.iter().zip(inputs) {
        let target = t0 + r.at;
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let submit_slo = if fifo { Slo::Bulk } else { r.slo };
        let mut req = Request::to_id(ids[r.model])
            .batch(x.clone())
            .slo(submit_slo);
        if r.slo == Slo::Latency {
            if let Some(d) = deadline {
                req = req.deadline(d);
            }
        }
        match session.submit(req) {
            Ok(t) => {
                inflight.insert(t);
                stream_slo.push(r.slo);
            }
            Err(SubmitError::QueueFull(_)) => {} // shed; counted in stats
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
    }
    let mut outcomes = Vec::with_capacity(inflight.len());
    while !inflight.is_empty() {
        match inflight.wait_any_timeout(STALL_BOUND) {
            Some((key, c)) => outcomes.push(Outcome {
                slo: stream_slo[key.index()],
                missed: c.missed,
                latency: c.latency,
            }),
            None => panic!(
                "serving stalled: {} tickets unresolved after {STALL_BOUND:?} \
                 (scheduler regression?)",
                inflight.len()
            ),
        }
    }
    (outcomes, t0.elapsed())
}

/// Measures the serving SLO experiment and returns the structured result.
pub fn measure(scale: Scale) -> ServingResult {
    let setting = ExperimentSetting::cifar10(scale, 500);
    let (c, hw) = (setting.data.channels, setting.data.image_size);
    let requests = match scale {
        Scale::Ci => 24,
        Scale::Quick => 64,
        Scale::Full => 192,
    };
    let workers = 2;

    let mut registry = ModelRegistry::new();
    let ids = vec![
        registry.register("resnet-a", build_model(&setting, 501)),
        registry.register("resnet-b", build_model(&setting, 503)),
    ];
    let cfg = |admission: Admission, policy: SchedulerPolicy| {
        ServeConfig::builder()
            .queue_capacity(32)
            .admission(admission)
            .max_batch(Some(8))
            .max_wait(Duration::from_micros(500))
            .workers(workers)
            .policy(policy)
            .build()
            .expect("valid serve config")
    };

    // Closed-loop calibration: everything arrives at t=0, Block admission —
    // the server runs flat out, giving the capacity the open-loop points
    // are scaled from. Each point runs one owned session; between points
    // the models round-trip through `shutdown` → `from_models`.
    let cal_stream = StreamSpec {
        rate_rps: 1e9,
        requests,
        models: 2,
        batch_choices: vec![1],
        latency_fraction: 0.0,
        seed: 510,
        tenants: vec![],
    }
    .generate();
    let rng = &mut CqRng::new(511);
    let cal_inputs: Vec<Tensor> = cal_stream
        .iter()
        .map(|_| rng.normal_tensor(&[1, c, hw, hw], 1.0).map(|v| v.max(0.0)))
        .collect();
    let session = CimServer::new(registry, cfg(Admission::Block, SchedulerPolicy::Strict)).start();
    let (_, cal_span) = replay(&session, &ids, &cal_stream, &cal_inputs, None, true);
    let (cal_stats, mut models): (ServeStats, _) = session.shutdown();
    let calibrated_ips = cal_stats.rows_swept as f64 / cal_span.as_secs_f64().max(1e-9);
    // Latency deadline: a generous multiple of the mean per-image service
    // time, so misses mean real queueing, not noise.
    let deadline = Duration::from_secs_f64(20.0 / calibrated_ips.max(1.0));
    // Aging threshold for the overload-aged point: well above the latency
    // deadline (latency keeps near-absolute priority at burst scale) but
    // far below the replay makespan, so promotions actually fire.
    let bulk_max_age = 2 * deadline;

    let mut points = Vec::new();
    for (label, factor, admission, fifo, policy, seed) in [
        (
            "underload",
            0.6,
            Admission::Block,
            false,
            SchedulerPolicy::Strict,
            520u64,
        ),
        // The PR 3 baseline, the SLO run, and the aged run replay
        // the IDENTICAL request stream (same seed, same arrivals, same
        // batch sizes, same would-be classes) at the same offered load —
        // only the scheduling differs — so the latency-class p99 (and the
        // bulk starvation bound) are directly comparable against FIFO.
        (
            "overload-fifo",
            1.3,
            Admission::Reject,
            true,
            SchedulerPolicy::Strict,
            530,
        ),
        (
            "overload-slo",
            1.3,
            Admission::Reject,
            false,
            SchedulerPolicy::Strict,
            530,
        ),
        (
            "overload-aged",
            1.3,
            Admission::Reject,
            false,
            SchedulerPolicy::Aging { bulk_max_age },
            530,
        ),
    ] {
        let latency_fraction = 0.5;
        let offered_rps = (calibrated_ips * factor).max(1.0);
        // Mostly single-image requests with an occasional 6-image burst:
        // the bursts create the head-of-line blocking that priority
        // scheduling exists to cut through.
        let stream = StreamSpec {
            rate_rps: offered_rps,
            requests,
            models: 2,
            batch_choices: vec![1, 1, 1, 6],
            latency_fraction,
            seed,
            tenants: vec![],
        }
        .generate();
        let rng = &mut CqRng::new(seed + 1);
        let inputs: Vec<Tensor> = stream
            .iter()
            .map(|r| {
                rng.normal_tensor(&[r.batch, c, hw, hw], 1.0)
                    .map(|v| v.max(0.0))
            })
            .collect();
        let session =
            CimServer::new(ModelRegistry::from_models(models), cfg(admission, policy)).start();
        let (outcomes, span) = replay(&session, &ids, &stream, &inputs, Some(deadline), fifo);
        let (stats, returned) = session.shutdown();
        models = returned;
        let mut all: Vec<Duration> = outcomes.iter().map(|o| o.latency).collect();
        let mut classes = Vec::new();
        for (slo, name) in [(Slo::Latency, "latency"), (Slo::Bulk, "bulk")] {
            let mut lats: Vec<Duration> = outcomes
                .iter()
                .filter(|o| o.slo == slo)
                .map(|o| o.latency)
                .collect();
            if lats.is_empty() {
                continue;
            }
            classes.push(ClassPoint {
                slo: name,
                completed: lats.len() as u64,
                missed: outcomes.iter().filter(|o| o.slo == slo && o.missed).count() as u64,
                p50_ms: percentile_ms(&mut lats, 0.50),
                p99_ms: percentile_ms(&mut lats, 0.99),
            });
        }
        // Only stream-latency requests carry deadlines, so they are the
        // miss-rate denominator — bulk traffic must not dilute it.
        let with_deadline = outcomes.iter().filter(|o| o.slo == Slo::Latency).count();
        let missed = outcomes.iter().filter(|o| o.missed).count();
        points.push(LoadPoint {
            label,
            admission,
            offered_rps,
            latency_fraction,
            fifo,
            policy: match policy {
                SchedulerPolicy::Strict => "strict",
                SchedulerPolicy::Aging { .. } => "aging",
            },
            bulk_max_age_ms: policy.bulk_max_age().map(|d| d.as_secs_f64() * 1e3),
            completed: stats.served,
            rejected: stats.rejected,
            images_per_sec: stats.rows_swept as f64 / span.as_secs_f64().max(1e-9),
            p50_ms: percentile_ms(&mut all, 0.50),
            p99_ms: percentile_ms(&mut all, 0.99),
            deadline_miss_rate: if with_deadline == 0 {
                0.0
            } else {
                missed as f64 / with_deadline as f64
            },
            mean_queue_depth: stats.mean_queue_depth,
            peak_queue_depth: stats.peak_queue_depth,
            aged_promotions: stats.aged_promotions,
            backends: stats.backends,
            classes,
        });
    }

    let churn = measure_churn(&setting, models, requests, calibrated_ips, deadline);

    ServingResult {
        scale,
        threads: max_threads(),
        workers,
        models: 2,
        requests,
        image: [c, hw, hw],
        calibrated_ips,
        points,
        churn,
    }
}

/// The hot-swap churn point: tenant-tagged traffic (acme at weight 2,
/// beta at weight 1) against an autoscaling `1..=3` worker pool, with two
/// mid-stream swap cycles — evict a live model, register a freshly built
/// replacement under the **same name** — performed from the submit thread
/// so every by-name submission atomically routes to whichever version is
/// live. Block admission means every generated request is admitted, so
/// `lost_tickets` (admitted minus resolved) is exact — and asserted zero.
fn measure_churn(
    setting: &ExperimentSetting,
    models: Vec<(String, PreparedCimModel)>,
    requests: usize,
    calibrated_ips: f64,
    deadline: Duration,
) -> ChurnPoint {
    let (c, hw) = (setting.data.channels, setting.data.image_size);
    let names = ["resnet-a", "resnet-b"];
    let tenant_names = ["acme", "beta"];
    let offered_rps = (calibrated_ips * 0.9).max(1.0);
    let stream = StreamSpec {
        rate_rps: offered_rps,
        requests,
        models: 2,
        batch_choices: vec![1, 2],
        latency_fraction: 0.25,
        seed: 540,
        tenants: tenant_names.iter().map(|s| s.to_string()).collect(),
    }
    .generate();
    let rng = &mut CqRng::new(541);
    let inputs: Vec<Tensor> = stream
        .iter()
        .map(|r| {
            rng.normal_tensor(&[r.batch, c, hw, hw], 1.0)
                .map(|v| v.max(0.0))
        })
        .collect();
    let cfg = ServeConfig::builder()
        .queue_capacity(32)
        .admission(Admission::Block)
        .max_batch(Some(8))
        .max_wait(Duration::from_micros(500))
        .autoscale(1, 3)
        .scale_up_after(Duration::from_millis(1))
        .scale_down_idle(Duration::from_millis(25))
        .tenant(TenantSpec::new("acme").weight(2.0))
        .tenant(TenantSpec::new("beta"))
        .build()
        .expect("valid churn config");
    let session = CimServer::new(ModelRegistry::from_models(models), cfg).start();
    // Replacements are built before the replay so the swap itself is
    // cheap; each fires once, at 1/3 and 2/3 of the stream.
    let mut swaps = [
        (requests / 3, names[0], Some(build_model(setting, 505))),
        (2 * requests / 3, names[1], Some(build_model(setting, 507))),
    ];
    let t0 = Instant::now();
    let mut inflight = CompletionSet::new();
    let mut evict_tickets = Vec::new();
    for (i, (r, x)) in stream.iter().zip(&inputs).enumerate() {
        for (at, name, replacement) in &mut swaps {
            if i == *at {
                evict_tickets.push(session.evict(name).expect("evict a live model"));
                session
                    .register(*name, replacement.take().expect("swap fires once"))
                    .expect("register the replacement");
            }
        }
        let target = t0 + r.at;
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let mut req = Request::to(names[r.model])
            .batch(x.clone())
            .slo(r.slo)
            .tenant(tenant_names[r.tenant.expect("tenant-tagged stream")]);
        if r.slo == Slo::Latency {
            req = req.deadline(deadline);
        }
        inflight.insert(
            session
                .submit(req)
                .expect("Block admission admits every churn request"),
        );
    }
    let mut latencies: Vec<Duration> = Vec::with_capacity(inflight.len());
    while !inflight.is_empty() {
        match inflight.wait_any_timeout(STALL_BOUND) {
            Some((_, done)) => latencies.push(done.latency),
            None => panic!(
                "churn point stalled: {} tickets unresolved after {STALL_BOUND:?}",
                inflight.len()
            ),
        }
    }
    let span = t0.elapsed();
    let mut reclaimed = 0u64;
    for t in evict_tickets {
        match t.wait_timeout(STALL_BOUND) {
            Ok(model) => {
                drop(model);
                reclaimed += 1;
            }
            Err(_) => panic!("evict ticket resolves once its drain completes"),
        }
    }
    let (stats, _swapped) = session.shutdown();
    let lost_tickets = requests as u64 - latencies.len() as u64;
    assert_eq!(lost_tickets, 0, "hot-swap churn lost tickets");
    assert_eq!(stats.hot_registered, 2, "both swap registrations counted");
    assert_eq!(stats.evictions, 2, "both evictions counted");
    let mut hist = stats.latency_hist.clone();
    hist.merge(&stats.bulk_hist);
    let q_us = |h: &LatencyHistogram, q: f64| {
        h.quantile(q)
            .map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64)
    };
    ChurnPoint {
        offered_rps,
        requests,
        swaps: 2,
        hot_registered: stats.hot_registered,
        evictions: stats.evictions,
        reclaimed,
        lost_tickets,
        completed: stats.served,
        images_per_sec: stats.rows_swept as f64 / span.as_secs_f64().max(1e-9),
        p50_ms: percentile_ms(&mut latencies, 0.50),
        p99_ms: percentile_ms(&mut latencies, 0.99),
        worker_resizes: stats.workers.resizes,
        workers_min: stats.workers.min,
        workers_max: stats.workers.max,
        workers_peak: stats.workers.peak,
        hist_count: hist.count(),
        hist_p50_us: q_us(&hist, 0.50),
        hist_p99_us: q_us(&hist, 0.99),
        tenants: stats
            .tenants
            .iter()
            .map(|t| TenantPoint {
                name: t.name.clone(),
                weight: t.weight,
                served: t.served,
                rows: t.rows,
                quota_rejected: t.quota_rejected,
                hist_count: t.histogram.count(),
                hist_p50_us: q_us(&t.histogram, 0.50),
                hist_p99_us: q_us(&t.histogram, 0.99),
            })
            .collect(),
    }
}

/// Runs the experiment, writes `BENCH_serving.json`, and returns the
/// markdown report.
pub fn run(scale: Scale) -> String {
    let r = measure(scale);
    std::fs::write("BENCH_serving.json", r.to_json()).expect("write BENCH_serving.json");

    let class_cell = |p: &LoadPoint, name: &str| {
        p.classes
            .iter()
            .find(|c| c.slo == name)
            .map_or("-".to_string(), |c| {
                format!("{:.2}/{:.2}", c.p50_ms, c.p99_ms)
            })
    };
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.label.to_string(),
                format!("{:?}", p.admission),
                p.policy.to_string(),
                format!("{:.1}", p.offered_rps),
                format!("{:.1}", p.images_per_sec),
                format!("{}", p.completed),
                format!("{}", p.rejected),
                class_cell(p, "latency"),
                class_cell(p, "bulk"),
                format!("{:.1}%", p.deadline_miss_rate * 100.0),
                format!("{}", p.aged_promotions),
                format!("{:.1} / {}", p.mean_queue_depth, p.peak_queue_depth),
            ]
        })
        .collect();
    let mut out = String::from(
        "## Serving SLO — open-loop load against the cq-serve front-end \
         (priority classes + aging, multiplexed session client)\n\n",
    );
    out.push_str(&format!(
        "{} requests per point over {} resident models ({}×{}×{} images), \
         {} workers, {} kernel threads, closed-loop capacity {:.1} images/sec \
         ({:?} scale). One client thread replays each point \
         through an owned `ServeSession`, multiplexing every in-flight ticket \
         with `CompletionSet::wait_any` (all waits bounded). The three \
         `overload-*` points replay the same offered load, so the \
         latency-class p99 (SLO vs FIFO) and the bulk starvation bound \
         (aged vs strict) are directly comparable.\n\n",
        r.requests,
        r.models,
        r.image[0],
        r.image[1],
        r.image[2],
        r.workers,
        r.threads,
        r.calibrated_ips,
        r.scale
    ));
    out.push_str(&markdown_table(
        &[
            "point",
            "admission",
            "policy",
            "offered req/s",
            "images/sec",
            "completed",
            "shed",
            "latency p50/p99 ms",
            "bulk p50/p99 ms",
            "miss rate",
            "aged",
            "queue depth (mean/peak)",
        ],
        &rows,
    ));
    let ch = &r.churn;
    out.push_str(&format!(
        "\nChurn point: {} tenant-tagged requests at {:.1} req/s (acme at \
         weight 2, beta at weight 1) against an autoscaling {}..={} worker \
         pool, with {} mid-stream hot swaps (evict + re-register under the \
         same name): {} completed, {} lost tickets (asserted 0 at run \
         time), {} evict tickets reclaimed, {} worker resizes (peak {} \
         workers), merged-histogram p50/p99 {}/{} µs.\n",
        ch.requests,
        ch.offered_rps,
        ch.workers_min,
        ch.workers_max,
        ch.swaps,
        ch.completed,
        ch.lost_tickets,
        ch.reclaimed,
        ch.worker_resizes,
        ch.workers_peak,
        ch.hist_p50_us,
        ch.hist_p99_us,
    ));
    out.push_str(
        "\nEvery served output — including coalesced sweeps, hot-swapped \
         models, and every ticket resolution path — is bit-identical to \
         the direct `PreparedCimModel::infer` result (pinned by `cq-serve` \
         tests and the `sharded_equivalence` matrix); the numbers above are \
         written to `BENCH_serving.json`.\n",
    );
    out
}
