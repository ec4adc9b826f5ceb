//! Serving workloads: deploys frozen models behind a `ServeSession` with
//! `ServeConfig::default()` and drives them from one generator thread that
//! multiplexes its tickets through a `CompletionSet`.

use crate::models::{bits_equal, ModelSpec};
use crate::stats::windowed_rate;
use cq_core::PreparedCimModel;
use cq_serve::{
    CimServer, CompletionSet, ModelRegistry, Request, ServeConfig, ServeSession, ServeStats, Slo,
    StreamRequest,
};
use cq_tensor::{CqRng, Tensor};
use std::time::{Duration, Instant};

/// A request with no completion for this long counts as timed out and
/// ends the run.
const TIMEOUT: Duration = Duration::from_secs(20);
/// Window of the throughput median (see [`windowed_rate`]).
const RATE_WINDOW_S: f64 = 3.0;

/// Seeded inputs with their reference outputs, per model and request size.
pub struct Pools {
    sizes: Vec<usize>,
    /// `[model][size index]` → `(input, reference output)` pairs.
    entries: Vec<Vec<Vec<(Tensor, Tensor)>>>,
}

impl Pools {
    /// Draws an entry of `model`'s pool for requests of `size` images.
    fn pick(&self, model: usize, size: usize, rng: &mut CqRng) -> (usize, usize) {
        let si = self
            .sizes
            .iter()
            .position(|&s| s == size)
            .expect("request size has an input pool");
        (si, rng.below(self.entries[model][si].len()))
    }
}

/// A running session plus everything needed to check its outputs.
pub struct Deployment {
    pub session: ServeSession,
    pub names: Vec<&'static str>,
    pub pools: Pools,
    /// Wall time of each set-up repetition: build, warm forward, freeze,
    /// register and session start.
    pub setup_s: Vec<f64>,
}

/// Deploys `models` `reps` times (each repetition timed; all but the last
/// session shut down again) and keeps the last session. Between freezing
/// and registering, the last repetition computes `pool` seeded inputs per
/// model and request size and their reference outputs with a direct
/// `PreparedCimModel::infer_batch`; that step is not part of set-up time.
pub fn deploy(
    models: &[ModelSpec],
    sizes: &[usize],
    pool: usize,
    seed: u64,
    reps: usize,
) -> Deployment {
    let mut setup_s = Vec::with_capacity(reps);
    let mut rng = CqRng::new(seed ^ 0x1D_EA5);
    for rep in 0..reps {
        let t = Instant::now();
        let mut prepared: Vec<PreparedCimModel> = models
            .iter()
            .map(|m| PreparedCimModel::new(Box::new(m.build_warm())))
            .collect();
        let built = t.elapsed();
        let last = rep + 1 == reps;
        let entries = if last {
            models
                .iter()
                .zip(prepared.iter_mut())
                .map(|(m, p)| {
                    sizes
                        .iter()
                        .map(|&s| {
                            let inputs: Vec<Tensor> =
                                (0..pool).map(|_| m.images(&mut rng, s)).collect();
                            let refs = p.infer_batch(&inputs);
                            inputs.into_iter().zip(refs).collect()
                        })
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let t = Instant::now();
        let mut registry = ModelRegistry::new();
        for (m, p) in models.iter().zip(prepared) {
            registry.register(m.name, p);
        }
        let session = CimServer::new(registry, ServeConfig::default()).start();
        setup_s.push((built + t.elapsed()).as_secs_f64());
        if last {
            return Deployment {
                session,
                names: models.iter().map(|m| m.name).collect(),
                pools: Pools {
                    sizes: sizes.to_vec(),
                    entries,
                },
                setup_s,
            };
        }
        let _ = session.shutdown();
    }
    unreachable!("deploy needs at least one repetition")
}

/// What one serving window observed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub submit_errors: u64,
    pub mismatches: u64,
    pub timeouts: u64,
    pub images: u64,
    /// Per completed request: `(fulfilment time since the window start in
    /// s, images)`.
    pub completions: Vec<(f64, f64)>,
    /// Window start to last completion.
    pub elapsed_s: f64,
    /// Per completed request, in submission order: latency from its due
    /// time in ms, the images it carried and its model's index.
    pub latency_ms: Vec<f64>,
    pub rows: Vec<usize>,
    pub models: Vec<usize>,
    /// Per submitted request: how late the generator issued it, in ms.
    pub lag_ms: Vec<f64>,
    /// Per submitted request, traced windows only: time inside
    /// `ServeSession::submit`, in µs.
    pub submit_us: Vec<f64>,
    /// Session counters over the window.
    pub stats: Option<ServeStats>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.submit_errors + self.mismatches + self.timeouts
    }

    /// Median over 3-second windows of the images served per second.
    pub fn images_per_s(&self) -> f64 {
        windowed_rate(&self.completions, RATE_WINDOW_S, self.elapsed_s)
    }
}

/// One request the generator has in flight.
struct Sent {
    model: usize,
    size: usize,
    /// `(size index, entry)` in the model's pool.
    pick: (usize, usize),
    due: Instant,
    submitted: Instant,
}

/// The generator's side of a window: submits requests and checks every
/// completion bit-exactly against its reference.
struct Generator<'a> {
    dep: &'a Deployment,
    set: CompletionSet,
    sent: Vec<Sent>,
    /// `(submission index, latency ms)` in completion order.
    done: Vec<(usize, f64)>,
    rng: CqRng,
    traced: bool,
    start: Instant,
    out: Outcome,
}

impl<'a> Generator<'a> {
    fn new(dep: &'a Deployment, seed: u64, traced: bool) -> Self {
        Self {
            dep,
            set: CompletionSet::new(),
            sent: Vec::new(),
            done: Vec::new(),
            rng: CqRng::new(seed),
            traced,
            start: Instant::now(),
            out: Outcome::default(),
        }
    }

    fn submit(&mut self, model: usize, size: usize, slo: Slo, due: Instant) {
        let pick = self.dep.pools.pick(model, size, &mut self.rng);
        let input = &self.dep.pools.entries[model][pick.0][pick.1].0;
        let request = Request::to(self.dep.names[model])
            .batch(input.clone())
            .slo(slo);
        self.out.attempted += 1;
        let start = Instant::now();
        self.out
            .lag_ms
            .push(start.saturating_duration_since(due).as_secs_f64() * 1e3);
        match self.dep.session.submit(request) {
            Ok(ticket) => {
                if self.traced {
                    self.out.submit_us.push(start.elapsed().as_secs_f64() * 1e6);
                }
                let submitted = ticket.submitted_at();
                let key = self.set.insert(ticket);
                debug_assert_eq!(key.index(), self.sent.len());
                self.sent.push(Sent {
                    model,
                    size,
                    pick,
                    due,
                    submitted,
                });
            }
            Err(_) => self.out.submit_errors += 1,
        }
    }

    /// Submits a request drawn from `mix`, due now.
    fn submit_from(&mut self, mix: &Mix) {
        let model = self.rng.below(mix.models);
        let size = mix.sizes[self.rng.below(mix.sizes.len())];
        let slo = mix.classes[self.rng.below(mix.classes.len())];
        self.submit(model, size, slo, Instant::now());
    }

    /// Waits up to `timeout` for one completion and checks it. Returns
    /// `false` when nothing completed in time.
    fn complete_one(&mut self, timeout: Duration) -> bool {
        let Some((key, done)) = self.set.wait_any_timeout(timeout) else {
            return false;
        };
        let s = &self.sent[key.index()];
        let reference = &self.dep.pools.entries[s.model][s.pick.0][s.pick.1].1;
        if !bits_equal(&done.output, reference) {
            self.out.mismatches += 1;
        }
        let from_due = s.submitted.saturating_duration_since(s.due) + done.latency;
        self.done.push((key.index(), from_due.as_secs_f64() * 1e3));
        let fulfilled = s.submitted + done.latency;
        self.out.completions.push((
            fulfilled
                .saturating_duration_since(self.start)
                .as_secs_f64(),
            s.size as f64,
        ));
        self.out.images += s.size as u64;
        true
    }

    /// Drains every outstanding ticket; a stall counts the rest as timed
    /// out.
    fn drain(&mut self) {
        while !self.set.is_empty() {
            if !self.complete_one(TIMEOUT) {
                self.out.timeouts += self.set.len() as u64;
                return;
            }
        }
    }

    fn finish(mut self) -> Outcome {
        self.drain();
        self.out.elapsed_s = self.start.elapsed().as_secs_f64();
        self.done.sort_unstable_by_key(|&(i, _)| i);
        for &(i, ms) in &self.done {
            self.out.latency_ms.push(ms);
            self.out.rows.push(self.sent[i].size);
            self.out.models.push(self.sent[i].model);
        }
        self.out
    }
}

/// What closed-loop callers send: each request's model index, size and
/// class are drawn uniformly from these.
pub struct Mix {
    pub models: usize,
    pub sizes: &'static [usize],
    pub classes: &'static [Slo],
}

/// Closed loop: `clients` callers that each send their next request,
/// drawn from `mix`, as soon as the previous one completes, for `window`.
/// Latency runs from submission.
pub fn closed_loop(
    dep: &Deployment,
    mix: &Mix,
    clients: usize,
    window: Duration,
    seed: u64,
    traced: bool,
) -> Outcome {
    let before = dep.session.stats();
    let mut gen = Generator::new(dep, seed, traced);
    let end = gen.start + window;
    for _ in 0..clients {
        gen.submit_from(mix);
    }
    while !gen.set.is_empty() {
        if !gen.complete_one(TIMEOUT) {
            break;
        }
        if Instant::now() < end {
            gen.submit_from(mix);
        }
    }
    let mut out = gen.finish();
    out.stats = Some(stats_delta(&before, &dep.session.stats()));
    out
}

/// Open loop: replays `schedule` (arrival offsets, model, size, class)
/// for `window`, whatever the system's state. Each request is timed from
/// its due time, so a stall also charges the requests queued behind it.
pub fn open_loop(
    dep: &Deployment,
    schedule: &[StreamRequest],
    window: Duration,
    seed: u64,
    traced: bool,
) -> Outcome {
    let before = dep.session.stats();
    let mut gen = Generator::new(dep, seed, traced);
    for r in schedule.iter().take_while(|r| r.at < window) {
        let due = gen.start + r.at;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if gen.set.is_empty() {
                std::thread::sleep(due - now);
            } else {
                gen.complete_one(due - now);
            }
        }
        gen.submit(r.model, r.batch, r.slo, due);
    }
    let mut out = gen.finish();
    out.stats = Some(stats_delta(&before, &dep.session.stats()));
    out
}

/// Session counters accumulated between two snapshots (queue-depth
/// figures are the later snapshot's, which cover the whole session).
fn stats_delta(before: &ServeStats, after: &ServeStats) -> ServeStats {
    let mut d = after.clone();
    d.submitted -= before.submitted;
    d.rejected -= before.rejected;
    d.served -= before.served;
    d.batches -= before.batches;
    d.rows_swept -= before.rows_swept;
    d.quota_rejected -= before.quota_rejected;
    d
}
