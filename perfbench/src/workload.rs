//! The three workloads and the closed-loop measurement that runs them.
//!
//! Every workload is a closed loop: the next trial starts when a runner
//! thread finishes its previous one. Rounds are synchronous with no
//! injected delay and mesh traffic stays on the loopback interface, so
//! every time measured is processor time. Faults are on everywhere: the
//! adversary is `RandomCrash` with the workload's fault budget.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ftc_baselines::broadcast_le::BroadcastLeNode;
use ftc_core::leader_election::LeNode;
use ftc_mesh::fabric;
use ftc_sim::runner::{ParRunner, TrialPlan};

use crate::calib;
use crate::codec;
use crate::model::{Election, Fingerprint, Fnv, Model, Sample, Substrate};
use crate::report::{Metric, Report};
use crate::stats::{beyond, mean, median, quantile, samples_needed};

/// The protocol a workload elects with.
#[derive(Clone, Copy, Debug)]
pub enum Proto {
    /// The paper's implicit leader election (`ftc_core::LeNode`), with
    /// `(1 − alpha)·n` crashes.
    Le {
        /// Network size.
        n: u32,
        /// Fraction of nodes guaranteed non-faulty.
        alpha: f64,
    },
    /// The `O(n²)` flooding election of Table I
    /// (`ftc_baselines::BroadcastLeNode`), with `f` crashes.
    Bcast {
        /// Network size.
        n: u32,
        /// Crashes tolerated and injected.
        f: u32,
    },
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Protocol and size.
    pub proto: Proto,
    /// Where trials run.
    pub substrate: Substrate,
    /// Runner threads through `ParRunner`; `None` runs trials one after
    /// another on the calling thread.
    pub jobs: Option<usize>,
    /// Distinct seeds in one run's seed list.
    pub seeds: usize,
    /// Seeds of the untimed warm-up trials, the same in every run.
    pub warmup: &'static [u64],
    /// Digest of the warm-up trials this commit produces; `None` skips
    /// the comparison.
    pub pin: Option<u64>,
}

/// Timed trials per run at least: the p90 needs ten samples beyond it.
pub const MIN_TRIALS: usize = 100;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Seeds the traced run times both traced and plain.
const OVERHEAD_PAIRS: usize = 10;
/// Seeds of the traced run's substrate comparison (mesh:1, mesh:2, engine).
const LAYER_SEEDS: usize = 3;
/// Fabric builds timed for `fabric.build_s`.
const FABRIC_BUILDS: usize = 15;
/// Delivered messages kept for the codec pass.
const CODEC_MESSAGES: usize = 1 << 18;
/// A trial slower than this counts as stalled.
const STALL_S: f64 = 60.0;

/// The workloads, in `BENCHMARK.json` order. Seed lists are sized so that
/// one pass takes about 25 s on two processors; `le-mesh` runs its 100
/// trials, the floor, in about 35 s. Trials of the paper's LE vary a lot
/// in cost, so its lists are as long as that time allows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "le-engine",
        proto: Proto::Le {
            n: 4096,
            alpha: 0.5,
        },
        substrate: Substrate::Engine,
        jobs: Some(2),
        seeds: 140,
        warmup: &[1, 2],
        pin: Some(0xd7cc_f09f_0bc2_a079),
    },
    Workload {
        name: "le-mesh",
        proto: Proto::Le {
            n: 1024,
            alpha: 0.5,
        },
        substrate: Substrate::Mesh(2),
        jobs: None,
        seeds: 100,
        warmup: &[1],
        pin: Some(0xacef_e1ba_6266_f6a6),
    },
    Workload {
        name: "bcast-engine",
        proto: Proto::Bcast { n: 1024, f: 512 },
        substrate: Substrate::Engine,
        jobs: None,
        seeds: 110,
        warmup: &[1],
        pin: Some(0xa22e_2490_e2d9_6697),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The run's seed list, a function of the workload and `--seed` alone.
pub(crate) fn seed_list(w: &Workload, seed: u64) -> Vec<u64> {
    let mut salt = Fnv::default();
    w.name.bytes().for_each(|b| salt.word(u64::from(b)));
    let base = splitmix64(seed ^ salt.0);
    (0..w.seeds as u64)
        .map(|i| splitmix64(base.wrapping_add(i)))
        .collect()
}

/// Digest over per-seed message count, rounds, success and leader rank.
pub(crate) fn digest<'a>(fps: impl IntoIterator<Item = (u64, &'a Fingerprint)>) -> u64 {
    let mut h = Fnv::default();
    for (seed, fp) in fps {
        for w in [
            seed,
            fp.msgs,
            u64::from(fp.rounds),
            u64::from(fp.verdict.success),
            fp.verdict.leader.unwrap_or(u64::MAX),
        ] {
            h.word(w);
        }
    }
    h.0
}

/// Runs `w` for at least `seconds` and reports the end-to-end metrics, or
/// with `traced` the per-layer metrics.
pub fn execute(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    report.info.push(format!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        w.name,
        u8::from(traced)
    ));
    let mut report = match w.proto {
        Proto::Le { n, alpha } => {
            Bench::<LeNode>::run(w, || Model::le(n, alpha), seed, seconds, traced, report)
        }
        Proto::Bcast { n, f } => {
            Bench::<BroadcastLeNode>::run(w, || Model::bcast(n, f), seed, seconds, traced, report)
        }
    };
    // Last, so that its table stays out of the peak RSS of the workload.
    report.info.push(format!(
        "calibration score={} nproc={} loadavg={}",
        calib::score(),
        calib::nproc(),
        calib::loadavg()
    ));
    report
}

/// One workload's state during a run.
struct Bench<'w, E> {
    w: &'w Workload,
    model: Model<E>,
    seeds: Vec<u64>,
    report: Report,
    /// Fingerprint of every seed seen, on any substrate, traced or not.
    seen: BTreeMap<u64, Fingerprint>,
}

/// Samples of one measured loop, in trial order, and its wall time.
struct Loop {
    samples: Vec<Result<Sample, String>>,
    wall_s: f64,
}

impl<'w, E: Election> Bench<'w, E> {
    fn run(
        w: &'w Workload,
        make: impl Fn() -> Result<Model<E>, String>,
        seed: u64,
        seconds: f64,
        traced: bool,
        mut report: Report,
    ) -> Report {
        let mut setups = Vec::new();
        let mut model = None;
        for _ in 0..SETUPS {
            let start = Instant::now();
            let m = match make() {
                Ok(m) => m,
                Err(e) => {
                    report.problem(format!("set-up: {e}"));
                    return report;
                }
            };
            let seeds = seed_list(w, seed);
            let warm = run_loop(
                w,
                &m,
                |i| (w.warmup[i % w.warmup.len()], false),
                w.warmup.len(),
                0.0,
            );
            setups.push(start.elapsed().as_secs_f64());
            check_warmup(w, &warm, &mut report);
            model = Some((m, seeds));
        }
        let (model, seeds) = model.expect("SETUPS > 0");
        let mut bench = Bench {
            w,
            model,
            seeds,
            report,
            seen: BTreeMap::new(),
        };
        if traced {
            let main = bench.traced(seconds);
            bench.write_spans(seed, &main);
        } else {
            bench.measure(seconds, median(&setups), setups.len());
        }
        bench.report
    }

    /// Records `samples` as attempted, counts failures, and checks that
    /// each seed's fingerprint never changes.
    fn absorb(&mut self, label: &'static str, samples: &[Result<Sample, String>]) {
        for s in samples {
            self.report.attempted += 1;
            match s {
                Ok(s) if s.trial_s > STALL_S => {
                    self.report.failed += 1;
                    self.report.problem(format!(
                        "{label} seed {} stalled: {:.1}s",
                        s.seed, s.trial_s
                    ));
                }
                Ok(s) => {
                    let first = *self.seen.entry(s.seed).or_insert(s.fp);
                    if first != s.fp {
                        self.report.failed += 1;
                        self.report.problem(format!(
                            "{label} seed {} differs from an earlier run of it",
                            s.seed
                        ));
                    }
                }
                Err(e) => {
                    self.report.failed += 1;
                    self.report.problem(format!("{label}: {e}"));
                }
            }
        }
    }

    /// Replays every seed seen on the engine unless the workload already
    /// ran there: each mesh trial must equal its engine replay bit for bit.
    fn replay_on_engine(&mut self) {
        if self.w.substrate == Substrate::Engine {
            return;
        }
        // Replays are checks, not measurements: they run after the timed
        // loop, on every core.
        let seeds: Vec<u64> = self.seen.keys().copied().collect();
        let runner = ParRunner::new(TrialPlan::new(0, seeds.len() as u64).jobs(calib::nproc()));
        let replays: Vec<_> = runner
            .run(|i, _| {
                self.model
                    .trial(Substrate::Engine, seeds[i as usize], false)
            })
            .outcomes
            .into_iter()
            .map(|o| o.value)
            .collect();
        self.absorb("engine replay", &replays);
    }

    /// Reports the seed list's digest, once every seed in it has a
    /// fingerprint.
    fn digest(&mut self) {
        let fps: Option<Vec<_>> = self
            .seeds
            .iter()
            .map(|s| self.seen.get(s).map(|fp| (*s, fp)))
            .collect();
        match fps.map(digest) {
            Some(d) => self
                .report
                .info
                .push(format!("digest {d:#018x} over {} seeds", self.seeds.len())),
            None => self
                .report
                .problem("the run did not cover its seed list".into()),
        }
    }

    fn measure(&mut self, seconds: f64, setup_s: f64, setups: usize) {
        let seeds = self.seeds.clone();
        let k = seeds.len();
        let lp = run_loop(
            self.w,
            &self.model,
            |i| (seeds[i % k], false),
            MIN_TRIALS.max(k),
            seconds,
        );
        let rss = calib::peak_rss_mb();
        self.absorb("trial", &lp.samples);
        self.replay_on_engine();
        self.digest();
        let ok: Vec<&Sample> = lp.samples.iter().filter_map(|s| s.as_ref().ok()).collect();
        let first: Vec<&Sample> = ok.iter().copied().take(k).collect();
        let times: Vec<f64> = ok.iter().map(|s| s.trial_s).collect();
        let call_s: f64 = ok.iter().map(|s| s.call_s).sum();
        let bytes: f64 = ok
            .iter()
            .map(|s| match self.w.substrate {
                Substrate::Mesh(_) => s.wire_bytes as f64,
                Substrate::Engine => s.bits_sent as f64 / 8.0,
            })
            .sum();
        let n = times.len();
        let p90 = quantile(&times, 0.9);
        if p90.is_none() {
            self.report.problem(format!(
                "trial_p90_s needs {} samples, the run has {n}",
                samples_needed(0.9)
            ));
        }
        if rss.is_none() {
            self.report
                .problem("peak RSS unreadable from /proc/self/status".into());
        }
        let mut p90_metric = Metric::new("trial_p90_s", p90.unwrap_or(f64::NAN), "s", n);
        p90_metric
            .note
            .push_str(&format!(" beyond={}", beyond(0.9, n)));
        self.report.metrics = vec![
            Metric::new("setup_s", setup_s, "s", setups),
            Metric::new("trials_per_s", n as f64 / lp.wall_s, "1/s", n),
            Metric::new(
                "trial_p50_s",
                quantile(&times, 0.5).unwrap_or(f64::NAN),
                "s",
                n,
            ),
            p90_metric,
            Metric::new(
                "msgs_per_trial",
                mean(first.iter().map(|s| s.fp.msgs as f64)),
                "count",
                first.len(),
            ),
            Metric::new(
                "success_rate",
                mean(
                    first
                        .iter()
                        .map(|s| f64::from(u8::from(s.fp.verdict.success))),
                ),
                "ratio",
                first.len(),
            ),
            Metric::new("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB", 1),
            Metric::new("wire_mb_s", bytes / call_s / 1e6, "MB/s", n),
        ];
    }

    /// The traced run; returns the traced trials of pass 1 for the trace
    /// file.
    fn traced(&mut self, seconds: f64) -> Vec<Sample> {
        // Pass 1: the seed list once, traced, on the workload's own
        // substrate and runner.
        let seeds = self.seeds.clone();
        let k = seeds.len();
        let lp = run_loop(self.w, &self.model, |i| (seeds[i % k], true), k, 0.0);
        self.absorb("traced trial", &lp.samples);
        let main: Vec<Sample> = lp.samples.into_iter().filter_map(Result::ok).collect();

        // Pass 2, one trial at a time so that times compare. The first
        // seeds run on the workload's substrate traced and plain, in
        // alternating order: the tracing overhead. The first few of them
        // also run on the engine, mesh:1 and mesh:2: the mesh tax.
        let primary = self.w.substrate;
        let started = Instant::now();
        let mut pairs = (0.0, 0.0);
        let (mut eng_t, mut eng_u, mut mesh1, mut mesh2) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, &seed) in seeds.iter().enumerate().take(OVERHEAD_PAIRS) {
            if i >= LAYER_SEEDS && started.elapsed().as_secs_f64() > seconds {
                break;
            }
            let (t, u) = if i % 2 == 0 {
                let t = self.model.trial(primary, seed, true);
                (t, self.model.trial(primary, seed, false))
            } else {
                let u = self.model.trial(primary, seed, false);
                (self.model.trial(primary, seed, true), u)
            };
            self.absorb("overhead pair", &[t.clone(), u.clone()]);
            if let (Ok(t), Ok(u)) = (&t, &u) {
                pairs.0 += t.trial_s;
                pairs.1 += u.trial_s;
            }
            if i >= LAYER_SEEDS {
                continue;
            }
            let other = if primary == Substrate::Engine {
                Substrate::Mesh(2)
            } else {
                Substrate::Engine
            };
            let o = self.model.trial(other, seed, false);
            let m1 = self.model.trial(Substrate::Mesh(1), seed, false);
            if primary != Substrate::Engine {
                eng_t.push(self.model.trial(Substrate::Engine, seed, true));
            }
            self.absorb("layer pass", &[o.clone(), m1.clone()]);
            let (Ok(u), Ok(o), Ok(m1)) = (u, o, m1) else {
                continue;
            };
            let (e, m2) = if primary == Substrate::Engine {
                (u, o)
            } else {
                (o, u)
            };
            eng_u.push(e);
            mesh1.push(m1);
            mesh2.push(m2);
        }
        self.absorb("engine traced", &eng_t);
        let eng_t: Vec<Sample> = eng_t.into_iter().filter_map(Result::ok).collect();
        let eng_t = if primary == Substrate::Engine {
            &main
        } else {
            &eng_t
        };
        self.replay_on_engine();
        self.digest();

        let fabric_s = time_fabric(&mut self.report);
        let codec = codec::pass(&self.model.capture(seeds[0], CODEC_MESSAGES));
        let (enc_ns, dec_ns) = codec.unwrap_or_else(|e| {
            self.report.problem(format!("codec: {e}"));
            (f64::NAN, f64::NAN)
        });

        let layers: Vec<_> = main.iter().filter_map(|s| s.layers).collect();
        let sum = |f: &dyn Fn(&Sample) -> f64, v: &[Sample]| v.iter().map(f).sum::<f64>();
        let trial_sum = sum(&|s| s.trial_s, &main);
        let busy: f64 = layers.iter().map(|l| l.protocol_busy_s).sum();
        let inbox: f64 = layers.iter().map(|l| l.inbox_msgs as f64).sum();
        let jobs = self.w.jobs.unwrap_or(1) as f64;
        let times: Vec<f64> = main.iter().map(|s| s.trial_s).collect();

        let self_s = |s: &Sample| {
            let l = s.layers.unwrap_or_default();
            s.call_s - l.protocol_covered_s - l.adversary_s
        };
        let eng_self = sum(&self_s, eng_t);
        let eng_msgs = sum(&|s| s.fp.msgs as f64, eng_t);
        let tax: Vec<f64> = mesh2
            .iter()
            .zip(&eng_u)
            .map(|(m, e)| m.call_s - e.call_s)
            .collect();
        let mesh_rounds = sum(&|s| f64::from(s.fp.rounds), &mesh2);
        let mesh_run = mean(mesh2.iter().map(|s| s.call_s));
        let frames = mean(mesh2.iter().map(|s| s.frames as f64));

        let (nm, ne, nb, nl) = (main.len(), eng_t.len(), mesh2.len(), layers.len());
        self.report.metrics = vec![
            Metric::new(
                "protocol.activations",
                mean(layers.iter().map(|l| l.activations as f64)),
                "count",
                nl,
            ),
            Metric::new("protocol.inbox_msgs", inbox / nl as f64, "count", nl),
            Metric::new("protocol.busy_s", busy / nl as f64, "s", nl),
            Metric::new("protocol.ns_per_inbox_msg", busy / inbox * 1e9, "ns", nl),
            Metric::new(
                "protocol.share",
                layers.iter().map(|l| l.protocol_covered_s).sum::<f64>() / trial_sum,
                "ratio",
                nl,
            ),
            Metric::new(
                "adversary.calls",
                mean(layers.iter().map(|l| l.adversary_calls as f64)),
                "count",
                nl,
            ),
            Metric::new(
                "adversary.busy_s",
                mean(layers.iter().map(|l| l.adversary_s)),
                "s",
                nl,
            ),
            Metric::new(
                "adversary.share",
                layers.iter().map(|l| l.adversary_s).sum::<f64>() / trial_sum,
                "ratio",
                nl,
            ),
            Metric::new(
                "engine.run_s",
                mean(eng_t.iter().map(|s| s.call_s)),
                "s",
                ne,
            ),
            Metric::new("engine.self_s", eng_self / ne as f64, "s", ne),
            Metric::new("engine.ns_per_msg", eng_self / eng_msgs * 1e9, "ns", ne),
            Metric::new(
                "engine.rounds",
                mean(eng_t.iter().map(|s| f64::from(s.fp.rounds))),
                "count",
                ne,
            ),
            Metric::new(
                "engine.msgs_delivered",
                mean(eng_t.iter().map(|s| s.msgs_delivered as f64)),
                "count",
                ne,
            ),
            Metric::new(
                "harness.share",
                1.0 - sum(&|s| s.call_s, &main) / trial_sum,
                "ratio",
                nm,
            ),
            Metric::new(
                "runner.idle_share",
                1.0 - trial_sum / (jobs * lp.wall_s),
                "ratio",
                nm,
            ),
            Metric::new(
                "runner.trial_spread",
                times.iter().copied().fold(0.0, f64::max) / median(&times),
                "ratio",
                nm,
            ),
            Metric::new("mesh.run_s", mesh_run, "s", nb),
            Metric::new("mesh.rounds", mesh_rounds / nb as f64, "count", nb),
            Metric::new("mesh.frames", frames, "count", nb),
            Metric::new(
                "mesh.wire_bytes",
                mean(mesh2.iter().map(|s| s.wire_bytes as f64)),
                "bytes",
                nb,
            ),
            Metric::new("mesh.tax_s", mean(tax.iter().copied()), "s", nb),
            Metric::new(
                "mesh.barrier_s",
                mean(mesh1.iter().zip(&eng_u).map(|(m, e)| m.call_s - e.call_s)),
                "s",
                nb,
            ),
            Metric::new(
                "mesh.socket_s",
                mean(
                    mesh2
                        .iter()
                        .zip(&mesh1)
                        .map(|(m2, m1)| m2.call_s - m1.call_s),
                ),
                "s",
                nb,
            ),
            Metric::new(
                "mesh.us_per_round",
                tax.iter().sum::<f64>() / mesh_rounds * 1e6,
                "us",
                nb,
            ),
            Metric::new("fabric.build_s", fabric_s, "s", FABRIC_BUILDS),
            Metric::new("codec.encode_ns_per_frame", enc_ns, "ns", 1),
            Metric::new("codec.decode_ns_per_frame", dec_ns, "ns", 1),
            Metric::new(
                "codec.share",
                frames * (enc_ns + dec_ns) * 1e-9 / mesh_run,
                "ratio",
                nb,
            ),
            Metric::new(
                "trace.overhead",
                pairs.0 / pairs.1 - 1.0,
                "ratio",
                OVERHEAD_PAIRS,
            ),
        ];
        main
    }

    /// Writes the traced trial spans as Chrome trace-event JSON under
    /// `.bench_out/` in the working directory.
    fn write_spans(&mut self, seed: u64, trials: &[Sample]) {
        let mut events = Vec::new();
        for s in trials {
            let (ts, tid) = (s.start_ns as f64 / 1e3, s.thread);
            events.push(format!(
                "{{\"name\":\"trial\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\"args\":{{\"seed\":{}}}}}",
                s.trial_s * 1e6,
                s.seed
            ));
            let l = s.layers.unwrap_or_default();
            let call = if self.w.substrate == Substrate::Engine {
                "engine.run"
            } else {
                "mesh.run"
            };
            events.push(format!(
                "{{\"name\":\"{call}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\"args\":{{\"protocol_s\":{},\"adversary_s\":{},\"activations\":{}}}}}",
                s.call_s * 1e6,
                l.protocol_covered_s,
                l.adversary_s,
                l.activations
            ));
        }
        let path = format!(".bench_out/spans-{}-{seed}.json", self.w.name);
        let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
        let written =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, body));
        match written {
            Ok(()) => self.report.info.push(format!("spans written to {path}")),
            Err(e) => self.report.problem(format!("writing {path}: {e}")),
        }
    }
}

/// Checks the warm-up trials against the workload's pinned digest.
fn check_warmup(w: &Workload, warm: &Loop, report: &mut Report) {
    let fps: Result<Vec<_>, _> = warm
        .samples
        .iter()
        .map(|s| s.as_ref().map(|s| (s.seed, s.fp)))
        .collect();
    match fps {
        Err(e) => report.problem(format!("warm-up trial: {e}")),
        Ok(fps) => {
            let d = digest(fps.iter().map(|(s, fp)| (*s, fp)));
            let line = format!("warm-up digest {d:#018x}");
            if !report.info.contains(&line) {
                report.info.push(line);
            }
            if w.pin.is_some_and(|pin| pin != d) {
                report.problem(format!(
                    "warm-up digest {d:#018x} differs from the pinned {:#018x}",
                    w.pin.unwrap_or(0)
                ));
            }
        }
    }
}

/// Median time of building the two-proc socket fabric.
fn time_fabric(report: &mut Report) -> f64 {
    let mut times = Vec::new();
    for _ in 0..FABRIC_BUILDS {
        let start = Instant::now();
        match fabric::build(2) {
            Ok(links) => {
                times.push(start.elapsed().as_secs_f64());
                drop(links);
            }
            Err(e) => {
                report.problem(format!("fabric: {e}"));
                return f64::NAN;
            }
        }
    }
    median(&times)
}

/// Runs trials `0, 1, …` with `pick(i) = (seed, traced)` on the
/// workload's substrate and runner until at least `min` trials are done
/// and `seconds` have passed.
fn run_loop<E: Election>(
    w: &Workload,
    model: &Model<E>,
    pick: impl Fn(usize) -> (u64, bool) + Sync,
    min: usize,
    seconds: f64,
) -> Loop {
    let start = Instant::now();
    let done = |count: usize| count >= min && start.elapsed().as_secs_f64() >= seconds;
    let one = |i: usize| {
        let (seed, traced) = pick(i);
        model.trial(w.substrate, seed, traced)
    };
    let samples = match w.jobs {
        None => {
            let mut samples = Vec::new();
            while !done(samples.len()) {
                samples.push(one(samples.len()));
            }
            samples
        }
        Some(jobs) => {
            let runner = ParRunner::new(TrialPlan::new(0, (min as u64).max(1) * 64).jobs(jobs));
            let abort = runner.abort_handle();
            let finished = AtomicUsize::new(0);
            let batch = runner.run(|i, _| {
                let s = one(i as usize);
                if done(finished.fetch_add(1, Ordering::SeqCst) + 1) {
                    abort.abort();
                }
                s
            });
            batch.outcomes.into_iter().map(|o| o.value).collect()
        }
    };
    Loop {
        samples,
        wall_s: start.elapsed().as_secs_f64(),
    }
}
