//! One trial of an election protocol on a substrate, plain or traced, and
//! the fingerprint that checks it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ftc_baselines::broadcast_le::{broadcast_le_round_budget, BroadcastLeNode, BroadcastLeOutcome};
use ftc_core::leader_election::{LeNode, LeOutcome};
use ftc_core::params::Params;
use ftc_mesh::runtime::run_over_mesh;
use ftc_sim::adversary::{Adversary, RandomCrash};
use ftc_sim::engine::{run, RunResult, SimConfig};
use ftc_sim::ids::{NodeId, Round};
use ftc_sim::payload::Wire;
use ftc_sim::protocol::Protocol;

use crate::probe::{now_ns, thread_index, union_ns, Capture, Timed, TimedAdversary};

/// Latest round in which `RandomCrash` crashes a faulty node: the
/// `--adversary random` default of `ftc le` and `ftc cluster`.
pub const CRASH_HORIZON: Round = 60;

/// Where a trial runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// The in-process round engine, `ftc_sim::engine::run`.
    Engine,
    /// `ftc_mesh::runtime::run_over_mesh` with this many procs.
    Mesh(usize),
}

/// The paper's success predicate and the safety facts the benchmark checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Verdict {
    /// The protocol's Monte-Carlo success predicate.
    pub success: bool,
    /// Rank of the leader the survivors agree on.
    pub leader: Option<u64>,
    /// Alive nodes whose status is `Elected`.
    pub elected_alive: usize,
}

/// A leader-election protocol the benchmark can drive and judge.
pub(crate) trait Election: Protocol<Msg: Wire> + Sized {
    /// Scores a finished run.
    fn verdict(result: &RunResult<Self>) -> Verdict;
}

impl Election for LeNode {
    fn verdict(result: &RunResult<Self>) -> Verdict {
        let out = LeOutcome::evaluate(result);
        Verdict {
            success: out.success,
            leader: out.agreed_leader.map(|r| r.0),
            elected_alive: out.elected_alive.len(),
        }
    }
}

impl Election for BroadcastLeNode {
    fn verdict(result: &RunResult<Self>) -> Verdict {
        let out = BroadcastLeOutcome::evaluate(result);
        let leader = out
            .agreed_min
            .then(|| result.surviving_states().next())
            .flatten()
            .and_then(|(_, s)| s.min_seen())
            .map(|r| r.0);
        Verdict {
            success: out.success,
            leader,
            elected_alive: out.elected_alive,
        }
    }
}

/// Everything observable about one run that must not depend on the
/// substrate or on tracing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    /// Messages sent: the paper's message complexity.
    pub msgs: u64,
    /// Rounds executed.
    pub rounds: u32,
    /// The protocol's verdict.
    pub verdict: Verdict,
    /// Hash of the full metrics (every per-round counter and crash), the
    /// crash rounds and the faulty set; `wire_bytes` is left out because
    /// only a real transport fills it in.
    pub hash: u64,
}

/// 64-bit FNV-1a over a stream of words.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl Fingerprint {
    /// Fingerprints a finished run.
    pub fn of<E: Election>(r: &RunResult<E>) -> Self {
        let m = &r.metrics;
        let mut h = Fnv::default();
        for w in [
            u64::from(m.rounds),
            m.msgs_sent,
            m.msgs_delivered,
            m.bits_sent,
            m.max_edge_bits_per_round,
            m.msgs_suppressed,
            m.msgs_lost_edges,
            r.congest_violations,
        ] {
            h.word(w);
        }
        for rm in &m.per_round {
            for w in [rm.sent, rm.delivered, rm.bits_sent, u64::from(rm.crashes)] {
                h.word(w);
            }
        }
        for &(node, round) in &m.crashes {
            h.word(u64::from(node.0) << 32 | u64::from(round));
        }
        for c in &r.crashed_at {
            h.word(c.map_or(u64::MAX, u64::from));
        }
        for node in r.faulty.iter() {
            h.word(u64::from(node.0));
        }
        Fingerprint {
            msgs: m.msgs_sent,
            rounds: m.rounds,
            verdict: E::verdict(r),
            hash: h.0,
        }
    }
}

/// Layer times and counts of one traced trial.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Layers {
    /// Protocol activations.
    pub activations: u64,
    /// Messages delivered to the protocol.
    pub inbox_msgs: u64,
    /// Summed activation time, over every thread (s).
    pub protocol_busy_s: f64,
    /// Wall time covered by at least one activation (s). Equals the busy
    /// time on the engine, which activates nodes on one thread.
    pub protocol_covered_s: f64,
    /// Adversary calls.
    pub adversary_calls: u64,
    /// Adversary time (s).
    pub adversary_s: f64,
}

/// One completed trial.
#[derive(Clone, Debug)]
pub(crate) struct Sample {
    /// The trial's seed.
    pub seed: u64,
    /// When the trial started, on the [`now_ns`] clock.
    pub start_ns: u64,
    /// The thread that ran it, as [`thread_index`] numbers them.
    pub thread: u64,
    /// What the run produced.
    pub fp: Fingerprint,
    /// Trial span: the call into the layer plus judging its result (s).
    pub trial_s: f64,
    /// Span of the call into the engine or the mesh alone (s).
    pub call_s: f64,
    /// Messages delivered.
    pub msgs_delivered: u64,
    /// Bits sent (the model's payload cost).
    pub bits_sent: u64,
    /// Frames the mesh transmitted (0 on the engine).
    pub frames: u64,
    /// Bytes the mesh put on the wire (0 on the engine).
    pub wire_bytes: u64,
    /// Layer breakdown, on traced trials.
    pub layers: Option<Layers>,
}

/// A protocol instance at a fixed size: the base `SimConfig`, the
/// adversary's fault budget, and a node constructor.
pub(crate) struct Model<E> {
    base: SimConfig,
    f: usize,
    node: Box<dyn Fn() -> E + Send + Sync>,
}

impl Model<LeNode> {
    /// The paper's implicit leader election at `n`, `alpha`, with the
    /// adversary crashing `(1 − alpha)·n` nodes.
    pub fn le(n: u32, alpha: f64) -> Result<Self, String> {
        let params = Params::new(n, alpha).map_err(|e| e.to_string())?;
        Ok(Model {
            base: SimConfig::try_new(n)
                .map_err(|e| e.to_string())?
                .max_rounds(params.le_round_budget()),
            f: params.max_faults(),
            node: Box::new(move || LeNode::new(params.clone())),
        })
    }
}

impl Model<BroadcastLeNode> {
    /// The flooding leader election of Table I at `n`, tolerating `f`
    /// crashes, against an adversary crashing `f` nodes.
    pub fn bcast(n: u32, f: u32) -> Result<Self, String> {
        Ok(Model {
            base: SimConfig::try_new(n)
                .map_err(|e| e.to_string())?
                .max_rounds(broadcast_le_round_budget(f)),
            f: f as usize,
            node: Box::new(move || BroadcastLeNode::new(f)),
        })
    }
}

/// A finished call: the run, the mesh's frame and byte counts, the call's
/// duration.
type Called<P> = (RunResult<P>, u64, u64, f64);

impl<E: Election> Model<E> {
    /// The configuration of the trial with `seed`.
    fn config(&self, seed: u64) -> SimConfig {
        self.base.clone().seed(seed)
    }

    fn call<P, A>(
        &self,
        sub: Substrate,
        seed: u64,
        node: impl Fn() -> P,
        adv: &mut A,
    ) -> Result<Called<P>, String>
    where
        P: Protocol<Msg = E::Msg>,
        A: Adversary<E::Msg>,
    {
        let cfg = self.config(seed);
        let start = Instant::now();
        Ok(match sub {
            Substrate::Engine => {
                let r = run(&cfg, |_| node(), adv);
                (r, 0, 0, start.elapsed().as_secs_f64())
            }
            Substrate::Mesh(procs) => {
                let r = run_over_mesh(&cfg, procs, |_| node(), adv)
                    .map_err(|e| format!("mesh: {e}"))?;
                let secs = start.elapsed().as_secs_f64();
                (r.run, r.net.frames_sent, r.net.wire_bytes, secs)
            }
        })
    }

    /// Runs one trial. A panic, an `Err` from the substrate or a broken
    /// safety check comes back as `Err`, never as a crash of the
    /// benchmark.
    pub fn trial(&self, sub: Substrate, seed: u64, traced: bool) -> Result<Sample, String> {
        let start_ns = now_ns();
        let start = Instant::now();
        let called = catch_unwind(AssertUnwindSafe(|| {
            if traced {
                self.traced_call(sub, seed)
            } else {
                let mut adv = RandomCrash::new(self.f, CRASH_HORIZON);
                self.call(sub, seed, &self.node, &mut adv)
                    .map(|c| (c, None))
            }
        }));
        let ((r, frames, wire_bytes, call_s), layers) = match called {
            Ok(res) => res?,
            Err(panic) => return Err(format!("panicked: {}", panic_text(&panic))),
        };
        let fp = Fingerprint::of(&r);
        if fp.verdict.elected_alive > 1 {
            return Err(format!(
                "{} alive nodes are Elected",
                fp.verdict.elected_alive
            ));
        }
        Ok(Sample {
            seed,
            start_ns,
            thread: thread_index(),
            fp,
            trial_s: start.elapsed().as_secs_f64(),
            call_s,
            msgs_delivered: r.metrics.msgs_delivered,
            bits_sent: r.metrics.bits_sent,
            frames,
            wire_bytes,
            layers,
        })
    }

    fn traced_call(
        &self,
        sub: Substrate,
        seed: u64,
    ) -> Result<(Called<E>, Option<Layers>), String> {
        // Mesh procs activate nodes in parallel, so their activation
        // intervals are kept and merged; on the engine the sum is exact.
        let parallel = matches!(sub, Substrate::Mesh(p) if p > 1);
        let mut adv = TimedAdversary::new(RandomCrash::new(self.f, CRASH_HORIZON));
        let (r, frames, wire, call_s) =
            self.call(sub, seed, || Timed::new((self.node)(), parallel), &mut adv)?;
        let mut layers = Layers {
            adversary_calls: adv.busy.calls,
            adversary_s: adv.busy.ns as f64 * 1e-9,
            ..Layers::default()
        };
        let mut busy_ns = 0;
        let mut spans = Vec::new();
        let states = r
            .states
            .into_iter()
            .map(|t| {
                layers.activations += t.busy.calls;
                layers.inbox_msgs += t.inbox_msgs;
                busy_ns += t.busy.ns;
                spans.extend(t.busy.spans.unwrap_or_default());
                t.inner
            })
            .collect();
        layers.protocol_busy_s = busy_ns as f64 * 1e-9;
        layers.protocol_covered_s = if parallel {
            union_ns(spans) as f64 * 1e-9
        } else {
            layers.protocol_busy_s
        };
        let r = RunResult {
            states,
            metrics: r.metrics,
            crashed_at: r.crashed_at,
            faulty: r.faulty,
            trace: r.trace,
            congest_violations: r.congest_violations,
        };
        Ok(((r, frames, wire, call_s), Some(layers)))
    }

    /// Runs `seed` on the engine keeping up to `limit` delivered messages,
    /// as `(destination, round, message)`.
    pub fn capture(&self, seed: u64, limit: usize) -> Vec<(NodeId, Round, E::Msg)> {
        let per_node = limit.div_ceil(self.base.n as usize);
        let mut adv = RandomCrash::new(self.f, CRASH_HORIZON);
        let r = run(
            &self.config(seed),
            |_| Capture::new((self.node)(), per_node),
            &mut adv,
        );
        r.states
            .into_iter()
            .enumerate()
            .flat_map(|(i, c)| {
                c.delivered
                    .into_iter()
                    .map(move |(round, m)| (NodeId(i as u32), round, m))
            })
            .collect()
    }
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}
