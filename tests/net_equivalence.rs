//! Transport equivalence: the mesh runtime replays the simulator.
//!
//! The defining property of the cluster runtime is that a run is
//! bit-identical to an engine run of the same `(SimConfig, seed)` — same
//! elected leader, same agreement decision, same message/bit/round counts,
//! same crash schedule — independent of how many procs (worker threads)
//! multiplex the nodes, and of whether frames cross a socket at all
//! (`procs = 1` opens none). These tests pin that property for both of
//! the paper's protocols under several seeds and adversaries, plus TCP
//! smoke coverage at n = 8.

use ftc::prelude::*;

const N: u32 = 64;
// n = 64 sits above the paper's resilience floor log₂²n/n = 0.5625, so
// the canonical alpha = 0.5 is inadmissible here; 0.75 keeps a hefty
// 16-crash budget while staying inside the guaranteed regime.
const ALPHA: f64 = 0.75;
const WORKER_COUNTS: [usize; 2] = [1, 4];

/// Everything observable that must match between substrates.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    success: bool,
    outcome: Option<u64>,
    msgs_sent: u64,
    msgs_delivered: u64,
    bits_sent: u64,
    rounds: u32,
    crashed_at: Vec<Option<u32>>,
}

fn le_fingerprint(r: &RunResult<LeNode>) -> Fingerprint {
    let out = LeOutcome::evaluate(r);
    Fingerprint {
        success: out.success,
        outcome: out.agreed_leader.map(|rank| rank.0),
        msgs_sent: r.metrics.msgs_sent,
        msgs_delivered: r.metrics.msgs_delivered,
        bits_sent: r.metrics.bits_sent,
        rounds: r.metrics.rounds,
        crashed_at: r.crashed_at.clone(),
    }
}

fn agree_fingerprint(r: &RunResult<AgreeNode>) -> Fingerprint {
    let out = AgreeOutcome::evaluate(r);
    Fingerprint {
        success: out.success,
        outcome: out.agreed_value.map(u64::from),
        msgs_sent: r.metrics.msgs_sent,
        msgs_delivered: r.metrics.msgs_delivered,
        bits_sent: r.metrics.bits_sent,
        rounds: r.metrics.rounds,
        crashed_at: r.crashed_at.clone(),
    }
}

fn le_adversary(kind: &str, f: usize) -> Box<dyn Adversary<LeMsg>> {
    match kind {
        "none" => Box::new(NoFaults),
        "eager" => Box::new(EagerCrash::new(f)),
        "random" => Box::new(RandomCrash::new(f, 60)),
        "targeted" => Box::new(MinRankCrasher::new(f)),
        other => panic!("unknown adversary {other}"),
    }
}

fn agree_adversary(kind: &str, f: usize) -> Box<dyn Adversary<AgreeMsg>> {
    match kind {
        "none" => Box::new(NoFaults),
        "eager" => Box::new(EagerCrash::new(f)),
        "random" => Box::new(RandomCrash::new(f, 20)),
        "targeted" => Box::new(ZeroHolderCrasher::new(f)),
        other => panic!("unknown adversary {other}"),
    }
}

#[test]
fn worker_count_does_not_change_wire_accounting() {
    // Outcomes are covered below; wire bytes must also be schedule-free.
    let params = Params::new(N, ALPHA).unwrap();
    let cfg = SimConfig::new(N)
        .seed(7)
        .max_rounds(params.le_round_budget());
    let f = params.max_faults();
    let run_on = |procs| {
        run_over_mesh(
            &cfg,
            procs,
            |_| LeNode::new(params.clone()),
            le_adversary("random", f).as_mut(),
        )
        .expect("mesh fabric")
        .net
    };
    let baseline = run_on(1);
    for procs in [2, 4, 8] {
        let net = run_on(procs);
        assert_eq!(net.wire_bytes, baseline.wire_bytes, "procs={procs}");
        assert_eq!(net.frames_sent, baseline.frames_sent, "procs={procs}");
    }
}

#[test]
fn committed_counterexample_replays_identically_across_worker_counts() {
    // `results/le-failure.counterexample.json` is a hunted, ddmin-shrunk
    // schedule under which leader election *fails* at the recorded seed
    // (a single node going silent in the late referee window). Replaying
    // it must reproduce the recorded fingerprint and verdict on the
    // engine and on the mesh at every worker (proc) count — the hunt
    // subsystem's acceptance property, pinned to a committed artifact.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/le-failure.counterexample.json"
    ))
    .expect("committed counterexample artifact");
    let artifact = Artifact::parse(&text).expect("artifact parses");
    assert!(
        artifact.hit,
        "the committed artifact is a real counterexample"
    );

    let engine = artifact.replay(Substrate::Engine).expect("engine replay");
    assert!(engine.ok(), "engine replay diverged: {engine:?}");
    assert!(
        !engine.observation.fingerprint.success,
        "the counterexample must still make the protocol fail"
    );
    for workers in WORKER_COUNTS {
        let net = artifact
            .replay(Substrate::Mesh(workers))
            .expect("mesh replay");
        assert!(net.ok(), "mesh replay diverged at procs={workers}: {net:?}");
        assert_eq!(
            net.observation, engine.observation,
            "mesh observation differs from engine at procs={workers}"
        );
    }
}

#[test]
fn tcp_smoke_leader_election_n8() {
    // The acceptance configuration: n = 8, alpha = 0.5 (tiny-n
    // best-effort regime), over real localhost TCP sockets (the mesh
    // fabric at 4 procs).
    let n = 8;
    let params = Params::new(n, 0.5).unwrap();
    let cfg = SimConfig::new(n)
        .seed(1)
        .max_rounds(params.le_round_budget());
    let sim = run(&cfg, |_| LeNode::new(params.clone()), &mut NoFaults);
    let net = run_over_mesh(&cfg, 4, |_| LeNode::new(params.clone()), &mut NoFaults)
        .expect("tcp fabric at n=8");
    assert_eq!(le_fingerprint(&net.run), le_fingerprint(&sim));
    let out = LeOutcome::evaluate(&net.run);
    assert!(out.success, "exactly one leader over real sockets");
    assert!(net.net.wire_bytes > 0);
}

#[test]
fn tcp_smoke_agreement_n8_with_crashes() {
    let n = 8;
    let params = Params::new(n, 0.5).unwrap();
    let f = params.max_faults();
    let cfg = SimConfig::new(n)
        .seed(3)
        .max_rounds(params.agreement_round_budget());
    let input = |id: NodeId| id.0 != 0;
    let sim = run(
        &cfg,
        |id| AgreeNode::new(params.clone(), input(id)),
        agree_adversary("eager", f).as_mut(),
    );
    let net = run_over_mesh(
        &cfg,
        4,
        |id| AgreeNode::new(params.clone(), input(id)),
        agree_adversary("eager", f).as_mut(),
    )
    .expect("tcp fabric at n=8");
    assert_eq!(agree_fingerprint(&net.run), agree_fingerprint(&sim));
    assert!(AgreeOutcome::evaluate(&net.run).success);
}

// ---------------------------------------------------------------------
// The multiplexed socket substrate must replay the engine bit-for-bit at
// every process count, including the socketless procs = 1.
// ---------------------------------------------------------------------

const MESH_PROC_COUNTS: [usize; 3] = [1, 2, 5];

#[test]
fn leader_election_matches_engine_on_mesh_transport() {
    let params = Params::new(N, ALPHA).unwrap();
    let f = params.max_faults();
    for adversary in ["none", "eager", "random", "targeted"] {
        for seed in [1u64, 7, 99] {
            let cfg = SimConfig::new(N)
                .seed(seed)
                .max_rounds(params.le_round_budget());
            let sim = run(
                &cfg,
                |_| LeNode::new(params.clone()),
                le_adversary(adversary, f).as_mut(),
            );
            let expected = le_fingerprint(&sim);
            for procs in MESH_PROC_COUNTS {
                let net = run_over_mesh(
                    &cfg,
                    procs,
                    |_| LeNode::new(params.clone()),
                    le_adversary(adversary, f).as_mut(),
                )
                .expect("mesh fabric");
                assert_eq!(
                    le_fingerprint(&net.run),
                    expected,
                    "mesh LE diverged: adversary={adversary} seed={seed} procs={procs}"
                );
                assert_eq!(net.run.metrics.wire_bytes, net.net.wire_bytes);
            }
        }
    }
}

#[test]
fn agreement_matches_engine_on_mesh_transport() {
    let params = Params::new(N, ALPHA).unwrap();
    let f = params.max_faults();
    let input = |id: NodeId| !id.0.is_multiple_of(8);
    for adversary in ["none", "eager", "random", "targeted"] {
        for seed in [2u64, 13] {
            let cfg = SimConfig::new(N)
                .seed(seed)
                .max_rounds(params.agreement_round_budget());
            let sim = run(
                &cfg,
                |id| AgreeNode::new(params.clone(), input(id)),
                agree_adversary(adversary, f).as_mut(),
            );
            let expected = agree_fingerprint(&sim);
            for procs in MESH_PROC_COUNTS {
                let net = run_over_mesh(
                    &cfg,
                    procs,
                    |id| AgreeNode::new(params.clone(), input(id)),
                    agree_adversary(adversary, f).as_mut(),
                )
                .expect("mesh fabric");
                assert_eq!(
                    agree_fingerprint(&net.run),
                    expected,
                    "mesh agreement diverged: adversary={adversary} seed={seed} procs={procs}"
                );
            }
        }
    }
}

#[test]
fn mesh_wire_accounting_is_procs_invariant_and_matches_the_channel_mesh() {
    // The envelope's dst word is transport overhead, not model traffic:
    // wire bytes and frame counts must equal what the in-process channel
    // runtime reported for this run (1 worker) before mesh:1 replaced it,
    // at every process count (including the socketless procs=1).
    const CHANNEL_WIRE_BYTES: u64 = 375_759;
    const CHANNEL_FRAMES_SENT: u64 = 12_537;
    let params = Params::new(N, ALPHA).unwrap();
    let cfg = SimConfig::new(N)
        .seed(5)
        .max_rounds(params.le_round_budget());
    let f = params.max_faults();
    for procs in [1, 2, 5, 8] {
        let net = run_over_mesh(
            &cfg,
            procs,
            |_| LeNode::new(params.clone()),
            le_adversary("eager", f).as_mut(),
        )
        .expect("mesh fabric");
        assert_eq!(net.net.wire_bytes, CHANNEL_WIRE_BYTES, "procs={procs}");
        assert_eq!(net.net.frames_sent, CHANNEL_FRAMES_SENT, "procs={procs}");
    }
}

#[test]
fn committed_counterexample_replays_identically_on_the_mesh() {
    // The hunted artifact is a real-wire counterexample on every
    // substrate — including the multiplexed one.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/le-failure.counterexample.json"
    ))
    .expect("committed counterexample artifact");
    let artifact = Artifact::parse(&text).expect("artifact parses");
    let engine = artifact.replay(Substrate::Engine).expect("engine replay");
    assert!(engine.ok());
    for procs in MESH_PROC_COUNTS {
        let net = artifact
            .replay(Substrate::Mesh(procs))
            .expect("mesh replay");
        assert!(net.ok(), "mesh replay diverged at procs={procs}: {net:?}");
        assert_eq!(
            net.observation, engine.observation,
            "mesh observation differs from engine at procs={procs}"
        );
    }
}

#[test]
fn mesh_socket_count_is_quadratic_in_procs_not_nodes() {
    // The scaling claim that makes n=1024 feasible: sockets depend on the
    // process count alone. fabric::build itself asserts the opened count;
    // this pins the arithmetic and that big n runs on few sockets.
    use ftc::mesh::fabric::socket_count;
    for procs in [1usize, 2, 4, 8, 16] {
        assert_eq!(socket_count(procs), procs * (procs - 1) / 2);
    }
    // n = 512 over 3 procs: 3 sockets carry the whole cluster.
    let params = Params::new(512, 0.5).unwrap();
    let cfg = SimConfig::new(512)
        .seed(2)
        .max_rounds(params.le_round_budget());
    let net = run_over_mesh(&cfg, 3, |_| LeNode::new(params.clone()), &mut NoFaults)
        .expect("mesh fabric");
    assert!(LeOutcome::evaluate(&net.run).success);
    assert!(net.net.wire_bytes > 0);
}
