//! The benchmark's own checks: the timing wrappers change no result, and
//! the command prints exactly the metrics `BENCHMARK.json` declares.

use std::collections::BTreeSet;

use ftc_baselines::broadcast_le::{broadcast_le_round_budget, BroadcastLeNode};
use ftc_core::leader_election::LeNode;
use ftc_core::params::Params;
use ftc_mesh::runtime::run_over_mesh;
use ftc_perfbench::model::{Substrate, CRASH_HORIZON};
use ftc_perfbench::probe::{Timed, TimedAdversary};
use ftc_perfbench::workload::{execute, Proto, Workload, WORKLOADS};
use ftc_sim::adversary::RandomCrash;
use ftc_sim::engine::{run, RunResult, SimConfig};
use ftc_sim::json::Json;
use ftc_sim::protocol::Protocol;

/// Everything in a `RunResult`, states included, as text.
fn dump<P: std::fmt::Debug>(r: &RunResult<P>) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?}",
        r.metrics,
        r.states,
        r.crashed_at,
        r.faulty.iter().collect::<Vec<_>>(),
        r.trace,
        r.congest_violations
    )
}

fn unwrap_states<P>(r: RunResult<Timed<P>>) -> RunResult<P> {
    RunResult {
        states: r.states.into_iter().map(|t| t.inner).collect(),
        metrics: r.metrics,
        crashed_at: r.crashed_at,
        faulty: r.faulty,
        trace: r.trace,
        congest_violations: r.congest_violations,
    }
}

/// Runs `cfg` plain and wrapped, on the engine and on mesh:2, and checks
/// that all four results are the same, bit for bit.
fn check_identical<P>(cfg: &SimConfig, f: usize, node: impl Fn() -> P)
where
    P: Protocol<Msg: ftc_sim::payload::Wire> + std::fmt::Debug,
{
    let plain = run(cfg, |_| node(), &mut RandomCrash::new(f, CRASH_HORIZON));
    let mut adv = TimedAdversary::new(RandomCrash::new(f, CRASH_HORIZON));
    let traced = run(cfg, |_| Timed::new(node(), false), &mut adv);
    assert!(adv.busy.calls > 0, "the adversary wrapper saw no call");
    assert!(traced.states.iter().any(|t| t.busy.calls > 0));
    let want = dump(&plain);
    assert_eq!(dump(&unwrap_states(traced)), want, "engine, traced");

    let mut mesh_plain = run_over_mesh(cfg, 2, |_| node(), &mut RandomCrash::new(f, CRASH_HORIZON))
        .expect("mesh")
        .run;
    let mut adv = TimedAdversary::new(RandomCrash::new(f, CRASH_HORIZON));
    let mut mesh_traced = unwrap_states(
        run_over_mesh(cfg, 2, |_| Timed::new(node(), true), &mut adv)
            .expect("mesh")
            .run,
    );
    // Only a real transport counts wire bytes; the engine leaves them 0.
    mesh_plain.metrics.wire_bytes = 0;
    mesh_traced.metrics.wire_bytes = 0;
    assert_eq!(dump(&mesh_plain), want, "mesh:2");
    assert_eq!(dump(&mesh_traced), want, "mesh:2, traced");
}

#[test]
fn wrappers_leave_run_results_bit_identical() {
    let params = Params::new(128, 0.5).expect("params");
    for seed in [1, 2, 3] {
        let cfg = SimConfig::new(128)
            .seed(seed)
            .max_rounds(params.le_round_budget());
        check_identical(&cfg, params.max_faults(), || LeNode::new(params.clone()));
        let cfg = SimConfig::new(64)
            .seed(seed)
            .max_rounds(broadcast_le_round_budget(32));
        check_identical(&cfg, 32, || BroadcastLeNode::new(32));
    }
}

fn declared(section: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.field(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.field("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn tiny(name: &'static str, proto: Proto, substrate: Substrate, jobs: Option<usize>) -> Workload {
    Workload {
        name,
        proto,
        substrate,
        jobs,
        seeds: 4,
        warmup: &[1],
        pin: None,
    }
}

/// The `metric` lines of a rendered report, and the metric names of its
/// final JSON line.
fn printed(out: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let lines: BTreeSet<String> = out
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| l.split(' ').next().expect("name").to_string())
        .collect();
    let last = Json::parse(out.lines().last().expect("output")).expect("last line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(last.get(key).is_some(), "result lacks {key}");
    }
    let Some(Json::Obj(fields)) = last.get("metrics") else {
        panic!("metrics is not an object");
    };
    let json = fields.iter().map(|(k, _)| k.clone()).collect();
    (lines, json)
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let workloads = [
        tiny(
            "tiny-engine",
            Proto::Le { n: 128, alpha: 0.5 },
            Substrate::Engine,
            Some(2),
        ),
        tiny(
            "tiny-mesh",
            Proto::Le { n: 64, alpha: 0.75 },
            Substrate::Mesh(2),
            None,
        ),
        tiny(
            "tiny-bcast",
            Proto::Bcast { n: 64, f: 32 },
            Substrate::Engine,
            None,
        ),
    ];
    for w in &workloads {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = execute(w, 7, 0.0, traced);
            let out = report.render();
            assert!(report.correct(), "{} trace={traced}:\n{out}", w.name);
            let (lines, json) = printed(&out);
            assert!(lines.iter().all(|n| valid(n)), "{lines:?}");
            assert_eq!(lines, declared(section), "{} trace={traced}", w.name);
            assert_eq!(json, lines, "{} trace={traced}", w.name);
        }
    }
}

#[test]
fn declared_workloads_exist() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read");
    let json = Json::parse(&text).expect("parse");
    let names: Vec<&str> = json
        .field("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.field("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
}

#[test]
fn a_wrong_pin_fails_the_run() {
    let mut w = tiny(
        "tiny-pinned",
        Proto::Le { n: 128, alpha: 0.5 },
        Substrate::Engine,
        None,
    );
    w.pin = Some(0);
    let report = execute(&w, 7, 0.0, false);
    assert!(!report.correct());
    assert!(report
        .render()
        .lines()
        .last()
        .expect("output")
        .contains("\"correct\": false"));
}
