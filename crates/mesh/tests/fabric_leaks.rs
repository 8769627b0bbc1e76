//! Resource guard: a long-lived service builds a fresh socket fabric for
//! every election height, so sockets and proc threads must be released
//! when a run returns. 100 heights on mesh:2 open 100 sockets, 200
//! listeners and 200 proc threads; the process's open descriptors and
//! thread count must stay flat. It reads `/proc/self`, hence Linux-only,
//! and lives in its own test binary so no concurrent test moves the
//! counts.

#![cfg(target_os = "linux")]

use ftc_mesh::{RunOpts, Substrate};
use ftc_sim::prelude::*;

/// Broadcasts for three rounds.
struct Chatter {
    rounds: u32,
}

impl Protocol for Chatter {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.broadcast(0);
    }
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, _: &[Incoming<u64>]) {
        self.rounds += 1;
        if self.rounds < 3 {
            ctx.broadcast(u64::from(ctx.round()));
        }
    }
    fn is_terminated(&self) -> bool {
        self.rounds >= 3
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line in /proc/self/status")
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn fabric_sockets_and_proc_threads_do_not_accumulate_across_heights() {
    let cfg = SimConfig::new(8).seed(1).max_rounds(6);
    let run_height = |height| {
        let opts = RunOpts {
            height,
            ..RunOpts::default()
        };
        let net = Substrate::Mesh(2)
            .run(&cfg, |_| Chatter { rounds: 0 }, &mut NoFaults, &opts)
            .expect("mesh run");
        assert!(net.net.frames_sent > 0);
    };
    run_height(0);
    let (fds, threads_before) = (open_fds(), threads());
    for height in 1..=100 {
        run_height(height);
    }
    let (fds_after, threads_after) = (open_fds(), threads());
    assert!(
        fds_after <= fds + 4,
        "descriptors accumulated across heights: {fds} -> {fds_after}"
    );
    assert!(
        threads_after <= threads_before + 2,
        "proc threads accumulated across heights: {threads_before} -> {threads_after}"
    );
}
