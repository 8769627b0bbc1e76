//! The one execution-substrate type: where a run executes, parsed from
//! `engine|mesh[:P]`, and the single dispatch every front end (hunts,
//! lab campaigns, the leader service, the CLI) goes through.
//!
//! Both substrates return bit-identical model results for the same
//! `(SimConfig, seed)`; the mesh additionally reports what the run cost
//! on the wire.

use std::fmt;
use std::io;
use std::str::FromStr;
use std::time::Duration;

use ftc_net::fault::WireFaultPlan;
use ftc_net::{NetMetrics, NetRunResult, RECV_TIMEOUT};
use ftc_sim::adversary::Adversary;
use ftc_sim::engine::{run_sharded, SimConfig};
use ftc_sim::ids::NodeId;
use ftc_sim::payload::Wire;
use ftc_sim::protocol::Protocol;

use crate::fabric::MAX_MESH_PROCS;
use crate::runtime;

/// Procs a bare `mesh` (no `:P`) runs on.
pub const DEFAULT_MESH_PROCS: usize = 4;

/// Which substrate executes a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// The in-process sim engine (`ftc_sim::engine`).
    Engine,
    /// The multiplexed socket runtime with this many procs; one proc
    /// opens no sockets at all.
    Mesh(usize),
}

/// Per-run options. None of them changes a model result.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts<'a> {
    /// Election instance the run belongs to (the `ftc-serve` height).
    /// Mesh frames carry it, and a foreign-height frame fails the run.
    pub height: u32,
    /// Socket-level chaos applied by the mesh adapter. The engine has no
    /// wire and ignores it ([`WireFaultPlan::degrade`]'s empty-plan
    /// equivalence).
    pub wire_faults: Option<&'a WireFaultPlan>,
    /// How long the mesh waits without progress before the run fails.
    pub recv_timeout: Duration,
    /// Engine threads sharding one run's nodes (1 = serial).
    pub intra_jobs: usize,
}

impl Default for RunOpts<'_> {
    fn default() -> Self {
        RunOpts {
            height: 0,
            wire_faults: None,
            recv_timeout: RECV_TIMEOUT,
            intra_jobs: 1,
        }
    }
}

impl Substrate {
    /// The store-record label. The proc count is invisible in results,
    /// so it is left out and record ids are the same at any proc count
    /// (as they are at any `intra_jobs`).
    pub fn label(self) -> &'static str {
        match self {
            Substrate::Engine => "engine",
            Substrate::Mesh(_) => "mesh",
        }
    }

    /// Runs `cfg` on this substrate. The engine reports zero wire
    /// accounting; the mesh fails with an error, never a panic, when the
    /// fabric cannot be built or the run wedges.
    pub fn run<P, F, A>(
        self,
        cfg: &SimConfig,
        factory: F,
        adversary: &mut A,
        opts: &RunOpts<'_>,
    ) -> io::Result<NetRunResult<P>>
    where
        P: Protocol,
        P::Msg: Wire,
        F: FnMut(NodeId) -> P,
        A: Adversary<P::Msg> + ?Sized,
    {
        match self {
            Substrate::Engine => Ok(NetRunResult {
                run: run_sharded(cfg, factory, adversary, opts.intra_jobs),
                net: NetMetrics::default(),
            }),
            Substrate::Mesh(procs) => runtime::run_mesh(cfg, procs, factory, adversary, opts),
        }
    }
}

impl fmt::Display for Substrate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Substrate::Engine => f.write_str("engine"),
            Substrate::Mesh(procs) => write!(f, "mesh:{procs}"),
        }
    }
}

impl FromStr for Substrate {
    type Err = String;

    /// Parses `engine`, `mesh` ([`DEFAULT_MESH_PROCS`] procs) or `mesh:P`
    /// with `1 <= P <= MAX_MESH_PROCS`.
    fn from_str(s: &str) -> Result<Self, String> {
        let procs = match s {
            "engine" => return Ok(Substrate::Engine),
            "mesh" => Some(DEFAULT_MESH_PROCS),
            _ => s.strip_prefix("mesh:").and_then(|p| p.parse().ok()),
        };
        match procs {
            Some(p) if (1..=MAX_MESH_PROCS).contains(&p) => Ok(Substrate::Mesh(p)),
            _ => Err(format!(
                "unknown substrate `{s}` (engine|mesh[:P], 1 <= P <= {MAX_MESH_PROCS})"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substrate_strings_parse_or_fail_with_the_grammar() {
        for (text, want) in [
            ("engine", Substrate::Engine),
            ("mesh", Substrate::Mesh(DEFAULT_MESH_PROCS)),
            ("mesh:1", Substrate::Mesh(1)),
            ("mesh:2", Substrate::Mesh(2)),
            ("mesh:64", Substrate::Mesh(MAX_MESH_PROCS)),
        ] {
            assert_eq!(text.parse::<Substrate>(), Ok(want), "{text}");
        }
        for text in [
            "mesh:0",
            "mesh:65",
            "mesh:",
            "mesh:x",
            "mesh:-1",
            "channel:2",
            "channel",
            "tcp",
            "tcp:2",
            "engine:2",
            "",
            "MESH",
        ] {
            let err = text.parse::<Substrate>().unwrap_err();
            assert!(err.contains("engine|mesh[:P]"), "{text}: {err}");
        }
    }

    #[test]
    fn labels_and_displays_parse_back() {
        for s in [Substrate::Engine, Substrate::Mesh(1), Substrate::Mesh(7)] {
            assert_eq!(s.to_string().parse::<Substrate>(), Ok(s));
            let back: Substrate = s.label().parse().unwrap();
            assert_eq!(back.label(), s.label());
        }
        assert_eq!(Substrate::Mesh(3).label(), "mesh");
        assert_eq!(Substrate::Engine.label(), "engine");
    }
}
