//! # `ftc-net` — the sans-I/O layer of the ftc socket runtime
//!
//! The simulator (`ftc-sim`) executes the model of Kumar & Molla — a
//! synchronous crash-fault complete network — entirely in process. This
//! crate holds everything a real message-passing runtime needs *except*
//! the I/O, so the one socket adapter (`ftc-mesh`) stays thin:
//!
//! * [`core`] — the sans-I/O round state machines ([`core::RoundCore`] per
//!   node, [`core::CoordinatorCore`] for the control plane). They are
//!   built on the simulator's shared control plane
//!   ([`ftc_sim::round::ControlCore`]) and per-node harness
//!   ([`ftc_sim::node::NodeHarness`]), which is why a cluster run is
//!   **bit-identical** to an engine run of the same `(SimConfig, seed)`:
//!   the network does not *approximate* the simulator, it *replays* it.
//! * [`frame`] — the length-prefixed [`frame::Frame`] codec that carries
//!   protocol messages (KT0 port wiring preserved) on the wire.
//! * [`fault`] — seeded, delivery-preserving wire-fault plans that the
//!   adapter applies between the cores and the sockets.
//!
//! [`NetRunResult`] is what a cluster run returns: the model-level
//! [`RunResult`] plus [`NetMetrics`] byte accounting. A runnable example
//! lives in the `ftc-mesh` crate docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod fault;
pub mod frame;

use std::time::Duration;

use ftc_sim::engine::RunResult;

/// Default for how long a node waits for a frame before the cluster run
/// is declared wedged. The coordinator's accounting guarantees every
/// awaited frame was (or will be) sent, so in a healthy run this never
/// fires; it turns bugs and stalled peers into errors instead of hangs.
/// `ftc cluster --recv-timeout` overrides it.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Transport-level accounting of one cluster run, on top of the model
/// metrics in [`RunResult`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NetMetrics {
    /// Total bytes pushed onto the wire (length prefixes + frame headers +
    /// encoded payloads), summed over all nodes.
    pub wire_bytes: u64,
    /// Total frames transmitted.
    pub frames_sent: u64,
}

/// A completed cluster run: the model-level result (identical to what
/// [`ftc_sim::engine::run`] returns for the same `(SimConfig, seed)`) plus
/// transport-level byte accounting.
#[derive(Debug)]
pub struct NetRunResult<P> {
    /// The model-level result; `run.metrics.wire_bytes` is filled in from
    /// the transport accounting.
    pub run: RunResult<P>,
    /// Transport-level accounting.
    pub net: NetMetrics,
}

/// Convenient glob import for runtime users.
pub mod prelude {
    pub use crate::core::{Command, CoordinatorCore, NodeStatus, RoundCore, RoundPlan, Submission};
    pub use crate::fault::{
        ChunkedWriter, FrameDedup, WireFaultEntry, WireFaultKind, WireFaultPlan,
    };
    pub use crate::frame::Frame;
    pub use crate::{NetMetrics, NetRunResult, RECV_TIMEOUT};
}
