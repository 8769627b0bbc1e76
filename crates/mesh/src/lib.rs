//! # ftc-mesh — the multiplexed socket runtime
//!
//! The execution substrate for real cluster runs of the ftc protocol
//! stack, from a handful of nodes to n in the thousands, next to the
//! in-process sim engine. [`Substrate`] names the two (`engine` or
//! `mesh[:P]`) and is the one dispatch every front end runs through.
//!
//! The design is two cleanly separated layers:
//!
//! - **Layer 1 — the sans-I/O round core.** [`RoundCore`] (per node) and
//!   [`CoordinatorCore`] (control plane) are pure state machines: feed
//!   inbound frames in, poll outbound frames and round transitions out.
//!   No sockets, no threads, no clocks — unit-testable in isolation. They
//!   live in [`ftc_net::core`], built on the engine's own control plane
//!   (that is the point: one adjudication path, bit-identical results);
//!   this crate re-exports them as its Layer 1.
//! - **Layer 2 — the multiplexed runtime.** [`fabric`] opens exactly one
//!   localhost socket per unordered *process* pair — O(procs²) sockets,
//!   independent of n, and none at all for one proc — and [`runtime`]
//!   drives many node cores per process over it with a readiness loop:
//!   [`wire`] envelopes (`[dst][frame]`) are coalesced per peer into
//!   large nonblocking writes, and reads are drained into incremental
//!   decoders whenever the poller reports data. Backpressure comes from
//!   the kernel socket buffers (`WouldBlock` ⇒ drain reads, retry), never
//!   from unbounded queues.
//!
//! [`runtime::run_over_mesh`] is bit-identical to the engine for the same
//! `(SimConfig, seed)` at any process count; `tests/net_equivalence.rs`
//! pins that.
//!
//! ## Example
//!
//! ```
//! use ftc_mesh::runtime::run_over_mesh;
//! use ftc_sim::prelude::*;
//!
//! /// Every node greets all neighbours once.
//! struct Hello { greeted: u64, done: bool }
//!
//! impl Protocol for Hello {
//!     type Msg = u64;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
//!         ctx.broadcast(42);
//!     }
//!     fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
//!         self.greeted += inbox.len() as u64;
//!         self.done = true;
//!     }
//!     fn is_terminated(&self) -> bool { self.done }
//! }
//!
//! let cfg = SimConfig::new(8).seed(1);
//! // One proc: every node in this process, no sockets opened.
//! let result = run_over_mesh(&cfg, 1, |_| Hello { greeted: 0, done: false }, &mut NoFaults)?;
//! assert_eq!(result.run.metrics.msgs_delivered, 8 * 7);
//! assert!(result.net.wire_bytes > 0); // every frame was encoded and paid for
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod fabric;
pub mod runtime;
pub mod substrate;
pub mod wire;

pub use substrate::{RunOpts, Substrate};

// Layer 1 of this crate: the sans-I/O round state machines, hosted in
// ftc-net next to the frame codec and the wire-fault plans.
pub use ftc_net::core::{Command, CoordinatorCore, NodeStatus, RoundCore, RoundPlan, Submission};

/// Everything a cluster caller needs.
pub mod prelude {
    pub use crate::fabric::{socket_count, MAX_MESH_PROCS};
    pub use crate::runtime::run_over_mesh;
    pub use crate::substrate::{RunOpts, Substrate, DEFAULT_MESH_PROCS};
    pub use ftc_net::core::{
        Command, CoordinatorCore, NodeStatus, RoundCore, RoundPlan, Submission,
    };
}
