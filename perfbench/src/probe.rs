//! Transparent timing wrappers around the protocol and adversary layers.
//!
//! [`Timed`] and [`TimedAdversary`] delegate every call to the wrapped
//! value and forward `is_terminated`/`is_inert` unchanged, so the engine
//! and the mesh make exactly the same decisions as without them and every
//! `RunResult` stays bit-identical. They only add clock reads around each
//! call. [`Capture`] records delivered messages for the codec pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use ftc_sim::adversary::{Adversary, AdversaryView, CrashDirective, FaultySet, Tamper};
use ftc_sim::ids::Round;
use ftc_sim::protocol::{Ctx, Incoming, Protocol};
use rand::rngs::SmallRng;

/// Nanoseconds since the first call in this process: one clock shared by
/// every thread, so spans recorded on different threads can be merged.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small number naming the calling thread in trace files, handed out on
/// first use.
pub fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    INDEX.with(|i| *i)
}

/// Busy time and call counts of one wrapped value.
#[derive(Clone, Debug, Default)]
pub struct Busy {
    /// Summed duration of the calls.
    pub ns: u64,
    /// Number of calls.
    pub calls: u64,
    /// `(start, end)` of every call, kept only when calls may run on
    /// several threads at once and their union has to be measured.
    pub spans: Option<Vec<(u64, u64)>>,
}

impl Busy {
    fn new(keep_spans: bool) -> Self {
        Busy {
            spans: keep_spans.then(Vec::new),
            ..Busy::default()
        }
    }

    fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let start = now_ns();
        let out = call();
        let end = now_ns();
        self.ns += end - start;
        self.calls += 1;
        if let Some(spans) = &mut self.spans {
            spans.push((start, end));
        }
        out
    }
}

/// A protocol node whose activations are timed.
#[derive(Clone, Debug)]
pub struct Timed<P> {
    /// The wrapped node.
    pub inner: P,
    /// Activation time and count.
    pub busy: Busy,
    /// Messages delivered to this node.
    pub inbox_msgs: u64,
}

impl<P> Timed<P> {
    /// Wraps `inner`; `keep_spans` records every activation's interval.
    pub fn new(inner: P, keep_spans: bool) -> Self {
        Timed {
            inner,
            busy: Busy::new(keep_spans),
            inbox_msgs: 0,
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        let inner = &mut self.inner;
        self.busy.time(|| inner.on_start(ctx));
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, P::Msg>, inbox: &[Incoming<P::Msg>]) {
        self.inbox_msgs += inbox.len() as u64;
        let inner = &mut self.inner;
        self.busy.time(|| inner.on_round(ctx, inbox));
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }

    fn is_inert(&self) -> bool {
        self.inner.is_inert()
    }
}

/// An adversary whose every call is timed.
#[derive(Clone, Debug)]
pub struct TimedAdversary<A> {
    /// The wrapped adversary.
    pub inner: A,
    /// Call time and count.
    pub busy: Busy,
}

impl<A> TimedAdversary<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        TimedAdversary {
            inner,
            busy: Busy::default(),
        }
    }
}

impl<M, A: Adversary<M>> Adversary<M> for TimedAdversary<A> {
    fn faulty_set(&mut self, n: u32, rng: &mut SmallRng) -> FaultySet {
        let inner = &mut self.inner;
        self.busy.time(|| inner.faulty_set(n, rng))
    }

    fn on_round(&mut self, view: &AdversaryView<'_, M>, rng: &mut SmallRng) -> Vec<CrashDirective> {
        let inner = &mut self.inner;
        self.busy.time(|| inner.on_round(view, rng))
    }

    fn tamper(&mut self, view: &AdversaryView<'_, M>, rng: &mut SmallRng) -> Vec<Tamper<M>> {
        let inner = &mut self.inner;
        self.busy.time(|| inner.tamper(view, rng))
    }
}

/// A protocol node that keeps the first `limit` messages delivered to it,
/// with their round, for the codec pass.
pub struct Capture<P: Protocol> {
    /// The wrapped node.
    pub inner: P,
    /// `(round, message)` in delivery order.
    pub delivered: Vec<(Round, P::Msg)>,
    limit: usize,
}

impl<P: Protocol> Capture<P> {
    /// Wraps `inner`, keeping at most `limit` delivered messages.
    pub fn new(inner: P, limit: usize) -> Self {
        Capture {
            inner,
            delivered: Vec::new(),
            limit,
        }
    }
}

impl<P: Protocol> Protocol for Capture<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, P::Msg>, inbox: &[Incoming<P::Msg>]) {
        let room = self.limit - self.delivered.len();
        let round = ctx.round();
        self.delivered
            .extend(inbox.iter().take(room).map(|m| (round, m.msg.clone())));
        self.inner.on_round(ctx, inbox);
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }

    fn is_inert(&self) -> bool {
        self.inner.is_inert()
    }
}

/// Total length of the union of `spans`, in nanoseconds.
pub fn union_ns(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in spans {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + open.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![(20, 25), (0, 30)]), 30);
    }
}
