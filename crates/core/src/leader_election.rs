//! Fault-tolerant implicit leader election (Section IV-A, Theorem 4.1).
//!
//! The protocol in one breath: every node makes itself a *candidate* with
//! probability `Θ(log n/(α·n))`; each candidate samples `Θ(√(n·log n/α))`
//! *referee* nodes and registers its random rank with them; referees
//! forward the ranks they collect, giving every candidate a `rankList`;
//! then, in `O(log n/α)` four-round iterations, candidates repeatedly
//! propose the minimum viable rank they know through their referees,
//! referees echo back the *maximum* proposal they heard (flagging whether
//! it was a self-proposal, i.e. a leadership claim), and candidates prune
//! every rank below the echoed maximum. A candidate whose own rank comes
//! back as the maximum claims leadership; a claim that is delivered without
//! the claimer crashing settles every candidate on that leader, because any
//! two candidates share a non-faulty referee (Lemma 3). If the current
//! minimum crashes mid-broadcast, its rank is eventually timed out and
//! removed, and the next minimum takes its place — at most one rank dies
//! per iteration, and the committee has `O(log n/α)` members (Lemma 1).
//!
//! The result: `O(log n/α)` rounds and `O(√n·log^{5/2}n/α^{5/2})` messages
//! whp, tolerating up to `n − log²n` crash faults, in an anonymous KT0
//! network. A crashed node is never elected (it may crash *after* the
//! election; the leader is non-faulty with probability ≥ α).

use std::collections::{BTreeSet, VecDeque};

use ftc_sim::ids::{NodeId, Port, Round};
use ftc_sim::prelude::*;

use crate::messages::LeMsg;
use crate::params::Params;
use crate::rank::Rank;
use crate::sampling;

/// How many proposer-silent phase-A activations a candidate waits on one
/// support target before declaring the target dead (the paper's "didn't
/// receive any updates in the next 4 rounds", Step 4, with slack for the
/// two-hop candidate↔referee round trip).
const SUPPORT_PATIENCE: u32 = 3;

/// A node's final verdict for the implicit leader-election problem
/// (Definition 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeStatus {
    /// The node output `ELECTED` (claimed leadership and never retracted).
    Elected,
    /// The node output `NON_ELECTED`.
    NonElected,
}

/// A set of ranks kept as a sorted, duplicate-free `Vec`.
///
/// The candidate's sets hold at most the few dozen committee ranks, so a
/// binary search plus a short shift beats a B-tree node walk and its
/// per-insert allocation. Iteration is in rank order, as a `BTreeSet`'s
/// would be, which keeps runs deterministic.
#[derive(Clone, Debug, Default)]
struct RankSet(Vec<Rank>);

impl RankSet {
    fn contains(&self, rank: Rank) -> bool {
        self.0.binary_search(&rank).is_ok()
    }

    /// Inserts `rank`; returns whether it was absent.
    fn insert(&mut self, rank: Rank) -> bool {
        match self.0.binary_search(&rank) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, rank);
                true
            }
        }
    }

    /// Removes `rank`; returns whether it was present.
    fn remove(&mut self, rank: Rank) -> bool {
        match self.0.binary_search(&rank) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes every rank below `floor`.
    fn drop_below(&mut self, floor: Rank) {
        let cut = self.0.partition_point(|&r| r < floor);
        self.0.drain(..cut);
    }

    /// The smallest rank `>= rank`, if any.
    fn at_or_above(&self, rank: Rank) -> Option<Rank> {
        self.0.get(self.0.partition_point(|&r| r < rank)).copied()
    }

    fn first(&self) -> Option<Rank> {
        self.0.first().copied()
    }

    fn iter(&self) -> impl Iterator<Item = Rank> + '_ {
        self.0.iter().copied()
    }
}

/// State of a node that chose to be a candidate.
///
/// The rank sets are [`RankSet`]s: sorted `Vec`s with binary-search
/// lookups, iterated in rank order so that which rank is proposed next
/// never depends on insertion history.
#[derive(Clone, Debug)]
struct CandidateState {
    /// Own rank (= own ID).
    id: Rank,
    /// Ports of the sampled referees.
    referees: Vec<Port>,
    /// Ranks of (known) candidates, own rank included; pruned from below
    /// as higher maxima are echoed.
    rank_list: RankSet,
    /// Ranks this candidate has already proposed at a phase-A activation
    /// ("a node proposes a rank from its rankList only once").
    proposed: RankSet,
    /// Ranks discovered to be dead (timed out); never re-admitted.
    dead: RankSet,
    /// Largest echoed maximum processed so far; everything below is pruned.
    floor: Rank,
    /// The rank this candidate is currently waiting on (its own last
    /// proposal or an adopted support target).
    support: Option<Rank>,
    /// Phase-A activations spent waiting on `support` without progress.
    support_age: u32,
    /// Support values already relayed (the paper's "sends ⟨ID_u, p̃max⟩"
    /// happens once per adopted value).
    relayed: RankSet,
    /// Current leader belief.
    leader: Option<Rank>,
    /// Whether this node claimed leadership (and hasn't been superseded).
    marked_leader: bool,
    /// Settled: believes a leader and awaits nothing.
    settled: bool,
}

/// State of a node in its referee role (any node may be sampled).
///
/// Pre-processing forwards every known rank to every registered candidate
/// except the one it came from, at one message per candidate port per
/// round (CONGEST). The forwards are kept as one FIFO per candidate
/// *slot* (its index in `candidates`), each entry tagged with a global
/// enqueue sequence number. A round sends the head of every non-empty
/// slot in sequence order. That is exactly what draining one shared FIFO
/// of `(port, rank)` pairs would send — each port's oldest pending entry,
/// in the order those entries were queued — at `O(slots)` cost per round
/// instead of a walk over every pending pair. The send order reaches the
/// wire and the send-cap accounting, so every container here iterates
/// deterministically for runs to replay exactly.
#[derive(Clone, Debug, Default)]
struct RefereeState {
    /// Ports of the candidates that registered with this referee; slot `i`
    /// of `queues` belongs to `candidates[i]`.
    candidates: Vec<Port>,
    /// Every distinct rank heard, in arrival order. Queue entries point
    /// into it by index.
    ranks: Vec<Rank>,
    /// Indices into `ranks`, sorted by rank: the membership test and the
    /// rank-ordered catch-up a newly registered candidate receives.
    by_rank: Vec<u32>,
    /// Pending forwards per slot as `(enqueue sequence, index into
    /// ranks)`. A drained slot's buffer is released.
    queues: Vec<VecDeque<(u32, u32)>>,
    /// Sequence number of the next queued forward.
    next_seq: u32,
    /// Forwards pending over all slots.
    pending: usize,
    /// Reused per-round scratch: `(sequence, slot)` of the heads to send.
    heads: Vec<(u32, u32)>,
}

impl RefereeState {
    /// Records a `Register{rank}` from port `from`, queueing the forwards
    /// it causes: every known rank to a newly seen candidate (in rank
    /// order), then a newly seen rank to every other candidate (in
    /// registration order).
    fn register(&mut self, from: Port, rank: Rank) {
        let slot = match self.candidates.iter().position(|&p| p == from) {
            Some(slot) => slot,
            None => {
                // Every known rank arrived from an already registered
                // port, so none of them came from the newcomer.
                let first = self.take_seqs(self.by_rank.len());
                let queue = (first..).zip(self.by_rank.iter().copied()).collect();
                self.candidates.push(from);
                self.queues.push(queue);
                self.candidates.len() - 1
            }
        };
        let ranks = &self.ranks;
        if let Err(at) = self
            .by_rank
            .binary_search_by_key(&rank, |&i| ranks[i as usize])
        {
            let index = self.ranks.len() as u32;
            self.ranks.push(rank);
            self.by_rank.insert(at, index);
            let mut seq = self.take_seqs(self.queues.len() - 1);
            for (other, queue) in self.queues.iter_mut().enumerate() {
                if other != slot {
                    queue.push_back((seq, index));
                    seq += 1;
                }
            }
        }
    }

    /// Reserves `count` consecutive enqueue sequence numbers for as many
    /// new forwards; returns the first. Every slot drains an entry per
    /// round, so the `u32` range runs out only with billions of forwards
    /// pending at once — tens of gigabytes of entries, past any run's
    /// memory.
    fn take_seqs(&mut self, count: usize) -> u32 {
        let first = self.next_seq;
        self.next_seq = u32::try_from(count)
            .ok()
            .and_then(|count| first.checked_add(count))
            .expect("fewer than 2^32 forwards queued at one referee");
        self.pending += count;
        first
    }

    /// Sends one round of forwards: the head of every non-empty slot, in
    /// enqueue order.
    fn drain(&mut self, mut send: impl FnMut(Port, Rank)) {
        if self.pending == 0 {
            return;
        }
        let RefereeState {
            candidates,
            ranks,
            queues,
            pending,
            heads,
            ..
        } = self;
        heads.clear();
        for (slot, queue) in queues.iter().enumerate() {
            if let Some(&(seq, _)) = queue.front() {
                heads.push((seq, slot as u32));
            }
        }
        heads.sort_unstable();
        for &(_, slot) in heads.iter() {
            let queue = &mut queues[slot as usize];
            let (_, index) = queue.pop_front().expect("a head was seen");
            if queue.is_empty() {
                *queue = VecDeque::new();
            }
            send(candidates[slot as usize], ranks[index as usize]);
        }
        *pending -= heads.len();
    }
}

/// Folds one `(value, flag)` into a running maximum whose flag is the OR
/// over every occurrence of the maximal value.
fn fold_max(acc: Option<(Rank, bool)>, value: Rank, flag: bool) -> Option<(Rank, bool)> {
    match acc {
        Some((v, f)) if v > value => Some((v, f)),
        Some((v, f)) if v == value => Some((v, f || flag)),
        _ => Some((value, flag)),
    }
}

/// One node of the fault-tolerant implicit leader-election protocol.
///
/// Construct per node with [`LeNode::new`] and run with
/// [`ftc_sim::engine::run`]; evaluate the outcome with
/// [`LeOutcome::evaluate`].
///
/// ```
/// use ftc_sim::prelude::*;
/// use ftc_core::leader_election::{LeNode, LeOutcome};
/// use ftc_core::params::Params;
///
/// let params = Params::new(64, 1.0)?;
/// let cfg = SimConfig::new(64).seed(3).max_rounds(params.le_round_budget());
/// let result = run(&cfg, |_| LeNode::new(params.clone()), &mut NoFaults);
/// let outcome = LeOutcome::evaluate(&result);
/// assert!(outcome.success);
/// # Ok::<(), ftc_core::params::ParamsError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LeNode {
    params: Params,
    candidate: Option<CandidateState>,
    referee: RefereeState,
}

impl LeNode {
    /// Creates the protocol state for one node.
    pub fn new(params: Params) -> Self {
        LeNode {
            params,
            candidate: None,
            referee: RefereeState::default(),
        }
    }

    /// This node's verdict (Definition 1). Every node outputs; unsettled
    /// candidates output `NON_ELECTED` like everyone else.
    pub fn status(&self) -> LeStatus {
        match &self.candidate {
            Some(c) if c.marked_leader => LeStatus::Elected,
            _ => LeStatus::NonElected,
        }
    }

    /// Whether this node made itself a candidate.
    pub fn is_candidate(&self) -> bool {
        self.candidate.is_some()
    }

    /// The candidate's rank, if this node is a candidate.
    pub fn rank(&self) -> Option<Rank> {
        self.candidate.as_ref().map(|c| c.id)
    }

    /// The candidate's current leader belief, if any.
    pub fn leader_belief(&self) -> Option<Rank> {
        self.candidate.as_ref().and_then(|c| c.leader)
    }

    /// Whether this candidate has settled on a leader.
    pub fn is_settled(&self) -> bool {
        self.candidate.as_ref().is_none_or(|c| c.settled)
    }

    /// The KT0 ports of the referees this candidate sampled, if this node
    /// is a candidate. Ports are the node's private view of its neighbours;
    /// callers map them to node ids with [`ftc_sim::round::PortMap`].
    ///
    /// Fault seeders use this: constructing a split-brain counterexample
    /// requires crashing exactly the referees two candidates share, which
    /// means reading the sampled sets out of a probe run.
    pub fn referee_ports(&self) -> Option<&[Port]> {
        self.candidate.as_ref().map(|c| c.referees.as_slice())
    }

    /// First round of the iteration phase.
    fn t0(&self) -> Round {
        self.params.preprocess_rounds()
    }

    /// Whether `round` is a phase-A (proposal) activation.
    fn is_phase_a(&self, round: Round) -> bool {
        round >= self.t0() && (round - self.t0()).is_multiple_of(4)
    }

    // ------------------------------------------------------------------
    // Referee role
    // ------------------------------------------------------------------

    /// Echoes the round's maximum proposal, flagged when some proposer
    /// proposed its own rank, to every registered candidate.
    fn referee_echo(&self, ctx: &mut Ctx<'_, LeMsg>, max_proposal: Option<(Rank, bool)>) {
        let Some((value, claimed)) = max_proposal else {
            return;
        };
        for &p in &self.referee.candidates {
            ctx.send(p, LeMsg::Echo { value, claimed });
        }
    }

    // ------------------------------------------------------------------
    // Candidate role
    // ------------------------------------------------------------------

    /// Sends `Propose{id, value}` to all referees.
    fn send_proposal(cand: &CandidateState, ctx: &mut Ctx<'_, LeMsg>, value: Rank) {
        for &p in &cand.referees {
            ctx.send(p, LeMsg::Propose { id: cand.id, value });
        }
    }

    /// Processes the maximum echo of this activation (Step 3 logic).
    fn candidate_process_echo(&mut self, ctx: &mut Ctx<'_, LeMsg>, value: Rank, claimed: bool) {
        let Some(cand) = self.candidate.as_mut() else {
            return;
        };
        if value < cand.floor {
            return; // stale echo, already superseded
        }
        cand.floor = cand.floor.max(value);
        // "removes all the ranks smaller than the received rank"
        cand.rank_list.drop_below(value);

        if value == cand.id {
            // Our own rank is the maximum: claim leadership (once) and
            // re-broadcast the claim so it reaches every candidate's
            // referees (Step 3, "sends ⟨ID_u, p̃max⟩ ... and marks itself").
            if !cand.marked_leader {
                cand.marked_leader = true;
                cand.leader = Some(cand.id);
                cand.settled = true;
                cand.support = None;
                let id = cand.id;
                Self::send_proposal(cand, ctx, id);
            }
            return;
        }

        // The maximum is someone else's rank; a claim we may have made for
        // a smaller rank is superseded.
        if cand.marked_leader && cand.id < value {
            cand.marked_leader = false;
            cand.settled = false;
            cand.leader = None;
        }

        if claimed {
            // The owner of `value` proposed itself and the claim got
            // through: adopt it and relay once ("u sends ⟨ID_u, p̃max⟩ and
            // considers v as the leader until any further updates").
            cand.leader = Some(value);
            cand.settled = true;
            cand.support = None;
            cand.support_age = 0;
            if cand.relayed.insert(value) {
                Self::send_proposal(cand, ctx, value);
            }
        } else {
            // An unclaimed maximum: support it if we know the rank,
            // otherwise out-propose it with the next higher rank we know
            // (or adopt it into the list if we know nothing higher).
            cand.settled = false;
            if cand.dead.contains(value) {
                // We already know this rank is dead; ignore — our next
                // phase-A proposal will out-propose it.
                return;
            }
            // If we know a higher rank, the next phase-A proposal (min of
            // the pruned list) is already ≥ `value`; nothing extra to send
            // now. Otherwise adopt `value` into the list.
            if cand.rank_list.at_or_above(value).is_none() {
                cand.rank_list.insert(value);
            }
            if cand.rank_list.contains(value) && cand.support != Some(value) {
                cand.support = Some(value);
                cand.support_age = 0;
                if cand.relayed.insert(value) {
                    Self::send_proposal(cand, ctx, value);
                }
            }
        }
    }

    /// Phase-A activation: propose the minimum viable rank (Step 1),
    /// ageing out dead support targets (Step 4).
    fn candidate_phase_a(&mut self, ctx: &mut Ctx<'_, LeMsg>) {
        let Some(cand) = self.candidate.as_mut() else {
            return;
        };
        if cand.settled {
            return;
        }

        // Step 4: if we have been waiting on the same target too long, the
        // target's owner crashed before its claim reached us — drop it.
        if let Some(target) = cand.support {
            cand.support_age += 1;
            if cand.support_age >= SUPPORT_PATIENCE {
                cand.rank_list.remove(target);
                cand.dead.insert(target);
                cand.support = None;
                cand.support_age = 0;
            }
        }

        // Step 1: propose the smallest not-yet-proposed rank; fall back to
        // re-proposing the current minimum so an unsettled candidate never
        // goes silent (its referees then echo *something* back).
        let value = cand
            .rank_list
            .iter()
            .find(|&r| !cand.proposed.contains(r))
            .or_else(|| cand.rank_list.first());
        let Some(value) = value else {
            // Rank list empty (everything timed out): fall back to self.
            cand.rank_list.insert(cand.id);
            return;
        };
        cand.proposed.insert(value);
        if cand.support.is_none() {
            cand.support = Some(value);
            cand.support_age = 0;
        }
        Self::send_proposal(cand, ctx, value);
    }
}

impl Protocol for LeNode {
    type Msg = LeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, LeMsg>) {
        if !sampling::decide_candidate(ctx.rng(), &self.params) {
            return;
        }
        let n = ctx.n();
        let id = Rank::draw(ctx.rng(), n);
        // Drawn through the Ctx so the sample ranges over the node's
        // actual ports: bit-identical to the historical complete-graph
        // draw (degree = n-1 there), degree-clamped on sparse topologies.
        let referees = ctx.sample_ports(self.params.referee_count());
        let rank_list = RankSet(vec![id]);
        for &p in &referees {
            ctx.send(p, LeMsg::Register { rank: id });
        }
        self.candidate = Some(CandidateState {
            id,
            referees,
            rank_list,
            proposed: RankSet::default(),
            dead: RankSet::default(),
            floor: Rank(0),
            support: None,
            support_age: 0,
            relayed: RankSet::default(),
            leader: None,
            marked_leader: false,
            settled: false,
        });
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, LeMsg>, inbox: &[Incoming<LeMsg>]) {
        // Split the inbox by role. A referee echoes the maximum proposal,
        // flagged when its proposer proposed itself; a candidate acts on
        // the maximum echo, flagged when any copy of it was claimed.
        let mut proposal_max: Option<(Rank, bool)> = None;
        let mut echo_max: Option<(Rank, bool)> = None;
        for inc in inbox {
            match inc.msg {
                LeMsg::Register { rank } => self.referee.register(inc.port, rank),
                LeMsg::ForwardRank { rank } => {
                    if let Some(cand) = self.candidate.as_mut() {
                        if rank >= cand.floor && !cand.dead.contains(rank) {
                            cand.rank_list.insert(rank);
                        }
                    }
                }
                LeMsg::Propose { id, value } => {
                    proposal_max = fold_max(proposal_max, value, id == value);
                }
                LeMsg::Echo { value, claimed } => echo_max = fold_max(echo_max, value, claimed),
                LeMsg::Announce { .. } => {
                    // Only used by the explicit extension; ignored here.
                }
            }
        }

        // Referee role: forward pre-processing ranks, echo proposals.
        self.referee
            .drain(|port, rank| ctx.send(port, LeMsg::ForwardRank { rank }));
        self.referee_echo(ctx, proposal_max);

        // Candidate role: process the round's maximum echo, then (on
        // phase-A activations) propose.
        if let Some((value, claimed)) = echo_max {
            self.candidate_process_echo(ctx, value, claimed);
        }
        if self.is_phase_a(ctx.round()) {
            self.candidate_phase_a(ctx);
        }
    }

    fn is_terminated(&self) -> bool {
        let cand_done = self.candidate.as_ref().is_none_or(|c| c.settled);
        cand_done && self.referee.pending == 0
    }

    fn is_inert(&self) -> bool {
        // With an empty inbox, `on_round` only acts through the referee's
        // forward queue and the candidate's phase-A timer, and phase A is a
        // no-op for a settled (or absent) candidate — exactly the
        // `is_terminated` condition. No RNG is drawn on that path, so a
        // skipped activation is indistinguishable from a run one.
        self.is_terminated()
    }
}

/// Evaluation of one leader-election execution against Definition 1 and
/// Theorem 4.1's guarantees.
#[derive(Clone, Debug)]
pub struct LeOutcome {
    /// Nodes that made themselves candidates.
    pub candidate_count: usize,
    /// Candidates alive at the end.
    pub alive_candidates: usize,
    /// Alive nodes whose status is `Elected`.
    pub elected_alive: Vec<NodeId>,
    /// All nodes (alive or crashed) whose status is `Elected`.
    pub elected_total: usize,
    /// The leader rank all alive candidates agree on, when they do.
    pub agreed_leader: Option<Rank>,
    /// Whether all alive candidates hold *some* leader belief.
    pub all_settled: bool,
    /// The elected node, when the election succeeded.
    pub leader_node: Option<NodeId>,
    /// Whether the elected node is in the adversary's faulty set (it may
    /// still be alive — faulty nodes may never crash).
    pub leader_is_faulty: bool,
    /// Whether the elected node had crashed by the end of the run.
    pub leader_crashed: bool,
    /// Definition-1 success: a unique elected node, consistent beliefs.
    pub success: bool,
}

impl LeOutcome {
    /// Scores a finished run.
    pub fn evaluate(result: &RunResult<LeNode>) -> LeOutcome {
        let candidate_count = result.states.iter().filter(|s| s.is_candidate()).count();
        let alive_candidates = result
            .surviving_states()
            .filter(|(_, s)| s.is_candidate())
            .count();

        let elected_alive: Vec<NodeId> = result
            .surviving_states()
            .filter(|(_, s)| s.status() == LeStatus::Elected)
            .map(|(id, _)| id)
            .collect();
        let elected_total = result
            .all_states()
            .filter(|(_, s)| s.status() == LeStatus::Elected)
            .count();

        // Beliefs of alive candidates.
        let beliefs: Vec<Option<Rank>> = result
            .surviving_states()
            .filter(|(_, s)| s.is_candidate())
            .map(|(_, s)| s.leader_belief())
            .collect();
        let all_settled = !beliefs.is_empty() && beliefs.iter().all(|b| b.is_some());
        let distinct: BTreeSet<Rank> = beliefs.iter().flatten().copied().collect();
        let agreed_leader = if all_settled && distinct.len() == 1 {
            distinct.first().copied()
        } else {
            None
        };

        // The elected node: the unique node (alive or crashed) whose
        // marked claim matches the agreed leader rank.
        let leader_node = agreed_leader.and_then(|l| {
            let holders: Vec<NodeId> = result
                .all_states()
                .filter(|(_, s)| s.status() == LeStatus::Elected && s.rank() == Some(l))
                .map(|(id, _)| id)
                .collect();
            (holders.len() == 1).then(|| holders[0])
        });

        // Definition 1: exactly one node ELECTED, everyone else
        // NON_ELECTED. We additionally require belief consistency among
        // alive candidates (the paper's correctness argument, Thm 4.1).
        let unique_elected = match (leader_node, elected_alive.len()) {
            (Some(ln), 0) => {
                // Leader crashed after election — allowed, as long as no
                // *alive* node also claims.
                result.crashed_at[ln.index()].is_some()
            }
            (Some(ln), 1) => elected_alive[0] == ln && elected_total == 1,
            _ => false,
        };
        let success = unique_elected && agreed_leader.is_some();

        let (leader_is_faulty, leader_crashed) = leader_node
            .map(|id| {
                (
                    result.faulty.contains(id),
                    result.crashed_at[id.index()].is_some(),
                )
            })
            .unwrap_or((false, false));

        LeOutcome {
            candidate_count,
            alive_candidates,
            elected_alive,
            elected_total,
            agreed_leader,
            all_settled,
            leader_node,
            leader_is_faulty,
            leader_crashed,
            success,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::adversary::{DeliveryFilter, FaultPlan, ScriptedCrash};
    use rand::prelude::*;
    use rand::rngs::SmallRng;
    use std::collections::BTreeMap;

    /// The referee's original forward schedule: one shared FIFO of
    /// `(destination, rank)` pairs, drained by a full walk that sends each
    /// port's first entry and requeues the rest. [`RefereeState`] must
    /// emit exactly these sends in exactly this order.
    #[derive(Default)]
    struct FifoReferee {
        candidates: Vec<Port>,
        rank_origin: BTreeMap<Rank, Port>,
        forward_queue: VecDeque<(Port, Rank)>,
    }

    impl FifoReferee {
        fn register(&mut self, from: Port, rank: Rank) {
            let is_new_port = !self.candidates.contains(&from);
            if is_new_port {
                let known: Vec<Rank> = self.rank_origin.keys().copied().collect();
                for k in known {
                    if self.rank_origin[&k] != from {
                        self.forward_queue.push_back((from, k));
                    }
                }
                self.candidates.push(from);
            }
            if !self.rank_origin.contains_key(&rank) {
                for &p in &self.candidates {
                    if p != from {
                        self.forward_queue.push_back((p, rank));
                    }
                }
                self.rank_origin.insert(rank, from);
            }
        }

        fn drain(&mut self) -> Vec<(Port, Rank)> {
            let mut sent = Vec::new();
            let mut used: BTreeSet<Port> = BTreeSet::new();
            let mut requeue: VecDeque<(Port, Rank)> = VecDeque::new();
            while let Some((port, rank)) = self.forward_queue.pop_front() {
                if used.contains(&port) {
                    requeue.push_back((port, rank));
                } else {
                    used.insert(port);
                    sent.push((port, rank));
                }
            }
            self.forward_queue = requeue;
            sent
        }
    }

    #[test]
    fn per_slot_queues_replay_the_single_fifo_schedule() {
        // Random register sequences from a small port pool and a small
        // rank pool, spread over several rounds with a drain after each,
        // so that new ports, repeat registers from a known port, one rank
        // from two ports and registers after forwarding started (what a
        // tampered extra sender causes) all occur. Every round's sends
        // must match the reference, until both are empty.
        let (mut new_ports, mut repeats, mut collisions, mut late) = (0, 0, 0, 0);
        for case in 0..400u64 {
            let mut rng = SmallRng::seed_from_u64(case);
            let mut fifo = FifoReferee::default();
            let mut slots = RefereeState::default();
            let ports = rng.random_range(1..=12u32);
            let rank_pool = rng.random_range(1..=16u64);
            let register_rounds = rng.random_range(1..=8u32);
            let mut forwarded = false;
            for round in 0.. {
                if round < register_rounds {
                    for _ in 0..rng.random_range(0..=4u32) {
                        let from = Port(rng.random_range(0..ports));
                        let rank = Rank(rng.random_range(1..=rank_pool));
                        if fifo.candidates.contains(&from) {
                            repeats += 1;
                        } else {
                            new_ports += 1;
                        }
                        if fifo.rank_origin.get(&rank).is_some_and(|&o| o != from) {
                            collisions += 1;
                        }
                        if forwarded {
                            late += 1;
                        }
                        fifo.register(from, rank);
                        slots.register(from, rank);
                    }
                }
                let want = fifo.drain();
                let mut got = Vec::new();
                slots.drain(|port, rank| got.push((port, rank)));
                assert_eq!(got, want, "case {case}, round {round}");
                assert_eq!(slots.pending, fifo.forward_queue.len(), "case {case}");
                forwarded |= !want.is_empty();
                if round >= register_rounds && want.is_empty() {
                    break;
                }
            }
            assert!(
                slots.queues.iter().all(|q| q.capacity() == 0),
                "case {case}: a drained slot kept its buffer"
            );
        }
        for (what, count) in [
            ("new ports", new_ports),
            ("repeat registers", repeats),
            ("rank collisions", collisions),
            ("registers after forwarding started", late),
        ] {
            assert!(count >= 50, "only {count} {what} generated");
        }
    }

    #[test]
    fn rank_set_matches_btreeset() {
        for case in 0..300u64 {
            let mut rng = SmallRng::seed_from_u64(case);
            let mut set = RankSet::default();
            let mut model: BTreeSet<Rank> = BTreeSet::new();
            let domain = rng.random_range(1..=64u64);
            for step in 0..200 {
                let r = Rank(rng.random_range(0..=domain));
                match rng.random_range(0..10u32) {
                    0..=3 => assert_eq!(set.insert(r), model.insert(r), "case {case}"),
                    4 => assert_eq!(set.remove(r), model.remove(&r), "case {case}"),
                    5 => assert_eq!(set.contains(r), model.contains(&r), "case {case}"),
                    6 => {
                        set.drop_below(r);
                        model = model.split_off(&r);
                    }
                    7 => assert_eq!(
                        set.at_or_above(r),
                        model.range(r..).next().copied(),
                        "case {case}"
                    ),
                    _ => assert_eq!(set.first(), model.first().copied(), "case {case}"),
                }
                assert!(
                    set.iter().eq(model.iter().copied()),
                    "case {case}, step {step}: {set:?} vs {model:?}"
                );
            }
        }
    }

    fn run_le(n: u32, alpha: f64, seed: u64, adv: &mut dyn Adversary<LeMsg>) -> RunResult<LeNode> {
        let params = Params::new(n, alpha).unwrap();
        let cfg = SimConfig::new(n)
            .seed(seed)
            .max_rounds(params.le_round_budget());
        run(&cfg, |_| LeNode::new(params.clone()), adv)
    }

    #[test]
    fn fault_free_elects_unique_leader() {
        for seed in 0..10 {
            let result = run_le(128, 1.0, seed, &mut NoFaults);
            let o = LeOutcome::evaluate(&result);
            assert!(o.success, "seed {seed}: {o:?}");
            assert_eq!(o.elected_alive.len(), 1);
            assert!(o.all_settled);
        }
    }

    #[test]
    fn survives_eager_mass_crash() {
        // Half the network crashes before sending anything.
        for seed in 0..10 {
            let mut adv = EagerCrash::new(64);
            let result = run_le(128, 0.5, seed, &mut adv);
            let o = LeOutcome::evaluate(&result);
            assert!(o.success, "seed {seed}: {o:?}");
        }
    }

    #[test]
    fn survives_random_mid_protocol_crashes() {
        for seed in 0..10 {
            let mut adv = RandomCrash::new(96, 40);
            let result = run_le(256, 0.5, seed, &mut adv);
            let o = LeOutcome::evaluate(&result);
            assert!(o.success, "seed {seed}: {o:?}");
        }
    }

    #[test]
    fn crashed_node_is_never_the_agreed_leader() {
        // Even when the leader crashes post-election, the agreed rank must
        // belong to a node that was alive when it claimed.
        for seed in 0..20 {
            let mut adv = RandomCrash::new(100, 60);
            let result = run_le(200, 0.5, seed, &mut adv);
            let o = LeOutcome::evaluate(&result);
            if !o.success {
                continue; // rare failures counted elsewhere
            }
            let leader = o.leader_node.unwrap();
            // The claim itself happened pre-crash by construction: the
            // node's own state says Elected, which only a live activation
            // can set.
            assert!(result.states[leader.index()].status() == LeStatus::Elected);
        }
    }

    #[test]
    fn message_complexity_is_sublinear_at_scale() {
        let n = 4096u32;
        let result = run_le(n, 1.0, 7, &mut NoFaults);
        let o = LeOutcome::evaluate(&result);
        assert!(o.success, "{o:?}");
        let msgs = result.metrics.msgs_sent as f64;
        // Theorem 4.1 bound with generous constant; must at least be o(n²)
        // and in practice well below n·log n at this size.
        let bound = Params::new(n, 1.0).unwrap().le_message_bound();
        assert!(
            msgs < 20.0 * bound,
            "messages {msgs} vs theoretical bound {bound}"
        );
    }

    #[test]
    fn scripted_crash_of_min_rank_candidate_recovers() {
        // Find the minimum-rank candidate of a seeded run, then re-run with
        // that node crashing right as iterations begin.
        let params = Params::new(128, 0.5).unwrap();
        let probe = run_le(128, 0.5, 11, &mut NoFaults);
        let min_cand = probe
            .all_states()
            .filter_map(|(id, s)| s.rank().map(|r| (r, id)))
            .min()
            .expect("some candidate")
            .1;
        let plan = FaultPlan::new().crash(
            min_cand,
            params.preprocess_rounds(),
            DeliveryFilter::KeepFirst(1),
        );
        let mut adv = ScriptedCrash::new(plan);
        let result = run_le(128, 0.5, 11, &mut adv);
        let o = LeOutcome::evaluate(&result);
        assert!(o.success, "{o:?}");
        assert_ne!(o.leader_node, Some(min_cand), "dead node won");
    }

    #[test]
    fn non_candidates_output_non_elected() {
        let result = run_le(64, 1.0, 3, &mut NoFaults);
        for (_, s) in result.all_states() {
            if !s.is_candidate() {
                assert_eq!(s.status(), LeStatus::NonElected);
            }
        }
    }

    #[test]
    fn terminates_well_before_round_budget() {
        let params = Params::new(256, 1.0).unwrap();
        let result = run_le(256, 1.0, 5, &mut NoFaults);
        assert!(
            result.metrics.rounds < params.le_round_budget() / 2,
            "took {} of {} rounds",
            result.metrics.rounds,
            params.le_round_budget()
        );
    }

    #[test]
    fn congest_per_edge_load_is_logarithmic() {
        let result = run_le(512, 1.0, 9, &mut NoFaults);
        // Largest per-edge-per-round load should be one message (≤ 100
        // bits), not a growing function of n.
        assert!(
            result.metrics.max_edge_bits_per_round <= 200,
            "edge load {}",
            result.metrics.max_edge_bits_per_round
        );
    }

    #[test]
    fn capped_run_metrics_replay_exactly() {
        // Regression: referee forwarding once iterated a HashMap to build
        // its forward queue, so the number of *attempted* sends varied
        // between identical runs. Delivered messages were unaffected, but
        // under a send cap the suppressed counter (and with edge failures
        // the lost counter) drifted. Every metric must replay bit-exact.
        let params = Params::new(256, 0.5).unwrap();
        let run_once = || {
            let cfg = SimConfig::new(256)
                .seed(0x8E)
                .max_rounds(params.le_round_budget())
                .send_cap(48)
                .edge_failure_prob(0.3);
            let mut adv = EagerCrash::new(params.max_faults());
            run(&cfg, |_| LeNode::new(params.clone()), &mut adv)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.metrics.msgs_sent, b.metrics.msgs_sent);
        assert_eq!(a.metrics.msgs_suppressed, b.metrics.msgs_suppressed);
        assert_eq!(a.metrics.msgs_lost_edges, b.metrics.msgs_lost_edges);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
        assert_eq!(a.metrics.bits_sent, b.metrics.bits_sent);
    }
}
