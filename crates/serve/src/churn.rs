//! Node churn for the long-lived service.
//!
//! Between elections the service crashes nodes (the sitting leader plus
//! deterministic bystanders) and lets them rejoin a fixed number of heights
//! later. Because every height runs on a fresh mesh, a "down" node is
//! simply scheduled to crash at round 0 of each election it sits out — the
//! per-height [`FaultPlan`] is the entire churn mechanism, so the engine
//! and the mesh see byte-identical schedules.

use ftc_sim::prelude::{DeliveryFilter, FaultPlan, NodeId};

/// The churn policy of a service run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Crash the sitting leader after every this-many successful heights
    /// (`0` disables churn entirely).
    pub kill_leader_every: u32,
    /// Additional non-leader nodes crashed alongside the leader at each
    /// churn event.
    pub bystanders: u32,
    /// Heights a downed node sits out before rejoining (`0` = never
    /// rejoins; the down-set only grows).
    pub rejoin_after: u32,
}

impl ChurnPlan {
    /// No churn: every node stays up for the whole run.
    pub fn none() -> Self {
        ChurnPlan {
            kill_leader_every: 0,
            bystanders: 0,
            rejoin_after: 0,
        }
    }

    /// Whether this plan ever crashes anybody.
    pub fn is_none(&self) -> bool {
        self.kill_leader_every == 0
    }
}

impl Default for ChurnPlan {
    fn default() -> Self {
        ChurnPlan::none()
    }
}

/// The set of currently-down nodes, with the height each went down at.
#[derive(Clone, Debug, Default)]
pub struct ChurnState {
    down: Vec<(NodeId, u32)>,
}

impl ChurnState {
    /// An empty down-set.
    pub fn new() -> Self {
        ChurnState::default()
    }

    /// Releases every node whose outage has lasted `rejoin_after` heights
    /// by the start of `height`, returning the rejoiners. A plan with
    /// `rejoin_after == 0` never releases.
    pub fn release(&mut self, plan: &ChurnPlan, height: u32) -> Vec<NodeId> {
        if plan.rejoin_after == 0 {
            return Vec::new();
        }
        let mut rejoined = Vec::new();
        self.down.retain(|&(node, went_down)| {
            if height - went_down >= plan.rejoin_after {
                rejoined.push(node);
                false
            } else {
                true
            }
        });
        rejoined
    }

    /// Whether `node` is currently down.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.iter().any(|&(d, _)| d == node)
    }

    /// How many nodes are currently down.
    pub fn down_count(&self) -> usize {
        self.down.len()
    }

    /// Takes `node` down starting at `height`. No-op if already down.
    pub fn crash(&mut self, node: NodeId, height: u32) {
        if !self.is_down(node) {
            self.down.push((node, height));
        }
    }

    /// The fault plan a single height runs under: every down node crashes
    /// at round 0 with all its messages dropped, i.e. it simply does not
    /// participate in this election.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for &(node, _) in &self.down {
            plan = plan.crash(node, 0, DeliveryFilter::DropAll);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn down_nodes_rejoin_after_the_configured_outage() {
        let plan = ChurnPlan {
            kill_leader_every: 1,
            bystanders: 0,
            rejoin_after: 3,
        };
        let mut state = ChurnState::new();
        state.crash(NodeId(4), 2);
        state.crash(NodeId(9), 3);
        assert!(state.is_down(NodeId(4)));
        assert_eq!(state.fault_plan().entries().len(), 2);

        assert!(state.release(&plan, 4).is_empty());
        assert_eq!(state.release(&plan, 5), vec![NodeId(4)]);
        assert_eq!(state.release(&plan, 6), vec![NodeId(9)]);
        assert_eq!(state.down_count(), 0);
        assert!(state.fault_plan().is_empty());
    }

    #[test]
    fn zero_rejoin_means_permanent_crashes() {
        let plan = ChurnPlan {
            kill_leader_every: 1,
            bystanders: 0,
            rejoin_after: 0,
        };
        let mut state = ChurnState::new();
        state.crash(NodeId(1), 0);
        assert!(state.release(&plan, 100).is_empty());
        assert!(state.is_down(NodeId(1)));
    }

    #[test]
    fn crashing_twice_is_idempotent() {
        let mut state = ChurnState::new();
        state.crash(NodeId(7), 1);
        state.crash(NodeId(7), 5);
        assert_eq!(state.down_count(), 1);
        // The original outage height is kept.
        let plan = ChurnPlan {
            kill_leader_every: 1,
            bystanders: 0,
            rejoin_after: 2,
        };
        assert_eq!(state.release(&plan, 3), vec![NodeId(7)]);
    }
}
