//! Named hunt-portfolio registry.
//!
//! `ftc hunt portfolio run <name>` and CI resolve portfolio names here.
//! Builders are pure functions of their arguments, so a named portfolio's
//! spec hash is stable across machines — which is what lets the committed
//! record in `results/store/` gate a fresh run byte-for-byte.

use ftc_hunt::prelude::{Objective, ProtoKind, Strategy};
use ftc_lab::spec::fnv1a64;

use crate::spec::{HuntCampaignSpec, HuntCellSpec};

/// Seed base for the committed portfolio (never change it without
/// regenerating `results/store/`).
pub const CHAOS_SEED: u64 = 0xC4A0;

/// All registry names, for `ftc hunt portfolio run --help`.
pub fn names() -> &'static [&'static str] {
    &["adversary-portfolio"]
}

/// Resolves a named portfolio at the given scale.
pub fn named(name: &str, smoke: bool) -> Option<HuntCampaignSpec> {
    match name {
        "adversary-portfolio" => Some(adversary_portfolio(smoke)),
        _ => None,
    }
}

/// Every objective each protocol can be hunted under in a single-shot
/// portfolio (`two-leaders-at-height` is the serve-context variant of
/// `two-leaders`, so it is deliberately absent).
fn objectives(proto: ProtoKind) -> &'static [Objective] {
    match proto {
        ProtoKind::Le => &[
            Objective::TwoLeaders,
            Objective::Failure,
            Objective::MaxMessages,
            Objective::MaxRounds,
        ],
        ProtoKind::Agree => &[
            Objective::Disagreement,
            Objective::Failure,
            Objective::MaxMessages,
            Objective::MaxRounds,
        ],
    }
}

/// The full search portfolio: every strategy × every supported objective
/// × both protocols, plus one wire-fault cell per protocol that runs the
/// same search through the socket-level fault injector on the mesh.
/// Smoke scale is CI-sized (n=16, budget 32); full scale is
/// the nightly workload (n=64, budget 256).
pub fn adversary_portfolio(smoke: bool) -> HuntCampaignSpec {
    let (n, budget, probes) = if smoke { (16, 32, 2) } else { (64, 256, 3) };
    let wire_budget = if smoke { 16 } else { 64 };
    let mut spec = HuntCampaignSpec::new("adversary-portfolio");
    for proto in [ProtoKind::Le, ProtoKind::Agree] {
        for &objective in objectives(proto) {
            for strategy in [Strategy::Random, Strategy::Guided, Strategy::Anneal] {
                let label = format!("{}-{}-{}", proto.name(), objective.name(), strategy.name());
                let seed = CHAOS_SEED ^ fnv1a64(label.as_bytes());
                spec = spec.cell(HuntCellSpec {
                    label,
                    proto,
                    objective,
                    strategy,
                    n,
                    alpha: 0.5,
                    zeros: 0.05,
                    budget,
                    probes,
                    seed,
                    wire: false,
                });
            }
        }
    }
    // Wire-fault cells: the cost objectives always yield a champion, so
    // these always commit a wire plan worth replaying on sockets.
    for proto in [ProtoKind::Le, ProtoKind::Agree] {
        let label = format!("{}-wire-anneal", proto.name());
        let seed = CHAOS_SEED ^ fnv1a64(label.as_bytes());
        spec = spec.cell(HuntCellSpec {
            label,
            proto,
            objective: Objective::MaxMessages,
            strategy: Strategy::Anneal,
            n,
            alpha: 0.5,
            zeros: 0.05,
            budget: wire_budget,
            probes,
            seed,
            wire: true,
        });
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_name_resolves_at_both_scales() {
        for &name in names() {
            for smoke in [false, true] {
                let spec = named(name, smoke).unwrap();
                assert_eq!(spec.name, name);
                assert!(!spec.cells.is_empty());
            }
        }
        assert!(named("nope", true).is_none());
    }

    #[test]
    fn the_portfolio_spans_the_full_grid() {
        let spec = adversary_portfolio(true);
        // 2 protocols × 4 objectives × 3 strategies + 2 wire cells.
        assert_eq!(spec.cells.len(), 26);
        let labels: HashSet<&str> = spec.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.len(), spec.cells.len(), "labels are distinct");
        let seeds: HashSet<u64> = spec.cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), spec.cells.len(), "seeds are distinct");
        for strategy in ["random", "guided", "anneal"] {
            assert!(labels.contains(format!("le-failure-{strategy}").as_str()));
            assert!(labels.contains(format!("agree-disagreement-{strategy}").as_str()));
        }
        assert!(labels.contains("le-wire-anneal"));
        assert!(labels.contains("agree-wire-anneal"));
        // Every cell's objective actually supports its protocol.
        for cell in &spec.cells {
            assert!(cell.objective.supports(cell.proto), "{}", cell.label);
        }
    }

    #[test]
    fn scales_differ_and_hashes_are_reproducible() {
        assert_ne!(
            adversary_portfolio(true).hash(),
            adversary_portfolio(false).hash()
        );
        assert_eq!(
            adversary_portfolio(true).hash(),
            adversary_portfolio(true).hash()
        );
    }

    #[test]
    fn specs_survive_json_round_trip() {
        for smoke in [false, true] {
            let spec = adversary_portfolio(smoke);
            let back = HuntCampaignSpec::from_json(
                &ftc_sim::json::Json::parse(&spec.to_json().render()).unwrap(),
            )
            .unwrap();
            assert_eq!(back.hash(), spec.hash());
        }
    }
}
