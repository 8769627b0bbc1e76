//! Declarative hunt-portfolio specs.
//!
//! A [`HuntCellSpec`] is one adversary search — the exact arguments a
//! single `ftc hunt` invocation would take — and a [`HuntCampaignSpec`]
//! is the grid of them. Specs are data: JSON round-trippable, hashed with
//! the same FNV the lab store uses, so a named campaign's hash is stable
//! across machines and a committed record can be gated byte-for-byte.

use ftc_hunt::prelude::{Objective, ProtoKind, Strategy};
use ftc_lab::spec::fnv1a64;
use ftc_sim::json::{Json, JsonError};

/// One adversary search in a portfolio.
#[derive(Clone, Debug, PartialEq)]
pub struct HuntCellSpec {
    /// Row label (also the default series name in reports).
    pub label: String,
    /// Protocol under attack.
    pub proto: ProtoKind,
    /// What counts as a find.
    pub objective: Objective,
    /// Search strategy.
    pub strategy: Strategy,
    /// Network size.
    pub n: u32,
    /// Resilience parameter.
    pub alpha: f64,
    /// Agreement zero-input density (ignored for LE, recorded anyway).
    pub zeros: f64,
    /// Candidate schedules to evaluate.
    pub budget: u64,
    /// Probe seeds per candidate.
    pub probes: u64,
    /// Hunt seed (drives proposals and the probe panel).
    pub seed: u64,
    /// Also search socket-level wire faults; the cell then runs on the
    /// mesh, where the faults are actually injected.
    pub wire: bool,
}

impl HuntCellSpec {
    /// JSON encoding (deterministic key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("proto".into(), Json::Str(self.proto.name().into())),
            ("objective".into(), Json::Str(self.objective.name().into())),
            ("strategy".into(), Json::Str(self.strategy.name().into())),
            ("n".into(), Json::UInt(u64::from(self.n))),
            ("alpha".into(), Json::Num(self.alpha)),
            ("zeros".into(), Json::Num(self.zeros)),
            ("budget".into(), Json::UInt(self.budget)),
            ("probes".into(), Json::UInt(self.probes)),
            ("seed".into(), Json::UInt(self.seed)),
            ("wire".into(), Json::Bool(self.wire)),
        ])
    }

    /// Decodes from the [`HuntCellSpec::to_json`] form.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let err = |message: String| JsonError { message };
        Ok(HuntCellSpec {
            label: v.field("label")?.as_str()?.to_string(),
            proto: ProtoKind::parse(v.field("proto")?.as_str()?).map_err(err)?,
            objective: Objective::parse(v.field("objective")?.as_str()?).map_err(err)?,
            strategy: Strategy::parse(v.field("strategy")?.as_str()?).map_err(err)?,
            n: v.field("n")?.as_u64()? as u32,
            alpha: v.field("alpha")?.as_f64()?,
            zeros: v.field("zeros")?.as_f64()?,
            budget: v.field("budget")?.as_u64()?,
            probes: v.field("probes")?.as_u64()?,
            seed: v.field("seed")?.as_u64()?,
            wire: v.field("wire")?.as_bool()?,
        })
    }
}

/// A named portfolio of adversary searches.
#[derive(Clone, Debug, PartialEq)]
pub struct HuntCampaignSpec {
    /// Campaign name (prefix of the stored record id).
    pub name: String,
    /// The searches, run in order.
    pub cells: Vec<HuntCellSpec>,
}

impl HuntCampaignSpec {
    /// A new empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        HuntCampaignSpec {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    /// Adds a cell (builder style).
    #[must_use]
    pub fn cell(mut self, cell: HuntCellSpec) -> Self {
        self.cells.push(cell);
        self
    }

    /// JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(HuntCellSpec::to_json).collect()),
            ),
        ])
    }

    /// Decodes from the [`HuntCampaignSpec::to_json`] form.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(HuntCampaignSpec {
            name: v.field("name")?.as_str()?.to_string(),
            cells: v
                .field("cells")?
                .as_arr()?
                .iter()
                .map(HuntCellSpec::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Content hash of the spec (same FNV-1a the lab store uses).
    pub fn hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.to_json().render().as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HuntCampaignSpec {
        HuntCampaignSpec::new("unit").cell(HuntCellSpec {
            label: "le-failure-random".into(),
            proto: ProtoKind::Le,
            objective: Objective::Failure,
            strategy: Strategy::Random,
            n: 16,
            alpha: 0.5,
            zeros: 0.05,
            budget: 8,
            probes: 2,
            seed: 11,
            wire: false,
        })
    }

    #[test]
    fn specs_round_trip_and_hash_stably() {
        let spec = sample();
        let back =
            HuntCampaignSpec::from_json(&Json::parse(&spec.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.hash(), spec.hash());
        // Any content change moves the hash.
        let mut other = spec.clone();
        other.cells[0].budget = 9;
        assert_ne!(other.hash(), spec.hash());
        let mut wired = spec.clone();
        wired.cells[0].wire = true;
        assert_ne!(wired.hash(), spec.hash());
    }

    #[test]
    fn malformed_cells_are_rejected() {
        let bad = r#"{"name":"x","cells":[{"label":"a","proto":"nope","objective":"failure","strategy":"random","n":16,"alpha":0.5,"zeros":0.0,"budget":1,"probes":1,"seed":1,"wire":false}]}"#;
        assert!(HuntCampaignSpec::from_json(&Json::parse(bad).unwrap()).is_err());
    }
}
