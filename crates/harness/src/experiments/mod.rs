//! The experiment suite (DESIGN.md §6).
//!
//! Each experiment is a function returning one or more [`Table`]s. `run`
//! dispatches by id; `all_ids` lists them in presentation order.

pub mod e10_replication_styles;
pub mod e11_adaptivity;
pub mod e12_packing;
pub mod e13_conformance;
pub mod e14_latency_breakdown;
pub mod e1_heartbeat;
pub mod e2_group_size;
pub mod e3_loss;
pub mod e4_clocks;
pub mod e5_membership;
pub mod e6_buffers;
pub mod e7_duplicates;
pub mod e8_end_to_end;
pub mod f1_stack;
pub mod f2_encapsulation;
pub mod f3_guarantees;

use crate::report::Table;

/// All experiment ids in presentation order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "f1", "f2", "f3", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e10", "e11", "e12",
        "e13", "e14",
    ]
}

/// Run one experiment by id.
pub fn run(id: &str) -> Option<Vec<Table>> {
    Some(match id {
        "f1" => f1_stack::run(),
        "f2" => f2_encapsulation::run(),
        "f3" => f3_guarantees::run(),
        "e1" => e1_heartbeat::run(),
        "e2" => e2_group_size::run(),
        "e3" => e3_loss::run(),
        "e4" => e4_clocks::run(),
        "e5" => e5_membership::run(),
        "e6" => e6_buffers::run(),
        "e7" => e7_duplicates::run(),
        "e8" => e8_end_to_end::run(),
        "e10" => e10_replication_styles::run(),
        "e11" => e11_adaptivity::run(),
        "e12" => e12_packing::run(),
        "e13" => e13_conformance::run(),
        "e14" => e14_latency_breakdown::run(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_id_is_none() {
        assert!(super::run("nope").is_none());
    }

    #[test]
    fn ids_are_unique() {
        let ids = super::all_ids();
        let set: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
    }
}
