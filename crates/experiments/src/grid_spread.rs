//! **Grid-spread scalability** — §3.1's claim beyond Figure 3-1: "our
//! experimental results show that the messages can be disseminated
//! explosively fast among the tiles of the NoC for this \[grid\] topology
//! as well", and §4.1's "the gossip algorithms are known to scale
//! extremely well even beyond these dimensions".
//!
//! For growing grids, measures the rounds until a broadcast informs
//! every tile and compares the growth against the fully-connected
//! `S_n = log2 n + ln n` landmark and against the grid diameter (the
//! flooding lower bound).

use noc_fabric::{NodeId, Topology};
use stochastic_noc::{spread, SimulationBuilder, StochasticConfig};

use crate::stats::mean;
use crate::{Scale, TrialRunner};

/// One grid size's spread measurements.
#[derive(Debug, Clone)]
pub struct GridSpreadRow {
    /// Grid side (tiles = side²).
    pub side: usize,
    /// Network diameter (flooding's full-coverage bound).
    pub diameter: usize,
    /// Mean rounds to inform every tile under flooding.
    pub flooding_rounds: f64,
    /// Mean rounds to inform every tile at `p = 0.5`.
    pub gossip_rounds: Option<f64>,
    /// The fully-connected `S_n` landmark for the same node count.
    pub s_n: f64,
}

fn rounds_to_full_coverage(topology: &Topology, p: f64, seed: u64) -> Option<u64> {
    let n = topology.node_count();
    let ttl = (4 * topology.diameter().expect("connected")).max(16) as u8;
    let mut sim = SimulationBuilder::new(topology.clone())
        .config(
            StochasticConfig::new(p, ttl.min(120))
                .expect("valid")
                .with_max_rounds(400),
        )
        .seed(seed)
        .build();
    let corner = NodeId(0);
    let opposite = NodeId(n - 1);
    let id = sim.inject(corner, opposite, vec![0xAA; 8]);
    for _ in 0..400u64 {
        let stats = sim.step();
        if sim.informed_count(id) == n {
            // stats.round is the round just executed; a tile at hop
            // distance d learns the message during round d.
            return Some(stats.round);
        }
    }
    None
}

/// Runs the scalability sweep.
pub fn run(scale: Scale) -> Vec<GridSpreadRow> {
    let sides: Vec<usize> = match scale {
        Scale::Quick => vec![4, 6, 8],
        Scale::Full => vec![4, 6, 8, 12, 16],
    };
    let reps = scale.repetitions();
    sides
        .into_iter()
        .map(|side| {
            let topology = Topology::grid(side, side);
            let diameter = topology.diameter().expect("connected");
            let flood: Vec<f64> =
                TrialRunner::for_figure(&format!("grid-spread/flood/{side}"), reps)
                    .run(|seed| rounds_to_full_coverage(&topology, 1.0, seed))
                    .into_iter()
                    .flatten()
                    .map(|r| r as f64)
                    .collect();
            let gossip: Vec<f64> =
                TrialRunner::for_figure(&format!("grid-spread/gossip/{side}"), reps)
                    .run(|seed| rounds_to_full_coverage(&topology, 0.5, seed))
                    .into_iter()
                    .flatten()
                    .map(|r| r as f64)
                    .collect();
            GridSpreadRow {
                side,
                diameter,
                flooding_rounds: mean(&flood).expect("flooding always covers"),
                gossip_rounds: mean(&gossip),
                s_n: spread::rounds_to_inform_all(side * side),
            }
        })
        .collect()
}

/// Prints the scalability table.
pub fn print(rows: &[GridSpreadRow]) {
    crate::stats::print_table_header(
        "Grid spread scalability: rounds to inform every tile",
        &[
            "side",
            "tiles",
            "diameter",
            "flooding",
            "gossip p=0.5",
            "S_n (full graph)",
        ],
    );
    for r in rows {
        println!(
            "{}\t{}\t{}\t{:.1}\t{}\t{:.1}",
            r.side,
            r.side * r.side,
            r.diameter,
            r.flooding_rounds,
            r.gossip_rounds
                .map_or("-".to_string(), |g| format!("{g:.1}")),
            r.s_n
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flooding_covers_in_exactly_the_diameter() {
        let rows = run(Scale::Quick);
        for r in &rows {
            assert_eq!(
                r.flooding_rounds, r.diameter as f64,
                "side {}: flooding {} vs diameter {}",
                r.side, r.flooding_rounds, r.diameter
            );
        }
    }

    #[test]
    fn gossip_overhead_over_flooding_is_bounded() {
        // "Explosively fast": p = 0.5 stays within a small constant
        // factor of the flooding optimum at every size.
        let rows = run(Scale::Quick);
        for r in &rows {
            let gossip = r.gossip_rounds.expect("p=0.5 covers the grid");
            let factor = gossip / r.flooding_rounds;
            assert!(factor < 3.5, "side {}: gossip {}x flooding", r.side, factor);
        }
    }

    #[test]
    fn growth_is_sublinear_in_tile_count() {
        let rows = run(Scale::Quick);
        let first = &rows[0];
        let last = rows.last().unwrap();
        let tiles_ratio = (last.side * last.side) as f64 / (first.side * first.side) as f64;
        let rounds_ratio = last.gossip_rounds.unwrap() / first.gossip_rounds.unwrap();
        assert!(
            rounds_ratio < tiles_ratio / 1.5,
            "rounds grew {rounds_ratio:.1}x for {tiles_ratio:.1}x tiles"
        );
    }
}
