//! A superset-X-canceling-style baseline (approximating the paper's
//! references \[17, 18\]) for the backend fleet and the ablation benches.
//!
//! The two Table-1 baselines need no module of their own: conventional
//! X-masking \[5\] is [`xhc_misr::conventional_masking_bits`] and the
//! X-canceling MISR alone \[12\] is [`XCancelConfig::control_bits`].

use std::collections::HashSet;
use xhc_misr::XCancelConfig;
use xhc_scan::XMap;

/// Configuration for the superset-X-canceling-style baseline
/// (approximating the paper's references \[17, 18\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupersetConfig {
    /// The MISR (m, q) configuration.
    pub cancel: XCancelConfig,
    /// A pattern joins a cluster when the cluster's X-cell union grows by
    /// at most `merge_slack × |pattern's X cells|` new cells (0.0 = only
    /// identical-or-subset merges; larger = more aggressive merging and
    /// more lost observability).
    pub merge_slack: f64,
}

/// The result of the superset-X-canceling baseline: the greedy
/// clustering and what it costs.
///
/// Unlike the paper's proposed method, merging a pattern whose X set is a
/// *proper subset* of the cluster union treats some of its non-X values as
/// X — `lost_observability` counts those positions, which is exactly why
/// \[17, 18\] need iterative fault simulation and the proposed method does
/// not.
#[derive(Debug, Clone, PartialEq)]
pub struct SupersetClusters {
    /// Which cluster each pattern joined (`None` for X-free patterns,
    /// which need no canceling at all).
    pub cluster_of: Vec<Option<usize>>,
    /// Each cluster's canceling control bits (for its X-cell union).
    pub cluster_bits: Vec<f64>,
    /// Each cluster's member count.
    pub cluster_members: Vec<usize>,
    /// Total selective-XOR control bits (one set per cluster), times
    /// 1000 and rounded.
    pub control_bits_x1000: u128,
    /// Non-X response bits whose observability is sacrificed by merging.
    pub lost_observability: usize,
}

impl SupersetClusters {
    /// Number of pattern clusters sharing control data.
    pub fn clusters(&self) -> usize {
        self.cluster_bits.len()
    }

    /// Total control bits as a float.
    pub fn control_bits(&self) -> f64 {
        self.control_bits_x1000 as f64 / 1000.0
    }
}

/// Runs the superset-X-canceling-style baseline.
///
/// This is a faithful-in-spirit re-implementation of the *accounting* of
/// \[17, 18\]: patterns are greedily clustered by X-location similarity; each
/// cluster's selective-XOR control data is computed once for the union of
/// its X locations and reused by every member pattern. It is documented as
/// an approximation in `DESIGN.md` (the original's exact merge heuristic is
/// not published in the DAC'16 paper).
pub fn superset_canceling(xmap: &XMap, config: SupersetConfig) -> SupersetClusters {
    // Invert the map: X-cell set per pattern.
    let mut per_pattern: Vec<Vec<usize>> = vec![Vec::new(); xmap.num_patterns()];
    for (cell, xs) in xmap.iter() {
        let idx = xmap.config().linear_index(cell);
        for p in xs.iter() {
            per_pattern[p].push(idx);
        }
    }

    struct Cluster {
        union: HashSet<usize>,
        members: usize,
    }
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut lost = 0usize;
    let mut cluster_of: Vec<Option<usize>> = vec![None; xmap.num_patterns()];

    for (pattern, xcells) in per_pattern.iter().enumerate() {
        if xcells.is_empty() {
            // An X-free pattern needs no canceling at all; it joins a
            // virtual free cluster.
            continue;
        }
        // Find the cluster whose union grows least.
        let mut best: Option<(usize, usize)> = None; // (cluster idx, growth)
        for (ci, cluster) in clusters.iter().enumerate() {
            let growth = xcells.iter().filter(|c| !cluster.union.contains(c)).count();
            if best.is_none_or(|(_, g)| growth < g) {
                best = Some((ci, growth));
            }
        }
        let budget = (config.merge_slack * xcells.len() as f64).floor() as usize;
        match best {
            Some((ci, growth)) if growth <= budget => {
                let cluster = &mut clusters[ci];
                // This pattern loses the union positions where it is
                // non-X; every existing member retroactively loses the
                // `growth` newly-added cells (none were in any member's
                // X set, by construction of the union).
                lost += cluster.union.len() + growth - xcells.len();
                lost += growth * cluster.members;
                cluster.union.extend(xcells.iter().copied());
                cluster.members += 1;
                cluster_of[pattern] = Some(ci);
            }
            _ => {
                clusters.push(Cluster {
                    union: xcells.iter().copied().collect(),
                    members: 1,
                });
                cluster_of[pattern] = Some(clusters.len() - 1);
            }
        }
    }

    let mut control_bits = 0.0f64;
    let mut cluster_bits = Vec::with_capacity(clusters.len());
    for cluster in &clusters {
        let bits = config.cancel.control_bits(cluster.union.len());
        cluster_bits.push(bits);
        control_bits += bits;
    }
    SupersetClusters {
        cluster_of,
        cluster_bits,
        cluster_members: clusters.iter().map(|c| c.members).collect(),
        control_bits_x1000: (control_bits * 1000.0).round() as u128,
        lost_observability: lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_bits::PatternSet;
    use xhc_scan::{CellId, ScanConfig, XMapBuilder};

    fn map_with(sets: &[(usize, &[usize])], patterns: usize) -> XMap {
        // sets: (cell linear index on a 1-chain config, pattern list)
        let cells = sets.iter().map(|&(c, _)| c).max().unwrap_or(0) + 1;
        let cfg = ScanConfig::uniform(1, cells);
        let mut b = XMapBuilder::new(cfg, patterns);
        for &(c, pats) in sets {
            b.add_xset(
                CellId::new(0, c),
                &PatternSet::from_patterns(patterns, pats.iter().copied()),
            );
        }
        b.finish()
    }

    #[test]
    fn identical_x_patterns_share_one_cluster() {
        // 4 patterns, all with the same two X cells -> one cluster, no
        // lost observability.
        let xmap = map_with(&[(0, &[0, 1, 2, 3]), (1, &[0, 1, 2, 3])], 4);
        let report = superset_canceling(
            &xmap,
            SupersetConfig {
                cancel: XCancelConfig::new(10, 2),
                merge_slack: 0.0,
            },
        );
        assert_eq!(report.clusters(), 1);
        assert_eq!(report.lost_observability, 0);
        // One cluster with |union| = 2 -> 10*2*2/8 = 5 bits; vs canceling
        // only: 8 X's -> 20 bits.
        assert!((report.control_bits() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_x_patterns_do_not_merge_at_zero_slack() {
        let xmap = map_with(&[(0, &[0]), (1, &[1]), (2, &[2])], 3);
        let report = superset_canceling(
            &xmap,
            SupersetConfig {
                cancel: XCancelConfig::new(10, 2),
                merge_slack: 0.0,
            },
        );
        assert_eq!(report.clusters(), 3);
        assert_eq!(report.lost_observability, 0);
    }

    #[test]
    fn slack_merges_at_observability_cost() {
        // Pattern 0 has X in cells {0,1}; pattern 1 in {0,2}. With slack 1
        // they merge; pattern 1 loses cell 1's value, union grows by 1.
        let xmap = map_with(&[(0, &[0, 1]), (1, &[0]), (2, &[1])], 2);
        let report = superset_canceling(
            &xmap,
            SupersetConfig {
                cancel: XCancelConfig::new(10, 2),
                merge_slack: 0.5,
            },
        );
        assert_eq!(report.clusters(), 1);
        assert!(report.lost_observability > 0);
    }

    #[test]
    fn x_free_patterns_cost_nothing() {
        let xmap = map_with(&[(0, &[1])], 5);
        let report = superset_canceling(
            &xmap,
            SupersetConfig {
                cancel: XCancelConfig::new(10, 2),
                merge_slack: 0.0,
            },
        );
        assert_eq!(report.clusters(), 1);
        assert!((report.control_bits() - 2.5).abs() < 1e-6);
    }
}
