//! The hybrid X-masking / X-canceling architecture, end to end.

use crate::partition::{CellSelection, PartitionEngine, PartitionOutcome};
use xhc_logic::Trit;
use xhc_misr::{conventional_masking_bits, XCancelConfig};
use xhc_scan::{ResponseMatrix, XMap};

/// A full evaluation of the proposed hybrid against both baselines on one
/// workload — one row of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct HybridReport {
    /// Scan cells in the design.
    pub total_cells: usize,
    /// Scan chains.
    pub num_chains: usize,
    /// Patterns applied.
    pub num_patterns: usize,
    /// Total X's in the responses.
    pub total_x: usize,
    /// X-density of the raw responses.
    pub x_density: f64,
    /// The partitioning outcome (partitions, masks, cost trace).
    pub outcome: PartitionOutcome,
    /// Baseline \[5\]: conventional per-pattern X-masking control bits.
    pub masking_only_bits: u128,
    /// Baseline \[12\]: X-canceling-MISR-only control bits.
    pub canceling_only_bits: f64,
    /// The proposed method's total control bits.
    pub proposed_bits: f64,
    /// Control-bit improvement over X-masking only.
    pub impv_over_masking: f64,
    /// Control-bit improvement over X-canceling only.
    pub impv_over_canceling: f64,
    /// Normalized test time of X-canceling only (per the §5 formula).
    pub time_canceling_only: f64,
    /// Normalized test time of the proposed hybrid (residual X-density).
    pub time_proposed: f64,
    /// Test-time improvement of the hybrid over X-canceling only.
    pub time_impv: f64,
}

/// Evaluates the hybrid architecture on an X map: runs the partitioning
/// engine and fills in every Table-1 column.
///
/// # Examples
///
/// ```
/// use xhc_core::{evaluate_hybrid, CellSelection};
/// use xhc_misr::XCancelConfig;
/// use xhc_scan::{CellId, ScanConfig, XMapBuilder};
///
/// let cfg = ScanConfig::uniform(5, 3);
/// let mut b = XMapBuilder::new(cfg, 8);
/// for p in [0, 3, 4, 5] { b.add_x(CellId::new(0, 0), p).unwrap(); }
/// let xmap = b.finish();
///
/// let report = evaluate_hybrid(&xmap, XCancelConfig::new(10, 2), CellSelection::First);
/// assert!(report.proposed_bits <= report.masking_only_bits as f64);
/// assert!(report.impv_over_masking >= 1.0);
/// ```
pub fn evaluate_hybrid(xmap: &XMap, cancel: XCancelConfig, policy: CellSelection) -> HybridReport {
    let opts = crate::PlanOptions {
        policy,
        ..crate::PlanOptions::default()
    };
    let outcome = PartitionEngine::with_options(cancel, opts).run(xmap);
    report_for_outcome(xmap, cancel, outcome)
}

/// Builds a [`HybridReport`] for an already-computed partitioning outcome
/// (used by the ablation benches to compare engine variants).
pub fn report_for_outcome(
    xmap: &XMap,
    cancel: XCancelConfig,
    outcome: PartitionOutcome,
) -> HybridReport {
    let total_cells = xmap.config().total_cells();
    let num_chains = xmap.config().num_chains();
    let num_patterns = xmap.num_patterns();
    let total_x = xmap.total_x();
    let bits = total_cells as f64 * num_patterns as f64;
    let x_density = if bits > 0.0 {
        total_x as f64 / bits
    } else {
        0.0
    };

    let masking_only = conventional_masking_bits(xmap.config(), num_patterns);
    let canceling_only = cancel.control_bits(total_x);
    let proposed = outcome.cost.total();

    let residual_density = if bits > 0.0 {
        outcome.cost.leaked_x as f64 / bits
    } else {
        0.0
    };
    let time_canceling_only = cancel.normalized_test_time(num_chains, x_density);
    let time_proposed = cancel.normalized_test_time(num_chains, residual_density);

    HybridReport {
        total_cells,
        num_chains,
        num_patterns,
        total_x,
        x_density,
        masking_only_bits: masking_only,
        canceling_only_bits: canceling_only,
        proposed_bits: proposed,
        impv_over_masking: masking_only as f64 / proposed.max(f64::MIN_POSITIVE),
        impv_over_canceling: canceling_only / proposed.max(f64::MIN_POSITIVE),
        time_canceling_only,
        time_proposed,
        time_impv: time_canceling_only / time_proposed,
        outcome,
    }
}

/// Applies the per-partition masks of an outcome to captured responses,
/// producing the stream the X-canceling MISR actually sees.
///
/// Masked positions read as `0` (AND gating). X's surviving in the output
/// are exactly the outcome's `leaked_x`.
///
/// # Panics
///
/// Panics if the response matrix and the outcome disagree on shape, or if
/// a pattern belongs to no partition.
pub fn apply_partition_masks(
    responses: &ResponseMatrix,
    outcome: &PartitionOutcome,
) -> ResponseMatrix {
    let config = responses.config().clone();
    let cells = config.total_cells();
    let mut rows: Vec<Vec<Trit>> = Vec::with_capacity(responses.num_patterns());
    for p in 0..responses.num_patterns() {
        let part = outcome
            .partitions
            .iter()
            .position(|set| set.contains(p))
            .unwrap_or_else(|| panic!("pattern {p} belongs to no partition"));
        let mask = &outcome.masks[part];
        let row: Vec<Trit> = (0..cells).map(|c| responses.get_linear(p, c)).collect();
        rows.push(mask.apply(&row));
    }
    ResponseMatrix::from_rows(config, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_scan::{CellId, ScanConfig, XMapBuilder};

    fn fig4_xmap() -> XMap {
        let cfg = ScanConfig::uniform(5, 3);
        let mut b = XMapBuilder::new(cfg, 8);
        for p in [0, 3, 4, 5] {
            b.add_x(CellId::new(0, 0), p).unwrap();
            b.add_x(CellId::new(1, 0), p).unwrap();
            b.add_x(CellId::new(2, 0), p).unwrap();
        }
        for p in [0, 4] {
            b.add_x(CellId::new(1, 2), p).unwrap();
        }
        for p in [0, 1, 2, 3, 4, 6, 7] {
            b.add_x(CellId::new(3, 2), p).unwrap();
        }
        for p in [0, 1, 3, 4, 6, 7] {
            b.add_x(CellId::new(4, 1), p).unwrap();
        }
        b.add_x(CellId::new(4, 2), 5).unwrap();
        b.finish()
    }

    fn fig4_responses() -> ResponseMatrix {
        // Concrete responses consistent with the Fig. 4 X map: X where the
        // map says X, a deterministic 0/1 elsewhere.
        let xmap = fig4_xmap();
        let cfg = xmap.config().clone();
        let mut m = ResponseMatrix::filled(cfg.clone(), 8, Trit::Zero);
        for p in 0..8 {
            for idx in 0..cfg.total_cells() {
                let cell = cfg.cell_at(idx);
                let v = if xmap.is_x(p, cell) {
                    Trit::X
                } else {
                    Trit::from_bool((p + idx) % 2 == 0)
                };
                m.set(p, cell, v);
            }
        }
        m
    }

    #[test]
    fn report_matches_fig6_numbers() {
        let xmap = fig4_xmap();
        let r = evaluate_hybrid(&xmap, XCancelConfig::new(10, 2), CellSelection::First);
        assert_eq!(r.total_x, 28);
        assert_eq!(r.masking_only_bits, 120);
        assert!((r.proposed_bits - 57.5).abs() < 1e-9);
        assert!(r.impv_over_masking > 2.0);
        // Canceling-only: 10*2*28/8 = 70 bits -> hybrid wins.
        assert!((r.canceling_only_bits - 70.0).abs() < 1e-9);
        assert!(r.impv_over_canceling > 1.2);
        // Residual X-density falls -> test time improves.
        assert!(r.time_proposed < r.time_canceling_only);
        assert!(r.time_impv > 1.0);
    }

    #[test]
    fn masked_responses_leak_exactly_leaked_x() {
        let xmap = fig4_xmap();
        let responses = fig4_responses();
        let outcome = PartitionEngine::new(XCancelConfig::new(10, 2)).run(&xmap);
        let masked = apply_partition_masks(&responses, &outcome);
        assert_eq!(masked.total_x(), outcome.leaked_x());
        assert_eq!(masked.total_x(), 5);
    }

    #[test]
    fn masking_preserves_every_non_x_value_position() {
        // No observable value is gated: every known bit either passes
        // through unchanged or... nothing else. Masked positions were X.
        let xmap = fig4_xmap();
        let responses = fig4_responses();
        let outcome = PartitionEngine::new(XCancelConfig::new(10, 2)).run(&xmap);
        let masked = apply_partition_masks(&responses, &outcome);
        let cfg = responses.config();
        for p in 0..8 {
            for idx in 0..cfg.total_cells() {
                let orig = responses.get_linear(p, idx);
                let got = masked.get_linear(p, idx);
                if orig.is_known() {
                    assert_eq!(orig, got, "non-X value changed at ({p},{idx})");
                }
            }
        }
    }

    #[test]
    fn x_free_workload_degenerates_gracefully() {
        let cfg = ScanConfig::uniform(3, 3);
        let xmap = XMapBuilder::new(cfg, 10).finish();
        let r = evaluate_hybrid(&xmap, XCancelConfig::paper_default(), CellSelection::First);
        assert_eq!(r.total_x, 0);
        assert_eq!(r.outcome.partitions.len(), 1);
        assert_eq!(r.time_proposed, 1.0);
        assert_eq!(r.canceling_only_bits, 0.0);
    }
}
