//! Configuration ablations (DESIGN.md experiments X1–X3).
//!
//! Each ablation compares two configurations of the same test on the same
//! binned workload:
//!
//! * **X1** — GN1's β denominator: the paper's `Wi/Di` vs BCL's `Wi/Dk`.
//! * **X2** — GN2's λ search: the paper's discontinuity points vs a dense
//!   grid (the grid strictly enlarges the acceptance region whenever
//!   `Abnd < Amin`, e.g. Table 1).
//! * **X3** — DP's area bound: the paper's integer `A(H) − Amax + 1` vs
//!   Danne & Platzner's real-valued `A(H) − Amax`.

use crate::acceptance::Evaluator;
use crate::sweep::{run_pool_sweep, PoolSweepConfig, PoolSweepOutcome};
use fpga_rt_analysis::{DpTest, Gn1Test, Gn2Test};

/// One ablation: a name plus the pair of evaluators to contrast.
pub struct Ablation {
    /// Stable id (`"X1-gn1-denominator"`, ...).
    pub id: &'static str,
    /// What is being contrasted.
    pub description: &'static str,
    /// The two configurations.
    pub evaluators: Vec<Evaluator>,
}

/// All three configuration ablations.
pub fn all_ablations() -> Vec<Ablation> {
    vec![
        Ablation {
            id: "X1-gn1-denominator",
            description: "GN1 β denominator: paper Wi/Di vs BCL-faithful Wi/Dk",
            evaluators: vec![
                Evaluator::from_test(Gn1Test::default()),
                Evaluator::from_test(Gn1Test::bcl_faithful()),
            ],
        },
        Ablation {
            id: "X2-gn2-lambda-search",
            description: "GN2 λ candidates: paper points vs dense grid (64 pts)",
            evaluators: vec![
                Evaluator::from_test(Gn2Test::default()),
                Evaluator::from_test(Gn2Test::with_grid_search(64)),
            ],
        },
        Ablation {
            id: "X3-dp-area-bound",
            description: "DP area bound: integer A(H)−Amax+1 vs real A(H)−Amax",
            evaluators: vec![
                Evaluator::from_test(DpTest::default()),
                Evaluator::from_test(DpTest::original_danne()),
            ],
        },
    ]
}

/// Run one ablation on the sweep's workload, bins and seed.
pub fn run_ablation(ablation: &Ablation, config: &PoolSweepConfig) -> PoolSweepOutcome {
    run_pool_sweep(config, &ablation.evaluators)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::SweepResult;
    use fpga_rt_gen::FigureWorkload;

    fn run(ablation: &Ablation) -> SweepResult {
        run_ablation(ablation, &PoolSweepConfig::new(FigureWorkload::fig3a(), 6, 11)).result
    }

    #[test]
    fn ablation_catalogue_is_complete() {
        let ids: Vec<&str> = all_ablations().iter().map(|a| a.id).collect();
        assert_eq!(ids, vec!["X1-gn1-denominator", "X2-gn2-lambda-search", "X3-dp-area-bound"]);
        for a in all_ablations() {
            assert_eq!(a.evaluators.len(), 2);
        }
    }

    /// Dominance sanity on a small sweep where a true dominance relation
    /// exists: the GN2 grid search (X2) accepts at least as much as the
    /// paper's candidate points in every bin (superset of λ candidates),
    /// and integer-bound DP accepts at least as much as real-valued DP
    /// (X3). X1's two denominators are genuinely incomparable — `Wi/Dk`
    /// shrinks β when `Di < Dk` but inflates it when `Di > Dk` — so X1 only
    /// gets a structural check.
    #[test]
    fn ablation_dominance_holds_binwise() {
        let ablations = all_ablations();

        let x1 = run(&ablations[0]);
        assert_eq!(x1.series.len(), 2);
        assert_eq!(x1.series[0].name, "GN1");
        assert_eq!(x1.series[1].name, "GN1-bcl");

        let x2 = run(&ablations[1]);
        for (p_base, p_alt) in x2.series[0].points.iter().zip(&x2.series[1].points) {
            assert!(p_alt.accepted >= p_base.accepted, "grid ⊇ paper points");
        }

        let x3 = run(&ablations[2]);
        for (p_base, p_alt) in x3.series[0].points.iter().zip(&x3.series[1].points) {
            assert!(p_base.accepted >= p_alt.accepted, "integer bound dominates");
        }
    }
}
