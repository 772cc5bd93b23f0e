//! **Theorem 1 (DP)** — the Danne–Platzner utilization bound with the
//! paper's integer-area correction.
//!
//! A periodic taskset Γ is feasibly scheduled by EDF-FkF on a device H with
//! `A(H) ≥ Amax` if for every task τk:
//!
//! ```text
//! US(Γ) ≤ (A(H) − Amax + 1) · (1 − UT(τk)) + US(τk)
//! ```
//!
//! The `+ 1` is the paper's Lemma 1 sharpening: with integer column counts,
//! an idle gap of `Amax − 1` columns is the largest that can block every
//! waiting job, so in overload at least `A(H) − Amax + 1` columns are busy.
//! Danne & Platzner's original real-valued formulation uses
//! `A(H) − Amax`; it is available as [`DpAreaBound::RealValued`] for the
//! ablation study (experiment X3 in DESIGN.md).
//!
//! With unit areas and `A(H) = m` the corrected bound collapses exactly to
//! the Goossens–Funk–Baruah (GFB) multiprocessor bound
//! `UT(Γ) ≤ m(1 − umax) + umax` — see [`crate::mp::GfbTest`] and the
//! `mp_reduction` integration tests.

use crate::batch::ScratchSpace;
use crate::report::{TaskCheck, TestReport, Verdict};
use crate::traits::{precondition_reject, SchedTest};
use fpga_rt_model::{Fpga, TaskId, TaskSet, Time};
use serde::{Deserialize, Serialize};

/// Which area bound the DP test uses in overload situations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DpAreaBound {
    /// `A(H) − Amax + 1` — the paper's integer-column correction (default).
    #[default]
    IntegerColumns,
    /// `A(H) − Amax` — Danne & Platzner's original real-valued bound
    /// (strictly more pessimistic; ablation only).
    RealValued,
}

/// Configuration for [`DpTest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DpConfig {
    /// Area bound variant; see [`DpAreaBound`].
    pub area_bound: DpAreaBound,
}

impl DpConfig {
    /// The busy-area bound `Abnd = A(H) − Amax (+ 1)` in columns.
    #[inline]
    pub fn area_bound(self, columns: u32, amax: u32) -> i64 {
        let base = i64::from(columns) - i64::from(amax);
        match self.area_bound {
            DpAreaBound::IntegerColumns => base + 1,
            DpAreaBound::RealValued => base,
        }
    }
}

/// Theorem 1 of the paper. See the [module docs](self) for the formula;
/// the verdict is computed by the analysis kernel ([`crate::batch`]), and
/// this type renders it as a [`TestReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DpTest {
    config: DpConfig,
}

impl DpTest {
    /// Test with the given configuration.
    pub fn new(config: DpConfig) -> Self {
        DpTest { config }
    }

    /// Danne & Platzner's original bound (`A(H) − Amax`), for ablations.
    pub fn original_danne() -> Self {
        DpTest::new(DpConfig { area_bound: DpAreaBound::RealValued })
    }

    /// The configuration in use.
    pub fn config(&self) -> DpConfig {
        self.config
    }
}

impl<T: Time> SchedTest<T> for DpTest {
    fn name(&self) -> &str {
        match self.config.area_bound {
            DpAreaBound::IntegerColumns => "DP",
            DpAreaBound::RealValued => "DP-real",
        }
    }

    fn check(&self, taskset: &TaskSet<T>, device: &Fpga) -> TestReport {
        let name = SchedTest::<T>::name(self).to_string();
        if let Some(rep) = precondition_reject(&name, taskset, device) {
            return rep;
        }
        let mut rows = Vec::new();
        let verdict = ScratchSpace::new().load(taskset).dp(device, self.config, &mut rows);
        let abnd = self.config.area_bound(device.columns(), taskset.amax());
        let checks = rows
            .iter()
            .map(|r| {
                let id = TaskId(r.task);
                TaskCheck {
                    task: id,
                    passed: r.passed,
                    lhs: r.lhs,
                    rhs: r.rhs,
                    note: format!("US(Γ) ≤ Abnd·(1−UT({id})) + US({id}), Abnd={}", abnd as f64),
                }
            })
            .collect();
        let verdict = match rows.last() {
            Some(r) if !verdict.accepted => Verdict::rejected(
                Some(TaskId(r.task)),
                format!("US(Γ)={:.6} exceeds bound {:.6} at {}", r.lhs, r.rhs, TaskId(r.task)),
            ),
            _ => Verdict::Accepted,
        };
        TestReport { test: name, verdict, checks }
    }

    fn is_schedulable(&self, taskset: &TaskSet<T>, device: &Fpga) -> bool {
        ScratchSpace::new().load(taskset).dp(device, self.config, &mut ()).accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_rt_model::Rat64;

    fn fpga10() -> Fpga {
        Fpga::new(10).unwrap()
    }

    /// Table 1: accepted by DP (the condition for k=2 holds with equality:
    /// US(Γ) = 2.76 = (10−9+1)(1−0.19) + 1.14).
    #[test]
    fn table1_accepted() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]).unwrap();
        let rep = DpTest::default().check(&ts, &fpga10());
        assert!(rep.accepted(), "{}", rep.summarize());
    }

    /// The same taskset in exact arithmetic: the k=2 equality is exact, so
    /// the non-strict `≤` must accept.
    #[test]
    fn table1_accepted_exact() {
        let r = |n, d| Rat64::new(n, d).unwrap();
        let ts: TaskSet<Rat64> = TaskSet::try_from_tuples(&[
            (r(126, 100), r(7, 1), r(7, 1), 9),
            (r(95, 100), r(5, 1), r(5, 1), 6),
        ])
        .unwrap();
        assert!(DpTest::default().is_schedulable(&ts, &fpga10()));
    }

    /// Table 2: rejected by DP.
    #[test]
    fn table2_rejected() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(4.50, 8.0, 8.0, 3), (8.00, 9.0, 9.0, 5)]).unwrap();
        let rep = DpTest::default().check(&ts, &fpga10());
        assert!(!rep.accepted());
    }

    /// Table 3: rejected by DP, failing at k=2 with the paper's margin
    /// (4.857 < 4.94).
    #[test]
    fn table3_rejected_at_k2_with_paper_margin() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)]).unwrap();
        let rep = DpTest::default().check(&ts, &fpga10());
        assert!(!rep.accepted());
        assert_eq!(rep.failing_task(), Some(fpga_rt_model::TaskId(1)));
        let failing = rep.checks.last().unwrap();
        assert!((failing.lhs - 4.94).abs() < 1e-9, "US(Γ) = 4.94");
        assert!((failing.rhs - (20.0 / 7.0 + 2.0)).abs() < 1e-9, "bound = 4.857");
    }

    /// The integer correction strictly dominates the real-valued original:
    /// anything the original accepts, the corrected test accepts.
    #[test]
    fn integer_bound_dominates_real_bound() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]).unwrap();
        let dev = fpga10();
        let original = DpTest::original_danne();
        let corrected = DpTest::default();
        if original.is_schedulable(&ts, &dev) {
            assert!(corrected.is_schedulable(&ts, &dev));
        }
        // And on Table 1 they genuinely differ: the original rejects.
        assert!(!original.is_schedulable(&ts, &dev));
        assert!(corrected.is_schedulable(&ts, &dev));
    }

    #[test]
    fn rejects_wide_task_up_front() {
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[(1.0, 5.0, 5.0, 11)]).unwrap();
        assert!(!DpTest::default().is_schedulable(&ts, &fpga10()));
    }

    #[test]
    fn single_light_task_accepted() {
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[(1.0, 10.0, 10.0, 3)]).unwrap();
        let rep = DpTest::default().check(&ts, &fpga10());
        assert!(rep.accepted(), "{}", rep.summarize());
        assert_eq!(rep.checks.len(), 1);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(SchedTest::<f64>::name(&DpTest::default()), "DP");
        assert_eq!(SchedTest::<f64>::name(&DpTest::original_danne()), "DP-real");
    }
}
