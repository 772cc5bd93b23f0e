//! The kernel's bit-identity contract against the reference oracle
//! (`tests/oracle`, the scalar per-task loops of Theorems 1–3): every
//! verdict **and every row's `(lhs, rhs)`** — bit for bit, not
//! approximately — across random tasksets from all four figure
//! generators, on knife-edge tasksets scaled so a deciding comparison sits
//! at (or one ulp around) exact equality, at every ablation configuration,
//! in exact `Rat64` arithmetic, and for GN2's per-λ attempts.

mod oracle;

use fpga_rt_analysis::{
    AnalysisSeries, AnyOfTest, BatchAnalyzer, BatchVerdict, DpAreaBound, DpConfig, DpTest,
    Gn1BetaDenominator, Gn1Config, Gn1Test, Gn2Config, Gn2LambdaSearch, Gn2Test, KernelRow,
    SchedTest, ScratchSpace, TaskSetBatch, TestReport,
};
use fpga_rt_gen::{BinnedGenerator, FigureWorkload, UtilizationBins};
use fpga_rt_model::{Fpga, Rat64, Task, TaskSet, Time};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn dp_configs() -> [DpConfig; 2] {
    [DpConfig::default(), DpConfig { area_bound: DpAreaBound::RealValued }]
}

fn gn1_configs() -> [Gn1Config; 3] {
    [
        Gn1Config::default(),
        Gn1Config { rhs_plus_one: false, ..Gn1Config::default() },
        Gn1Config { beta_denominator: Gn1BetaDenominator::WindowDk, ..Gn1Config::default() },
    ]
}

fn gn2_configs() -> [Gn2Config; 4] {
    [
        Gn2Config::default(),
        Gn2Test::paper_literal().config(),
        Gn2Config { condition2_strict: false, ..Gn2Config::default() },
        Gn2Config { lambda_search: Gn2LambdaSearch::Grid { points: 16 }, ..Gn2Config::default() },
    ]
}

/// Report equality with every row's sides compared as bit patterns (plain
/// `==` would let `0.0` and `-0.0` through).
fn assert_reports_identical(got: &TestReport, want: &TestReport, context: &str) {
    assert_eq!(got, want, "{context}");
    for (g, w) in got.checks.iter().zip(&want.checks) {
        assert_eq!(g.lhs.to_bits(), w.lhs.to_bits(), "{context}: lhs of {}", g.task);
        assert_eq!(g.rhs.to_bits(), w.rhs.to_bits(), "{context}: rhs of {}", g.task);
    }
}

/// The verdict the kernel's `BatchVerdict` must carry for an oracle
/// report: its decision and its last row.
fn oracle_verdict(rep: &TestReport) -> BatchVerdict {
    BatchVerdict { accepted: rep.accepted(), margin: rep.checks.last().map(|c| (c.lhs, c.rhs)) }
}

/// Compare a kernel result with the oracle's. In exact arithmetic the
/// oracle may overflow `Rat64` on a large taskset; such a comparison is
/// skipped (overflow containment is `assert_exact_cascade_no_worse`'s
/// business).
fn agree<R: PartialEq + core::fmt::Debug>(
    context: &str,
    got: impl FnOnce() -> R,
    want: impl FnOnce() -> R,
) -> Option<(R, R)> {
    let want = overflow_guard(want).ok()?;
    let got = overflow_guard(got).unwrap_or_else(|()| panic!("kernel overflowed: {context}"));
    assert_eq!(got, want, "{context}");
    Some((got, want))
}

/// Every test at every configuration, the attempts and the candidate
/// windows of every task: kernel (through the renderers) against oracle.
fn assert_all_configs_identical<T: Time>(ts: &TaskSet<T>, dev: &Fpga, context: &str) {
    for cfg in dp_configs() {
        let ctx = format!("DP {cfg:?} on {context}");
        let test = DpTest::new(cfg);
        if let Some((got, want)) = agree(&ctx, || test.check(ts, dev), || oracle::dp(cfg, ts, dev))
        {
            assert_reports_identical(&got, &want, &ctx);
            assert_eq!(test.is_schedulable(ts, dev), want.accepted(), "{ctx}");
        }
    }
    for cfg in gn1_configs() {
        let ctx = format!("GN1 {cfg:?} on {context}");
        let test = Gn1Test::new(cfg);
        if let Some((got, want)) = agree(&ctx, || test.check(ts, dev), || oracle::gn1(cfg, ts, dev))
        {
            assert_reports_identical(&got, &want, &ctx);
            assert_eq!(test.is_schedulable(ts, dev), want.accepted(), "{ctx}");
        }
    }
    for cfg in gn2_configs() {
        let ctx = format!("GN2 {cfg:?} on {context}");
        let test = Gn2Test::new(cfg);
        if let Some((got, want)) = agree(&ctx, || test.check(ts, dev), || oracle::gn2(cfg, ts, dev))
        {
            assert_reports_identical(&got, &want, &ctx);
            assert_eq!(test.is_schedulable(ts, dev), want.accepted(), "{ctx}");
        }
        for k in 0..ts.len() {
            agree(
                &format!("{ctx}: attempts of τ{k}"),
                || test.attempts_for_task(ts, dev, k),
                || oracle::gn2_attempts(cfg, ts, dev, k),
            );
            agree(
                &format!("{ctx}: candidates of τ{k}"),
                || test.lambda_candidates(ts, k),
                || oracle::lambda_candidates(cfg, ts, k),
            );
        }
    }
}

/// The paper-default suite through `BatchAnalyzer` (all four series, and
/// each series on its own) against the oracle.
fn assert_analyzer_identical(ts: &TaskSet<f64>, dev: &Fpga, context: &str) {
    let mut scratch = ScratchSpace::new();
    let analyzer = BatchAnalyzer::new();
    let verdicts = analyzer.analyze(ts, dev, &mut scratch);
    let want = [
        oracle_verdict(&oracle::dp(DpConfig::default(), ts, dev)),
        oracle_verdict(&oracle::gn1(Gn1Config::default(), ts, dev)),
        oracle_verdict(&oracle::gn2(Gn2Config::default(), ts, dev)),
        oracle_verdict(&oracle::cascade(ts, dev)),
    ];
    for (want, series) in want.into_iter().zip(AnalysisSeries::ALL) {
        let name = series.name();
        assert_eq!(verdicts.series(series), want, "{name} on {context}: {ts:?}");
        let focused = analyzer.analyze_series(series, ts, dev, &mut scratch);
        assert_eq!(focused, want, "{name} focused on {context}");
    }
    // The composite's report is the components' rows concatenated.
    let any = AnyOfTest::paper_suite().check(ts, dev);
    assert_eq!(any.accepted(), verdicts.any_of.accepted);
}

fn assert_bit_identical(ts: &TaskSet<f64>, dev: &Fpga, context: &str) {
    assert_analyzer_identical(ts, dev, context);
    assert_all_configs_identical(ts, dev, context);
}

/// Draw one taskset from a figure workload's binned generator, exactly as
/// the sweep and conformance engines do.
fn figure_taskset(figure: usize, bin: usize, seed: u64) -> Option<(TaskSet<f64>, Fpga)> {
    let workload = FigureWorkload::all()[figure % 4];
    let generator = BinnedGenerator::new(
        workload.spec,
        workload.device_columns,
        UtilizationBins::paper_default(),
    )
    .with_strategy(workload.strategy);
    let mut rng = StdRng::seed_from_u64(seed);
    generator
        .sample_in_bin(bin % UtilizationBins::paper_default().n, &mut rng)
        .map(|ts| (ts, workload.device()))
}

/// The `f64 → Rat64` conversion the admission controller's exact tier
/// uses (continued fractions, denominators ≤ `max_den`).
fn to_exact(ts: &TaskSet<f64>, max_den: u32) -> Option<TaskSet<Rat64>> {
    let tasks = ts
        .tasks()
        .iter()
        .map(|t| {
            Task::new(
                Rat64::approx_f64(t.exec(), max_den).ok()?,
                Rat64::approx_f64(t.deadline(), max_den).ok()?,
                Rat64::approx_f64(t.period(), max_den).ok()?,
                t.area(),
            )
            .ok()
        })
        .collect::<Option<Vec<_>>>()?;
    TaskSet::new(tasks).ok()
}

/// The admission controller's exact re-check on the kernel: DP, then GN1,
/// then GN2 on one scratch, rows of the deciding test.
fn kernel_cascade(ts: &TaskSet<Rat64>, dev: &Fpga) -> (bool, Vec<KernelRow>) {
    let mut scratch = ScratchSpace::new();
    scratch.load(ts);
    let mut rows = Vec::new();
    if scratch.dp(dev, DpConfig::default(), &mut rows).accepted {
        return (true, rows);
    }
    rows.clear();
    if scratch.gn1(dev, Gn1Config::default(), &mut rows).accepted {
        return (true, rows);
    }
    rows.clear();
    let accepted = scratch.gn2(dev, Gn2Config::default(), &mut rows).accepted;
    (accepted, rows)
}

/// `Ok` with the value, or `Err` on a `Rat64` overflow panic (any other
/// panic propagates).
fn overflow_guard<R>(f: impl FnOnce() -> R) -> Result<R, ()> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        assert!(Rat64::is_overflow_panic(payload.as_ref()), "non-overflow panic");
    })
}

/// The kernel's exact cascade against the oracle's: an overflow in the
/// kernel implies one in the oracle (packing never computes a quantity
/// before the test that needs it), and without overflow the verdict and
/// every row agree bit for bit.
fn assert_exact_cascade_no_worse(ts: &TaskSet<Rat64>, dev: &Fpga, context: &str) {
    let got = overflow_guard(|| kernel_cascade(ts, dev));
    let want = overflow_guard(|| oracle::cascade(ts, dev));
    match (got, want) {
        (Ok((accepted, rows)), Ok(rep)) => {
            assert_eq!(accepted, rep.accepted(), "{context}");
            let sides: Vec<(u64, u64)> =
                rows.iter().map(|r| (r.lhs.to_bits(), r.rhs.to_bits())).collect();
            let want: Vec<(u64, u64)> =
                rep.checks.iter().map(|c| (c.lhs.to_bits(), c.rhs.to_bits())).collect();
            assert_eq!(sides, want, "{context}");
        }
        (Err(()), Ok(_)) => panic!("kernel overflowed where the oracle did not: {context}"),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random draws from every figure generator and every utilization bin
    /// evaluate bit-identically.
    #[test]
    fn figure_populations_are_bit_identical(figure in 0usize..4, bin in 0usize..20, seed in 0u64..u64::MAX) {
        if let Some((ts, dev)) = figure_taskset(figure, bin, seed) {
            assert_bit_identical(&ts, &dev, "figure draw");
        }
    }

    /// Knife-edge margins: rescale every execution time by a factor that
    /// pushes the DP bound's deciding comparison to (approximately) exact
    /// equality, then probe one ulp to either side. The non-strict `≤` of
    /// DP and the strict `<` of GN1/GN2 both flip on these inputs unless
    /// the kernel performs the *same* operations in the *same* order as
    /// the oracle — near the knife edge, bit-identity is the only
    /// equivalence that survives.
    #[test]
    fn knife_edge_margins_are_bit_identical(
        figure in 0usize..4,
        bin in 4usize..16,
        seed in 0u64..u64::MAX,
        nudge in -1i8..=1,
    ) {
        if let Some((ts, dev)) = figure_taskset(figure, bin, seed) {
            // Deciding DP comparison: US(Γ) vs Abnd·(1 − UT(τk)) + US(τk).
            // Scaling all Ck by m scales US(Γ), UT and US(τk) linearly, so
            // solve for m putting task 0's comparison at equality:
            //   m·US = Abnd·(1 − m·ut0) + m·us0
            //   m = Abnd / (US + Abnd·ut0 − us0)
            let abnd = f64::from(dev.columns()) - f64::from(ts.amax()) + 1.0;
            let us: f64 = ts.iter().map(|(_, t)| t.system_utilization()).sum();
            let ut0 = ts.task(0).time_utilization();
            let us0 = ts.task(0).system_utilization();
            let denom = us + abnd * ut0 - us0;
            if denom > 1e-9 {
                let m = (abnd / denom) * (1.0 + f64::from(nudge) * f64::EPSILON);
                // Clamp Ck at Dk so the scaled tasks stay feasible (Ck > Dk
                // would precondition-reject, which is asserted elsewhere).
                let tuples: Vec<(f64, f64, f64, u32)> = ts
                    .iter()
                    .map(|(_, t)| {
                        ((t.exec() * m).min(t.deadline()), t.deadline(), t.period(), t.area())
                    })
                    .collect();
                if let Ok(knife) = TaskSet::try_from_tuples(&tuples) {
                    assert_bit_identical(&knife, &dev, "knife edge");
                }
            }
        }
    }

    /// Post-period and constrained deadlines exercise βλk's case 2/3, the
    /// density candidates and λmax < 1, which the figure workloads (all
    /// implicit-deadline) never reach.
    #[test]
    fn arbitrary_deadlines_are_bit_identical(
        tasks in proptest::collection::vec((1u32..40, 1u32..60, 1u32..60, 1u32..8), 1..6),
    ) {
        let tuples: Vec<(f64, f64, f64, u32)> = tasks
            .iter()
            .map(|&(c, d, p, a)| {
                let c = f64::from(c) * 0.25;
                (c, c + f64::from(d) * 0.5, f64::from(p) * 0.5, a)
            })
            .collect();
        let ts = TaskSet::try_from_tuples(&tuples).unwrap();
        assert_bit_identical(&ts, &Fpga::new(12).unwrap(), "arbitrary deadlines");
    }

    /// The same contract in exact arithmetic: figure draws converted to
    /// `Rat64` (small denominators, no overflow) render byte-identical
    /// reports, attempts and candidates at every configuration.
    #[test]
    fn exact_arithmetic_is_bit_identical(figure in 0usize..4, bin in 0usize..20, seed in 0u64..u64::MAX) {
        if let Some((ts, dev)) = figure_taskset(figure, bin, seed) {
            if let Some(exact) = to_exact(&ts, 64) {
                assert_all_configs_identical(&exact, &dev, "exact figure draw");
                assert_exact_cascade_no_worse(&exact, &dev, "exact figure draw");
            }
        }
    }

    /// High-denominator exact re-checks (the controller converts with
    /// denominators up to its `max_denominator`): the set of tasksets whose
    /// kernel cascade overflows `Rat64` is contained in the oracle's.
    #[test]
    fn high_denominator_exact_cascade_overflows_no_more_than_the_oracle(
        figure in 0usize..4,
        bin in 0usize..20,
        seed in 0u64..u64::MAX,
        den_exp in 3u32..10,
    ) {
        if let Some((ts, dev)) = figure_taskset(figure, bin, seed) {
            if let Some(exact) = to_exact(&ts, 10u32.pow(den_exp)) {
                assert_exact_cascade_no_worse(&exact, &dev, "high-denominator draw");
            }
        }
    }

    /// Small admission-sized sets with full-precision parameters, converted
    /// with large denominators: the same containment, where the cascade
    /// often completes and sometimes overflows midway.
    #[test]
    fn small_high_denominator_sets_overflow_no_more_than_the_oracle(
        tasks in proptest::collection::vec((0.01f64..4.0, 0.0f64..6.0, 0.5f64..9.0, 1u32..10), 1..5),
        den_exp in 2u32..10,
    ) {
        let tuples: Vec<(f64, f64, f64, u32)> =
            tasks.iter().map(|&(c, slack, p, a)| (c, c + slack, p, a)).collect();
        let ts = TaskSet::try_from_tuples(&tuples).unwrap();
        let dev = Fpga::new(10).unwrap();
        if let Some(exact) = to_exact(&ts, 10u32.pow(den_exp)) {
            assert_exact_cascade_no_worse(&exact, &dev, "small high-denominator set");
            assert_all_configs_identical(&exact, &dev, "small high-denominator set");
        }
    }

    /// Packing a population into one SoA batch and evaluating it in one
    /// pass equals per-taskset evaluation.
    #[test]
    fn packed_batches_match_per_taskset_analysis(bins in proptest::collection::vec((0usize..4, 0usize..20, 0u64..u64::MAX), 1..12)) {
        let mut batch = TaskSetBatch::new();
        let mut drawn = Vec::new();
        for (figure, bin, seed) in bins {
            if let Some((ts, dev)) = figure_taskset(figure, bin, seed) {
                batch.push(&ts);
                drawn.push((ts, dev));
            }
        }
        let mut out = Vec::new();
        if let Some((_, dev)) = drawn.first() {
            BatchAnalyzer::new().analyze_batch(&batch, dev, &mut out);
            assert_eq!(out.len(), drawn.len());
            let mut scratch = ScratchSpace::new();
            for ((ts, dev), got) in drawn.iter().zip(&out) {
                // All figure workloads share the 100-column device, so one
                // device serves the whole batch.
                assert_eq!(*got, BatchAnalyzer::new().analyze(ts, dev, &mut scratch));
            }
        }
    }
}

/// The paper's tables in both arithmetics, including Table 1's two knife
/// edges: GN2's condition 2 is an exact rational equality (69/25 on both
/// sides) decided by the strict `<`, and DP's `US = 2.76 = bound` accepts.
#[test]
fn paper_tables_match_in_both_arithmetics() {
    let dev = Fpga::new(10).unwrap();
    let tables: [&[(f64, f64, f64, u32)]; 3] = [
        &[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)],
        &[(4.50, 8.0, 8.0, 3), (8.00, 9.0, 9.0, 5)],
        &[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)],
    ];
    for tuples in tables {
        let ts = TaskSet::try_from_tuples(tuples).unwrap();
        assert_bit_identical(&ts, &dev, "paper table");
        let exact = to_exact(&ts, 1_000).unwrap();
        assert_all_configs_identical(&exact, &dev, "paper table (exact)");
        assert_exact_cascade_no_worse(&exact, &dev, "paper table (exact)");
    }
    let table1 = TaskSet::try_from_tuples(tables[0]).unwrap();
    let v = BatchAnalyzer::new().analyze(&table1, &dev, &mut ScratchSpace::new());
    assert!(v.dp.accepted && !v.gn1.accepted && !v.gn2.accepted && v.any_of.accepted);
}
