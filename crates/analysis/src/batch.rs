//! The analysis kernel: the one implementation of Theorems 1–3.
//!
//! Every verdict this workspace computes for DP (Theorem 1), GN1
//! (Theorem 2) and GN2 (Theorem 3) comes out of the functions in this
//! module — the Monte-Carlo sweeps and conformance runs, the `SchedTest`
//! reports behind `fpga-rt check` and `tables`, and the admission
//! controller's GN1/GN2 tiers and exact re-check. The kernel is generic
//! over [`Time`], so the `f64` path and the exact
//! [`Rat64`](fpga_rt_model::Rat64) path run the same code, and the tests'
//! ablation settings ([`DpConfig`], [`Gn1Config`], [`Gn2Config`]) are
//! kernel parameters.
//!
//! * [`TaskSetBatch`] — a structure-of-arrays store: task parameters packed
//!   into contiguous columns (`Ck`, `Dk`, `Tk`, `Ak`) with the derived
//!   per-task ratios (`Ck·Ak/Tk`, `Ck/Dk`, `Ck/Tk`) and the per-taskset GN2
//!   λ-candidate pool computed **once at pack time**, sorted and deduped —
//!   every per-task λ window is then a contiguous slice of the pool.
//! * [`ScratchSpace`] — one reusable packed taskset for single-taskset
//!   callers. Its derived columns are computed by the first test that
//!   reads them, in the order the tests run, so an exact DP → GN1 → GN2
//!   cascade performs no `Rat64` operation before the test that needs it.
//! * [`BatchAnalyzer`] — the paper-default DP/GN1/GN2 verdicts and the
//!   Section-6 `AnyOf` composite over packed tasksets, with **zero
//!   per-taskset heap allocation**: the three component verdicts are
//!   computed in one pass and `AnyOf` is derived from them.
//! * [`RowSink`] — the per-task row output. Renderers (`TestReport`, the
//!   controller's margin rows) pass a `Vec<KernelRow>`; verdict-only
//!   callers pass `()`, for which the row construction is compiled away.
//! * [`workload_bound`] (Lemma 4) and [`beta_lambda`] (Lemma 7) — the
//!   per-interferer demand bounds, shared with the multiprocessor
//!   ancestors in [`crate::mp`].
//!
//! Each series yields a [`BatchVerdict`] carrying the verdict and the
//! deciding inequality's `(lhs, rhs)` — the two numbers of the last row
//! the test evaluated.

use crate::dp::DpConfig;
use crate::gn1::{Gn1BetaDenominator, Gn1Config};
use crate::gn2::{Gn2Attempt, Gn2Case2, Gn2Config, Gn2LambdaSearch};
use fpga_rt_model::{Fpga, TaskSet, Time};

/// The four analytic series the kernel computes, in the fixed order the
/// sweep and conformance engines report them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisSeries {
    /// Theorem 1 — the Danne–Platzner utilization bound with the integer
    /// correction.
    Dp,
    /// Theorem 2 — the BCL-style interference test for EDF-NF.
    Gn1,
    /// Theorem 3 — the BAK2-style λ-extended busy-window test.
    Gn2,
    /// The Section-6 composite: accept iff any component accepts.
    AnyOf,
}

impl AnalysisSeries {
    /// All four series in report order.
    pub const ALL: [AnalysisSeries; 4] =
        [AnalysisSeries::Dp, AnalysisSeries::Gn1, AnalysisSeries::Gn2, AnalysisSeries::AnyOf];

    /// The series name used across sweep/conformance artifacts (the
    /// `SchedTest` names of the paper-default tests).
    pub fn name(self) -> &'static str {
        match self {
            AnalysisSeries::Dp => "DP",
            AnalysisSeries::Gn1 => "GN1",
            AnalysisSeries::Gn2 => "GN2",
            AnalysisSeries::AnyOf => "AnyOf",
        }
    }
}

/// One series verdict for one taskset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchVerdict {
    /// `true` when the sufficient condition holds.
    pub accepted: bool,
    /// `(lhs, rhs)` of the deciding inequality — the last row the test
    /// evaluated (the failing row on rejection, the final row on
    /// acceptance). `None` when the taskset was rejected by the
    /// precondition guard before any row was evaluated.
    pub margin: Option<(f64, f64)>,
}

impl BatchVerdict {
    fn precondition_reject() -> Self {
        BatchVerdict { accepted: false, margin: None }
    }
}

/// All four series verdicts for one taskset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchVerdicts {
    /// Theorem 1.
    pub dp: BatchVerdict,
    /// Theorem 2.
    pub gn1: BatchVerdict,
    /// Theorem 3.
    pub gn2: BatchVerdict,
    /// The composite (derived from the three components: the margin is the
    /// first accepting component's, or GN2's when everything rejects —
    /// exactly the final check row of `AnyOfTest::paper_suite`).
    pub any_of: BatchVerdict,
}

impl BatchVerdicts {
    /// Look up one series.
    pub fn series(&self, series: AnalysisSeries) -> BatchVerdict {
        match series {
            AnalysisSeries::Dp => self.dp,
            AnalysisSeries::Gn1 => self.gn1,
            AnalysisSeries::Gn2 => self.gn2,
            AnalysisSeries::AnyOf => self.any_of,
        }
    }
}

/// One evaluated per-task row: the two sides of τk's inequality, in `f64`
/// whatever the arithmetic the verdict was decided in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRow {
    /// Index of τk in the taskset.
    pub task: usize,
    /// Whether τk's condition held.
    pub passed: bool,
    /// Left-hand side (demand).
    pub lhs: f64,
    /// Right-hand side (capacity).
    pub rhs: f64,
    /// GN2 only: the λ the row reports — the passing attempt's, or on
    /// rejection the attempt closest to satisfying condition 2. `None` for
    /// DP/GN1 rows and when τk had no feasible λ candidate.
    pub lambda: Option<f64>,
    /// GN2 only: the row passed via condition 1 (else via condition 2).
    pub cond1: bool,
}

impl KernelRow {
    fn new(task: usize, passed: bool, (lhs, rhs): (f64, f64)) -> Self {
        KernelRow { task, passed, lhs, rhs, lambda: None, cond1: false }
    }
}

/// Where the kernel writes its per-task rows.
///
/// `()` discards them: its [`RowSink::ENABLED`] is `false`, so the kernel
/// never builds a row and the verdict-only code is the same as if row
/// output did not exist.
pub trait RowSink {
    /// Whether rows are wanted at all.
    const ENABLED: bool;
    /// Record one row (called in evaluation order).
    fn push(&mut self, row: KernelRow);
}

impl RowSink for () {
    const ENABLED: bool = false;
    #[inline(always)]
    fn push(&mut self, _row: KernelRow) {}
}

impl RowSink for Vec<KernelRow> {
    const ENABLED: bool = true;
    #[inline]
    fn push(&mut self, row: KernelRow) {
        Vec::push(self, row);
    }
}

/// **Theorem 1**'s per-task capacity
/// `g_k = Abnd·(1 − UT(τk)) + US(τk)`: DP accepts iff `US(Γ) ≤ g_k` for
/// every τk (the incremental admission state caches `min_k g_k`).
#[inline]
pub fn dp_capacity<T: Time>(abnd: T, ut_k: T, us_k: T) -> T {
    abnd * (T::ONE - ut_k) + us_k
}

/// **Lemma 4** — upper bound on the time work of an interfering task τi
/// in a deadline-aligned window of length `dk` (BCL worst case):
///
/// ```text
/// Wi = Ni·Ci + min(Ci, max(Dk − Ni·Ti, 0)),   Ni = max(⌊(Dk − Di)/Ti⌋ + 1, 0)
/// ```
#[inline]
pub fn workload_bound<T: Time>(ci: T, di: T, ti: T, dk: T) -> T {
    let ni = T::from_i64((((dk - di) / ti).floor_i64() + 1).max(0));
    let carry_in = ci.min_t((dk - ni * ti).max_zero());
    ni * ci + carry_in
}

/// **Lemma 7** — `βλk(i)`, the demand ratio of τi over τk's λ-extended
/// busy window (`ui = Ci/Ti`, `density_i = Ci/Di`):
///
/// ```text
///            ⎧ max(ui, ui·(1 − Di/Dk) + Ci/Dk)   if ui ≤ λ          (case 1)
/// βλk(i) =   ⎨ case2                              if ui > λ ∧ λ ≥ Ci/Di
///            ⎩ ui + (Ci − λ·Di)/Dk               if ui > λ ∧ λ < Ci/Di
/// ```
///
/// `case2` is Baker's `λ` or the paper's printed `Ck/Tk`
/// ([`Gn2Case2`]); the case only fires for post-period deadlines.
#[inline]
pub fn beta_lambda<T: Time>(ci: T, di: T, ui: T, density_i: T, dk: T, lambda: T, case2: T) -> T {
    if ui <= lambda {
        let extended = ui * (T::ONE - di / dk) + ci / dk;
        ui.max_t(extended)
    } else if lambda >= density_i {
        case2
    } else {
        ui + (ci - lambda * di) / dk
    }
}

/// A population of tasksets packed into contiguous structure-of-arrays
/// columns.
///
/// `push` copies a taskset's parameters into the column store, computes the
/// derived per-task ratios and per-taskset aggregates the kernels need, and
/// sorts the taskset's GN2 λ-candidate pool — all once, amortized over
/// every test and every λ attempt. `clear` retains the allocations, so a
/// reused batch reaches a steady state with **zero per-taskset heap
/// allocation**.
#[derive(Debug, Clone)]
pub struct TaskSetBatch<T = f64> {
    /// `starts[i]..starts[i+1]` is taskset `i`'s column range.
    starts: Vec<usize>,
    exec: Vec<T>,
    deadline: Vec<T>,
    period: Vec<T>,
    area: Vec<u32>,
    /// `Ak` as a [`Time`] value.
    area_t: Vec<T>,
    amax: Vec<u32>,
    amin: Vec<u32>,
    /// DP: `Ck·Ak/Tk`, and `US(Γ)` folded in task order.
    us: Vec<T>,
    us_total: Vec<T>,
    /// GN1 (and GN2): `Ck/Dk`.
    density: Vec<T>,
    /// GN2: `Ck/Tk`, and the sorted deduped λ candidates
    /// ({uᵢ} ∪ {Cᵢ/Dᵢ : Dᵢ > Tᵢ}); `cand_starts[i]..cand_starts[i+1]` is
    /// taskset `i`'s pool.
    ut: Vec<T>,
    cand: Vec<T>,
    cand_starts: Vec<usize>,
}

impl<T: Time> Default for TaskSetBatch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Time> TaskSetBatch<T> {
    /// An empty batch.
    pub fn new() -> Self {
        TaskSetBatch {
            starts: vec![0],
            exec: Vec::new(),
            deadline: Vec::new(),
            period: Vec::new(),
            area: Vec::new(),
            area_t: Vec::new(),
            amax: Vec::new(),
            amin: Vec::new(),
            us: Vec::new(),
            us_total: Vec::new(),
            density: Vec::new(),
            ut: Vec::new(),
            cand: Vec::new(),
            cand_starts: vec![0],
        }
    }

    /// Number of packed tasksets.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` when no taskset is packed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of packed tasks across all tasksets.
    pub fn total_tasks(&self) -> usize {
        self.exec.len()
    }

    /// Drop all packed tasksets, keeping the column allocations.
    pub fn clear(&mut self) {
        self.starts.truncate(1);
        self.exec.clear();
        self.deadline.clear();
        self.period.clear();
        self.area.clear();
        self.area_t.clear();
        self.amax.clear();
        self.amin.clear();
        self.us.clear();
        self.us_total.clear();
        self.density.clear();
        self.ut.clear();
        self.cand.clear();
        self.cand_starts.truncate(1);
    }

    /// Pack one taskset: copy the columns, derive the ratios and
    /// aggregates, and sort this taskset's λ-candidate pool.
    pub fn push(&mut self, taskset: &TaskSet<T>) {
        self.push_base(taskset);
        self.derive_us();
        self.derive_density();
        self.derive_pool();
    }

    /// Copy the parameters (no arithmetic beyond `Ak` as a [`Time`]).
    fn push_base(&mut self, taskset: &TaskSet<T>) {
        let mut amax = 0u32;
        let mut amin = u32::MAX;
        for task in taskset {
            self.exec.push(task.exec());
            self.deadline.push(task.deadline());
            self.period.push(task.period());
            self.area.push(task.area());
            self.area_t.push(task.area_t());
            amax = amax.max(task.area());
            amin = amin.min(task.area());
        }
        self.starts.push(self.exec.len());
        self.amax.push(amax);
        self.amin.push(amin);
    }

    fn range(&self, i: usize) -> core::ops::Range<usize> {
        self.starts[i]..self.starts[i + 1]
    }

    /// The column range of the last packed taskset (the one the
    /// `derive_*` steps fill in).
    fn last(&self) -> core::ops::Range<usize> {
        self.range(self.len() - 1)
    }

    /// DP's columns: `US(τk)` and the task-order fold `US(Γ)` (the
    /// `TaskSet::system_utilization` fold).
    fn derive_us(&mut self) {
        let mut us_total = T::ZERO;
        for k in self.last() {
            let us = self.exec[k] * self.area_t[k] / self.period[k];
            self.us.push(us);
            us_total = us_total + us;
        }
        self.us_total.push(us_total);
    }

    /// GN1's column: `Ck/Dk`.
    fn derive_density(&mut self) {
        for k in self.last() {
            self.density.push(self.exec[k] / self.deadline[k]);
        }
    }

    /// GN2's columns (after [`Self::derive_density`]): `Ck/Tk` and the λ
    /// discontinuity points — every uᵢ, plus Cᵢ/Dᵢ for post-period
    /// deadlines — sorted and deduplicated.
    fn derive_pool(&mut self) {
        let start = self.cand.len();
        for k in self.last() {
            let ut = self.exec[k] / self.period[k];
            self.ut.push(ut);
            self.cand.push(ut);
            if self.deadline[k] > self.period[k] {
                self.cand.push(self.density[k]);
            }
        }
        let pool = &mut self.cand[start..];
        pool.sort_unstable_by(|a, b| a.partial_cmp(b).expect("validated times are ordered"));
        let mut keep = 0;
        for j in 0..pool.len() {
            if j == 0 || pool[j] != pool[keep - 1] {
                pool[keep] = pool[j];
                keep += 1;
            }
        }
        self.cand.truncate(start + keep);
        self.cand_starts.push(self.cand.len());
    }

    /// Borrow taskset `i`'s columns. Columns not derived yet (a
    /// [`ScratchSpace`] derives them on demand) are empty.
    fn view(&self, i: usize) -> View<'_, T> {
        let r = self.range(i);
        let cand = match (self.cand_starts.get(i), self.cand_starts.get(i + 1)) {
            (Some(&a), Some(&b)) => &self.cand[a..b],
            _ => &[],
        };
        View {
            exec: &self.exec[r.clone()],
            deadline: &self.deadline[r.clone()],
            period: &self.period[r.clone()],
            area: &self.area[r.clone()],
            area_t: &self.area_t[r.clone()],
            us: self.us.get(r.clone()).unwrap_or(&[]),
            density: self.density.get(r.clone()).unwrap_or(&[]),
            ut: self.ut.get(r).unwrap_or(&[]),
            cand,
            us_total: self.us_total.get(i).copied().unwrap_or(T::ZERO),
            amax: self.amax[i],
            amin: self.amin[i],
        }
    }
}

/// One packed taskset's columns and aggregates.
struct View<'a, T> {
    exec: &'a [T],
    deadline: &'a [T],
    period: &'a [T],
    area: &'a [u32],
    area_t: &'a [T],
    us: &'a [T],
    density: &'a [T],
    ut: &'a [T],
    cand: &'a [T],
    us_total: T,
    amax: u32,
    amin: u32,
}

/// One reusable packed taskset for single-taskset kernel calls.
///
/// [`ScratchSpace::load`] copies the parameters; each test derives the
/// columns it reads on first use (DP: `US`; GN1: `Ck/Dk`; GN2: `Ck/Tk` and
/// the λ pool). The derivation order therefore follows the order the
/// tests run in — in exact arithmetic a DP accept never computes a GN1 or
/// GN2 quantity that could overflow. Engines keep one per worker, so the
/// steady-state hot path performs no heap allocation; a fresh one is
/// cheap (empty `Vec`s allocate nothing).
#[derive(Debug, Clone)]
pub struct ScratchSpace<T = f64> {
    batch: TaskSetBatch<T>,
}

impl<T: Time> Default for ScratchSpace<T> {
    fn default() -> Self {
        ScratchSpace { batch: TaskSetBatch::new() }
    }
}

impl<T: Time> ScratchSpace<T> {
    /// An empty scratch space (no allocation until first use).
    pub fn new() -> Self {
        ScratchSpace::default()
    }

    /// Pack `taskset`, replacing the previously loaded one.
    pub fn load(&mut self, taskset: &TaskSet<T>) -> &mut Self {
        self.batch.clear();
        self.batch.push_base(taskset);
        self
    }

    fn need_us(&mut self) {
        if self.batch.us_total.is_empty() {
            self.batch.derive_us();
        }
    }

    fn need_density(&mut self) {
        if self.batch.density.is_empty() {
            self.batch.derive_density();
        }
    }

    fn need_pool(&mut self) {
        self.need_density();
        if self.batch.cand_starts.len() == 1 {
            self.batch.derive_pool();
        }
    }

    fn fits(&self, device: &Fpga) -> bool {
        precondition_ok(&self.batch.view(0), device.columns())
    }

    /// Theorem 1 on the loaded taskset.
    pub fn dp<R: RowSink>(
        &mut self,
        device: &Fpga,
        config: DpConfig,
        rows: &mut R,
    ) -> BatchVerdict {
        if !self.fits(device) {
            return BatchVerdict::precondition_reject();
        }
        self.need_us();
        dp_kernel(&self.batch.view(0), device.columns(), config, rows)
    }

    /// Theorem 2 on the loaded taskset.
    pub fn gn1<R: RowSink>(
        &mut self,
        device: &Fpga,
        config: Gn1Config,
        rows: &mut R,
    ) -> BatchVerdict {
        if !self.fits(device) {
            return BatchVerdict::precondition_reject();
        }
        self.need_density();
        gn1_kernel(&self.batch.view(0), device.columns(), config, rows)
    }

    /// Theorem 3 on the loaded taskset.
    pub fn gn2<R: RowSink>(
        &mut self,
        device: &Fpga,
        config: Gn2Config,
        rows: &mut R,
    ) -> BatchVerdict {
        if !self.fits(device) {
            return BatchVerdict::precondition_reject();
        }
        self.need_pool();
        gn2_kernel(&self.batch.view(0), device.columns(), config, rows)
    }

    /// The λ candidates GN2 examines for task `k`, ascending and
    /// deduplicated.
    pub fn lambda_candidates(&mut self, config: Gn2Config, k: usize) -> Vec<T> {
        self.need_pool();
        let v = self.batch.view(0);
        let (_, lambda_max) = lambda_scale(&v, k);
        candidates(v.cand, v.ut[k], lambda_max, config.lambda_search, &mut Vec::new()).to_vec()
    }

    /// Every GN2 attempt for task `k`, in candidate order: both sides of
    /// both conditions and every βλk(i) at each λ (the paper's Section-6
    /// walkthrough). No precondition guard, like the walkthrough itself.
    pub fn gn2_attempts(&mut self, device: &Fpga, config: Gn2Config, k: usize) -> Vec<Gn2Attempt> {
        self.need_pool();
        let v = self.batch.view(0);
        let ctx = Gn2Context::new(&v, device.columns(), config);
        let (scale, lambda_max) = lambda_scale(&v, k);
        let mut grid = Vec::new();
        candidates(v.cand, v.ut[k], lambda_max, config.lambda_search, &mut grid)
            .iter()
            .map(|&lambda| {
                let mut betas = Vec::with_capacity(v.exec.len());
                let s = ctx.sides(&v, k, lambda, scale, |b| betas.push(b.to_f64()));
                let (cond1, cond2) = s.holds(config.condition2_strict);
                Gn2Attempt {
                    lambda: lambda.to_f64(),
                    lambda_k: s.lambda_k.to_f64(),
                    lhs1: s.lhs1.to_f64(),
                    rhs1: s.rhs1.to_f64(),
                    cond1,
                    lhs2: s.lhs2.to_f64(),
                    rhs2: s.rhs2.to_f64(),
                    cond2,
                    betas,
                }
            })
            .collect()
    }
}

/// The evaluator for the paper-default configurations of DP, GN1, GN2
/// and the `AnyOf` composite.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchAnalyzer;

impl BatchAnalyzer {
    /// The analyzer (stateless; all buffers live in [`ScratchSpace`] /
    /// [`TaskSetBatch`]).
    pub fn new() -> Self {
        BatchAnalyzer
    }

    /// Evaluate all four series for one taskset, packing it into
    /// `scratch`'s reused buffer.
    pub fn analyze<T: Time>(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
        scratch: &mut ScratchSpace<T>,
    ) -> BatchVerdicts {
        scratch.load(taskset);
        scratch.need_us();
        scratch.need_pool();
        verdicts(&scratch.batch.view(0), device.columns())
    }

    /// Evaluate one series for one taskset (`AnyOf` short-circuits its
    /// components like `AnyOfTest`).
    pub fn analyze_series<T: Time>(
        &self,
        series: AnalysisSeries,
        taskset: &TaskSet<T>,
        device: &Fpga,
        scratch: &mut ScratchSpace<T>,
    ) -> BatchVerdict {
        scratch.load(taskset);
        let dp = |s: &mut ScratchSpace<T>| s.dp(device, DpConfig::default(), &mut ());
        let gn1 = |s: &mut ScratchSpace<T>| s.gn1(device, Gn1Config::default(), &mut ());
        let gn2 = |s: &mut ScratchSpace<T>| s.gn2(device, Gn2Config::default(), &mut ());
        match series {
            AnalysisSeries::Dp => dp(scratch),
            AnalysisSeries::Gn1 => gn1(scratch),
            AnalysisSeries::Gn2 => gn2(scratch),
            AnalysisSeries::AnyOf => {
                let v = dp(scratch);
                if v.accepted {
                    return v;
                }
                let v = gn1(scratch);
                if v.accepted {
                    return v;
                }
                gn2(scratch)
            }
        }
    }

    /// Evaluate all four series for every packed taskset, filling `out`
    /// (cleared first) with one [`BatchVerdicts`] per taskset in pack
    /// order.
    pub fn analyze_batch<T: Time>(
        &self,
        batch: &TaskSetBatch<T>,
        device: &Fpga,
        out: &mut Vec<BatchVerdicts>,
    ) {
        out.clear();
        out.reserve(batch.len());
        for i in 0..batch.len() {
            out.push(verdicts(&batch.view(i), device.columns()));
        }
    }
}

/// The paper-default verdicts of one fully derived taskset.
fn verdicts<T: Time>(v: &View<'_, T>, cols: u32) -> BatchVerdicts {
    if !precondition_ok(v, cols) {
        let reject = BatchVerdict::precondition_reject();
        return BatchVerdicts { dp: reject, gn1: reject, gn2: reject, any_of: reject };
    }
    let dp = dp_kernel(v, cols, DpConfig::default(), &mut ());
    let gn1 = gn1_kernel(v, cols, Gn1Config::default(), &mut ());
    let gn2 = gn2_kernel(v, cols, Gn2Config::default(), &mut ());
    // The composite's final check row is the first accepting
    // component's, or GN2's when all three reject.
    let any_of = if dp.accepted {
        dp
    } else if gn1.accepted {
        gn1
    } else {
        gn2
    };
    BatchVerdicts { dp, gn1, gn2, any_of }
}

/// The precondition every test shares (`SchedTest` reports it as a
/// rejection with a reason): every task fits the device, no task has
/// `Ck > Dk`.
fn precondition_ok<T: Time>(v: &View<'_, T>, cols: u32) -> bool {
    v.area.iter().all(|&a| a <= cols) && !v.exec.iter().zip(v.deadline).any(|(&c, &d)| c > d)
}

/// **Theorem 1 (DP)**: for every τk, `US(Γ) ≤ g_k` ([`dp_capacity`])
/// with `Abnd = A(H) − Amax + 1`, or `A(H) − Amax` for
/// [`DpAreaBound::RealValued`](crate::DpAreaBound::RealValued).
fn dp_kernel<T: Time, R: RowSink>(
    v: &View<'_, T>,
    cols: u32,
    config: DpConfig,
    rows: &mut R,
) -> BatchVerdict {
    let abnd = T::from_i64(config.area_bound(cols, v.amax));
    let us_total = v.us_total;
    let mut margin = (0.0, 0.0);
    for k in 0..v.exec.len() {
        let rhs = dp_capacity(abnd, v.exec[k] / v.period[k], v.us[k]);
        let passed = us_total <= rhs;
        margin = (us_total.to_f64(), rhs.to_f64());
        if R::ENABLED {
            rows.push(KernelRow::new(k, passed, margin));
        }
        if !passed {
            return BatchVerdict { accepted: false, margin: Some(margin) };
        }
    }
    BatchVerdict { accepted: true, margin: Some(margin) }
}

/// **Theorem 2 (GN1)**: for every τk,
/// `Σ_{i≠k} Ai·min(βi, 1 − Ck/Dk) < Abnd·(1 − Ck/Dk)` with
/// `βi = Wi/Di` (or `Wi/Dk`, [`Gn1BetaDenominator::WindowDk`]), `Wi` from
/// Lemma 4 ([`workload_bound`]) and `Abnd = A(H) − Ak + 1` (or the printed
/// `A(H) − Ak`).
fn gn1_kernel<T: Time, R: RowSink>(
    v: &View<'_, T>,
    cols: u32,
    config: Gn1Config,
    rows: &mut R,
) -> BatchVerdict {
    let n = v.exec.len();
    let window_dk = config.beta_denominator == Gn1BetaDenominator::WindowDk;
    let mut margin = (0.0, 0.0);
    for k in 0..n {
        let slack = T::ONE - v.density[k];
        let abnd = T::from_i64(config.area_bound(cols, v.area[k]));
        let dk = v.deadline[k];
        let mut lhs = T::ZERO;
        for i in 0..n {
            if i == k {
                continue;
            }
            let w = workload_bound(v.exec[i], v.deadline[i], v.period[i], dk);
            let beta = w / if window_dk { dk } else { v.deadline[i] };
            lhs = lhs + v.area_t[i] * beta.min_t(slack);
        }
        let rhs = abnd * slack;
        let passed = lhs < rhs;
        margin = (lhs.to_f64(), rhs.to_f64());
        if R::ENABLED {
            rows.push(KernelRow::new(k, passed, margin));
        }
        if !passed {
            return BatchVerdict { accepted: false, margin: Some(margin) };
        }
    }
    BatchVerdict { accepted: true, margin: Some(margin) }
}

/// `(max(1, Tk/Dk), λmax)`: λk = λ·max(1, Tk/Dk) ≤ 1 ⇔ λ ≤ λmax.
fn lambda_scale<T: Time>(v: &View<'_, T>, k: usize) -> (T, T) {
    let scale = (v.period[k] / v.deadline[k]).max_t(T::ONE);
    (scale, T::ONE / scale)
}

/// GN2's λ candidates for a task with utilization `uk`, ascending and
/// deduplicated: the slice of the taskset's sorted pool inside
/// `[uk, λmax]`, plus — for [`Gn2LambdaSearch::Grid`] — `points + 1`
/// evenly spaced values from `uk` to `λmax`, merged through `grid`.
fn candidates<'a, T: Time>(
    pool: &'a [T],
    uk: T,
    lambda_max: T,
    search: Gn2LambdaSearch,
    grid: &'a mut Vec<T>,
) -> &'a [T] {
    let lo = pool.partition_point(|&l| l < uk);
    let hi = pool.partition_point(|&l| l <= lambda_max).max(lo);
    let window = &pool[lo..hi];
    match search {
        Gn2LambdaSearch::Grid { points } if points > 0 && lambda_max > uk => {
            grid.clear();
            grid.extend_from_slice(window);
            let step = (lambda_max - uk) / T::from_i64(points as i64);
            let mut l = uk;
            for _ in 0..=points {
                grid.push(l);
                l = l + step;
            }
            grid.retain(|&l| l >= uk && l <= lambda_max);
            grid.sort_by(|a, b| a.partial_cmp(b).expect("validated times are ordered"));
            grid.dedup_by(|a, b| a == b);
            grid
        }
        _ => window,
    }
}

/// Both sides of Theorem 3's two conditions for one τk at one λ.
struct Gn2Sides<T> {
    lambda_k: T,
    lhs1: T,
    rhs1: T,
    lhs2: T,
    rhs2: T,
}

impl<T: Time> Gn2Sides<T> {
    /// `(condition 1, condition 2)`; condition 2 is strict unless the
    /// configuration asks for the printed `≤`.
    fn holds(&self, strict: bool) -> (bool, bool) {
        let cond2 = if strict { self.lhs2 < self.rhs2 } else { self.lhs2 <= self.rhs2 };
        (self.lhs1 < self.rhs1, cond2)
    }
}

/// The per-taskset constants of Theorem 3.
struct Gn2Context<T> {
    /// `Abnd = A(H) − Amax + 1` (Lemma 1).
    abnd: T,
    amin: T,
    case2: Gn2Case2,
}

impl<T: Time> Gn2Context<T> {
    fn new(v: &View<'_, T>, cols: u32, config: Gn2Config) -> Self {
        Gn2Context {
            abnd: T::from_i64(i64::from(cols) - i64::from(v.amax) + 1),
            amin: T::from_u32(v.amin),
            case2: config.case2,
        }
    }

    /// Theorem 3 at one λ for τk (`scale = max(1, Tk/Dk)`):
    ///
    /// ```text
    /// (1)  Σ_i Ai·min(βλk(i), 1 − λk)  <  Abnd·(1 − λk)
    /// (2)  Σ_i Ai·min(βλk(i), 1)       <  (Abnd − Amin)·(1 − λk) + Amin
    /// ```
    ///
    /// `beta` sees every βλk(i) in task order.
    #[inline(always)]
    fn sides(
        &self,
        v: &View<'_, T>,
        k: usize,
        lambda: T,
        scale: T,
        mut beta: impl FnMut(T),
    ) -> Gn2Sides<T> {
        let lambda_k = lambda * scale;
        let one_minus = T::ONE - lambda_k;
        let dk = v.deadline[k];
        let case2 = match self.case2 {
            Gn2Case2::BakerLambda => lambda,
            Gn2Case2::PaperCkTk => v.ut[k],
        };
        let mut lhs1 = T::ZERO;
        let mut lhs2 = T::ZERO;
        for i in 0..v.exec.len() {
            let b = beta_lambda(v.exec[i], v.deadline[i], v.ut[i], v.density[i], dk, lambda, case2);
            beta(b);
            let a = v.area_t[i];
            lhs1 = lhs1 + a * b.min_t(one_minus);
            lhs2 = lhs2 + a * b.min_t(T::ONE);
        }
        let rhs1 = self.abnd * one_minus;
        let rhs2 = (self.abnd - self.amin) * one_minus + self.amin;
        Gn2Sides { lambda_k, lhs1, rhs1, lhs2, rhs2 }
    }
}

/// **Theorem 3 (GN2)**: for every τk some candidate λ must satisfy
/// condition 1 or 2 (see [`Gn2Context::sides`]). A rejected τk reports
/// the attempt with the smallest condition-2 deficit `lhs2 − rhs2`
/// (compared in `f64`), or `(∞, 0)` when no λ was feasible.
fn gn2_kernel<T: Time, R: RowSink>(
    v: &View<'_, T>,
    cols: u32,
    config: Gn2Config,
    rows: &mut R,
) -> BatchVerdict {
    let ctx = Gn2Context::new(v, cols, config);
    let mut grid = Vec::new();
    let mut margin = (0.0, 0.0);
    for k in 0..v.exec.len() {
        let (scale, lambda_max) = lambda_scale(v, k);
        let mut passing = None;
        let mut best: Option<(f64, f64, T)> = None;
        for &lambda in candidates(v.cand, v.ut[k], lambda_max, config.lambda_search, &mut grid) {
            let s = ctx.sides(v, k, lambda, scale, |_| {});
            let (cond1, cond2) = s.holds(config.condition2_strict);
            let (lhs2, rhs2) = (s.lhs2.to_f64(), s.rhs2.to_f64());
            if best.map_or(true, |(bl, br, _)| lhs2 - rhs2 < bl - br) {
                best = Some((lhs2, rhs2, lambda));
            }
            if cond1 {
                passing = Some(((s.lhs1.to_f64(), s.rhs1.to_f64()), lambda, true));
                break;
            }
            if cond2 {
                passing = Some(((lhs2, rhs2), lambda, false));
                break;
            }
        }
        let (passed, lambda, cond1) = match passing {
            Some((sides, lambda, cond1)) => {
                margin = sides;
                (true, Some(lambda), cond1)
            }
            None => {
                let (l, r, lambda) = match best {
                    Some((l, r, lambda)) => (l, r, Some(lambda)),
                    None => (f64::INFINITY, 0.0, None),
                };
                margin = (l, r);
                (false, lambda, false)
            }
        };
        if R::ENABLED {
            let lambda = lambda.map(Time::to_f64);
            rows.push(KernelRow { lambda, cond1, ..KernelRow::new(k, passed, margin) });
        }
        if !passed {
            return BatchVerdict { accepted: false, margin: Some(margin) };
        }
    }
    BatchVerdict { accepted: true, margin: Some(margin) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_rt_model::Rat64;

    fn fpga10() -> Fpga {
        Fpga::new(10).unwrap()
    }

    fn table1() -> TaskSet<f64> {
        TaskSet::try_from_tuples(&[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]).unwrap()
    }
    fn table2() -> TaskSet<f64> {
        TaskSet::try_from_tuples(&[(4.50, 8.0, 8.0, 3), (8.00, 9.0, 9.0, 5)]).unwrap()
    }
    fn table3() -> TaskSet<f64> {
        TaskSet::try_from_tuples(&[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)]).unwrap()
    }

    #[test]
    fn paper_tables_match_the_verdict_matrix() {
        let dev = fpga10();
        let mut scratch = ScratchSpace::new();
        let cases = [
            (table1(), [true, false, false]),
            (table2(), [false, true, false]),
            (table3(), [false, false, true]),
        ];
        for (ts, want) in cases {
            let v = BatchAnalyzer::new().analyze(&ts, &dev, &mut scratch);
            assert_eq!([v.dp.accepted, v.gn1.accepted, v.gn2.accepted], want, "{ts:?}");
            assert!(v.any_of.accepted);
        }
    }

    #[test]
    fn precondition_rejects_carry_no_margin() {
        let dev = fpga10();
        let mut scratch = ScratchSpace::new();
        let wide = TaskSet::try_from_tuples(&[(1.0, 5.0, 5.0, 11)]).unwrap();
        let infeasible = TaskSet::try_from_tuples(&[(6.0, 5.0, 5.0, 1)]).unwrap();
        for ts in [wide, infeasible] {
            let v = BatchAnalyzer::new().analyze(&ts, &dev, &mut scratch);
            assert_eq!(v.dp, BatchVerdict { accepted: false, margin: None });
            assert_eq!(v.any_of.margin, None);
            let mut rows = Vec::new();
            assert!(!scratch.load(&ts).gn2(&dev, Gn2Config::default(), &mut rows).accepted);
            assert!(rows.is_empty());
        }
    }

    #[test]
    fn analyze_batch_matches_per_taskset_analyze() {
        let dev = fpga10();
        let mut batch = TaskSetBatch::new();
        let sets = [table1(), table2(), table3()];
        for ts in &sets {
            batch.push(ts);
        }
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.total_tasks(), 6);
        let mut out = Vec::new();
        BatchAnalyzer::new().analyze_batch(&batch, &dev, &mut out);
        let mut scratch = ScratchSpace::new();
        for (ts, got) in sets.iter().zip(&out) {
            assert_eq!(*got, BatchAnalyzer::new().analyze(ts, &dev, &mut scratch));
        }
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&table2());
        BatchAnalyzer::new().analyze_batch(&batch, &dev, &mut out);
        assert_eq!(out.len(), 1);
        assert!(!out[0].dp.accepted && out[0].gn1.accepted && !out[0].gn2.accepted);
    }

    #[test]
    fn analyze_series_matches_full_pass() {
        let dev = fpga10();
        let analyzer = BatchAnalyzer::new();
        let mut scratch = ScratchSpace::new();
        for ts in [table1(), table2(), table3()] {
            let full = analyzer.analyze(&ts, &dev, &mut scratch);
            for series in AnalysisSeries::ALL {
                let one = analyzer.analyze_series(series, &ts, &dev, &mut scratch);
                assert_eq!(one, full.series(series), "{}", series.name());
            }
        }
    }

    /// The exact path runs the same kernel: Table 1's DP equality holds
    /// exactly, and GN2's condition-2 equality rejects under the strict
    /// comparison.
    #[test]
    fn exact_arithmetic_runs_the_same_kernel() {
        let r = |n, d| Rat64::new(n, d).unwrap();
        let ts: TaskSet<Rat64> = TaskSet::try_from_tuples(&[
            (r(63, 50), r(7, 1), r(7, 1), 9),
            (r(19, 20), r(5, 1), r(5, 1), 6),
        ])
        .unwrap();
        let mut rows = Vec::new();
        let mut scratch = ScratchSpace::new();
        assert!(scratch.load(&ts).dp(&fpga10(), DpConfig::default(), &mut rows).accepted);
        assert_eq!((rows[1].lhs, rows[1].rhs), (2.76, 2.76));
        let gn2 = scratch.gn2(&fpga10(), Gn2Config::default(), &mut ());
        assert_eq!(gn2, BatchVerdict { accepted: false, margin: Some((2.76, 2.76)) });
    }

    /// DP derives only its own columns: GN1's and GN2's stay empty until
    /// a GN test reads them.
    #[test]
    fn scratch_derives_columns_on_first_use() {
        let mut scratch = ScratchSpace::new();
        scratch.load(&table1()).dp(&fpga10(), DpConfig::default(), &mut ());
        assert!(scratch.batch.density.is_empty() && scratch.batch.cand.is_empty());
        scratch.gn1(&fpga10(), Gn1Config::default(), &mut ());
        assert_eq!(scratch.batch.density.len(), 2);
        assert!(scratch.batch.ut.is_empty());
        scratch.gn2(&fpga10(), Gn2Config::default(), &mut ());
        assert_eq!(scratch.batch.ut.len(), 2);
    }

    #[test]
    fn candidate_pool_is_sorted_and_deduped() {
        // Duplicate utilizations collapse; post-period deadlines add their
        // density.
        let ts = TaskSet::try_from_tuples(&[
            (1.0, 5.0, 5.0, 2),
            (2.0, 10.0, 10.0, 3),
            (4.0, 8.0, 5.0, 2),
        ])
        .unwrap();
        let mut batch = TaskSetBatch::new();
        batch.push(&ts);
        let v = batch.view(0);
        // u = {0.2, 0.2, 0.8}, density(τ2 with D>T) = 0.5 → {0.2, 0.5, 0.8}.
        assert_eq!(v.cand, &[0.2, 0.5, 0.8]);
        assert_eq!(v.amax, 3);
        assert_eq!(v.amin, 2);
    }

    #[test]
    fn workload_bound_matches_paper_table3() {
        // Table 3, k=2: N1 = 1, W1 = 1·2.1 + min(2.1, max(7−5, 0)) = 4.1.
        assert!((workload_bound(2.1, 5.0, 5.0, 7.0) - 4.1).abs() < 1e-12);
        // Table 2, k=1: N2 = ⌊(8−9)/9⌋ + 1 = 0, so W2 is the carry-in alone.
        assert_eq!(workload_bound(8.0, 9.0, 9.0, 8.0), 8.0);
    }

    #[test]
    fn beta_lambda_cases() {
        // Case 1 (Table 3, k=1, λ = 0.42): β = max(2/7, 2/7·(1 − 7/5) + 2/5).
        let b = beta_lambda(2.0, 7.0, 2.0 / 7.0, 2.0 / 7.0, 5.0, 0.42, 0.42);
        assert!((b - 2.0 / 7.0).abs() < 1e-12);
        // Case 2 (τi = (4, 8, 5), λ = 0.6 ∈ [Ci/Di, ui)): the case-2 value.
        assert_eq!(beta_lambda(4.0, 8.0, 0.8, 0.5, 10.0, 0.6, 0.6), 0.6);
        assert_eq!(beta_lambda(4.0, 8.0, 0.8, 0.5, 10.0, 0.6, 0.1), 0.1);
        // Case 3 (Table 2, k=1, λ = 0.5625): 8/9 + (8 − 0.5625·9)/8.
        let b = beta_lambda(8.0, 9.0, 8.0 / 9.0, 8.0 / 9.0, 8.0, 0.5625, 0.5625);
        assert!((b - (8.0 / 9.0 + (8.0 - 0.5625 * 9.0) / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn series_identifiers_are_stable() {
        let names: Vec<&str> = AnalysisSeries::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["DP", "GN1", "GN2", "AnyOf"]);
    }
}
