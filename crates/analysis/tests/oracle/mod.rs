//! The reference oracle: the per-task scalar loops of Theorems 1–3,
//! written straight from the formulas over `Task` accessors, one
//! allocation-heavy `TestReport` per call. The kernel in
//! `fpga_rt_analysis::batch` is a re-packing of exactly these operations,
//! so its verdicts and rows must equal the oracle's bit for bit — in `f64`
//! and in `Rat64` (where the oracle also fixes which operations may
//! overflow).

#![allow(dead_code)]

use fpga_rt_analysis::{
    DpAreaBound, DpConfig, DpTest, Gn1BetaDenominator, Gn1Config, Gn1Test, Gn2Attempt, Gn2Case2,
    Gn2Config, Gn2LambdaSearch, Gn2Test, SchedTest, TaskCheck, TestReport, Verdict,
};
use fpga_rt_model::{Fpga, ModelError, Task, TaskId, TaskSet, Time};

/// The shared precondition guard: a task wider than the device, or one
/// with `C > D`, rejects before any arithmetic.
fn precondition_reject<T: Time>(
    test_name: &str,
    taskset: &TaskSet<T>,
    device: &Fpga,
) -> Option<TestReport> {
    if let Err(e) = taskset.validate_for(device) {
        let failing = match &e {
            ModelError::TaskWiderThanDevice { task, .. } => Some(TaskId(*task)),
            _ => None,
        };
        return Some(TestReport {
            test: test_name.to_string(),
            verdict: Verdict::rejected(failing, e.to_string()),
            checks: vec![],
        });
    }
    for (id, t) in taskset.iter() {
        if t.is_trivially_infeasible() {
            return Some(TestReport {
                test: test_name.to_string(),
                verdict: Verdict::rejected(
                    Some(id),
                    format!("{id} has C > D and can never meet a deadline"),
                ),
                checks: vec![],
            });
        }
    }
    None
}

/// Theorem 1: `US(Γ) ≤ Abnd·(1 − UT(τk)) + US(τk)` for every τk.
pub fn dp<T: Time>(config: DpConfig, taskset: &TaskSet<T>, device: &Fpga) -> TestReport {
    let name = SchedTest::<T>::name(&DpTest::new(config)).to_string();
    if let Some(rep) = precondition_reject(&name, taskset, device) {
        return rep;
    }
    let base = i64::from(device.columns()) - i64::from(taskset.amax());
    let abnd: T = match config.area_bound {
        DpAreaBound::IntegerColumns => T::from_i64(base + 1),
        DpAreaBound::RealValued => T::from_i64(base),
    };
    let us_total = taskset.system_utilization();
    let mut checks = Vec::with_capacity(taskset.len());
    for (id, t) in taskset.iter() {
        let rhs = abnd * (T::ONE - t.time_utilization()) + t.system_utilization();
        let passed = us_total <= rhs;
        checks.push(TaskCheck {
            task: id,
            passed,
            lhs: us_total.to_f64(),
            rhs: rhs.to_f64(),
            note: format!("US(Γ) ≤ Abnd·(1−UT({id})) + US({id}), Abnd={}", abnd.to_f64()),
        });
        if !passed {
            return TestReport {
                test: name,
                verdict: Verdict::rejected(
                    Some(id),
                    format!(
                        "US(Γ)={:.6} exceeds bound {:.6} at {id}",
                        us_total.to_f64(),
                        rhs.to_f64()
                    ),
                ),
                checks,
            };
        }
    }
    TestReport { test: name, verdict: Verdict::Accepted, checks }
}

/// Lemma 4: `Wi = Ni·Ci + min(Ci, max(Dk − Ni·Ti, 0))`.
fn workload<T: Time>(ti: &Task<T>, dk: T) -> T {
    let ni = ((dk - ti.deadline()) / ti.period()).floor_i64() + 1;
    let ni = T::from_i64(ni.max(0));
    let carry_in = ti.exec().min_t((dk - ni * ti.period()).max_zero());
    ni * ti.exec() + carry_in
}

/// Theorem 2:
/// `Σ_{i≠k} Ai·min(βi, 1 − Ck/Dk) < (A(H) − Ak + 1)·(1 − Ck/Dk)`.
pub fn gn1<T: Time>(config: Gn1Config, taskset: &TaskSet<T>, device: &Fpga) -> TestReport {
    let name = SchedTest::<T>::name(&Gn1Test::new(config)).to_string();
    if let Some(rep) = precondition_reject(&name, taskset, device) {
        return rep;
    }
    // Every density up front, before any per-task row.
    let densities: Vec<T> = taskset.tasks().iter().map(Task::density).collect();
    let mut checks = Vec::with_capacity(taskset.len());
    for (k, tk) in taskset.iter() {
        let slack_ratio = T::ONE - densities[k.0];
        let base = i64::from(device.columns()) - i64::from(tk.area());
        let abnd = T::from_i64(if config.rhs_plus_one { base + 1 } else { base });
        let mut lhs = T::ZERO;
        for (i, ti) in taskset.iter() {
            if i == k {
                continue;
            }
            let w = workload(ti, tk.deadline());
            let denom = match config.beta_denominator {
                Gn1BetaDenominator::InterferingDi => ti.deadline(),
                Gn1BetaDenominator::WindowDk => tk.deadline(),
            };
            lhs = lhs + ti.area_t() * (w / denom).min_t(slack_ratio);
        }
        let rhs = abnd * slack_ratio;
        let passed = lhs < rhs;
        checks.push(TaskCheck {
            task: k,
            passed,
            lhs: lhs.to_f64(),
            rhs: rhs.to_f64(),
            note: format!("Σ Ai·min(βi, 1−Ck/Dk) < {}·(1−Ck/Dk)", abnd.to_f64()),
        });
        if !passed {
            return TestReport {
                test: name,
                verdict: Verdict::rejected(
                    Some(k),
                    format!(
                        "interference {:.6} not below bound {:.6} at {k}",
                        lhs.to_f64(),
                        rhs.to_f64()
                    ),
                ),
                checks,
            };
        }
    }
    TestReport { test: name, verdict: Verdict::Accepted, checks }
}

fn sort_dedup<T: Time>(v: &mut Vec<T>) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("validated times are ordered"));
    v.dedup_by(|a, b| a == b);
}

/// Lemma 7: `βλk(i)` with the configured case-2 value.
fn beta_lambda<T: Time>(config: Gn2Config, ti: &Task<T>, tk: &Task<T>, lambda: T) -> T {
    let ui = ti.time_utilization();
    let dk = tk.deadline();
    if ui <= lambda {
        let extended = ui * (T::ONE - ti.deadline() / dk) + ti.exec() / dk;
        ui.max_t(extended)
    } else if lambda >= ti.density() {
        match config.case2 {
            Gn2Case2::BakerLambda => lambda,
            Gn2Case2::PaperCkTk => tk.time_utilization(),
        }
    } else {
        ui + (ti.exec() - lambda * ti.deadline()) / dk
    }
}

/// GN2's λ candidates for τk: `{Ci/Ti} ∪ {Ci/Di : Di > Ti}` (plus grid
/// points) filtered to `[Ck/Tk, λmax]`, sorted and deduplicated.
pub fn lambda_candidates<T: Time>(config: Gn2Config, taskset: &TaskSet<T>, k: usize) -> Vec<T> {
    let tk = taskset.task(k);
    let uk = tk.time_utilization();
    let scale = (tk.period() / tk.deadline()).max_t(T::ONE);
    let lambda_max = T::ONE / scale;
    let mut cands: Vec<T> = Vec::new();
    for t in taskset {
        cands.push(t.time_utilization());
        if t.deadline() > t.period() {
            cands.push(t.density());
        }
    }
    cands.retain(|&l| l >= uk && l <= lambda_max);
    if let Gn2LambdaSearch::Grid { points } = config.lambda_search {
        if points > 0 && lambda_max > uk {
            let step = (lambda_max - uk) / T::from_i64(points as i64);
            let mut v = uk;
            for _ in 0..=points {
                cands.push(v);
                v = v + step;
            }
            cands.retain(|&l| l >= uk && l <= lambda_max);
        }
    }
    sort_dedup(&mut cands);
    cands
}

/// Both conditions of Theorem 3 for τk at one λ.
pub fn evaluate_at<T: Time>(
    config: Gn2Config,
    taskset: &TaskSet<T>,
    device: &Fpga,
    k: usize,
    lambda: T,
) -> Gn2Attempt {
    let tk = taskset.task(k);
    let scale = (tk.period() / tk.deadline()).max_t(T::ONE);
    let lambda_k = lambda * scale;
    let one_minus = T::ONE - lambda_k;
    let abnd = T::from_i64(i64::from(device.columns()) - i64::from(taskset.amax()) + 1);
    let amin = T::from_u32(taskset.amin());
    let mut lhs1 = T::ZERO;
    let mut lhs2 = T::ZERO;
    let mut betas = Vec::with_capacity(taskset.len());
    for ti in taskset {
        let beta = beta_lambda(config, ti, tk, lambda);
        betas.push(beta.to_f64());
        let a = ti.area_t();
        lhs1 = lhs1 + a * beta.min_t(one_minus);
        lhs2 = lhs2 + a * beta.min_t(T::ONE);
    }
    let rhs1 = abnd * one_minus;
    let rhs2 = (abnd - amin) * one_minus + amin;
    let cond1 = lhs1 < rhs1;
    let cond2 = if config.condition2_strict { lhs2 < rhs2 } else { lhs2 <= rhs2 };
    Gn2Attempt {
        lambda: lambda.to_f64(),
        lambda_k: lambda_k.to_f64(),
        lhs1: lhs1.to_f64(),
        rhs1: rhs1.to_f64(),
        cond1,
        lhs2: lhs2.to_f64(),
        rhs2: rhs2.to_f64(),
        cond2,
        betas,
    }
}

/// Every attempt for τk in candidate order.
pub fn gn2_attempts<T: Time>(
    config: Gn2Config,
    taskset: &TaskSet<T>,
    device: &Fpga,
    k: usize,
) -> Vec<Gn2Attempt> {
    lambda_candidates(config, taskset, k)
        .into_iter()
        .map(|l| evaluate_at(config, taskset, device, k, l))
        .collect()
}

/// Theorem 3: for every τk some λ satisfies condition 1 or 2.
pub fn gn2<T: Time>(config: Gn2Config, taskset: &TaskSet<T>, device: &Fpga) -> TestReport {
    let name = SchedTest::<T>::name(&Gn2Test::new(config)).to_string();
    if let Some(rep) = precondition_reject(&name, taskset, device) {
        return rep;
    }
    let mut checks = Vec::with_capacity(taskset.len());
    for k in 0..taskset.len() {
        let mut passing: Option<Gn2Attempt> = None;
        let mut best: Option<Gn2Attempt> = None;
        for lambda in lambda_candidates(config, taskset, k) {
            let attempt = evaluate_at(config, taskset, device, k, lambda);
            let ok = attempt.cond1 || attempt.cond2;
            let better = match &best {
                None => true,
                Some(b) => attempt.lhs2 - attempt.rhs2 < b.lhs2 - b.rhs2,
            };
            if better {
                best = Some(attempt.clone());
            }
            if ok {
                passing = Some(attempt);
                break;
            }
        }
        let id = TaskId(k);
        match passing {
            Some(a) => {
                let via = if a.cond1 { "cond1" } else { "cond2" };
                checks.push(TaskCheck {
                    task: id,
                    passed: true,
                    lhs: if a.cond1 { a.lhs1 } else { a.lhs2 },
                    rhs: if a.cond1 { a.rhs1 } else { a.rhs2 },
                    note: format!("{via} holds at λ={:.6}", a.lambda),
                });
            }
            None => {
                let (lhs, rhs, note) = match best {
                    Some(b) => {
                        (b.lhs2, b.rhs2, format!("no λ works; closest at λ={:.6}", b.lambda))
                    }
                    None => (f64::INFINITY, 0.0, "no feasible λ candidate".to_string()),
                };
                checks.push(TaskCheck { task: id, passed: false, lhs, rhs, note });
                return TestReport {
                    test: name,
                    verdict: Verdict::rejected(
                        Some(id),
                        format!("no λ satisfies condition 1 or 2 for {id}"),
                    ),
                    checks,
                };
            }
        }
    }
    TestReport { test: name, verdict: Verdict::Accepted, checks }
}

/// The paper-default DP → GN1 → GN2 cascade (the admission controller's
/// exact re-check): the first accepting test's report, else GN2's.
pub fn cascade<T: Time>(taskset: &TaskSet<T>, device: &Fpga) -> TestReport {
    let dp = dp(DpConfig::default(), taskset, device);
    if dp.accepted() {
        return dp;
    }
    let gn1 = gn1(Gn1Config::default(), taskset, device);
    if gn1.accepted() {
        return gn1;
    }
    gn2(Gn2Config::default(), taskset, device)
}
