//! The studies behind `fpga-rt study <name>`: the paper's figure sweep
//! (Figures 3(a)–4(b) with both simulations), the X1–X3 configuration
//! ablations, and the X5/X6/X7/X10/X11 extension studies.
//!
//! Every 1-D study is an evaluator list run by [`run_pool_sweep`] over a
//! figure workload, so its output is byte-identical for any worker count.
//! The 2-D study draws its own population from one seeded stream and
//! evaluates the draws on the same worker pool.
//!
//! ```
//! use fpga_rt_exp::studies::{Study, StudyConfig};
//!
//! let mut config = StudyConfig::new(Study::Partitioned);
//! config.per_bin = 2;
//! config.sim_horizon = 10.0;
//! let output = Study::Partitioned.run(&config).unwrap();
//! assert!(output.text.starts_with("Global vs partitioned EDF on fig3b:"));
//! assert_eq!(output.tables[0].result.series.len(), 3);
//! ```

use crate::ablations::{all_ablations, run_ablation};
use crate::acceptance::{
    standard_evaluators, AcceptanceSeries, Evaluator, SeriesPoint, SweepResult,
};
use crate::output::{render_aligned, render_text, CsvWriter};
use crate::sweep::{run_pool_sweep, PoolSweepConfig, PoolSweepOutcome};
use core::fmt::Write as _;
use fpga_rt_2d::{
    project_to_columns, simulate_2d, Device2D, Scheduler2D, Sim2DConfig, TaskSet2D, TasksetSpec2D,
};
use fpga_rt_analysis::{AnyOfTest, SchedTest};
use fpga_rt_gen::FigureWorkload;
use fpga_rt_pool::{PoolConfig, ShardedPool};
use fpga_rt_sim::{
    partition_taskset, simulate_f64, FitStrategy, Horizon, PlacementPolicy, ReconfigOverhead,
    ReleaseModel, SchedulerKind, SimConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The shared experiment epoch seed (the paper's submission date): the
/// default of every study and of the seeded `fpga-rt` commands.
pub const DEFAULT_SEED: u64 = 20070326;

/// Default simulation horizon, in periods of the largest task period.
pub const DEFAULT_SIM_HORIZON: f64 = 50.0;

/// Random offset assignments the release study simulates per taskset.
const OFFSET_RUNS: u64 = 5;

/// One study of the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    /// Figures 3(a)–4(b): DP, GN1, GN2 and both simulations.
    Figures,
    /// X1–X3: each test against its alternative configuration.
    Ablations,
    /// X5: free migration against contiguous first/best/worst-fit
    /// placement.
    Placement,
    /// X6: per-column reconfiguration overhead, simulated and folded into
    /// execution times.
    Overhead,
    /// X7: global EDF-NF against first-fit-decreasing partitioned EDF.
    Partitioned,
    /// X11: synchronous release against random offsets and sporadic
    /// arrivals.
    Release,
    /// X10: native 2-D simulation against the column projection.
    Twod,
}

impl Study {
    /// Every study, in the order `fpga-rt help` lists them.
    pub const ALL: [Study; 7] = [
        Study::Figures,
        Study::Ablations,
        Study::Placement,
        Study::Overhead,
        Study::Partitioned,
        Study::Release,
        Study::Twod,
    ];

    /// The name `fpga-rt study` takes.
    pub fn name(self) -> &'static str {
        match self {
            Study::Figures => "figures",
            Study::Ablations => "ablations",
            Study::Placement => "placement",
            Study::Overhead => "overhead",
            Study::Partitioned => "partitioned",
            Study::Release => "release",
            Study::Twod => "twod",
        }
    }

    /// Look a study up by [`Study::name`].
    pub fn by_name(name: &str) -> Option<Study> {
        Study::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Tasksets per utilization bin when `--per-bin` is absent.
    pub fn default_per_bin(self) -> usize {
        match self {
            Study::Figures => 500,
            Study::Twod => 300,
            _ => 200,
        }
    }

    /// The `--figure` value used when the flag is absent; `None` for the
    /// 2-D study, which draws no figure workload.
    pub fn default_figure(self) -> Option<&'static str> {
        match self {
            Study::Figures => Some("all"),
            Study::Twod => None,
            _ => Some("fig3b"),
        }
    }

    /// Whether `--sim-horizon` sets anything: the ablations are analytic
    /// only, and the 2-D study fixes its horizons.
    pub fn simulates(self) -> bool {
        !matches!(self, Study::Ablations | Study::Twod)
    }

    /// Resolve a `--figure` value; `all` is accepted by
    /// [`Study::Figures`] only.
    pub fn workloads(self, figure: &str) -> Result<Vec<FigureWorkload>, String> {
        match figure {
            "all" if self == Study::Figures => Ok(FigureWorkload::all()),
            id => FigureWorkload::by_id(id).map(|w| vec![w]).ok_or_else(|| {
                let all = if self == Study::Figures { "|all" } else { "" };
                format!("unknown figure {id:?} (fig3a|fig3b|fig4a|fig4b{all})")
            }),
        }
    }

    /// Run the study. Errors when a panicking evaluator lost samples: a
    /// study must not print curves over a silently reduced population.
    pub fn run(self, config: &StudyConfig) -> Result<StudyOutput, String> {
        let horizon = config.sim_horizon;
        match self {
            Study::Figures => figures(config),
            Study::Ablations => ablations(config),
            Study::Placement => table_study(
                config,
                "X5-placement",
                |id| format!("Placement study on {id} (EDF-NF, sim acceptance):"),
                &placement_evaluators(horizon),
                "Free migration is the paper's assumption; contiguous placement can only\n\
                 lose acceptance (fragmentation). The gap quantifies the assumption's cost.\n",
            ),
            Study::Overhead => table_study(
                config,
                "X6-overhead",
                |id| format!("Overhead sensitivity on {id} (per-column reconfiguration cost):"),
                &overhead_evaluators(horizon),
                "",
            ),
            Study::Partitioned => table_study(
                config,
                "X7-partitioned",
                |id| format!("Global vs partitioned EDF on {id}:"),
                &partitioned_evaluators(horizon),
                "P-EDF/alloc is the density-based allocation test; P-EDF/sim confirms the\n\
                 plan by simulation (alloc acceptance should imply sim acceptance).\n",
            ),
            Study::Release => table_study(
                config,
                "X11-release",
                |id| format!("Release-pattern sensitivity on {id} (EDF-NF):"),
                &release_evaluators(horizon),
                "OFFS×k ≤ SYNC quantifies how optimistic the paper's offsets-0 upper bound\n\
                 is; the gap is the fraction of tasksets whose schedulability verdict\n\
                 depends on release phasing.\n",
            ),
            Study::Twod => twod(config),
        }
    }
}

/// What a study runs on.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Figure workloads; a 1-D study runs once per workload, the 2-D
    /// study ignores them.
    pub workloads: Vec<FigureWorkload>,
    /// Tasksets per utilization bin.
    pub per_bin: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Simulation horizon in periods of the largest task period.
    pub sim_horizon: f64,
    /// Pool worker threads (0 = all available); the output does not
    /// depend on it.
    pub workers: usize,
}

impl StudyConfig {
    /// The study's defaults.
    pub fn new(study: Study) -> Self {
        StudyConfig {
            workloads: study
                .default_figure()
                .map(|f| study.workloads(f).expect("default figures resolve"))
                .unwrap_or_default(),
            per_bin: study.default_per_bin(),
            seed: DEFAULT_SEED,
            sim_horizon: DEFAULT_SIM_HORIZON,
            workers: 0,
        }
    }
}

/// One table of a study's output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyTable {
    /// Table label: the figure id, or the experiment id and figure id
    /// (`X5-placement/fig3b`).
    pub table: String,
    /// The acceptance curves.
    pub result: SweepResult,
}

/// A finished study: the printed report and its tables as data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StudyOutput {
    /// The report, as `fpga-rt study` prints it.
    pub text: String,
    /// Every table of the report, in print order.
    pub tables: Vec<StudyTable>,
}

impl StudyOutput {
    /// The tables as a pretty-printed JSON array.
    pub fn render_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(&self.tables).expect("serializable tables");
        json.push('\n');
        json
    }

    /// The tables as long-form CSV, one row per (table, series, bin):
    /// `table,series,utilization,samples,accepted,ratio`.
    pub fn render_csv(&self) -> String {
        let mut out = CsvWriter::new();
        out.header(["table", "series", "utilization", "samples", "accepted", "ratio"]);
        for table in &self.tables {
            for series in &table.result.series {
                for point in &series.points {
                    out.str_cell(&table.table);
                    out.str_cell(&series.name);
                    out.f64_cell(point.utilization, 6);
                    out.usize_cell(point.samples);
                    out.usize_cell(point.accepted);
                    out.f64_cell(point.ratio(), 6);
                    out.end_row();
                }
            }
        }
        out.finish()
    }
}

fn pool_config(config: &StudyConfig, workload: FigureWorkload) -> PoolSweepConfig {
    let mut pool = PoolSweepConfig::new(workload, config.per_bin, config.seed);
    pool.workers = config.workers;
    pool
}

fn complete(outcome: PoolSweepOutcome) -> Result<SweepResult, String> {
    match outcome.failed_units {
        0 => Ok(outcome.result),
        n => Err(format!(
            "{}: {n} samples lost to panicking evaluators — population not fully evaluated",
            outcome.result.workload_id
        )),
    }
}

fn figures(config: &StudyConfig) -> Result<StudyOutput, String> {
    let evaluators = standard_evaluators(config.sim_horizon);
    let mut output = StudyOutput::default();
    for &workload in &config.workloads {
        let result = complete(run_pool_sweep(&pool_config(config, workload), &evaluators))?;
        let _ = write!(
            output.text,
            "{}  ({} tasksets/bin, seed {})\n\n",
            render_text(&result),
            config.per_bin,
            config.seed
        );
        output.tables.push(StudyTable { table: workload.id.to_string(), result });
    }
    Ok(output)
}

fn ablations(config: &StudyConfig) -> Result<StudyOutput, String> {
    let mut output = StudyOutput::default();
    for &workload in &config.workloads {
        for ablation in all_ablations() {
            let result = complete(run_ablation(&ablation, &pool_config(config, workload)))?;
            let _ = writeln!(
                output.text,
                "== {} — {}\n{}",
                ablation.id,
                ablation.description,
                render_text(&result)
            );
            output
                .tables
                .push(StudyTable { table: format!("{}/{}", ablation.id, workload.id), result });
        }
    }
    Ok(output)
}

/// A one-table-per-workload study: a title line, the table, a blank line,
/// and after the last table the study's closing note.
fn table_study(
    config: &StudyConfig,
    label: &str,
    title: impl Fn(&str) -> String,
    evaluators: &[Evaluator],
    note: &str,
) -> Result<StudyOutput, String> {
    let mut output = StudyOutput::default();
    for &workload in &config.workloads {
        let result = complete(run_pool_sweep(&pool_config(config, workload), evaluators))?;
        let _ = writeln!(output.text, "{}\n{}", title(workload.id), render_text(&result));
        output.tables.push(StudyTable { table: format!("{label}/{}", workload.id), result });
    }
    output.text.push_str(note);
    Ok(output)
}

fn nf_sim(horizon: f64) -> SimConfig {
    SimConfig::default()
        .with_scheduler(SchedulerKind::EdfNf)
        .with_horizon(Horizon::PeriodsOfTmax(horizon))
}

/// X5: how much acceptance is lost when jobs need contiguous columns
/// chosen without defragmentation.
fn placement_evaluators(horizon: f64) -> Vec<Evaluator> {
    let base = nf_sim(horizon);
    let contiguous = |fit| base.clone().with_placement(PlacementPolicy::Contiguous(fit));
    vec![
        Evaluator::from_sim_config("NF/free-mig", base.clone()),
        Evaluator::from_sim_config("NF/first-fit", contiguous(FitStrategy::FirstFit)),
        Evaluator::from_sim_config("NF/best-fit", contiguous(FitStrategy::BestFit)),
        Evaluator::from_sim_config("NF/worst-fit", contiguous(FitStrategy::WorstFit)),
    ]
}

/// X6: per-column overhead in time units per column (at 0.002 a
/// 100-column full reconfiguration costs 0.2, small against periods of
/// 5–20). `SIM@x` simulates it; `ANY@x` is the paper's recipe of folding
/// each task's own reconfiguration cost into its execution time.
fn overhead_evaluators(horizon: f64) -> Vec<Evaluator> {
    let mut evaluators = Vec::new();
    for oh in [0.0, 0.001, 0.002, 0.005, 0.01] {
        let cfg = nf_sim(horizon).with_overhead(ReconfigOverhead::PerColumn(oh));
        evaluators.push(Evaluator::from_sim_config(format!("SIM@{oh}"), cfg));
        evaluators.push(Evaluator::new(format!("ANY@{oh}"), move |ts, dev| {
            let inflated: Result<Vec<_>, _> =
                ts.iter().map(|(_, t)| t.with_exec_inflated(oh * f64::from(t.area()))).collect();
            match inflated.and_then(fpga_rt_model::TaskSet::new) {
                Ok(its) => AnyOfTest::paper_suite().is_schedulable(&its, dev),
                Err(_) => false,
            }
        }));
    }
    evaluators
}

/// X7: the density-based first-fit-decreasing allocation, and its plan
/// confirmed by simulation (a failed allocation rejects).
fn partitioned_evaluators(horizon: f64) -> Vec<Evaluator> {
    vec![
        Evaluator::from_sim(SchedulerKind::EdfNf, horizon),
        Evaluator::new("P-EDF/alloc", |ts, dev| partition_taskset(ts, dev).is_ok()),
        Evaluator::new("P-EDF/sim", move |ts, dev| match partition_taskset(ts, dev) {
            Ok(plan) => {
                let cfg = SimConfig::default()
                    .with_scheduler(SchedulerKind::Partitioned(plan))
                    .with_horizon(Horizon::PeriodsOfTmax(horizon));
                simulate_f64(ts, dev, &cfg).map(|o| o.schedulable()).unwrap_or(false)
            }
            Err(_) => false,
        }),
    ]
}

/// X11: `OFFS×k` accepts only if all [`OFFSET_RUNS`] random offset
/// assignments run clean; `SPOR(0.3)` releases sporadically with 30%
/// jitter.
fn release_evaluators(horizon: f64) -> Vec<Evaluator> {
    let base = nf_sim(horizon);
    let offsets = base.clone();
    vec![
        Evaluator::from_sim_config("SYNC", base.clone()),
        Evaluator::new(format!("OFFS×{OFFSET_RUNS}"), move |ts, dev| {
            (0..OFFSET_RUNS).all(|i| {
                let cfg = offsets
                    .clone()
                    .with_release(ReleaseModel::RandomOffsets { seed: 0xC0FFEE + i });
                simulate_f64(ts, dev, &cfg).map(|o| o.schedulable()).unwrap_or(false)
            })
        }),
        Evaluator::from_sim_config(
            "SPOR(0.3)",
            base.with_release(ReleaseModel::Sporadic { jitter: 0.3, seed: 0xC0FFEE }),
        ),
    ]
}

/// Utilization bins of the 2-D study.
const TWOD_BINS: usize = 10;

/// The 2-D study's series, in [`twod_verdicts`] order.
const TWOD_SERIES: [&str; 4] = ["2D-SIM-NF", "2D-SIM-FkF", "PROJ-ANY", "PROJ-SIM"];

/// Native EDF-NF and EDF-FkF on the device, DP∪GN1∪GN2 on the
/// full-height column projection, and 1-D EDF-NF simulation of the
/// projection (the projection's cost alone, without test pessimism).
fn twod_verdicts(ts: &TaskSet2D<f64>, device: &Device2D) -> [bool; 4] {
    let native = |config: Sim2DConfig| {
        simulate_2d(ts, device, &config).expect("drawn tasksets fit the device").schedulable()
    };
    let (ts1d, fpga) = project_to_columns(ts, device).expect("drawn tasksets project");
    let proj_sim = simulate_f64(&ts1d, &fpga, &nf_sim(100.0)).expect("valid projection");
    [
        native(Sim2DConfig::default()),
        native(Sim2DConfig { scheduler: Scheduler2D::EdfFkf, ..Sim2DConfig::default() }),
        AnyOfTest::paper_suite().is_schedulable(&ts1d, &fpga),
        proj_sim.schedulable(),
    ]
}

/// X10: six rectangle tasks on a 16×8 device, binned by normalized system
/// utilization (CLB·time over device cells).
fn twod(config: &StudyConfig) -> Result<StudyOutput, String> {
    let device = Device2D::new(16, 8).expect("16×8 is a valid device");
    let spec = TasksetSpec2D {
        n_tasks: 6,
        period_range: (5.0, 20.0),
        exec_factor_range: (0.0, 1.0),
        w_range: (2, 12),
        h_range: (1, 6),
    };
    // Rejection-sample one seeded stream until every bin holds `per_bin`
    // draws. Which draws land depends on utilization only, so evaluating
    // them afterwards, in any order, cannot change the table.
    let per_bin = config.per_bin;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut samples = [0usize; TWOD_BINS];
    let mut bins = Vec::new();
    let mut sets = Vec::new();
    let mut attempts = 0usize;
    while samples.iter().any(|&n| n < per_bin) && attempts < per_bin * TWOD_BINS * 200 {
        attempts += 1;
        let ts = spec.generate(&mut rng);
        let u = ts.system_utilization() / f64::from(device.cells());
        let bin = (u * TWOD_BINS as f64) as usize;
        if u >= 1.0 || samples[bin] >= per_bin {
            continue;
        }
        samples[bin] += 1;
        bins.push(bin);
        sets.push(ts);
    }

    let shards = 256u32;
    let mut pool: ShardedPool<TaskSet2D<f64>, [bool; 4]> = ShardedPool::new(
        PoolConfig { workers: config.workers, shards },
        |_shard| (),
        move |(), _shard, ts| twod_verdicts(&ts, &device),
    );
    let results = pool
        .run_batch(sets.into_iter().enumerate().map(|(i, ts)| ((i % shards as usize) as u32, ts)))
        .expect("pool workers cannot die: panics are contained");
    let mut accepted = [[0usize; 4]; TWOD_BINS];
    for (&bin, result) in bins.iter().zip(results) {
        let verdicts = result.map_err(|e| format!("twod: {e}"))?;
        for (count, ok) in accepted[bin].iter_mut().zip(verdicts) {
            *count += usize::from(ok);
        }
    }

    let series = TWOD_SERIES
        .iter()
        .enumerate()
        .map(|(k, name)| AcceptanceSeries {
            name: name.to_string(),
            points: (0..TWOD_BINS)
                .map(|bin| SeriesPoint {
                    utilization: (bin as f64 + 0.5) / TWOD_BINS as f64,
                    samples: samples[bin],
                    accepted: accepted[bin][k],
                })
                .collect(),
        })
        .collect();
    let result = SweepResult {
        workload_id: "twod".to_string(),
        caption: format!("2-D study on {device}: native simulation vs column projection"),
        series,
    };
    let text = format!(
        "{}\n\
         PROJ-ANY ≤ PROJ-SIM ≤ 2D-SIM-NF by construction; the PROJ→2D gap is the\n\
         price of the full-height reservation, the ANY→PROJ-SIM gap is test pessimism.\n",
        render_aligned(&result.caption, &result, |name| name.len().max(9))
    );
    Ok(StudyOutput { text, tables: vec![StudyTable { table: "X10-twod".to_string(), result }] })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(study: Study, workers: usize) -> StudyOutput {
        let mut config = StudyConfig::new(study);
        config.per_bin = 2;
        config.sim_horizon = 10.0;
        config.workers = workers;
        study.run(&config).unwrap()
    }

    #[test]
    fn names_round_trip() {
        for study in Study::ALL {
            assert_eq!(Study::by_name(study.name()), Some(study));
        }
        assert_eq!(Study::by_name("tables"), None);
    }

    #[test]
    fn all_is_a_figures_only_spelling() {
        assert_eq!(Study::Figures.workloads("all").unwrap().len(), 4);
        let err = Study::Placement.workloads("all").unwrap_err();
        assert!(err.contains("fig3a|fig3b|fig4a|fig4b)"), "{err}");
        assert!(Study::Figures.workloads("fig9z").unwrap_err().contains("|all)"));
        assert!(StudyConfig::new(Study::Twod).workloads.is_empty());
    }

    /// Every study is worker-count invariant, text and tables alike.
    #[test]
    fn every_study_is_worker_count_invariant() {
        for study in Study::ALL {
            let one = tiny(study, 1);
            assert_eq!(one, tiny(study, 3), "{}", study.name());
            assert!(!one.tables.is_empty(), "{}", study.name());
        }
    }

    #[test]
    fn artifacts_carry_every_table() {
        let output = tiny(Study::Ablations, 2);
        assert_eq!(output.tables.len(), 3);
        assert_eq!(output.tables[0].table, "X1-gn1-denominator/fig3b");
        let back: Vec<StudyTable> = serde_json::from_str(&output.render_json()).unwrap();
        assert_eq!(back, output.tables);
        let csv = output.render_csv();
        assert!(csv.starts_with("table,series,utilization,samples,accepted,ratio\n"), "{csv}");
        // 3 ablations × 2 series × 20 bins.
        assert_eq!(csv.lines().count(), 1 + 3 * 2 * 20);
    }

    #[test]
    fn twod_table_layout() {
        let output = tiny(Study::Twod, 2);
        let mut lines = output.text.lines();
        assert_eq!(
            lines.next(),
            Some("2-D study on FPGA[16×8]: native simulation vs column projection")
        );
        assert_eq!(lines.next(), Some("  US/A  samples 2D-SIM-NF 2D-SIM-FkF  PROJ-ANY  PROJ-SIM"));
        let series = &output.tables[0].result.series;
        for bin in 0..TWOD_BINS {
            // The projection is sound: PROJ-ANY never beats PROJ-SIM.
            assert!(series[2].points[bin].accepted <= series[3].points[bin].accepted);
        }
    }
}
