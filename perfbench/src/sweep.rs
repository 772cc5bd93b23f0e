//! The offline workload: the fig4b acceptance-ratio sweep through the batch
//! kernel, each request one single-worker `fpga-rt sweep` process run back
//! to back on one CPU, its
//! curve checked against a reference computed before timing starts with
//! the paper's tests (`DpTest`, `Gn1Test`, `Gn2Test`) one taskset at a time.

use crate::speed::scaled;
use crate::stats::{median, quantile, tail};
use crate::trace::Spans;
use fpga_rt_analysis::{BatchAnalyzer, DpTest, Gn1Test, Gn2Test, SchedTest, TaskSetBatch};
use fpga_rt_exp::acceptance::{sample_seed, SweepResult};
use fpga_rt_gen::{BinnedGenerator, FigureWorkload, UtilizationBins};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Utilization bins (the `fpga-rt sweep` default).
pub const BINS: usize = 20;
/// Tasksets per bin in a timed request.
pub const PER_BIN: usize = 2000;
/// Timed requests per run, at least.
const MIN_REQUESTS: usize = 8;
/// Tasksets per bin in a set-up request: the fixed cost of one sweep.
const SETUP_PER_BIN: usize = 1;
/// Sweep workers, and the CPU every sweep process runs on. The two vCPUs
/// of a virtual machine may share a physical core, so two busy workers
/// slow each other by as much as the host decides: with 2 workers the CPU
/// per taskset drifted between 10 and 15 µs over minutes. One worker on
/// one CPU measures the kernel without that.
const WORKERS: usize = 1;
const SWEEP_CPU: usize = 0;
/// Tasksets per kernel block (the sweep engine's work unit).
const BLOCK: usize = 64;

/// Per-series `(samples, accepted)` per bin, series in the sweep's order.
type Curve = Vec<(String, Vec<(usize, usize)>)>;

fn generator(bins: usize) -> BinnedGenerator {
    let w = FigureWorkload::fig4b();
    BinnedGenerator::new(w.spec, w.device_columns, UtilizationBins::new(0.0, 1.0, bins))
        .with_strategy(w.strategy)
}

/// The curve `fpga-rt sweep --figure fig4b` must produce, from the
/// per-taskset tests, bins split over two threads.
pub fn reference(seed: u64, per_bin: usize) -> Curve {
    let gen = generator(BINS);
    let device = FigureWorkload::fig4b().device();
    let bin_counts = |bin: usize| {
        let mut c = [(0usize, 0usize); 4];
        for s in 0..per_bin {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed, bin, s));
            let Some(ts) = gen.sample_in_bin(bin, &mut rng) else { continue };
            let dp = SchedTest::<f64>::is_schedulable(&DpTest::default(), &ts, &device);
            let gn1 = SchedTest::<f64>::is_schedulable(&Gn1Test::default(), &ts, &device);
            let gn2 = SchedTest::<f64>::is_schedulable(&Gn2Test::default(), &ts, &device);
            for (k, accepted) in [dp, gn1, gn2, dp || gn1 || gn2].into_iter().enumerate() {
                c[k].0 += 1;
                c[k].1 += usize::from(accepted);
            }
        }
        c
    };
    let per_bin_counts: Vec<[(usize, usize); 4]> = std::thread::scope(|scope| {
        let odd = scope.spawn(|| (1..BINS).step_by(2).map(bin_counts).collect::<Vec<_>>());
        let even: Vec<_> = (0..BINS).step_by(2).map(bin_counts).collect();
        let odd = odd.join().expect("reference thread panicked");
        (0..BINS).map(|b| if b % 2 == 0 { even[b / 2] } else { odd[b / 2] }).collect()
    });
    ["DP", "GN1", "GN2", "AnyOf"]
        .iter()
        .enumerate()
        .map(|(k, name)| (name.to_string(), per_bin_counts.iter().map(|c| c[k]).collect()))
        .collect()
}

fn curve_of(result: &SweepResult) -> Curve {
    result
        .series
        .iter()
        .map(|s| (s.name.clone(), s.points.iter().map(|p| (p.samples, p.accepted)).collect()))
        .collect()
}

/// One sweep request's outcome.
struct Request {
    wall_s: f64,
    /// CPU time of the sweep process, all its threads (s), and the
    /// reference kernel's time around it (µs).
    cpu_s: f64,
    ref_us: f64,
    peak_rss_mb: f64,
    tasksets: usize,
    ok: bool,
}

impl Request {
    fn cpu_us_per_taskset(&self) -> f64 {
        self.cpu_s * 1e6 / self.tasksets.max(1) as f64
    }
}

/// Run one `fpga-rt sweep` process and check its curve.
fn request(
    exe: &Path,
    work: &Path,
    seed: u64,
    per_bin: usize,
    want: &Curve,
    metrics: bool,
) -> Result<Request, String> {
    let out = work.join("sweep.json");
    let mut cmd = Command::new(exe);
    cmd.args(["fpga-rt", "sweep", "--figure", "fig4b", "--bins", &BINS.to_string()])
        .args(["--per-bin", &per_bin.to_string(), "--workers", &WORKERS.to_string()])
        .args(["--seed", &seed.to_string(), "--out", &out.display().to_string()]);
    if metrics {
        cmd.args(["--metrics-out", &work.join("sweep-metrics.json").display().to_string()]);
    }
    let ref_before = crate::speed::reading(SWEEP_CPU, SWEEP_CPU);
    let t = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot launch the sweep: {e}"))?;
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let ref_us = (ref_before + crate::speed::reading(SWEEP_CPU, SWEEP_CPU)) / 2.0;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!("sweep failed: {stderr}"));
    }
    let peak_rss_mb =
        crate::marker(&stderr, crate::PEAK_RSS_KB).ok_or("sweep reported no peak RSS")? / 1024.0;
    let cpu_s = crate::marker(&stderr, crate::CPU_NS).ok_or("sweep reported no CPU time")? / 1e9;
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let result: SweepResult =
        serde_json::from_str(&text).map_err(|e| format!("sweep output: {e}"))?;
    let got = curve_of(&result);
    let ok = &got == want;
    if !ok {
        eprintln!("sweep curve differs from the reference (seed {seed}, per-bin {per_bin})");
    }
    let tasksets = got.first().map_or(0, |(_, points)| points.iter().map(|p| p.0).sum());
    Ok(Request { wall_s, cpu_s, ref_us, peak_rss_mb, tasksets, ok })
}

/// The outcome of the sweep workload.
pub struct Outcome {
    /// Medians over the set-up requests: CPU time scaled to the reference
    /// speed (see [`crate::speed`]), CPU time and wall time (s).
    pub setup_s: f64,
    pub setup_cpu_s: f64,
    pub setup_wall_s: f64,
    /// Medians over the timed requests of the CPU time per taskset (µs):
    /// scaled to the reference speed, and as measured.
    pub cpu_us_per_taskset_scaled: f64,
    pub cpu_us_per_taskset: f64,
    /// The reference kernel's time around a timed request, median (µs).
    pub ref_us: f64,
    /// Wall time of a timed request over all of them (µs): the p50, and
    /// the level and value of the tail quantile (see `stats::tail`); and
    /// tasksets per second of wall time.
    pub latency_p50_us: f64,
    pub latency_tail: (f64, f64),
    pub tasksets_per_s: f64,
    pub peak_rss_mb: f64,
    /// Whether the sweep processes ran on `SWEEP_CPU` alone.
    pub pinned: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Requests back to back for `seconds` (at least `MIN_REQUESTS`), after
/// `setup_trials` minimal requests that time the sweep's fixed cost.
pub fn run(
    exe: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    setup_trials: usize,
    metrics: bool,
) -> Result<Outcome, String> {
    let want_setup = reference(seed, SETUP_PER_BIN);
    let want = reference(seed, PER_BIN);
    // The sweep processes inherit this thread's CPU.
    let pinned = crate::sys::pin_thread(0, SWEEP_CPU);
    let mut setup = Vec::new();
    for _ in 0..setup_trials {
        setup.push(request(exe, work, seed, SETUP_PER_BIN, &want_setup, metrics)?);
    }
    let start = Instant::now();
    let mut done = Vec::new();
    while done.len() < MIN_REQUESTS || start.elapsed().as_secs_f64() < seconds {
        done.push(request(exe, work, seed, PER_BIN, &want, metrics)?);
    }
    let failed = setup.iter().chain(&done).filter(|r| !r.ok).count() as u64;
    let of = |rs: &[Request], f: fn(&Request) -> f64| rs.iter().map(f).collect::<Vec<_>>();
    let wall_us = of(&done, |r| r.wall_s * 1e6);
    let tasksets: usize = done.iter().map(|r| r.tasksets).sum();
    Ok(Outcome {
        setup_s: median(&of(&setup, |r| scaled(r.cpu_s, r.ref_us))),
        setup_cpu_s: median(&of(&setup, |r| r.cpu_s)),
        setup_wall_s: median(&of(&setup, |r| r.wall_s)),
        cpu_us_per_taskset_scaled: median(&of(&done, |r| scaled(r.cpu_us_per_taskset(), r.ref_us))),
        cpu_us_per_taskset: median(&of(&done, Request::cpu_us_per_taskset)),
        ref_us: median(&of(&done, |r| r.ref_us)),
        latency_p50_us: quantile(&wall_us, 0.5),
        latency_tail: tail(&wall_us),
        tasksets_per_s: tasksets as f64 / done.iter().map(|r| r.wall_s).sum::<f64>(),
        peak_rss_mb: median(&of(&done, |r| r.peak_rss_mb)),
        pinned,
        attempted: (setup_trials + done.len()) as u64,
        failed,
    })
}

/// The sweep path's layers, timed from outside over one request's
/// population on one thread: drawing tasksets (`gen`), packing them into a
/// `TaskSetBatch` and one `BatchAnalyzer::analyze_batch` pass per block.
/// Returns `(draw, pack, evaluate)` in µs per taskset.
pub fn layers(seed: u64, epoch: Instant, spans: &mut Spans) -> (f64, f64, f64) {
    let gen = generator(BINS);
    let device = FigureWorkload::fig4b().device();
    let analyzer = BatchAnalyzer::new();
    let mut batch = TaskSetBatch::new();
    let mut verdicts = Vec::new();
    let (mut draw_ns, mut pack_ns, mut eval_ns, mut tasksets) = (0u128, 0u128, 0u128, 0usize);
    let total = BINS * PER_BIN;
    let at = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    for block in 0..total.div_ceil(BLOCK) {
        let units = block * BLOCK..((block + 1) * BLOCK).min(total);
        let id = format!("block{block}");
        let t0 = Instant::now();
        let drawn: Vec<_> = units
            .filter_map(|u| {
                let mut rng = StdRng::seed_from_u64(sample_seed(seed, u / PER_BIN, u % PER_BIN));
                gen.sample_in_bin(u / PER_BIN, &mut rng)
            })
            .collect();
        let t1 = Instant::now();
        batch.clear();
        for ts in &drawn {
            batch.push(ts);
        }
        let t2 = Instant::now();
        analyzer.analyze_batch(&batch, &device, &mut verdicts);
        let t3 = Instant::now();
        black_box(&verdicts);
        draw_ns += (t1 - t0).as_nanos();
        pack_ns += (t2 - t1).as_nanos();
        eval_ns += (t3 - t2).as_nanos();
        tasksets += drawn.len();
        spans.push("gen.draw", at(t0), at(t1), "sweep", &id);
        spans.push("analysis.pack", at(t1), at(t2), "sweep", &id);
        spans.push("analysis.batch_eval", at(t2), at(t3), "sweep", &id);
    }
    let per = |ns: u128| ns as f64 / 1_000.0 / tasksets.max(1) as f64;
    (per(draw_ns), per(pack_ns), per(eval_ns))
}
