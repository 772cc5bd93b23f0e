//! Socket-path admission benchmark for `fpga-rt`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload poisson-tcp|knife-edge-tcp|sweep-fig4b --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A human summary
//! goes to standard error. Any response that differs from the reference
//! transcript (or a sweep curve that differs from the reference curve)
//! makes the exit code nonzero. `BENCHMARK.json` at the repository root
//! lists the metrics; `perfbench/layers.json` records what each one means
//! on each workload and which end-to-end metric each layer should move.
//!
//! The end-to-end time figures are CPU time (set-up, and CPU per request or
//! per taskset), scaled to a reference speed: on a shared host, wall-clock
//! round trips and rates follow the hypervisor's CPU steal and vCPU
//! wake-ups more than the program, and CPU time follows what neighbours do
//! to the physical core (see [`speed`]). The wall-clock figures and the
//! unscaled CPU times are reported too, as the per-layer `wall.*` and
//! `raw.*` metrics.
//!
//! `perfbench fpga-rt ARGS…` runs the `fpga-rt` command line itself (the
//! server and the sweep the benchmark launches) and reports the process's
//! peak resident set and CPU time on standard error when it ends.

mod layers;
mod lines;
mod socket;
mod speed;
mod stats;
mod sweep;
mod sys;
mod trace;

use fpga_rt_loadgen::ArrivalProfile;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Offered rate of the open-loop phase, requests per second.
const RATE: f64 = 1000.0;
/// One round of a socket pass: an open-loop phase of `OPEN_SECS`, then a
/// capacity phase of `CAPACITY_LAPS` laps of the capacity script (about
/// 0.6 s on poisson-tcp on an unloaded 2-vCPU host). `--seconds` sets the
/// number of rounds, one per `ROUND_SECS` (at least 2).
const OPEN_SECS: f64 = 1.0;
const CAPACITY_LAPS: usize = 1;
const ROUND_SECS: f64 = 1.6;
/// Set-ups per run; `setup_s` is their median.
const SETUP_TRIALS: usize = 15;

/// `BENCHMARK.json`, which lists the metrics and their units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every entry of one of `BENCHMARK.json`'s metric lists
/// (`end_to_end` or `per_layer`), in list order.
fn listed(key: &str) -> Result<Vec<(String, String)>, String> {
    let doc: serde::Value =
        serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |entry: &serde::Value, name: &str| match entry
        .as_map()
        .and_then(|m| serde::get_field_opt(m, name))
    {
        Some(serde::Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: a {key} entry has no string {name}")),
    };
    doc.as_map()
        .and_then(|m| serde::get_field_opt(m, key))
        .and_then(serde::Value::as_seq)
        .ok_or_else(|| format!("BENCHMARK.json has no list {key}"))?
        .iter()
        .map(|e| Ok((field(e, "name")?, field(e, "unit")?)))
        .collect()
}

/// Parsed command line.
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| format!("--seed {value}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("--seconds {value}"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// The lines a `perfbench fpga-rt …` process prints last on stderr: its
/// peak resident set (kB) and its CPU time (ns).
pub const PEAK_RSS_KB: &str = "perfbench-peak-rss-kb ";
pub const CPU_NS: &str = "perfbench-cpu-ns ";

/// The value of the last `prefix` line in a child's stderr.
pub fn marker(stderr: &str, prefix: &str) -> Option<f64> {
    stderr.lines().rev().find_map(|l| l.strip_prefix(prefix)?.trim().parse::<f64>().ok())
}

/// The peak resident set (`VmHWM`, in kB) of process `pid` (`"self"` for
/// this one).
pub fn vmhwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB").trim().parse::<u64>().ok()
    })
}

/// CPU time (ns) that the threads of process `pid` have spent running, from
/// `/proc/<pid>/task/*/schedstat`. The scheduler's clock leaves out time the
/// hypervisor gave to other tenants, so unlike wall time this does not grow
/// with host CPU steal.
pub fn cpu_ns(pid: &str) -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// `perfbench fpga-rt ARGS…`: the command line, then the peak RSS and the
/// CPU time.
fn run_cli(args: &[String]) -> i32 {
    let code = fpga_rt_cli::run(args, &mut std::io::stdout());
    if let Some(kb) = vmhwm_kb("self") {
        eprintln!("{PEAK_RSS_KB}{kb}");
    }
    if let Some(ns) = sys::process_cpu_ns() {
        eprintln!("{CPU_NS}{ns}");
    }
    match code {
        fpga_rt_cli::ExitCode::Accepted => 0,
        fpga_rt_cli::ExitCode::Rejected => 1,
        fpga_rt_cli::ExitCode::Error(msg) => {
            eprintln!("error: {msg}");
            2
        }
    }
}

/// Busy and stolen CPU ticks of the whole host, from `/proc/stat` (read
/// before and after the timed phases, never during them).
fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal
    let steal = *ticks.get(7)?;
    Some((ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6] + steal, steal))
}

/// The share of the host's busy CPU time that the hypervisor gave to other
/// tenants between two `host_ticks` readings: how much of a run's noise
/// came from outside it.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((b0, s0)), Some((b1, s1))) if b1 > b0 => (s1 - s0) as f64 / (b1 - b0) as f64,
        _ => 0.0,
    }
}

/// What a run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Listed metrics missing from `metrics` are layers the workload
    /// bypasses, and read 0 (otherwise a missing metric is an error).
    bypassed_read_zero: bool,
}

fn socket_workload(
    exe: &Path,
    work: &Path,
    profile: ArrivalProfile,
    opts: &Options,
) -> Result<Report, String> {
    let per_round = (RATE * OPEN_SECS) as usize;
    let rounds = ((opts.seconds / ROUND_SECS).floor() as usize).max(2);
    let w = lines::generate(profile, rounds * per_round, opts.seed, RATE)?;
    let before = host_ticks();
    let pass = socket::run_pass(exe, &w, rounds, CAPACITY_LAPS, SETUP_TRIALS, None)?;
    let steal = steal_share(before, host_ticks());
    let scaled = |raw: &[f64], ref_us: &[f64]| -> Vec<f64> {
        raw.iter().zip(ref_us).map(|(&v, &r)| speed::scaled(v, r)).collect()
    };
    let setup_s = stats::median(&scaled(&pass.setup_cpu_s, &pass.setup_ref_us));
    let setup_cpu_s = stats::median(&pass.setup_cpu_s);
    let setup_wall_s = stats::median(&pass.setup_wall_s);
    let cpu_us = stats::median(&scaled(&pass.cpu_us_per_request, &pass.round_ref_us));
    let cpu_us_raw = stats::median(&pass.cpu_us_per_request);
    let ref_us = stats::median(&pass.round_ref_us);
    let rtt_p50 = stats::quantile(&pass.rtt_us, 0.5);
    let (tail_q, rtt_tail) = stats::tail(&pass.rtt_us);
    let capacity_rps = stats::median(&pass.capacity_rps);
    eprintln!(
        "{}: setup_s {setup_s:.4} scaled CPU, {setup_cpu_s:.4} CPU, {setup_wall_s:.4} wall \
         (median of {} set-ups); server CPU per capacity request {cpu_us:.2} us scaled, \
         {cpu_us_raw:.2} us as measured (median of {rounds} rounds{}; reference kernel \
         {ref_us:.0} us); \
         wall: rtt_p50_us {rtt_p50:.1}, rtt p{:.1} {rtt_tail:.1} us ({} open-loop requests at \
         {RATE} req/s), capacity_rps {capacity_rps:.0} (median round; window {} x {} conns); \
         failed_share {}, peak_rss_mb {:.2}; host CPU steal {:.1}%",
        opts.workload,
        pass.setup_cpu_s.len(),
        if pass.pinned { "" } else { ", NOT pinned: fewer than 2 CPUs" },
        tail_q * 100.0,
        pass.rtt_us.len(),
        socket::WINDOW,
        lines::CONNS,
        pass.failed as f64 / pass.attempted.max(1) as f64,
        pass.peak_rss_mb,
        steal * 100.0,
    );
    eprintln!(
        "  per round: cpu_us_per_request {:?}, reference kernel us {:?}, capacity_rps {:?}",
        pass.cpu_us_per_request.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>(),
        pass.round_ref_us.iter().map(|v| v.round()).collect::<Vec<_>>(),
        pass.capacity_rps.iter().map(|v| v.round()).collect::<Vec<_>>(),
    );
    if !opts.trace {
        return Ok(Report {
            attempted: pass.attempted,
            failed: pass.failed,
            metrics: vec![
                ("setup_s", setup_s),
                ("cpu_us_per_op_scaled", cpu_us),
                ("peak_rss_mb", pass.peak_rss_mb),
            ],
            bypassed_read_zero: false,
        });
    }

    // The traced pass: server metrics on, every request kept as a span,
    // then the in-process layer replays over the same lines.
    let epoch = Instant::now();
    let metrics_path = work.join(format!("server-metrics-{}-{}.json", opts.workload, opts.seed));
    let traced = socket::run_pass(exe, &w, rounds, CAPACITY_LAPS, 1, Some(&metrics_path))?;
    let mut spans = trace::Spans::default();
    traced.spans(&mut spans);
    let text = std::fs::read_to_string(&metrics_path)
        .map_err(|e| format!("{}: {e}", metrics_path.display()))?;
    let snapshot: fpga_rt_obs::Snapshot =
        serde_json::from_str(&text).map_err(|e| format!("server metrics: {e}"))?;
    let mut metrics = layers::protocol(&w, epoch, &mut spans);
    metrics.extend(layers::core(&w, epoch, &mut spans)?);
    metrics.extend(layers::controller(&w, epoch, &mut spans)?);
    metrics.extend(layers::pool(&snapshot, lines::SHARDS));
    let value =
        |m: &[(&str, f64)], name: &str| m.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let (requests, batches) = traced.served().ok_or("no summary line from the traced server")?;
    let bytes_out = snapshot.counter("conn/bytes_out").unwrap_or(0) as f64;
    let submit = value(&metrics, "core.submit_us_p50");
    let flush1 = value(&metrics, "core.flush1_us_p50");
    metrics.extend([
        ("raw.setup_s", setup_cpu_s),
        ("raw.cpu_us_per_op", cpu_us_raw),
        ("harness.ref_kernel_us", ref_us),
        ("wall.setup_s", setup_wall_s),
        ("wall.latency_p50_us", rtt_p50),
        ("wall.latency_tail_us", rtt_tail),
        ("wall.throughput_per_s", capacity_rps),
        ("transport.outside_core_p50_us", rtt_p50 - submit - flush1),
        ("transport.requests_per_flush", requests / batches.max(1.0)),
        ("transport.bytes_out_per_request", bytes_out / requests.max(1.0)),
        ("harness.send_late_p99_us", stats::quantile(&pass.late_us, 0.99)),
        ("harness.send_late_max_us", stats::max(&pass.late_us)),
        ("harness.host_steal_share", steal),
        ("trace.overhead_p50_us", stats::quantile(&traced.rtt_us, 0.5) - rtt_p50),
    ]);
    eprintln!(
        "layer attribution of the wall rtt_p50_us {rtt_p50:.1} on {}: core.submit {submit:.1} \
         (protocol.parse {:.1}) + core.flush1 {flush1:.1} (controller.admit {:.1}) \
         + unattributed {:.1} (transport, event loop, client)",
        opts.workload,
        value(&metrics, "protocol.parse_us_p50"),
        value(&metrics, "controller.admit_us_p50"),
        rtt_p50 - submit - flush1,
    );
    let spans_path = work.join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
    spans.write(&spans_path)?;
    eprintln!("{} spans written to {}", spans.len(), spans_path.display());
    Ok(Report {
        attempted: pass.attempted + traced.attempted,
        failed: pass.failed + traced.failed,
        metrics,
        // The socket path passes through every layer but the sweep's.
        bypassed_read_zero: true,
    })
}

fn sweep_workload(exe: &Path, work: &Path, opts: &Options) -> Result<Report, String> {
    let before = host_ticks();
    let o = sweep::run(exe, work, opts.seed, opts.seconds, SETUP_TRIALS, false)?;
    let steal = steal_share(before, host_ticks());
    eprintln!(
        "{}: setup_s {:.4} scaled CPU, {:.4} CPU, {:.4} wall; CPU per taskset {:.3} us scaled, \
         {:.3} us as measured (reference kernel {:.0} us){}; wall: request p50 {:.0} us, p{:.1} \
         {:.0} us, tasksets_per_s {:.0}; peak_rss_mb {:.2}, {} requests, {} failed; host CPU \
         steal {:.1}%",
        opts.workload,
        o.setup_s,
        o.setup_cpu_s,
        o.setup_wall_s,
        o.cpu_us_per_taskset_scaled,
        o.cpu_us_per_taskset,
        o.ref_us,
        if o.pinned { "" } else { " (NOT pinned)" },
        o.latency_p50_us,
        o.latency_tail.0 * 100.0,
        o.latency_tail.1,
        o.tasksets_per_s,
        o.peak_rss_mb,
        o.attempted,
        o.failed,
        steal * 100.0,
    );
    if !opts.trace {
        return Ok(Report {
            attempted: o.attempted,
            failed: o.failed,
            metrics: vec![
                ("setup_s", o.setup_s),
                ("cpu_us_per_op_scaled", o.cpu_us_per_taskset_scaled),
                ("peak_rss_mb", o.peak_rss_mb),
            ],
            bypassed_read_zero: false,
        });
    }
    let traced = sweep::run(exe, work, opts.seed, opts.seconds, 1, true)?;
    let epoch = Instant::now();
    let mut spans = trace::Spans::default();
    let (draw, pack, eval) = sweep::layers(opts.seed, epoch, &mut spans);
    let metrics = vec![
        ("raw.setup_s", o.setup_cpu_s),
        ("raw.cpu_us_per_op", o.cpu_us_per_taskset),
        ("harness.ref_kernel_us", o.ref_us),
        ("wall.setup_s", o.setup_wall_s),
        ("wall.latency_p50_us", o.latency_p50_us),
        ("wall.latency_tail_us", o.latency_tail.1),
        ("wall.throughput_per_s", o.tasksets_per_s),
        ("gen.draw_us_per_taskset", draw),
        ("analysis.pack_us_per_taskset", pack),
        ("analysis.batch_eval_us_per_taskset", eval),
        ("harness.host_steal_share", steal),
        ("trace.overhead_p50_us", traced.latency_p50_us - o.latency_p50_us),
    ];
    let spans_path = work.join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
    spans.write(&spans_path)?;
    eprintln!("{} spans written to {}", spans.len(), spans_path.display());
    Ok(Report {
        attempted: o.attempted + traced.attempted,
        failed: o.failed + traced.failed,
        metrics,
        // The sweep bypasses every socket-path layer.
        bypassed_read_zero: true,
    })
}

/// The result line: every listed metric, in list order.
fn result_line(report: &Report, listed: &[(String, String)]) -> Result<String, String> {
    if let Some((name, _)) = report.metrics.iter().find(|(n, _)| !listed.iter().any(|l| l.0 == *n))
    {
        return Err(format!("metric {name} is not listed in BENCHMARK.json"));
    }
    let mut fields = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let value = match report.metrics.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) => v,
            None if report.bypassed_read_zero => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        fields.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    Ok(format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(",")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fpga-rt") {
        std::process::exit(run_cli(&args[1..]));
    }
    sys::tighten_timer_slack();
    let outcome = parse_options(&args).and_then(|opts| {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let work: PathBuf =
            exe.parent().ok_or("executable has no directory")?.join("perfbench-work");
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let report = match opts.workload.as_str() {
            "poisson-tcp" => socket_workload(&exe, &work, ArrivalProfile::Poisson, &opts)?,
            "knife-edge-tcp" => socket_workload(&exe, &work, ArrivalProfile::Adversarial, &opts)?,
            "sweep-fig4b" => sweep_workload(&exe, &work, &opts)?,
            other => {
                return Err(format!(
                    "unknown workload {other:?} (poisson-tcp|knife-edge-tcp|sweep-fig4b)"
                ))
            }
        };
        let listed = listed(if opts.trace { "per_layer" } else { "end_to_end" })?;
        Ok((result_line(&report, &listed)?, report.failed))
    });
    match outcome {
        Ok((line, failed)) => {
            println!("{line}");
            if failed > 0 {
                eprintln!("{failed} requests failed the reference check");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_both_metric_kinds() {
        let end_to_end = listed("end_to_end").unwrap();
        assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(!listed("per_layer").unwrap().is_empty());
    }

    #[test]
    fn result_line_needs_every_listed_metric() {
        let only_setup = vec![("setup_s".to_string(), "s".to_string())];
        let mut report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.5)],
            bypassed_read_zero: false,
        };
        assert!(result_line(&report, &listed("end_to_end").unwrap()).is_err());
        assert_eq!(
            result_line(&report, &only_setup).unwrap(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        report.metrics.push(("unlisted", 1.0));
        assert!(result_line(&report, &only_setup).is_err());
    }
}
