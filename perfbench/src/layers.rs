//! In-process timings of the socket path's layers, taken from the
//! benchmark's own code around calls into each layer's public functions,
//! over the same lines the socket phases send.

use crate::lines::{serve_config, SocketWorkload, COLUMNS, CONNS, SESSIONS};
use crate::stats::{quantile, us};
use crate::trace::Spans;
use fpga_rt_model::{Fpga, TaskHandle};
use fpga_rt_obs::{Obs, Snapshot};
use fpga_rt_service::{
    parse_request, AdmissionController, ControllerConfig, Op, ServiceCore, Tier,
};
use std::hint::black_box;
use std::time::Instant;

/// Named per-layer values, in reporting order.
pub type Metrics = Vec<(&'static str, f64)>;

fn elapsed_us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1_000.0
}

/// Nanoseconds of `t` since `epoch`, for spans.
fn at(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// `parse_request` per stream line.
pub fn protocol(w: &SocketWorkload, epoch: Instant, spans: &mut Spans) -> Metrics {
    let mut samples = Vec::with_capacity(w.stream.len());
    for (i, (_, line)) in w.stream.iter().enumerate() {
        let t = Instant::now();
        let parsed = parse_request(black_box(line));
        let end = Instant::now();
        black_box(parsed.is_ok());
        samples.push((end - t).as_nanos() as f64 / 1_000.0);
        spans.push(
            "protocol.parse_request",
            at(epoch, t),
            at(epoch, end),
            "stream",
            &format!("r{i}"),
        );
    }
    vec![
        ("protocol.parse_us_p50", quantile(&samples, 0.5)),
        ("protocol.parse_us_p99", quantile(&samples, 0.99)),
    ]
}

/// A fresh engine configured like the measured server, with every session
/// created.
fn core_with_sessions(
    w: &SocketWorkload,
) -> Result<(ServiceCore, Vec<fpga_rt_service::ConnectionId>), String> {
    let mut core = ServiceCore::new(&serve_config(false), Obs::off())?;
    let ids: Vec<_> = (0..CONNS).map(|_| core.open()).collect();
    for (c, line) in &w.creates {
        core.submit(ids[*c], line)?;
        if core.batch_ready() {
            core.flush()?;
        }
    }
    core.flush()?;
    Ok((core, ids))
}

/// `ServiceCore::submit` and `ServiceCore::flush`: one-line batches (the
/// interactive path), then full batches.
pub fn core(w: &SocketWorkload, epoch: Instant, spans: &mut Spans) -> Result<Metrics, String> {
    let (mut core, ids) = core_with_sessions(w)?;
    let mut submit = Vec::with_capacity(w.stream.len());
    let mut flush1 = Vec::with_capacity(w.stream.len());
    for (i, (c, line)) in w.stream.iter().enumerate() {
        let t0 = Instant::now();
        core.submit(ids[*c], line)?;
        let t1 = Instant::now();
        let out = core.flush()?;
        let t2 = Instant::now();
        black_box(out);
        submit.push((t1 - t0).as_nanos() as f64 / 1_000.0);
        flush1.push((t2 - t1).as_nanos() as f64 / 1_000.0);
        let id = format!("r{i}");
        spans.push("core.submit", at(epoch, t0), at(epoch, t1), "one-line batch", &id);
        spans.push("core.flush", at(epoch, t1), at(epoch, t2), "one-line batch", &id);
    }

    let (mut core, ids) = core_with_sessions(w)?;
    let mut flush64 = Vec::new();
    for (c, line) in &w.stream {
        core.submit(ids[*c], line)?;
        if core.batch_ready() {
            let t = Instant::now();
            black_box(core.flush()?);
            flush64.push(elapsed_us(t));
        }
    }
    core.flush()?;
    Ok(vec![
        ("core.submit_us_p50", quantile(&submit, 0.5)),
        ("core.flush1_us_p50", quantile(&flush1, 0.5)),
        ("core.flush1_us_p99", quantile(&flush1, 0.99)),
        ("core.flush64_us_p50", quantile(&flush64, 0.5)),
    ])
}

/// `AdmissionController::admit`, `query` and `release` replayed directly
/// (one controller per session, configured like the server's), with the
/// tier taken from each `Decision`; plus the verdict cache's counters.
pub fn controller(
    w: &SocketWorkload,
    epoch: Instant,
    spans: &mut Spans,
) -> Result<Metrics, String> {
    let device = Fpga::new(COLUMNS).map_err(|e| e.to_string())?;
    let cache = serve_config(false).cache;
    let mut sessions: Vec<AdmissionController> = (0..SESSIONS)
        .map(|_| AdmissionController::new(device, ControllerConfig::default()).with_cache(cache))
        .collect();
    let (mut admit, mut query, mut release) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_tier: [Vec<f64>; 4] = Default::default();
    for (i, (_, line)) in w.stream.iter().enumerate() {
        let request = parse_request(line).map_err(|e| format!("{line}: {e:?}"))?;
        let session_of = |name: &str| -> Result<usize, String> {
            name.strip_prefix('s').and_then(|k| k.parse().ok()).ok_or(format!("session {name}"))
        };
        let id = format!("r{i}");
        match request.op {
            Op::Admit(op) => {
                let ctl = &mut sessions[session_of(&op.session)?];
                let task = op.task.to_task().map_err(|e| e.to_string())?;
                let t = Instant::now();
                let (decision, _) = ctl.admit(task, op.margins);
                let end = Instant::now();
                let took = (end - t).as_nanos() as f64 / 1_000.0;
                admit.push(took);
                let tier = match decision.tier {
                    Tier::IncrementalDp => 0,
                    Tier::Gn1 => 1,
                    Tier::Gn2 => 2,
                    Tier::Exact => 3,
                };
                by_tier[tier].push(took);
                spans.push(
                    "controller.admit",
                    at(epoch, t),
                    at(epoch, end),
                    decision.tier.as_str(),
                    &id,
                );
            }
            Op::Query(op) => {
                let ctl = &mut sessions[session_of(&op.session)?];
                let t = Instant::now();
                black_box(ctl.query(op.margins));
                let end = Instant::now();
                query.push((end - t).as_nanos() as f64 / 1_000.0);
                spans.push("controller.query", at(epoch, t), at(epoch, end), "", &id);
            }
            Op::Release(op) => {
                let ctl = &mut sessions[session_of(&op.session)?];
                let t = Instant::now();
                ctl.release(TaskHandle(op.handle))?;
                let end = Instant::now();
                release.push((end - t).as_nanos() as f64 / 1_000.0);
                spans.push("controller.release", at(epoch, t), at(epoch, end), "", &id);
            }
            _ => return Err(format!("unexpected op in the stream: {line}")),
        }
    }
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    for ctl in &sessions {
        if let Some(c) = ctl.cache() {
            hits += c.hits();
            misses += c.misses();
            evictions += c.evictions();
        }
    }
    let admits = admit.len().max(1) as f64;
    let share = |t: usize| by_tier[t].len() as f64 / admits;
    Ok(vec![
        ("controller.admit_us_p50", quantile(&admit, 0.5)),
        ("controller.admit_us_p99", quantile(&admit, 0.99)),
        ("controller.dp_inc_us_p50", quantile(&by_tier[0], 0.5)),
        ("controller.gn2_us_p50", quantile(&by_tier[2], 0.5)),
        ("controller.gn2_us_p99", quantile(&by_tier[2], 0.99)),
        ("controller.exact_us_p50", quantile(&by_tier[3], 0.5)),
        ("controller.exact_us_p99", quantile(&by_tier[3], 0.99)),
        ("controller.query_us_p50", quantile(&query, 0.5)),
        ("controller.release_us_p50", quantile(&release, 0.5)),
        ("controller.tier_share.dp_inc", share(0)),
        ("controller.tier_share.gn1", share(1)),
        ("controller.tier_share.gn2", share(2)),
        ("controller.tier_share.exact", share(3)),
        (
            "cache.hit_ratio",
            if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 },
        ),
        ("cache.evictions", evictions as f64),
    ])
}

/// The pool's `pool/shardNNN/*` rows from the server's `--metrics-out`
/// snapshot. The snapshot keeps each shard's quantiles, not its buckets, so
/// the pool's p50 (p99) is approximated by the count-weighted median over
/// shards of each shard's own p50 (p99): a typical shard's quantile.
pub fn pool(snapshot: &Snapshot, shards: u32) -> Metrics {
    let rows = |which: &str, pick: fn(&fpga_rt_obs::HistRow) -> u64| -> Vec<(f64, u64)> {
        (0..shards)
            .filter_map(|s| snapshot.histogram(&format!("pool/shard{s:03}/{which}")))
            .map(|h| (us(pick(h)), h.count))
            .collect()
    };
    let q = crate::stats::weighted_quantile;
    let items: Vec<f64> = (0..shards)
        .map(|s| snapshot.counter(&format!("pool/shard{s:03}/items")).unwrap_or(0) as f64)
        .collect();
    let mean = items.iter().sum::<f64>() / items.len().max(1) as f64;
    let skew = if mean > 0.0 { crate::stats::max(&items) / mean } else { 0.0 };
    vec![
        ("pool.queue_wait_us_p50", q(&rows("queue_wait_ns", |h| h.p50), 0.5)),
        ("pool.queue_wait_us_p99", q(&rows("queue_wait_ns", |h| h.p99), 0.5)),
        ("pool.busy_us_p50", q(&rows("busy_ns", |h| h.p50), 0.5)),
        ("pool.busy_us_p99", q(&rows("busy_ns", |h| h.p99), 0.5)),
        ("pool.skew", skew),
    ]
}
