//! The socket workloads' request lines and their reference transcript.
//!
//! Every line is generated once, before any timed phase, from a loadgen
//! arrival stream and the run's seed. Release handles are resolved — and
//! the reference transcript recorded — by replaying the lines in-process
//! through a deterministic [`ServiceCore`], the engine `fpga-rt serve`
//! runs: the open loop then never has to wait on a response to know what
//! to send next.
//!
//! Each session is pinned to one connection (`s{k}` and `c{k}` to
//! connection `k % CONNS`), so a connection's transcript does not depend on
//! how the two connections interleave. The open-loop phase and the
//! capacity phase use disjoint session sets (`s{k}` and `c{k}`) and
//! streams of their own, so the phases can alternate without disturbing
//! each other's state.

use fpga_rt_loadgen::{synthesize, ArrivalOp, ArrivalProfile, LoadSpec, OpKind};
use fpga_rt_obs::Obs;
use fpga_rt_service::{ConnectionId, ServeConfig, ServiceCore, TaskParams};
use std::collections::VecDeque;

/// Sessions of the open-loop stream.
pub const SESSIONS: u32 = 32;
/// Device columns of every session.
pub const COLUMNS: u32 = 100;
/// Client connections.
pub const CONNS: usize = 2;
/// Server pool shards (one per session slot, as loadgen places them).
pub const SHARDS: u32 = 32;
/// Server (and reference) pool workers.
pub const WORKERS: usize = 2;
/// The capacity phase's own stream, generated from the same seed: its
/// sessions (`c0..c127`) and lines. A capacity lap replays all of it from
/// fresh sessions, so that a lap is the same work at every `--seconds`;
/// sessions fill up over a lap, so the cost of a request depends on where
/// in the lap it falls, and capacity phases run whole laps. A few GN2
/// decisions take milliseconds, and the cost of a lap follows how full its
/// sessions get: four times the open loop's sessions, each as deep (250
/// lines), average that over more sessions than 32 would (with 32 sessions
/// and 8000 lines, seeds moved poisson-tcp's CPU per request by 10.2-13.3
/// µs, while a seed repeated within 1%).
pub const CAPACITY_SESSIONS: u32 = 128;
pub const CAPACITY_OPS: usize = 32_000;

/// The server configuration the reference is recorded under; `fpga-rt
/// serve` is launched with the same flags (see `socket::server_args`).
pub fn serve_config(deterministic: bool) -> ServeConfig {
    ServeConfig { shards: SHARDS, workers: WORKERS, deterministic, ..ServeConfig::new(COLUMNS) }
}

/// A reference response split around its two run-dependent numbers:
/// `"seq":` (checked against the request's position) and `"latency_us":`
/// (masked).
pub struct RefLine {
    pre_seq: Vec<u8>,
    mid: Vec<u8>,
    post: Vec<u8>,
}

impl RefLine {
    fn new(line: &str) -> Result<RefLine, String> {
        let bytes = line.as_bytes();
        let (seq_at, seq_end) = number_after(bytes, b"\"seq\":", 0)
            .ok_or_else(|| format!("reference line has no seq: {line}"))?;
        let (lat_at, lat_end) = number_after(bytes, b"\"latency_us\":", seq_end)
            .ok_or_else(|| format!("reference line has no latency_us: {line}"))?;
        Ok(RefLine {
            pre_seq: bytes[..seq_at].to_vec(),
            mid: bytes[seq_end..lat_at].to_vec(),
            post: bytes[lat_end..].to_vec(),
        })
    }

    /// Does `response` (without its newline) equal this reference with
    /// `seq` = `expected_seq` and any `latency_us`?
    pub fn matches(&self, response: &[u8], expected_seq: u64) -> bool {
        let Some(rest) = response.strip_prefix(self.pre_seq.as_slice()) else {
            return false;
        };
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        if std::str::from_utf8(&rest[..digits]).ok().and_then(|s| s.parse().ok())
            != Some(expected_seq)
        {
            return false;
        }
        let Some(rest) = rest[digits..].strip_prefix(self.mid.as_slice()) else {
            return false;
        };
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        digits > 0 && rest[digits..] == self.post[..]
    }
}

/// Position of the digits following `key` (searching from `from`), as the
/// byte range `(start, end)`.
fn number_after(bytes: &[u8], key: &[u8], from: usize) -> Option<(usize, usize)> {
    let at = bytes[from..].windows(key.len()).position(|w| w == key)? + from + key.len();
    let end = at + bytes[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    (end > at).then_some((at, end))
}

/// One connection's script: lines with their newline and reference
/// responses. Positions below `lap_start` are sent once; from there on
/// the script repeats `lines[lap_start..]` (a script with `lap_start ==
/// lines.len()` does not repeat).
pub struct ConnScript {
    pub lines: Vec<Vec<u8>>,
    pub refs: Vec<RefLine>,
    pub lap_start: usize,
    /// `create` lines at the start of the script.
    pub creates: usize,
}

impl ConnScript {
    /// Lines in one lap.
    pub fn lap_len(&self) -> usize {
        self.lines.len() - self.lap_start
    }

    /// Index into `lines`/`refs` of script position `pos`.
    pub fn slot(&self, pos: u64) -> usize {
        let pos = pos as usize;
        if pos < self.lap_start {
            pos
        } else {
            self.lap_start + (pos - self.lap_start) % self.lap_len()
        }
    }
}

/// A generated socket workload: per connection an open-loop script and a
/// capacity script, over disjoint session sets.
pub struct SocketWorkload {
    /// `s{k}`: the creates, then the connection's share of the stream —
    /// sent once, on the open-loop schedule.
    pub open: Vec<ConnScript>,
    /// `c{k}`: the creates, then laps of the connection's share of the
    /// capacity stream followed by `destroy` + `create` of each session,
    /// so every lap starts from fresh sessions and answers like the first.
    pub capacity: Vec<ConnScript>,
    /// The open-loop schedule in stream order: `(connection, intended
    /// send offset in ns)`; a connection's i-th entry sends its i-th
    /// stream line.
    pub schedule: Vec<(usize, u64)>,
    /// Every open-loop `create` line, with its connection.
    pub creates: Vec<(usize, String)>,
    /// The open-loop stream lines in stream order, with their connection —
    /// the input of the in-process layer replays.
    pub stream: Vec<(usize, String)>,
}

fn create_line(session: &str) -> String {
    format!(r#"{{"id":"mk-{session}","session":"{session}","op":"create"}}"#)
}

fn destroy_line(session: &str) -> String {
    format!(r#"{{"id":"rm-{session}","session":"{session}","op":"destroy"}}"#)
}

fn admit_line(i: usize, session: &str, t: &TaskParams) -> String {
    format!(
        r#"{{"id":"r{i}","session":"{session}","op":"admit","task":{{"exec":{},"deadline":{},"period":{},"area":{}}}}}"#,
        t.exec, t.deadline, t.period, t.area
    )
}

fn release_line(i: usize, session: &str, handle: u64) -> String {
    format!(r#"{{"id":"r{i}","session":"{session}","op":"release","handle":{handle}}}"#)
}

fn query_line(i: usize, session: &str) -> String {
    format!(r#"{{"id":"r{i}","session":"{session}","op":"query"}}"#)
}

/// The accepted handle in an admit response, if any.
fn accepted_handle(response: &str) -> Option<u64> {
    if !response.contains(r#""verdict":"accept""#) {
        return None;
    }
    let (at, end) = number_after(response.as_bytes(), b"\"handle\":", 0)?;
    response[at..end].parse().ok()
}

/// Submit one line under `conn` and flush it alone; returns its response.
fn serve_one(core: &mut ServiceCore, conn: ConnectionId, line: &str) -> Result<String, String> {
    core.submit(conn, line)?;
    let mut out = core.flush()?;
    match (out.pop(), out.is_empty()) {
        (Some((_, response)), true) => Ok(response),
        _ => Err(format!("expected exactly one response to {line}")),
    }
}

fn script(
    lines: &[String],
    refs: &[String],
    lap_start: usize,
    creates: usize,
) -> Result<ConnScript, String> {
    for (line, response) in lines.iter().zip(refs) {
        if !response.contains(r#""ok":true"#) {
            return Err(format!(
                "workload line failed in the reference replay: {line} -> {response}"
            ));
        }
    }
    Ok(ConnScript {
        lines: lines.iter().map(|l| format!("{l}\n").into_bytes()).collect(),
        refs: refs.iter().map(|r| RefLine::new(r)).collect::<Result<_, _>>()?,
        lap_start,
        creates,
    })
}

/// A stream served line by line through a deterministic engine.
struct Replay {
    /// Per connection: the session creates, then the connection's share
    /// of the stream, each line with its response.
    lines: Vec<Vec<String>>,
    refs: Vec<Vec<String>>,
    /// Every create line, with its connection.
    creates: Vec<(usize, String)>,
    /// The stream lines in stream order, with their connection.
    stream: Vec<(usize, String)>,
}

/// Create sessions `{prefix}0..{prefix}{sessions}` (session `k` on
/// connection `k % CONNS`) on `core`, then serve `arrivals` one line at a
/// time, resolving each release to the session's oldest live handle (with
/// none live the op degrades to a query, as in loadgen's replay).
fn replay(
    core: &mut ServiceCore,
    ids: &[ConnectionId],
    prefix: &str,
    sessions: u32,
    arrivals: &[ArrivalOp],
) -> Result<Replay, String> {
    let mut r = Replay {
        lines: vec![Vec::new(); CONNS],
        refs: vec![Vec::new(); CONNS],
        creates: Vec::new(),
        stream: Vec::with_capacity(arrivals.len()),
    };
    let mut serve = |r: &mut Replay, c: usize, line: String| -> Result<String, String> {
        let response = serve_one(core, ids[c], &line)?;
        r.lines[c].push(line);
        r.refs[c].push(response.clone());
        Ok(response)
    };
    for k in 0..sessions {
        let line = create_line(&format!("{prefix}{k}"));
        r.creates.push((k as usize % CONNS, line.clone()));
        serve(&mut r, k as usize % CONNS, line)?;
    }
    let mut live: Vec<VecDeque<u64>> = vec![VecDeque::new(); sessions as usize];
    for (i, arrival) in arrivals.iter().enumerate() {
        let k = arrival.session as usize;
        let (session, c) = (format!("{prefix}{k}"), k % CONNS);
        let line = match &arrival.kind {
            OpKind::Admit(task) => admit_line(i, &session, task),
            OpKind::Release => match live[k].front() {
                Some(&handle) => release_line(i, &session, handle),
                None => query_line(i, &session),
            },
            OpKind::Query => query_line(i, &session),
        };
        r.stream.push((c, line.clone()));
        let response = serve(&mut r, c, line)?;
        match arrival.kind {
            OpKind::Admit(_) => live[k].extend(accepted_handle(&response)),
            OpKind::Release => {
                live[k].pop_front();
            }
            OpKind::Query => {}
        }
    }
    Ok(r)
}

/// Generate `ops` open-loop stream lines of `profile` for `seed`, offered
/// at `rate` requests per second, and the capacity scripts, with their
/// reference transcripts.
pub fn generate(
    profile: ArrivalProfile,
    ops: usize,
    seed: u64,
    rate: f64,
) -> Result<SocketWorkload, String> {
    let spec = |ops, sessions| LoadSpec { profile, ops, sessions, columns: COLUMNS, seed };
    let new_core = || -> Result<(ServiceCore, Vec<ConnectionId>), String> {
        let mut core = ServiceCore::new(&serve_config(true), Obs::off())?;
        let ids = (0..CONNS).map(|_| core.open()).collect();
        Ok((core, ids))
    };

    // The open-loop schedule keeps the stream's gaps, rescaled so that the
    // mean gap is 1/rate.
    let arrivals = synthesize(&spec(ops, SESSIONS))?;
    let last_ns = arrivals.last().map_or(1, |a| a.at_ns.max(1));
    let scale = ops as f64 * 1e9 / rate / last_ns as f64;
    let schedule = arrivals
        .iter()
        .map(|a| (a.session as usize % CONNS, (a.at_ns as f64 * scale) as u64))
        .collect();
    let (mut core, ids) = new_core()?;
    let open = replay(&mut core, &ids, "s", SESSIONS, &arrivals)?;

    // A capacity lap: the capacity stream from fresh sessions, then a
    // destroy and a create of each session, so the next lap answers alike.
    let (mut core, ids) = new_core()?;
    let mut cap = replay(
        &mut core,
        &ids,
        "c",
        CAPACITY_SESSIONS,
        &synthesize(&spec(CAPACITY_OPS, CAPACITY_SESSIONS))?,
    )?;
    for k in 0..CAPACITY_SESSIONS {
        let c = k as usize % CONNS;
        for line in [destroy_line(&format!("c{k}")), create_line(&format!("c{k}"))] {
            cap.refs[c].push(serve_one(&mut core, ids[c], &line)?);
            cap.lines[c].push(line);
        }
    }

    let per_conn =
        |creates: &[(usize, String)], c: usize| creates.iter().filter(|e| e.0 == c).count();
    let scripts = |r: &Replay, repeat: bool| -> Result<Vec<ConnScript>, String> {
        (0..CONNS)
            .map(|c| {
                let n = per_conn(&r.creates, c);
                script(&r.lines[c], &r.refs[c], if repeat { n } else { r.lines[c].len() }, n)
            })
            .collect()
    };
    Ok(SocketWorkload {
        open: scripts(&open, false)?,
        capacity: scripts(&cap, true)?,
        schedule,
        creates: open.creates,
        stream: open.stream,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lines_mask_latency_and_check_seq() {
        let r = RefLine::new(
            r#"{"id":"a","seq":7,"op":"query","ok":true,"latency_us":0,"session":"s1"}"#,
        )
        .unwrap();
        assert!(r.matches(
            br#"{"id":"a","seq":7,"op":"query","ok":true,"latency_us":913,"session":"s1"}"#,
            7
        ));
        assert!(!r.matches(
            br#"{"id":"a","seq":8,"op":"query","ok":true,"latency_us":913,"session":"s1"}"#,
            7
        ));
        assert!(!r.matches(
            br#"{"id":"a","seq":7,"op":"query","ok":false,"latency_us":9,"session":"s1"}"#,
            7
        ));
        assert!(!r.matches(
            br#"{"id":"a","seq":7,"op":"query","ok":true,"latency_us":null,"session":"s1"}"#,
            7
        ));
    }

    #[test]
    fn scripts_cover_every_session_and_repeat_laps() {
        let w = generate(ArrivalProfile::Adversarial, 200, 3, 1000.0).unwrap();
        assert_eq!(w.creates.len(), SESSIONS as usize);
        assert_eq!(w.schedule.len(), 200);
        assert!(w.schedule.windows(2).all(|p| p[0].1 <= p[1].1));
        // The open loop sends the 200 lines once; a capacity lap is the
        // capacity stream, then a destroy and a create of each session.
        let (open, cap) = (&w.open, &w.capacity);
        assert!(open.iter().all(|s| s.creates == SESSIONS as usize / CONNS));
        assert!(cap.iter().all(|s| s.creates == CAPACITY_SESSIONS as usize / CONNS));
        let sent: usize = open.iter().map(|s| s.lines.len() - s.creates).sum();
        assert_eq!(sent, 200);
        let lap: usize = cap.iter().map(|s| s.lap_len() - 2 * s.creates).sum();
        assert_eq!(lap, CAPACITY_OPS);
        for (open, cap) in open.iter().zip(cap) {
            assert_eq!(open.lap_len(), 0);
            let lap = cap.lap_len() as u64;
            assert_eq!(cap.slot(cap.lap_start as u64 + lap + 3), cap.lap_start + 3);
            assert_eq!(cap.slot(2), 2);
        }
        // Same seed, same lines; another seed, other lines.
        let again = generate(ArrivalProfile::Adversarial, 200, 3, 1000.0).unwrap();
        assert_eq!(again.stream, w.stream);
        let other = generate(ArrivalProfile::Poisson, 200, 4, 1000.0).unwrap();
        assert_ne!(other.stream, w.stream);
    }
}
