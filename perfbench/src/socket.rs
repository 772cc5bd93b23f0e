//! The socket path: launch `fpga-rt serve --listen tcp://…`, create every
//! session, then alternate the two timed phases, round after round, from
//! one thread over `CONNS` non-blocking connections.
//!
//! * **Open loop** — each stream line is sent at its intended time, in a
//!   single `write`, whether or not earlier responses have arrived; its
//!   round trip counts from the intended time, so a stall also delays the
//!   requests queued behind it. How late the sender ran is reported.
//! * **Capacity** — a closed loop that keeps `WINDOW` requests in flight
//!   per connection until each connection has sent whole laps of its
//!   capacity script, and times them.
//!
//! Besides wall time, the server's CPU time is read from
//! `/proc/<pid>/task/*/schedstat` between phases (never during one): the
//! CPU it spends per capacity-phase request and on set-up does not grow
//! with the CPU steal and vCPU wake-ups of a shared host the way round
//! trips do. Right before and right after each set-up and each capacity
//! phase the reference kernel of [`crate::speed`] is timed on the CPU the
//! server runs on, so the server's CPU time can be scaled to the reference
//! speed. Every response is checked, as it arrives, against the reference
//! transcript (see [`crate::lines`]).

use crate::lines::{ConnScript, SocketWorkload, CONNS, SHARDS, WORKERS};
use crate::stats;
use crate::trace::Spans;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests kept in flight per connection in the capacity phase: four of
/// the server's 64-line batches, so a full batch is always waiting and the
/// batch sizes — and with them the server's CPU per request — do not hang
/// on how the client's writes happen to interleave with the server's
/// reads (with 64 the per-round CPU per request spread about twice as
/// wide).
pub const WINDOW: usize = 256;
/// The CPUs the client and the server run on, when the host has two: each
/// on its own, like a client on another machine. The server's threads
/// then share one CPU, so its CPU per request does not depend on where
/// the scheduler happened to put them: unpinned, runs settled in one of
/// two modes, about 9 or 13 µs per knife-edge-tcp request, by the cost of
/// cross-CPU wake-ups in a virtual machine.
const CLIENT_CPU: usize = 0;
const SERVER_CPU: usize = 1;

/// How long a phase waits for outstanding responses before counting them
/// as missing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// The `fpga-rt serve` flags of the measured server.
fn server_args(metrics_out: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--columns",
        &crate::lines::COLUMNS.to_string(),
        "--shards",
        &SHARDS.to_string(),
        "--workers",
        &WORKERS.to_string(),
        "--listen",
        "tcp://127.0.0.1:0",
        "--conns",
        &CONNS.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(path) = metrics_out {
        args.push("--metrics-out".into());
        args.push(path.display().to_string());
    }
    args
}

/// A running server process.
pub struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
}

impl Server {
    /// Launch the server (this executable's `fpga-rt` mode) and return it
    /// with the address it listens on.
    fn launch(exe: &Path, metrics_out: Option<&Path>) -> Result<(Server, String), String> {
        let mut child = Command::new(exe)
            .arg("fpga-rt")
            .args(server_args(metrics_out))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot launch the server: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut first = String::new();
        let _ = stderr.read_line(&mut first);
        let server = Server { child, stderr };
        match first.trim().strip_prefix("listening on tcp://") {
            Some(addr) => Ok((server, addr.to_string())),
            None => {
                let rest = server.stop();
                Err(format!("server did not start: {first}{rest}"))
            }
        }
    }

    /// Keep every thread of the server on `cpu`; returns whether the kernel
    /// agreed for all of them.
    fn pin(&self, cpu: usize) -> bool {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.child.id())) else {
            return false;
        };
        tasks.filter_map(Result::ok).all(|t| {
            t.file_name()
                .to_str()
                .and_then(|tid| tid.parse().ok())
                .is_some_and(|tid| crate::sys::pin_thread(tid, cpu))
        })
    }

    /// CPU time the server's threads have run, in ns.
    fn cpu_ns(&self) -> Result<u64, String> {
        let pid = self.child.id();
        crate::cpu_ns(&pid.to_string()).ok_or_else(|| format!("no schedstat for server {pid}"))
    }

    /// The server's peak resident set (`VmHWM`) in MB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.id();
        crate::vmhwm_kb(&pid.to_string())
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("no VmHWM for server process {pid}"))
    }

    /// Wait for the server to exit (killing it after a grace period) and
    /// return the rest of its stderr.
    fn stop(mut self) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.kill();
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        rest
    }

    fn kill(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A server left behind by an error is killed, never orphaned.
impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Which script a request comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Open,
    Capacity,
}

impl Phase {
    fn scripts(self, w: &SocketWorkload) -> &[ConnScript] {
        match self {
            Phase::Open => &w.open,
            Phase::Capacity => &w.capacity,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Phase::Open => "open-loop",
            Phase::Capacity => "capacity",
        }
    }
}

/// A request awaiting its response.
struct Pending {
    phase: Phase,
    pos: u64,
    seq: u64,
    intended_ns: u64,
    sent_ns: u64,
}

/// A completed (or failed) request.
pub struct Done {
    pub conn: usize,
    pub seq: u64,
    pub intended_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub ok: bool,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
    /// Next position in the open-loop and the capacity script.
    next: [u64; 2],
    /// Requests sent on this connection: the server's next `seq`.
    seq: u64,
    pending: VecDeque<Pending>,
    eof: bool,
}

impl Conn {
    /// Queue bytes and write as much as the socket takes.
    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.out.extend_from_slice(bytes);
        self.write_out()
    }

    fn write_out(&mut self) -> Result<(), String> {
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        self.out.drain(..written);
        Ok(())
    }

    /// Read what has arrived; returns whether anything did.
    fn read_in(&mut self) -> Result<bool, String> {
        let mut chunk = [0u8; 65536];
        let mut any = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(any);
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// The client side: `CONNS` non-blocking connections, one thread.
pub struct Client {
    conns: Vec<Conn>,
    epoch: Instant,
}

impl Client {
    fn connect(addr: &str, epoch: Instant) -> Result<Client, String> {
        let mut conns = Vec::with_capacity(CONNS);
        for _ in 0..CONNS {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            // The client's own sends never wait on Nagle: every line leaves
            // when it is written. The server's sockets are left as the
            // server configures them.
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            conns.push(Conn {
                stream,
                out: Vec::new(),
                buf: Vec::new(),
                next: [0, 0],
                seq: 0,
                pending: VecDeque::new(),
                eof: false,
            });
        }
        Ok(Client { conns, epoch })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sleep until a connection is readable (or writable, where bytes
    /// wait to be written) or `timeout` passes.
    fn wait(&self, timeout: Duration) -> Result<(), String> {
        let fds: Vec<_> =
            self.conns.iter().map(|c| (c.stream.as_raw_fd(), !c.out.is_empty())).collect();
        crate::sys::wait(&fds, timeout).map_err(|e| format!("ppoll: {e}"))
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    /// Queue the next line of connection `c`'s `phase` script, intended
    /// at `intended_ns`; `write_now` writes it immediately (in one
    /// `write`). Returns the send time.
    fn enqueue(
        &mut self,
        w: &SocketWorkload,
        phase: Phase,
        c: usize,
        intended_ns: u64,
        write_now: bool,
    ) -> Result<u64, String> {
        let sent_ns = self.now_ns();
        let conn = &mut self.conns[c];
        let pos = conn.next[phase as usize];
        conn.next[phase as usize] += 1;
        let script = &phase.scripts(w)[c];
        let line = &script.lines[script.slot(pos)];
        conn.pending.push_back(Pending { phase, pos, seq: conn.seq, intended_ns, sent_ns });
        conn.seq += 1;
        if write_now {
            conn.send(line)?;
        } else {
            conn.out.extend_from_slice(line);
        }
        Ok(sent_ns)
    }

    /// Write queued bytes, read responses and check each one; returns
    /// whether any response arrived.
    fn poll(&mut self, w: &SocketWorkload, done: &mut Vec<Done>) -> Result<bool, String> {
        let mut progress = false;
        for c in 0..self.conns.len() {
            if !self.conns[c].out.is_empty() {
                self.conns[c].write_out()?;
            }
            if !self.conns[c].read_in()? {
                continue;
            }
            progress = true;
            let recv_ns = self.now_ns();
            let conn = &mut self.conns[c];
            let mut start = 0;
            while let Some(nl) = conn.buf[start..].iter().position(|&b| b == b'\n') {
                let line = &conn.buf[start..start + nl];
                start += nl + 1;
                match conn.pending.pop_front() {
                    Some(p) => {
                        let script = &p.phase.scripts(w)[c];
                        let ok = script.refs[script.slot(p.pos)].matches(line, p.seq);
                        if !ok {
                            eprintln!(
                                "mismatch on conn {c} at {} position {}: {}",
                                p.phase.name(),
                                p.pos,
                                String::from_utf8_lossy(line)
                            );
                        }
                        done.push(Done {
                            conn: c,
                            seq: p.seq,
                            intended_ns: p.intended_ns,
                            sent_ns: p.sent_ns,
                            recv_ns,
                            ok,
                        });
                    }
                    None => {
                        eprintln!(
                            "unrequested response on conn {c}: {}",
                            String::from_utf8_lossy(line)
                        );
                        done.push(Done {
                            conn: c,
                            seq: u64::MAX,
                            intended_ns: 0,
                            sent_ns: 0,
                            recv_ns,
                            ok: false,
                        });
                    }
                }
            }
            conn.buf.drain(..start);
        }
        Ok(progress)
    }

    /// Poll until nothing is outstanding or the drain timeout passes; the
    /// requests still outstanding then are returned as failed.
    fn drain(&mut self, w: &SocketWorkload, done: &mut Vec<Done>) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.outstanding() > 0 && Instant::now() < deadline {
            if self.conns.iter().any(|c| c.eof) {
                break;
            }
            if !self.poll(w, done)? {
                self.wait(Duration::from_millis(10))?;
            }
        }
        let recv_ns = self.now_ns();
        for (c, conn) in self.conns.iter_mut().enumerate() {
            for p in conn.pending.drain(..) {
                eprintln!("no response on conn {c} to seq {}", p.seq);
                done.push(Done {
                    conn: c,
                    seq: p.seq,
                    intended_ns: p.intended_ns,
                    sent_ns: p.sent_ns,
                    recv_ns,
                    ok: false,
                });
            }
        }
        Ok(())
    }

    /// Half-close every connection and read to EOF, so the server drains
    /// and exits.
    fn close(mut self) {
        for conn in &self.conns {
            let _ = conn.stream.shutdown(Shutdown::Write);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.conns.iter().any(|c| !c.eof) && Instant::now() < deadline {
            let mut any = false;
            for conn in self.conns.iter_mut().filter(|c| !c.eof) {
                any |= conn.read_in().unwrap_or_else(|_| {
                    conn.eof = true;
                    true
                });
            }
            if !any {
                let fds: Vec<_> =
                    self.conns.iter().map(|c| (c.stream.as_raw_fd(), false)).collect();
                let _ = crate::sys::wait(&fds, Duration::from_millis(10));
            }
        }
    }
}

/// A launched server with every session created.
struct Session {
    server: Server,
    client: Client,
    /// Wall time of the set-up, the server's CPU time in it, and the
    /// reference kernel's time around it (µs).
    setup_wall_s: f64,
    setup_cpu_s: f64,
    setup_ref_us: f64,
    done: Vec<Done>,
}

/// Launch a server, connect, and create every session of both phases:
/// the set-up that `setup_s` measures.
fn set_up(
    exe: &Path,
    metrics_out: Option<&Path>,
    w: &SocketWorkload,
    epoch: Instant,
) -> Result<Session, String> {
    // The server starts on the client's CPU (it inherits the affinity).
    let ref_before = crate::speed::reading(CLIENT_CPU, CLIENT_CPU);
    let t0 = Instant::now();
    let (server, addr) = Server::launch(exe, metrics_out)?;
    let mut client = match Client::connect(&addr, epoch) {
        Ok(client) => client,
        Err(e) => {
            let rest = server.stop();
            return Err(format!("{e}\n{rest}"));
        }
    };
    let mut done = Vec::new();
    for phase in [Phase::Open, Phase::Capacity] {
        for (c, script) in phase.scripts(w).iter().enumerate() {
            for _ in 0..script.creates {
                let now = client.now_ns();
                client.enqueue(w, phase, c, now, true)?;
            }
        }
    }
    client.drain(w, &mut done)?;
    let setup_wall_s = t0.elapsed().as_secs_f64();
    let setup_cpu_s = server.cpu_ns()? as f64 / 1e9;
    let setup_ref_us = (ref_before + crate::speed::reading(CLIENT_CPU, CLIENT_CPU)) / 2.0;
    Ok(Session { server, client, setup_wall_s, setup_cpu_s, setup_ref_us, done })
}

/// One round's open-loop requests `lo..hi` of the schedule.
fn open_loop(
    client: &mut Client,
    w: &SocketWorkload,
    lo: usize,
    hi: usize,
    done: &mut Vec<Done>,
    late_us: &mut Vec<f64>,
) -> Result<(), String> {
    let base = w.schedule[lo].1;
    let start = client.now_ns() + 2_000_000;
    let mut next = lo;
    while next < hi {
        while next < hi && start + w.schedule[next].1 - base <= client.now_ns() {
            let (c, offset) = w.schedule[next];
            let intended = start + offset - base;
            let sent = client.enqueue(w, Phase::Open, c, intended, true)?;
            late_us.push(stats::us(sent.saturating_sub(intended)));
            next += 1;
        }
        if client.poll(w, done)? || next == hi {
            continue;
        }
        // Sleep until a response arrives or the next request is due.
        let due = start + w.schedule[next].1 - base;
        let now = client.now_ns();
        if due > now {
            client.wait(Duration::from_nanos(due - now))?;
        }
    }
    client.drain(w, done)
}

/// One round's capacity phase.
struct CapacityRound {
    /// Responses per second, from the first send to the last response.
    rps: f64,
    /// Requests sent and how many of them failed.
    sent: u64,
    failed: u64,
}

/// One round's capacity phase: `laps` whole laps of each connection's
/// capacity script, with up to `WINDOW` requests in flight per connection.
fn capacity(client: &mut Client, w: &SocketWorkload, laps: usize) -> Result<CapacityRound, String> {
    let mut done = Vec::new();
    let start = client.now_ns();
    let mut left: Vec<usize> = w.capacity.iter().map(|s| laps * s.lap_len()).collect();
    let mut last_response = Instant::now();
    while left.iter().any(|&n| n > 0) {
        // A server that stops answering leaves its requests to the drain,
        // which counts them as failed.
        if client.conns.iter().any(|c| c.eof) || last_response.elapsed() > DRAIN_TIMEOUT {
            break;
        }
        for (c, left) in left.iter_mut().enumerate() {
            let room = (WINDOW - client.conns[c].pending.len()).min(*left);
            for _ in 0..room {
                let now = client.now_ns();
                client.enqueue(w, Phase::Capacity, c, now, false)?;
            }
            if room > 0 {
                *left -= room;
                client.conns[c].write_out()?;
            }
        }
        if client.poll(w, &mut done)? {
            last_response = Instant::now();
        } else {
            client.wait(Duration::from_millis(10))?;
        }
    }
    client.drain(w, &mut done)?;
    let end = done.iter().map(|d| d.recv_ns).max().unwrap_or(start);
    let failed = done.iter().filter(|d| !d.ok).count();
    Ok(CapacityRound {
        rps: done.len() as f64 / ((end - start).max(1) as f64 / 1e9),
        sent: done.len() as u64,
        failed: failed as u64,
    })
}

/// The measured outcome of one pass.
pub struct Pass {
    /// Per set-up: the server's CPU time and the wall time (s), and the
    /// reference kernel's time around it (µs).
    pub setup_cpu_s: Vec<f64>,
    pub setup_wall_s: Vec<f64>,
    pub setup_ref_us: Vec<f64>,
    /// Every answered open-loop request's round trip (µs), all rounds.
    pub rtt_us: Vec<f64>,
    /// Per round: the capacity (responses per second), the server's CPU
    /// time per capacity-phase request (µs) and the reference kernel's time
    /// around the capacity phase (µs).
    pub capacity_rps: Vec<f64>,
    pub cpu_us_per_request: Vec<f64>,
    pub round_ref_us: Vec<f64>,
    /// Whether the client and the server each ran on a CPU of their own.
    pub pinned: bool,
    pub late_us: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The server's stderr after the listening line (its summary).
    pub summary: String,
    /// Every open-loop request, for spans.
    pub open: Vec<Done>,
}

/// One pass: `setup_trials` set-ups (all but the last torn down at once),
/// then `rounds` rounds of an open-loop phase (an equal share of the
/// schedule) and a capacity phase of `capacity_laps` laps.
pub fn run_pass(
    exe: &Path,
    w: &SocketWorkload,
    rounds: usize,
    capacity_laps: usize,
    setup_trials: usize,
    metrics_out: Option<&Path>,
) -> Result<Pass, String> {
    let epoch = Instant::now();
    let client_pinned = crate::sys::pin_thread(0, CLIENT_CPU);
    let (mut setup_cpu_s, mut setup_wall_s, mut setup_ref_us) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut session = None;
    for trial in 0..setup_trials {
        let s = set_up(exe, metrics_out, w, epoch)?;
        setup_cpu_s.push(s.setup_cpu_s);
        setup_wall_s.push(s.setup_wall_s);
        setup_ref_us.push(s.setup_ref_us);
        attempted += s.done.len() as u64;
        failed += s.done.iter().filter(|d| !d.ok).count() as u64;
        if trial + 1 < setup_trials {
            s.client.close();
            s.server.stop();
        } else {
            session = Some(s);
        }
    }
    let Session { server, mut client, .. } = session.ok_or("no set-up trial ran")?;
    // The pool's threads exist once the sessions answer.
    let pinned = client_pinned && server.pin(SERVER_CPU);

    let mut open = Vec::with_capacity(w.schedule.len());
    let mut late_us = Vec::with_capacity(w.schedule.len());
    let (mut capacity_rps, mut cpu_us_per_request, mut round_ref_us) =
        (Vec::new(), Vec::new(), Vec::new());
    let per_round = w.schedule.len() / rounds;
    for round in 0..rounds {
        let hi = if round + 1 == rounds { w.schedule.len() } else { (round + 1) * per_round };
        open_loop(&mut client, w, round * per_round, hi, &mut open, &mut late_us)?;
        let ref_before = crate::speed::reading(SERVER_CPU, CLIENT_CPU);
        let cpu0 = server.cpu_ns()?;
        let cap = capacity(&mut client, w, capacity_laps)?;
        let cpu1 = server.cpu_ns()?;
        round_ref_us.push((ref_before + crate::speed::reading(SERVER_CPU, CLIENT_CPU)) / 2.0);

        capacity_rps.push(cap.rps);
        cpu_us_per_request.push(stats::us(cpu1 - cpu0) / cap.sent.max(1) as f64);
        attempted += cap.sent;
        failed += cap.failed;
    }
    let rtt_us =
        open.iter().filter(|d| d.ok).map(|d| stats::us(d.recv_ns - d.intended_ns)).collect();

    let peak_rss_mb = server.peak_rss_mb()?;
    client.close();
    let summary = server.stop();
    attempted += open.len() as u64;
    failed += open.iter().filter(|d| !d.ok).count() as u64;
    Ok(Pass {
        setup_cpu_s,
        setup_wall_s,
        setup_ref_us,
        rtt_us,
        capacity_rps,
        cpu_us_per_request,
        round_ref_us,
        pinned,
        late_us,
        peak_rss_mb,
        attempted,
        failed,
        summary,
        open,
    })
}

impl Pass {
    /// Record every open-loop request as two spans: waiting to be sent,
    /// and the round trip. (Capacity-phase requests are counted, not
    /// traced one by one.)
    pub fn spans(&self, spans: &mut Spans) {
        for d in &self.open {
            let id = format!("c{}.{}", d.conn, d.seq);
            spans.push("client.wait_to_send", d.intended_ns, d.sent_ns, "open-loop", &id);
            spans.push("client.round_trip", d.sent_ns, d.recv_ns, "open-loop", &id);
        }
    }

    /// `(requests, batches)` from the server's summary line.
    pub fn served(&self) -> Option<(f64, f64)> {
        let line = self.summary.lines().find(|l| l.starts_with("served "))?;
        let mut words = line.split_whitespace();
        let requests = words.nth(1)?.parse().ok()?;
        let batches = words.nth(2)?.parse().ok()?;
        Some((requests, batches))
    }
}
