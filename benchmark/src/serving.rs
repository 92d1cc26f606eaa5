//! The serving side: a `cocktail-serve serve` child process, a binary-wire
//! socket client, an in-process engine link, and one closed-loop client
//! that keeps a fixed window of requests in flight over either link.

use crate::accounting::{Ledger, Probe, Window};
use cocktail_obs::{Event, EventKind, FieldValue};
use cocktail_serve::engine::{Outbox, PinnedHandle};
use cocktail_serve::wire::{
    decode_response, encode_request_into, status_of_error, ResponseRec, WIRE_HELLO,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;
/// "No such process": the thread named has ended.
const ESRCH: i32 = 3;

/// How long a link may stay silent with requests in flight before the
/// client gives up on them (they then count as lost).
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

impl CpuSet {
    fn only(cpu: usize) -> Self {
        let mut set = Self([0; 16]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        set
    }

    /// The affinity mask of thread `tid` (0: the calling thread).
    fn of(tid: i32) -> Result<Self, String> {
        let mut set = Self([0; 16]);
        // SAFETY: `set` is a writable cpu_set_t of the size passed, and it
        // outlives the call.
        let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<Self>(), &mut set) };
        if rc == 0 {
            Ok(set)
        } else {
            Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    /// Confines thread `tid` (0: the calling thread) to this set.
    fn apply(&self, tid: i32) -> std::io::Result<()> {
        // SAFETY: `self` is a readable cpu_set_t of the size passed, and it
        // outlives the call.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<Self>(), self) };
        if rc == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
}

/// The CPU a serving session runs on: the lowest one the calling thread
/// may use.
///
/// A session confines the client and every thread of the server to this
/// one CPU, so each hand-off between the client, the reactor and the shard
/// worker is a context switch on that CPU. Spread over two vCPUs of a
/// shared host, each hand-off is a wake-up of an idle vCPU instead, which
/// the hypervisor schedules: measured on the 2-vCPU host, that is about
/// half of a lockstep round trip, and during a neighbour's busy spell it
/// cuts lockstep throughput 2-4x for minutes at a time.
pub fn serving_cpu() -> Result<usize, String> {
    let set = CpuSet::of(0)?;
    set.0
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or_else(|| "the calling thread may run on no CPU".into())
}

/// Confines the calling thread to one CPU; dropping it restores the
/// thread's previous mask. Threads the calling thread starts meanwhile
/// inherit the confinement.
pub struct PinnedThread(CpuSet);

impl PinnedThread {
    pub fn to(cpu: usize) -> Result<Self, String> {
        let saved = CpuSet::of(0)?;
        CpuSet::only(cpu)
            .apply(0)
            .map_err(|e| format!("sched_setaffinity: {e}"))?;
        Ok(Self(saved))
    }
}

impl Drop for PinnedThread {
    fn drop(&mut self) {
        if let Err(e) = self.0.apply(0) {
            eprintln!("restore CPU affinity: {e}");
        }
    }
}

/// A running `cocktail-serve serve` process with its shipped defaults.
/// Dropping it kills the process and waits for it to end.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// The transport label the server printed (`reactor` or `threaded`).
    pub transport: String,
}

impl ServerProc {
    /// Starts the server on an ephemeral loopback port and waits for its
    /// `serving ... on <addr> (<transport> transport, ...)` line.
    pub fn spawn(bin: &Path, bundle: &Path, telemetry: Option<&Path>) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--bundle")
            .arg(bundle)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(path) = telemetry {
            cmd.arg("--telemetry").arg(path);
        }
        // SAFETY: the hook runs in the forked child before exec and only
        // makes the prctl(2) syscall, which is async-signal-safe and touches
        // no memory of the parent.
        unsafe {
            cmd.pre_exec(|| {
                // the server must not outlive a benchmark that is killed
                if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let parsed = match child.stdout.take() {
            Some(stdout) => read_banner(stdout),
            None => Err("server stdout not captured".into()),
        };
        match parsed {
            Ok((addr, transport)) => Ok(Self {
                child,
                addr,
                transport,
            }),
            Err(e) => {
                let _ = child.kill();
                let status = child
                    .wait()
                    .map_or_else(|e| e.to_string(), |s| s.to_string());
                Err(format!("server did not start ({status}): {e}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Confines every thread of the running server to `cpu`.
    pub fn pin(&self, cpu: usize) -> Result<(), String> {
        let tasks = format!("/proc/{}/task", self.pid());
        let entries = std::fs::read_dir(&tasks).map_err(|e| format!("read {tasks}: {e}"))?;
        let only = CpuSet::only(cpu);
        for entry in entries {
            let entry = entry.map_err(|e| format!("read {tasks}: {e}"))?;
            let tid: i32 = entry
                .file_name()
                .to_string_lossy()
                .parse()
                .map_err(|_| format!("{tasks}: unexpected entry {:?}", entry.file_name()))?;
            match only.apply(tid) {
                // the thread ended since the directory was read
                Err(e) if e.raw_os_error() == Some(ESRCH) => {}
                r => r.map_err(|e| format!("sched_setaffinity of thread {tid}: {e}"))?,
            }
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn read_banner(stdout: impl Read) -> Result<(SocketAddr, String), String> {
    let mut lines = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = lines
            .read_line(&mut line)
            .map_err(|e| format!("read server stdout: {e}"))?;
        if n == 0 {
            return Err("server exited before binding".into());
        }
        if let Some(parsed) = parse_banner(&line) {
            return Ok(parsed);
        }
    }
}

/// Parses `serving <system> on <addr> (<transport> transport, <n> shards)`.
fn parse_banner(line: &str) -> Option<(SocketAddr, String)> {
    let rest = line.strip_prefix("serving ")?;
    let after_on = &rest[rest.find(" on ")? + 4..];
    let (addr, tail) = after_on.split_once(" (")?;
    let transport = tail.split_whitespace().next()?.to_string();
    Some((addr.parse().ok()?, transport))
}

/// One side of a request/reply conversation with the engine.
pub trait Link {
    /// Queues one request.
    fn send(&mut self, id: u64, state: &[f64]) -> Result<(), String>;
    /// Pushes every queued request out.
    fn flush(&mut self) -> Result<(), String>;
    /// Waits for replies and appends them to `out`; `false` when the link
    /// stayed silent for [`REPLY_TIMEOUT`] or closed.
    fn recv(&mut self, out: &mut Vec<ResponseRec>) -> Result<bool, String>;
}

/// A binary-wire connection (`wire::encode_request_into` /
/// `wire::decode_response` over TCP with `TCP_NODELAY`).
pub struct SocketLink {
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
    filled: usize,
}

impl SocketLink {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .and_then(|()| stream.write_all(&[WIRE_HELLO]))
            .map_err(|e| format!("set up connection: {e}"))?;
        Ok(Self {
            stream,
            out: Vec::with_capacity(4096),
            buf: vec![0; 64 * 1024],
            filled: 0,
        })
    }
}

impl Link for SocketLink {
    fn send(&mut self, id: u64, state: &[f64]) -> Result<(), String> {
        encode_request_into(id, state, &mut self.out);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), String> {
        let r = self.stream.write_all(&self.out);
        self.out.clear();
        r.map_err(|e| format!("write: {e}"))
    }

    fn recv(&mut self, out: &mut Vec<ResponseRec>) -> Result<bool, String> {
        let n = match self.stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(false)
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        self.filled += n;
        let mut used = 0;
        let mut rec = ResponseRec::err(0, 0);
        while let Some(len) =
            decode_response(&self.buf[used..self.filled], &mut rec).map_err(|e| e.to_string())?
        {
            out.push(rec);
            used += len;
        }
        self.buf.copy_within(used..self.filled, 0);
        self.filled -= used;
        Ok(true)
    }
}

/// The in-process engine through the same reply path the reactor uses:
/// `PinnedHandle::try_submit_outbox` answered onto an [`Outbox`].
pub struct EngineLink {
    handle: PinnedHandle,
    outbox: Arc<Outbox>,
    /// Synchronous refusals, delivered as replies on the next `recv`.
    refused: Vec<ResponseRec>,
}

impl EngineLink {
    pub fn new(handle: PinnedHandle) -> Self {
        Self {
            handle,
            outbox: Arc::new(Outbox::new()),
            refused: Vec::new(),
        }
    }
}

impl Link for EngineLink {
    fn send(&mut self, id: u64, state: &[f64]) -> Result<(), String> {
        if let Err(e) = self.handle.try_submit_outbox(id, state, &self.outbox) {
            self.refused.push(ResponseRec::err(id, status_of_error(&e)));
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn recv(&mut self, out: &mut Vec<ResponseRec>) -> Result<bool, String> {
        if !self.refused.is_empty() {
            out.append(&mut self.refused);
            return Ok(true);
        }
        if !self.outbox.wait_nonempty(REPLY_TIMEOUT) {
            return Ok(false);
        }
        self.outbox.drain_into(out);
        Ok(true)
    }
}

/// What a closed-loop run measured.
pub struct LoopRun {
    pub ledger: Ledger,
    pub window: Window,
}

/// Keeps `window` requests in flight on `link` for `duration` (a closed
/// loop: each reply releases the next request), cycling through `probes`,
/// then drains what is still in flight.
pub fn closed_loop(
    link: &mut dyn Link,
    probes: &[Probe],
    window: usize,
    duration: Duration,
) -> Result<LoopRun, String> {
    let mut ledger = Ledger::new();
    let mut replies = Vec::with_capacity(window.max(1));
    let mut next = 0usize;
    let start = Instant::now();
    let deadline = start + duration;
    loop {
        let now = Instant::now();
        if now < deadline {
            let room = window.saturating_sub(ledger.in_flight());
            if room > 0 {
                for _ in 0..room {
                    let index = next % probes.len();
                    next += 1;
                    let id = ledger.issue(index, now);
                    link.send(id, &probes[index].state)?;
                }
                link.flush()?;
            }
        } else if ledger.in_flight() == 0 {
            break;
        }
        replies.clear();
        if !link.recv(&mut replies)? {
            ledger.abandon_in_flight();
            break;
        }
        let at = Instant::now();
        for rec in &replies {
            ledger.settle(rec, at, probes);
        }
    }
    Ok(LoopRun {
        window: Window {
            secs: start.elapsed().as_secs_f64(),
            latencies_us: ledger.latencies_us().to_vec(),
        },
        ledger,
    })
}

/// Sends one request and waits for an OK, bit-exact reply.
pub fn first_ok(addr: SocketAddr, probe: &Probe) -> Result<(), String> {
    let mut link = SocketLink::connect(addr)?;
    let probes = std::slice::from_ref(probe);
    let mut ledger = Ledger::new();
    let id = ledger.issue(0, Instant::now());
    link.send(id, &probe.state)?;
    link.flush()?;
    let mut replies = Vec::new();
    while ledger.in_flight() > 0 {
        replies.clear();
        if !link.recv(&mut replies)? {
            return Err("no reply to the first request".into());
        }
        for rec in &replies {
            ledger.settle(rec, Instant::now(), probes);
        }
    }
    if ledger.ok() == 1 && ledger.failures().total() == 0 {
        Ok(())
    } else {
        Err(format!("first request failed: {:?}", ledger.failures()))
    }
}

/// Batching observed by a traced server: requests per batch and the
/// median queue depth at batch pickup.
pub struct BatchStats {
    pub rows_mean: f64,
    pub queue_depth_p50: f64,
}

/// Reads the server's telemetry stream. Only the per-batch records are
/// parsed; the per-request capture lines (the bulk of the file) are
/// skipped by name. A final line cut short by the kill is ignored.
pub fn batch_stats(path: &Path) -> Result<BatchStats, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let (mut requests, mut batches) = (0u64, 0u64);
    let mut depths = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("read telemetry: {e}"))?;
        let wanted = [
            "\"serve.requests\"",
            "\"serve.shard.batches\"",
            "\"serve.queue_depth\"",
        ];
        if !wanted.iter().any(|w| line.contains(w)) {
            continue;
        }
        let Ok(event) = serde_json::from_str::<Event>(&line) else {
            continue;
        };
        match (event.kind, event.name.as_str()) {
            (EventKind::Counter, "serve.requests") => requests += event.delta.unwrap_or(0),
            (EventKind::Counter, "serve.shard.batches") => batches += event.delta.unwrap_or(0),
            (EventKind::Histogram, "serve.queue_depth") => match event.field("value") {
                Some(FieldValue::F64(v)) => depths.push(*v),
                Some(FieldValue::U64(v)) => depths.push(*v as f64),
                Some(FieldValue::I64(v)) => depths.push(*v as f64),
                _ => {}
            },
            _ => {}
        }
    }
    if batches == 0 {
        return Err("traced server recorded no batches".into());
    }
    depths.sort_by(f64::total_cmp);
    Ok(BatchStats {
        rows_mean: requests as f64 / batches as f64,
        queue_depth_p50: crate::accounting::nearest_rank(&depths, 50.0).unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every request correctly, and also sends one duplicate of the
    /// first reply and one reply for an id nobody issued.
    struct StrayLink {
        sent: Vec<u64>,
        strays_sent: bool,
    }

    impl Link for StrayLink {
        fn send(&mut self, id: u64, _state: &[f64]) -> Result<(), String> {
            self.sent.push(id);
            Ok(())
        }

        fn flush(&mut self) -> Result<(), String> {
            Ok(())
        }

        fn recv(&mut self, out: &mut Vec<ResponseRec>) -> Result<bool, String> {
            if !self.strays_sent && !self.sent.is_empty() {
                self.strays_sent = true;
                out.push(ResponseRec::ok(1 << 40, &[0.5], false));
                out.push(ResponseRec::ok(self.sent[0], &[0.5], false));
            }
            out.extend(
                self.sent
                    .drain(..)
                    .map(|id| ResponseRec::ok(id, &[0.5], false)),
            );
            Ok(true)
        }
    }

    #[test]
    fn window_client_counts_stray_replies_as_failures() {
        let probes = [Probe {
            state: vec![0.0, 0.0],
            expected: vec![0.5],
        }];
        let mut link = StrayLink {
            sent: Vec::new(),
            strays_sent: false,
        };
        let run = closed_loop(&mut link, &probes, 4, Duration::from_millis(20)).expect("runs");
        let f = run.ledger.failures();
        // the stray pair arrives before the real replies: the unknown id is
        // refused, and the early copy of the first reply is accepted, so
        // its genuine reply then counts as the duplicate
        assert_eq!((f.unknown_ids, f.duplicate_ids), (1, 1));
        assert_eq!(f.total(), 2);
        assert_eq!(run.ledger.ok(), run.ledger.attempted());
        assert_eq!(run.ledger.in_flight(), 0);
        assert!(run.window.rps() > 0.0);
    }

    #[test]
    fn banner_parses_address_and_transport() {
        let (addr, transport) =
            parse_banner("serving Oscillator on 127.0.0.1:40123 (reactor transport, 1 shards)\n")
                .expect("parses");
        assert_eq!(addr.port(), 40123);
        assert_eq!(transport, "reactor");
        assert!(parse_banner("drift: nothing to see").is_none());
    }
}
