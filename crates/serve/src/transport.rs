//! The portable TCP transport: framed JSON and the binary wire protocol
//! on one port, one thread per connection.
//!
//! JSON frame format: a 4-byte big-endian length followed by that many
//! bytes of JSON. Requests carry `{id, state}`; responses always carry
//! all of `{id, control, fallback, error}` — an empty `error` string
//! means success, a non-empty one explains the refusal (the vendored
//! serde shim has no `Option` sugar, and a fixed shape keeps foreign
//! clients trivial).
//!
//! A client may instead send the [`WIRE_HELLO`] byte (`0xC1`) as its very
//! first byte, switching the connection to the fixed-layout binary
//! format in [`crate::wire`]. A JSON frame's first byte is the high byte
//! of a length capped at 1 MiB — always `0x00` — so the two protocols
//! are unambiguous without a handshake round trip.
//!
//! Every connection is pinned to an engine shard by its accept-order
//! connection id ([`EngineHandle::pinned`]), so a given connection's
//! requests always land on the same queue. One connection may pipeline
//! many requests; cross-connection concurrency is what actually fills
//! batches. This thread-per-connection server is the portable fallback;
//! on Linux the epoll reactor ([`crate::reactor`]) serves the same two
//! protocols without a thread per socket.

use crate::bundle::fnv1a_64;
use crate::engine::{ControlResponse, EngineHandle, PinnedHandle, ServeError};
use crate::wire::{self, ResponseRec, WIRE_HELLO};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Refuse frames above this size; a control request is a few dozen
/// numbers, so anything near this is a protocol error, not a workload.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Client-side robustness knobs shared by both protocol clients.
///
/// Requests are pure functions of the state vector, so a
/// reconnect-and-resend after a dropped connection is always safe; the
/// backoff jitter is a deterministic function of `seed` and the attempt
/// number, keeping retry timing reproducible in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Give up a connect attempt after this long (`None`: OS default).
    pub connect_timeout: Option<Duration>,
    /// Give up a blocking response read after this long (`None`: wait
    /// forever).
    pub read_timeout: Option<Duration>,
    /// How many reconnect-and-resend attempts one request gets after a
    /// transport error (0 restores fail-fast).
    pub max_reconnects: u32,
    /// First backoff delay; doubles per attempt up to `backoff_cap`.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(10)),
            max_reconnects: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            seed: 0xc0c7,
        }
    }
}

/// Deterministic truncated exponential backoff with FNV-derived jitter:
/// `min(cap, base * 2^attempt) + fnv(seed, attempt) % base`.
fn backoff_delay(config: &ClientConfig, attempt: u32) -> Duration {
    let base_ms = u64::try_from(config.backoff_base.as_millis())
        .unwrap_or(u64::MAX)
        .max(1);
    let cap_ms = u64::try_from(config.backoff_cap.as_millis())
        .unwrap_or(u64::MAX)
        .max(base_ms);
    let exp = base_ms.saturating_mul(1u64 << attempt.min(20)).min(cap_ms);
    let mut key = [0u8; 12];
    key[..8].copy_from_slice(&config.seed.to_le_bytes());
    key[8..].copy_from_slice(&attempt.to_le_bytes());
    Duration::from_millis(exp + fnv1a_64(&key) % base_ms)
}

fn resolve<A: ToSocketAddrs>(addr: A) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing"))
}

fn open_stream(addr: SocketAddr, config: &ClientConfig) -> io::Result<TcpStream> {
    let stream = match config.connect_timeout {
        Some(t) => TcpStream::connect_timeout(&addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(config.read_timeout)?;
    Ok(stream)
}

/// Maps a transport-level failure that survived every reconnect attempt
/// to the client-visible error: hangups become [`ServeError::Shutdown`],
/// everything else keeps its cause.
fn transport_error(e: &io::Error) -> ServeError {
    if matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
    ) {
        ServeError::Shutdown
    } else {
        ServeError::BadRequest(format!("transport failure: {e}"))
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct WireRequest {
    id: u64,
    state: Vec<f64>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct WireResponse {
    id: u64,
    control: Vec<f64>,
    fallback: bool,
    error: String,
}

/// Anything that can answer a control request — the in-process engine
/// handle or a TCP client. The load generator is written against this so
/// the same drill runs in-process and over the wire.
pub trait ControlClient {
    /// Computes the clipped control for `state`.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`ServeError`].
    fn control(&mut self, state: &[f64]) -> Result<ControlResponse, ServeError>;

    /// How many times this client re-established a dropped connection.
    /// In-process handles never reconnect.
    fn reconnects(&self) -> u64 {
        0
    }
}

impl ControlClient for EngineHandle {
    fn control(&mut self, state: &[f64]) -> Result<ControlResponse, ServeError> {
        self.submit(state)
    }
}

impl ControlClient for PinnedHandle {
    fn control(&mut self, state: &[f64]) -> Result<ControlResponse, ServeError> {
        self.submit(state)
    }
}

impl ControlClient for Box<dyn ControlClient + Send> {
    fn control(&mut self, state: &[f64]) -> Result<ControlResponse, ServeError> {
        (**self).control(state)
    }

    fn reconnects(&self) -> u64 {
        (**self).reconnects()
    }
}

/// Writes one length-prefixed frame with a single `write`, so the prefix
/// and the body leave in one segment: split across two writes, the body
/// waits on the peer's delayed ACK under Nagle.
fn write_frame(stream: &mut TcpStream, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

fn read_frame(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    read_frame_after_len(stream, len_buf)
}

fn read_frame_after_len(stream: &mut TcpStream, len_buf: [u8; 4]) -> io::Result<Vec<u8>> {
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// A serving endpoint: accept loop plus one thread per connection, all
/// feeding shard-pinned handles of the shared engine.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, handle: EngineHandle) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("cocktail-serve-accept".into())
            .spawn(move || {
                let next_conn = AtomicU64::new(0);
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // replies are small and latency-bound: never hold one
                    // back for Nagle coalescing
                    let Ok(stream) = conn else { continue };
                    if stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let conn_id = next_conn.fetch_add(1, Ordering::Relaxed);
                    let pinned = handle.pinned(conn_id);
                    // connection threads are detached: they exit when the
                    // peer hangs up or the engine shuts down
                    let _ = std::thread::Builder::new()
                        .name("cocktail-serve-conn".into())
                        .spawn(move || serve_connection(stream, &pinned));
                }
            })?;
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop.
    /// In-flight connections finish on their own.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // the accept loop only observes `stop` between connections; poke
        // it with a throwaway connect so it wakes up and exits
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn serve_connection(mut stream: TcpStream, handle: &PinnedHandle) {
    // protocol sniff: 0xC1 switches to the binary wire format; anything
    // else is the first byte of a JSON frame length
    let mut first = [0u8; 1];
    if stream.read_exact(&mut first).is_err() {
        return;
    }
    if first[0] == WIRE_HELLO {
        serve_binary_connection(stream, handle);
    } else {
        serve_json_connection(stream, handle, first[0]);
    }
}

fn serve_json_connection(mut stream: TcpStream, handle: &PinnedHandle, first_len_byte: u8) {
    let mut sniffed = Some(first_len_byte);
    loop {
        let mut len_buf = [0u8; 4];
        match sniffed.take() {
            Some(b0) => {
                let mut rest = [0u8; 3];
                if stream.read_exact(&mut rest).is_err() {
                    return;
                }
                len_buf = [b0, rest[0], rest[1], rest[2]];
            }
            None => {
                if stream.read_exact(&mut len_buf).is_err() {
                    return; // peer hung up between frames
                }
            }
        }
        let len = u32::from_be_bytes(len_buf);
        if len > MAX_FRAME_BYTES {
            // the stream cannot resynchronise after a framing violation:
            // send a status-coded goodbye instead of a silent hangup, then
            // close
            let goodbye = WireResponse {
                id: 0,
                control: Vec::new(),
                fallback: false,
                error: format!(
                    "malformed frame: length {len} exceeds the {MAX_FRAME_BYTES}-byte limit"
                ),
            };
            if let Ok(encoded) = serde_json::to_string(&goodbye) {
                let _ = write_frame(&mut stream, encoded.as_bytes());
            }
            return;
        }
        let mut body = vec![0u8; len as usize];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        let parsed = std::str::from_utf8(&body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<WireRequest>(text).map_err(|e| e.to_string()));
        let response = match parsed {
            Ok(req) => {
                let (control, fallback, error) = match handle.submit(&req.state) {
                    Ok(resp) => (resp.control, resp.served_by_fallback, String::new()),
                    Err(e) => (Vec::new(), false, e.to_string()),
                };
                WireResponse {
                    id: req.id,
                    control,
                    fallback,
                    error,
                }
            }
            Err(e) => WireResponse {
                id: 0,
                control: Vec::new(),
                fallback: false,
                error: format!("unparseable request: {e}"),
            },
        };
        let Ok(encoded) = serde_json::to_string(&response) else {
            return;
        };
        if write_frame(&mut stream, encoded.as_bytes()).is_err() {
            return;
        }
    }
}

fn serve_binary_connection(mut stream: TcpStream, handle: &PinnedHandle) {
    let mut rbuf: Vec<u8> = Vec::with_capacity(4096);
    let mut wbuf: Vec<u8> = Vec::with_capacity(4096);
    let mut state: Vec<f64> = Vec::with_capacity(handle.state_dim());
    let mut chunk = [0u8; 4096];
    loop {
        let Ok(n) = stream.read(&mut chunk) else {
            return;
        };
        if n == 0 {
            return; // orderly hangup
        }
        rbuf.extend_from_slice(&chunk[..n]);
        wbuf.clear();
        let mut consumed = 0usize;
        loop {
            match wire::decode_request(&rbuf[consumed..], &mut state) {
                Ok(Some((id, used))) => {
                    consumed += used;
                    let rec = match handle.submit(&state) {
                        Ok(resp) => ResponseRec::ok(id, &resp.control, resp.served_by_fallback),
                        Err(e) => ResponseRec::err(id, wire::status_of_error(&e)),
                    };
                    wire::encode_response_into(&rec, &mut wbuf);
                }
                Ok(None) => break,
                Err(_) => {
                    // unrecoverable framing violation: flush whatever was
                    // already answered, report a status-coded malformed-frame
                    // record (id 0: no request survived decoding), and close
                    wire::encode_response_into(
                        &ResponseRec::err(0, wire::STATUS_MALFORMED_FRAME),
                        &mut wbuf,
                    );
                    let _ = stream.write_all(&wbuf).and_then(|()| stream.flush());
                    return;
                }
            }
        }
        if consumed > 0 {
            rbuf.copy_within(consumed.., 0);
            rbuf.truncate(rbuf.len() - consumed);
        }
        if !wbuf.is_empty() && (stream.write_all(&wbuf).is_err() || stream.flush().is_err()) {
            return;
        }
    }
}

/// A blocking client speaking the framed-JSON protocol, with bounded
/// reconnect-and-resend on transport errors ([`ClientConfig`]).
pub struct TcpClient {
    stream: TcpStream,
    addr: SocketAddr,
    config: ClientConfig,
    next_id: u64,
    reconnects: u64,
}

impl TcpClient {
    /// Connects to a [`Server`] with [`ClientConfig::default`].
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit robustness knobs.
    ///
    /// # Errors
    ///
    /// Propagates resolve/connect failures.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> io::Result<Self> {
        let addr = resolve(addr)?;
        let stream = open_stream(addr, &config)?;
        Ok(Self {
            stream,
            addr,
            config,
            next_id: 1,
            reconnects: 0,
        })
    }

    /// Test hook: tears the TCP connection down without telling the
    /// client, as a mid-flight network failure would.
    pub fn sever(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// One send-and-receive over the current connection. `Err` is a
    /// transport failure (retryable by reconnecting); the inner result is
    /// the server's final answer.
    fn try_once(
        &mut self,
        id: u64,
        encoded: &str,
    ) -> io::Result<Result<ControlResponse, ServeError>> {
        write_frame(&mut self.stream, encoded.as_bytes())?;
        let body = read_frame(&mut self.stream)?;
        let text = match std::str::from_utf8(&body) {
            Ok(t) => t,
            Err(e) => {
                return Ok(Err(ServeError::BadRequest(format!(
                    "non-UTF-8 response: {e}"
                ))))
            }
        };
        let response: WireResponse = match serde_json::from_str(text) {
            Ok(r) => r,
            Err(e) => return Ok(Err(ServeError::BadRequest(format!("decode response: {e}")))),
        };
        if response.id != id {
            return Ok(Err(ServeError::BadRequest(format!(
                "response id {} != request id {id}",
                response.id
            ))));
        }
        Ok(if response.error.is_empty() {
            Ok(ControlResponse {
                control: response.control,
                served_by_fallback: response.fallback,
            })
        } else if response.error.starts_with("queue full") {
            Err(ServeError::Backpressure { depth: 0 })
        } else if response.error.contains("non-finite controller output") {
            Err(ServeError::NonFiniteOutput)
        } else if response.error.contains("engine shut down") {
            Err(ServeError::Shutdown)
        } else {
            Err(ServeError::BadRequest(response.error))
        })
    }
}

impl ControlClient for TcpClient {
    fn control(&mut self, state: &[f64]) -> Result<ControlResponse, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = WireRequest {
            id,
            state: state.to_vec(),
        };
        let encoded = serde_json::to_string(&request)
            .map_err(|e| ServeError::BadRequest(format!("encode request: {e}")))?;
        let mut attempt = 0u32;
        loop {
            match self.try_once(id, &encoded) {
                Ok(result) => return result,
                Err(e) => {
                    if attempt >= self.config.max_reconnects {
                        return Err(transport_error(&e));
                    }
                    std::thread::sleep(backoff_delay(&self.config, attempt));
                    attempt += 1;
                    // a failed reconnect keeps the dead stream; the next
                    // try_once fails fast and burns another attempt
                    if let Ok(stream) = open_stream(self.addr, &self.config) {
                        self.stream = stream;
                        self.reconnects += 1;
                    }
                }
            }
        }
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }
}

/// A blocking client speaking the binary wire protocol (hello byte, then
/// fixed-layout frames). Its buffers are reused across requests, so a
/// steady-state request performs no client-side allocation either.
/// Transport errors trigger bounded reconnect-and-resend like
/// [`TcpClient`]; a reconnect replays the hello byte and discards any
/// half-read response bytes.
pub struct BinaryTcpClient {
    stream: TcpStream,
    addr: SocketAddr,
    config: ClientConfig,
    next_id: u64,
    reconnects: u64,
    rbuf: Vec<u8>,
    frame: Vec<u8>,
    filled: usize,
}

impl BinaryTcpClient {
    /// Connects and sends the protocol hello byte, with
    /// [`ClientConfig::default`].
    ///
    /// # Errors
    ///
    /// Propagates connect/write failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit robustness knobs.
    ///
    /// # Errors
    ///
    /// Propagates resolve/connect/write failures.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> io::Result<Self> {
        let addr = resolve(addr)?;
        let mut stream = open_stream(addr, &config)?;
        stream.write_all(&[WIRE_HELLO])?;
        Ok(Self {
            stream,
            addr,
            config,
            next_id: 1,
            reconnects: 0,
            rbuf: vec![0u8; 4096],
            frame: Vec::with_capacity(256),
            filled: 0,
        })
    }

    /// Test hook: tears the TCP connection down without telling the
    /// client, as a mid-flight network failure would.
    pub fn sever(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// One send-and-receive over the current connection; `self.frame`
    /// already holds the encoded request. `Err` is a transport failure
    /// (retryable by reconnecting); the inner result is final.
    fn try_once(&mut self, id: u64) -> io::Result<Result<ControlResponse, ServeError>> {
        self.stream
            .write_all(&self.frame)
            .and_then(|()| self.stream.flush())?;
        let mut rec = ResponseRec::err(0, wire::STATUS_BAD_REQUEST);
        loop {
            match wire::decode_response(&self.rbuf[..self.filled], &mut rec) {
                Ok(Some(used)) => {
                    self.rbuf.copy_within(used..self.filled, 0);
                    self.filled -= used;
                    break;
                }
                Ok(None) => {
                    if self.filled == self.rbuf.len() {
                        self.rbuf.resize(self.rbuf.len() * 2, 0);
                    }
                    let n = self.stream.read(&mut self.rbuf[self.filled..])?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-response",
                        ));
                    }
                    self.filled += n;
                }
                // a decode error is the server speaking a different
                // protocol, not a flaky network: fatal, no retry
                Err(e) => return Ok(Err(ServeError::BadRequest(e.to_string()))),
            }
        }
        // id 0 is reserved for connection-level error records (the server
        // couldn't attribute the failure to a request it decoded)
        if rec.id != id {
            if rec.id == 0 {
                if let Some(e) = wire::error_of_status(rec.status) {
                    return Ok(Err(e));
                }
            }
            return Ok(Err(ServeError::BadRequest(format!(
                "response id {} != request id {id}",
                rec.id
            ))));
        }
        Ok(match wire::error_of_status(rec.status) {
            None => Ok(ControlResponse {
                control: rec.control().to_vec(),
                served_by_fallback: rec.status == wire::STATUS_OK_FALLBACK,
            }),
            Some(e) => Err(e),
        })
    }
}

impl ControlClient for BinaryTcpClient {
    fn control(&mut self, state: &[f64]) -> Result<ControlResponse, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.frame.clear();
        wire::encode_request_into(id, state, &mut self.frame);
        let mut attempt = 0u32;
        loop {
            match self.try_once(id) {
                Ok(result) => return result,
                Err(e) => {
                    if attempt >= self.config.max_reconnects {
                        return Err(transport_error(&e));
                    }
                    std::thread::sleep(backoff_delay(&self.config, attempt));
                    attempt += 1;
                    if let Ok(mut stream) = open_stream(self.addr, &self.config) {
                        if stream.write_all(&[WIRE_HELLO]).is_ok() {
                            self.stream = stream;
                            self.filled = 0; // stale half-frames are gone
                            self.reconnects += 1;
                        }
                    }
                }
            }
        }
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use cocktail_math::vector;
    use cocktail_nn::{Activation, MlpBuilder};
    use cocktail_obs::NullSink;

    fn test_engine() -> Engine {
        test_engine_sharded(1)
    }

    fn test_engine_sharded(shards: usize) -> Engine {
        let net = MlpBuilder::new(2)
            .hidden(6, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(11)
            .build();
        Engine::from_parts(
            net,
            vec![1.5],
            vec![-4.0],
            vec![4.0],
            EngineConfig {
                shards,
                ..EngineConfig::default()
            },
            None,
            std::sync::Arc::new(NullSink),
        )
        .expect("engine starts")
    }

    #[test]
    fn tcp_round_trip_matches_in_process_answer() {
        let engine = test_engine();
        let server = Server::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut client = TcpClient::connect(server.local_addr()).expect("connect");
        let state = [0.2, -0.7];
        let over_wire = client.control(&state).expect("served");
        let in_process = engine.handle().submit(&state).expect("served");
        assert_eq!(over_wire, in_process);
        server.shutdown();
    }

    #[test]
    fn binary_round_trip_matches_json_bit_for_bit() {
        let engine = test_engine_sharded(2);
        let server = Server::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut json = TcpClient::connect(server.local_addr()).expect("connect");
        let mut binary = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        for i in 0..32 {
            let s = [f64::from(i) * 0.04 - 0.6, 0.3];
            let via_json = json.control(&s).expect("served");
            let via_binary = binary.control(&s).expect("served");
            assert_eq!(via_json, via_binary, "wire formats must agree bitwise");
        }
        server.shutdown();
    }

    #[test]
    fn binary_errors_travel_as_status_codes() {
        let engine = test_engine();
        let server = Server::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        let err = client.control(&[1.0, 2.0, 3.0]).expect_err("wrong dim");
        assert!(matches!(err, ServeError::BadRequest(_)));
        // the connection survives a refused request
        assert!(client.control(&[0.0, 0.0]).is_ok());
        server.shutdown();
    }

    #[test]
    fn malformed_state_travels_back_as_an_error() {
        let engine = test_engine();
        let server = Server::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut client = TcpClient::connect(server.local_addr()).expect("connect");
        let err = client.control(&[1.0, 2.0, 3.0]).expect_err("wrong dim");
        assert!(matches!(err, ServeError::BadRequest(_)));
        // the connection survives a refused request
        assert!(client.control(&[0.0, 0.0]).is_ok());
        server.shutdown();
    }

    #[test]
    fn lockstep_json_round_trips_have_no_delayed_ack_stall() {
        // one request in flight at a time: a frame split across two
        // segments, or a server socket left under Nagle, stalls every round
        // trip on the peer's delayed ACK (~40 ms each, ~8 s in total)
        let engine = test_engine();
        let server = Server::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut client = TcpClient::connect(server.local_addr()).expect("connect");
        let started = std::time::Instant::now();
        for i in 0..200u32 {
            let s = [f64::from(i) / 400.0 - 0.25, 0.1];
            client.control(&s).expect("served");
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "200 lockstep JSON round trips took {elapsed:?}"
        );
        server.shutdown();
    }

    fn fast_retry_config() -> ClientConfig {
        ClientConfig {
            max_reconnects: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let cfg = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            seed: 42,
            ..ClientConfig::default()
        };
        let first: Vec<Duration> = (0..6).map(|i| backoff_delay(&cfg, i)).collect();
        let second: Vec<Duration> = (0..6).map(|i| backoff_delay(&cfg, i)).collect();
        assert_eq!(first, second, "same seed must give identical delays");
        for d in &first {
            assert!(*d >= Duration::from_millis(10), "at least the base");
            assert!(*d < Duration::from_millis(90), "cap plus jitter bound");
        }
    }

    #[test]
    fn json_client_reconnects_after_a_severed_connection() {
        let engine = test_engine();
        let server = Server::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut client =
            TcpClient::connect_with(server.local_addr(), fast_retry_config()).expect("connect");
        let s = [0.1, -0.2];
        let before = client.control(&s).expect("served");
        client.sever();
        let after = client.control(&s).expect("served after reconnect");
        assert_eq!(before, after, "resent request answers identically");
        assert_eq!(client.reconnects(), 1);
        server.shutdown();
    }

    #[test]
    fn binary_client_reconnects_after_a_severed_connection() {
        let engine = test_engine();
        let server = Server::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut client = BinaryTcpClient::connect_with(server.local_addr(), fast_retry_config())
            .expect("connect");
        let s = [0.1, -0.2];
        let before = client.control(&s).expect("served");
        client.sever();
        let after = client.control(&s).expect("served after reconnect");
        assert_eq!(before, after, "resent request answers identically");
        assert_eq!(client.reconnects(), 1);
        server.shutdown();
    }

    #[test]
    fn corrupted_binary_frames_get_a_status_reply_then_close() {
        let engine = test_engine();
        let server = Server::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let oversized_dim = {
            let mut f = vec![wire::TAG_REQUEST];
            f.extend_from_slice(&7u64.to_le_bytes());
            f.push(200); // dim 200 > MAX_WIRE_STATE_DIM
            f
        };
        let truncated = {
            let mut f = Vec::new();
            wire::encode_request_into(7, &[0.5, -0.5], &mut f);
            f.truncate(f.len() / 2);
            f
        };
        // (name, bytes after hello, expect a malformed-frame reply?)
        let cases: Vec<(&str, Vec<u8>, bool)> = vec![
            ("bad tag", vec![0x7F; 18], true),
            ("oversized dim", oversized_dim, true),
            ("truncated then closed", truncated, false),
        ];
        for (name, payload, expect_reply) in cases {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            stream.write_all(&[WIRE_HELLO]).expect("hello");
            stream.write_all(&payload).expect("payload");
            stream.flush().expect("flush");
            if expect_reply {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 256];
                let mut rec = ResponseRec::err(0, wire::STATUS_OK);
                loop {
                    match wire::decode_response(&buf, &mut rec).expect("client-side decode") {
                        Some(_) => break,
                        None => {
                            let n = stream.read(&mut chunk).expect("read reply");
                            assert!(n > 0, "{name}: server closed without a status reply");
                            buf.extend_from_slice(&chunk[..n]);
                        }
                    }
                }
                assert_eq!(
                    (rec.id, rec.status),
                    (0, wire::STATUS_MALFORMED_FRAME),
                    "{name}: connection-level malformed-frame record"
                );
            } else {
                // a half-sent frame is not an error until the peer gives
                // up: close our side and expect a quiet hangup back
                stream
                    .shutdown(std::net::Shutdown::Write)
                    .expect("shutdown write");
            }
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).expect("drain to EOF");
            assert!(rest.is_empty(), "{name}: server closes after the reply");
        }
        // none of that corruption hurt the server
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        assert!(client.control(&[0.0, 0.0]).is_ok());
        server.shutdown();
    }

    #[test]
    fn corrupted_json_frames_get_an_error_reply_then_close() {
        let engine = test_engine();
        let server = Server::bind("127.0.0.1:0", engine.handle()).expect("bind");
        // an oversized length prefix, and a "bad magic" first byte that is
        // neither a JSON length high byte (0x00) nor the binary hello
        for first in [[0x10u8, 0x00, 0x00, 0x01], [0x7F, 0xFF, 0xFF, 0xFF]] {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            stream.write_all(&first).expect("length prefix");
            stream.flush().expect("flush");
            let mut len_buf = [0u8; 4];
            stream
                .read_exact(&mut len_buf)
                .expect("length of the goodbye frame");
            let mut body = vec![0u8; u32::from_be_bytes(len_buf) as usize];
            stream.read_exact(&mut body).expect("goodbye body");
            let text = std::str::from_utf8(&body).expect("UTF-8 goodbye");
            assert!(text.contains("malformed frame"), "got: {text}");
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).expect("drain to EOF");
            assert!(rest.is_empty(), "server closes after the goodbye");
        }
        let mut client = TcpClient::connect(server.local_addr()).expect("connect");
        assert!(client.control(&[0.0, 0.0]).is_ok());
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_keep_their_ids_straight() {
        let engine = test_engine();
        let server = Server::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut client = TcpClient::connect(server.local_addr()).expect("connect");
        for i in 0..20 {
            let s = [f64::from(i) * 0.05, -0.1];
            let got = client.control(&s).expect("served");
            let raw = engine.handle().submit(&s).expect("served");
            assert_eq!(got, raw);
            assert_eq!(
                got.control,
                vector::clip(&got.control, &[-4.0], &[4.0]),
                "wire output respects the clip envelope"
            );
        }
        server.shutdown();
    }
}
