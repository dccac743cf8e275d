//! One client session against the standing-query host, through any of
//! three doors: the host's own API, the server's transport-free
//! `Service::handle`, or a TCP client on a loopback connection to
//! `serve`. Workloads drive a [`Session`]; the traced run replays the
//! same calls through the other doors to split the time by layer.

use crate::queries::{json_row, record_row, Row};
use crate::trace::Recorder;
use std::net::TcpListener;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use tweeql::prelude::*;
use tweeql::sink;
use tweeql_firehose::{FaultPlan, StreamingApi};
use tweeql_model::{Duration, Record, SchemaRef, Timestamp};
use tweeql_server::client::Client;
use tweeql_server::protocol::{Request, Response};
use tweeql_server::Service;
use twitinfo::peaks::PeakDetectorConfig;

/// Rows a call returned, as the door handed them over.
pub enum Out {
    /// Records from the host API.
    Records(Vec<Record>),
    /// JSON lines from the protocol.
    Lines(Vec<String>),
}

impl Out {
    /// Rows for the checkers.
    pub fn rows(&self) -> Result<Vec<Row>, String> {
        match self {
            Out::Records(r) => Ok(r.iter().map(record_row).collect()),
            Out::Lines(l) => l.iter().map(|s| json_row(s)).collect(),
        }
    }
}

/// A door into the host.
pub trait Door {
    /// Register a standing query.
    fn register(&mut self, sql: &str, rec: &mut Recorder) -> Result<QueryId, String>;
    /// Advance the stream; returns the tweets delivered.
    fn step(&mut self, secs: i64, rec: &mut Recorder) -> Result<u64, String>;
    /// Take a query's pending rows.
    fn poll(&mut self, id: QueryId, rec: &mut Recorder) -> Result<Out, String>;
    /// Drop a query, returning its final rows.
    fn drop_query(&mut self, id: QueryId, rec: &mut Recorder) -> Result<Out, String>;
    /// Read the dispatcher statistics.
    fn stats(&mut self, rec: &mut Recorder) -> Result<(), String>;
}

/// Build a durable host over `api` with its WAL in `dir` (fsync off:
/// every record is still encoded, checksummed, written and counted at
/// its sync point; only the disk flush is skipped).
pub fn durable_host(
    api: StreamingApi,
    dir: &std::path::Path,
    fault: Option<FaultPlan>,
    seed: u64,
) -> Result<QueryHost, String> {
    let mut b = Engine::builder(api)
        .seed(seed)
        .configure_registry(|r| twitinfo::udfs::register(r, PeakDetectorConfig::default()));
    if let Some(plan) = fault {
        b = b.fault_policy(plan);
    }
    b.recover_with(DurabilityConfig::new(dir).fsync(false))
        .map_err(|e| e.to_string())
}

/// A scratch directory for one host's WAL, inside the build directory
/// of the checkout; removed on drop.
pub struct WalDir(pub PathBuf);

impl WalDir {
    /// A fresh, empty directory, distinct from every other one this
    /// process makes (tests run workloads on parallel threads).
    pub fn new(tag: &str) -> std::io::Result<WalDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = crate::out_dir()
            .join("wal")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WalDir(dir))
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The host API itself.
pub struct HostDoor {
    /// The host.
    pub host: QueryHost,
    /// Also encode every non-empty take as the server would (traced
    /// replays only), into `encode_ns` / `encode_rows`.
    pub encode: bool,
    /// Nanoseconds spent encoding rows as JSON.
    pub encode_ns: u64,
    /// Rows encoded.
    pub encode_rows: u64,
    /// Stream time the steps so far have pumped to.
    target: Timestamp,
}

impl HostDoor {
    /// Wrap a host.
    pub fn new(host: QueryHost) -> HostDoor {
        HostDoor {
            host,
            encode: false,
            encode_ns: 0,
            encode_rows: 0,
            target: Timestamp::ZERO,
        }
    }

    /// Time the server's JSON encoding of `rows`, when asked to.
    fn encode(&mut self, schema: Option<SchemaRef>, rows: &[Record]) {
        if let Some(schema) = schema.filter(|_| !rows.is_empty()) {
            let t0 = std::time::Instant::now();
            std::hint::black_box(sink::to_json_lines(&schema, rows));
            self.encode_ns += t0.elapsed().as_nanos() as u64;
            self.encode_rows += rows.len() as u64;
        }
    }

    fn schema_if_encoding(&self, id: QueryId) -> Result<Option<SchemaRef>, String> {
        if !self.encode {
            return Ok(None);
        }
        self.host.schema(id).map(Some).map_err(|e| e.to_string())
    }
}

impl Door for HostDoor {
    fn register(&mut self, sql: &str, rec: &mut Recorder) -> Result<QueryId, String> {
        rec.span("host.register", |_| self.host.register(sql))
            .map_err(|e| e.to_string())
    }

    /// Steps advance from the previous step's end, so `k` steps of `s`
    /// seconds pump exactly the first `k·s` stream seconds. (The
    /// server's STEP advances from the last delivered tweet instead.)
    fn step(&mut self, secs: i64, rec: &mut Recorder) -> Result<u64, String> {
        self.target += Duration::from_secs(secs);
        let until = self.target;
        rec.span("host.pump_until", |_| self.host.pump_until(until))
            .map_err(|e| e.to_string())
    }

    fn poll(&mut self, id: QueryId, rec: &mut Recorder) -> Result<Out, String> {
        let schema = self.schema_if_encoding(id)?;
        let rows = rec
            .span("host.take_output", |_| self.host.take_output(id))
            .map_err(|e| e.to_string())?;
        self.encode(schema, &rows);
        Ok(Out::Records(rows))
    }

    fn drop_query(&mut self, id: QueryId, rec: &mut Recorder) -> Result<Out, String> {
        let schema = self.schema_if_encoding(id)?;
        let rows = rec
            .span("host.drop_query", |_| self.host.drop_query(id))
            .map_err(|e| e.to_string())?;
        self.encode(schema, &rows);
        Ok(Out::Records(rows))
    }

    fn stats(&mut self, rec: &mut Recorder) -> Result<(), String> {
        rec.span("host.stats", |_| std::hint::black_box(self.host.stats()));
        Ok(())
    }
}

fn id_of(r: Response) -> Result<QueryId, String> {
    ok(r)?.detail.parse::<QueryId>()
}

fn ok(r: Response) -> Result<Response, String> {
    if r.ok {
        Ok(r)
    } else {
        Err(format!("ERR {}", r.detail))
    }
}

fn delivered(r: Response) -> Result<u64, String> {
    let r = ok(r)?;
    r.detail
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("tweets="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("STEP reply without a tweet count: {}", r.detail))
}

/// Speaks the line protocol; [`ServiceDoor`] and [`TcpDoor`] differ
/// only in how a request reaches the service.
trait Wire {
    fn call(&mut self, req: Request, rec: &mut Recorder) -> Result<Response, String>;
}

impl<W: Wire> Door for W {
    fn register(&mut self, sql: &str, rec: &mut Recorder) -> Result<QueryId, String> {
        id_of(self.call(Request::Register(sql.to_string()), rec)?)
    }

    fn step(&mut self, secs: i64, rec: &mut Recorder) -> Result<u64, String> {
        delivered(self.call(Request::Step(secs), rec)?)
    }

    fn poll(&mut self, id: QueryId, rec: &mut Recorder) -> Result<Out, String> {
        Ok(Out::Lines(ok(self.call(Request::Poll(id), rec)?)?.body))
    }

    fn drop_query(&mut self, id: QueryId, rec: &mut Recorder) -> Result<Out, String> {
        Ok(Out::Lines(ok(self.call(Request::Drop(id), rec)?)?.body))
    }

    fn stats(&mut self, rec: &mut Recorder) -> Result<(), String> {
        ok(self.call(Request::Stats, rec)?).map(|_| ())
    }
}

/// The span name of `Service::handle` for a request's verb.
fn handle_span(req: &Request) -> &'static str {
    match req {
        Request::Register(_) => "server.handle.register",
        Request::Step(_) => "server.handle.step",
        Request::Poll(_) => "server.handle.poll",
        Request::Drop(_) => "server.handle.drop",
        Request::Stats => "server.handle.stats",
        _ => "server.handle.other",
    }
}

/// `Service::handle` called in-process: the server minus the wire.
pub struct ServiceDoor(pub Service);

impl Wire for ServiceDoor {
    fn call(&mut self, req: Request, rec: &mut Recorder) -> Result<Response, String> {
        Ok(rec.span(handle_span(&req), |_| self.0.handle(req)))
    }
}

/// A TCP client on one loopback connection to `serve`, which runs on
/// its own thread until [`TcpDoor::shutdown`] (or drop) stops it.
pub struct TcpDoor {
    client: Client,
    port: u16,
    server: Option<JoinHandle<std::io::Result<()>>>,
}

impl TcpDoor {
    /// Serve `service` on an ephemeral loopback port and connect.
    pub fn start(service: Service) -> Result<TcpDoor, String> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
        let port = listener.local_addr().map_err(|e| e.to_string())?.port();
        let server = std::thread::spawn(move || tweeql_server::serve(listener, service));
        let client = Client::connect(port).map_err(|e| e.to_string())?;
        Ok(TcpDoor {
            client,
            port,
            server: Some(server),
        })
    }

    /// Median round trip of `n` PINGs, in milliseconds: the wire and
    /// protocol cost of a request whose handling costs nothing.
    pub fn ping_ms(&mut self, n: usize) -> Result<f64, String> {
        let mut ms = Vec::with_capacity(n);
        for _ in 0..n {
            let t0 = std::time::Instant::now();
            ok(self
                .client
                .request(&Request::Ping)
                .map_err(|e| e.to_string())?)?;
            ms.push(crate::stats::ms_since(t0));
        }
        Ok(crate::stats::median(&ms))
    }

    /// Ask the server to stop and wait for its threads to end.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        // A broken session cannot carry SHUTDOWN; a fresh connection can,
        // and the accept loop would otherwise wait forever.
        let asked = match self.client.request(&Request::Shutdown) {
            Ok(r) => ok(r).map(|_| ()),
            Err(e) => Client::connect(self.port)
                .and_then(|mut c| c.request(&Request::Shutdown))
                .map_err(|_| e.to_string())
                .and_then(ok)
                .map(|_| ()),
        };
        let joined = match server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("server thread panicked".to_string()),
        };
        asked.and(joined)
    }
}

impl Drop for TcpDoor {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

impl Wire for TcpDoor {
    fn call(&mut self, req: Request, rec: &mut Recorder) -> Result<Response, String> {
        rec.span("client.request", |_| self.client.request(&req))
            .map_err(|e| e.to_string())
    }
}

/// A query registered through a session: where in the log it started
/// and stopped seeing tweets, and what it returned.
pub struct Slot {
    /// Index into the workload's query list.
    pub query: usize,
    /// The host's id for it.
    pub id: QueryId,
    /// Log positions it saw (end set at drop).
    pub range: Range<usize>,
    /// Everything polled or returned at drop.
    pub outs: Vec<Out>,
    /// Still registered.
    pub live: bool,
}

/// A client session: the calls it made, their latencies and failures,
/// and the slots it registered.
pub struct Session<D: Door> {
    /// The door the calls go through.
    pub door: D,
    /// Registered queries, in order.
    pub slots: Vec<Slot>,
    /// Tweets delivered so far: the log position, on a clean source.
    pub delivered: usize,
    /// Wall ms of every call, in order.
    pub calls: Vec<f64>,
    /// Calls that returned an error.
    pub failed: u64,
    /// The first error seen.
    pub first_error: Option<String>,
}

impl<D: Door> Session<D> {
    /// A session with nothing registered.
    pub fn new(door: D) -> Session<D> {
        Session {
            door,
            slots: Vec::new(),
            delivered: 0,
            calls: Vec::new(),
            failed: 0,
            first_error: None,
        }
    }

    fn timed<T>(
        &mut self,
        rec: &mut Recorder,
        f: impl FnOnce(&mut D, &mut Recorder) -> Result<T, String>,
    ) -> Option<T> {
        let t0 = std::time::Instant::now();
        let r = f(&mut self.door, rec);
        self.calls.push(crate::stats::ms_since(t0));
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    /// Register query `query` (an index the caller resolves) as `sql`.
    pub fn register(&mut self, query: usize, sql: &str, rec: &mut Recorder) -> bool {
        let Some(id) = self.timed(rec, |d, r| d.register(sql, r)) else {
            return false;
        };
        let at = self.delivered;
        self.slots.push(Slot {
            query,
            id,
            range: at..at,
            outs: Vec::new(),
            live: true,
        });
        true
    }

    /// Advance the stream by `secs` stream seconds.
    pub fn step(&mut self, secs: i64, rec: &mut Recorder) -> bool {
        match self.timed(rec, |d, r| d.step(secs, r)) {
            Some(n) => {
                self.delivered += n as usize;
                true
            }
            None => false,
        }
    }

    /// Poll slot `s`.
    pub fn poll(&mut self, s: usize, rec: &mut Recorder) -> bool {
        let id = self.slots[s].id;
        match self.timed(rec, |d, r| d.poll(id, r)) {
            Some(out) => {
                self.slots[s].outs.push(out);
                true
            }
            None => false,
        }
    }

    /// Drop slot `s`.
    pub fn drop_slot(&mut self, s: usize, rec: &mut Recorder) -> bool {
        let id = self.slots[s].id;
        let end = self.delivered;
        let slot = &mut self.slots[s];
        slot.live = false;
        slot.range.end = end;
        match self.timed(rec, |d, r| d.drop_query(id, r)) {
            Some(out) => {
                self.slots[s].outs.push(out);
                true
            }
            None => false,
        }
    }

    /// Read the host's statistics.
    pub fn stats(&mut self, rec: &mut Recorder) -> bool {
        self.timed(rec, |d, r| d.stats(r)).is_some()
    }

    /// Indices of live slots, oldest first.
    pub fn live(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&s| self.slots[s].live)
            .collect()
    }

    /// Close every live slot's range at the current position (the end
    /// of a session that keeps its queries registered).
    pub fn close_live(&mut self) {
        let end = self.delivered;
        for s in self.slots.iter_mut().filter(|s| s.live) {
            s.range.end = end;
        }
    }
}
