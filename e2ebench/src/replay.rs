//! Session scripts shared by `standing` and `churn`, and the traced
//! replay of a script through each door into the host.

use crate::queries::Query;
use crate::session::{durable_host, Door, HostDoor, ServiceDoor, Session, TcpDoor, WalDir};
use crate::stats::{median, quantile, Metrics};
use crate::stream::Stream;
use crate::trace::Recorder;
use crate::Run;
use std::time::Instant;
use tweeql_firehose::FaultPlan;
use tweeql_server::Service;

/// What one round of a session does.
#[derive(Debug, Clone, Copy)]
pub enum Round {
    /// A dashboard refresh: advance the stream, then take every live
    /// query's output (and, with `stats`, read the host statistics).
    Refresh {
        /// Stream seconds per step.
        secs: i64,
        /// Also send STATS.
        stats: bool,
    },
    /// The churn client's loop: REGISTER the next query, STEP 60, POLL
    /// each live query, DROP the oldest once more than 8 are live, and
    /// STATS.
    Churn,
}

/// A session's script.
pub struct Script<'a> {
    /// The queries: all registered at set-up (refresh rounds), or
    /// registered in turn (churn rounds).
    pub queries: &'a [Query],
    /// Queries registered at set-up, never polled.
    pub quiet: &'a [Query],
    /// Rounds to run.
    pub rounds: usize,
    /// What a round does.
    pub round: Round,
    /// The host's source fault plan.
    pub fault: Option<FaultPlan>,
}

/// Live churn queries kept before the oldest is dropped.
pub const CHURN_LIVE: usize = 8;

impl Script<'_> {
    /// Build the durable host this script runs against, with the quiet
    /// set registered. Returns the host and its WAL directory.
    pub fn host(
        &self,
        run: &Run,
        stream: &Stream,
        tag: &str,
    ) -> Result<(tweeql::QueryHost, WalDir), String> {
        let dir = WalDir::new(tag).map_err(|e| e.to_string())?;
        let mut host = durable_host(stream.api(), &dir.0, self.fault.clone(), run.seed)?;
        for q in self.quiet {
            host.register(&q.sql).map_err(|e| e.to_string())?;
        }
        Ok((host, dir))
    }

    /// Set-up calls: register every query of a refresh script.
    pub fn setup<D: Door>(&self, s: &mut Session<D>, rec: &mut Recorder) {
        if let Round::Refresh { .. } = self.round {
            for (i, q) in self.queries.iter().enumerate() {
                s.register(i, &q.sql, rec);
            }
        }
    }

    /// Round `r`.
    pub fn round<D: Door>(&self, s: &mut Session<D>, r: usize, rec: &mut Recorder) {
        let span = rec.enter("session.round");
        match self.round {
            Round::Refresh { secs, stats } => {
                s.step(secs, rec);
                for slot in s.live() {
                    s.poll(slot, rec);
                }
                if stats {
                    s.stats(rec);
                }
            }
            Round::Churn => {
                let q = r % self.queries.len();
                s.register(q, &self.queries[q].sql, rec);
                s.step(60, rec);
                let live = s.live();
                for &slot in &live {
                    s.poll(slot, rec);
                }
                if live.len() > CHURN_LIVE {
                    s.drop_slot(live[0], rec);
                }
                s.stats(rec);
            }
        }
        rec.exit(span);
    }

    /// Drop every live query.
    pub fn drop_all<D: Door>(&self, s: &mut Session<D>, rec: &mut Recorder) {
        for slot in s.live() {
            s.drop_slot(slot, rec);
        }
    }

    /// The whole script: set-up, rounds, and a final drop of every
    /// live query.
    pub fn run_all<D: Door>(&self, s: &mut Session<D>, rec: &mut Recorder) {
        self.setup(s, rec);
        for r in 0..self.rounds {
            self.round(s, r, rec);
        }
        self.drop_all(s, rec);
    }
}

/// Host and WAL metrics from a host session whose calls `rec` traced.
pub fn publish_host(door: &mut HostDoor, rec: &Recorder, m: &mut Metrics) -> Result<(), String> {
    let reg = rec.durations_ms("host.register");
    let first: f64 = reg.iter().take(100).sum();
    let last: f64 = reg.iter().rev().take(100).sum();
    m.set("host.register_ms.first100", first, "ms");
    m.set("host.register_ms.last100", last, "ms");
    m.set(
        "host.pump_ms.p50",
        median(&rec.durations_ms("host.pump_until")),
        "ms",
    );
    m.set(
        "host.take_ms.p50",
        median(&rec.durations_ms("host.take_output")),
        "ms",
    );
    let st = door.host.stats();
    m.set("host.rows_dispatched", st.rows_dispatched as f64, "count");
    m.set("host.rows_decoded", st.rows_decoded as f64, "count");
    m.set("host.rows_shared", st.rows_shared as f64, "count");
    let w = door.host.wal_stats().ok_or("host has no WAL")?;
    m.set("wal.records", w.records as f64, "count");
    m.set("wal.bytes", w.bytes as f64, "bytes");
    m.set("wal.sync_points", w.fsyncs as f64, "count");
    m.set("wal.checkpoints", w.checkpoints as f64, "count");
    m.set("wal.checkpoint_bytes", w.checkpoint_bytes as f64, "bytes");
    let mut ck = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        door.host.checkpoint().map_err(|e| e.to_string())?;
        ck.push(crate::stats::ms_since(t0));
    }
    m.set("wal.checkpoint_ms", median(&ck), "ms");
    Ok(())
}

/// Replay `script` through each door on a fresh host: the host API
/// (host, WAL and JSON-encode metrics, unless `host_leg` is false
/// because the caller already has them), `Service::handle` (server
/// handle time per verb), and TCP (round trip minus handle = wire).
/// Returns the total handle milliseconds of the service leg and the
/// median PING round trip in milliseconds.
pub fn doors(
    run: &Run,
    stream: &Stream,
    script: &Script<'_>,
    wire_rounds: usize,
    host_leg: bool,
    m: &mut Metrics,
) -> Result<(f64, f64), String> {
    let short = Script {
        queries: script.queries,
        quiet: script.quiet,
        rounds: wire_rounds,
        round: script.round,
        fault: script.fault.clone(),
    };
    {
        let (host, _dir) = short.host(run, stream, "encode")?;
        let mut door = HostDoor::new(host);
        door.encode = true;
        let mut s = Session::new(door);
        let leg = if host_leg { script } else { &short };
        let mut rec = Recorder::new(true);
        leg.run_all(&mut s, &mut rec);
        if let Some(e) = s.first_error.take() {
            return Err(format!("host replay: {e}"));
        }
        let door = &mut s.door;
        m.set(
            "server.encode_ns_per_row",
            door.encode_ns as f64 / door.encode_rows.max(1) as f64,
            "ns",
        );
        if host_leg {
            publish_host(door, &rec, m)?;
        }
    }

    let (host, _dir) = short.host(run, stream, "service")?;
    let mut svc = Session::new(ServiceDoor(Service::new(host)));
    let mut rec = Recorder::new(true);
    short.run_all(&mut svc, &mut rec);
    if let Some(e) = svc.first_error.take() {
        return Err(format!("service replay: {e}"));
    }
    for (verb, name) in [
        ("register", "server.handle.register"),
        ("step", "server.handle.step"),
        ("poll", "server.handle.poll"),
        ("drop", "server.handle.drop"),
        ("stats", "server.handle.stats"),
    ] {
        m.set(
            format!("server.handle_us.{verb}"),
            median(&rec.durations_ms(name)) * 1e3,
            "us",
        );
    }
    drop(svc);

    let (host, _dir) = short.host(run, stream, "tcp")?;
    let door = TcpDoor::start(Service::new(host))?;
    let mut tcp = Session::new(door);
    let mut off = Recorder::new(false);
    short.run_all(&mut tcp, &mut off);
    let handle = rec.spans();
    let wire: Vec<f64> = tcp
        .calls
        .iter()
        .zip(
            handle
                .iter()
                .filter(|s| s.name.starts_with("server.handle.")),
        )
        .map(|(c, h)| (c - h.dur_ns() as f64 / 1e6) * 1e3)
        .collect();
    let err = tcp.first_error.take();
    let ping_ms = tcp.door.ping_ms(1000);
    tcp.door.shutdown()?;
    if let Some(e) = err {
        return Err(format!("tcp replay: {e}"));
    }
    m.set("server.wire_us.p50", quantile(&wire, 0.5), "us");
    let handled_ms = handle
        .iter()
        .filter(|s| s.name.starts_with("server.handle."))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum();
    Ok((handled_ms, ping_ms?))
}
