//! `churn`: one client on one loopback connection to `serve`, over a
//! durable host that starts with 200 quiet queries. In a closed loop it
//! sends REGISTER, STEP 60, POLL of each live query, DROP of the oldest
//! once more than 8 are live, and STATS. One operation is one request.

use crate::layers;
use crate::queries::{Outputs, Query};
use crate::replay::{self, Round, Script};
use crate::session::{Door, Session, TcpDoor};
use crate::standing::quiet_keywords;
use crate::stats::{self, median, ms_since, quantile, Metrics};
use crate::stream::Stream;
use crate::trace::Recorder;
use crate::{Report, Run};
use std::time::Instant;
use tweeql_firehose::FilterSpec;
use tweeql_server::Service;

/// Nominal seconds of one pass.
const PASS_S: f64 = 5.0;
/// Rounds per pass: one per stream-minute.
pub const ROUNDS: usize = 720;

/// The queries the client registers in turn. Every one matches
/// within most stream-minutes, so nearly every POLL carries rows to
/// encode and the request mix has no gap between empty and full polls.
pub fn queries() -> Vec<Query> {
    vec![
        Query::tracker(&["obama"]),
        Query::count(&["president"], 1, Some("mood")),
        Query::tracker(&["white house", "whitehouse"]),
        Query::tracker(&["москва", "東京", "über"]),
        Query::count(&["coffee", "lunch"], 1, None),
        Query::tracker(&["weather", "traffic"]),
        Query::tracker(&["congress", "administration"]),
        Query::count(&["music", "movie"], 1, None),
        Query::tracker(&["work", "school"]),
        Query::count(&["obama"], 1, None),
        Query::tracker(&["dinner", "weekend"]),
    ]
}

/// The 200 quiet queries the host starts with.
pub fn quiet_set(n: usize, seed: u64) -> Vec<Query> {
    quiet_keywords(n, seed ^ 0xC4)
        .iter()
        .map(|kw| Query::quiet(kw, false))
        .collect()
}

fn script<'a>(queries: &'a [Query], quiet: &'a [Query]) -> Script<'a> {
    Script {
        queries,
        quiet,
        rounds: ROUNDS,
        round: Round::Churn,
        fault: None,
    }
}

struct Pass {
    setup_s: f64,
    request_ms: Vec<f64>,
    round_ms: Vec<f64>,
    /// Every round plus the final drops.
    wall_ms: f64,
    failed: u64,
    tweets: u64,
}

/// Hand every slot of a finished churn session to `outputs`.
pub fn keep_slots<D: Door>(s: &Session<D>, outputs: &mut Outputs, errors: &mut Vec<String>) {
    outputs.begin_pass();
    for slot in &s.slots {
        let rows: Result<Vec<_>, _> = slot.outs.iter().map(|o| o.rows()).collect();
        let kept = rows.and_then(|r| {
            let rows = r.into_iter().flatten().collect();
            outputs.add(slot.query, slot.range.clone(), rows)
        });
        if let Err(e) = kept {
            errors.push(e);
        }
    }
    if let Err(e) = outputs.end_pass() {
        errors.push(e);
    }
}

fn pass(
    run: &Run,
    stream: &Stream,
    sc: &Script<'_>,
    outputs: &mut Outputs,
    rec: &mut Recorder,
    report: &mut Report,
) -> Pass {
    let t0 = Instant::now();
    let started = sc
        .host(run, stream, "churn")
        .and_then(|(host, dir)| Ok((TcpDoor::start(Service::new(host))?, dir)));
    let (door, _dir) = match started {
        Ok(d) => d,
        Err(e) => {
            report.errors.push(e);
            return Pass {
                setup_s: 0.0,
                request_ms: Vec::new(),
                round_ms: Vec::new(),
                wall_ms: 0.0,
                failed: 1,
                tweets: 0,
            };
        }
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let mut s = Session::new(door);
    let mut round_ms = Vec::with_capacity(ROUNDS);
    let t_all = Instant::now();
    for r in 0..ROUNDS {
        let t0 = Instant::now();
        sc.round(&mut s, r, rec);
        round_ms.push(ms_since(t0));
    }
    sc.drop_all(&mut s, rec);
    let wall_ms = ms_since(t_all);
    if let Some(e) = s.first_error.take() {
        eprintln!("failed: {e}");
    }
    keep_slots(&s, outputs, &mut report.errors);
    let request_ms = std::mem::take(&mut s.calls);
    let failed = s.failed;
    let tweets = s.delivered as u64;
    if let Err(e) = s.door.shutdown() {
        report.errors.push(e);
    }
    Pass {
        setup_s,
        request_ms,
        round_ms,
        wall_ms,
        failed,
        tweets,
    }
}

/// Run the workload.
pub fn run(run: &Run, stream: &Stream, quiet: usize) -> Report {
    let mut report = Report::default();
    let mut outputs = Outputs::default();
    let queries = queries();
    let quiet = quiet_set(quiet, run.seed);
    let sc = script(&queries, &quiet);
    let mut off = Recorder::new(false);

    if !run.trace {
        let (mut setup, mut request_ms, mut round_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut tweets, mut wall_ms) = (0u64, 0.0);
        for _ in 0..run.passes(PASS_S) {
            let p = pass(run, stream, &sc, &mut outputs, &mut off, &mut report);
            report.attempted += p.request_ms.len() as u64;
            report.failed += p.failed;
            setup.push(p.setup_s);
            tweets += p.tweets;
            wall_ms += p.wall_ms;
            if p.round_ms.is_empty() {
                break;
            }
            request_ms.extend(p.request_ms);
            round_ms.extend(p.round_ms);
        }
        let m = &mut report.metrics;
        let wall_s = wall_ms / 1e3;
        m.set("setup_s", stream.generate_s + median(&setup), "s");
        m.set("tweets_per_s", tweets as f64 / wall_s, "tweets/s");
        m.set("requests_per_s", request_ms.len() as f64 / wall_s, "req/s");
        for (name, q) in [("p50", 0.5), ("p90", 0.9)] {
            m.set(format!("step_ms.{name}"), quantile(&round_ms, q), "ms");
            m.set(format!("request_ms.{name}"), quantile(&request_ms, q), "ms");
        }
        m.set("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        outputs.check_after_peak("churn", stream, &queries, &mut report.errors);
        return report;
    }

    // A traced pass between two untraced ones, which give the base its
    // overhead is measured against.
    let before = pass(run, stream, &sc, &mut outputs, &mut off, &mut report);
    let mut rec = Recorder::new(true);
    let traced = pass(run, stream, &sc, &mut outputs, &mut rec, &mut report);
    let after = pass(run, stream, &sc, &mut outputs, &mut off, &mut report);
    outputs.check_after_peak("churn", stream, &queries, &mut report.errors);
    for p in [&before, &traced, &after] {
        report.attempted += p.request_ms.len() as u64;
        report.failed += p.failed;
    }
    let base_ms = (before.wall_ms + after.wall_ms) / 2.0;
    let mut m = Metrics::default();
    m.set("firehose.generate_s", stream.generate_s, "s");
    m.set("trace.overhead", traced.wall_ms / base_ms - 1.0, "ratio");
    let result = (|| -> Result<(), String> {
        let all: Vec<Query> = queries.iter().chain(&quiet).cloned().collect();
        let plans = layers::planning(&all, &mut m)?;
        let api = stream.api();
        layers::probe(&api, &plans, &mut m);
        layers::facade(&api, &[FilterSpec::Sample(1.0)], &mut m);
        layers::supervision(api, None, run.seed, &mut m);
        layers::decode(&stream.log, &plans, &mut m);
        let needles: Vec<String> = all.iter().flat_map(Query::keywords).collect();
        layers::text(&stream.log, &needles, &mut m);
        let refs: Vec<&Query> = queries.iter().collect();
        layers::operators(&stream.log, &refs, 60, run.seed)?.publish(&mut m);
        let (handled_ms, ping_ms) = replay::doors(run, stream, &sc, ROUNDS, true, &mut m)?;
        // Churn's wall is request round trips: the ledger is service
        // handle time plus, for every request, the round trip of a PING
        // (wire and protocol with nothing to handle). Larger frames and
        // the client's parsing are left unpriced.
        let wire_ms = ping_ms * traced.request_ms.len() as f64;
        m.set(
            "ledger.closure",
            (handled_ms + wire_ms) / traced.wall_ms,
            "ratio",
        );
        Ok(())
    })();
    if let Err(e) = result {
        report.errors.push(e);
    }
    crate::write_spans(run, &rec, &mut report);
    report.metrics = m;
    report
}
