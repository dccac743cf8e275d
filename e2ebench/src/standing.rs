//! `standing`: a TwitInfo deployment. A durable host on a flaky source
//! carries ~1000 standing queries; each step pumps 5 stream-minutes and
//! takes every query's output — 144 dashboard refreshes per pass. One
//! operation is one refresh.

use crate::layers;
use crate::queries::{Kind, Outputs, Query, QUIET_PREFIX};
use crate::replay::{self, Round, Script};
use crate::session::{HostDoor, Session};
use crate::stats::{self, median, ms_since, quantile, Metrics};
use crate::stream::{mix, Stream};
use crate::trace::Recorder;
use crate::{Report, Run};
use std::time::Instant;
use tweeql_firehose::{FaultPlan, FilterSpec};

/// Stream seconds per refresh.
pub const STEP_SECS: i64 = 300;
/// Refreshes per pass: 720 stream-minutes.
pub const REFRESHES: usize = 144;
/// Nominal seconds of one pass.
const PASS_S: f64 = 10.0;

/// `n` quiet keywords for `seed`.
pub fn quiet_keywords(n: usize, seed: u64) -> Vec<String> {
    (0..n)
        .map(|i| {
            let h = mix(seed.wrapping_mul(31).wrapping_add(i as u64));
            let tail: String = (0..5)
                .map(|k| (b'a' + ((h >> (k * 8)) % 26) as u8) as char)
                .collect();
            format!("{QUIET_PREFIX}{tail}{i}")
        })
        .collect()
}

/// The standing set: event trackers, per-minute peak timelines,
/// windowed sentiment, one needle-free `GROUP BY`, and a long tail of
/// quiet keywords (one in eight windowed).
pub fn queries(quiet: usize, seed: u64) -> Vec<Query> {
    let mut q = vec![
        Query::tracker(&["obama"]),
        Query::tracker(&["president"]),
        Query::tracker(&["whitehouse"]),
        Query::tracker(&["sotu", "state of the union"]),
        Query::tracker(&["budget", "shutdown"]),
        Query::tracker(&["summit", "diplomacy"]),
        Query::tracker(&["approval"]),
        Query::tracker(&["москва"]),
        Query::tracker(&["東京", "北京"]),
        Query::tracker(&["über", "président"]),
        Query::count(&["obama"], 1, Some("peak")),
        Query::count(&["sotu", "speech"], 1, Some("peak")),
        Query::count(&["budget", "shutdown"], 1, Some("peak")),
        Query::count(&["press conference"], 1, Some("peak")),
        Query::count(&["approval", "poll"], 1, Some("peak")),
        Query::count(&["obama"], 10, Some("mood")),
        Query::count(&["president", "президент"], 10, Some("mood")),
        Query::count(&["whitehouse", "white house"], 10, Some("mood")),
        Query::by_lang(5),
    ];
    for (i, kw) in quiet_keywords(quiet, seed).iter().enumerate() {
        q.push(Query::quiet(kw, i % 8 == 0));
    }
    q
}

/// The standing queries at full size.
pub const QUIET_QUERIES: usize = 981;

fn script<'a>(run: &Run, queries: &'a [Query], stats: bool) -> Script<'a> {
    Script {
        queries,
        quiet: &[],
        rounds: REFRESHES,
        round: Round::Refresh {
            secs: STEP_SECS,
            stats,
        },
        fault: Some(FaultPlan::chaos(run.seed)),
    }
}

struct Pass {
    setup_s: f64,
    refresh_ms: Vec<f64>,
    failed: u64,
    tweets: u64,
}

fn pass(
    run: &Run,
    stream: &Stream,
    queries: &[Query],
    outputs: &mut Outputs,
    rec: &mut Recorder,
    report: &mut Report,
    m: Option<&mut Metrics>,
) -> Pass {
    let sc = script(run, queries, false);
    let t0 = Instant::now();
    let (host, _dir) = match sc.host(run, stream, "standing") {
        Ok(h) => h,
        Err(e) => {
            report.errors.push(e);
            return Pass {
                setup_s: 0.0,
                refresh_ms: Vec::new(),
                failed: REFRESHES as u64,
                tweets: 0,
            };
        }
    };
    let mut s = Session::new(HostDoor::new(host));
    sc.setup(&mut s, rec);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut refresh_ms = Vec::with_capacity(REFRESHES);
    let mut failed = 0;
    for r in 0..REFRESHES {
        let before = s.failed;
        let t0 = Instant::now();
        sc.round(&mut s, r, rec);
        refresh_ms.push(ms_since(t0));
        if s.failed > before {
            failed += 1;
        }
    }
    // Past the last timed refresh the stream ends: one more step finishes
    // every query, and its output (the last open windows) is checked too.
    sc.round(&mut s, REFRESHES, rec);
    s.close_live();
    if let Some(e) = s.first_error.take() {
        eprintln!("failed: {e}");
    }
    let st = s.door.host.stats();
    if let Some((_, f)) = s.door.host.source_stats() {
        if !f.gaps.is_empty() {
            report.errors.push(format!(
                "the supervised source reported {} gaps",
                f.gaps.len()
            ));
        }
    }
    let n = stream.log.len();
    outputs.begin_pass();
    for slot in &s.slots {
        let rows: Result<Vec<_>, _> = slot.outs.iter().map(|o| o.rows()).collect();
        let rows: Vec<_> = match rows {
            Ok(r) => r.into_iter().flatten().collect(),
            Err(e) => {
                report.errors.push(e);
                continue;
            }
        };
        if let Err(e) = outputs.add(slot.query, 0..n, rows) {
            report.errors.push(e);
        }
    }
    if let Err(e) = outputs.end_pass() {
        report.errors.push(e);
    }
    if let Some(m) = m {
        if let Err(e) = replay::publish_host(&mut s.door, rec, m) {
            report.errors.push(e);
        }
        if let Some((_, f)) = s.door.host.source_stats() {
            m.set(
                "supervise.duplicates_dropped",
                f.duplicates_dropped as f64,
                "count",
            );
        }
    }
    Pass {
        setup_s,
        refresh_ms,
        failed,
        tweets: st.tweets_delivered,
    }
}

/// Run the workload.
pub fn run(run: &Run, stream: &Stream, quiet: usize) -> Report {
    let mut report = Report::default();
    let mut outputs = Outputs::default();
    let queries = queries(quiet, run.seed);
    let mut off = Recorder::new(false);

    if !run.trace {
        let (mut setup, mut refresh_ms, mut tweets) = (Vec::new(), Vec::new(), 0u64);
        for _ in 0..run.passes(PASS_S) {
            let p = pass(
                run,
                stream,
                &queries,
                &mut outputs,
                &mut off,
                &mut report,
                None,
            );
            report.attempted += REFRESHES as u64;
            report.failed += p.failed;
            setup.push(p.setup_s);
            tweets += p.tweets;
            refresh_ms.extend(p.refresh_ms);
            if p.failed == REFRESHES as u64 {
                break;
            }
        }
        let m = &mut report.metrics;
        let wall_s = refresh_ms.iter().sum::<f64>() / 1e3;
        m.set("setup_s", stream.generate_s + median(&setup), "s");
        m.set("tweets_per_s", tweets as f64 / wall_s, "tweets/s");
        m.set("requests_per_s", refresh_ms.len() as f64 / wall_s, "req/s");
        for (name, q) in [("p50", 0.5), ("p90", 0.9)] {
            m.set(format!("step_ms.{name}"), quantile(&refresh_ms, q), "ms");
            m.set(format!("request_ms.{name}"), quantile(&refresh_ms, q), "ms");
        }
        m.set("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        outputs.check_after_peak("standing", stream, &queries, &mut report.errors);
        return report;
    }

    // A traced pass between two untraced ones, which give the base its
    // overhead is measured against.
    let before = pass(
        run,
        stream,
        &queries,
        &mut outputs,
        &mut off,
        &mut report,
        None,
    );
    let mut rec = Recorder::new(true);
    let mut m = Metrics::default();
    let traced = pass(
        run,
        stream,
        &queries,
        &mut outputs,
        &mut rec,
        &mut report,
        Some(&mut m),
    );
    let after = pass(
        run,
        stream,
        &queries,
        &mut outputs,
        &mut off,
        &mut report,
        None,
    );
    outputs.check_after_peak("standing", stream, &queries, &mut report.errors);
    report.attempted += 3 * REFRESHES as u64;
    report.failed += before.failed + traced.failed + after.failed;
    let base_ms = before
        .refresh_ms
        .iter()
        .chain(&after.refresh_ms)
        .sum::<f64>()
        / 2.0;
    let wall_ms: f64 = traced.refresh_ms.iter().sum();
    m.set("firehose.generate_s", stream.generate_s, "s");
    m.set("trace.overhead", wall_ms / base_ms - 1.0, "ratio");

    let dups = m.get("supervise.duplicates_dropped");
    let result = (|| -> Result<(), String> {
        let plans = layers::planning(&queries, &mut m)?;
        let api = stream.api();
        layers::probe(&api, &plans, &mut m);
        layers::facade(&api, &[FilterSpec::Sample(1.0)], &mut m);
        layers::supervision(api, Some(FaultPlan::chaos(run.seed)), run.seed, &mut m);
        layers::decode(&stream.log, &plans, &mut m);
        let needles: Vec<String> = queries.iter().flat_map(Query::keywords).collect();
        layers::text(&stream.log, &needles, &mut m);
        let busy: Vec<&Query> = queries
            .iter()
            .filter(|q| !matches!(q.kind, Kind::Quiet(_)))
            .collect();
        let ex = layers::operators(&stream.log, &busy, 60, run.seed)?;
        ex.publish(&mut m);

        // The ledger: Σ priced layer time over the traced wall. Operator
        // time is priced per dispatched row from the first-hour replay;
        // it holds the fused scan's column decode, so decode is not
        // priced apart.
        let st = traced.tweets as f64;
        let text_bytes: f64 = stream.log.iter().map(|t| t.text.len() as f64).sum();
        let busy_per_row = ex.busy_ns as f64 / ex.rows_in.max(1) as f64;
        let ledger_ns = m.get("supervise.ns_per_tweet").unwrap_or(0.0) * st
            + m.get("text.ac.ns_per_byte").unwrap_or(0.0) * text_bytes
            + busy_per_row * m.get("host.rows_dispatched").unwrap_or(0.0)
            + rec.durations_ms("host.take_output").iter().sum::<f64>() * 1e6;
        m.set("ledger.closure", ledger_ns / 1e6 / wall_ms, "ratio");

        let sc = script(run, &queries, true);
        replay::doors(run, stream, &sc, 12, false, &mut m).map(|_| ())
    })();
    if let Err(e) = result {
        report.errors.push(e);
    }
    // The supervised source the host ran is the one that counts.
    if let Some(d) = dups {
        m.set("supervise.duplicates_dropped", d, "count");
    }
    crate::write_spans(run, &rec, &mut report);
    report.metrics = m;
    report
}
