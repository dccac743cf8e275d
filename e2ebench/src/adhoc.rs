//! `adhoc`: an analyst runs eight queries one at a time through
//! `Engine::execute`, a fresh engine per query, clean source, pushdown
//! on. One operation is one `execute`.

use crate::layers::{self, ExecTotals};
use crate::queries::{adhoc_queries, record_row, Outputs, Query};
use crate::stats::{self, median, ms_since, quantile};
use crate::stream::Stream;
use crate::trace::Recorder;
use crate::{replay, Report, Run};
use std::time::Instant;
use tweeql::prelude::*;
use twitinfo::peaks::PeakDetectorConfig;

/// Nominal seconds of one pass (eight executes over ~950K tweets).
const PASS_S: f64 = 10.0;

/// One pass over the query set.
struct Pass {
    /// Wall ms of each execute.
    exec_ms: Vec<f64>,
    /// Wall s of each engine build.
    build_s: Vec<f64>,
    failed: u64,
    totals: ExecTotals,
}

fn pass(
    run: &Run,
    stream: &Stream,
    outputs: &mut Outputs,
    rec: &mut Recorder,
    report: &mut Report,
) -> Pass {
    let mut p = Pass {
        exec_ms: Vec::new(),
        build_s: Vec::new(),
        failed: 0,
        totals: ExecTotals::default(),
    };
    let span = rec.enter("adhoc.pass");
    outputs.begin_pass();
    for (qi, q) in adhoc_queries().into_iter().enumerate() {
        let t0 = Instant::now();
        let mut engine = Engine::builder(stream.api())
            .seed(run.seed)
            .configure_registry(|r| twitinfo::udfs::register(r, PeakDetectorConfig::default()))
            .build();
        p.build_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let r = rec.span("engine.execute", |_| engine.execute(&q.sql));
        p.exec_ms.push(ms_since(t0));
        match r {
            Ok(r) => {
                p.totals.add(&engine, &r.stats);
                let rows: Vec<_> = r.rows.iter().map(record_row).collect();
                if let Err(e) = outputs.add(qi, 0..stream.log.len(), rows) {
                    report.errors.push(e);
                }
            }
            Err(e) => {
                p.failed += 1;
                // Counted as failed; `correct` speaks of the rest.
                eprintln!("failed: {}: {e}", q.sql);
            }
        }
    }
    rec.exit(span);
    if let Err(e) = outputs.end_pass() {
        report.errors.push(e);
    }
    p
}

/// Run the workload.
pub fn run(run: &Run, stream: &Stream) -> Report {
    let mut report = Report::default();
    let mut outputs = Outputs::default();
    let n = stream.log.len() as f64;
    let mut off = Recorder::new(false);

    if !run.trace {
        let mut exec_ms = Vec::new();
        let mut build_s = Vec::new();
        for _ in 0..run.passes(PASS_S) {
            let p = pass(run, stream, &mut outputs, &mut off, &mut report);
            report.attempted += p.exec_ms.len() as u64;
            report.failed += p.failed;
            exec_ms.extend(p.exec_ms);
            build_s.extend(p.build_s);
        }
        let m = &mut report.metrics;
        let wall_s = exec_ms.iter().sum::<f64>() / 1e3;
        m.set("setup_s", stream.generate_s + median(&build_s), "s");
        m.set(
            "tweets_per_s",
            n * exec_ms.len() as f64 / wall_s,
            "tweets/s",
        );
        m.set("requests_per_s", exec_ms.len() as f64 / wall_s, "req/s");
        for (name, q) in [("p50", 0.5), ("p90", 0.9)] {
            m.set(format!("step_ms.{name}"), quantile(&exec_ms, q), "ms");
            m.set(format!("request_ms.{name}"), quantile(&exec_ms, q), "ms");
        }
        m.set("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        outputs.check_after_peak("adhoc", stream, &adhoc_queries(), &mut report.errors);
        return report;
    }

    // Traced: a traced pass between two untraced ones, which give the
    // base its overhead is measured against.
    let before = pass(run, stream, &mut outputs, &mut off, &mut report);
    let mut rec = Recorder::new(true);
    let traced = pass(run, stream, &mut outputs, &mut rec, &mut report);
    let after = pass(run, stream, &mut outputs, &mut off, &mut report);
    outputs.check_after_peak("adhoc", stream, &adhoc_queries(), &mut report.errors);
    report.attempted += 3 * traced.exec_ms.len() as u64;
    report.failed += before.failed + traced.failed + after.failed;
    let wall_ms: f64 = traced.exec_ms.iter().sum();
    let base_ms = before.exec_ms.iter().chain(&after.exec_ms).sum::<f64>() / 2.0;

    let queries = adhoc_queries();
    let m = &mut report.metrics;
    m.set("firehose.generate_s", stream.generate_s, "s");
    m.set("trace.overhead", wall_ms / base_ms - 1.0, "ratio");
    traced.totals.publish(m);
    let plans = match layers::planning(&queries, m) {
        Ok(p) => p,
        Err(e) => {
            report.errors.push(e);
            return report;
        }
    };
    let api = stream.api();
    let filters = layers::probe(&api, &plans, m);
    layers::facade(&api, &filters, m);
    layers::supervision(api, None, run.seed, m);
    layers::decode(&stream.log, &plans, m);
    let needles: Vec<String> = queries.iter().flat_map(Query::keywords).collect();
    layers::text(&stream.log, &needles, m);

    // The ledger: layer costs the replays price, over the traced wall.
    // Column decode runs inside the fused scan, so operator busy time
    // already holds it.
    let ledger_ms = queries.len() as f64 * m.get("api.ns_per_tweet").unwrap_or(0.0) * n / 1e6
        + m.get("plan.compile_us").unwrap_or(0.0) * queries.len() as f64 / 1e3
        + m.get("selectivity.probe_ms").unwrap_or(0.0)
        + m.get("exec.busy_ms").unwrap_or(0.0);
    m.set("ledger.closure", ledger_ms / wall_ms, "ratio");

    // Host, WAL and server: the same queries as standing queries for
    // the first stream-hour, through each door.
    let script = replay::Script {
        queries: &queries,
        quiet: &[],
        rounds: 12,
        round: replay::Round::Refresh {
            secs: 300,
            stats: true,
        },
        fault: None,
    };
    if let Err(e) = replay::doors(run, stream, &script, 12, true, m) {
        report.errors.push(e);
    }
    crate::write_spans(run, &rec, &mut report);
    report
}
