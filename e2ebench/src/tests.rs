//! The benchmark's own tests: smoke-size runs of every workload pass
//! their checks, and every checker rejects a corrupted result.

use crate::queries::{adhoc_queries, check, record_row, Cell, Kind, Outputs, Query, Row, Truth};
use crate::replay::{Round, Script};
use crate::session::{Door, Out, ServiceDoor, Session};
use crate::stream::{self, Scale, Stream};
use crate::trace::Recorder;
use crate::{churn, execute, Run};
use std::sync::OnceLock;
use tweeql::prelude::*;
use tweeql_server::Service;
use twitinfo::peaks::PeakDetectorConfig;

fn smoke(workload: &str, trace: bool) -> Run {
    Run {
        workload: workload.into(),
        seed: 11,
        seconds: 0.0,
        trace,
        scale: Scale::SMOKE,
    }
}

fn stream() -> &'static Stream {
    static S: OnceLock<Stream> = OnceLock::new();
    S.get_or_init(|| stream::generate(Scale::SMOKE, 11))
}

fn assert_clean(run: &Run) {
    let r = execute(run).unwrap();
    assert!(r.errors.is_empty(), "{}: {:?}", run.workload, r.errors);
    assert_eq!(r.failed, 0);
    assert!(r.attempted > 0);
}

#[test]
fn adhoc_smoke_passes_its_checks() {
    assert_clean(&smoke("adhoc", false));
}

#[test]
fn standing_smoke_passes_its_checks() {
    assert_clean(&smoke("standing", false));
}

#[test]
fn churn_smoke_passes_its_checks() {
    assert_clean(&smoke("churn", false));
}

#[test]
fn traced_smoke_reports_every_layer() {
    for w in ["adhoc", "standing", "churn"] {
        let r = execute(&smoke(w, true)).unwrap();
        assert!(r.errors.is_empty(), "{w}: {:?}", r.errors);
        let names: Vec<&str> = r.metrics.names().collect();
        for want in [
            "ledger.closure",
            "trace.overhead",
            "server.wire_us.p50",
            "wal.records",
        ] {
            assert!(names.contains(&want), "{w} lacks {want}: {names:?}");
        }
    }
}

#[test]
fn stream_is_seeded_and_has_non_ascii_text() {
    let a = stream::generate(Scale::SMOKE, 5);
    let b = stream::generate(Scale::SMOKE, 5);
    assert_eq!(a.log.len(), b.log.len());
    assert!(a
        .log
        .iter()
        .zip(b.log.iter())
        .all(|(x, y)| x.text == y.text));
    let share = a.non_ascii_share();
    assert!((0.1..0.3).contains(&share), "non-ASCII share {share}");
}

/// The program's own output for `q` over the smoke stream.
fn engine_rows(q: &Query) -> Vec<Row> {
    engine_rows_over(stream(), q)
}

fn engine_rows_over(s: &Stream, q: &Query) -> Vec<Row> {
    let mut engine = Engine::builder(s.api())
        .configure_registry(|r| twitinfo::udfs::register(r, PeakDetectorConfig::default()))
        .build();
    let r = engine.execute(&q.sql).unwrap();
    r.rows.iter().map(record_row).collect()
}

fn checks(q: &Query, rows: &[Row]) -> Result<(), String> {
    checks_over(stream(), q, rows)
}

fn checks_over(s: &Stream, q: &Query, rows: &[Row]) -> Result<(), String> {
    let mut truth = Truth::new(&s.log, &s.scenario);
    check(q, rows, 0..s.log.len(), &mut truth)
}

/// Remove a row, duplicate a row, and (for counts) put one count off
/// by one: each must fail the check the untouched output passes.
fn rejects_corruption(q: &Query, count_col: Option<usize>) {
    let rows = engine_rows(q);
    assert!(rows.len() > 2, "{}: too few rows to corrupt", q.sql);
    checks(q, &rows).unwrap_or_else(|e| panic!("untouched output fails: {e}"));

    let mut missing = rows.clone();
    missing.remove(rows.len() / 2);
    assert!(
        checks(q, &missing).is_err(),
        "{}: missed a removed row",
        q.sql
    );

    let mut dup = rows.clone();
    dup.insert(rows.len() / 2, rows[rows.len() / 2].clone());
    assert!(
        checks(q, &dup).is_err(),
        "{}: missed a duplicate row",
        q.sql
    );

    if let Some(c) = count_col {
        let mut off = rows.clone();
        let Cell::Int(n) = off[1][c] else {
            panic!("{}: column {c} is not a count", q.sql)
        };
        off[1][c] = Cell::Int(n + 1);
        assert!(
            checks(q, &off).is_err(),
            "{}: missed a count off by one",
            q.sql
        );
    }
}

#[test]
fn adhoc_checkers_reject_corrupted_results() {
    for q in adhoc_queries() {
        match q.kind {
            Kind::Match(_) | Kind::Followers(_) | Kind::KeywordBox(..) | Kind::SentimentGeo(_) => {
                rejects_corruption(&q, None)
            }
            Kind::Lang { .. } => rejects_corruption(&q, Some(1)),
            Kind::Confidence => rejects_corruption(&q, Some(2)),
            // Grid cells carry no key the log fixes: range properties only.
            _ => {}
        }
    }
}

#[test]
fn standing_checkers_reject_corrupted_results() {
    rejects_corruption(&Query::tracker(&["obama"]), None);
    rejects_corruption(&Query::count(&["obama"], 1, Some("peak")), Some(0));
    rejects_corruption(&Query::count(&["obama"], 10, Some("mood")), Some(0));
    rejects_corruption(&Query::by_lang(5), Some(1));
    let quiet = Query::quiet("zqnothing", false);
    assert!(
        checks(&Query::quiet("nothing", false), &[]).is_err(),
        "an unproven keyword"
    );
    assert!(checks(&quiet, &[]).is_ok());
    assert!(checks(&quiet, &[vec![Cell::Int(1)]]).is_err());
}

#[test]
fn bursts_without_a_peak_label_are_rejected() {
    let s = stream();
    let q = Query::count(&["obama"], 1, Some("peak"));
    let mut rows = engine_rows_over(s, &q);
    let labelled: Vec<usize> = (0..rows.len())
        .filter(|&i| rows[i][2] != Cell::Null)
        .collect();
    assert_eq!(
        labelled.len(),
        s.scenario.bursts.len(),
        "one peak per scripted burst"
    );
    checks_over(s, &q, &rows).unwrap();
    // Erase the label of the last burst.
    rows[*labelled.last().unwrap()][2] = Cell::Null;
    assert!(checks_over(s, &q, &rows).is_err());
}

/// Check every slot of a finished churn session.
fn check_slots<D: Door>(
    s: &Session<D>,
    queries: &[Query],
    truth: &mut Truth<'_>,
    errors: &mut Vec<String>,
) {
    let mut outputs = Outputs::default();
    churn::keep_slots(s, &mut outputs, errors);
    outputs.check(queries, truth, errors);
}

#[test]
fn churn_checker_rejects_corrupted_polls() {
    let s = stream();
    let run = smoke("churn", false);
    let queries = churn::queries();
    let quiet = churn::quiet_set(5, run.seed);
    let sc = Script {
        queries: &queries,
        quiet: &quiet,
        rounds: 240,
        round: Round::Churn,
        fault: None,
    };
    let (host, _dir) = sc.host(&run, s, "test-churn").unwrap();
    let mut session = Session::new(ServiceDoor(Service::new(host)));
    sc.run_all(&mut session, &mut Recorder::new(false));
    assert_eq!(session.failed, 0, "{:?}", session.first_error);

    let mut truth = Truth::new(&s.log, &s.scenario);
    let mut errors = Vec::new();
    check_slots(&session, &queries, &mut truth, &mut errors);
    assert!(errors.is_empty(), "{errors:?}");

    // Corrupt the first slot that returned rows: drop one, then repeat one.
    let (slot, out) = session
        .slots
        .iter()
        .enumerate()
        .find_map(|(i, sl)| {
            sl.outs
                .iter()
                .position(|o| matches!(o, Out::Lines(l) if l.len() > 1))
                .map(|o| (i, o))
        })
        .expect("some poll returned rows");
    let Out::Lines(lines) = &mut session.slots[slot].outs[out] else {
        panic!("protocol rows")
    };
    let kept = lines.pop().unwrap();
    check_slots(&session, &queries, &mut truth, &mut errors);
    assert_eq!(errors.len(), 1, "a removed row");
    let Out::Lines(lines) = &mut session.slots[slot].outs[out] else {
        unreachable!()
    };
    lines.push(kept.clone());
    lines.push(kept);
    errors.clear();
    check_slots(&session, &queries, &mut truth, &mut errors);
    assert_eq!(errors.len(), 1, "a duplicated row");
}
