//! Replays of a workload's inputs through the layers a run cannot time
//! apart from outside: the facade's `Connection::next_batch`, the
//! supervisor's `next_block`, `decode_columns`, the Aho–Corasick
//! automaton, the sentiment classifier, planning, the pushdown probe,
//! and the operators (read from `Engine::profile()`).

use crate::queries::Query;
use crate::stats::Metrics;
use std::sync::Arc;
use std::time::Instant;
use tweeql::catalog::Catalog;
use tweeql::exec::supervise::{RetryPolicy, SourceBlock, SupervisedSource};
use tweeql::plan::{plan, PlanConfig, PlannedQuery};
use tweeql::prelude::*;
use tweeql::udf::{Registry, ServiceConfig};
use tweeql_firehose::api::SourceBatch;
use tweeql_firehose::{FaultPlan, FilterSpec, StreamingApi};
use tweeql_model::batch::{all_columns, decode_columns};
use tweeql_model::{Tweet, VirtualClock};
use tweeql_text::ac::AhoCorasick;
use tweeql_text::sentiment::LexiconClassifier;
use twitinfo::peaks::PeakDetectorConfig;

fn registry() -> Registry {
    let mut r = Registry::standard(&ServiceConfig::default(), VirtualClock::new());
    twitinfo::udfs::register(&mut r, PeakDetectorConfig::default());
    r
}

/// Parse, check and plan `sql` the way the engine and host do.
fn compile(sql: &str, catalog: &Catalog, registry: &Registry) -> Result<PlannedQuery, String> {
    let stmt = tweeql::parser::parse(sql).map_err(|e| e.to_string())?;
    let diags = tweeql::check::check(&stmt, catalog, registry);
    if diags.iter().any(|d| d.is_error()) {
        return Err(format!("{sql}: check failed"));
    }
    plan(&stmt, catalog, registry, &PlanConfig::default()).map_err(|e| e.to_string())
}

/// Planning: median compile time per query, and the plans (for their
/// liveness masks and pushdown candidates).
pub fn planning(queries: &[Query], m: &mut Metrics) -> Result<Vec<PlannedQuery>, String> {
    let catalog = Catalog::with_twitter();
    let registry = registry();
    // Repeat small query sets so the median rests on enough samples.
    let reps = (200 / queries.len().max(1)).max(1);
    let mut us = Vec::new();
    let mut plans = Vec::new();
    for rep in 0..reps {
        for q in queries {
            let t0 = Instant::now();
            let p = compile(&q.sql, &catalog, &registry)?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            if rep == 0 {
                plans.push(p);
            }
        }
    }
    m.set("plan.compile_us", crate::stats::median(&us), "us");
    Ok(plans)
}

/// The pushdown probe: `choose_filter` over each plan's candidates,
/// summed per pass of the query set. Returns the filter the engine
/// pushes down for each plan.
pub fn probe(api: &StreamingApi, plans: &[PlannedQuery], m: &mut Metrics) -> Vec<FilterSpec> {
    let t0 = Instant::now();
    let decisions: Vec<_> = plans
        .iter()
        .map(|p| tweeql::selectivity::choose_filter(api, &p.api_candidates, 2000))
        .collect();
    m.set("selectivity.probe_ms", crate::stats::ms_since(t0), "ms");
    decisions
        .iter()
        .zip(plans)
        .map(|(d, p)| d.filter(&p.api_candidates))
        .collect()
}

/// The facade: deliver the whole log through each filter.
pub fn facade(api: &StreamingApi, filters: &[FilterSpec], m: &mut Metrics) {
    let mut out = SourceBatch::new();
    let (mut ns, mut scanned, mut delivered) = (0u64, 0u64, 0u64);
    for f in filters {
        let mut conn = api.connect_probe(f.clone());
        let t0 = Instant::now();
        while !conn.at_end() {
            delivered += conn.next_batch(256, &mut out) as u64;
        }
        ns += t0.elapsed().as_nanos() as u64;
        scanned += conn.stats().scanned;
    }
    m.set("api.ns_per_tweet", ns as f64 / scanned.max(1) as f64, "ns");
    m.set("api.delivered", delivered as f64, "count");
}

/// Supervision: pull every block from a supervised full-stream source
/// under the workload's fault plan.
pub fn supervision(api: StreamingApi, plan: Option<FaultPlan>, seed: u64, m: &mut Metrics) {
    let clock = api.clock();
    let log = Arc::clone(api.log());
    let mut src = SupervisedSource::new(
        api,
        FilterSpec::Sample(1.0),
        plan,
        RetryPolicy::default(),
        seed,
    );
    let mut tweets = 0u64;
    let t0 = Instant::now();
    while let Some(block) = src.next_block(256) {
        if let SourceBlock::Tweets(b) = block {
            tweets += b.sel.len() as u64;
            if let Some(&last) = b.sel.last() {
                clock.advance_to(log[last as usize].created_at);
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    m.set("supervise.ns_per_tweet", ns / tweets.max(1) as f64, "ns");
    m.set(
        "supervise.duplicates_dropped",
        src.fault_stats().duplicates_dropped as f64,
        "count",
    );
}

/// Columnar decode of the whole log in 256-row batches under the union
/// of the plans' liveness masks.
pub fn decode(log: &[Tweet], plans: &[PlannedQuery], m: &mut Metrics) {
    let mut live = [false; tweeql_model::batch::col::COUNT];
    for p in plans {
        match &p.live_columns {
            Some(mask) => live.iter_mut().zip(mask.iter()).for_each(|(l, &c)| *l |= c),
            None => live = [true; tweeql_model::batch::col::COUNT],
        }
    }
    let needed = all_columns();
    let mut skipped = 0u64;
    let t0 = Instant::now();
    for chunk in log.chunks(256) {
        let (cols, stats) = decode_columns(chunk, &needed, Some(&live));
        skipped += stats.columns_skipped;
        std::hint::black_box(cols);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    m.set(
        "batch.decode_ns_per_row",
        ns / log.len().max(1) as f64,
        "ns",
    );
    m.set("batch.columns_skipped", skipped as f64, "count");
}

/// Text kernels: the automaton over every text with the workload's
/// needles, and the sentiment classifier over every text.
pub fn text(log: &[Tweet], needles: &[String], m: &mut Metrics) {
    let ac = AhoCorasick::new(needles);
    let bytes: usize = log.iter().map(|t| t.text.len()).sum();
    let t0 = Instant::now();
    let hits = log.iter().filter(|t| ac.is_match(&t.text)).count();
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(hits);
    m.set("text.ac.ns_per_byte", ns / bytes.max(1) as f64, "ns");

    let clf = LexiconClassifier::new();
    let t0 = Instant::now();
    let sum: f64 = log.iter().map(|t| clf.score(&t.text)).sum();
    std::hint::black_box(sum);
    m.set(
        "text.sentiment.ns_per_tweet",
        t0.elapsed().as_nanos() as f64 / log.len().max(1) as f64,
        "ns",
    );
}

/// Operator totals over a set of executions.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecTotals {
    /// Σ busy nanoseconds over every stage.
    pub busy_ns: u64,
    /// Rows into the first stage.
    pub rows_in: u64,
    /// Rows out of the last stage.
    pub rows_out: u64,
    /// Geocoding requests.
    pub geo_calls: u64,
    /// Geocode cache hits.
    pub geo_hits: u64,
    /// Geocode cache misses.
    pub geo_misses: u64,
}

impl ExecTotals {
    /// Add one execution's profile and stats.
    pub fn add(&mut self, engine: &Engine, stats: &tweeql::engine::QueryStats) {
        if let Some(p) = engine.profile() {
            self.busy_ns += p.stages.iter().map(|s| s.busy_nanos).sum::<u64>();
            self.rows_in += p.stages.first().map_or(0, |s| s.records_in);
            self.rows_out += p.stages.last().map_or(0, |s| s.records_out);
        }
        self.geo_calls += stats.geo_requests;
        self.geo_hits += stats.geo_cache.hits;
        self.geo_misses += stats.geo_cache.misses;
    }

    /// Publish as per-layer metrics.
    pub fn publish(&self, m: &mut Metrics) {
        m.set("exec.busy_ms", self.busy_ns as f64 / 1e6, "ms");
        m.set("exec.rows_in", self.rows_in as f64, "count");
        m.set("exec.rows_out", self.rows_out as f64, "count");
        m.set("geo.calls", self.geo_calls as f64, "count");
        let lookups = self.geo_hits + self.geo_misses;
        let ratio = if lookups == 0 {
            0.0
        } else {
            self.geo_hits as f64 / lookups as f64
        };
        m.set("geo.cache_hit_ratio", ratio, "ratio");
    }
}

/// Operators of queries a host runs: execute each through its own
/// engine, pushdown off as on the host, over the first `minutes` of
/// the log.
pub fn operators(
    log: &[Tweet],
    queries: &[&Query],
    minutes: i64,
    seed: u64,
) -> Result<ExecTotals, String> {
    let cut = tweeql_model::Timestamp::from_mins(minutes);
    let n = log.partition_point(|t| t.created_at < cut);
    let prefix: Vec<Tweet> = log[..n].to_vec();
    let mut totals = ExecTotals::default();
    for q in queries {
        let api = StreamingApi::new(prefix.clone(), VirtualClock::new());
        let mut engine = Engine::builder(api)
            .seed(seed)
            .push_down(false)
            .configure_registry(|r| twitinfo::udfs::register(r, PeakDetectorConfig::default()))
            .build();
        let r = engine.execute(&q.sql).map_err(|e| e.to_string())?;
        totals.add(&engine, &r.stats);
    }
    Ok(totals)
}
