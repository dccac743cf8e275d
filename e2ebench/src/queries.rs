//! The queries the workloads run, and the checkers that hold their
//! output against computations written apart from the program: a naive
//! scan of the log with the standard library's lowercase, plain
//! bounding-box tests and plain per-window bucket counts.

use crate::stream::Stream;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use tweeql_firehose::scenario::Scenario;
use tweeql_model::{Record, Tweet, Value};

/// What a query computes, which fixes its output columns and how its
/// output is checked.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `id, …` of every tweet containing any keyword, in log order.
    Match(Vec<String>),
    /// A keyword filter that matches nothing: no output at all.
    Quiet(String),
    /// `n, first_id[, peak | mood]` per non-empty window of matches.
    Count {
        /// Keywords (OR).
        kws: Vec<String>,
        /// Tumbling window length.
        window_ms: i64,
        /// Third column: `detect_peak` label or NULL.
        peak: bool,
        /// Third column: average sentiment.
        mood: bool,
    },
    /// `lang, n, first_id` per window and language.
    Lang {
        /// Tumbling window length.
        window_ms: i64,
    },
    /// `id, followers` of tweets whose author has more followers.
    Followers(u64),
    /// Paper query 1: `sentiment, latitude, longitude` per match.
    SentimentGeo(String),
    /// Paper query 2: `text` of matches geotagged inside a box
    /// (min lat, min lon, max lat, max lon).
    KeywordBox(String, [f64; 4]),
    /// Paper query 3: `avg, cell_lat, cell_lon` per grid cell.
    Grid,
    /// `lang, f, n` emitted by confidence: counts add up per language.
    Confidence,
}

/// One query: its SQL and what it computes.
#[derive(Debug, Clone)]
pub struct Query {
    /// TweeQL text.
    pub sql: String,
    /// Output shape and checker.
    pub kind: Kind,
}

/// Prefix of every quiet keyword. It occurs nowhere in the stream,
/// which the quiet checker verifies.
pub const QUIET_PREFIX: &str = "zq";

/// The NYC box the paper's second query names, written out here so the
/// check does not go through the program's own bounding-box code.
pub const NYC: [f64; 4] = [40.477, -74.259, 40.917, -73.700];

fn or_clause(kws: &[String]) -> String {
    kws.iter()
        .map(|k| format!("text contains '{k}'"))
        .collect::<Vec<_>>()
        .join(" OR ")
}

fn kws(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

impl Query {
    /// `SELECT id, screen_name, text` of keyword matches.
    pub fn tracker(list: &[&str]) -> Query {
        let k = kws(list);
        Query {
            sql: format!(
                "SELECT id, screen_name, text FROM twitter WHERE {}",
                or_clause(&k)
            ),
            kind: Kind::Match(k),
        }
    }

    /// The keywords the query's filter looks for.
    pub fn keywords(&self) -> Vec<String> {
        match &self.kind {
            Kind::Match(k) | Kind::Count { kws: k, .. } => k.clone(),
            Kind::Quiet(k) | Kind::SentimentGeo(k) | Kind::KeywordBox(k, _) => vec![k.clone()],
            _ => Vec::new(),
        }
    }

    /// A quiet tracker on `kw`, which must start with [`QUIET_PREFIX`].
    pub fn quiet(kw: &str, windowed: bool) -> Query {
        let sql = if windowed {
            format!(
                "SELECT count(*) AS n, min(id) AS first_id FROM twitter \
                 WHERE text contains '{kw}' WINDOW 1 minutes"
            )
        } else {
            format!("SELECT id, text FROM twitter WHERE text contains '{kw}'")
        };
        Query {
            sql,
            kind: Kind::Quiet(kw.to_string()),
        }
    }

    /// Per-window match counts, optionally with a third column.
    pub fn count(list: &[&str], minutes: i64, third: Option<&str>) -> Query {
        let k = kws(list);
        let extra = match third {
            Some("peak") => ", detect_peak(count(*)) AS peak",
            Some("mood") => ", avg(sentiment(text)) AS mood",
            _ => "",
        };
        Query {
            sql: format!(
                "SELECT count(*) AS n, min(id) AS first_id{extra} FROM twitter \
                 WHERE {} WINDOW {minutes} minutes",
                or_clause(&k)
            ),
            kind: Kind::Count {
                kws: k,
                window_ms: minutes * 60_000,
                peak: third == Some("peak"),
                mood: third == Some("mood"),
            },
        }
    }

    /// The needle-free windowed `GROUP BY lang`.
    pub fn by_lang(minutes: i64) -> Query {
        Query {
            sql: format!(
                "SELECT lang, count(*) AS n, min(id) AS first_id FROM twitter \
                 GROUP BY lang WINDOW {minutes} minutes"
            ),
            kind: Kind::Lang {
                window_ms: minutes * 60_000,
            },
        }
    }
}

/// The `adhoc` analyst's queries: the paper's three demo queries
/// without `LIMIT`, then five more shapes.
pub fn adhoc_queries() -> Vec<Query> {
    vec![
        Query {
            sql: "SELECT sentiment(text), latitude(loc), longitude(loc) FROM twitter \
                  WHERE text contains 'obama'"
                .into(),
            kind: Kind::SentimentGeo("obama".into()),
        },
        Query {
            sql: "SELECT text FROM twitter \
                  WHERE text contains 'obama' AND location in [bounding box for NYC]"
                .into(),
            kind: Kind::KeywordBox("obama".into(), NYC),
        },
        Query {
            sql: "SELECT avg(sentiment(text)), floor(latitude(loc)) AS cell_lat, \
                  floor(longitude(loc)) AS cell_lon FROM twitter \
                  WHERE text contains 'obama' GROUP BY cell_lat, cell_lon WINDOW 3 hours"
                .into(),
            kind: Kind::Grid,
        },
        Query::tracker(&["president"]),
        Query {
            sql: "SELECT id, sentiment(text) AS s FROM twitter \
                  WHERE text contains 'budget' OR text contains 'über' OR text contains '東京'"
                .into(),
            kind: Kind::Match(kws(&["budget", "über", "東京"])),
        },
        Query {
            sql: "SELECT id, followers FROM twitter WHERE followers > 20000".into(),
            kind: Kind::Followers(20_000),
        },
        Query::by_lang(10),
        Query {
            sql: "SELECT lang, avg(followers) AS f, count(*) AS n FROM twitter \
                  GROUP BY lang WINDOW CONFIDENCE 0.1 MAX 1 hours"
                .into(),
            kind: Kind::Confidence,
        },
    ]
}

/// One output value, from a [`Record`] or from a JSON row on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Num(f64),
    /// String.
    Str(String),
    /// Anything else (booleans, lists).
    Other,
}

impl Cell {
    fn int(&self) -> Option<i64> {
        match self {
            Cell::Int(i) => Some(*i),
            Cell::Num(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(*i as f64),
            Cell::Num(f) => Some(*f),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Cell::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One output row.
pub type Row = Vec<Cell>;

/// A record as a row.
pub fn record_row(r: &Record) -> Row {
    r.values()
        .iter()
        .map(|v| match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Num(*f),
            Value::Str(s) => Cell::Str(s.to_string()),
            Value::Time(t) => Cell::Int(t.millis()),
            _ => Cell::Other,
        })
        .collect()
}

/// A flat JSON object line (as the server writes rows) as a row, in
/// key order.
pub fn json_row(line: &str) -> Result<Row, String> {
    let b = line.trim().as_bytes();
    let bad = |why: &str| format!("bad JSON row ({why}): {line}");
    if b.first() != Some(&b'{') || b.last() != Some(&b'}') {
        return Err(bad("not an object"));
    }
    let s = &line.trim()[1..line.trim().len() - 1];
    let mut row = Vec::new();
    let mut chars = s.char_indices().peekable();
    while chars.peek().is_some() {
        // key
        if chars.next().map(|c| c.1) != Some('"') {
            return Err(bad("key"));
        }
        read_string(&mut chars).ok_or_else(|| bad("key string"))?;
        if chars.next().map(|c| c.1) != Some(':') {
            return Err(bad("colon"));
        }
        let cell = match chars.peek().map(|c| c.1) {
            Some('"') => {
                chars.next();
                Cell::Str(read_string(&mut chars).ok_or_else(|| bad("string"))?)
            }
            Some('[') => {
                let mut depth = 0;
                for (_, c) in chars.by_ref() {
                    depth += match c {
                        '[' => 1,
                        ']' => -1,
                        _ => 0,
                    };
                    if depth == 0 {
                        break;
                    }
                }
                Cell::Other
            }
            _ => {
                let mut tok = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c == ',' {
                        break;
                    }
                    tok.push(c);
                    chars.next();
                }
                match tok.as_str() {
                    "null" => Cell::Null,
                    "true" | "false" => Cell::Other,
                    t if t.contains(['.', 'e', 'E']) => {
                        Cell::Num(t.parse().map_err(|_| bad("number"))?)
                    }
                    t => Cell::Int(t.parse().map_err(|_| bad("integer"))?),
                }
            }
        };
        row.push(cell);
        match chars.next().map(|c| c.1) {
            None => break,
            Some(',') => {}
            Some(_) => return Err(bad("separator")),
        }
    }
    Ok(row)
}

fn read_string(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) -> Option<String> {
    let mut out = String::new();
    loop {
        let (_, c) = chars.next()?;
        match c {
            '"' => return Some(out),
            '\\' => {
                let (_, e) = chars.next()?;
                match e {
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String =
                            (0..4).filter_map(|_| chars.next().map(|c| c.1)).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    other => out.push(other),
                }
            }
            c => out.push(c),
        }
    }
}

/// The checkers' view of the stream: the log, its folded text, and
/// memoized keyword scans.
pub struct Truth<'a> {
    /// The firehose log.
    pub log: &'a [Tweet],
    /// The scenario (burst ground truth).
    pub scenario: &'a Scenario,
    /// Each text lowercased char by char with the standard library.
    folded: Vec<String>,
    matches: HashMap<Vec<String>, Vec<u32>>,
    fragments: HashMap<String, bool>,
    id_index: HashMap<u64, u32>,
}

impl<'a> Truth<'a> {
    /// Fold the log once.
    pub fn new(log: &'a [Tweet], scenario: &'a Scenario) -> Truth<'a> {
        Truth {
            log,
            scenario,
            folded: log
                .iter()
                .map(|t| t.text.chars().flat_map(char::to_lowercase).collect())
                .collect(),
            matches: HashMap::new(),
            fragments: HashMap::new(),
            id_index: log
                .iter()
                .enumerate()
                .map(|(i, t)| (t.id, i as u32))
                .collect(),
        }
    }

    /// Log indices of tweets containing any of `kws`, in log order.
    pub fn matches(&mut self, kws: &[String]) -> &[u32] {
        let folded = &self.folded;
        self.matches.entry(kws.to_vec()).or_insert_with(|| {
            (0..folded.len())
                .filter(|&i| kws.iter().any(|k| folded[i].contains(k.as_str())))
                .map(|i| i as u32)
                .collect()
        })
    }

    fn matches_in(&mut self, kws: &[String], range: &Range<usize>) -> Vec<usize> {
        let m = self.matches(kws);
        let lo = m.partition_point(|&i| (i as usize) < range.start);
        let hi = m.partition_point(|&i| (i as usize) < range.end);
        m[lo..hi].iter().map(|&i| i as usize).collect()
    }

    fn tweet_of(&self, id: i64) -> Option<&Tweet> {
        self.id_index
            .get(&(id as u64))
            .map(|&i| &self.log[i as usize])
    }

    /// Does any folded text contain `fragment`?
    pub fn any_contains(&mut self, fragment: &str) -> bool {
        let folded = &self.folded;
        *self
            .fragments
            .entry(fragment.to_string())
            .or_insert_with(|| folded.iter().any(|t| t.contains(fragment)))
    }
}

/// A peak timeline over one of a burst topic's own keywords must label
/// every scripted burst of that topic that lies inside `range`: the
/// burst multiplies the keyword's rate, so a detector that stops firing
/// fails here rather than emitting NULL everywhere. (That every label
/// falls inside a burst is not checked: the detector is statistical,
/// and on some seeds it closes a noise peak between bursts.)
fn check_bursts_labelled(
    what: &str,
    kws: &[String],
    rows: &[Row],
    range: &Range<usize>,
    truth: &Truth<'_>,
) -> Result<(), String> {
    let (Some(first), Some(last)) = (
        truth.log[range.clone()].first(),
        truth.log[range.clone()].last(),
    ) else {
        return Ok(());
    };
    let mut labelled = Vec::new();
    for r in rows.iter().filter(|r| r[2].str().is_some()) {
        let t = truth
            .tweet_of(col_int(r, 1, what)?)
            .ok_or_else(|| format!("{what}: unknown first_id in {r:?}"))?;
        labelled.push(t.created_at);
    }
    let sc = truth.scenario;
    for b in &sc.bursts {
        let own = sc.topics[b.topic].keywords.iter().any(|k| kws.contains(k));
        let inside = first.created_at <= b.start && b.end() <= last.created_at;
        if own && inside && !labelled.iter().any(|&at| b.start <= at && at <= b.end()) {
            return Err(format!(
                "{what}: no peak label inside the scripted burst {:?} at {} ms",
                b.label,
                b.start.millis()
            ));
        }
    }
    Ok(())
}

fn bucket(t: &Tweet, window_ms: i64) -> i64 {
    t.created_at.millis().div_euclid(window_ms)
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: &[T],
    want: &[T],
) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let first = got.iter().zip(want).position(|(a, b)| a != b);
    Err(format!(
        "{what}: got {} rows, want {}; first difference at {:?}: got {:?}, want {:?}",
        got.len(),
        want.len(),
        first,
        first.and_then(|i| got.get(i)),
        first.and_then(|i| want.get(i)),
    ))
}

fn col_int(row: &Row, c: usize, what: &str) -> Result<i64, String> {
    row.get(c)
        .and_then(Cell::int)
        .ok_or_else(|| format!("{what}: column {c} is not an integer in {row:?}"))
}

fn in_range(v: &Cell, lo: f64, hi: f64) -> bool {
    match v {
        Cell::Null => true,
        c => c.num().is_some_and(|x| (lo..=hi).contains(&x)),
    }
}

/// Check `rows` — everything `q` emitted while it saw log entries
/// `range` — against the naive computation.
pub fn check(
    q: &Query,
    rows: &[Row],
    range: Range<usize>,
    truth: &mut Truth<'_>,
) -> Result<(), String> {
    let what = q.sql.as_str();
    match &q.kind {
        Kind::Match(kws) => {
            let want: Vec<i64> = truth
                .matches_in(kws, &range)
                .into_iter()
                .map(|i| truth.log[i].id as i64)
                .collect();
            let got = rows
                .iter()
                .map(|r| col_int(r, 0, what))
                .collect::<Result<Vec<_>, _>>()?;
            expect_eq(what, &got, &want)
        }
        Kind::Quiet(kw) => {
            if !rows.is_empty() {
                return Err(format!("{what}: a quiet query emitted {} rows", rows.len()));
            }
            // No text holds the prefix, so none holds the keyword.
            if !kw.starts_with(QUIET_PREFIX) || truth.any_contains(QUIET_PREFIX) {
                return Err(format!("{kw:?} may occur in the stream"));
            }
            Ok(())
        }
        Kind::Count {
            kws,
            window_ms,
            peak,
            mood,
        } => {
            let idx = truth.matches_in(kws, &range);
            let mut want: Vec<(i64, i64)> = Vec::new();
            let mut last = None;
            for i in idx {
                let t = &truth.log[i];
                let b = bucket(t, *window_ms);
                if last == Some(b) {
                    want.last_mut().expect("bucket open").0 += 1;
                } else {
                    want.push((1, t.id as i64));
                    last = Some(b);
                }
            }
            let got = rows
                .iter()
                .map(|r| Ok((col_int(r, 0, what)?, col_int(r, 1, what)?)))
                .collect::<Result<Vec<_>, String>>()?;
            expect_eq(what, &got, &want)?;
            if *peak {
                check_bursts_labelled(what, kws, rows, &range, truth)?;
            }
            for r in rows {
                if *mood && !in_range(&r[2], -1.0, 1.0) {
                    return Err(format!("{what}: mood out of [-1, 1] in {r:?}"));
                }
            }
            Ok(())
        }
        Kind::Lang { window_ms } => {
            let mut want: BTreeMap<(i64, String), (i64, i64)> = BTreeMap::new();
            for t in &truth.log[range] {
                want.entry((bucket(t, *window_ms), t.lang.to_string()))
                    .and_modify(|e| e.0 += 1)
                    .or_insert((1, t.id as i64));
            }
            let want: Vec<(String, i64, i64)> = want
                .into_iter()
                .map(|((_, l), (n, id))| (l, n, id))
                .collect();
            let mut got = rows
                .iter()
                .map(|r| {
                    let lang = r[0].str().ok_or_else(|| format!("{what}: lang in {r:?}"))?;
                    Ok((lang.to_string(), col_int(r, 1, what)?, col_int(r, 2, what)?))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let mut want = want;
            got.sort_by_key(|g| g.2);
            want.sort_by_key(|w| w.2);
            expect_eq(what, &got, &want)
        }
        Kind::Followers(min) => {
            let want: Vec<(i64, i64)> = truth.log[range]
                .iter()
                .filter(|t| u64::from(t.user.followers) > *min)
                .map(|t| (t.id as i64, t.user.followers as i64))
                .collect();
            let got = rows
                .iter()
                .map(|r| Ok((col_int(r, 0, what)?, col_int(r, 1, what)?)))
                .collect::<Result<Vec<_>, String>>()?;
            expect_eq(what, &got, &want)
        }
        Kind::SentimentGeo(kw) => {
            let want = truth.matches_in(std::slice::from_ref(kw), &range).len();
            if rows.len() != want {
                return Err(format!("{what}: got {} rows, want {want}", rows.len()));
            }
            for r in rows {
                let s = r[0].num();
                if !matches!(s, Some(x) if x == -1.0 || x == 0.0 || x == 1.0)
                    || !in_range(&r[1], -90.0, 90.0)
                    || !in_range(&r[2], -180.0, 180.0)
                {
                    return Err(format!("{what}: value out of range in {r:?}"));
                }
            }
            Ok(())
        }
        Kind::KeywordBox(kw, [la0, lo0, la1, lo1]) => {
            let want: Vec<String> = truth
                .matches_in(std::slice::from_ref(kw), &range)
                .into_iter()
                .map(|i| &truth.log[i])
                .filter(|t| {
                    t.coordinates.is_some_and(|(la, lo)| {
                        (*la0..=*la1).contains(&la) && (*lo0..=*lo1).contains(&lo)
                    })
                })
                .map(|t| t.text.to_string())
                .collect();
            let got = rows
                .iter()
                .map(|r| {
                    r[0].str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{what}: {r:?}"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            expect_eq(what, &got, &want)
        }
        Kind::Grid => {
            if rows.is_empty() {
                return Err(format!("{what}: no grid cells"));
            }
            for r in rows {
                // Tweets whose location does not geocode group under NULL cells.
                let integral =
                    |c: &Cell| *c == Cell::Null || c.num().is_some_and(|x| x.fract() == 0.0);
                if !in_range(&r[0], -1.0, 1.0)
                    || !integral(&r[1])
                    || !integral(&r[2])
                    || !in_range(&r[1], -90.0, 90.0)
                    || !in_range(&r[2], -180.0, 180.0)
                {
                    return Err(format!("{what}: bad grid cell {r:?}"));
                }
            }
            Ok(())
        }
        Kind::Confidence => {
            let mut want: BTreeMap<String, i64> = BTreeMap::new();
            for t in &truth.log[range] {
                *want.entry(t.lang.to_string()).or_insert(0) += 1;
            }
            let mut got: BTreeMap<String, i64> = BTreeMap::new();
            for r in rows {
                let lang = r[0].str().ok_or_else(|| format!("{what}: lang in {r:?}"))?;
                if !in_range(&r[1], 0.0, f64::MAX) {
                    return Err(format!("{what}: negative mean followers in {r:?}"));
                }
                *got.entry(lang.to_string()).or_insert(0) += col_int(r, 2, what)?;
            }
            let (got, want): (Vec<_>, Vec<_>) =
                (got.into_iter().collect(), want.into_iter().collect());
            expect_eq(what, &got, &want)
        }
    }
}

/// Outputs held for checking after the timed passes, so that the
/// checkers' state ([`Truth`]) is built only once the process's memory
/// peak has been read. The first pass's outputs are kept; every later
/// pass must reproduce them row for row, so checking the first checks
/// them all.
#[derive(Debug, Default)]
pub struct Outputs {
    /// Query index, log range it saw, and rows, in emission order.
    kept: Vec<(usize, Range<usize>, Vec<Row>)>,
    passes: usize,
    cursor: usize,
}

impl Outputs {
    /// Start a pass.
    pub fn begin_pass(&mut self) {
        self.passes += 1;
        self.cursor = 0;
    }

    /// One output of the current pass: query `query` emitted `rows`
    /// while it saw log entries `range`.
    pub fn add(&mut self, query: usize, range: Range<usize>, rows: Vec<Row>) -> Result<(), String> {
        if self.passes <= 1 {
            self.kept.push((query, range, rows));
            return Ok(());
        }
        let at = self.cursor;
        self.cursor += 1;
        match self.kept.get(at) {
            Some((q, r, first)) if *q == query && *r == range && *first == rows => Ok(()),
            _ => Err(format!(
                "pass {}: output {at} (query {query} over log[{range:?}], {} rows) differs from the first pass's",
                self.passes,
                rows.len()
            )),
        }
    }

    /// End a pass: a later pass must have emitted as many outputs.
    pub fn end_pass(&self) -> Result<(), String> {
        if self.passes > 1 && self.cursor != self.kept.len() {
            return Err(format!(
                "pass {}: {} outputs, the first pass had {}",
                self.passes,
                self.cursor,
                self.kept.len()
            ));
        }
        Ok(())
    }

    /// Check every kept output against the naive computation.
    pub fn check(&self, queries: &[Query], truth: &mut Truth<'_>, errors: &mut Vec<String>) {
        for (q, range, rows) in &self.kept {
            if let Err(e) = check(&queries[*q], rows, range.clone(), truth) {
                errors.push(format!("over log[{range:?}]: {e}"));
            }
        }
    }

    /// Build the checkers' state and check every kept output. Call it
    /// only once `peak_rss_mb` has been read.
    pub fn check_after_peak(
        &self,
        workload: &str,
        stream: &Stream,
        queries: &[Query],
        errors: &mut Vec<String>,
    ) {
        eprintln!(
            "{workload}: {:.1} MiB of output rows kept for checking",
            self.bytes() as f64 / (1 << 20) as f64
        );
        let mut truth = Truth::new(&stream.log, &stream.scenario);
        self.check(queries, &mut truth, errors);
    }

    /// Approximate heap bytes of the kept rows.
    pub fn bytes(&self) -> usize {
        let cell = std::mem::size_of::<Cell>();
        self.kept
            .iter()
            .flat_map(|(_, _, rows)| rows)
            .map(|r| {
                std::mem::size_of::<Row>()
                    + r.iter()
                        .map(|c| cell + if let Cell::Str(s) = c { s.len() } else { 0 })
                        .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rows_parse() {
        let r =
            json_row(r#"{"id":12,"text":"a \"b\" Москва","f":1.5,"x":null,"l":[1,[2]],"b":true}"#)
                .unwrap();
        assert_eq!(
            r,
            vec![
                Cell::Int(12),
                Cell::Str("a \"b\" Москва".into()),
                Cell::Num(1.5),
                Cell::Null,
                Cell::Other,
                Cell::Other
            ]
        );
        assert!(json_row("nope").is_err());
    }

    #[test]
    fn later_passes_must_reproduce_the_first() {
        let rows = vec![vec![Cell::Int(1)], vec![Cell::Int(2)]];
        let mut o = Outputs::default();
        o.begin_pass();
        o.add(0, 0..5, rows.clone()).unwrap();
        o.begin_pass();
        o.add(0, 0..5, rows.clone()).unwrap();
        o.end_pass().unwrap();
        o.begin_pass();
        assert!(o.add(0, 0..5, rows[..1].to_vec()).is_err(), "a row removed");
        o.begin_pass();
        assert!(o.add(0, 0..4, rows.clone()).is_err(), "another range");
        o.begin_pass();
        assert!(o.end_pass().is_err(), "an output missing");
    }
}
