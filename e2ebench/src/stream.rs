//! The benchmark's input: the obama-month scenario with its rates
//! scaled up to about a million tweets, plus native-script text written
//! into the tweets of six non-English languages.

use std::sync::Arc;
use std::time::Instant;
use tweeql_firehose::scenario::Scenario;
use tweeql_firehose::{scenarios, StreamingApi};
use tweeql_model::{Tweet, VirtualClock};

/// How large a stream to generate.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on the scenario's background and topic rates.
    pub rate: f64,
}

impl Scale {
    /// The measured size: ~950K tweets over 720 stream-minutes.
    pub const FULL: Scale = Scale { rate: 5.0 };
    /// A smoke size for the benchmark's own tests: ~190K tweets, enough
    /// for the per-minute `obama` timeline to label every burst.
    pub const SMOKE: Scale = Scale { rate: 1.0 };
}

/// Native-script phrases appended to tweets whose author writes in the
/// keyed language. Every upper-case letter here lowercases to exactly
/// one char, so a char-wise fold and `str::to_lowercase` agree.
const NATIVE: &[(&str, &[&str])] = &[
    (
        "ja",
        &["東京", "ニュース", "大統領の演説", "今日はいい天気"],
    ),
    ("zh", &["北京", "新闻", "总统讲话", "今天天气很好"]),
    ("ko", &["서울", "뉴스", "대통령 연설", "오늘 날씨"]),
    ("ru", &["Москва", "новости", "Президент", "сегодня ВЕЧЕРОМ"]),
    ("fr", &["Élysée", "café crème", "président", "cet été"]),
    ("de", &["Über", "München", "Präsident", "Straßenbahn"]),
];

/// The generated stream and what the checkers need to read it.
pub struct Stream {
    /// The firehose log, in timestamp order.
    pub log: Arc<Vec<Tweet>>,
    /// The scenario it was generated from (burst ground truth).
    pub scenario: Scenario,
    /// Wall seconds the generator and the text rewrite took.
    pub generate_s: f64,
}

/// The scenario at `scale`.
pub fn scenario(scale: Scale) -> Scenario {
    let mut s = scenarios::obama_month();
    s.background_rate_per_min *= scale.rate;
    for t in &mut s.topics {
        t.base_rate_per_min *= scale.rate;
    }
    s
}

/// Generate the stream for `seed`: the same seed gives the same log.
pub fn generate(scale: Scale, seed: u64) -> Stream {
    let scenario = scenario(scale);
    let t0 = Instant::now();
    let mut log = tweeql_firehose::generate(&scenario, seed);
    add_native_text(&mut log, seed);
    Stream {
        log: Arc::new(log),
        scenario,
        generate_s: t0.elapsed().as_secs_f64(),
    }
}

fn add_native_text(log: &mut [Tweet], seed: u64) {
    for t in log.iter_mut() {
        let Some((_, phrases)) = NATIVE.iter().find(|(l, _)| **l == *t.lang) else {
            continue;
        };
        let h = mix(seed ^ t.id);
        let first = phrases[(h % phrases.len() as u64) as usize];
        let mut text = format!("{} {first}", t.text);
        if h & (1 << 20) != 0 {
            let second = phrases[((h >> 8) % phrases.len() as u64) as usize];
            text.push(' ');
            text.push_str(second);
        }
        t.text = text.into();
    }
}

/// SplitMix64 finaliser: a fixed, seedable hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Stream {
    /// A fresh streaming API over a copy of the log, on its own clock
    /// at stream time zero.
    pub fn api(&self) -> StreamingApi {
        StreamingApi::new(self.log.as_ref().clone(), VirtualClock::new())
    }

    /// Share of tweets whose text holds any non-ASCII char.
    pub fn non_ascii_share(&self) -> f64 {
        let n = self.log.iter().filter(|t| !t.text.is_ascii()).count();
        n as f64 / self.log.len().max(1) as f64
    }
}
