//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload adhoc|standing|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! It generates ~1M tweets from the obama-month scenario for `--seed`,
//! runs the workload in whole passes (as many as `--seconds` holds at
//! the workload's nominal pass length), checks every output against a
//! naive computation over the log, and prints one JSON line last:
//! `correct`, `attempted`, `failed` and the metrics — the end-to-end
//! ones with `--trace 0`, the per-layer ones with `--trace 1`. See
//! `e2ebench/README.md`.

mod adhoc;
mod churn;
mod layers;
mod queries;
mod replay;
mod session;
mod standing;
mod stats;
mod stream;
mod trace;

#[cfg(test)]
mod tests;

use stats::Metrics;
use stream::Scale;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds to measure.
    pub seconds: f64,
    /// The per-layer run.
    pub trace: bool,
    /// Stream size.
    pub scale: Scale,
}

impl Run {
    /// Whole passes to run: `--seconds` of work at `pass_s` nominal
    /// seconds per pass, at least one. The count depends on the
    /// arguments alone, so every run of a workload attempts the same
    /// operations.
    pub fn passes(&self, pass_s: f64) -> usize {
        ((self.seconds / pass_s).round() as usize).max(1)
    }
}

/// What a run measured and found.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics to print.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Check failures (and errors), empty when correct.
    pub errors: Vec<String>,
}

/// Stream generations per run; set-up time takes their median.
const GENERATIONS: usize = 2;

/// Quiet queries per workload at a scale.
fn quiet_counts(scale: Scale) -> (usize, usize) {
    if scale.rate >= Scale::FULL.rate {
        (standing::QUIET_QUERIES, 200)
    } else {
        (40, 20)
    }
}

/// Run one workload end to end.
pub fn execute(run: &Run) -> Result<Report, String> {
    // Set-up time is a median: generate the stream more than once.
    let mut gen_s: Vec<f64> = (1..GENERATIONS)
        .map(|_| stream::generate(run.scale, run.seed).generate_s)
        .collect();
    let mut stream = stream::generate(run.scale, run.seed);
    gen_s.push(stream.generate_s);
    stream.generate_s = stats::median(&gen_s);
    let stream_rss_mb = stats::rss_mb();
    let (standing_quiet, churn_quiet) = quiet_counts(run.scale);
    let report = match run.workload.as_str() {
        "adhoc" => adhoc::run(run, &stream),
        "standing" => standing::run(run, &stream, standing_quiet),
        "churn" => churn::run(run, &stream, churn_quiet),
        other => {
            return Err(format!(
                "unknown workload {other:?}; have adhoc, standing, churn"
            ))
        }
    };
    eprintln!(
        "{}: {} tweets, {:.1}% non-ASCII, generated in {:.2} s; {:.0} MiB resident with the stream alone",
        run.workload,
        stream.log.len(),
        100.0 * stream.non_ascii_share(),
        stream.generate_s,
        stream_rss_mb
    );
    Ok(report)
}

/// Where runs leave their files: the build directory of the checkout,
/// or the package's own `target` when `CARGO_TARGET_DIR` is unset.
pub fn out_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into())
        .join("e2ebench")
}

/// Write a traced run's spans out at its end.
pub fn write_spans(run: &Run, rec: &trace::Recorder, report: &mut Report) {
    let path = out_dir().join(format!("spans-{}-{}.jsonl", run.workload, run.seed));
    if let Err(e) = rec.write_jsonl(&path) {
        report
            .errors
            .push(format!("writing {}: {e}", path.display()));
    }
}

fn parse_args() -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::FULL,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?,
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => run.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if run.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(run)
}

/// Pin the process to the lowest CPU it may run on, before any thread
/// starts (threads inherit the mask). A closed-loop client and its
/// server never have two threads runnable at once, so one CPU serializes
/// nothing; it removes cross-CPU wake-ups, which on a shared VM made
/// `churn`'s tail latency swing by half between runs.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // cpu_set_t layout the call fills; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..size * 8)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("empty CPU mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable cpu_set_t of `size` bytes naming one CPU
    // the thread is already allowed on; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is implemented for Linux only".into())
}

fn main() {
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("e2ebench: running unpinned: {e}");
    }
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match execute(&run) {
        Ok(report) => {
            for e in report.errors.iter().take(20) {
                eprintln!("check failed: {e}");
            }
            println!(
                "{}",
                report.metrics.result_line(
                    report.errors.is_empty(),
                    report.attempted.max(1),
                    report.failed
                )
            );
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}
