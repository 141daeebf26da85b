//! xqpbench — one served benchmark for xqp.
//!
//! ```text
//! cargo run --release --manifest-path xqpbench/Cargo.toml -- \
//!     --workload lookup|analytics|update|paged|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--trace 0` serves the generated
//! document through `xqp_serve::Server` on loopback, drives the closed
//! loop for `--seconds`, checks every answer and prints the end-to-end
//! metrics. `--trace 1` runs the traced pass instead and prints the
//! per-layer ledger. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. See
//! README.md in this directory for the workloads and metrics.

mod ledger;
mod served;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ledger::Metric;
use served::{run_loop, setup, Prepared, Stop, FLUSH_POLICY};
use stats::{geomean_of_medians, mid, percentile};
use workload::{Kind, Workload, COMPACTION_THRESHOLD, DOC, SCALE};

/// `setup_s` is the middle of this many set-up samples.
const SETUP_SAMPLES: usize = 9;
/// Each sample is the mean of consecutive set-ups taking together at
/// least this long. The host alternates between fast phases and phases
/// about 40% slower, a few hundred milliseconds to seconds each. One 8 ms
/// set-up lands in one phase or the other, so on `update` the middle of
/// single set-ups jumped between the two modes (spread 0.26 over ten
/// seeds); a batch spans several phases.
const SETUP_SAMPLE: Duration = Duration::from_millis(120);

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kinds, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" if value == "all" => kinds = Some(Kind::ALL.to_vec()),
            "--workload" => {
                let k = Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                kinds = Some(vec![k]);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kinds: kinds.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25),
        trace,
    })
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Reported in the JSON line (the metrics BENCHMARK.json names).
    metrics: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xqpbench: {e}");
            std::process::exit(2);
        }
    };
    for &kind in &args.kinds {
        let work =
            PathBuf::from(".bench_work").join(format!("{}-{}", kind.name(), std::process::id()));
        let result = run(kind, &args, &work);
        let _ = std::fs::remove_dir_all(&work);
        // Leaves the parent in place while another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
        match result {
            Ok(out) => println!("{}", json_line(&out)),
            Err(e) => {
                eprintln!("xqpbench {}: {e}", kind.name());
                std::process::exit(1);
            }
        }
    }
}

fn run(kind: Kind, args: &Args, work: &Path) -> Result<Outcome, String> {
    let tmp = work.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    // Any spill the engine makes stays inside the checkout.
    std::env::set_var("TMPDIR", std::fs::canonicalize(&tmp).map_err(|e| e.to_string())?);
    let t = Instant::now();
    let wl = Workload::generate(kind, args.seed);
    let prep = served::prepare(wl, work)?;
    eprintln!("# prepared in {:.2} s", t.elapsed().as_secs_f64());
    print_meta(&prep, args);
    if args.trace {
        traced(&prep)
    } else {
        end_to_end(&prep, Duration::from_secs(args.seconds))
    }
}

fn end_to_end(prep: &Prepared, window: Duration) -> Result<Outcome, String> {
    reset_peak_rss()?;
    let mut setups = Vec::new();
    let mut n_setups = 0;
    let mut server = None;
    for _ in 0..SETUP_SAMPLES {
        let (mut busy, mut k) = (Duration::ZERO, 0u32);
        while busy < SETUP_SAMPLE {
            if let Some(s) = server.take() {
                xqp_serve::Server::shutdown(s);
            }
            let t = Instant::now();
            server = Some(setup(prep)?);
            busy += t.elapsed();
            k += 1;
        }
        setups.push(busy.as_secs_f64() / f64::from(k));
        n_setups += k;
    }
    let server = server.expect("at least one set-up");
    let db = server.database();
    let err = |e: xqp::Error| e.to_string();
    let gen0 = db.generation(DOC).map_err(err)?;
    let update = prep.wl.kind == Kind::Update;
    let doc0 = if update { Some(db.serialize(DOC).map_err(err)?) } else { None };

    let log = run_loop(&server, prep, Stop::After(window), false);

    let mut correct = log.failed == 0;
    if let Some(doc0) = doc0 {
        let moved = db.generation(DOC).map_err(err)? - gen0;
        if moved != 2 * log.rounds {
            correct = false;
            eprintln!("generation advanced {moved} for {} writer rounds", log.rounds);
        }
        if db.serialize(DOC).map_err(err)? != doc0 {
            correct = false;
            eprintln!("document after the run differs from the pre-run document");
        }
    }
    let counters = server.stats_pairs();
    drop(db);
    server.shutdown();
    for e in &log.errors {
        eprintln!("failed: {e}");
    }

    let secs = log.elapsed.as_secs_f64();
    let reads: Vec<f64> = log.read_ms.iter().flatten().copied().collect();
    let n = reads.len();
    let templates = prep.wl.templates.len();
    for (name, ms) in prep.wl.templates.iter().zip(&log.read_ms) {
        let p50 = percentile(ms, 0.5).map_or("refused".to_string(), |v| format!("{v:.3} ms"));
        println!("# template {name}: {} reads, p50 {p50}", ms.len());
    }
    let metrics = vec![
        Metric { name: "setup_s", value: mid(&setups), unit: "s" },
        Metric { name: "qps", value: n as f64 / secs, unit: "1/s" },
    ];
    for m in &metrics {
        let samples = match m.name {
            "setup_s" => format!("{SETUP_SAMPLES} samples of {n_setups} set-ups"),
            _ => format!("{n} reads over {secs:.2} s"),
        };
        println!("metric {} = {} {} (n = {samples})", m.name, m.value, m.unit);
    }
    // The rest are printed but not in the result line, whose metrics must
    // stay within their bound over ten seeds. The host has slow periods
    // of minutes. A tail grows more than the mean in them: over ten seeds
    // p99_ms spread up to 0.27 on analytics and 0.19 on lookup, where qps
    // stayed within 0.10. Medians land in the fast or the slow mode, and
    // geomean_ms spread up to 31% (p50_ms, on mixed templates, also falls
    // between templates). Peak memory spread 25-32% on analytics, from
    // allocator arenas.
    let ms = |v: Option<f64>| v.map_or("refused (thin sample)".to_string(), |v| format!("{v} ms"));
    let p99 = ms(percentile(&reads, 0.99));
    println!("metric p99_ms = {p99} (n = {n} reads over {secs:.2} s)");
    let geomean = ms(geomean_of_medians(&log.read_ms));
    println!("metric geomean_ms = {geomean} (n = {n} reads over {templates} templates)");
    let p50 = ms(percentile(&reads, 0.5));
    println!("metric p50_ms = {p50} (n = {n} reads over {secs:.2} s)");
    println!("metric peak_rss_mb = {} MiB (n = VmHWM since set-up)", peak_rss_mib()?);
    if update {
        let w = &log.write_ms;
        let show = |q: f64| ms(percentile(w, q));
        println!("metric write_p50_ms = {} (n = {} writes)", show(0.5), w.len());
        println!("metric write_p99_ms = {} (n = {} writes)", show(0.99), w.len());
        println!(
            "metric writes_per_s = {} 1/s (n = {} writes in {} rounds over {secs:.2} s)",
            w.len() as f64 / secs,
            w.len(),
            log.rounds
        );
    }
    println!(
        "metric failed_frac = {} (n = {} failed of {} attempted)",
        log.failed as f64 / log.attempted.max(1) as f64,
        log.failed,
        log.attempted
    );
    let pairs: Vec<String> = counters
        .iter()
        .filter(|(k, _)| {
            ["requests", "queued_total", "queue_shed", "overload_rejections"].contains(&k.as_str())
        })
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# server counters: {}", pairs.join(" "));
    Ok(Outcome { correct, attempted: log.attempted, failed: log.failed, metrics })
}

fn traced(prep: &Prepared) -> Result<Outcome, String> {
    let l = ledger::run(prep)?;
    println!("# {}", ledger::samples());
    for m in &l.metrics {
        println!("layer {} = {} {}", m.name, m.value, m.unit);
    }
    for note in &l.notes {
        println!("# {note}");
    }
    Ok(Outcome {
        correct: l.failed == 0,
        attempted: l.attempted,
        failed: l.failed,
        metrics: l.metrics,
    })
}

/// Reset VmHWM to the current resident size (Linux `clear_refs` value 5),
/// so the peak counts from set-up on, not from preparation.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// VmHWM of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Run metadata, printed before the metrics.
fn print_meta(prep: &Prepared, args: &Args) {
    let kind = prep.wl.kind;
    let clients = kind.read_sessions() + usize::from(kind == Kind::Update);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# run {{\"workload\": \"{}\", \"trace\": {}, \"commit\": \"{}\", \
         \"host_cores\": {cores}, \"xmark_scale\": {SCALE}, \"nodes\": {}, \"doc_bytes\": {}, \
         \"seed\": {}, \"seconds\": {}, \"pool_pages\": {}, \"doc_pages\": {}, \
         \"compaction_threshold\": {COMPACTION_THRESHOLD}, \"flush_policy\": \"{FLUSH_POLICY}\", \
         \"clients\": {clients}, \"loop\": \"closed\"}}",
        kind.name(),
        args.trace,
        commit(),
        prep.node_count,
        prep.wl.xml.len(),
        args.seed,
        args.seconds,
        prep.pool_pages,
        prep.doc_pages,
    );
}

/// The git commit of the checkout, or "none" when the working directory
/// is not the root of a git repository.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, finite(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; a non-finite value prints as null.
fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
