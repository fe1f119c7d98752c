//! End-to-end benchmark of the jessy simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sor_migrate|water|sessions --seed N --seconds S --trace 0|1
//! ```
//!
//! A run is a closed batch job: one input of the workload is built into a
//! fresh cluster, set up, run once with `Cluster::run`, reported and checked.
//! `--seed` generates [`INPUTS`] inputs, and runs cycle through them until
//! `--seconds` have passed; every input runs at least twice, and each of its
//! runs must give the same report digest. One process runs one workload, and
//! its peak RSS is read after its first run, so `peak_rss_mb` is that of a
//! process that ran the workload once.
//!
//! `--trace 0` prints the end-to-end metrics: host times are medians over the
//! timed runs, simulated ones medians over the inputs. `--trace 1` does the
//! same runs, then one traced run, and prints the per-layer metrics (see
//! `trace.rs`).
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod host;
mod trace;
mod workload;

use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use jessy_runtime::RunReport;

use workload::{digest, Config, Expected, Kind, Prepared};

/// Inputs generated from one `--seed`. Water's wall time moves by up to 15%
/// between inputs (its molecule density varies), so one invocation measures
/// several, and the spread between seeds narrows.
const INPUTS: u64 = 3;
/// Runs done, checked and counted before the timed runs, untimed: the first
/// run of a process pays for thread stacks and heap growth that later runs
/// reuse.
const WARMUP_RUNS: usize = 1;
/// Fewest runs per invocation, whatever `--seconds` says: every input runs
/// twice, so its digest is compared.
const MIN_RUNS: usize = 2 * INPUTS as usize;
/// Fewest set-ups whose median gives `setup_s`; set-ups beyond the timed runs'
/// own are done and dropped without running.
const MIN_SETUPS: usize = 7;
/// Bytes in the MB of every `*_mb` metric.
const MB: f64 = (1u64 << 20) as f64;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value} is not a positive time"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Per-task span of one traced run: the task's `thread_body` call, timed on
/// its own carrier thread, so time parked waiting for the token is wall but
/// not CPU.
pub struct TaskSpan {
    pub task: usize,
    pub start: Instant,
    pub end: Instant,
    pub cpu: host::Usage,
}

/// What one run produced. Times are host seconds.
pub struct Outcome {
    pub build_s: f64,
    pub init_s: f64,
    pub wall_s: f64,
    pub report_s: f64,
    pub objects: usize,
    pub report: RunReport,
    pub digest: u64,
    /// Process resource usage accrued during `Cluster::run`.
    pub run_usage: host::Usage,
    /// The process's peak resident set once the run was reported (before the
    /// output check, whose reference computations are not the program's).
    pub peak_rss_kib: u64,
    pub run_start: Instant,
    /// Empty unless the run was traced.
    pub tasks: Vec<TaskSpan>,
}

/// One run: set up, run, report, check. With `traced`, each task's
/// `thread_body` is wrapped in a span; nothing else differs.
fn run_once(input: &Input, traced: bool) -> Result<Outcome, String> {
    let config = &input.config;
    let Prepared {
        mut cluster,
        handles,
        build_s,
        init_s,
    } = Prepared::new(config);
    let objects = cluster.shared().gos.n_objects();
    let body = config.body(&handles);
    let spans: Arc<Mutex<Vec<TaskSpan>>> = Arc::default();
    let sink = Arc::clone(&spans);

    let usage0 = host::process();
    let run_start = Instant::now();
    let ran = if traced {
        cluster.try_run(move |jt| {
            let task = jt.thread_id().index();
            let (start, cpu0) = (Instant::now(), host::thread());
            body(jt);
            let cpu = host::thread().since(&cpu0);
            let span = TaskSpan {
                task,
                start,
                end: Instant::now(),
                cpu,
            };
            sink.lock().expect("a span writer panicked").push(span);
        })
    } else {
        cluster.try_run(move |jt| body(jt))
    };
    let wall_s = run_start.elapsed().as_secs_f64();
    let run_usage = host::process().since(&usage0);
    ran.map_err(|e| format!("run failed: {e}"))?;

    let t = Instant::now();
    let report = cluster.report();
    let report_s = t.elapsed().as_secs_f64();
    let peak_rss_kib = host::peak_rss_kib()?;
    let expected = input.expected.get_or_init(|| config.expected());
    config.check(&cluster, &handles, expected)?;
    let mut tasks = std::mem::take(&mut *spans.lock().expect("a span writer panicked"));
    tasks.sort_by_key(|s| s.task);
    Ok(Outcome {
        build_s,
        init_s,
        wall_s,
        report_s,
        objects,
        digest: digest(&report),
        report,
        run_usage,
        peak_rss_kib,
        run_start,
        tasks,
    })
}

/// [`run_once`], with a panic anywhere in it counted as a failed run.
fn attempt(input: &Input, traced: bool) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| run_once(input, traced))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// One input of the workload, and its expected outputs, computed at its
/// first check (after the first run has set the process's peak RSS).
pub struct Input {
    pub config: Config,
    expected: OnceCell<Expected>,
}

/// The untraced runs of one invocation.
struct Runs {
    /// Per input, its first passing run, kept whole: later runs of the input
    /// must match its digest.
    firsts: Vec<Option<Outcome>>,
    /// Peak RSS after the process's first passing run.
    peak_rss_kib: Option<u64>,
    /// Per timed run: its input, `Cluster::run` wall seconds, accesses per
    /// second.
    timed: Vec<(usize, f64, f64)>,
    setups_s: Vec<f64>,
    attempted: usize,
    failed: usize,
}

fn timed_runs(inputs: &[Input], budget: Duration) -> Runs {
    let mut runs = Runs {
        firsts: inputs.iter().map(|_| None).collect(),
        peak_rss_kib: None,
        timed: Vec::new(),
        setups_s: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut timed_start = Instant::now();
    while runs.attempted < MIN_RUNS || timed_start.elapsed() < budget {
        let i = runs.attempted % inputs.len();
        runs.attempted += 1;
        let out = attempt(&inputs[i], false).and_then(|out| match &runs.firsts[i] {
            Some(first) if first.digest != out.digest => Err(format!(
                "digest {:016x} differs from input {i}'s first run's {:016x}",
                out.digest, first.digest
            )),
            _ => Ok(out),
        });
        match out {
            Ok(out) => {
                if runs.attempted > WARMUP_RUNS {
                    let rate = out.report.proto.accesses as f64 / out.wall_s;
                    runs.timed.push((i, out.wall_s, rate));
                    runs.setups_s.push(out.build_s + out.init_s);
                }
                runs.peak_rss_kib.get_or_insert(out.peak_rss_kib);
                runs.firsts[i].get_or_insert(out);
            }
            Err(e) => {
                runs.failed += 1;
                eprintln!("run {} (input {i}): {e}", runs.attempted);
            }
        }
        if runs.attempted == WARMUP_RUNS {
            timed_start = Instant::now();
        }
    }
    while runs.setups_s.len() < MIN_SETUPS {
        runs.setups_s
            .push(Prepared::new(&inputs[0].config).setup_s());
    }
    runs
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A named metric with its unit, in output order.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// A host metric sampled once per run: its median is reported, its range and
/// sample count printed.
fn sampled(name: &'static str, unit: &'static str, xs: &[f64]) -> Metric {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let value = median(xs);
    println!(
        "  {name:<16} {value:>12.6} {unit:<4} median of n={}, range {lo:.6} .. {hi:.6}",
        xs.len()
    );
    Metric::new(name, unit, value)
}

fn end_to_end(runs: &Runs, peak_rss_kib: u64) -> Vec<Metric> {
    let walls: Vec<f64> = runs.timed.iter().map(|t| t.1).collect();
    let rates: Vec<f64> = runs.timed.iter().map(|t| t.2).collect();
    let reports: Vec<&RunReport> = runs.firsts.iter().flatten().map(|o| &o.report).collect();
    let sim_ms: Vec<f64> = reports.iter().map(|r| r.sim_exec_ms()).collect();
    let fabric: Vec<f64> = reports
        .iter()
        .map(|r| r.net.total_bytes() as f64 / MB)
        .collect();
    println!("end-to-end (host clock; the last two simulated, one sample per input):");
    let peak_rss_mb = peak_rss_kib as f64 * 1024.0 / MB;
    println!(
        "  {:<16} {peak_rss_mb:>12.6} MB   after the first run",
        "peak_rss_mb"
    );
    vec![
        sampled("wall_s", "s", &walls),
        sampled("accesses_per_s", "1/s", &rates),
        sampled("setup_s", "s", &runs.setups_s),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb),
        sampled("sim_makespan_ms", "ms", &sim_ms),
        sampled("fabric_mb", "MB", &fabric),
    ]
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a value also makes the result
            // incorrect.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sor_migrate|water|sessions --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // The executor runs one task at a time, so a run needs one CPU. Left
    // free, the OS wakes each task's carrier on whichever CPU is idle, and
    // every token pass waits for a cross-CPU wake-up. On a 2-vCPU virtual
    // machine that made runs 40-50% longer, and under host CPU steal an
    // invocation took up to 3x as long as the one before. Pinned, a pass is
    // a same-CPU context switch.
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let inputs: Vec<Input> = (0..INPUTS)
        .map(|i| Input {
            config: Config::new(args.kind, args.seed.wrapping_mul(INPUTS).wrapping_add(i)),
            expected: OnceCell::new(),
        })
        .collect();
    println!(
        "workload {} seed {}, pinned to CPU {cpu}",
        args.kind.name(),
        args.seed
    );
    for (i, input) in inputs.iter().enumerate() {
        println!("  input {i}: {:?}", input.config);
    }

    let runs = timed_runs(&inputs, Duration::from_secs_f64(args.seconds));
    let (Some(first), Some(peak_rss_kib)) = (&runs.firsts[0], runs.peak_rss_kib) else {
        eprintln!("perfbench: input 0 never passed");
        std::process::exit(1);
    };
    if runs.timed.is_empty() {
        eprintln!("perfbench: no timed run passed");
        std::process::exit(1);
    }
    println!(
        "{} runs attempted ({WARMUP_RUNS} untimed warm-up), {} failed",
        runs.attempted, runs.failed
    );
    for (i, out) in runs.firsts.iter().enumerate() {
        if let Some(out) = out {
            println!(
                "  input {i}: digest {:016x} on every passing run",
                out.digest
            );
        }
    }
    let e2e = end_to_end(&runs, peak_rss_kib);

    let (metrics, attempted, failed) = if args.trace {
        let walls: Vec<f64> = runs
            .timed
            .iter()
            .filter(|t| t.0 == 0)
            .map(|t| t.1)
            .collect();
        let untraced = if walls.is_empty() {
            f64::NAN
        } else {
            median(&walls)
        };
        match trace::traced(&inputs[0], first, untraced) {
            Ok(layers) => (layers, runs.attempted + 1, runs.failed),
            Err(e) => {
                eprintln!("traced run: {e}");
                (Vec::new(), runs.attempted + 1, runs.failed + 1)
            }
        }
    } else {
        (e2e, runs.attempted, runs.failed)
    };
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    print_result(correct, attempted, failed, &metrics);
}
