//! The repository benchmark. Runs one named workload through the crates'
//! public APIs and prints, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_overload --seed 0 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times untraced runs and reports the end-to-end metrics;
//! `--trace 1` runs the per-layer probes and reports the per-layer metrics.
//! See `perfbench/README.md` for every metric, unit and prediction.

mod pins;
mod probe;
mod stats;
mod workload;

use stats::{cpu_steal, median, peak_rss_mib, quartiles, result_json, Metric};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workload::{Inputs, Report, Workload};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Tally of attempted and failed runs.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one attempt; a failure is printed with its reason.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            println!("# FAILED {what}: {reason}");
        }
    }
}

/// Runs the timed call once under `catch_unwind`, checks its output and
/// records the attempt as `what` in `tally`. The check is the workload's
/// own, equality of the report digest with the first run of this process,
/// and, on the pinned seed, with the pinned digest. Returns the call's time
/// and output unless it panicked: a run that fails the check still ran, and
/// is timed, but makes the result incorrect.
#[allow(clippy::too_many_arguments)]
pub fn checked_run<R>(
    wl: Workload,
    seed: u64,
    inputs: &Inputs,
    first_digest: &mut Option<u64>,
    tally: &mut Tally,
    what: &str,
    call: impl FnOnce(&Inputs) -> R,
    report_of: impl Fn(&R) -> &Report,
) -> Option<(Duration, R)> {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| call(inputs)));
    let elapsed = start.elapsed();
    let Ok(out) = out else {
        tally.record(what, Err("the run panicked".into()));
        return None;
    };
    let report = report_of(&out);
    let verdict = report.check(inputs.requests()).and_then(|()| {
        let digest = report.digest();
        let expected = *first_digest.get_or_insert(digest);
        if digest != expected {
            return Err(format!(
                "report digest {digest:016x} differs from the first run's {expected:016x}"
            ));
        }
        pins::check_digest(wl, seed, digest)
    });
    tally.record(what, verdict);
    Some((elapsed, out))
}

/// Prints a timing line: median, quartiles and sample count.
pub fn print_timing(name: &str, unit: &str, samples: &[f64]) {
    let (q1, q3) = quartiles(samples);
    println!(
        "# {name:<14} median {:>14.6} {unit:<4}  q1 {q1:.6}  q3 {q3:.6}  n {}",
        median(samples),
        samples.len()
    );
    let all: Vec<String> = samples.iter().map(|x| format!("{x:.6}")).collect();
    println!("#   samples {}", all.join(" "));
}

/// Builds the inputs at least three times, and more while under a second
/// has gone by (up to 250), returning the last build and the set-up seconds
/// of each. The median of many repeats keeps a millisecond set-up steady.
pub fn timed_setups(wl: Workload, seed: u64) -> (Inputs, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut inputs = None;
    while times.len() < 3 || (times.iter().sum::<f64>() < 1.0 && times.len() < 250) {
        // Drop the previous build first so peak memory holds one copy.
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(wl.setup(seed));
        times.push(start.elapsed().as_secs_f64());
    }
    (inputs.expect("at least one set-up"), times)
}

/// One checked, untimed run before the timed ones, so allocator growth and
/// cold caches are not charged to the first sample.
pub fn warm_up(
    wl: Workload,
    seed: u64,
    inputs: &Inputs,
    first: &mut Option<u64>,
    tally: &mut Tally,
) {
    checked_run(
        wl,
        seed,
        inputs,
        first,
        tally,
        "warm-up run",
        Inputs::run,
        |r| r,
    );
}

/// The untraced measurement: the end-to-end metrics.
fn end_to_end(args: &Args) -> (bool, Tally, Vec<Metric>) {
    let wl = args.workload;
    let (inputs, setup_times) = timed_setups(wl, args.seed);
    let mut tally = Tally::default();
    let mut rates = Vec::new();
    let mut first_digest = None;
    warm_up(wl, args.seed, &inputs, &mut first_digest, &mut tally);
    let window = Duration::from_secs(args.seconds);
    let steal_before = cpu_steal();
    let start = Instant::now();
    // At least three timed runs, so the median is not a single sample.
    while start.elapsed() < window || tally.attempted < 4 {
        if let Some((elapsed, report)) = checked_run(
            wl,
            args.seed,
            &inputs,
            &mut first_digest,
            &mut tally,
            "run",
            Inputs::run,
            |r| r,
        ) {
            rates.push(report.work() / elapsed.as_secs_f64());
        }
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, cpu_steal()) {
        // Time the hypervisor gave this machine's CPUs to other guests:
        // a window with a high share was measured on a contended host.
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "# host steal     {:.2}% of CPU time during the timed runs",
            100.0 * share
        );
    }
    print_timing("setup_s", "s", &setup_times);
    if rates.is_empty() {
        println!("# every run panicked; no rate to report");
        return (false, tally, Vec::new());
    }
    print_timing("work_per_s", "1/s", &rates);
    if let Some(d) = first_digest {
        println!("# report digest {d:016x}");
    }
    let rss = peak_rss_mib().unwrap_or_else(|e| {
        println!("# {e}");
        f64::NAN
    });
    let ok_frac = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    println!(
        "# failed_frac    {:.6} ({} failed of {} attempted)",
        1.0 - ok_frac,
        tally.failed,
        tally.attempted
    );
    println!("# peak_rss_mib   {rss:.3}");
    let metrics = vec![
        Metric {
            name: "work_per_s",
            value: median(&rates),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: median(&setup_times),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mib",
            value: rss,
            unit: "MiB",
        },
        Metric {
            name: "ok_frac",
            value: ok_frac,
            unit: "ratio",
        },
    ];
    let correct = tally.failed == 0 && rss.is_finite();
    (correct, tally, metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    // Every run uses one worker per core, whatever SOFA_THREADS says.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench {} seed {} seconds {} trace {} threads {threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "# workload {}: {}",
        args.workload.name(),
        args.workload.size()
    );
    println!("# work item: {}", args.workload.work_item());
    let (correct, tally, metrics) = sofa_par::with_threads(threads, || {
        if args.trace {
            probe::traced(args.workload, args.seed, args.seconds)
        } else {
            end_to_end(&args)
        }
    });
    if metrics.is_empty() || metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("perfbench: no valid measurement");
        std::process::exit(1);
    }
    println!(
        "{}",
        result_json(correct, tally.attempted, tally.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics the benchmark prints are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn printed_metrics_match_the_declaration() {
        let decl = include_str!("../../BENCHMARK.json");
        let unit_of = |name: &str| {
            let at = decl
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} is not declared"));
            let rest = &decl[at..];
            let u = rest.find("\"unit\": \"").expect("a unit follows") + 9;
            rest[u..u + rest[u..].find('"').expect("closing quote")].to_string()
        };
        for (name, unit) in probe::PER_LAYER {
            assert_eq!(unit_of(name), unit, "{name}");
        }
        for (name, unit) in [
            ("work_per_s", "1/s"),
            ("setup_s", "s"),
            ("peak_rss_mib", "MiB"),
            ("ok_frac", "ratio"),
        ] {
            assert_eq!(unit_of(name), unit, "{name}");
        }
        assert_eq!(
            decl.matches("\"better\"").count(),
            probe::PER_LAYER.len() + 4
        );
    }
}
