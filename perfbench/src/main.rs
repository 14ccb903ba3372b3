//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--server <rect-addr binary>]`
//!
//! `--trace 0` runs the workload end to end against the server binary and
//! prints the end-to-end metrics; `--trace 1` runs the traced per-layer
//! waterfall on the same inputs and prints the per-layer metrics. Either
//! way the last stdout line is the JSON result, and the exit code is
//! non-zero when any answer failed or failed validation.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use perfbench::e2e::{self, Limit, Target};
use perfbench::report::{result_line, Metric};
use perfbench::stats::median;
use perfbench::trace::Tracer;
use perfbench::validate::{tally, References, Tally};
use perfbench::waterfall;
use perfbench::workloads::{Inputs, Mix};

/// Segments per run, each on a freshly started server; `setup_s` is the
/// median of their start-ups.
const SEGMENTS: usize = 6;

struct Args {
    mix: Mix,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: Option<u64>| -> Result<u64, String> {
        match value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} needs a whole number, got {v:?}")),
            None => default.ok_or_else(|| format!("{flag} is required")),
        }
    };
    let name = value("--workload").ok_or("--workload is required")?;
    let mix = Mix::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(Args {
        mix,
        seed: number("--seed", None)?,
        seconds: number("--seconds", Some(18))?,
        trace: number("--trace", Some(0))? == 1,
        server: value("--server").map(PathBuf::from),
    })
}

/// Requests answered per second in the load phase: the median over five
/// or more 15–20 s runs of each mix (distinct seeds) on a shared 2-vCPU host
/// (`zipf-hit` on one CPU, see [`one_cpu`]), where the fastest run was at
/// most 1.35× this. The probe phase answers fewer. Sizes [`prefetch`] and
/// [`rss_after`].
fn rate(mix: Mix) -> f64 {
    match mix {
        Mix::ColdSat => 2_000.0,
        Mix::ZipfHit => 27_000.0,
        Mix::AdversarialCanon => 4_900.0,
        Mix::CircuitSchedule => 82.0,
    }
}

/// Whether `mix` runs confined to one CPU, the server included. A
/// `zipf-hit` job is ~12 µs of work; across two CPUs it crosses between
/// them four times, and waking an idle virtual CPU, whose cost swings with
/// the host's load, then set the figures: the throughput of ten runs spread
/// by 35% of its median between the quartiles. On one CPU the hand-offs
/// are plain context switches, and the figures the hit path's own cost.
fn one_cpu(mix: Mix) -> bool {
    mix == Mix::ZipfHit
}

/// Confines the calling thread, and every thread and process it starts
/// afterwards, to the last CPU it may run on.
fn pin_to_one_cpu() -> std::io::Result<()> {
    /// 64-bit words of the kernel's `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let last = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("no CPU in the affinity mask"))?;
    let mut one = [0u64; WORDS];
    one[last / 64] = 1 << (last % 64);
    // SAFETY: `one` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Requests generated before each segment: a quarter more than its timed
/// phases answer at [`rate`] (the slower probe phase leaves a further
/// margin), so that generation stays out of the timed loop on runs faster
/// than any seen (later requests are generated on demand).
fn prefetch(mix: Mix, seconds: u64) -> usize {
    (1.25 * rate(mix) * seconds as f64 / SEGMENTS as f64) as usize
}

/// Requests of a segment's last phase after which its server's peak RSS is
/// read: 0.5 s of work at [`rate`] (a third of a load phase of an 18 s run), the
/// same on every run of a mix.
fn rss_after(mix: Mix) -> usize {
    (0.5 * rate(mix)) as usize
}

/// Requests pushed through the waterfall.
fn waterfall_sample(mix: Mix) -> usize {
    match mix {
        Mix::CircuitSchedule => 100,
        _ => 1_200,
    }
}

/// Checks that the mix loads the layer it was chosen for; returns the
/// complaints.
fn load_sanity(mix: Mix, t: &Tally, races: u64) -> Vec<String> {
    let mut out = Vec::new();
    match mix {
        Mix::ColdSat if t.cache_hits > 0 => {
            out.push(format!(
                "cold-sat: {} cache hits, expected none",
                t.cache_hits
            ));
        }
        Mix::ZipfHit | Mix::AdversarialCanon if t.hit_rate() < 0.99 || races > 0 => {
            out.push(format!(
                "{}: timed hit rate {:.4} with {races} races, expected >= 0.99 and none",
                mix.name(),
                t.hit_rate()
            ));
        }
        Mix::CircuitSchedule if t.frames_without_hit > 0 => {
            out.push(format!(
                "circuit-schedule: {} frames without a cross-layer hit",
                t.frames_without_hit
            ));
        }
        _ => {}
    }
    out
}

fn end_to_end(args: &Args, server: PathBuf) -> Result<ExitCode, String> {
    // One connection per core of the machine, counted before the run is
    // confined to one CPU.
    let connections = std::thread::available_parallelism().map_or(1, usize::from);
    if one_cpu(args.mix) {
        pin_to_one_cpu().map_err(|e| format!("confining the run to one CPU: {e}"))?;
    }
    let inputs = Inputs::new(args.mix, args.seed);
    let cfg = e2e::Config {
        connections,
        window: e2e::WINDOW,
        segments: SEGMENTS,
        limit: Limit::Time(Duration::from_secs_f64(
            args.seconds as f64 / SEGMENTS as f64,
        )),
        rss_after: rss_after(args.mix),
        prefetch: prefetch(args.mix, args.seconds),
    };
    let out = e2e::run(&Target::Binary(server), &inputs, cfg)
        .map_err(|e| format!("end-to-end run: {e}"))?;
    let t = tally(&out.exchanges, &mut References::default());
    for p in &t.problems {
        eprintln!("perfbench: {p}");
    }
    for warning in load_sanity(args.mix, &t, out.races) {
        eprintln!("perfbench: load sanity: {warning}");
    }
    let answered = out.exchanges.iter().filter(|x| x.error.is_none()).count();
    eprintln!(
        "perfbench: {}: {} requests, {} layers in {:.3} s over {} phases; {} answered",
        args.mix.name(),
        t.attempted,
        t.layers,
        out.elapsed_s,
        out.phases.len(),
        answered
    );
    let metrics = [
        Metric::new("jobs_per_s", out.jobs_per_s(), "1/s"),
        Metric::new("latency_p50_us", out.latency_p50_us(), "us"),
        Metric::new("latency_p99_us", out.latency_p99_us(), "us"),
        Metric::new("success_frac", 1.0 - t.failed_frac(), "fraction"),
        Metric::new("mean_depth", t.mean_depth(), "rectangles"),
        Metric::new("proved_optimal_frac", t.proved_frac(), "fraction"),
        Metric::new("setup_s", median(&out.setup_s), "s"),
        Metric::new("peak_rss_mb", median(&out.peak_rss_mb), "MiB"),
    ];
    println!(
        "{}",
        result_line(t.failed == 0, t.attempted, t.failed, &metrics)
    );
    Ok(if t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn traced(args: &Args) -> Result<ExitCode, String> {
    let inputs = Inputs::new(args.mix, args.seed);
    let tracer = Arc::new(Tracer::default());
    let out = waterfall::run(
        &inputs,
        &waterfall::Config::shipped(waterfall_sample(args.mix)),
        &tracer,
    );
    let path =
        std::path::Path::new(perfbench::RUN_DIR).join(format!("spans-{}.jsonl", args.mix.name()));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {}: {} jobs through the waterfall, {} spans in {}",
        args.mix.name(),
        out.jobs,
        tracer.spans().len(),
        path.display()
    );
    for p in &out.problems {
        eprintln!("perfbench: {p}");
    }
    let race_frac = out.metric("engine.solve_job_race_frac");
    if args.mix == Mix::ColdSat && race_frac < 0.8 {
        eprintln!("perfbench: load sanity: cold-sat: race is {race_frac:.3} of solve_job, expected >= 0.8");
    }
    let failed = out.problems.len().min(out.jobs);
    println!(
        "{}",
        result_line(failed == 0, out.jobs, failed, &out.metrics)
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let server = || {
            args.server
                .clone()
                .ok_or_else(|| "--server is required".to_string())
        };
        if args.trace {
            traced(&args)
        } else {
            end_to_end(&args, server()?)
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
