//! End-to-end and per-layer benchmark of the LP serving stack.
//!
//! ```text
//! perfbench --workload <vit_wire|cnn_wire|lpq_search|edge_echo> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny] [--corrupt <n>]
//! perfbench --emit-benchmark-json
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the same
//! workload with `serve::trace` on, then replays each layer and prints the
//! per-layer metrics. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--tiny` shrinks inputs,
//! warm-up and repetitions for the benchmark's own test; `--corrupt <n>`
//! flips a bit in `n` expected outputs so the output check must fail.
//! `setup_s` is the median over this run and four fresh processes that
//! only set up (`--setup-probe`), because process-wide caches (decode
//! tables) make a second set-up in one process cheaper than a real one.

#![forbid(unsafe_code)]

mod echo;
mod host;
mod lpq_search;
mod replay;
mod report;
mod served;
mod wire;

use report::{Report, Workload};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Options of one run.
pub struct Opts {
    /// The workload to run.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Run the traced variant and print per-layer metrics.
    pub traced: bool,
    /// Small inputs and few repetitions (the benchmark's own test).
    pub tiny: bool,
    /// Expected outputs to corrupt.
    pub corrupt: usize,
    /// Stop after set-up and print only `setup_s`.
    pub probe: bool,
}

/// Fresh processes whose set-up time joins this run's in the `setup_s`
/// median.
const SETUP_PROBES: usize = 4;

const USAGE: &str = "usage: perfbench --workload <vit_wire|cnn_wire|lpq_search|edge_echo> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt <n>] \
                     | --emit-benchmark-json";

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn parse(args: &[String]) -> Result<Option<Opts>, String> {
    if args == ["--emit-benchmark-json"] {
        return Ok(None);
    }
    let mut opts = Opts {
        workload: Workload::EdgeEcho,
        seed: 0,
        seconds: report::RUN_SECONDS as f64,
        traced: false,
        tiny: false,
        corrupt: 0,
        probe: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--corrupt" => {
                opts.corrupt = value()?.parse().map_err(|e| format!("--corrupt: {e}"))?
            }
            "--tiny" => opts.tiny = true,
            "--setup-probe" => opts.probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{}", report::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts, started) {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Opts, started: Instant) -> Result<Option<String>, String> {
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}{}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        if opts.tiny { " (tiny)" } else { "" }
    );
    let mut report = Report::new(opts.workload, opts.traced);
    let mut spans = replay::Spans::new();
    match opts.workload {
        Workload::VitWire | Workload::CnnWire => {
            served::run(opts, &mut report, started, &mut spans)
        }
        Workload::LpqSearch => lpq_search::run(opts, &mut report, started, &mut spans),
        Workload::EdgeEcho => echo::run(opts, &mut report, started),
    }?;
    let own_setup = report
        .get("setup_s")
        .ok_or("set-up time was not recorded")?;
    if opts.probe {
        for d in report::PER_LAYER {
            if let Some(v) = report.get(d.name).filter(|_| d.name.starts_with("setup.")) {
                println!("  {} {v:.3} {}", d.name, d.unit);
            }
        }
        println!("setup_s {own_setup}");
        return Ok(None);
    }
    report.set("peak_rss_mb", host::peak_rss_mb()?);
    if opts.traced {
        spans.print_summary();
    } else if !opts.tiny {
        let mut samples = vec![own_setup];
        for _ in 0..SETUP_PROBES {
            samples.push(probe_setup(opts)?);
        }
        println!("  setup_s samples (this run, then fresh processes): {samples:?}");
        report.set("setup_s", wire::median(&mut samples));
    }
    report.finish().map(Some)
}

/// Runs the set-up of `opts.workload` in a fresh process and returns its
/// `setup_s`.
fn probe_setup(opts: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            opts.workload.name(),
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            "0",
            "--setup-probe",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "set-up probe printed no setup_s".to_string())
}
