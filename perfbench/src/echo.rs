//! `edge_echo`: a 64-byte echo registration over TCP. With no model the
//! network edge and the admission/queue/completion path are the work.

use crate::report::Report;
use crate::wire::{BatchFn, Target, Wire, WireConfig};
use crate::{ms_since, Opts};
use serve::server::ScenarioSpec;
use std::time::Instant;

/// Payload size in bytes.
const PAYLOAD: usize = 64;

/// Runs `edge_echo`.
///
/// # Errors
///
/// Set-up, socket or `/proc` failures.
pub fn run(opts: &Opts, report: &mut Report, started: Instant) -> Result<(), String> {
    let t = Instant::now();
    let n = if opts.tiny { 64 } else { 1024 };
    // xorshift64* seeded by the run seed (never 0).
    let mut state = opts.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let payloads: Vec<Vec<u8>> = (0..n)
        .map(|_| {
            (0..PAYLOAD)
                .map(|_| {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
                })
                .collect()
        })
        .collect();
    let mut targets = vec![Target {
        model: "echo".to_string(),
        scenario: "wire".to_string(),
        expected: payloads.clone(),
        payloads,
    }];
    targets[0].corrupt(opts.corrupt);
    report.set("setup.expected_ms", ms_since(t));

    let t = Instant::now();
    let echo: BatchFn = Box::new(|xs: &[Vec<u8>]| xs.to_vec());
    let mut wire = Wire::start(
        WireConfig {
            window: 32,
            warmup: if opts.tiny { 256 } else { 20_000 },
        },
        vec![(ScenarioSpec::new("echo", "wire"), echo)],
    )?;
    report.set("setup.edge_start_ms", ms_since(t));
    let t = Instant::now();
    wire.warm_up(&targets, report)?;
    report.set("setup.warmup_ms", ms_since(t));
    report.set("setup_s", started.elapsed().as_secs_f64());
    if opts.probe {
        wire.shutdown();
        return Ok(());
    }

    wire.measure(&targets, opts.seconds, report)?;
    wire.shutdown();
    // Output quality of an echo: the share of responses equal to their
    // request, in percent.
    report.set(
        "quant_top1",
        100.0 * (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
    );
    Ok(())
}
