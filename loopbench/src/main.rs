//! Closed-loop BTWC benchmark.
//!
//! ```text
//! loopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! loopbench --smoke
//! loopbench --workload <name> --seed <n> --setup-sample
//! ```
//!
//! Drives a workload's fleet through the whole closed loop (see
//! `fleet.rs`) for at least `--seconds` seconds and at least the
//! workload's simulated cycle count, gates the result against the
//! library's reference simulation, and prints a host stamp, a metric table,
//! and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates timing blocks between
//! an untraced and a traced fleet and reports the per-layer table.
//! `--smoke` runs every workload both ways at a tiny size and checks
//! the output. `--setup-sample` builds the fleet once and prints the
//! seconds it took; an untraced run starts itself that way for each
//! `setup_s` sample.

mod fleet;
mod gate;
mod host;
mod workload;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use fleet::{Checkpoint, Fleet, Samples};
use workload::Workload;

/// Fleet builds per run; `setup_s` is their median. Each is made in a
/// fresh process, as a user pays set-up, and they are spread over the
/// run: 51 builds in a row in one process spread 30-50% between runs on
/// a shared 2-core host, one per fresh process spaced out ≈5%.
const SETUP_REPS: usize = 51;
/// A run that has not reached its simulated cycle count by now gives up
/// rather than overrun its time limit.
const GIVE_UP: Duration = Duration::from_secs(150);
/// Samples per percentile window: a window's p99 has ten samples beyond it.
const WINDOW: usize = 1000;
/// Host-time figures are read at the slow end of a run: the block rate
/// and the window percentiles that this share of blocks or windows beat.
/// On a shared host the loop alternates between a slower, contended
/// speed and a faster one. Every run spends a share of its time at the
/// slower speed, and that speed repeats closely from run to run. A
/// median flips between the two when that share is near one half.
const SLOW_END: f64 = 0.9;
/// Cycle count of every workload in the smoke mode.
const SMOKE_CYCLES: u64 = 200;
/// Workers of the farm's pool in the untraced run, whose host times
/// carry bounds (`BTWC_WORKERS` overrides it). One: on a 2-core host a
/// 2-worker pool ran ~25% slower and spread 30-100% at p99 between runs,
/// because every farm cycle wakes parked workers. The traced run
/// dispatches on one worker per core, so the pool's threaded path is
/// timed there, and the gate checks each width against the other.
const UNTRACED_POOL_WIDTH: usize = 1;

/// End-to-end metrics (`--trace 0`) with their units.
const END_TO_END: [(&str, &str); 11] = [
    ("rounds_per_s", "qubit-rounds/s"),
    ("cycle_ns_p50", "ns"),
    ("cycle_ns_p99", "ns"),
    ("escalation_ns_p50", "ns"),
    ("escalation_ns_p99", "ns"),
    ("escalation_cycles_p99", "cycles"),
    ("onchip_coverage", "fraction"),
    ("stall_fraction", "fraction"),
    ("decoded_fraction", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`) with their units.
const PER_LAYER: [(&str, &str); 30] = [
    ("noise.ns_per_round", "ns"),
    ("noise.flips_per_round", "count"),
    ("core.ns_per_round", "ns"),
    ("core.escalations", "count"),
    ("core.frame_bytes", "bytes"),
    ("clique.ns_per_round", "ns"),
    ("clique.quiet", "count"),
    ("clique.trivial", "count"),
    ("clique.complex", "count"),
    ("bandwidth.frame_ns", "ns"),
    ("bandwidth.bytes_per_escalation", "bytes"),
    ("bandwidth.retransmits", "count"),
    ("bandwidth.degraded", "count"),
    ("bandwidth.peak_backlog", "count"),
    ("offchip.ns_per_round", "ns"),
    ("offchip.ns_per_job", "ns"),
    ("decode.ns_per_round", "ns"),
    ("decode.ns_p50", "ns"),
    ("decode.ns_p99", "ns"),
    ("decode.events_per_window", "count"),
    ("farm.admitted", "count"),
    ("farm.rejected_queue_full", "count"),
    ("farm.rejected_deadline", "count"),
    ("farm.batch_size_mean", "count"),
    ("farm.queue_depth_p99", "count"),
    ("commit.ns_per_round", "ns"),
    ("trace.cycle_ns_per_round", "ns"),
    ("trace.unattributed_ns_per_round", "ns"),
    ("trace.overhead", "fraction"),
    ("trace.layers_ns_per_round", "ns"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    setup_sample: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        setup_sample: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" || flag == "--setup-sample" {
            args.smoke |= flag == "--smoke";
            args.setup_sample |= flag == "--setup-sample";
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds < 0.0 {
        return Err(format!("--seconds {} out of range", args.seconds));
    }
    Ok(args)
}

/// Nearest-rank percentile of `samples` (NaN when empty).
fn percentile(samples: &[u64], pct: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let (_, nth, _) = sorted.select_nth_unstable(rank - 1);
    *nth as f64
}

/// Nearest-rank percentile of the non-NaN `values` (NaN when there are none).
fn quantile(values: &[f64], pct: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(f64::NAN)
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// One finished run: its metrics and operation counts.
struct Run {
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Escalations raised up to the simulated-metrics checkpoint.
    attempted: u64,
    /// Of those, escalations that ended `Degraded`, whatever the cause.
    failed: u64,
    pool_width: usize,
    cycles: u64,
    /// How many samples the host-time figures rest on.
    samples: String,
}

/// Runs `w.block_cycles` fleet cycles; returns qubit-rounds per second.
fn block(fleet: &mut Fleet, w: &Workload) -> f64 {
    let start = Instant::now();
    for _ in 0..w.block_cycles {
        fleet.cycle();
    }
    (w.block_cycles * w.qubits() as u64) as f64 / start.elapsed().as_secs_f64()
}

/// Host-time percentiles of an untraced run, taken per window of at
/// least [`WINDOW`] samples and reported at the [`SLOW_END`] of the
/// windows.
#[derive(Default)]
struct Windows {
    /// (p50, p99) of host ns per fleet cycle, per window.
    cycle: Vec<(f64, f64)>,
    /// (p50, p99) of host ns per escalation, per window.
    escalation: Vec<(f64, f64)>,
    cycle_samples: usize,
    escalation_samples: usize,
}

impl Windows {
    /// Closes a window over every sample kind that has collected enough;
    /// at the `end` of a run too short for a full window, over what there is.
    fn close(&mut self, samples: &mut Samples, end: bool) {
        for (raw, windows, total) in [
            (&mut samples.cycle_ns, &mut self.cycle, &mut self.cycle_samples),
            (&mut samples.escalation_ns, &mut self.escalation, &mut self.escalation_samples),
        ] {
            if raw.len() >= WINDOW || (end && windows.is_empty() && !raw.is_empty()) {
                windows.push((percentile(raw, 50.0), percentile(raw, 99.0)));
                *total += raw.len();
                raw.clear();
            }
        }
    }

    /// The p50 and the p99 that [`SLOW_END`] of the windows beat.
    fn slow_end(windows: &[(f64, f64)]) -> (f64, f64) {
        let (p50, p99): (Vec<f64>, Vec<f64>) = windows.iter().copied().unzip();
        (quantile(&p50, SLOW_END * 100.0), quantile(&p99, SLOW_END * 100.0))
    }
}

/// Whether a measurement loop that started at `start` should go on.
fn keep_going(fleet: &Fleet, w: &Workload, start: Instant, seconds: f64) -> Result<bool, String> {
    let elapsed = start.elapsed();
    if fleet.cycles >= w.sim_cycles {
        return Ok(elapsed.as_secs_f64() < seconds);
    }
    if elapsed > GIVE_UP {
        return Err(format!("only {} of {} cycles after {GIVE_UP:?}", fleet.cycles, w.sim_cycles));
    }
    Ok(true)
}

fn sim_checkpoint<'a>(fleet: &'a Fleet, w: &Workload) -> Result<&'a Checkpoint, String> {
    fleet.at(w.sim_cycles).ok_or_else(|| "missing simulated-metrics checkpoint".to_string())
}

/// The untraced run: end-to-end metrics.
fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Run, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut fleet = Fleet::build(w, seed, UNTRACED_POOL_WIDTH, false);
    let mut rates = Vec::new();
    let mut windows = Windows::default();
    let mut rss = None;
    let start = Instant::now();
    while keep_going(&fleet, w, start, seconds)? {
        rates.push(block(&mut fleet, w));
        windows.close(&mut fleet.samples, false);
        if setup.len() < SETUP_REPS
            && start.elapsed().as_secs_f64() >= setup.len() as f64 * seconds / SETUP_REPS as f64
        {
            setup.push(setup_sample(w, seed)?);
        }
        if rss.is_none() && fleet.cycles >= w.sim_cycles {
            rss = Some(host::peak_rss_mib());
        }
    }
    windows.close(&mut fleet.samples, true);
    while setup.len() < SETUP_REPS {
        setup.push(setup_sample(w, seed)?);
    }
    gate::reference(w, seed, &fleet)?;

    let cp = sim_checkpoint(&fleet, w)?;
    let d = cp.decisions;
    let (cycle_p50, cycle_p99) = Windows::slow_end(&windows.cycle);
    let (escalation_p50, escalation_p99) = Windows::slow_end(&windows.escalation);
    let mut total = btwc_core::MachineStats::default();
    for st in &cp.stats {
        total.cycles += st.cycles;
        total.stalls += st.stalls;
    }
    let values = [
        quantile(&rates, (1.0 - SLOW_END) * 100.0),
        cycle_p50,
        cycle_p99,
        escalation_p50,
        escalation_p99,
        fleet.samples.escalation_cycles.percentile(99.0),
        ratio(d.quiet + d.onchip, d.cycles),
        total.execution_time_increase(),
        ratio(cp.counts.decoded, cp.counts.escalations),
        quantile(&setup, 50.0),
        rss.unwrap_or(f64::NAN),
    ];
    Ok(Run {
        metrics: END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect(),
        attempted: cp.counts.escalations,
        failed: cp.counts.failed(),
        pool_width: fleet.pool_width,
        cycles: fleet.cycles,
        samples: format!(
            "{} blocks; {} cycles in {} windows; {} escalations in {} windows",
            rates.len(),
            windows.cycle_samples,
            windows.cycle.len(),
            windows.escalation_samples,
            windows.escalation.len(),
        ),
    })
}

/// Seconds to build `w`'s fleet for `seed` in a fresh process: this
/// program started with `--setup-sample`.
fn setup_sample(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string(), "--setup-sample"])
        .output()
        .map_err(|e| format!("start a set-up sample: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(seconds) if out.status.success() => Ok(seconds),
        _ => Err(format!(
            "set-up sample failed ({}): {text}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// The traced run: per-layer metrics. Timing blocks alternate between
/// an untraced and a traced fleet on the same seed, so `trace.overhead`
/// compares the two under the same host conditions. Both dispatch farm
/// work on one pool worker per core.
fn per_layer(w: &Workload, seed: u64, seconds: f64) -> Result<Run, String> {
    let mut plain = Fleet::build(w, seed, host::nproc(), false);
    let mut traced = Fleet::build(w, seed, host::nproc(), true);
    let mut slowdown = Vec::new();
    let start = Instant::now();
    while keep_going(&traced, w, start, seconds)? {
        let (plain_rate, traced_rate) = if slowdown.len() % 2 == 0 {
            let p = block(&mut plain, w);
            (p, block(&mut traced, w))
        } else {
            let t = block(&mut traced, w);
            (block(&mut plain, w), t)
        };
        slowdown.push(traced_rate / plain_rate);
        for fleet in [&mut plain, &mut traced] {
            fleet.samples.cycle_ns.clear();
            fleet.samples.escalation_ns.clear();
        }
    }
    gate::reference(w, seed, &plain)?;
    gate::traced(&plain, &traced, w.sim_cycles)?;

    let cp = sim_checkpoint(&traced, w)?;
    let c = &cp.counts;
    let spans = traced.spans.unwrap_or_default();
    let rounds = (traced.cycles * w.qubits() as u64) as f64;
    let per_round = |ns: u64| ns as f64 / rounds;
    let layers = spans.layers();
    let all = &traced.counts;
    let farm = w.farm.is_some();
    let only_farm = |v: f64| if farm { v } else { 0.0 };
    let frame_bytes: u64 = cp.stats.iter().map(|s| s.frame_bytes).sum();
    let values = [
        per_round(spans.noise),
        ratio(c.flips, cp.cycles * w.qubits() as u64),
        per_round(spans.core),
        c.escalations as f64,
        frame_bytes as f64,
        per_round(spans.clique),
        c.clique_quiet as f64,
        c.clique_trivial as f64,
        c.clique_complex as f64,
        ratio(spans.bandwidth, all.frames),
        ratio(frame_bytes, c.escalations),
        cp.transport.iter().map(|t| t.retransmitted_frames).sum::<u64>() as f64,
        cp.transport.iter().map(|t| t.degraded_decodes).sum::<u64>() as f64,
        cp.stats.iter().map(|s| s.peak_backlog).max().unwrap_or(0) as f64,
        per_round(spans.offchip),
        ratio(spans.offchip, all.escalations - all.transport_gave_up),
        per_round(traced.samples.decode_ns.iter().sum()),
        percentile(&traced.samples.decode_ns, 50.0),
        percentile(&traced.samples.decode_ns, 99.0),
        ratio(c.window_events, c.windows),
        only_farm(c.decoded as f64),
        c.queue_full as f64,
        c.deadline as f64,
        only_farm(ratio(c.windows, c.decode_calls)),
        only_farm(traced.samples.queue_depth.percentile(99.0)),
        per_round(spans.commit),
        per_round(spans.cycles),
        per_round(spans.cycles - layers),
        1.0 - quantile(&slowdown, 50.0),
        per_round(layers),
    ];
    Ok(Run {
        metrics: PER_LAYER.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect(),
        attempted: c.escalations,
        failed: c.failed(),
        pool_width: traced.pool_width,
        cycles: traced.cycles,
        samples: format!("{} block pairs; {} windows decoded", slowdown.len(), all.windows),
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(run: &Run) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(run.metrics.len());
    for &(name, unit, value) in &run.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number ({value})"));
        }
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    ))
}

fn measure(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<(Run, String), String> {
    let run = if trace { per_layer(w, seed, seconds)? } else { end_to_end(w, seed, seconds)? };
    let json = result_json(&run)?;
    Ok((run, json))
}

fn print(w: &Workload, seed: u64, trace: bool, run: &Run) {
    println!(
        "# host {{\"git_rev\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"pool_width\": {}, \
         \"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"cycles\": {}, \"sim_cycles\": {}}}",
        host::git_rev(),
        host::nproc(),
        host::rustc(),
        run.pool_width,
        w.name,
        u8::from(trace),
        run.cycles,
        w.sim_cycles,
    );
    println!("# samples: {}", run.samples);
    for &(name, unit, value) in &run.metrics {
        println!("#   {name:<32} {value:>16.6} {unit}");
    }
}

/// Every workload, untraced and traced, at a tiny size: the gate must
/// pass and every metric must be a number. `tests/smoke.rs` checks the
/// printed names and units against `BENCHMARK.json`.
fn smoke() -> Result<(), String> {
    for name in workload::NAMES {
        let mut w = workload::by_name(name).ok_or("unknown workload")?;
        w.shrink(SMOKE_CYCLES);
        for trace in [false, true] {
            let (run, json) = measure(&w, 7, 0.0, trace)?;
            print(&w, 7, trace, &run);
            println!("{json}");
        }
    }
    println!("smoke ok");
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.smoke {
            return smoke();
        }
        let w = workload::by_name(&args.workload).ok_or_else(|| {
            format!("unknown workload {:?} (one of {:?})", args.workload, workload::NAMES)
        })?;
        if args.setup_sample {
            let start = Instant::now();
            let fleet = Fleet::build(&w, args.seed, UNTRACED_POOL_WIDTH, false);
            println!("{}", start.elapsed().as_secs_f64());
            drop(fleet);
            return Ok(());
        }
        let (run, json) = measure(&w, args.seed, args.seconds, args.trace)?;
        print(&w, args.seed, args.trace, &run);
        println!("{json}");
        Ok(())
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::FAILURE
        }
    }
}
