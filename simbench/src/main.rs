//! End-to-end benchmark of the RESPARC simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one caller, closed loop: set up the workload several
//! times (the median is `setup_s`), then call its top-level function
//! back to back for `--seconds`, timing each call. A fixed calibration
//! sort after each set-up and call tracks the shared host's speed, and
//! host times are reported at a reference speed (see `calibrate`). Output
//! checks run outside the timed calls. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`; with `--trace 1` each timed call is followed by a
//! traced driver making the same public calls inside spans, and the
//! per-layer metrics are printed instead. The process exits non-zero when
//! any operation or output check failed.

mod calibrate;
mod cold;
mod mapping;
mod offline;
mod serve;
mod stats;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calibrate::Calibration;
use stats::{kind_median, median, tail_percentile, Metric, Tally};
use trace::{Profile, Tracer, SETUP_OP};

/// Set-ups per run at the least; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Set-ups go on until they have taken this long in all (or hit
/// [`SETUP_REPS_MAX`]), so a set-up of tens of milliseconds still gets a
/// median over enough samples to ride out a short burst of host noise.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Set-ups per run at the most.
const SETUP_REPS_MAX: usize = 100;
/// Timed operations per run at the least, however long they take, so the
/// tail percentile (ten samples beyond it) sits well above the median.
pub const MIN_OPS: usize = 4 * stats::TAIL_BEYOND;

/// The end-to-end metrics, `(name, unit)`, in output order. Host time and
/// memory (`setup_s` to `peak_rss_mb`) are what the simulator takes; the
/// `sim_` metrics are what the modelled fabric would do. The tail op time
/// is printed on a `#` line but is not one of them: on a shared host its
/// run-to-run spread reached 50%, far past any bound a gate could use.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_energy_nj_per_inf", "nJ"),
    ("sim_latency_us_per_inf", "us"),
    ("sim_p99_us", "us"),
    ("sim_goodput_per_ms", "1/ms"),
    ("sim_ncs_used", "NCs"),
    ("sim_tenants_admitted", "count"),
];

/// Simulated (modelled-fabric) figures of one run. They depend only on
/// the seed and repeat exactly across runs of one seed.
#[derive(Default)]
pub struct Sim {
    pub energy_nj_per_inf: f64,
    pub latency_us_per_inf: f64,
    pub p99_us: f64,
    pub goodput_per_ms: f64,
    pub ncs_used: f64,
    pub tenants_admitted: f64,
}

/// A named workload: its set-up, its timed operation, the checks on its
/// outputs and a traced driver that reproduces each operation.
pub trait Workload: Sized {
    type Output;

    /// Builds every input from `seed`. This is what `setup_s` times.
    fn setup(seed: u64) -> Self;

    /// Operations that form one cycle (every distinct input once); a run
    /// stops on a cycle boundary.
    fn cycle(&self) -> usize;

    /// Timed operations per run at the least. By default every operation
    /// of a cycle is sampled often enough that the tail percentile never
    /// falls between two kinds of operation from one run to the next.
    fn min_ops(&self) -> usize {
        MIN_OPS.max((stats::TAIL_BEYOND + 1) * self.cycle())
    }

    /// Kinds of operation: operation `k` is of kind `k % kinds()`. Host
    /// times are summarised per kind (see [`kind_median`]). By
    /// default every operation is of one kind.
    fn kinds(&self) -> usize {
        1
    }

    /// The timed call: operation `k` of the closed loop.
    fn op(&self, k: usize) -> Result<Self::Output, String>;

    /// Units of work `out` finished.
    fn units(&self, out: &Self::Output) -> usize;

    /// Checks operation `k`'s output (outside the timed call).
    fn check(&mut self, k: usize, out: &Self::Output) -> Result<(), String>;

    /// Checks that need the whole run, and the simulated figures.
    fn finish(&mut self, tally: &mut Tally) -> Sim;

    /// Repeats the set-up's calls inside spans and compares the results
    /// with `self`'s.
    fn traced_setup(&self, seed: u64, t: &Tracer) -> Result<(), String>;

    /// Makes operation `k`'s public calls inside spans and checks they
    /// reproduce `out`, the untraced call's output, bit for bit.
    fn traced_op(&self, k: usize, out: &Self::Output, t: &Tracer) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = match args.workload.as_str() {
        "mlp_dense_offline" => run::<offline::Offline<offline::MlpDense>>(&args),
        "cnn_ttfs_offline" => run::<offline::Offline<offline::CnnTtfs>>(&args),
        "cold_start" => run::<cold::ColdStart>(&args),
        "serve_bursty" => run::<serve::Serve>(&args),
        other => {
            eprintln!("simbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let (tally, metrics) = line;
    println!(
        "# failed_frac {} ({} of {} operations and checks)",
        tally.failed_frac(),
        tally.failed(),
        tally.attempted()
    );
    println!("{}", stats::result_json(&tally, &metrics));
    if tally.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

fn run<W: Workload>(args: &Args) -> (Tally, Vec<Metric>) {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    let mut setup_speed = Calibration::default();
    let setups_started = Instant::now();
    while setup_s.len() < SETUP_REPS
        || (setups_started.elapsed() < SETUP_BUDGET && setup_s.len() < SETUP_REPS_MAX)
    {
        drop(workload.take());
        let t0 = Instant::now();
        let w = std::hint::black_box(W::setup(args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
        workload = Some(w);
        setup_speed.sample();
    }
    let mut w = workload.expect("SETUP_REPS is positive");

    let mut tally = Tally::default();
    let tracer = Tracer::default();
    if args.trace {
        tally.record(
            "traced set-up",
            guarded(|| w.traced_setup(args.seed, &tracer)),
        );
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let (cycle, min_ops) = (w.cycle(), w.min_ops());
    let mut op_ms: Vec<f64> = Vec::new();
    let mut op_kinds: Vec<usize> = Vec::new();
    let mut units = 0usize;
    let mut op_speed = Calibration::default();
    let started = Instant::now();
    let mut k = 0usize;
    while k < min_ops || !k.is_multiple_of(cycle) || started.elapsed() < budget {
        let t0 = Instant::now();
        let out = guarded(|| w.op(k));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let outcome = out.and_then(|out| {
            op_ms.push(ms);
            op_speed.sample();
            op_kinds.push(k % w.kinds());
            units += w.units(&out);
            w.check(k, &out)?;
            if args.trace {
                tracer.set_op(k as u32 + 1);
                guarded(|| w.traced_op(k, &out, &tracer))
                    .map_err(|e| format!("traced driver: {e}"))?;
                tracer.set_op(SETUP_OP);
            }
            Ok(())
        });
        tally.record(&format!("op {k}"), outcome);
        k += 1;
    }
    let sim = w.finish(&mut tally);

    if args.trace {
        let profile = tracer.profile();
        write_spans(args, &tracer);
        println!("# stage table ({}, seed {}):", args.workload, args.seed);
        for row in profile.stage_table().lines() {
            println!("# {row}");
        }
        let untraced_ms: f64 = op_ms.iter().sum();
        let traced_ms = profile.ops().total_ms();
        println!(
            "# tracing overhead: traced ops {traced_ms:.1} ms vs untraced {untraced_ms:.1} ms \
             over {} ops; this includes the serial traced driver giving up the top-level \
             function's own 2-thread fan-out where it has one",
            op_ms.len()
        );
        let overhead = if untraced_ms > 0.0 {
            traced_ms / untraced_ms - 1.0
        } else {
            0.0
        };
        return (tally, per_layer(&profile, overhead, op_ms.len()));
    }

    let total_s = op_ms.iter().sum::<f64>() * 1e-3;
    // Only failed operations can leave too few samples for a tail.
    let (tail_p, tail_ms, beyond) = tail_percentile(&op_ms).unwrap_or((100.0, 0.0, 0));
    println!(
        "# {}: {} ops, {units} units; op_tail_ms {tail_ms:.3} is p{tail_p:.2} with {beyond} of \
         {} samples beyond it",
        args.workload,
        op_ms.len(),
        op_ms.len()
    );
    // Host times at the reference speed (see `calibrate`); the `#` line
    // gives them as measured.
    let ref_setup_s = setup_speed.to_reference(&setup_s);
    let ref_op_ms = op_speed.to_reference(&op_ms);
    println!(
        "# host speed: calibration sort {:.3} ms in the timed phase, {:.3} ms over {} set-ups \
         (reference {} ms); as measured, setup_s {:.6}, throughput_per_s {:.3}, op_p50_ms {:.4}",
        op_speed.median_ms(),
        setup_speed.median_ms(),
        setup_s.len(),
        calibrate::REFERENCE_SORT_MS,
        median(&setup_s),
        ratio(units as f64, total_s),
        kind_median(&op_kinds, &op_ms),
    );
    let values = [
        median(&ref_setup_s),
        ratio(units as f64, ref_op_ms.iter().sum::<f64>() * 1e-3),
        kind_median(&op_kinds, &ref_op_ms),
        peak_rss_mb(),
        sim.energy_nj_per_inf,
        sim.latency_us_per_inf,
        sim.p99_us,
        sim.goodput_per_ms,
        sim.ncs_used,
        sim.tenants_admitted,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, unit, value))
        .collect();
    (tally, metrics)
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Peak resident set (the kernel's high-water mark) of this process.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the recorded spans next to the benchmark's sources.
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.dump()));
    match written {
        Ok(()) => println!("# spans: {}", path.display()),
        Err(e) => eprintln!("simbench: could not write {}: {e}", path.display()),
    }
}

/// The per-layer metrics of a traced run. A layer's `_ms` metric is its
/// self time summed over the timed operations, and `.share` divides it by
/// their traced time; a layer that runs only during set-up on this
/// workload reports its set-up time and share of set-up instead.
fn per_layer(p: &Profile, overhead: f64, traced_ops: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut busy = |layer: &str, name: &'static str, share: &'static str| {
        let phase = p.phase_of(layer);
        let ms = phase.layer(layer);
        let total = phase.total_ms();
        out.push(metric(name, "ms", ms));
        out.push(metric(share, "ratio", ratio(ms, total)));
    };
    busy(
        "neuro.encoding",
        "neuro.encoding.busy_ms",
        "neuro.encoding.busy_ms.share",
    );
    busy(
        "neuro.kernel",
        "neuro.kernel.compile_ms",
        "neuro.kernel.compile_ms.share",
    );
    busy(
        "neuro.network",
        "neuro.network.capture_ms",
        "neuro.network.capture_ms.share",
    );
    busy(
        "neuro.connectivity",
        "neuro.connectivity.busy_ms",
        "neuro.connectivity.busy_ms.share",
    );
    busy(
        "core.map.partition",
        "core.map.partition.busy_ms",
        "core.map.partition.busy_ms.share",
    );
    busy(
        "core.map.placement",
        "core.map.placement.busy_ms",
        "core.map.placement.busy_ms.share",
    );
    busy(
        "core.map.optimize",
        "core.map.optimize.busy_ms",
        "core.map.optimize.busy_ms.share",
    );
    busy(
        "core.sim.plan",
        "core.sim.plan.compile_ms",
        "core.sim.plan.compile_ms.share",
    );
    busy(
        "core.sim.event",
        "core.sim.event.replay_ms",
        "core.sim.event.replay_ms.share",
    );
    busy(
        "core.fabric.scheduler",
        "core.fabric.scheduler.busy_ms",
        "core.fabric.scheduler.busy_ms.share",
    );
    busy(
        "core.fabric.shared",
        "core.fabric.shared.replay_ms",
        "core.fabric.shared.replay_ms.share",
    );
    busy(
        "workloads.sweep",
        "workloads.sweep.self_ms",
        "workloads.sweep.self_ms.share",
    );
    busy(
        "workloads.serving",
        "workloads.serving.self_ms",
        "workloads.serving.self_ms.share",
    );

    // Counters come from the same phase as their layer's time.
    let c = |layer: &str, name: &str| p.phase_of(layer).counter(name);
    let ns = |layer: &str| p.phase_of(layer).layer(layer) * 1e6;
    let counts = [
        (
            "neuro.encoding.spikes",
            "count",
            c("neuro.encoding", "encoded_spikes"),
        ),
        (
            "neuro.network.input_spikes",
            "count",
            c("neuro.network", "input_spikes"),
        ),
        (
            "neuro.network.ns_per_input_spike",
            "ns",
            ratio(ns("neuro.network"), c("neuro.network", "input_spikes")),
        ),
        (
            "neuro.connectivity.synapses",
            "count",
            c("neuro.connectivity", "synapses"),
        ),
        (
            "core.map.partition.tiles",
            "count",
            c("core.map.partition", "tiles"),
        ),
        (
            "core.map.partition.ns_per_synapse",
            "ns",
            ratio(
                ns("core.map.partition"),
                c("core.map.partition", "partitioned_synapses"),
            ),
        ),
        (
            "core.map.optimize.evaluations",
            "count",
            c("core.map.optimize", "evaluations"),
        ),
        (
            "core.map.optimize.admitted_frac",
            "ratio",
            ratio(
                c("core.map.optimize", "admitted"),
                c("core.map.optimize", "requests"),
            ),
        ),
        (
            "core.sim.plan.windows",
            "count",
            c("core.sim.plan", "windows"),
        ),
        (
            "core.sim.plan.run_fraction",
            "ratio",
            ratio(
                c("core.sim.plan", "run_fraction_sum"),
                c("core.sim.plan", "plans"),
            ),
        ),
        (
            "core.sim.event.candidate_packets",
            "count",
            c("core.sim.event", "candidate_packets"),
        ),
        (
            "core.sim.event.delivered_frac",
            "ratio",
            ratio(
                c("core.sim.event", "packets_delivered"),
                c("core.sim.event", "candidate_packets"),
            ),
        ),
        (
            "core.sim.event.reads_skipped_frac",
            "ratio",
            ratio(
                c("core.sim.event", "reads_skipped"),
                c("core.sim.event", "reads_skipped") + c("core.sim.event", "reads_performed"),
            ),
        ),
        (
            "core.fabric.scheduler.rounds",
            "count",
            c("core.fabric.scheduler", "rounds"),
        ),
        (
            "core.fabric.scheduler.admits",
            "count",
            c("core.fabric.scheduler", "admits"),
        ),
        (
            "core.fabric.scheduler.cancels",
            "count",
            c("core.fabric.scheduler", "cancels"),
        ),
        (
            "core.fabric.scheduler.queue_wait_rounds",
            "rounds",
            ratio(
                c("core.fabric.scheduler", "wait_rounds"),
                c("core.fabric.scheduler", "records"),
            ),
        ),
        (
            "core.fabric.shared.tenants_per_round",
            "count",
            ratio(
                c("core.fabric.shared", "residents"),
                c("core.fabric.scheduler", "rounds"),
            ),
        ),
        (
            "core.fabric.shared.bus_busy_frac",
            "ratio",
            ratio(
                c("core.fabric.shared", "bus_busy_cycles"),
                c("core.fabric.shared", "total_cycles"),
            ),
        ),
    ];
    for (name, unit, value) in counts {
        out.push(metric(name, unit, value));
    }
    out.push(metric("trace.overhead_frac", "ratio", overhead));
    out.push(metric("trace.ops", "count", traced_ops as f64));
    out
}

/// `num / den`, or 0 when `den` is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// splitmix64 output `stream` of a generator seeded with `seed`: the
/// independent per-purpose seeds every workload derives from `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_per_layer_name_is_valid_and_unique() {
        let metrics = per_layer(&Profile::default(), 0.0, 0);
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        assert!(names.iter().all(|n| stats::valid_metric_name(n)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate per-layer metric name");
    }

    /// `(name, unit)` of every metric entry in one section of
    /// BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..]
                .split('"')
                .next()
                .expect("closing quote")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_benchmark_manifest() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer(&Profile::default(), 0.0, 0)
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        assert!(END_TO_END.iter().all(|(n, _)| stats::valid_metric_name(n)));
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(5, 3), derive_seed(5, 3));
    }
}
