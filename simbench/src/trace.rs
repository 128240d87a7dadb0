//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions, and the per-layer figures derived from them.
//!
//! A span has a name (the public call), a start and an end, a parent and
//! the id of the operation it belongs to. Spans stay in memory and are
//! written out once, when the traced run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Where a public call's time is booked: its stage row (the pipeline
/// barometer's row names) and its layer (the module it lives in).
pub struct Call {
    pub span: &'static str,
    pub stage: &'static str,
    pub layer: &'static str,
}

/// Every call the traced drivers wrap. Root spans (the top-level
/// functions and the benchmark's own set-up and op bodies) keep only
/// their self time: the part no child span covers.
pub const CALLS: &[Call] = &[
    call("setup", "setup", "bench"),
    call("cold_map", "bench", "bench"),
    call("multi_tenant", "bench", "bench"),
    call("Network::compiled", "kernel_compile", "neuro.kernel"),
    call(
        "ConnectivityMatrix::from_layer",
        "map/connectivity",
        "neuro.connectivity",
    ),
    call("partition_layer", "map/partition", "core.map.partition"),
    call("place_with_origin", "map/place", "core.map.placement"),
    call("BatchPlacer::place", "map/optimize", "core.map.optimize"),
    call("encode_sample", "encode", "neuro.encoding"),
    call("SnnRunner::run_traced", "trace_capture", "neuro.network"),
    call("ReplayPlan::compile", "plan_compile", "core.sim.plan"),
    call("EventSimulator::run", "replay", "core.sim.event"),
    call(
        "SharedEventSimulator::run_weighted",
        "shared_round",
        "core.fabric.shared",
    ),
    call(
        "FabricScheduler::submit_mapped",
        "scheduler_round",
        "core.fabric.scheduler",
    ),
    call(
        "FabricScheduler::begin_round",
        "scheduler_round",
        "core.fabric.scheduler",
    ),
    call(
        "FabricScheduler::end_round",
        "scheduler_round",
        "core.fabric.scheduler",
    ),
    call(
        "FabricScheduler::cancel",
        "scheduler_round",
        "core.fabric.scheduler",
    ),
    call("trace_energy_sweep", "sweep", "workloads.sweep"),
    call("serving_sweep", "serving", "workloads.serving"),
];

const fn call(span: &'static str, stage: &'static str, layer: &'static str) -> Call {
    Call { span, stage, layer }
}

fn lookup(span: &str) -> &'static Call {
    CALLS
        .iter()
        .find(|c| c.span == span)
        .unwrap_or_else(|| panic!("span {span} is not in CALLS"))
}

/// The set-up phase's operation id; timed operations count from 1.
pub const SETUP_OP: u32 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans and counters; shared by reference so nested spans can
/// be opened from inside an enclosing span's closure.
pub struct Tracer {
    origin: Instant,
    op: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    /// Per-phase counters (`setup` = [`SETUP_OP`], `ops` = the rest),
    /// keyed by counter name.
    counters: RefCell<[BTreeMap<&'static str, f64>; 2]>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            op: Cell::new(SETUP_OP),
            spans: RefCell::default(),
            open: RefCell::default(),
            counters: RefCell::default(),
        }
    }
}

impl Tracer {
    /// Books every following span and counter to operation `op`.
    pub fn set_op(&self, op: u32) {
        self.op.set(op);
    }

    /// Runs `f` inside a span named `name` (a [`CALLS`] entry).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        debug_assert!(CALLS.iter().any(|c| c.span == name), "unknown span {name}");
        let parent = self.open.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                op: self.op.get(),
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        out
    }

    /// Adds `amount` to the counter `name` of the current phase.
    pub fn count(&self, name: &'static str, amount: f64) {
        let phase = usize::from(self.op.get() != SETUP_OP);
        *self.counters.borrow_mut()[phase].entry(name).or_default() += amount;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Summarises the recorded spans.
    pub fn profile(&self) -> Profile {
        let spans = self.spans.borrow();
        let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                self_ns[p] -= s.duration_ns();
            }
        }
        let mut p = Profile::default();
        for (s, &own) in spans.iter().zip(&self_ns) {
            let call = lookup(s.name);
            let ms = own as f64 * 1e-6;
            let phase = &mut p.phases[usize::from(s.op != SETUP_OP)];
            *phase.layer_ms.entry(call.layer).or_default() += ms;
            *phase
                .stage_ms
                .entry(call.stage)
                .or_default()
                .entry(s.op)
                .or_default() += ms;
            if s.parent.is_none() {
                *phase.op_ms.entry(s.op).or_default() += s.duration_ns() as f64 * 1e-6;
            }
        }
        let counters = self.counters.borrow();
        for (phase, c) in p.phases.iter_mut().zip(counters.iter()) {
            phase.counters = c.clone();
        }
        p
    }

    /// The spans as JSON lines: name, op, parent index, start and end.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Busy time of one phase (set-up, or the timed operations).
#[derive(Debug, Default)]
pub struct Phase {
    /// Self time per layer, summed over the phase.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Self time per stage row and operation.
    pub stage_ms: BTreeMap<&'static str, BTreeMap<u32, f64>>,
    /// Traced time per operation: the sum of its root spans.
    pub op_ms: BTreeMap<u32, f64>,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Phase {
    pub fn total_ms(&self) -> f64 {
        self.op_ms.values().sum()
    }

    pub fn layer(&self, layer: &str) -> f64 {
        self.layer_ms.get(layer).copied().unwrap_or(0.0)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

#[derive(Debug, Default)]
pub struct Profile {
    /// `[set-up, timed operations]`.
    pub phases: [Phase; 2],
}

impl Profile {
    pub fn setup(&self) -> &Phase {
        &self.phases[0]
    }

    pub fn ops(&self) -> &Phase {
        &self.phases[1]
    }

    /// The phase a layer's metrics are reported from: the timed
    /// operations when the layer runs there, else the set-up.
    pub fn phase_of(&self, layer: &str) -> &Phase {
        if self.ops().layer(layer) > 0.0 {
            self.ops()
        } else {
            self.setup()
        }
    }

    /// The stage table: per stage row, the median per-operation time and
    /// the share of the summed operation time, for both phases.
    pub fn stage_table(&self) -> String {
        let mut stages: Vec<&'static str> = Vec::new();
        for c in CALLS {
            if !stages.contains(&c.stage) {
                stages.push(c.stage);
            }
        }
        let mut out = format!(
            "{:<18} {:>14} {:>9} {:>12} {:>9}\n",
            "stage", "op median ms", "op share", "setup ms", "setup %"
        );
        for stage in stages {
            let per_op = |phase: &Phase| -> (f64, f64) {
                let Some(by_op) = phase.stage_ms.get(stage) else {
                    return (0.0, 0.0);
                };
                // Operations where the stage did not run count as 0.
                let all: Vec<f64> = phase
                    .op_ms
                    .keys()
                    .map(|op| by_op.get(op).copied().unwrap_or(0.0))
                    .collect();
                let total = phase.total_ms();
                let share = if total > 0.0 {
                    by_op.values().sum::<f64>() / total
                } else {
                    0.0
                };
                (crate::stats::median(&all), share)
            };
            let (op_med, op_share) = per_op(self.ops());
            let (setup_ms, setup_share) = per_op(self.setup());
            if op_med == 0.0 && op_share == 0.0 && setup_ms == 0.0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{stage:<18} {op_med:>14.4} {:>8.1}% {setup_ms:>12.4} {:>8.1}%",
                100.0 * op_share,
                100.0 * setup_share
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_sum_per_op() {
        let t = Tracer::default();
        t.set_op(1);
        t.span("trace_energy_sweep", || {
            t.span("encode_sample", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("EventSimulator::run", || ());
        });
        t.count("x", 2.0);
        let p = t.profile();
        let ops = p.ops();
        let total = ops.total_ms();
        let encode = ops.layer("neuro.encoding");
        assert!(encode >= 2.0);
        let sum: f64 = ops.layer_ms.values().sum();
        assert!((sum - total).abs() < 1e-9, "self times partition the op");
        assert_eq!(ops.counter("x"), 2.0);
        assert_eq!(p.setup().total_ms(), 0.0);
        assert!(std::ptr::eq(p.phase_of("neuro.encoding"), p.ops()));
        assert!(std::ptr::eq(p.phase_of("neuro.kernel"), p.setup()));
        assert_eq!(t.dump().lines().count(), 3);
    }
}
