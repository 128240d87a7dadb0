//! Serving: back-to-back `serving_sweep` calls on the three-class mix of
//! 2/1/4-NeuroCell MLPs, bursty open-loop arrivals in simulated time.

use resparc_core::fabric::{
    pool_leakage_power, FabricPool, FabricScheduler, PackingPolicy, SharedEventSimulator, TenantId,
};
use resparc_core::map::{Mapper, Mapping};
use resparc_core::sim::event::ReplayEngine;
use resparc_core::ResparcConfig;
use resparc_energy::accounting::Category;
use resparc_energy::units::{Energy, Time};
use resparc_energy::SramSpec;
use resparc_neuro::network::{Network, SnnRunner};
use resparc_neuro::topology::Topology;
use resparc_neuro::trace::SpikeTrace;
use resparc_workloads::serving::{
    serving_sweep, ArrivalProcess, QosPolicy, RequestOutcome, ServiceClass, ServingReport,
    ServingSpec,
};
use resparc_workloads::SweepConfig;

use crate::mapping::{expect_same_mapping, traced_map};
use crate::stats::{expect_eq, nearest_rank, Tally};
use crate::trace::Tracer;
use crate::{derive_seed, ratio, Sim, Workload};

/// Arrivals per call: enough that the fabric sits near capacity without
/// a growing backlog.
const REQUESTS: usize = 1500;
/// Mean gap between arrivals, ns.
const MEAN_GAP_NS: f64 = 20_000.0;
/// Distinct arrival traces per seed; the loop cycles through them and the
/// simulated figures pool them, so one unlucky burst pattern does not
/// set the tail. Pooling 8 left the p99 latency spreading 14% from seed
/// to seed; 24 bring it to about 7%.
const TRACES: usize = 24;
const POLICY: PackingPolicy = PackingPolicy::BestFit;

pub struct Serve {
    nets: Vec<Network>,
    classes: Vec<ServiceClass>,
    pool_config: ResparcConfig,
    calls: Vec<(ServingSpec, SweepConfig)>,
    /// The first report of each trace; later calls must repeat it.
    first: Vec<Option<ServingReport>>,
}

fn nets() -> Vec<Network> {
    vec![
        Network::random(Topology::mlp(144, &[576, 576, 10]), 90, 1.0), // 2 NCs
        Network::random(Topology::mlp(144, &[96, 10]), 91, 1.0),       // 1 NC
        Network::random(Topology::mlp(144, &[576, 576, 576, 10]), 92, 1.0), // 4 NCs
    ]
}

/// The arrival traces and sweep settings of one seed.
fn calls(seed: u64) -> Vec<(ServingSpec, SweepConfig)> {
    (0..TRACES as u64)
        .map(|c| {
            let spec = ServingSpec::new(
                REQUESTS,
                MEAN_GAP_NS,
                ArrivalProcess::Bursty { burst: 6 },
                derive_seed(seed, 2 * c),
            )
            .with_qos(QosPolicy::Adaptive { max_weight: 64 })
            .with_preemption(8.0);
            (
                spec,
                SweepConfig::rate(20, 0.7, derive_seed(seed, 2 * c + 1)),
            )
        })
        .collect()
}

impl Serve {
    fn call(&self, k: usize, engine: ReplayEngine) -> Result<ServingReport, String> {
        let (spec, cfg) = &self.calls[k % self.calls.len()];
        let spec = spec.clone().with_replay_engine(engine);
        serving_sweep(
            &self.nets,
            &self.classes,
            &spec,
            cfg,
            &self.pool_config,
            POLICY,
        )
        .map_err(|e| e.to_string())
    }
}

impl Workload for Serve {
    type Output = ServingReport;

    fn setup(seed: u64) -> Self {
        let nets = nets();
        for n in &nets {
            n.compiled();
        }
        Self {
            calls: calls(seed),
            nets,
            classes: vec![
                ServiceClass::new("premium", 2, 35_000.0).with_weight(4),
                ServiceClass::new("standard", 3, 250_000.0).with_weight(2),
                ServiceClass::new("bulk", 4, 1_000_000.0).with_weight(1),
            ],
            pool_config: ResparcConfig::resparc_64(),
            first: vec![None; TRACES],
        }
    }

    /// Every arrival trace once.
    fn cycle(&self) -> usize {
        self.calls.len()
    }

    /// The traces cost alike, so whole cycles suffice without sampling
    /// each trace often.
    fn min_ops(&self) -> usize {
        crate::MIN_OPS
    }

    fn op(&self, k: usize) -> Result<ServingReport, String> {
        self.call(k, ReplayEngine::Plan)
    }

    /// One simulated arrival is one unit.
    fn units(&self, out: &ServingReport) -> usize {
        out.arrivals
    }

    fn check(&mut self, k: usize, out: &ServingReport) -> Result<(), String> {
        let c = k % self.calls.len();
        match &self.first[c] {
            Some(first) => expect_eq("same-seed ServingReport", out, first),
            None => {
                self.first[c] = Some(out.clone());
                Ok(())
            }
        }
    }

    fn finish(&mut self, tally: &mut Tally) -> Sim {
        let reference = self
            .call(0, ReplayEngine::Reference)
            .and_then(|r| match &self.first[0] {
                Some(plan) => expect_eq("reference-engine ServingReport", &r, plan),
                None => Err("trace 0 never ran".to_string()),
            });
        tally.record("reference replay engine", reference);

        let reports: Vec<&ServingReport> = self.first.iter().flatten().collect();
        let mut latencies_ns = Vec::new();
        let (mut energy_nj, mut completed, mut met, mut makespan_ms, mut admitted) =
            (0.0, 0usize, 0usize, 0.0, 0usize);
        for r in &reports {
            energy_nj += r.pool_energy().nanojoules();
            completed += r.completed;
            makespan_ms += r.makespan.nanoseconds() * 1e-6;
            admitted += r.arrivals - r.rejected;
            for o in &r.outcomes {
                if let RequestOutcome::Completed {
                    latency_ns,
                    met_slo,
                } = *o
                {
                    latencies_ns.push(latency_ns);
                    met += usize::from(met_slo);
                }
            }
        }
        latencies_ns.sort_by(f64::total_cmp);
        let mean_ns = latencies_ns.iter().sum::<f64>() / latencies_ns.len().max(1) as f64;
        let mapper = Mapper::new(self.pool_config.clone());
        let ncs: usize = self
            .nets
            .iter()
            .filter_map(|n| mapper.map_network(n).ok())
            .map(|m| m.placement.ncs_used)
            .sum();
        Sim {
            energy_nj_per_inf: energy_nj / completed.max(1) as f64,
            latency_us_per_inf: mean_ns * 1e-3,
            p99_us: nearest_rank(&latencies_ns, 99.0) * 1e-3,
            goodput_per_ms: ratio(met as f64, makespan_ms),
            ncs_used: ncs as f64,
            tenants_admitted: admitted as f64 / reports.len().max(1) as f64,
        }
    }

    fn traced_setup(&self, seed: u64, t: &Tracer) -> Result<(), String> {
        let again = t.span("setup", || {
            let nets = nets();
            for n in &nets {
                t.span("Network::compiled", || n.compiled());
            }
            calls(seed)
        });
        for ((a, ac), (b, bc)) in again.iter().zip(&self.calls) {
            expect_eq("arrival seed", &a.seed, &b.seed)?;
            expect_eq("sweep config", ac, bc)?;
        }
        Ok(())
    }

    fn traced_op(&self, k: usize, out: &ServingReport, t: &Tracer) -> Result<(), String> {
        let (spec, cfg) = &self.calls[k % self.calls.len()];
        // The probes' mapping steps inside spans. A `Mapping` cannot be
        // assembled from its parts outside the mapper, so the probes the
        // loop submits come from an untraced `map_network` call made
        // between the two root spans, outside the traced time.
        let mapped: Vec<_> = t.span("serving_sweep", || {
            self.nets
                .iter()
                .map(|n| traced_map(t, n.topology(), &self.pool_config))
                .collect()
        });
        let mapper = Mapper::new(self.pool_config.clone());
        let probes: Vec<Mapping> = self
            .nets
            .iter()
            .map(|n| mapper.map_network(n))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for (m, p) in mapped.iter().zip(&probes) {
            expect_same_mapping(m, p)?;
        }
        let r = t.span("serving_sweep", || self.traced_loop(&probes, spec, cfg, t));
        expect_eq("traced rounds", &r.rounds, &out.rounds)?;
        expect_eq("traced completions", &r.completed, &out.completed)?;
        expect_eq("traced outcomes", &r.outcomes, &out.outcomes)?;
        expect_eq(
            "traced dynamic energy",
            &r.dynamic_energy,
            &out.dynamic_energy,
        )?;
        expect_eq(
            "traced occupied leakage",
            &r.occupied_leakage,
            &out.occupied_leakage,
        )?;
        expect_eq(
            "traced gated idle leakage",
            &r.gated_idle,
            &out.gated_idle_leakage,
        )?;
        expect_eq(
            "traced ungated idle leakage",
            &r.ungated_idle,
            &out.ungated_idle_leakage,
        )
    }
}

/// What the traced serving loop reproduces of a `ServingReport`.
struct Replayed {
    rounds: usize,
    completed: usize,
    outcomes: Vec<RequestOutcome>,
    dynamic_energy: Energy,
    occupied_leakage: Energy,
    gated_idle: Energy,
    ungated_idle: Energy,
}

#[derive(Clone, Copy)]
struct InFlight {
    request: resparc_core::fabric::RequestId,
    arrival_index: usize,
    class: usize,
    arrival_ns: f64,
    done: bool,
}

impl Serve {
    /// `serving_sweep`'s event-clock loop after probe mapping, with a span
    /// around each call into the scheduler, the shared replay, the encoder
    /// and the runner. The arithmetic and its order are the library's.
    fn traced_loop(
        &self,
        probes: &[Mapping],
        spec: &ServingSpec,
        cfg: &SweepConfig,
        t: &Tracer,
    ) -> Replayed {
        let classes = &self.classes;
        let pool_config = &self.pool_config;
        let mut traces: Vec<Vec<SpikeTrace>> = vec![Vec::new(); classes.len()];
        for (c, trs) in traces.iter_mut().enumerate() {
            for j in 0..spec.samples {
                let inputs = self.nets[c].input_count();
                let stimulus: Vec<f32> = (0..inputs)
                    .map(|i| ((i * 31 + j * 7 + c) % 10) as f32 / 10.0)
                    .collect();
                let raster = t.span("encode_sample", || cfg.encode_sample(j, &stimulus));
                t.count("encoded_spikes", raster.total_spikes() as f64);
                let (_, trace) = t.span("SnnRunner::run_traced", || {
                    SnnRunner::from_compiled(self.nets[c].compiled()).run_traced(&raster)
                });
                t.count("input_spikes", trace.input().total_spikes() as f64);
                trs.push(trace);
            }
        }

        let arrivals = spec
            .arrivals
            .arrival_times(spec.requests, spec.mean_gap_ns, spec.seed);
        let pool = FabricPool::new(pool_config.clone())
            .with_policy(POLICY)
            .with_idle_gating(spec.idle_gating);
        let mut sched = FabricScheduler::new(pool);
        if spec.backfill_window > 0 {
            sched = sched.with_backfill(spec.backfill_window);
        }
        let sram_leak = SramSpec::new(pool_config.input_sram_bytes, pool_config.packet_bits)
            .build()
            .leakage();
        let pool_leak = pool_leakage_power(pool_config);
        let logic_leak = pool_leak - sram_leak;

        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; spec.requests];
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut weights: Vec<u32> = classes.iter().map(|c| c.weight).collect();
        let mut now = 0.0f64;
        let mut idle_gap_ns = 0.0f64;
        let mut rounds = 0usize;
        let mut dynamic_energy = Energy::ZERO;
        let mut occupied_leakage = Energy::ZERO;
        let mut gated_idle = Energy::ZERO;
        let mut ungated_idle = Energy::ZERO;
        let mut next_arrival = 0usize;

        while next_arrival < arrivals.len() || !sched.is_idle() {
            while next_arrival < arrivals.len() && arrivals[next_arrival] <= now {
                let c = next_arrival % classes.len();
                if sched.queue_len() >= spec.max_queue {
                    outcomes[next_arrival] = Some(RequestOutcome::Rejected);
                } else {
                    let request = t.span("FabricScheduler::submit_mapped", || {
                        sched.submit_mapped(
                            probes[c].clone(),
                            &classes[c].name,
                            classes[c].service_rounds,
                            classes[c].weight,
                        )
                    });
                    in_flight.push(InFlight {
                        request,
                        arrival_index: next_arrival,
                        class: c,
                        arrival_ns: arrivals[next_arrival],
                        done: false,
                    });
                }
                next_arrival += 1;
            }
            if sched.is_idle() {
                let gap = arrivals[next_arrival] - now;
                if gap > 0.0 {
                    idle_gap_ns += gap;
                }
                now = arrivals[next_arrival].max(now);
                continue;
            }

            let residents = t.span("FabricScheduler::begin_round", || sched.begin_round());
            if residents.is_empty() {
                t.span("FabricScheduler::end_round", || sched.end_round());
                continue;
            }
            t.count("residents", residents.len() as f64);
            t.count(
                "admits",
                residents.iter().filter(|st| st.rounds_served == 0).count() as f64,
            );
            let pairs: Vec<(TenantId, &SpikeTrace)> = residents
                .iter()
                .map(|st| {
                    let f = in_flight[st.request.index() as usize];
                    (
                        st.tenant,
                        &traces[f.class][(f.arrival_index + st.rounds_served) % spec.samples],
                    )
                })
                .collect();
            let round_weights: Vec<u32> = residents
                .iter()
                .map(|st| weights[in_flight[st.request.index() as usize].class])
                .collect();
            let report = t.span("SharedEventSimulator::run_weighted", || {
                SharedEventSimulator::with_engine(sched.pool(), spec.replay_engine)
                    .run_weighted(&pairs, &round_weights)
            });
            t.count("bus_busy_cycles", report.bus_busy_cycles as f64);
            t.count("total_cycles", report.total_cycles as f64);

            dynamic_energy += report
                .tenants
                .iter()
                .map(|tr| tr.energy.total())
                .sum::<Energy>();
            occupied_leakage += report.energy.get(Category::LogicLeakage)
                + report.energy.get(Category::MemoryLeakage);
            gated_idle += report.idle_leakage;
            ungated_idle += pool_leak * report.latency
                - (report.energy.get(Category::LogicLeakage)
                    + report.energy.get(Category::MemoryLeakage));

            let makespan_ns = report.latency.nanoseconds();
            let mut violated = vec![false; classes.len()];
            let mut clean = vec![false; classes.len()];
            for (st, tr) in residents.iter().zip(&report.tenants) {
                let f = &mut in_flight[st.request.index() as usize];
                if st.rounds_served + 1 == classes[f.class].service_rounds {
                    let latency_ns = now + tr.latency.nanoseconds() - f.arrival_ns;
                    let met = latency_ns <= classes[f.class].slo_ns;
                    outcomes[f.arrival_index] = Some(RequestOutcome::Completed {
                        latency_ns,
                        met_slo: met,
                    });
                    f.done = true;
                    if met {
                        clean[f.class] = true;
                    } else {
                        violated[f.class] = true;
                    }
                }
            }
            now += makespan_ns;
            rounds += 1;
            t.span("FabricScheduler::end_round", || sched.end_round());

            if let Some(budget) = spec.preempt_after {
                for f in in_flight.iter_mut() {
                    if !f.done
                        && now - f.arrival_ns > budget * classes[f.class].slo_ns
                        && t.span("FabricScheduler::cancel", || sched.cancel(f.request))
                    {
                        t.count("cancels", 1.0);
                        outcomes[f.arrival_index] = Some(RequestOutcome::Preempted);
                        f.done = true;
                    }
                }
            }

            if let QosPolicy::Adaptive { max_weight } = spec.qos {
                for c in 0..classes.len() {
                    if violated[c] {
                        weights[c] = (weights[c].saturating_mul(2)).min(max_weight);
                    } else if clean[c] {
                        weights[c] = weights[c].saturating_sub(1).max(classes[c].weight);
                    }
                }
            }
        }
        t.count("rounds", rounds as f64);

        let gap = Time::from_nanos(idle_gap_ns);
        gated_idle += logic_leak * gap * spec.idle_gating + sram_leak * gap;
        ungated_idle += logic_leak * gap + sram_leak * gap;

        for rec in sched.completed() {
            t.count("wait_rounds", rec.wait_rounds() as f64);
            t.count("records", 1.0);
            let f = in_flight[rec.request.index() as usize];
            if outcomes[f.arrival_index].is_none() {
                outcomes[f.arrival_index] = Some(RequestOutcome::Aborted);
            }
        }
        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            .map(|o| o.unwrap_or(RequestOutcome::Aborted))
            .collect();
        Replayed {
            rounds,
            completed: outcomes
                .iter()
                .filter(|o| matches!(o, RequestOutcome::Completed { .. }))
                .count(),
            outcomes,
            dynamic_energy,
            occupied_leakage,
            gated_idle,
            ungated_idle,
        }
    }
}
