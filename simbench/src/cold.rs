//! Cold start: each operation maps one Fig. 10 topology at RESPARC-64
//! with a fresh `Mapper` and compiles its replay plan; once per cycle a
//! multi-tenant operation probes four networks on a mixed pool and
//! places them with `BatchPlacer`.

use resparc_core::fabric::{FabricPool, PackingPolicy, SharedEventSimulator};
use resparc_core::map::{
    BatchPlacement, BatchPlacer, Mapper, Mapping, PlacementRequest, PlacementStrategy,
};
use resparc_core::ResparcConfig;
use resparc_neuro::network::{Network, SnnRunner};
use resparc_workloads::{
    all_benchmarks, packing_scenario, Benchmark, DatasetKind, SweepConfig, SyntheticImages,
};

use crate::mapping::{expect_same_mapping, traced_map, traced_plan};
use crate::offline::DATASET_SEED;
use crate::stats::{expect_eq, nearest_rank, Tally};
use crate::trace::Tracer;
use crate::{derive_seed, ratio, Sim, Workload};

/// Shared inference rounds the cold-started tenants serve, outside the
/// timed phase, to price the placement on the simulated fabric.
const FIRST_ROUNDS: usize = 16;
/// NeuroCell sizes of the mixed multi-tenant pool: four 64-cells and one
/// 32-pair.
const MIXED_POOL: [usize; 6] = [64, 64, 64, 64, 32, 32];

pub enum Output {
    Map(Mapping),
    Multi(Vec<PlacementRequest>, BatchPlacement),
}

pub struct ColdStart {
    seed: u64,
    config: ResparcConfig,
    benchmarks: Vec<Benchmark>,
    tenants: Vec<Network>,
    pool: FabricPool,
    placer_seed: u64,
    /// The first mapping of each topology; every re-map must equal it.
    first: Vec<Option<Mapping>>,
    /// The first multi-tenant placement; every re-placement must admit
    /// the same tenants.
    first_placed: Option<BatchPlacement>,
}

fn admits(p: &BatchPlacement) -> Vec<bool> {
    p.admitted.iter().map(Option::is_some).collect()
}

impl ColdStart {
    fn requests(&self) -> Result<Vec<PlacementRequest>, String> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, net)| PlacementRequest::from_network(&self.pool, net, &format!("tenant{i}")))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())
    }

    fn placer(&self, strategy: PlacementStrategy) -> BatchPlacer {
        BatchPlacer::new(strategy).with_seed(self.placer_seed)
    }
}

impl Workload for ColdStart {
    type Output = Output;

    fn setup(seed: u64) -> Self {
        let benchmarks = all_benchmarks();
        let (tenants, _) = packing_scenario();
        let pool = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &MIXED_POOL)
            .with_policy(PackingPolicy::FirstFit);
        Self {
            seed,
            config: ResparcConfig::resparc_64(),
            first: vec![None; benchmarks.len()],
            benchmarks,
            tenants,
            pool,
            placer_seed: derive_seed(seed, 0),
            first_placed: None,
        }
    }

    /// Every topology once, then the multi-tenant placement.
    fn cycle(&self) -> usize {
        self.benchmarks.len() + 1
    }

    /// Each topology, and the multi-tenant placement, is a kind of its
    /// own: their costs differ up to fivefold.
    fn kinds(&self) -> usize {
        self.cycle()
    }

    fn op(&self, k: usize) -> Result<Output, String> {
        match self.benchmarks.get(k % self.cycle()) {
            Some(b) => {
                let mapping = Mapper::new(self.config.clone())
                    .map(&b.topology)
                    .map_err(|e| e.to_string())?;
                mapping.replay_plan();
                Ok(Output::Map(mapping))
            }
            None => {
                let requests = self.requests()?;
                let placed = self
                    .placer(PlacementStrategy::Optimized)
                    .place(&self.pool, &requests);
                Ok(Output::Multi(requests, placed))
            }
        }
    }

    /// One network mapped per topology operation; the multi-tenant
    /// operation maps each of its tenants.
    fn units(&self, out: &Output) -> usize {
        match out {
            Output::Map(_) => 1,
            Output::Multi(requests, _) => requests.len(),
        }
    }

    fn check(&mut self, k: usize, out: &Output) -> Result<(), String> {
        let topology = k % self.cycle();
        match out {
            Output::Map(m) => match &self.first[topology] {
                Some(first) => {
                    expect_eq("re-mapped partitions", &m.partitions, &first.partitions)?;
                    expect_eq("re-mapped placement", &m.placement, &first.placement)
                }
                None => {
                    self.first[topology] = Some(m.clone());
                    Ok(())
                }
            },
            Output::Multi(_, placed) => match &self.first_placed {
                Some(first) => expect_eq("re-placed admits", &admits(placed), &admits(first)),
                None => {
                    self.first_placed = Some(placed.clone());
                    Ok(())
                }
            },
        }
    }

    fn finish(&mut self, tally: &mut Tally) -> Sim {
        let Some(placed) = &self.first_placed else {
            tally.record("multi-tenant coverage", Err("never placed".to_string()));
            return Sim::default();
        };
        let optimized = placed.admitted_count();
        let greedy = self.requests().map(|r| {
            self.placer(PlacementStrategy::Greedy)
                .place(&self.pool, &r)
                .admitted_count()
        });
        tally.record(
            "optimized admits at least greedy",
            greedy.and_then(|g| {
                if optimized >= g {
                    Ok(())
                } else {
                    Err(format!("optimized admitted {optimized} < greedy {g}"))
                }
            }),
        );
        let mut ncs = 0.0;
        for (b, first) in self.benchmarks.iter().zip(&self.first) {
            match first {
                Some(m) => ncs += m.placement.ncs_used as f64,
                None => tally.record("topology coverage", Err(format!("{} never mapped", b.name))),
            }
        }

        // The admitted tenants serve their first shared rounds on the
        // placed pool, each round on fresh seeded images.
        let images = SyntheticImages::new(DatasetKind::Mnist, 12, DATASET_SEED);
        let first_image = derive_seed(self.seed, 1) >> 24;
        let cfg = SweepConfig::rate(20, 0.8, derive_seed(self.seed, 2));
        let shared = SharedEventSimulator::new(&placed.pool);
        let (mut energy_nj, mut makespan_ms, mut latencies_us) = (0.0, 0.0, Vec::new());
        for round in 0..FIRST_ROUNDS {
            let traces: Vec<_> = placed
                .admitted
                .iter()
                .enumerate()
                .filter_map(|(i, id)| Some((i, (*id)?)))
                .map(|(i, id)| {
                    let sample = round * self.tenants.len() + i;
                    let image = images.sample(sample % 10, first_image + sample as u64);
                    let raster = cfg.encode_sample(sample, &image);
                    (id, SnnRunner::new(&self.tenants[i]).run_traced(&raster).1)
                })
                .collect();
            let pairs: Vec<_> = traces.iter().map(|(id, t)| (*id, t)).collect();
            let report = shared.run(&pairs);
            energy_nj += report.total_energy().nanojoules();
            makespan_ms += report.latency.nanoseconds() * 1e-6;
            latencies_us.extend(report.tenants.iter().map(|t| t.latency.microseconds()));
        }
        let inferences = latencies_us.len().max(1) as f64;
        let latency_us = latencies_us.iter().sum::<f64>() / inferences;
        latencies_us.sort_by(f64::total_cmp);
        Sim {
            energy_nj_per_inf: energy_nj / inferences,
            latency_us_per_inf: latency_us,
            p99_us: nearest_rank(&latencies_us, 99.0),
            goodput_per_ms: ratio(inferences, makespan_ms),
            ncs_used: ncs,
            tenants_admitted: optimized as f64,
        }
    }

    fn traced_setup(&self, seed: u64, t: &Tracer) -> Result<(), String> {
        let again = t.span("setup", || Self::setup(seed));
        expect_eq("placer seed", &again.placer_seed, &self.placer_seed)
    }

    fn traced_op(&self, k: usize, out: &Output, t: &Tracer) -> Result<(), String> {
        match out {
            Output::Map(m) => {
                let b = &self.benchmarks[k % self.cycle()];
                let mapped = t.span("cold_map", || traced_map(t, &b.topology, &self.config));
                expect_same_mapping(&mapped, m)?;
                t.span("cold_map", || traced_plan(t, m))
            }
            Output::Multi(requests, placed) => {
                // Probe every tenant on every size class of the pool, as
                // `PlacementRequest::from_network` does, then place the
                // untraced call's requests.
                for (net, request) in self.tenants.iter().zip(requests) {
                    for size in self.pool.size_classes() {
                        let cfg = self.pool.class_config(size);
                        let mapped = t.span("multi_tenant", || traced_map(t, net.topology(), &cfg));
                        let probe = request
                            .probes()
                            .iter()
                            .find(|p| p.config.mca_size == size)
                            .ok_or(format!("no probe at MCA size {size}"))?;
                        expect_same_mapping(&mapped, probe)?;
                    }
                }
                let again = t.span("multi_tenant", || {
                    t.span("BatchPlacer::place", || {
                        self.placer(PlacementStrategy::Optimized)
                            .place(&self.pool, requests)
                    })
                });
                t.count("evaluations", again.evaluations as f64);
                t.count("admitted", again.admitted_count() as f64);
                t.count("requests", requests.len() as f64);
                expect_eq("traced admits", &admits(&again), &admits(placed))?;
                expect_eq("traced bus trips", &again.bus_trips, &placed.bus_trips)?;
                expect_eq("traced fragments", &again.fragments, &placed.fragments)
            }
        }
    }
}
