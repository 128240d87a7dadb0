//! The mapper's public steps, made one by one inside spans, and the
//! checks that they reproduce what `Mapper` returned.

use resparc_core::map::partition::partition_layer;
use resparc_core::map::{place_with_origin, LayerPartition, Mapping, PartitionOptions, Placement};
use resparc_core::{ReplayPlan, ResparcConfig};
use resparc_neuro::connectivity::ConnectivityMatrix;
use resparc_neuro::topology::Topology;

use crate::stats::expect_eq;
use crate::trace::Tracer;

/// Maps `topology` through the mapper's public steps inside spans:
/// connectivity, partition per layer, then placement.
pub fn traced_map(
    t: &Tracer,
    topology: &Topology,
    config: &ResparcConfig,
) -> (Vec<LayerPartition>, Placement) {
    let opts = PartitionOptions::new(config.mca_size);
    let partitions: Vec<LayerPartition> = topology
        .layers()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let conn = t.span("ConnectivityMatrix::from_layer", || {
                ConnectivityMatrix::from_layer(spec)
            });
            t.count("synapses", conn.synapse_count() as f64);
            let part = t.span("partition_layer", || partition_layer(&conn, i, &opts));
            t.count("tiles", part.tile_count() as f64);
            t.count("partitioned_synapses", part.total_synapses as f64);
            part
        })
        .collect();
    let placement = t.span("place_with_origin", || {
        place_with_origin(&partitions, config, 0)
    });
    (partitions, placement)
}

/// Checks a traced mapping against the mapper's.
pub fn expect_same_mapping(
    traced: &(Vec<LayerPartition>, Placement),
    mapping: &Mapping,
) -> Result<(), String> {
    expect_eq("partitions", &traced.0, &mapping.partitions)?;
    expect_eq("placement", &traced.1, &mapping.placement)
}

/// Compiles `mapping`'s replay plan inside a span (the work
/// `Mapping::replay_plan` does on first use) and checks it equals the
/// plan the mapping itself compiled.
pub fn traced_plan(t: &Tracer, mapping: &Mapping) -> Result<(), String> {
    let plan = t.span("ReplayPlan::compile", || ReplayPlan::compile(mapping));
    t.count("windows", plan.window_count() as f64);
    t.count("run_fraction_sum", plan.run_fraction());
    t.count("plans", 1.0);
    expect_eq("replay plan", &plan, &*mapping.replay_plan())
}
