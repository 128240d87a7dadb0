//! Exact oracle for the mapper: the ordered-map partitioner the mapper
//! used before row slots and the dense closed form, kept verbatim as test
//! code. Every `Mapping` the mapper builds must equal, field for field,
//! what this oracle partitions and `place_with_origin` places.

use proptest::prelude::*;
use resparc_suite::resparc_core::map::partition::{
    LayerPartition, PartitionOptions, Tile, TileColumnDetail, TileDetail,
};
use resparc_suite::resparc_core::map::{place_with_origin, Mapper, Mapping};
use resparc_suite::resparc_core::sim::cost::device_footprint;
use resparc_suite::resparc_core::ResparcConfig;
use resparc_suite::resparc_neuro::connectivity::ConnectivityMatrix;
use resparc_suite::resparc_neuro::topology::{ChannelTable, LayerSpec, Padding, Shape, Topology};
use resparc_suite::resparc_workloads::{all_benchmarks, mnist_cnn};

/// The reference partitioner: one `BTreeMap` row lookup per synapse and
/// a connectivity matrix for every layer, dense or not.
mod oracle {
    use super::*;

    /// Mutable state of the tile currently being filled.
    struct OpenTile {
        /// Map from global input id to row slot. Ordered so every walk of
        /// the tile state is deterministic by construction (tiles hold at
        /// most `mca_size` entries; the BTree cost is negligible).
        row_of: std::collections::BTreeMap<u32, u32>,
        row_inputs: Vec<u32>,
        columns: Vec<TileColumnDetail>,
        synapses: u32,
        /// Row budget consumed if input sharing is disabled.
        private_rows: u32,
    }

    impl OpenTile {
        fn new() -> Self {
            Self {
                row_of: std::collections::BTreeMap::new(),
                row_inputs: Vec::new(),
                columns: Vec::new(),
                synapses: 0,
                private_rows: 0,
            }
        }

        fn is_empty(&self) -> bool {
            self.columns.is_empty()
        }

        /// Rows that would be occupied after adding `inputs`, under the given
        /// sharing rule.
        fn rows_after(&self, inputs: &[u32], sharing: bool) -> u32 {
            if sharing {
                let new = inputs
                    .iter()
                    .filter(|i| !self.row_of.contains_key(i))
                    .count() as u32;
                self.row_inputs.len() as u32 + new
            } else {
                self.private_rows + inputs.len() as u32
            }
        }

        fn push_column(
            &mut self,
            output: u32,
            chunk: u32,
            inputs: &[u32],
            weight_ids: &[u32],
            sharing: bool,
            record: bool,
        ) {
            let mut synapses = Vec::new();
            for (&i, &w) in inputs.iter().zip(weight_ids) {
                let slot = if sharing {
                    *self.row_of.entry(i).or_insert_with(|| {
                        self.row_inputs.push(i);
                        (self.row_inputs.len() - 1) as u32
                    })
                } else {
                    self.row_inputs.push(i);
                    self.private_rows += 1;
                    (self.row_inputs.len() - 1) as u32
                };
                if record {
                    synapses.push((slot, w));
                }
            }
            if !sharing {
                // Without sharing, row_of is unused; private_rows already
                // advanced inside the loop via push.
                self.private_rows = self.row_inputs.len() as u32;
            }
            self.synapses += inputs.len() as u32;
            self.columns.push(TileColumnDetail {
                output,
                chunk,
                synapses,
            });
        }

        fn close(
            self,
            layer: usize,
            chunk_phase: u32,
            record: bool,
        ) -> (Tile, Vec<u32>, Option<TileDetail>) {
            let tile = Tile {
                layer,
                chunk: chunk_phase,
                rows: self.row_inputs.len() as u32,
                cols: self.columns.len() as u32,
                synapses: self.synapses,
            };
            let detail = record.then(|| TileDetail {
                row_inputs: self.row_inputs.clone(),
                columns: self.columns,
            });
            (tile, self.row_inputs, detail)
        }
    }

    /// Partitions one layer's connectivity matrix into tiles.
    ///
    /// # Panics
    ///
    /// Panics if `options.mca_size` is zero. Internal invariant violations
    /// (synapse under/over-coverage) also panic — they would indicate a
    /// partitioning bug, never bad user input.
    pub fn partition_layer(
        conn: &ConnectivityMatrix,
        layer: usize,
        options: &PartitionOptions,
    ) -> LayerPartition {
        let n = options.mca_size;
        assert!(n > 0, "MCA size must be non-zero");
        let outputs = conn.outputs();

        // Multiplexing degree per output.
        let mut max_degree = 0u32;
        let mut degree_sum = 0u64;
        for o in 0..outputs {
            let d = (conn.fan_in(o)).div_ceil(n).max(1) as u32;
            max_degree = max_degree.max(d);
            degree_sum += d as u64;
        }

        let mut tiles = Vec::new();
        let mut tile_rows: Vec<Vec<u32>> = Vec::new();
        let mut details: Vec<TileDetail> = Vec::new();

        // Pack outputs whose receptive fields overlap into the same tile:
        // ordering by first input id clusters the same spatial position
        // across feature maps (identical or near-identical input sets), which
        // is what makes input sharing effective for convolutions. Dense
        // layers are unaffected (every output starts at input 0).
        let mut order: Vec<u32> = (0..outputs as u32).collect();
        order.sort_by_key(|&o| (conn.inputs_of(o as usize).first().copied().unwrap_or(0), o));

        // Chunk-major sweep: phase k packs the k-th fan-in chunk of every
        // output that has one. Dense layers degenerate to grid tiling because
        // chunk k of every output covers the identical row window.
        for k in 0..max_degree as usize {
            let mut open = OpenTile::new();
            for &o in &order {
                let o = o as usize;
                let ins = conn.inputs_of(o);
                let wids = conn.weight_ids_of(o);
                let start = k * n;
                if start >= ins.len() {
                    continue;
                }
                let end = (start + n).min(ins.len());
                let chunk_inputs = &ins[start..end];
                let chunk_wids = &wids[start..end];

                let fits_rows = open.rows_after(chunk_inputs, options.input_sharing) <= n as u32;
                let fits_cols = (open.columns.len() as u32) < n as u32;
                if !(open.is_empty() || (fits_rows && fits_cols)) {
                    let (tile, rows, detail) = std::mem::replace(&mut open, OpenTile::new()).close(
                        layer,
                        k as u32,
                        options.record_details,
                    );
                    tiles.push(tile);
                    tile_rows.push(rows);
                    if let Some(d) = detail {
                        details.push(d);
                    }
                }
                open.push_column(
                    o as u32,
                    k as u32,
                    chunk_inputs,
                    chunk_wids,
                    options.input_sharing,
                    options.record_details,
                );
                debug_assert!(
                    open.row_inputs.len() <= n,
                    "tile row overflow: {} > {n}",
                    open.row_inputs.len()
                );
            }
            if !open.is_empty() {
                let (tile, rows, detail) = open.close(layer, k as u32, options.record_details);
                tiles.push(tile);
                tile_rows.push(rows);
                if let Some(d) = detail {
                    details.push(d);
                }
            }
        }

        let total_synapses: u64 = tiles.iter().map(|t| t.synapses as u64).sum();
        assert_eq!(
            total_synapses,
            conn.synapse_count() as u64,
            "partition must cover every synapse exactly once"
        );

        debug_assert!(tiles
            .iter()
            .zip(&tile_rows)
            .all(|(t, r)| t.rows as usize == r.len()));
        LayerPartition {
            layer,
            tiles,
            tile_rows,
            details: options.record_details.then_some(details),
            max_degree,
            mean_degree: if outputs == 0 {
                0.0
            } else {
                degree_sum as f64 / outputs as f64
            },
            inputs: conn.inputs() as u32,
            outputs: outputs as u32,
            total_synapses,
            sparse: conn.density() < 0.999,
        }
    }
}

const SIZES: [usize; 4] = [16, 32, 64, 128];

fn mapper(size: usize, sharing: bool, details: bool) -> Mapper {
    let mut m = Mapper::new(ResparcConfig::with_mca_size(size));
    if !sharing {
        m = m.without_input_sharing();
    }
    if details {
        m = m.with_details();
    }
    m
}

fn connectivity(topology: &Topology) -> Vec<ConnectivityMatrix> {
    topology
        .layers()
        .iter()
        .map(ConnectivityMatrix::from_layer)
        .collect()
}

/// Partitions `conns` (the matrices of `topology`'s layers) with the
/// oracle and places them, then checks the mapper's own mapping under
/// the same settings equals the result.
fn assert_matches_oracle(
    topology: &Topology,
    conns: &[ConnectivityMatrix],
    size: usize,
    sharing: bool,
    details: bool,
) {
    let mapping: Mapping = mapper(size, sharing, details).map(topology).unwrap();
    let mut opts = PartitionOptions::new(size);
    opts.input_sharing = sharing;
    opts.record_details = details;
    let partitions: Vec<LayerPartition> = conns
        .iter()
        .enumerate()
        .map(|(i, conn)| oracle::partition_layer(conn, i, &opts))
        .collect();
    let placement = place_with_origin(&partitions, &mapping.config, 0);
    let case = format!("size {size}, sharing {sharing}, details {details}");
    assert_eq!(partitions.len(), mapping.partitions.len(), "{case}");
    for (want, got) in partitions.iter().zip(&mapping.partitions) {
        assert!(
            want == got,
            "{case}: layer {} partition differs from the oracle",
            want.layer
        );
        assert_eq!(
            want.mean_degree.to_bits(),
            got.mean_degree.to_bits(),
            "{case}"
        );
    }
    assert!(placement == mapping.placement, "{case}: placement differs");
}

/// Checks the named Fig. 10 benchmark at every size, with input sharing
/// on and off.
fn assert_benchmark_matches_oracle(name: &str, details: bool) {
    let bench = all_benchmarks().into_iter().find(|b| b.name == name);
    let topology = &bench.expect("known benchmark").topology;
    let conns = connectivity(topology);
    for size in SIZES {
        for sharing in [true, false] {
            assert_matches_oracle(topology, &conns, size, sharing, details);
        }
    }
}

#[test]
fn svhn_mlp_matches_oracle() {
    assert_benchmark_matches_oracle("SVHN-MLP", false);
}

#[test]
fn svhn_cnn_matches_oracle() {
    assert_benchmark_matches_oracle("SVHN-CNN", false);
}

#[test]
fn mnist_mlp_matches_oracle() {
    assert_benchmark_matches_oracle("MNIST-MLP", false);
}

#[test]
fn mnist_cnn_matches_oracle() {
    assert_benchmark_matches_oracle("MNIST-CNN", false);
}

#[test]
fn cifar10_mlp_matches_oracle() {
    assert_benchmark_matches_oracle("CIFAR10-MLP", false);
}

#[test]
fn cifar10_cnn_matches_oracle() {
    assert_benchmark_matches_oracle("CIFAR10-CNN", false);
}

#[test]
fn recorded_details_match_oracle() {
    assert_benchmark_matches_oracle("MNIST-MLP", true);
    assert_benchmark_matches_oracle("MNIST-CNN", true);
}

/// `recommend_mca_size` must rank sizes under the mapper's own settings:
/// a no-sharing mapper ranks by no-sharing footprints.
#[test]
fn recommendation_keeps_mapper_settings() {
    let topology = mnist_cnn().topology;
    let ranking = mapper(64, false, false).recommend_mca_size(&topology, &SIZES);
    let mut expected: Vec<(usize, usize)> = SIZES
        .iter()
        .map(|&size| {
            let m = mapper(size, false, false).map(&topology).unwrap();
            (size, device_footprint(&m.placement, size))
        })
        .collect();
    expected.sort_by_key(|&(_, devices)| devices);
    assert_eq!(ranking, expected);
    // The sharing-on ranking differs, so the settings really mattered.
    assert_ne!(
        ranking,
        mapper(64, true, false).recommend_mca_size(&topology, &SIZES)
    );
}

/// Builds a chained stack from sampled layer descriptors: a spatial
/// prefix (conv with full or banded tables, average pooling) and a dense
/// tail whose widths may be zero, so `Dense { inputs: 0 }` and
/// `Dense { outputs: 0 }` layers appear.
fn random_stack(
    side: usize,
    channels: usize,
    spatial: &[(usize, usize, usize, usize)],
    dense: &[usize],
) -> Topology {
    let mut shape = Shape::new(side, side, channels);
    let mut layers = Vec::new();
    for &(kind, maps, kernel, stride) in spatial {
        let spec = match kind {
            0 | 1 if kernel <= shape.height => LayerSpec::Conv2d {
                input: shape,
                maps,
                kernel,
                stride,
                padding: if stride == 1 {
                    Padding::Same
                } else {
                    Padding::Valid
                },
                table: if kind == 0 {
                    ChannelTable::Full
                } else {
                    ChannelTable::Banded { fan: maps.min(2) }
                },
            },
            2 if shape.height >= 2 => LayerSpec::AvgPool {
                input: shape,
                window: 2,
            },
            _ => continue,
        };
        shape = spec.output_shape().unwrap();
        layers.push(spec);
    }
    let mut width = shape.count();
    for &outputs in dense {
        layers.push(LayerSpec::Dense {
            inputs: width,
            outputs,
        });
        width = outputs;
    }
    Topology::new(side * side * channels, layers).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_stacks_match_oracle(
        input in (2usize..10, 1usize..4),
        spatial in collection::vec((0usize..4, 1usize..5, 1usize..4, 1usize..3), 0..3),
        dense in collection::vec(prop_oneof![Just(0usize), 1usize..150], 1..4),
        config in (prop_oneof![Just(16usize), Just(32), Just(64), Just(128)], any::<bool>(), any::<bool>()),
    ) {
        let topology = random_stack(input.0, input.1, &spatial, &dense);
        assert_matches_oracle(&topology, &connectivity(&topology), config.0, config.1, config.2);
    }
}
