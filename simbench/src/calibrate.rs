//! Host-speed calibration.
//!
//! The shared VM the benchmark runs on slows down by 1.4x to 1.7x for
//! seconds to minutes at a time as other tenants come and go: the same
//! code read 106 to 174 ms per `cold_start` operation across one ten-run
//! set. A fixed reference kernel, timed after each operation, slows down
//! with it: sorting 256 Ki fixed `u64` keys (2 MiB, branchy,
//! cache-resident). Each host time is scaled by the reference kernel's
//! time around it, so the host-time metrics read as if the host ran at the
//! speed where one sort takes [`REFERENCE_SORT_MS`]. In two ten-run sets
//! of `cold_start` that cut the spread of `op_p50_ms` from 0.46 and 0.19
//! as measured to 0.033 and 0.032.
//!
//! The kernel is fixed here and runs no simulator code, so a change to the
//! simulator moves the scaled times as it moves wall times measured at one
//! host speed.

use std::time::Instant;

use crate::derive_seed;
use crate::stats::median;

/// Keys sorted by one calibration sample.
const KEYS: usize = 256 << 10;
/// Samples on each side of a measurement whose median sets the host speed
/// it is scaled by.
const HALF_WINDOW: usize = 5;
/// Median time of one calibration sort when the host is quiet: the speed
/// the host-time metrics are reported at.
pub const REFERENCE_SORT_MS: f64 = 5.0;

pub struct Calibration {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    sort_ms: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        let keys: Vec<u64> = (0..KEYS as u64).map(|i| derive_seed(0xCA1B, i)).collect();
        Self {
            scratch: keys.clone(),
            keys,
            sort_ms: Vec::new(),
        }
    }
}

impl Calibration {
    /// Times one sort of the fixed keys. The buffer is reused, so no
    /// sample allocates or faults in fresh pages.
    pub fn sample(&mut self) {
        self.scratch.copy_from_slice(&self.keys);
        let t0 = Instant::now();
        self.scratch.sort_unstable();
        self.sort_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&self.scratch);
    }

    /// Median sort time of the samples so far, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.sort_ms)
    }

    /// Each of `ms` at the reference speed. `ms[i]` was measured just
    /// before sample `i`, and the host speed it is scaled by is the median
    /// of the samples within [`HALF_WINDOW`] of it, so a slowdown that
    /// lasts only part of a run is taken out where it happened.
    pub fn to_reference(&self, ms: &[f64]) -> Vec<f64> {
        ms.iter()
            .enumerate()
            .map(|(i, &m)| {
                let lo = i.saturating_sub(HALF_WINDOW);
                let hi = (i + HALF_WINDOW + 1).min(self.sort_ms.len());
                match self.sort_ms.get(lo..hi).map(median) {
                    Some(sort) if sort > 0.0 => m * REFERENCE_SORT_MS / sort,
                    _ => m,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_sorts_the_fixed_keys() {
        let mut c = Calibration::default();
        c.sample();
        assert_eq!(c.sort_ms.len(), 1);
        assert!(c.scratch.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn each_measurement_is_scaled_by_the_samples_around_it() {
        // The host runs at reference speed, then at half speed.
        let mut sort_ms = vec![REFERENCE_SORT_MS; 20];
        sort_ms.extend([2.0 * REFERENCE_SORT_MS; 20]);
        let c = Calibration {
            sort_ms,
            ..Calibration::default()
        };
        let scaled = c.to_reference(&[10.0; 40]);
        assert_eq!(scaled[0], 10.0);
        assert_eq!(scaled[14], 10.0);
        assert_eq!(scaled[25], 5.0);
        assert_eq!(scaled[39], 5.0);
        // No samples: left as measured.
        assert_eq!(Calibration::default().to_reference(&[3.0]), vec![3.0]);
    }
}
