//! Spiking neuron models.
//!
//! RESPARC interfaces its crossbar columns with Integrate-and-Fire (IF)
//! neurons (paper §2.1): the column current accumulates onto a membrane
//! potential and the neuron emits a spike (and resets) when the potential
//! crosses a threshold. A leaky variant (LIF) is provided for completeness —
//! the paper notes "any spiking neuron can be interfaced with the MCA".
//!
//! # Examples
//!
//! ```
//! use resparc_neuro::neuron::{Membrane, NeuronConfig};
//!
//! let cfg = NeuronConfig::integrate_and_fire(1.0);
//! let mut m = Membrane::new();
//! assert!(!m.step(0.6, &cfg)); // 0.6 < threshold
//! assert!(m.step(0.6, &cfg));  // 1.2 ≥ threshold → spike
//! ```

/// What happens to the membrane potential when a neuron fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResetMode {
    /// Reset the potential to zero (classic IF reset).
    #[default]
    ToZero,
    /// Subtract the threshold, preserving the residue. This is the reset
    /// used for rate-faithful ANN→SNN conversion (Diehl et al. \[4\]).
    Subtract,
}

/// Parameters of a spiking neuron.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuronConfig {
    /// Firing threshold.
    pub threshold: f32,
    /// Reset behaviour on firing.
    pub reset: ResetMode,
    /// Multiplicative membrane leak per timestep (`1.0` = no leak / pure
    /// IF; `0.95` decays 5 % per step).
    pub leak: f32,
    /// Refractory period in timesteps after a spike during which input is
    /// ignored.
    pub refractory: u32,
}

impl NeuronConfig {
    /// A pure Integrate-and-Fire neuron with the given threshold
    /// (subtractive reset, no leak, no refractory period).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not strictly positive and finite.
    pub fn integrate_and_fire(threshold: f32) -> Self {
        assert_valid_threshold(threshold);
        Self {
            threshold,
            reset: ResetMode::Subtract,
            leak: 1.0,
            refractory: 0,
        }
    }

    /// A leaky Integrate-and-Fire neuron.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive or `leak` is outside `(0, 1]`.
    pub fn leaky_integrate_and_fire(threshold: f32, leak: f32) -> Self {
        assert!(
            leak > 0.0 && leak <= 1.0,
            "leak must be in (0, 1], got {leak}"
        );
        let mut cfg = Self::integrate_and_fire(threshold);
        cfg.leak = leak;
        cfg
    }

    /// Returns a copy with the given reset mode.
    pub fn with_reset(mut self, reset: ResetMode) -> Self {
        self.reset = reset;
        self
    }

    /// Returns a copy with the given refractory period.
    pub fn with_refractory(mut self, steps: u32) -> Self {
        self.refractory = steps;
        self
    }
}

/// The IF threshold contract: strictly positive and finite. `Layer`
/// enforces it on every threshold it stores, so [`integrate_fire`] does
/// not re-check it per step.
pub(crate) fn assert_valid_threshold(threshold: f32) {
    assert!(
        threshold > 0.0 && threshold.is_finite(),
        "threshold must be positive and finite, got {threshold}"
    );
}

impl Default for NeuronConfig {
    fn default() -> Self {
        Self::integrate_and_fire(1.0)
    }
}

/// The state of one spiking neuron.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Membrane {
    potential: f32,
    refractory_left: u32,
}

impl Membrane {
    /// A fresh membrane at resting potential.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current membrane potential.
    pub fn potential(&self) -> f32 {
        self.potential
    }

    /// Advances one timestep with the given input current; returns `true`
    /// if the neuron fires.
    pub fn step(&mut self, input: f32, cfg: &NeuronConfig) -> bool {
        if self.refractory_left > 0 {
            self.refractory_left -= 1;
            return false;
        }
        self.potential = self.potential * cfg.leak + input;
        if self.potential >= cfg.threshold {
            match cfg.reset {
                ResetMode::ToZero => self.potential = 0.0,
                ResetMode::Subtract => self.potential -= cfg.threshold,
            }
            self.refractory_left = cfg.refractory;
            true
        } else {
            false
        }
    }

    /// Resets the membrane to the resting state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// One timestep of a bank of pure IF neurons
/// ([`NeuronConfig::integrate_and_fire`]`(threshold)`), 64 neurons per
/// output spike word: bit-identical to [`Membrane::step`] on each neuron,
/// which with leak 1.0 and no refractory period computes `p + c` and
/// subtracts the threshold on a fire.
///
/// The first pass over a block is branch-free (it vectorizes); the second
/// runs only in blocks where some neuron crossed. Returns the fired count
/// and whether any potential is still at or above `threshold`, so a
/// silent next step would fire again.
pub(crate) fn integrate_fire(
    potentials: &mut [f32],
    currents: &[f32],
    threshold: f32,
    words: &mut [u64],
) -> (u64, bool) {
    debug_assert_eq!(potentials.len(), currents.len());
    debug_assert_eq!(words.len(), potentials.len().div_ceil(64));
    let mut fired = 0u64;
    let mut still_above = false;
    for ((block, block_currents), word) in potentials
        .chunks_mut(64)
        .zip(currents.chunks(64))
        .zip(words.iter_mut())
    {
        let mut hits = 0u32;
        for (p, &c) in block.iter_mut().zip(block_currents) {
            let v = *p + c;
            hits += (v >= threshold) as u32;
            *p = v;
        }
        let mut bits = 0u64;
        if hits != 0 {
            for (k, p) in block.iter_mut().enumerate() {
                if *p >= threshold {
                    *p -= threshold;
                    bits |= 1 << k;
                    still_above |= *p >= threshold;
                }
            }
            fired += u64::from(hits);
        }
        *word = bits;
    }
    (fired, still_above)
}

/// A bank of identically-configured neurons stepped together, as the
/// neurons attached to one crossbar's columns are.
#[derive(Debug, Clone)]
pub struct NeuronPool {
    config: NeuronConfig,
    membranes: Vec<Membrane>,
}

impl NeuronPool {
    /// Creates `n` neurons sharing `config`.
    pub fn new(n: usize, config: NeuronConfig) -> Self {
        Self {
            config,
            membranes: vec![Membrane::new(); n],
        }
    }

    /// Number of neurons in the pool.
    pub fn len(&self) -> usize {
        self.membranes.len()
    }

    /// Returns `true` if the pool has no neurons.
    pub fn is_empty(&self) -> bool {
        self.membranes.is_empty()
    }

    /// The shared neuron configuration.
    pub fn config(&self) -> &NeuronConfig {
        &self.config
    }

    /// Membrane potentials, one per neuron.
    pub fn potentials(&self) -> impl Iterator<Item = f32> + '_ {
        self.membranes.iter().map(|m| m.potential)
    }

    /// Steps every neuron with its input current; writes spike flags into
    /// `spikes_out`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `spikes_out` length differs from the pool size.
    pub fn step(&mut self, inputs: &[f32], spikes_out: &mut [bool]) {
        assert_eq!(inputs.len(), self.membranes.len(), "input length mismatch");
        assert_eq!(
            spikes_out.len(),
            self.membranes.len(),
            "output length mismatch"
        );
        for ((m, &i), s) in self
            .membranes
            .iter_mut()
            .zip(inputs)
            .zip(spikes_out.iter_mut())
        {
            *s = m.step(i, &self.config);
        }
    }

    /// Resets every membrane to rest.
    pub fn reset(&mut self) {
        for m in &mut self.membranes {
            m.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn if_neuron_fires_at_threshold() {
        let cfg = NeuronConfig::integrate_and_fire(1.0);
        let mut m = Membrane::new();
        assert!(!m.step(0.5, &cfg));
        assert!(m.step(0.5, &cfg)); // exactly at threshold fires
    }

    #[test]
    fn subtract_reset_preserves_residue() {
        let cfg = NeuronConfig::integrate_and_fire(1.0);
        let mut m = Membrane::new();
        assert!(m.step(1.3, &cfg));
        assert!((m.potential() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn zero_reset_discards_residue() {
        let cfg = NeuronConfig::integrate_and_fire(1.0).with_reset(ResetMode::ToZero);
        let mut m = Membrane::new();
        assert!(m.step(1.3, &cfg));
        assert_eq!(m.potential(), 0.0);
    }

    #[test]
    fn subtract_reset_rate_tracks_input() {
        // With subtractive reset and constant drive I < threshold, the
        // long-run firing rate approaches I / threshold.
        let cfg = NeuronConfig::integrate_and_fire(1.0);
        let mut m = Membrane::new();
        let drive = 0.24;
        let steps = 10_000;
        let mut fired = 0u32;
        for _ in 0..steps {
            if m.step(drive, &cfg) {
                fired += 1;
            }
        }
        let rate = fired as f64 / steps as f64;
        assert!((rate - 0.24).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn leak_decays_potential() {
        let cfg = NeuronConfig::leaky_integrate_and_fire(10.0, 0.5);
        let mut m = Membrane::new();
        m.step(1.0, &cfg);
        m.step(0.0, &cfg);
        assert!((m.potential() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn refractory_blocks_input() {
        let cfg = NeuronConfig::integrate_and_fire(1.0).with_refractory(2);
        let mut m = Membrane::new();
        assert!(m.step(1.5, &cfg));
        // Two refractory steps: large inputs ignored.
        assert!(!m.step(5.0, &cfg));
        assert!(!m.step(5.0, &cfg));
        assert!(m.step(1.0, &cfg));
    }

    #[test]
    fn negative_input_inhibits() {
        let cfg = NeuronConfig::integrate_and_fire(1.0);
        let mut m = Membrane::new();
        m.step(0.8, &cfg);
        m.step(-0.5, &cfg);
        assert!((m.potential() - 0.3).abs() < 1e-6);
        assert!(!m.step(0.6, &cfg));
    }

    #[test]
    fn pool_steps_all_neurons() {
        let cfg = NeuronConfig::integrate_and_fire(1.0);
        let mut pool = NeuronPool::new(3, cfg);
        let mut spikes = [false; 3];
        pool.step(&[1.0, 0.4, 2.0], &mut spikes);
        assert_eq!(spikes, [true, false, true]);
        assert_eq!(pool.len(), 3);
        pool.reset();
        assert!(pool.potentials().all(|p| p == 0.0));
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn pool_rejects_wrong_input_length() {
        let mut pool = NeuronPool::new(2, NeuronConfig::default());
        let mut spikes = [false; 2];
        pool.step(&[1.0], &mut spikes);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn invalid_threshold_panics() {
        let _ = NeuronConfig::integrate_and_fire(0.0);
    }

    /// A potential or current drawn as `(kind, x)`: kinds 0..=5 pick zero,
    /// a ± subnormal, ±inf or NaN; the rest scale `x` by the threshold.
    fn value(kind: u8, x: f32, threshold: f32) -> f32 {
        let subnormal = f32::from_bits((x.to_bits() & 0x007f_ffff).max(1));
        match kind {
            0 => 0.0,
            1 => subnormal,
            2 => -subnormal,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            5 => f32::NAN,
            _ => x * threshold,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The IF bank kernel is bit-identical to stepping each
        /// `Membrane` under `integrate_and_fire(t)`, over carried-over
        /// steps: same spike words, fired count and "still ≥ t" flag, and
        /// bit-equal potentials (or both NaN).
        #[test]
        fn integrate_fire_matches_membrane_step(
            len in prop_oneof![
                Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(127), 0usize..300
            ],
            threshold in prop_oneof![0.01f32..4.0, Just(1.0f32), Just(f32::MIN_POSITIVE)],
            start in collection::vec((0u8..16, -3.0f32..3.0), 300),
            steps in collection::vec(collection::vec((0u8..16, -3.0f32..3.0), 300), 1..5),
        ) {
            let cfg = NeuronConfig::integrate_and_fire(threshold);
            let mut membranes: Vec<Membrane> = start[..len]
                .iter()
                .map(|&(k, x)| Membrane { potential: value(k, x, threshold), refractory_left: 0 })
                .collect();
            let mut potentials: Vec<f32> = membranes.iter().map(Membrane::potential).collect();
            // Stale bits from a previous step must be overwritten.
            let mut words = vec![u64::MAX; len.div_ceil(64)];
            for step in &steps {
                let currents: Vec<f32> =
                    step[..len].iter().map(|&(k, x)| value(k, x, threshold)).collect();
                let mut expect_words = vec![0u64; words.len()];
                let mut expect_fired = 0u64;
                for (o, m) in membranes.iter_mut().enumerate() {
                    if m.step(currents[o], &cfg) {
                        expect_words[o / 64] |= 1 << (o % 64);
                        expect_fired += 1;
                    }
                }
                let (fired, above) =
                    integrate_fire(&mut potentials, &currents, threshold, &mut words);
                prop_assert_eq!(&words, &expect_words);
                prop_assert_eq!(fired, expect_fired);
                prop_assert_eq!(above, membranes.iter().any(|m| m.potential() >= threshold));
                for (o, (p, m)) in potentials.iter().zip(&membranes).enumerate() {
                    let q = m.potential();
                    prop_assert!(
                        p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                        "neuron {o}: kernel {p:e} vs membrane {q:e}"
                    );
                }
            }
        }
    }
}
