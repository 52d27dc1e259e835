//! Scheduler simulation parameters (everything that is not part of the machine model).

use serde::{Deserialize, Serialize};

/// Simulation options for one scheduler run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Seed of the pseudo-random number generator driving victim selection. Runs with the
    /// same seed, machine and dag are bit-for-bit reproducible.
    pub seed: u64,
    /// Round every execution-stack segment up to a whole number of blocks. This corresponds
    /// to the "padded" algorithm variants the paper mentions (Remark 4.1): it removes false
    /// sharing between stack segments at the price of extra space, and is used as an ablation.
    pub pad_segments: bool,
    /// Record one [`crate::StealEvent`] per successful steal (time, thief, victim, node).
    pub collect_steal_events: bool,
    /// Track the potential function of Section 5 during the run (adds `O(p + queue length)`
    /// work per sample; samples are taken at every successful steal and at computation-phase
    /// boundaries).
    pub track_potential: bool,
}

impl SimConfig {
    /// Default options with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig { seed, ..Default::default() }
    }

    /// Builder-style: enable segment padding.
    pub fn padded(mut self) -> Self {
        self.pad_segments = true;
        self
    }

    /// Builder-style: record steal events.
    pub fn with_steal_events(mut self) -> Self {
        self.collect_steal_events = true;
        self
    }

    /// Builder-style: enable potential-function tracking.
    pub fn with_potential_tracking(mut self) -> Self {
        self.track_potential = true;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5EED_CAFE,
            pad_segments: false,
            collect_steal_events: false,
            track_potential: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = SimConfig::with_seed(7).padded().with_steal_events().with_potential_tracking();
        assert_eq!(c.seed, 7);
        assert!(c.pad_segments);
        assert!(c.collect_steal_events);
        assert!(c.track_potential);
    }

    #[test]
    fn default_is_unpadded_and_quiet() {
        let c = SimConfig::default();
        assert!(!c.pad_segments);
        assert!(!c.collect_steal_events);
        assert!(!c.track_potential);
    }
}
