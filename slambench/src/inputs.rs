//! Inputs derived from the workload seed.
//!
//! Each session plays a fixed scene of its dataset analog (scene `i` of a
//! workload is the same for every seed, as a dataset's named scenes are);
//! the seed drives the camera's handheld jitter along the trajectory and,
//! for serving, the arrival schedule. The program sees only the generated
//! frames.

use rtgs_scene::{DatasetProfile, SyntheticDataset};

/// SplitMix64: a small, fast, seeded generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in [0, 1).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generates scene `scene` of `profile` with `frames` frames, its
/// trajectory jitter seeded from `seed`.
pub fn dataset(profile: &DatasetProfile, frames: usize, scene: u64, seed: u64) -> SyntheticDataset {
    let mut profile = profile.clone();
    profile.trajectory.seed = SplitMix(seed ^ scene.rotate_left(32)).next_u64();
    SyntheticDataset::generate_scene_variant(profile, frames, scene)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_jitter() {
        let profile = DatasetProfile::tum_analog().tiny();
        let a = dataset(&profile, 3, 1, 7);
        let b = dataset(&profile, 3, 1, 7);
        let c = dataset(&profile, 3, 1, 8);
        assert_eq!(a.poses_c2w, b.poses_c2w);
        assert_ne!(a.poses_c2w, c.poses_c2w);
        assert_eq!(a.reference_scene.len(), c.reference_scene.len());
    }

    #[test]
    fn uniform_stays_in_range_with_mean_near_half() {
        let mut rng = SplitMix(42);
        let draws: Vec<f64> = (0..20_000).map(|_| rng.uniform()).collect();
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean drifted: {mean}");
    }
}
