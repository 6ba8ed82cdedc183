//! Property tests: rendering through the sharded map store's
//! frustum-culled visible set is bitwise-identical to rendering the flat
//! full scene — forward *and* backward — at pool sizes 1–8.
//!
//! Contracts over random scenes (wide world extents so the shard cull has
//! real work to do), random poses, random tombstone/densify churn and
//! random active masks:
//!
//! 1. **culled-sharded == flat, forward** — image, depth, transmittance,
//!    per-pixel workloads and render stats match bit for bit. The shard
//!    cull may only remove Gaussians the per-Gaussian projection cull
//!    would have removed anyway, and the gathered frame-local order
//!    (ascending stable ID) reproduces the flat enumeration's depth-sort
//!    tie order exactly.
//! 2. **culled-sharded == flat, backward** — per-Gaussian gradients (after
//!    the frame-local → flat index remap) and the pose tangent match bit
//!    for bit.
//! 3. **parallel == serial** — the sharded path on `Parallel` pools of
//!    size 1–8 (cull, projection, render, backward) reproduces the serial
//!    sharded path bitwise.

mod support;

use proptest::prelude::*;
use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::{
    render_frame_fused_with, render_frame_with, Gaussian3d, GaussianGrad, PinholeCamera,
    ShardedScene,
};
use rtgs_runtime::{Backend, Parallel, Serial};
use support::{camera, pixel_grads_from};

/// Gaussians spread over a wide world so several shards exist and a narrow
/// frustum genuinely culls some of them.
fn arb_gaussian() -> impl Strategy<Value = Gaussian3d> {
    (
        (-6.0f32..6.0, -3.0f32..3.0, -4.0f32..9.0),
        (0.02f32..0.5),
        (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0, -2.0f32..2.0),
        0.05f32..0.98,
        (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
    )
        .prop_map(|((x, y, z), s, (ax, ay, az, angle), o, (r, g, b))| {
            Gaussian3d::from_activated(
                Vec3::new(x, y, z),
                Vec3::splat(s),
                Quat::from_axis_angle(Vec3::new(ax, ay, az + 0.1), angle),
                o,
                Vec3::new(r, g, b),
            )
        })
}

/// A sharded map grown through insert/tombstone churn: some Gaussians are
/// tombstoned and some slots recycled, so stable IDs are non-contiguous —
/// the state an evolved SLAM map is in.
fn arb_map() -> impl Strategy<Value = ShardedScene> {
    (
        prop::collection::vec(arb_gaussian(), 4..60),
        prop::collection::vec(0u16..u16::MAX, 0..12),
        prop::collection::vec(arb_gaussian(), 0..10),
        0.3f32..1.8,
    )
        .prop_map(|(initial, tombstones, reinserts, cell_size)| {
            let mut map = ShardedScene::new(cell_size);
            for g in &initial {
                map.insert(*g);
            }
            for &t in &tombstones {
                let id = (t as usize % initial.len()) as u32;
                map.tombstone(id); // repeated tombstones are no-ops
            }
            for g in &reinserts {
                map.insert(*g); // recycles freed IDs first
            }
            map.refresh_bounds();
            map
        })
        .prop_filter("need a non-empty map", |m| !m.is_empty())
}

/// Runs the sharded path (cull → gather → project → fused render →
/// fused backward) and returns the forward output plus the gradients
/// scattered into stable-ID space.
fn run_sharded(
    map: &ShardedScene,
    pose: &Se3,
    cam: &PinholeCamera,
    active: Option<&[bool]>,
    backend: &dyn Backend,
) -> (
    rtgs_render::RenderOutput,
    Vec<GaussianGrad>,
    [f32; 6],
    usize,
) {
    let visible = map.visible_frame_with(pose, cam, active, backend);
    let fused = render_frame_fused_with(&visible.scene, pose, cam, None, backend);
    let grads = pixel_grads_from(&fused.output, cam);
    let back = fused.backward(&visible.scene, cam, pose, &grads, backend);
    let mut by_id = vec![GaussianGrad::default(); map.capacity()];
    for (k, &id) in visible.ids.iter().enumerate() {
        by_id[id as usize] = back.gaussians[k];
    }
    (fused.output, by_id, back.pose, visible.shard_culled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharded + frustum-culled forward/backward output is bitwise-identical
    /// to the flat full-scene reference, including after tombstone/recycle
    /// churn and under a random active mask.
    #[test]
    fn sharded_culled_matches_flat_bitwise(
        map in arb_map(),
        t in prop::array::uniform3(-1.5f32..1.5),
        mask_seed in 0u64..u64::MAX,
    ) {
        let cam = camera();
        let pose = Se3::from_translation(Vec3::new(t[0], t[1], t[2]));

        // Random active mask over live IDs (dead IDs masked off, as the
        // pipeline maintains it).
        let mut mask = map.live_flags().to_vec();
        let mut state = mask_seed | 1;
        for m in mask.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if *m && (state >> 33) & 0x7 == 0 {
                *m = false; // mask ~1/8 of the live set off
            }
        }

        // Flat reference: the live Gaussians in ascending stable-ID order,
        // with the mask gathered into the same flat index space.
        let (flat, flat_ids) = map.flatten();
        let flat_mask: Vec<bool> = flat_ids.iter().map(|&id| mask[id as usize]).collect();
        let flat_ctx = render_frame_fused_with(&flat, &pose, &cam, Some(&flat_mask), &Serial);
        let grads = pixel_grads_from(&flat_ctx.output, &cam);
        let flat_back = flat_ctx.backward(&flat, &cam, &pose, &grads, &Serial);
        let mut flat_by_id = vec![GaussianGrad::default(); map.capacity()];
        for (k, &id) in flat_ids.iter().enumerate() {
            flat_by_id[id as usize] = flat_back.gaussians[k];
        }

        let (out, back_by_id, back_pose, shard_culled) =
            run_sharded(&map, &pose, &cam, Some(&mask), &Serial);

        // Forward: bitwise identity.
        prop_assert_eq!(&flat_ctx.output.image, &out.image);
        prop_assert_eq!(&flat_ctx.output.depth, &out.depth);
        prop_assert_eq!(&flat_ctx.output.final_transmittance, &out.final_transmittance);
        prop_assert_eq!(&flat_ctx.output.pixel_workloads, &out.pixel_workloads);
        prop_assert_eq!(flat_ctx.output.stats, out.stats);

        // Backward: bitwise identity in stable-ID space.
        prop_assert_eq!(&flat_by_id, &back_by_id);
        prop_assert_eq!(flat_back.pose, back_pose);
        let _ = shard_culled;
    }

    /// The sharded path is deterministic across execution backends: pools
    /// of size 1–8 reproduce the serial result bitwise (cull pre-pass,
    /// projection, fused render and fused backward all run on the pool).
    #[test]
    fn sharded_parallel_matches_serial_at_pool_sizes_1_to_8(
        map in arb_map(),
        t in prop::array::uniform3(-1.0f32..1.0),
    ) {
        let cam = camera();
        let pose = Se3::from_translation(Vec3::new(t[0], t[1], t[2]));
        let (out_serial, grads_serial, pose_serial, _) =
            run_sharded(&map, &pose, &cam, None, &Serial);

        for threads in 1..=8usize {
            let backend = Parallel::new(threads);
            let (out, grads, pose_grad, _) = run_sharded(&map, &pose, &cam, None, &backend);
            prop_assert_eq!(&out_serial.image, &out.image, "{} threads: image", threads);
            prop_assert_eq!(&out_serial.depth, &out.depth, "{} threads: depth", threads);
            prop_assert_eq!(
                &out_serial.final_transmittance, &out.final_transmittance,
                "{} threads: transmittance", threads
            );
            prop_assert_eq!(&grads_serial, &grads, "{} threads: gradients", threads);
            prop_assert_eq!(pose_serial, pose_grad, "{} threads: pose tangent", threads);
        }
    }
}

/// A deep map seen down a corridor: most shards sit outside the frustum, so
/// the cull must actually fire — and the rendered result must still match
/// the flat reference bitwise. Guards against the cull silently passing
/// everything (vacuous equivalence).
#[test]
fn corridor_scene_culls_shards_and_stays_bitwise_identical() {
    let mut map = ShardedScene::new(0.8);
    for i in 0..400 {
        let along = (i % 100) as f32 * 0.4;
        let lateral = ((i / 100) as f32 - 1.5) * 0.9;
        map.insert(Gaussian3d::from_activated(
            Vec3::new(lateral, ((i * 13) % 7) as f32 * 0.2 - 0.6, along),
            Vec3::splat(0.08),
            Quat::IDENTITY,
            0.7,
            Vec3::new(0.2 + 0.002 * i as f32, 0.5, 0.9 - 0.002 * i as f32),
        ));
    }
    map.refresh_bounds();
    let cam = camera();
    // Camera mid-corridor looking forward (w2c adds -8 to world z): the
    // entire first half of the corridor sits behind the near plane — none
    // of it can contribute a fragment, but a naive flat render walks it.
    let pose = Se3::from_translation(Vec3::new(0.0, 0.0, -8.0));

    let (flat, _) = map.flatten();
    let flat_ctx = render_frame_with(&flat, &pose, &cam, None, &Serial);
    let (out, _, _, shard_culled) = run_sharded(&map, &pose, &cam, None, &Serial);

    assert!(shard_culled > 0, "corridor test must cull whole shards");
    assert_eq!(flat_ctx.output.image, out.image);
    assert_eq!(flat_ctx.output.depth, out.depth);
    assert_eq!(flat_ctx.output.stats, out.stats);
}
