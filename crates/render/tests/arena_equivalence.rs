//! Property tests: rendering through a reused [`FrameArena`] — and the
//! CSR + radix tile assignment it rebuilds every iteration — is
//! bitwise-identical to the fresh-allocation entry points.
//!
//! Three contracts over random scenes, cameras and masks:
//!
//! 1. **CSR + radix == legacy per-tile `sort_by`** — the flat tile
//!    assignment's depth ordering (including tie order for duplicated
//!    depths) reproduces the seed's stable per-tile comparison sort
//!    exactly.
//! 2. **arena == fresh across interleavings** — one arena driven through a
//!    randomized sequence of (scene, camera, mask) cases reproduces the
//!    fresh-allocation pipeline bitwise at every step, for the plain
//!    forward, fused forward, and fused backward. Buffer reuse
//!    (stale capacities, stale contents from an unrelated frame) must
//!    never leak into results.
//! 3. **arena == fresh at pool sizes 1–8** — the arena path on `Parallel`
//!    backends reproduces the serial fresh path bitwise.

mod support;

use proptest::prelude::*;
use rtgs_math::{Se3, Vec3};
use rtgs_render::{
    build_tile_lists_legacy, render_frame_fused_with, render_frame_with, FrameArena, GaussianScene,
    Image, LossConfig, PinholeCamera,
};
use rtgs_runtime::{Parallel, Serial};
use support::{arb_gaussian, pixel_grads_from};

/// One pipeline case: a scene, a pose, a camera size and an active mask.
#[derive(Debug, Clone)]
struct Case {
    scene: GaussianScene,
    pose: Se3,
    camera: PinholeCamera,
    mask: Option<Vec<bool>>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(arb_gaussian(), 1..40),
        prop::array::uniform3(-0.2f32..0.2),
        0usize..4,
        0usize..3,
        0usize..97,
    )
        .prop_map(|(gaussians, t, cam_pick, mask_kind, mask_seed)| {
            let n = gaussians.len();
            let (w, h) = [(48usize, 36usize), (32, 32), (64, 48), (16, 16)][cam_pick];
            let mask = match mask_kind {
                0 => None,
                1 => Some((0..n).map(|i| i % 3 != mask_seed % 3).collect()),
                _ => Some((0..n).map(|i| (i * 31 + mask_seed) % 5 != 0).collect()),
            };
            Case {
                scene: GaussianScene::from_gaussians(gaussians),
                pose: Se3::from_translation(Vec3::new(t[0], t[1], t[2])),
                camera: PinholeCamera::from_fov(w, h, 1.2),
                mask,
            }
        })
}

/// Asserts the arena's current stage results equal the fresh pipeline's,
/// for one case on one backend.
fn check_case(arena: &mut FrameArena, case: &Case, backend: &dyn rtgs_runtime::Backend) {
    let Case {
        scene,
        pose,
        camera,
        mask,
    } = case;
    let mask_ref = mask.as_deref();

    // Fresh-allocation references (always serial: the serial fresh path is
    // the canonical bitwise baseline, which parallel must also match).
    let fresh = render_frame_with(scene, pose, camera, mask_ref, &Serial);
    let fused = render_frame_fused_with(scene, pose, camera, mask_ref, &Serial);
    let legacy_lists = build_tile_lists_legacy(&fresh.projection, camera);
    let grads = pixel_grads_from(&fused.output, camera);
    let fused_back = fused.backward(scene, camera, pose, &grads, &Serial);

    // Contract 1: CSR + radix matches the legacy stable per-tile sort.
    assert_eq!(legacy_lists.len(), fresh.tiles.tile_count());
    for (tile, list) in legacy_lists.iter().enumerate() {
        assert_eq!(fresh.tiles.tile(tile), list.as_slice(), "tile {tile}");
    }

    // Contract 2/3: arena (on `backend`) == fresh (serial), plain forward.
    arena.project(scene, pose, camera, mask_ref, backend);
    arena.assign_tiles(camera, backend);
    arena.render(camera, backend);
    assert_eq!(arena.projection().soa, fresh.projection.soa);
    assert_eq!(arena.tiles().entries, fresh.tiles.entries);
    assert_eq!(arena.tiles().offsets, fresh.tiles.offsets);
    assert_eq!(arena.tiles().slot_ids, fresh.tiles.slot_ids);
    assert_eq!(arena.output().image, fresh.output.image);
    assert_eq!(arena.output().depth, fresh.output.depth);
    assert_eq!(
        arena.output().final_transmittance,
        fresh.output.final_transmittance
    );
    assert_eq!(arena.output().pixel_workloads, fresh.output.pixel_workloads);
    assert_eq!(arena.output().stats, fresh.output.stats);

    // Fused forward + fused backward on arena storage.
    arena.render_fused(camera, backend);
    assert_eq!(arena.output().image, fused.output.image);
    assert_eq!(
        arena.fragments().total_fragments(),
        fused.fragments.total_fragments()
    );
    let gt = Image::new(camera.width, camera.height);
    arena.compute_loss(&gt, None, &LossConfig::default());
    assert_eq!(arena.loss().pixel_grads.color, grads.color);
    arena.backward_fused(scene, camera, pose, backend);
    assert_eq!(arena.backward().gaussians, fused_back.gaussians);
    assert_eq!(arena.backward().pose, fused_back.pose);
    assert_eq!(
        arena.backward().stats.fragment_grad_events,
        fused_back.stats.fragment_grad_events
    );
    assert_eq!(
        arena.backward().stats.gaussians_touched,
        fused_back.stats.gaussians_touched
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One arena, reused across a randomized interleaving of scenes,
    /// cameras and masks, reproduces the fresh-allocation pipeline bitwise
    /// at every step (serial backend).
    #[test]
    fn arena_reuse_matches_fresh_across_interleavings(
        cases in prop::collection::vec(arb_case(), 2..5),
    ) {
        let mut arena = FrameArena::new();
        for case in &cases {
            check_case(&mut arena, case, &Serial);
        }
        // Second sweep over the same cases: every buffer now starts from a
        // stale state of the *last* case, not a fresh one.
        for case in cases.iter().rev() {
            check_case(&mut arena, case, &Serial);
        }
    }

    /// The arena path on `Parallel` pools of size 1–8 reproduces the serial
    /// fresh-allocation pipeline bitwise.
    #[test]
    fn arena_matches_fresh_at_all_pool_sizes(case in arb_case()) {
        for threads in 1..=8usize {
            let backend = Parallel::new(threads);
            let mut arena = FrameArena::new();
            check_case(&mut arena, &case, &backend);
            // And again on the warm arena (reused buffers + parallel).
            check_case(&mut arena, &case, &backend);
        }
    }
}
