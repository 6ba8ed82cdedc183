//! Property tests: the SoA render kernels and the fused tile pass are
//! bitwise-identical to the seed's array-of-structs path.
//!
//! Two contracts over random scenes:
//!
//! 1. **AoS == fused** — images, depth maps, transmittance, workloads and
//!    gradients from the preserved per-Gaussian reference pipeline
//!    (`rtgs_render::reference`, whose backward re-walks every pixel's
//!    splat list) match the fused tile pass (forward records fragment
//!    sequences, backward consumes them) bit for bit.
//! 2. **plain forward == fused forward** — the non-recording render
//!    instantiation (`render_frame_with`, used for PSNR and dataset ground
//!    truth) produces the fused pass's output bit for bit.
//!
//! Parallel == serial for the fused pipeline is covered by
//! `backend_equivalence.rs`.

mod support;

use proptest::prelude::*;
use rtgs_math::{Se3, Vec3};
use rtgs_render::{reference, render_frame_fused_with, render_frame_with};
use rtgs_runtime::Serial;
use support::{arb_scene, camera, masked_row_scene, pixel_grads_from};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The fused SoA pipeline reproduces the AoS reference pipeline bit for
    /// bit: same image, depth map, transmittance, per-pixel workloads,
    /// stats, per-Gaussian gradients and pose tangent.
    #[test]
    fn soa_matches_aos_bitwise(
        scene in arb_scene(),
        t in prop::array::uniform3(-0.2f32..0.2),
    ) {
        let cam = camera();
        let pose = Se3::from_translation(Vec3::new(t[0], t[1], t[2]));

        let (aos_proj, aos_tiles, aos_out) =
            reference::render_frame_aos(&scene, &pose, &cam, None);
        let ctx = render_frame_fused_with(&scene, &pose, &cam, None, &Serial);

        // Forward equivalence.
        prop_assert_eq!(aos_proj.visible_count(), ctx.projection.visible_count());
        prop_assert_eq!(aos_proj.culled, ctx.projection.culled);
        prop_assert_eq!(&aos_out.image, &ctx.output.image);
        prop_assert_eq!(&aos_out.depth, &ctx.output.depth);
        prop_assert_eq!(&aos_out.final_transmittance, &ctx.output.final_transmittance);
        prop_assert_eq!(&aos_out.pixel_workloads, &ctx.output.pixel_workloads);
        prop_assert_eq!(aos_out.stats, ctx.output.stats);

        // Tile lists agree once slots are mapped back to Gaussian IDs.
        for tile in 0..aos_tiles.tile_lists.len() {
            prop_assert_eq!(
                &aos_tiles.tile_lists[tile],
                &ctx.tiles.tile_gaussian_ids(tile)
            );
        }

        // Backward equivalence (same upstream gradients on both paths).
        let grads = pixel_grads_from(&ctx.output, &cam);
        let aos_back = reference::backward_aos(&scene, &aos_proj, &aos_tiles, &cam, &pose, &grads);
        let soa_back = ctx.backward(&scene, &cam, &pose, &grads, &Serial);
        prop_assert_eq!(&aos_back.gaussians, &soa_back.gaussians);
        prop_assert_eq!(aos_back.pose, soa_back.pose);
        prop_assert_eq!(
            aos_back.stats.fragment_grad_events,
            soa_back.stats.fragment_grad_events
        );
        prop_assert_eq!(
            aos_back.stats.gaussians_touched,
            soa_back.stats.gaussians_touched
        );
    }

    /// The non-recording render instantiation matches the fused forward
    /// pass bit for bit, and the fused pass caches exactly the fragments
    /// it blended.
    #[test]
    fn plain_forward_matches_fused_forward(
        scene in arb_scene(),
        t in prop::array::uniform3(-0.2f32..0.2),
    ) {
        let cam = camera();
        let pose = Se3::from_translation(Vec3::new(t[0], t[1], t[2]));

        let plain = render_frame_with(&scene, &pose, &cam, None, &Serial);
        let fused = render_frame_fused_with(&scene, &pose, &cam, None, &Serial);
        prop_assert_eq!(&plain.output.image, &fused.output.image);
        prop_assert_eq!(&plain.output.depth, &fused.output.depth);
        prop_assert_eq!(
            &plain.output.final_transmittance,
            &fused.output.final_transmittance
        );
        prop_assert_eq!(&plain.output.pixel_workloads, &fused.output.pixel_workloads);
        prop_assert_eq!(plain.output.stats, fused.output.stats);
        prop_assert_eq!(
            fused.fragments.total_fragments(),
            plain.output.stats.fragments_blended
        );
    }
}

/// Masked (pruned) scenes follow the same AoS == fused contract.
#[test]
fn masked_scene_equivalence() {
    let (scene, mask) = masked_row_scene();
    let cam = camera();
    let pose = Se3::IDENTITY;

    let (aos_proj, aos_tiles, aos_out) =
        reference::render_frame_aos(&scene, &pose, &cam, Some(&mask));
    let fused = render_frame_fused_with(&scene, &pose, &cam, Some(&mask), &Serial);
    assert_eq!(aos_proj.masked, fused.projection.masked);
    assert_eq!(aos_out.image, fused.output.image);
    let plain = render_frame_with(&scene, &pose, &cam, Some(&mask), &Serial);
    assert_eq!(plain.output.image, fused.output.image);

    let grads = pixel_grads_from(&fused.output, &cam);
    let aos_back = reference::backward_aos(&scene, &aos_proj, &aos_tiles, &cam, &pose, &grads);
    let fused_back = fused.backward(&scene, &cam, &pose, &grads, &Serial);
    assert_eq!(aos_back.gaussians, fused_back.gaussians);
    assert_eq!(aos_back.pose, fused_back.pose);
}
