//! The deprecated re-walk entry points — `backward`, `backward_with` and
//! `FrameArena::backward_rewalk` — stay tested until their deprecation
//! window closes (CONTRIBUTING.md "Deprecation window"): each must produce
//! gradients bitwise-identical to its fused replacement,
//! `render_frame_fused_with(..).backward(..)` or `FrameArena::render_fused`
//! followed by `FrameArena::backward_fused`.

mod support;

use proptest::prelude::*;
use rtgs_math::{Se3, Vec3};
use rtgs_render::{
    render_frame_fused_with, render_frame_with, BackwardOutput, FrameArena, GaussianScene,
};
use rtgs_runtime::{Backend, Parallel, Serial};
use support::{arb_scene, camera, pixel_grads_from};

fn assert_same(wrapper: &BackwardOutput, fused: &BackwardOutput, label: &str) {
    assert_eq!(wrapper.gaussians, fused.gaussians, "{label}: gradients");
    assert_eq!(wrapper.pose, fused.pose, "{label}: pose tangent");
    assert_eq!(
        wrapper.stats.fragment_grad_events, fused.stats.fragment_grad_events,
        "{label}: events"
    );
    assert_eq!(
        wrapper.stats.gaussians_touched, fused.stats.gaussians_touched,
        "{label}: touched"
    );
}

/// Runs all three deprecated wrappers on one case and compares each with
/// the fused replacement on `backend`.
#[allow(deprecated)]
fn check_wrappers(scene: &GaussianScene, pose: &Se3, mask: Option<&[bool]>, backend: &dyn Backend) {
    let cam = camera();
    // The wrappers take an unfused projection + tile assignment.
    let plain = render_frame_with(scene, pose, &cam, mask, backend);
    let grads = pixel_grads_from(&plain.output, &cam);

    let fused = render_frame_fused_with(scene, pose, &cam, mask, backend)
        .backward(scene, &cam, pose, &grads, backend);

    let (projection, tiles) = (&plain.projection, &plain.tiles);
    let serial = rtgs_render::backward(scene, projection, tiles, &cam, pose, &grads);
    assert_same(&serial, &fused, "backward");
    let with = rtgs_render::backward_with(scene, projection, tiles, &cam, pose, &grads, backend);
    assert_same(&with, &fused, "backward_with");

    let mut arena = FrameArena::new();
    arena.project(scene, pose, &cam, mask, backend);
    arena.assign_tiles(&cam, backend);
    arena.backward_rewalk(scene, &cam, pose, &grads, backend);
    assert_same(arena.backward(), &fused, "FrameArena::backward_rewalk");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn deprecated_backward_wrappers_match_fused_bitwise(
        scene in arb_scene(),
        t in prop::array::uniform3(-0.2f32..0.2),
        mask_kind in 0usize..2,
    ) {
        let pose = Se3::from_translation(Vec3::new(t[0], t[1], t[2]));
        let mask: Vec<bool> = (0..scene.len()).map(|i| i % 3 != 0).collect();
        let mask = (mask_kind == 1).then_some(mask.as_slice());
        check_wrappers(&scene, &pose, mask, &Serial);
        check_wrappers(&scene, &pose, mask, &Parallel::new(3));
    }
}
