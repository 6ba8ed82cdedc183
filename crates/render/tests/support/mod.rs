//! Strategies, fixtures and helpers shared by the render property tests.
//! Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use proptest::prelude::*;
use rtgs_math::{Quat, Vec3};
use rtgs_render::{
    compute_loss, Gaussian3d, GaussianScene, Image, LossConfig, PinholeCamera, PixelGrads,
    RenderOutput,
};

/// A random Gaussian in front of the camera, with arbitrary rotation,
/// opacity and color.
pub fn arb_gaussian() -> impl Strategy<Value = Gaussian3d> {
    (
        (-0.9f32..0.9, -0.7f32..0.7, 0.4f32..5.0),
        (0.02f32..0.6),
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

/// A random scene of 1–39 Gaussians.
pub fn arb_scene() -> impl Strategy<Value = GaussianScene> {
    prop::collection::vec(arb_gaussian(), 1..40).prop_map(GaussianScene::from_gaussians)
}

/// The 48×36 camera the property tests render through.
pub fn camera() -> PinholeCamera {
    PinholeCamera::from_fov(48, 36, 1.2)
}

/// Non-trivial pixel gradients derived from the rendered image (so the
/// backward pass exercises color, depth and transmittance channels).
pub fn pixel_grads_from(output: &RenderOutput, cam: &PinholeCamera) -> PixelGrads {
    let gt = Image::new(cam.width, cam.height);
    compute_loss(output, &gt, None, &LossConfig::default()).pixel_grads
}

/// A fixed diagonal row of 30 Gaussians with every third one masked off:
/// the masked (pruned) case of the bitwise contracts.
pub fn masked_row_scene() -> (GaussianScene, Vec<bool>) {
    let gaussians: Vec<Gaussian3d> = (0..30)
        .map(|i| {
            Gaussian3d::from_activated(
                Vec3::new(
                    (i as f32 * 0.07) - 1.0,
                    (i as f32 * 0.031) - 0.45,
                    1.5 + i as f32 * 0.1,
                ),
                Vec3::splat(0.2),
                Quat::IDENTITY,
                0.7,
                Vec3::new(0.9, 0.4, 0.2),
            )
        })
        .collect();
    let scene = GaussianScene::from_gaussians(gaussians);
    let mask = (0..scene.len()).map(|i| i % 3 != 0).collect();
    (scene, mask)
}
