//! Differentiable tile-based 3D Gaussian Splatting rasterizer.
//!
//! Implements the five pipeline steps of the paper (Sec. 2.1–2.2):
//!
//! 1. **Preprocessing** ([`project_scene`]) — EWA projection of 3D Gaussians
//!    to 2D splats compacted into a structure-of-arrays layout
//!    ([`ProjectedSoA`]) plus tile intersection ([`TileAssignment`]).
//! 2. **Sorting** — front-to-back depth ordering via a stable radix sort
//!    on the monotone depth key (inside [`TileAssignment::build`]), stored
//!    as flat CSR tile lists.
//! 3. **Rendering** ([`render`]) — per-pixel alpha computing and blending
//!    with early ray termination (Eqs. 2–3), streaming a per-tile gathered
//!    working set. The fused variant ([`render_fused`]) also records every
//!    pixel's fragment sequence for step 4.
//! 4. **Rendering BP** ([`backward_fused_with`]) — loss gradients to
//!    per-Gaussian 2D gradients (Eq. 4), consuming the fused forward's
//!    fragment records: forward and backward share one tile traversal, and
//!    this is the only Step-❹ kernel.
//! 5. **Preprocessing BP** (also in [`backward_fused_with`]) — 2D gradients
//!    to 3D parameter gradients and the camera-pose tangent.
//!
//! The seed's array-of-structs path — including the backward re-walk of
//! every pixel's splat list — survives in [`mod@reference`] as the bitwise
//! ground truth; `tests/soa_equivalence.rs` proves AoS == fused, bit for
//! bit, over random scenes. The analytic backward pass is verified against
//! finite differences in `tests/grad_check.rs`.
//!
//! # Example
//!
//! ```
//! use rtgs_render::{
//!     backward_fused_with, compute_loss, project_scene, render_fused, Gaussian3d,
//!     GaussianScene, Image, LossConfig, PinholeCamera, TileAssignment,
//! };
//! use rtgs_math::{Quat, Se3, Vec3};
//! use rtgs_runtime::Serial;
//!
//! let scene = GaussianScene::from_gaussians(vec![Gaussian3d::from_activated(
//!     Vec3::new(0.0, 0.0, 2.0),
//!     Vec3::splat(0.3),
//!     Quat::IDENTITY,
//!     0.8,
//!     Vec3::new(1.0, 0.2, 0.1),
//! )]);
//! let camera = PinholeCamera::from_fov(64, 48, 1.2);
//! let pose = Se3::IDENTITY; // world-to-camera
//!
//! let projection = project_scene(&scene, &pose, &camera, None);
//! let tiles = TileAssignment::build(&projection, &camera);
//! // The fused render records each pixel's fragments for the backward pass.
//! let fused = render_fused(&projection, &tiles, &camera);
//!
//! let gt = Image::new(64, 48); // all black target
//! let loss = compute_loss(&fused.output, &gt, None, &LossConfig::default());
//! let grads = backward_fused_with(
//!     &scene,
//!     &projection,
//!     &tiles,
//!     &camera,
//!     &pose,
//!     &loss.pixel_grads,
//!     &fused.fragments,
//!     &Serial,
//! );
//! assert_eq!(grads.gaussians.len(), scene.len());
//! ```

mod arena;
mod backward;
mod camera;
mod forward;
mod gaussian;
mod loss;
mod project;
pub mod reference;
mod shard;
mod tiles;
mod trace;

pub use arena::FrameArena;
#[allow(deprecated)] // re-exported until the deprecation window closes
pub use backward::{backward, backward_with};
pub use backward::{backward_fused_with, BackwardOutput, BackwardStats, PixelGrads};
pub use camera::{DepthImage, Image, PinholeCamera};
pub use forward::{
    render, render_fused, render_fused_with, render_with, CachedFragment, FragmentCache,
    FusedRender, RenderOutput, RenderStats, TileFragments, ALPHA_MAX, ALPHA_MIN,
    TERMINATION_THRESHOLD,
};
pub use gaussian::{Gaussian3d, GaussianGrad, GaussianScene};
pub use loss::{compute_loss, LossConfig, LossKind, LossOutput};
pub use project::{
    jacobian_with_clamp, project_scene, project_scene_into, project_scene_with,
    projection_jacobian, ProjectScratch, Projected2d, ProjectedSoA, Projection, TileRect,
    COV2D_BLUR, FRUSTUM_CLAMP, NEAR_PLANE, NO_SLOT,
};
pub use shard::{
    Aabb, CullScratch, GaussianHandle, SceneState, Shard, ShardState, ShardedScene, VisibleFrame,
    DEFAULT_CELL_SIZE, TOMBSTONED_SLOT, TOMBSTONE_FILL,
};
pub use tiles::{
    build_tile_lists_legacy, build_tiles_into, TileAssignment, TileBinScratch, SUBTILES_PER_TILE,
    SUBTILE_SIZE, TILE_SIZE,
};
pub use trace::WorkloadTrace;

/// Everything needed to run a backward pass after a forward render: the
/// projection, tile lists and forward output for one (scene, pose, camera)
/// triple.
#[derive(Debug, Clone)]
pub struct ForwardContext {
    /// Projected splats (SoA).
    pub projection: Projection,
    /// Tile assignment (sorted).
    pub tiles: TileAssignment,
    /// Forward render output.
    pub output: RenderOutput,
}

/// A [`ForwardContext`] from a *fused* forward pass: additionally carries
/// the per-pixel fragment records [`backward_fused_with`] consumes —
/// forward and backward share one tile traversal.
#[derive(Debug, Clone)]
pub struct FusedContext {
    /// Projected splats (SoA).
    pub projection: Projection,
    /// Tile assignment (sorted).
    pub tiles: TileAssignment,
    /// Forward render output.
    pub output: RenderOutput,
    /// Fragment records for the fused backward pass.
    pub fragments: FragmentCache,
}

impl FusedContext {
    /// Runs the fused backward pass over this context's fragment records.
    ///
    /// # Panics
    ///
    /// Panics if the gradient buffers do not match the camera resolution.
    pub fn backward(
        &self,
        scene: &GaussianScene,
        camera: &PinholeCamera,
        w2c: &rtgs_math::Se3,
        pixel_grads: &PixelGrads,
        backend: &dyn rtgs_runtime::Backend,
    ) -> BackwardOutput {
        backward_fused_with(
            scene,
            &self.projection,
            &self.tiles,
            camera,
            w2c,
            pixel_grads,
            &self.fragments,
            backend,
        )
    }
}

/// Convenience wrapper running preprocessing, sorting and rendering in one
/// call (Steps ❶–❸).
pub fn render_frame(
    scene: &GaussianScene,
    w2c: &rtgs_math::Se3,
    camera: &PinholeCamera,
    active: Option<&[bool]>,
) -> ForwardContext {
    render_frame_with(scene, w2c, camera, active, &rtgs_runtime::Serial)
}

/// [`render_frame`] on an explicit execution backend: all three forward
/// steps (projection chunked over Gaussians, per-tile sorting, rendering
/// chunked over tiles) run on `backend`, with output bitwise-identical to
/// the serial path at any pool size.
pub fn render_frame_with(
    scene: &GaussianScene,
    w2c: &rtgs_math::Se3,
    camera: &PinholeCamera,
    active: Option<&[bool]>,
    backend: &dyn rtgs_runtime::Backend,
) -> ForwardContext {
    let projection = project_scene_with(scene, w2c, camera, active, backend);
    let tiles = TileAssignment::build_with(&projection, camera, backend);
    let output = render_with(&projection, &tiles, camera, backend);
    ForwardContext {
        projection,
        tiles,
        output,
    }
}

/// [`render_frame_with`], fused: the render additionally records the
/// per-pixel fragment sequences a subsequent [`FusedContext::backward`]
/// (or [`backward_fused_with`]) consumes. The forward output is
/// bitwise-identical to [`render_frame_with`] at any pool size.
pub fn render_frame_fused_with(
    scene: &GaussianScene,
    w2c: &rtgs_math::Se3,
    camera: &PinholeCamera,
    active: Option<&[bool]>,
    backend: &dyn rtgs_runtime::Backend,
) -> FusedContext {
    let projection = project_scene_with(scene, w2c, camera, active, backend);
    let tiles = TileAssignment::build_with(&projection, camera, backend);
    let fused = render_fused_with(&projection, &tiles, camera, backend);
    FusedContext {
        projection,
        tiles,
        output: fused.output,
        fragments: fused.fragments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_math::{Quat, Se3, Vec3};

    #[test]
    fn render_frame_composes_pipeline() {
        let scene = GaussianScene::from_gaussians(vec![Gaussian3d::from_activated(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(0.4),
            Quat::IDENTITY,
            0.9,
            Vec3::X,
        )]);
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let ctx = render_frame(&scene, &Se3::IDENTITY, &cam, None);
        assert_eq!(ctx.projection.visible_count(), 1);
        assert!(ctx.output.stats.fragments_blended > 0);
        assert!(ctx.output.image.pixel(16, 16).x > 0.0);
    }

    #[test]
    fn fused_frame_matches_plain_frame() {
        let scene = GaussianScene::from_gaussians(vec![Gaussian3d::from_activated(
            Vec3::new(0.1, -0.1, 2.0),
            Vec3::splat(0.4),
            Quat::IDENTITY,
            0.7,
            Vec3::new(0.2, 0.9, 0.4),
        )]);
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let plain = render_frame(&scene, &Se3::IDENTITY, &cam, None);
        let fused =
            render_frame_fused_with(&scene, &Se3::IDENTITY, &cam, None, &rtgs_runtime::Serial);
        assert_eq!(plain.output.image, fused.output.image);
        assert_eq!(
            fused.fragments.total_fragments(),
            plain.output.stats.fragments_blended
        );
    }
}
