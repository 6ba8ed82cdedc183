//! Property test: the parallel backend is bitwise-identical to serial.
//!
//! The runtime's contract is that chunk geometry and reduction order are
//! fixed by the algorithm, never by the worker count — so `Parallel` at ANY
//! pool size must reproduce `Serial` exactly, bit for bit, for the full
//! fused pipeline: projection, tiles, the fragment-recording render and
//! the backward pass that consumes its fragments.

mod support;

use proptest::prelude::*;
use rtgs_math::{Se3, Vec3};
use rtgs_render::{render_frame_fused_with, BackwardOutput, FusedContext, GaussianScene};
use rtgs_runtime::{Parallel, Serial};
use support::{arb_scene, camera, masked_row_scene, pixel_grads_from};

fn run_pipeline(
    scene: &GaussianScene,
    pose: &Se3,
    active: Option<&[bool]>,
    backend: &dyn rtgs_runtime::Backend,
) -> (FusedContext, BackwardOutput) {
    let cam = camera();
    let ctx = render_frame_fused_with(scene, pose, &cam, active, backend);
    let pixel_grads = pixel_grads_from(&ctx.output, &cam);
    let grads = ctx.backward(scene, &cam, pose, &pixel_grads, backend);
    (ctx, grads)
}

fn assert_bitwise_identical(
    serial: &(FusedContext, BackwardOutput),
    parallel: &(FusedContext, BackwardOutput),
    threads: usize,
) {
    let (sc, sg) = serial;
    let (pc, pg) = parallel;
    // Forward: projection (every SoA array), tile lists, image, depth,
    // transmittance, workloads and integer statistics.
    assert_eq!(
        sc.projection.soa, pc.projection.soa,
        "{threads} threads: splats"
    );
    assert_eq!(
        sc.projection.culled, pc.projection.culled,
        "{threads} threads: culled"
    );
    assert_eq!(
        sc.projection.masked, pc.projection.masked,
        "{threads} threads: masked"
    );
    assert_eq!(
        sc.tiles.entries, pc.tiles.entries,
        "{threads} threads: tile entries"
    );
    assert_eq!(
        sc.tiles.offsets, pc.tiles.offsets,
        "{threads} threads: tile offsets"
    );
    assert_eq!(sc.output.image, pc.output.image, "{threads} threads: image");
    assert_eq!(sc.output.depth, pc.output.depth, "{threads} threads: depth");
    assert_eq!(
        sc.output.final_transmittance, pc.output.final_transmittance,
        "{threads} threads: transmittance"
    );
    assert_eq!(
        sc.output.pixel_workloads, pc.output.pixel_workloads,
        "{threads} threads: workloads"
    );
    assert_eq!(sc.output.stats, pc.output.stats, "{threads} threads: stats");
    assert_eq!(
        sc.fragments.total_fragments(),
        pc.fragments.total_fragments(),
        "{threads} threads: cached fragments"
    );
    // Backward: per-Gaussian gradients and the pose tangent, bit for bit.
    assert_eq!(sg.gaussians, pg.gaussians, "{threads} threads: gradients");
    assert_eq!(sg.pose, pg.pose, "{threads} threads: pose tangent");
    assert_eq!(
        sg.stats.fragment_grad_events, pg.stats.fragment_grad_events,
        "{threads} threads: events"
    );
    assert_eq!(
        sg.stats.gaussians_touched, pg.stats.gaussians_touched,
        "{threads} threads: touched"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused render + backward on `Parallel` pools of size 1–8 reproduce
    /// `Serial` bitwise on random scenes and random poses.
    #[test]
    fn parallel_matches_serial_bitwise(
        scene in arb_scene(),
        t in prop::array::uniform3(-0.2f32..0.2),
    ) {
        let pose = Se3::from_translation(Vec3::new(t[0], t[1], t[2]));
        let serial = run_pipeline(&scene, &pose, None, &Serial);
        for threads in 1..=8usize {
            let parallel = run_pipeline(&scene, &pose, None, &Parallel::new(threads));
            assert_bitwise_identical(&serial, &parallel, threads);
        }
    }
}

/// Masked (pruned) scenes follow the same contract.
#[test]
fn parallel_matches_serial_with_active_mask() {
    let (scene, mask) = masked_row_scene();
    let serial = run_pipeline(&scene, &Se3::IDENTITY, Some(&mask), &Serial);
    for threads in [1usize, 3, 8] {
        let parallel = run_pipeline(&scene, &Se3::IDENTITY, Some(&mask), &Parallel::new(threads));
        assert_bitwise_identical(&serial, &parallel, threads);
    }
}
