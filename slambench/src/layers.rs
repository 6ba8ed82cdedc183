//! Per-layer figures read from what the pipeline already reports.

use crate::metrics::{Values, PER_LAYER};
use rtgs_slam::{SlamReport, StageTimings};
use std::time::Duration;

/// Reads one stage's total out of a timing breakdown.
type StageOf = fn(&StageTimings) -> Duration;

/// Render, SLAM and core figures from the sessions' reports. `width` and
/// `height` are the full-resolution camera size.
pub fn from_reports(v: &mut Values, reports: &[&SlamReport], width: usize, height: usize) {
    let frames: usize = reports.iter().map(|r| r.frames.len()).sum();
    let keyframes: usize = reports.iter().map(|r| r.keyframes).sum();
    let sessions = reports.len();
    let per = |x: f64, n: usize| if n > 0 { x / n as f64 } else { 0.0 };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    let stages: [(&'static str, &'static str, StageOf); 5] = [
        (
            "render.track.preprocess_ms",
            "render.map.preprocess_ms",
            |t| t.preprocess,
        ),
        ("render.track.sorting_ms", "render.map.sorting_ms", |t| {
            t.sorting
        }),
        ("render.track.render_ms", "render.map.render_ms", |t| {
            t.render
        }),
        (
            "render.track.render_bp_ms",
            "render.map.render_bp_ms",
            |t| t.render_bp,
        ),
        (
            "render.track.preprocess_bp_ms",
            "render.map.preprocess_bp_ms",
            |t| t.preprocess_bp,
        ),
    ];
    for (track_name, map_name, get) in stages {
        let track: Duration = reports.iter().map(|r| get(&r.tracking_timings)).sum();
        let map: Duration = reports.iter().map(|r| get(&r.mapping_timings)).sum();
        v.set(track_name, per(ms(track), frames), frames);
        v.set(map_name, per(ms(map), frames), frames);
    }
    let frame_reports = || reports.iter().flat_map(|r| r.frames.iter());
    let fragments: u64 = frame_reports().map(|f| f.tracking_fragments).sum();
    let grads: u64 = frame_reports().map(|f| f.tracking_grad_events).sum();
    v.set(
        "render.track.fragments_per_frame",
        per(fragments as f64, frames),
        frames,
    );
    v.set(
        "render.track.grad_events_per_frame",
        per(grads as f64, frames),
        frames,
    );

    let track: Duration = frame_reports().map(|f| f.tracking_wall).sum();
    let map: Duration = frame_reports().map(|f| f.mapping_wall).sum();
    v.set("slam.track_ms", per(ms(track), frames), frames);
    v.set_noted(
        "slam.map_ms",
        per(ms(map), keyframes),
        keyframes,
        "per keyframe".into(),
    );
    v.set("slam.keyframes", per(keyframes as f64, sessions), sessions);
    let peak: usize = reports.iter().map(|r| r.peak_gaussians).sum();
    v.set("slam.peak_gaussians", per(peak as f64, sessions), sessions);

    let downsampled = frame_reports().filter(|f| f.resolution_factor > 1).count();
    v.set(
        "core.downsampled_share",
        per(downsampled as f64, frames),
        frames,
    );
    let pixels: usize = frame_reports()
        .map(|f| (width / f.resolution_factor).max(1) * (height / f.resolution_factor).max(1))
        .sum();
    v.set(
        "core.track_pixels_per_frame",
        per(pixels as f64, frames),
        frames,
    );
    let last: usize = reports
        .iter()
        .map(|r| r.frames.last().map_or(0, |f| f.gaussians))
        .sum();
    v.set("core.final_gaussians", per(last as f64, sessions), sessions);
}

/// Whether every pose, the ATE and the PSNR of `report` are finite.
pub fn outputs_finite(report: &SlamReport) -> bool {
    let poses = report.trajectory.iter().all(|p| {
        let (q, t) = (p.rotation, p.translation);
        [q.w, q.x, q.y, q.z, t.x, t.y, t.z]
            .iter()
            .all(|v| v.is_finite())
    });
    poses && report.ate.rmse.is_finite() && report.mean_psnr.is_finite()
}

/// Sets every declared per-layer metric not yet measured to 0: the layer
/// does no work on this workload.
pub fn zero_unreached(v: &mut Values) {
    for d in PER_LAYER {
        if v.get(d.name).is_none() {
            v.set_noted(d.name, 0.0, 0, "not on this workload's path".into());
        }
    }
}
