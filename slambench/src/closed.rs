//! The two closed-loop workloads: each frame is issued when the previous
//! one completes.
//!
//! * `slam-rtgs` — MonoGS + `RtgsConfig::full()` on the ScanNet++ analog,
//!   kernels on the parallel backend.
//! * `slam-map-replicated` — SplaTAM (no extension) on the TUM analog, on
//!   the serial backend, each frame checkpointed, shipped and applied by a
//!   warm standby over a lossless in-process link.
//!
//! A run plays a fixed set of sessions, one per scene variant derived from
//! the seed (a *cycle*), and repeats whole cycles while time remains.
//! Before the timed cycles the first scene is played once, untimed, as a
//! warm-up; repeated sessions must reproduce their first run bit for bit,
//! so every run makes that check however many cycles fit.

use crate::metrics::Values;
use crate::stats::{median, percentile, percentile_label, tail_percentile};
use crate::trace::{check_nesting, self_time_by_name, Recorder};
use crate::Outcome;
use crate::{inputs, layers};
use rtgs_core::RtgsConfig;
use rtgs_replicate::{duplex_pair, DuplexLink, FaultPlan, Follower, ReplicationPolicy, Replicator};
use rtgs_runtime::BackendChoice;
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{config_fingerprint, BaseAlgorithm, SlamConfig, SlamPipeline, SlamReport};
use rtgs_snapshot::{CaptureStats, CheckpointLog};
use std::time::{Duration, Instant};

/// Set-ups measured per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Which closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper configuration: pruning + downsampling engaged.
    Rtgs,
    /// Write side: map every frame, replicate every delta.
    MapReplicated,
}

struct Plan {
    profile: DatasetProfile,
    algorithm: BaseAlgorithm,
    backend: BackendChoice,
    rtgs: bool,
    replicate: bool,
    sessions: u64,
}

impl Workload {
    fn plan(self, nproc: usize) -> Plan {
        match self {
            Self::Rtgs => Plan {
                profile: DatasetProfile::scannetpp_analog(),
                algorithm: BaseAlgorithm::MonoGs,
                // The calling thread helps the pool, so nproc − 1 workers
                // keep every core busy without oversubscribing.
                backend: BackendChoice::Parallel {
                    threads: nproc.saturating_sub(1).max(1),
                },
                rtgs: true,
                replicate: false,
                // 180 frames a cycle puts the tail at p90, inside the
                // keyframes' step times rather than at their upper edge.
                sessions: 6,
            },
            Self::MapReplicated => Plan {
                profile: DatasetProfile::tum_analog(),
                algorithm: BaseAlgorithm::SplaTam,
                backend: BackendChoice::Serial,
                rtgs: false,
                replicate: true,
                sessions: 6,
            },
        }
    }
}

impl Plan {
    fn config(&self) -> SlamConfig {
        SlamConfig::for_algorithm(self.algorithm)
            .with_frames(self.profile.frames)
            .with_backend(self.backend)
    }

    fn pipeline<'d>(&self, dataset: &'d SyntheticDataset) -> SlamPipeline<'d> {
        if self.rtgs {
            SlamPipeline::with_extension(
                self.config(),
                dataset,
                RtgsConfig::full().into_extension(),
            )
        } else {
            SlamPipeline::new(self.config(), dataset)
        }
    }

    fn datasets(&self, seed: u64, rec: &mut Recorder) -> Vec<SyntheticDataset> {
        (1..=self.sessions)
            .map(|scene| {
                let t0 = Instant::now();
                let ds = inputs::dataset(&self.profile, self.profile.frames, scene, seed);
                rec.record("scene.generate", 0, None, t0, Instant::now());
                ds
            })
            .collect()
    }
}

/// Primary and warm standby of one session's replication stream.
struct Replica {
    primary: Replicator<DuplexLink>,
    follower: Follower<DuplexLink>,
}

impl Replica {
    fn new(config: &SlamConfig, seed: u64) -> Self {
        let fingerprint = config_fingerprint(config);
        let (primary_link, follower_link) = duplex_pair();
        Self {
            primary: Replicator::new(
                primary_link,
                fingerprint,
                ReplicationPolicy::new(),
                FaultPlan::lossless(seed),
            ),
            follower: Follower::new(follower_link, fingerprint),
        }
    }
}

/// Everything one session leaves behind.
struct SessionRun {
    report: SlamReport,
    frame_ns: Vec<u64>,
    stepping: Duration,
    captures: Vec<CaptureStats>,
    frames_behind_max: u64,
    retransmits: u64,
}

/// Accumulates over every session of a run.
#[derive(Default)]
struct Totals {
    frame_ms: Vec<f64>,
    /// Frames per second of each session played.
    session_fps: Vec<f64>,
    captures: Vec<CaptureStats>,
    frames_behind_max: u64,
    retransmits: u64,
    sessions: u64,
    failures: Vec<String>,
}

/// Bit pattern of a session's outputs, for the repeat check: trajectory,
/// ATE, PSNR, peak map and the bytes captured for the wire.
fn output_bits(run: &SessionRun) -> Vec<u64> {
    let report = &run.report;
    let mut bits = vec![
        report.ate.rmse.to_bits(),
        report.mean_psnr.to_bits(),
        report.peak_param_bytes,
        report.frames_processed as u64,
        run.captures.iter().map(|c| c.bytes as u64).sum(),
    ];
    for p in &report.trajectory {
        let (q, t) = (p.rotation, p.translation);
        bits.extend([q.w, q.x, q.y, q.z, t.x, t.y, t.z].map(|v| u64::from(v.to_bits())));
    }
    bits
}

/// Plays one session, spanning each frame when `rec` is enabled. Frame
/// ids continue from `next_frame`.
fn play(
    plan: &Plan,
    dataset: &SyntheticDataset,
    seed: u64,
    rec: &mut Recorder,
    next_frame: &mut u64,
    failures: &mut Vec<String>,
) -> SessionRun {
    let mut pipeline = plan.pipeline(dataset);
    let mut replica = plan.replicate.then(|| Replica::new(&plan.config(), seed));
    let mut frame_ns = Vec::with_capacity(dataset.len());
    let mut step_spans = Vec::with_capacity(dataset.len());
    let mut captures = Vec::new();
    let mut frames_behind_max = 0;
    let mut stepping = Duration::ZERO;
    loop {
        let f0 = Instant::now();
        let Some(index) = SlamPipeline::step(&mut pipeline) else {
            break;
        };
        let f1 = Instant::now();
        let mut end = f1;
        let mut spans_after_step = Vec::new();
        if let Some(r) = replica.as_mut() {
            let mut capture = None;
            let sent = r.primary.on_frame(index as u64, |log| {
                let c0 = Instant::now();
                let stats = pipeline.checkpoint_into(log);
                capture = Some((c0, Instant::now()));
                if let Ok(s) = &stats {
                    captures.push(*s);
                }
                stats
            });
            let f2 = Instant::now();
            let pumped = r.primary.pump();
            let f3 = Instant::now();
            let applied = r.follower.pump();
            end = Instant::now();
            for (what, result) in [("send", sent), ("pump", pumped), ("apply", applied)] {
                if let Err(e) = result {
                    failures.push(format!("frame {index}: replication {what} failed: {e}"));
                }
            }
            frames_behind_max = frames_behind_max.max(r.primary.stats().frames_behind);
            spans_after_step.push(("replicate.on_frame", f1, f2, capture));
            spans_after_step.push(("replicate.pump", f2, f3, None));
            spans_after_step.push(("replicate.follower_pump", f3, end, None));
        }
        stepping += end - f0;
        frame_ns.push((end - f0).as_nanos() as u64);
        if rec.enabled() {
            let id = *next_frame + index as u64;
            let root = rec.record("bench.frame", id, None, f0, end);
            step_spans.push(rec.record("slam.step", id, root, f0, f1));
            for (name, a, b, child) in spans_after_step {
                let span = rec.record(name, id, root, a, b);
                if let Some((c0, c1)) = child {
                    rec.record("snapshot.capture", id, span, c0, c1);
                }
            }
        }
    }
    let report = pipeline.report();
    *next_frame += report.frames.len() as u64;

    // Inside `step`, the split comes from the walls the pipeline reports.
    for (frame, span) in report.frames.iter().zip(&step_spans) {
        let Some(span) = *span else { continue };
        let track = frame.tracking_wall.as_nanos() as u64;
        rec.derive("slam.track", span, 0, track);
        rec.derive(
            "slam.map",
            span,
            track,
            frame.mapping_wall.as_nanos() as u64,
        );
    }

    let mut retransmits = 0;
    if let Some(r) = replica.as_mut() {
        settle(r, failures);
        check_replica(r, &pipeline, failures);
        retransmits = r.primary.stats().retransmits;
    }
    SessionRun {
        report,
        frame_ns,
        stepping,
        captures,
        frames_behind_max,
        retransmits,
    }
}

/// Pumps both ends until every record is acknowledged.
fn settle(r: &mut Replica, failures: &mut Vec<String>) {
    for _ in 0..1000 {
        if r.primary.outstanding() == 0 {
            return;
        }
        if let Err(e) = r.primary.pump().and_then(|()| r.follower.pump()) {
            failures.push(format!("replication failed while settling: {e}"));
            return;
        }
    }
    failures.push(format!(
        "{} records never acknowledged",
        r.primary.outstanding()
    ));
}

/// The standby applied every record sent, nothing was retransmitted on
/// the lossless link, and the standby's replayed log equals a fresh full
/// capture of the primary byte for byte.
fn check_replica(r: &Replica, pipeline: &SlamPipeline<'_>, failures: &mut Vec<String>) {
    let stats = r.primary.stats();
    if r.follower.records_applied() != stats.records_sent {
        failures.push(format!(
            "follower applied {} of {} records",
            r.follower.records_applied(),
            stats.records_sent
        ));
    }
    if stats.retransmits != 0 {
        failures.push(format!(
            "{} retransmits on a lossless link",
            stats.retransmits
        ));
    }
    let Some(standby) = r.follower.standby() else {
        failures.push("follower never warmed".into());
        return;
    };
    let mut fresh = CheckpointLog::new();
    match pipeline.checkpoint_into(&mut fresh) {
        Ok(_) if standby.to_log().encode() == fresh.encode() => {}
        Ok(_) => failures.push("standby differs from a full capture of the primary".into()),
        Err(e) => failures.push(format!("full capture failed: {e}")),
    }
}

fn check_report(
    report: &SlamReport,
    planned: usize,
    workload: Workload,
    failures: &mut Vec<String>,
) {
    if report.frames_processed != planned {
        failures.push(format!(
            "{} of {planned} frames processed",
            report.frames_processed
        ));
    }
    if !layers::outputs_finite(report) {
        failures.push("a pose, the ATE or the PSNR is not finite".into());
    }
    if workload == Workload::MapReplicated {
        if let Some(f) = report.frames.iter().find(|f| f.resolution_factor != 1) {
            failures.push(format!(
                "frame {} tracked at factor {} without the extension",
                f.index, f.resolution_factor
            ));
        }
    }
}

/// Set-up: dataset generation plus pipeline, session and pool
/// construction, repeated; returns the datasets and each set-up's time.
fn set_up(
    plan: &Plan,
    seed: u64,
    rec: &mut Recorder,
) -> (Vec<SyntheticDataset>, Vec<f64>, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut generate_s = Vec::with_capacity(SETUP_REPEATS);
    let mut datasets = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        datasets = plan.datasets(seed, rec);
        generate_s.push(t0.elapsed().as_secs_f64());
        let sessions: Vec<_> = datasets
            .iter()
            .map(|ds| {
                let replica = plan.replicate.then(|| Replica::new(&plan.config(), seed));
                (plan.pipeline(ds), replica)
            })
            .collect();
        std::hint::black_box(&sessions);
        drop(sessions);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    (datasets, setup_s, generate_s)
}

/// Plays the first scene once, untimed and unspanned, as a warm-up whose
/// output is the reference that scene must repeat; then plays whole
/// cycles while the next one would end nearer to `seconds` than stopping
/// now (at least one).
fn run_cycles(
    plan: &Plan,
    workload: Workload,
    datasets: &[SyntheticDataset],
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
) -> (Totals, Vec<SlamReport>) {
    let mut totals = Totals::default();
    let mut next_frame = 1;
    // Untimed and unspanned: it adds no samples, only the warm-up and the
    // reference for the repeat check.
    let mut silent = Recorder::new(false, Instant::now());
    let warm_up = play(
        plan,
        &datasets[0],
        seed,
        &mut silent,
        &mut next_frame,
        &mut totals.failures,
    );
    check_report(
        &warm_up.report,
        datasets[0].len(),
        workload,
        &mut totals.failures,
    );
    totals.sessions += 1;
    let mut first: Vec<SlamReport> = Vec::new();
    let mut first_bits: Vec<Vec<u64>> = vec![output_bits(&warm_up)];
    let start = Instant::now();
    loop {
        let cycle_start = Instant::now();
        for (i, ds) in datasets.iter().enumerate() {
            let run = play(plan, ds, seed, rec, &mut next_frame, &mut totals.failures);
            check_report(&run.report, ds.len(), workload, &mut totals.failures);
            let bits = output_bits(&run);
            totals
                .frame_ms
                .extend(run.frame_ns.iter().map(|&ns| ns as f64 / 1e6));
            let frames = run.frame_ns.len() as f64;
            totals.session_fps.push(frames / run.stepping.as_secs_f64());
            totals.captures.extend(run.captures);
            totals.frames_behind_max = totals.frames_behind_max.max(run.frames_behind_max);
            totals.retransmits += run.retransmits;
            totals.sessions += 1;
            if let Some(reference) = first_bits.get(i) {
                if *reference != bits {
                    totals.failures.push(format!(
                        "session {i} did not repeat its first run bit for bit"
                    ));
                }
            } else {
                first_bits.push(bits);
            }
            if first.len() == i {
                first.push(run.report);
            }
        }
        let cycle = cycle_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + cycle / 2.0 > seconds {
            break;
        }
    }
    (totals, first)
}

/// Runs the workload and reports its metrics: end-to-end ones always,
/// per-layer ones when `rec` is enabled.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    nproc: usize,
    rec: &mut Recorder,
) -> Outcome {
    let plan = workload.plan(nproc);
    let (datasets, setup_s, generate_s) = set_up(&plan, seed, rec);
    let (mut totals, reports) = run_cycles(&plan, workload, &datasets, seed, seconds, rec);

    let mut v = Values::default();
    let n = totals.frame_ms.len();
    let sessions = reports.len();
    v.set("setup_s", median(&setup_s), setup_s.len());
    // The median session's frame rate: whole cycles keep the scene mix
    // fixed, and one disturbed session does not move it.
    let played = totals.session_fps.len();
    v.set_noted(
        "fps",
        median(&totals.session_fps),
        played,
        format!("median of {played} sessions ({} per cycle)", reports.len()),
    );
    let per_cycle: usize = reports.iter().map(|r| r.frames.len()).sum();
    let p50 = median(&totals.frame_ms);
    v.set("frame_p50_ms", p50, n);
    // In a closed loop a frame is due when the previous one completes, so
    // its sojourn is its own frame time.
    v.set_noted(
        "sojourn_p50_ms",
        p50,
        n,
        "closed loop: equals frame time".into(),
    );
    // The tail percentile is chosen from one cycle's sample count, so it
    // does not change with the number of cycles that fit in the run.
    let tail = tail_percentile(per_cycle).unwrap_or(50.0);
    v.set_noted(
        "sojourn_tail_ms",
        percentile(&totals.frame_ms, tail),
        n,
        percentile_label(tail),
    );
    let mean =
        |f: &dyn Fn(&SlamReport) -> f64| reports.iter().map(f).sum::<f64>() / sessions as f64;
    v.set("ate_cm", mean(&|r| r.ate.rmse_cm()), sessions);
    v.set("psnr_db", mean(&|r| r.mean_psnr), sessions);
    v.set(
        "peak_map_mb",
        mean(&|r| r.peak_param_bytes as f64 / 1e6),
        sessions,
    );

    let mut failures = std::mem::take(&mut totals.failures);
    if rec.enabled() {
        failures.extend(check_nesting(rec.spans()));
        per_layer(&mut v, &plan, &reports, &totals, rec, &generate_s);
    }
    Outcome {
        values: v,
        attempted: totals.sessions * plan.profile.frames as u64,
        failures,
    }
}

/// Per-layer metrics from the reports, the captures and the spans.
fn per_layer(
    v: &mut Values,
    plan: &Plan,
    reports: &[SlamReport],
    totals: &Totals,
    rec: &Recorder,
    generate_s: &[f64],
) {
    v.set("scene.generate_s", median(generate_s), generate_s.len());
    let refs: Vec<&SlamReport> = reports.iter().collect();
    layers::from_reports(v, &refs, plan.profile.width, plan.profile.height);

    let self_ns = self_time_by_name(rec.spans());
    let ms_per = |name: &str| {
        self_ns
            .get(name)
            .map_or(0.0, |&(ns, count)| ns as f64 / 1e6 / count.max(1) as f64)
    };
    let frames = reports.iter().map(|r| r.frames.len()).sum();
    v.set("slam.step_other_ms", ms_per("slam.step"), frames);
    if plan.replicate {
        let captures = &totals.captures;
        let n_cap = captures.len();
        let bytes: usize = captures.iter().map(|c| c.bytes).sum();
        let deltas: Vec<&CaptureStats> = captures.iter().filter(|c| !c.is_base).collect();
        let delta_bytes: usize = deltas.iter().map(|c| c.bytes).sum();
        let written: usize = captures.iter().map(|c| c.shards_written).sum();
        let total: usize = captures.iter().map(|c| c.total_shards).sum();
        v.set("snapshot.capture_ms", ms_per("snapshot.capture"), n_cap);
        let per_delta = delta_bytes as f64 / 1e3 / deltas.len().max(1) as f64;
        v.set("snapshot.delta_kb", per_delta, deltas.len());
        v.set(
            "snapshot.shards_written_share",
            written as f64 / total.max(1) as f64,
            n_cap,
        );
        v.set(
            "wire_kb_per_frame",
            bytes as f64 / 1e3 / frames.max(1) as f64,
            frames,
        );
        v.set(
            "replicate.encode_send_ms",
            ms_per("replicate.on_frame"),
            n_cap,
        );
        v.set("replicate.pump_ms", ms_per("replicate.pump"), n_cap);
        v.set(
            "replicate.follower_apply_ms",
            ms_per("replicate.follower_pump"),
            n_cap,
        );
        let sessions = reports.len();
        v.set("replicate.retransmits", totals.retransmits as f64, sessions);
        v.set(
            "replicate.frames_behind_max",
            totals.frames_behind_max as f64,
            frames,
        );
    }
    layers::zero_unreached(v);
}
