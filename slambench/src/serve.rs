//! The open-loop serving workload, `serve-openloop`.
//!
//! Four tenants, each MonoGS on its own TUM-analog scene variant at the
//! `loadgen` experiment's 6/4 iteration budget, are served by
//! `Serve::builder()` from bounded drop-oldest inboxes under an
//! `SloPolicy`. One generator thread sends Poisson arrivals, backdating
//! each push to the instant it was due. Two phases run back to back with
//! fresh sessions: a nominal phase below capacity and an overload phase
//! at about twice capacity. Rates and the latency limit come from the
//! command line (frozen in `BENCHMARK.json`), never from calibration.

use crate::inputs::{self, SplitMix};
use crate::layers;
use crate::metrics::Values;
use crate::stats::{median, percentile, percentile_label, tail_percentile};
use crate::trace::{check_nesting, self_time_by_name, Recorder, Span};
use crate::Outcome;
use rtgs_runtime::{
    IngestConfig, IngestHub, IngestStats, LatePolicy, Serve, Session, SessionOutcome, SessionStatus,
};
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{BaseAlgorithm, OpenLoopSession, SlamConfig, SlamPipeline, SlamReport, SloPolicy};
use std::time::{Duration, Instant};

/// Tenants served concurrently.
const TENANTS: usize = 4;
/// Frames a tenant's inbox holds before the oldest is dropped.
const INBOX_CAPACITY: usize = 4;
/// Share of the run given to the nominal phase; the rest is overload. At
/// the frozen rates and run length this yields 41 frames per tenant (164
/// nominal frames, so the tail rule's p90 keeps 16 samples beyond it) and
/// three seconds of overload, enough to fill the inboxes and engage
/// shedding.
const NOMINAL_SHARE: f64 = 0.9;
/// Set-ups measured per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Head start the generator gives the scheduler before the first arrival.
const LEAD: Duration = Duration::from_millis(20);

/// The frozen serving parameters.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Aggregate arrival rate of the nominal phase (frames/s).
    pub nominal_fps: f64,
    /// Aggregate arrival rate of the overload phase (frames/s).
    pub overload_fps: f64,
    /// Latency limit for goodput and the SLO policy.
    pub limit: Duration,
}

/// Poisson arrivals: `per_tenant` frames for each tenant at
/// `aggregate_fps / TENANTS` each, merged in due order as
/// `(offset from phase start, tenant)`. Each tenant's arrivals are a
/// Poisson process conditioned on its count, i.e. `per_tenant` uniform
/// instants over the window that count takes at that rate, so every seed
/// offers the same rate over the same phase length and only the clustering
/// varies.
fn schedule(seed: u64, aggregate_fps: f64, per_tenant: usize) -> Vec<(Duration, usize)> {
    let mut rng = SplitMix(seed);
    let window = per_tenant as f64 * TENANTS as f64 / aggregate_fps;
    let mut arrivals = Vec::with_capacity(per_tenant * TENANTS);
    for tenant in 0..TENANTS {
        for _ in 0..per_tenant {
            let t = rng.uniform() * window;
            arrivals.push((Duration::from_secs_f64(t), tenant));
        }
    }
    arrivals.sort();
    arrivals
}

/// One served frame, as the wrapper saw it.
#[derive(Debug, Clone, Copy)]
struct Served {
    step_ns: u64,
    sojourn_ns: u64,
}

/// A delegating session that times each step and reads the frame's
/// sojourn from the ingest counters the inner session already keeps.
struct Timed<'d> {
    inner: OpenLoopSession<'d>,
    tenant: u64,
    rec: Recorder,
    latency_sum: u64,
    processed: u64,
    served: Vec<Served>,
}

impl<'d> Timed<'d> {
    fn new(inner: OpenLoopSession<'d>, tenant: usize, rec: Recorder) -> Self {
        Self {
            inner,
            tenant: tenant as u64,
            rec,
            latency_sum: 0,
            processed: 0,
            served: Vec::new(),
        }
    }
}

/// What a tenant hands back at the end of a phase.
struct TenantLog {
    report: SlamReport,
    served: Vec<Served>,
    spans: Vec<Span>,
}

impl Session for Timed<'_> {
    type Report = TenantLog;

    fn step(&mut self) -> SessionStatus {
        let t0 = Instant::now();
        let status = self.inner.step();
        let t1 = Instant::now();
        let stats = self
            .inner
            .ingest_stats()
            .expect("open-loop sessions report ingest stats");
        if stats.processed > self.processed {
            // One step serves at most one frame; its sojourn is the growth
            // of the channel's latency sum.
            let sum = stats.latency.sum();
            self.served.push(Served {
                step_ns: (t1 - t0).as_nanos() as u64,
                sojourn_ns: sum - self.latency_sum,
            });
            let frame = (self.tenant << 32) | stats.processed;
            self.rec.record("runtime.step", frame, None, t0, t1);
            self.latency_sum = sum;
            self.processed = stats.processed;
        }
        status
    }

    fn finish(mut self) -> TenantLog {
        let report = self.inner.finish();
        // Each served frame is the pipeline's next frame, so the i-th step
        // span splits by the i-th frame report's walls.
        for (i, frame) in report
            .frames
            .iter()
            .enumerate()
            .take(self.rec.spans().len())
        {
            let track = frame.tracking_wall.as_nanos() as u64;
            self.rec.derive("slam.track", i, 0, track);
            self.rec
                .derive("slam.map", i, track, frame.mapping_wall.as_nanos() as u64);
        }
        TenantLog {
            report,
            served: self.served,
            spans: self.rec.spans().to_vec(),
        }
    }

    fn ready(&self) -> bool {
        self.inner.ready()
    }

    fn ingest_stats(&self) -> Option<IngestStats> {
        self.inner.ingest_stats()
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
}

/// Everything one phase leaves behind.
struct Phase {
    outcomes: Vec<SessionOutcome<TenantLog>>,
    wall: Duration,
    late_ms: Vec<f64>,
    planned: usize,
}

impl Phase {
    fn served(&self) -> impl Iterator<Item = &Served> {
        self.outcomes.iter().flat_map(|o| o.report.served.iter())
    }

    fn ingest(&self) -> impl Iterator<Item = &IngestStats> {
        self.outcomes.iter().filter_map(|o| o.stats.ingest.as_ref())
    }

    fn processed(&self) -> u64 {
        self.ingest().map(|s| s.processed).sum()
    }

    /// Every tenant finished, was offered its whole schedule, and
    /// accounted for each offered frame as processed or dropped.
    fn check(&self, phase: &str, failures: &mut Vec<String>) {
        if self.outcomes.len() != TENANTS {
            failures.push(format!(
                "{phase}: {} tenants came back",
                self.outcomes.len()
            ));
        }
        for o in &self.outcomes {
            let label = &o.stats.label;
            if !o.stats.completed {
                failures.push(format!("{phase}: {label} did not finish"));
            }
            let Some(s) = &o.stats.ingest else {
                failures.push(format!("{phase}: {label} reported no ingest stats"));
                continue;
            };
            if s.offered != self.planned as u64 {
                failures.push(format!(
                    "{phase}: {label} was offered {} of {} frames",
                    s.offered, self.planned
                ));
            }
            if s.offered != s.processed + s.dropped() {
                failures.push(format!(
                    "{phase}: {label} offered {} != processed {} + dropped {}",
                    s.offered,
                    s.processed,
                    s.dropped()
                ));
            }
            if s.processed != o.report.served.len() as u64 {
                failures.push(format!("{phase}: {label} lost track of served frames"));
            }
            if !layers::outputs_finite(&o.report.report) {
                failures.push(format!(
                    "{phase}: {label} has a non-finite pose, ATE or PSNR"
                ));
            }
        }
    }
}

fn config() -> SlamConfig {
    // The loadgen experiment's quick budget.
    let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs);
    cfg.tracking.iterations = 6;
    cfg.mapping_iterations = 4;
    cfg
}

fn slo(rates: &Rates) -> SloPolicy {
    SloPolicy::new(rates.limit)
        .with_depth_high(2)
        .with_degrade_factor(2)
        .with_window(16)
}

fn hub() -> IngestHub {
    IngestHub::new(
        IngestConfig::new()
            .with_inbox_capacity(INBOX_CAPACITY)
            .with_late_policy(LatePolicy::DropOldest),
    )
}

/// Serves one phase: fresh sessions on `datasets`, arrivals at
/// `aggregate_fps`, `per_tenant` frames each.
#[allow(clippy::too_many_arguments)]
fn serve_phase(
    datasets: &[SyntheticDataset],
    rates: &Rates,
    aggregate_fps: f64,
    per_tenant: usize,
    seed: u64,
    workers: usize,
    traced: bool,
    epoch: Instant,
) -> Phase {
    let hub = hub();
    let mut producers = Vec::with_capacity(TENANTS);
    let mut sessions = Vec::with_capacity(TENANTS);
    for (tenant, ds) in datasets.iter().enumerate() {
        let (tx, rx) = hub
            .channel::<()>()
            .expect("four tenants fit the default admission budget");
        let session =
            OpenLoopSession::new(SlamPipeline::new(config(), ds), rx).with_slo(slo(rates));
        sessions.push((
            format!("tenant{tenant}"),
            Timed::new(session, tenant, Recorder::new(traced, epoch)),
        ));
        producers.push(tx);
    }
    let arrivals = schedule(seed, aggregate_fps, per_tenant);
    let start = Instant::now() + LEAD;
    let (outcomes, late_ms) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(arrivals.len());
            for (offset, tenant) in arrivals {
                let due = start + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                producers[tenant].push_at((), due);
            }
            // Dropping the producers closes the inboxes, so sessions
            // finish once their backlog drains.
            late_ms
        });
        let outcomes = Serve::builder().threads(workers).ingest(&hub).run(sessions);
        (
            outcomes,
            generator.join().expect("the generator thread panicked"),
        )
    });
    Phase {
        outcomes,
        wall: start.elapsed(),
        late_ms,
        planned: per_tenant,
    }
}

/// Frames per tenant for a phase of `share` of the run at `fps`.
fn frames_for(fps: f64, seconds: f64, share: f64) -> usize {
    ((fps * seconds * share / TENANTS as f64).round() as usize).max(1)
}

/// Set-up: tenant datasets plus hub and session construction, repeated;
/// returns the datasets, each set-up's time and each generation's time.
fn set_up(seed: u64, frames: usize, rates: &Rates) -> (Vec<SyntheticDataset>, Vec<f64>, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut datasets = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let profile = DatasetProfile::tum_analog();
        datasets = (1..=TENANTS as u64)
            .map(|scene| inputs::dataset(&profile, frames, scene, seed))
            .collect();
        generate_s.push(t0.elapsed().as_secs_f64());
        let hub = hub();
        let sessions: Vec<_> = datasets
            .iter()
            .map(|ds| {
                let (_tx, rx) = hub.channel::<()>().expect("admission");
                OpenLoopSession::new(SlamPipeline::new(config(), ds), rx).with_slo(slo(rates))
            })
            .collect();
        std::hint::black_box(&sessions);
        drop(sessions);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    (datasets, setup_s, generate_s)
}

/// Runs both phases and reports end-to-end metrics, plus per-layer ones
/// when `rec` is enabled.
pub fn run(rates: &Rates, seed: u64, seconds: f64, nproc: usize, rec: &mut Recorder) -> Outcome {
    let workers = nproc.saturating_sub(1).max(1);
    let n_nom = frames_for(rates.nominal_fps, seconds, NOMINAL_SHARE);
    let n_over = frames_for(rates.overload_fps, seconds, 1.0 - NOMINAL_SHARE);
    let (datasets, setup_s, generate_s) = set_up(seed, n_nom.max(n_over), rates);
    let traced = rec.enabled();
    let epoch = Instant::now();
    let nominal = serve_phase(
        &datasets,
        rates,
        rates.nominal_fps,
        n_nom,
        seed,
        workers,
        traced,
        epoch,
    );
    let overload = serve_phase(
        &datasets,
        rates,
        rates.overload_fps,
        n_over,
        // Its own schedule, still derived from the workload seed.
        !seed,
        workers,
        traced,
        epoch,
    );
    let mut failures = Vec::new();
    nominal.check("nominal", &mut failures);
    overload.check("overload", &mut failures);

    let mut v = Values::default();
    v.set("setup_s", median(&setup_s), setup_s.len());
    let over_done = overload.processed();
    v.set_noted(
        "fps",
        over_done as f64 / overload.wall.as_secs_f64(),
        over_done as usize,
        "overload phase: frames completed per second".into(),
    );
    let step_ms: Vec<f64> = nominal.served().map(|s| s.step_ns as f64 / 1e6).collect();
    let sojourn_ms: Vec<f64> = nominal
        .served()
        .map(|s| s.sojourn_ns as f64 / 1e6)
        .collect();
    let n = sojourn_ms.len();
    v.set_noted(
        "frame_p50_ms",
        median(&step_ms),
        n,
        "nominal phase step".into(),
    );
    v.set_noted(
        "sojourn_p50_ms",
        median(&sojourn_ms),
        n,
        "nominal phase".into(),
    );
    // The sample count is fixed by the schedule, so the tail percentile is
    // the same on every run with the same arguments.
    let tail = tail_percentile(TENANTS * n_nom).unwrap_or(50.0);
    v.set_noted(
        "sojourn_tail_ms",
        percentile(&sojourn_ms, tail),
        n,
        format!("{}, nominal phase", percentile_label(tail)),
    );
    let reports: Vec<&SlamReport> = nominal.outcomes.iter().map(|o| &o.report.report).collect();
    let tenants = reports.len().max(1) as f64;
    v.set_noted(
        "ate_cm",
        reports.iter().map(|r| r.ate.rmse_cm()).sum::<f64>() / tenants,
        reports.len(),
        "nominal phase, mean over tenants".into(),
    );
    v.set_noted(
        "psnr_db",
        reports.iter().map(|r| r.mean_psnr).sum::<f64>() / tenants,
        reports.len(),
        "nominal phase, mean over tenants".into(),
    );
    v.set_noted(
        "peak_map_mb",
        reports
            .iter()
            .map(|r| r.peak_param_bytes as f64)
            .sum::<f64>()
            / 1e6,
        reports.len(),
        "nominal phase, sum over tenants".into(),
    );

    if traced {
        for phase in [&nominal, &overload] {
            for o in &phase.outcomes {
                rec.absorb(o.report.spans.clone());
            }
        }
        failures.extend(check_nesting(rec.spans()));
        per_layer(&mut v, rates, &nominal, &overload, &generate_s, workers);
    }
    let offered: u64 = [&nominal, &overload]
        .iter()
        .flat_map(|p| p.ingest())
        .map(|s| s.offered)
        .sum();
    Outcome {
        values: v,
        attempted: offered.max(1),
        failures,
    }
}

fn per_layer(
    v: &mut Values,
    rates: &Rates,
    nominal: &Phase,
    overload: &Phase,
    generate_s: &[f64],
    workers: usize,
) {
    v.set("scene.generate_s", median(generate_s), generate_s.len());
    let served: Vec<&Served> = nominal.served().collect();
    let n = served.len();
    let step_ms: Vec<f64> = served.iter().map(|s| s.step_ns as f64 / 1e6).collect();
    let wait_ms: Vec<f64> = served
        .iter()
        .map(|s| s.sojourn_ns.saturating_sub(s.step_ns) as f64 / 1e6)
        .collect();
    v.set_noted(
        "runtime.step_ms",
        median(&step_ms),
        n,
        "p50, nominal".into(),
    );
    v.set_noted(
        "runtime.queue_wait_ms",
        median(&wait_ms),
        n,
        "p50, nominal".into(),
    );
    let busy: Duration = nominal.outcomes.iter().map(|o| o.stats.wall).sum();
    v.set_noted(
        "runtime.busy_share",
        busy.as_secs_f64() / (nominal.wall.as_secs_f64() * workers as f64),
        nominal.outcomes.len(),
        "nominal".into(),
    );
    v.set_noted(
        "runtime.gen_late_p99_ms",
        percentile(&nominal.late_ms, 99.0),
        nominal.late_ms.len(),
        "nominal".into(),
    );
    let over: Vec<&IngestStats> = overload.ingest().collect();
    let over_n = over.len();
    let max_depth = over.iter().map(|s| s.max_depth).max().unwrap_or(0);
    v.set_noted(
        "runtime.max_inbox_depth",
        max_depth as f64,
        over_n,
        "overload".into(),
    );
    let idle: usize = nominal
        .outcomes
        .iter()
        .chain(&overload.outcomes)
        .map(|o| o.stats.idle_rounds)
        .sum();
    v.set("runtime.idle_rounds", idle as f64, TENANTS * 2);
    let dropped: u64 = over.iter().map(|s| s.dropped()).sum();
    let degraded: u64 = over.iter().map(|s| s.degraded).sum();
    let offered: u64 = over.iter().map(|s| s.offered).sum();
    v.set_noted("runtime.dropped", dropped as f64, over_n, "overload".into());
    v.set_noted(
        "runtime.degraded",
        degraded as f64,
        over_n,
        "overload".into(),
    );
    let limit_ns = rates.limit.as_nanos() as u64;
    let good = overload
        .served()
        .filter(|s| s.sojourn_ns <= limit_ns)
        .count();
    v.set(
        "overload_goodput_fps",
        good as f64 / overload.wall.as_secs_f64(),
        overload.served().count(),
    );
    v.set(
        "overload_drop_share",
        dropped as f64 / offered.max(1) as f64,
        offered as usize,
    );

    let reports: Vec<&SlamReport> = nominal.outcomes.iter().map(|o| &o.report.report).collect();
    let profile = DatasetProfile::tum_analog();
    layers::from_reports(v, &reports, profile.width, profile.height);
    // Over the same frames as the track and map figures beside it.
    let (ns, count) = nominal
        .outcomes
        .iter()
        .filter_map(|o| {
            self_time_by_name(&o.report.spans)
                .get("runtime.step")
                .copied()
        })
        .fold((0, 0), |(ns, n), (a, b)| (ns + a, n + b));
    v.set_noted(
        "slam.step_other_ms",
        ns as f64 / 1e6 / count.max(1) as f64,
        count as usize,
        "nominal session step minus track and map".into(),
    );
    layers::zero_unreached(v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spreads_each_tenants_frames_over_a_fixed_window() {
        let (fps, per_tenant) = (8.0, 49);
        let window = Duration::from_secs_f64(per_tenant as f64 * TENANTS as f64 / fps);
        for seed in [1, 2, 901] {
            let arrivals = schedule(seed, fps, per_tenant);
            assert_eq!(arrivals.len(), per_tenant * TENANTS);
            assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(arrivals.iter().all(|&(t, _)| t < window));
            for tenant in 0..TENANTS {
                let n = arrivals.iter().filter(|a| a.1 == tenant).count();
                assert_eq!(n, per_tenant, "seed {seed} tenant {tenant}");
            }
        }
        assert_eq!(schedule(7, fps, per_tenant), schedule(7, fps, per_tenant));
        assert_ne!(schedule(7, fps, per_tenant), schedule(8, fps, per_tenant));
    }
}
