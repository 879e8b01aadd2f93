//! `window_olhc`: longitudinal collection with reads between writes.
//!
//! OLH-C frames (d = 1024, 64 cohorts, ~5 bytes) follow a diurnal hourly
//! trace into a 24-window `WindowRing` with decay. Each round is one
//! hour: `advance_to` retires the window falling off the horizon by
//! subtraction, `ingest_concat` folds the hour's frames straight into
//! the ring, and `estimates` publishes. A query burst of `estimates`,
//! `decayed_estimates` and `estimate_items` follows, and once a day a
//! batch of stale stragglers arrives that the watermark must drop.
//! Set-up restores a warm 24-window ring checkpoint. Client framing is
//! load generation, outside the timed path.

use std::collections::VecDeque;
use std::time::Instant;

use ldp_core::protocol::{MechanismKind, ProtocolDescriptor, Registry};
use ldp_workloads::service::{workspace_registry, CollectorService, IngestError, WireClient};
use ldp_workloads::window::{WindowConfig, WindowRing};
use ldp_workloads::ZipfGenerator;

use crate::inputs::{self, Stream};
use crate::run::{self, Config, Phase, Tally, Workload};
use crate::trace::Tracer;

const D: u64 = 1024;
const EPSILON: f64 = 1.0;
const COHORTS: u32 = 64;
const WINDOW_LEN: u64 = 3600;
const HORIZON: usize = 24;
const DECAY: f64 = 0.9;

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Reports in an hour of weight 1 (daytime).
    pub base: usize,
    pub queries: u64,
    /// Rounds between checks of the newest window against a standalone
    /// service (round 0 is always checked).
    pub check_every: u64,
}

pub const SCALE: Scale = Scale {
    base: 10_000,
    queries: 4,
    check_every: 4,
};

impl Scale {
    /// Reports arriving in `hour`: an overnight lull, a daytime baseline
    /// and a 4× evening peak.
    pub fn hour_reports(&self, hour: u64) -> usize {
        let weight = match hour % 24 {
            0..=5 => 0.3,
            18..=21 => 4.0,
            _ => 1.0,
        };
        (self.base as f64 * weight).round() as usize
    }

    /// Stale reports arriving in `hour`: 1% of a daytime hour, once a day
    /// (in the last hour), stamped one hour beyond the horizon.
    pub fn stragglers(&self, hour: u64) -> usize {
        if hour % 24 == 23 {
            self.base / 100
        } else {
            0
        }
    }
}

/// Event time of `hour`'s reports.
fn stamp(hour: u64) -> u64 {
    hour * WINDOW_LEN + WINDOW_LEN / 2
}

fn descriptor() -> Result<ProtocolDescriptor, String> {
    ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(D)
        .epsilon(EPSILON)
        .cohorts(COHORTS)
        .build()
        .map_err(|e| format!("descriptor: {e}"))
}

pub struct Prep {
    seed: u64,
    scale: Scale,
    zipf: ZipfGenerator,
    items: Vec<u64>,
    /// A ring that has taken hours `0..HORIZON`, checkpointed.
    warm: Vec<u8>,
    warm_truth: VecDeque<Vec<f64>>,
}

/// Hour `hour`'s values, and its stragglers' values.
pub fn hour_values(prep: &Prep, hour: u64) -> (Vec<u64>, Vec<u64>) {
    let stragglers = prep.scale.stragglers(hour);
    let late = prep.zipf.sample_n(
        stragglers,
        &mut inputs::rng(prep.seed, Stream::Stragglers, hour),
    );
    let on_time = inputs::zipf_values(&prep.zipf, prep.seed, hour, prep.scale.hour_reports(hour));
    (on_time, late)
}

/// Frames for `values`, randomized with the client seed of `hour`
/// (`stream` keeps stragglers' randomness apart from on-time reports').
fn frames(
    client: &WireClient,
    seed: u64,
    values: &[u64],
    stream: Stream,
    hour: u64,
) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    client
        .frames_for_shard(values, inputs::mix(seed, stream, hour), 0, &mut buf)
        .map_err(|e| format!("client: {e}"))?;
    Ok(buf)
}

pub struct Window {
    registry: Registry,
    desc: ProtocolDescriptor,
    client: WireClient,
    ring: WindowRing,
    /// Exact counts of the live hours, oldest first (taken from the
    /// prep on the first round, outside set-up).
    truth: Option<VecDeque<Vec<f64>>>,
}

impl Workload for Window {
    type Prep = Prep;
    /// One simulated day: every hour of the diurnal profile once.
    const ROUNDS_PER_UNIT: usize = 24;

    fn threads() -> usize {
        1
    }

    fn prepare(cfg: &Config) -> Result<Prep, String> {
        let desc = descriptor()?;
        let mut prep = Prep {
            seed: cfg.seed,
            scale: SCALE,
            zipf: ZipfGenerator::new(D, inputs::ZIPF_S)?,
            items: (0..D).collect(),
            warm: Vec::new(),
            warm_truth: VecDeque::new(),
        };
        let client = WireClient::from_descriptor(&desc).map_err(|e| format!("client: {e}"))?;
        let mut ring = WindowRing::new(&desc, config()).map_err(|e| format!("ring: {e}"))?;
        for hour in 0..HORIZON as u64 {
            let (values, _) = hour_values(&prep, hour);
            let buf = frames(&client, prep.seed, &values, Stream::ClientSeed, hour)?;
            ring.ingest_concat(stamp(hour), &buf)
                .map_err(|e| format!("warm ring: {e}"))?;
            prep.warm_truth
                .push_back(ldp_workloads::gen::exact_counts(&values, D));
        }
        prep.warm = ring.checkpoint();
        Ok(prep)
    }

    fn setup(prep: &Prep, tr: &mut Tracer) -> Result<Self, String> {
        let registry = tr.span("service.workspace_registry", 0, |_| workspace_registry());
        let desc = descriptor()?;
        let client =
            WireClient::with_registry(&registry, &desc).map_err(|e| format!("client: {e}"))?;
        let ring = tr
            .span("snapshot.ring_restore", prep.warm.len() as u64, |_| {
                WindowRing::from_checkpoint(&prep.warm)
            })
            .map_err(|e| format!("ring restore: {e}"))?;
        Ok(Self {
            registry,
            desc,
            client,
            ring,
            truth: None,
        })
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }

    fn round(
        &mut self,
        prep: &Prep,
        r: u64,
        tr: &mut Tracer,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let scale = prep.scale;
        let hour = HORIZON as u64 + r;
        let (values, late_values, buf, late_buf) = tr.span("loadgen", 0, |tr| {
            let (values, late_values) = hour_values(prep, hour);
            let n = (values.len() + late_values.len()) as u64;
            tr.span("client.frames_for_shard", n, |_| {
                let buf = frames(&self.client, prep.seed, &values, Stream::ClientSeed, hour)?;
                let late_buf = frames(
                    &self.client,
                    prep.seed,
                    &late_values,
                    Stream::Stragglers,
                    hour,
                )?;
                Ok::<_, String>((values, late_values, buf, late_buf))
            })
        })?;
        let truth = self.truth.get_or_insert_with(|| prep.warm_truth.clone());
        truth.push_back(ldp_workloads::gen::exact_counts(&values, D));
        while truth.len() > HORIZON {
            truth.pop_front();
        }

        let n = values.len() as u64;
        let k = late_values.len() as u64;
        let before = *self.ring.stats();
        let ring = &mut self.ring;
        let t0 = Instant::now();
        let (advanced, on_time, late, estimates) = tr.span("round", n + k, |tr| {
            let advanced = tr.span("window.advance_to", 0, |_| ring.advance_to(stamp(hour)));
            let on_time = tr.span("window.ingest_concat", n, |_| {
                ring.ingest_concat(stamp(hour), &buf)
            });
            let late = (k > 0).then(|| {
                let stale = stamp(hour - HORIZON as u64 - 1);
                tr.span("window.ingest_concat", k, |_| {
                    ring.ingest_concat(stale, &late_buf)
                })
            });
            let estimates = tr.span("estimate.estimates", D, |_| ring.estimates());
            (advanced, on_time, late, estimates)
        });
        let publish = t0.elapsed();

        advanced.map_err(|e| format!("advance: {e}"))?;
        // Frames folded, and frames lost to a bad frame that stopped a
        // stream, per handed stream.
        let outcome = |res: &Result<usize, IngestError>, sent: u64| match res {
            Ok(n) => (*n as u64, 0),
            Err(e) => (e.ingested as u64, sent - e.ingested as u64),
        };
        let (mut folded, mut rejected) = outcome(&on_time, n);
        if let Some(res) = &late {
            let (f, r) = outcome(res, k);
            folded += f;
            rejected += r;
        }
        let after = *self.ring.stats();
        let late_dropped = after.late_dropped - before.late_dropped;
        phase.record_round(
            publish,
            Tally {
                attempted: n + k,
                folded,
                shed: 0,
                late: late_dropped,
                rejected,
            },
        );
        phase.check(
            on_time.is_ok() && late.as_ref().is_none_or(|l| l.is_ok()),
            || format!("hour {hour}: the ring rejected a frame"),
        );
        phase.check(late_dropped == k, || {
            format!("hour {hour}: {k} stragglers sent, {late_dropped} dropped as late")
        });
        phase.check(
            after.frames_ingested - before.frames_ingested == folded,
            || format!("hour {hour}: ring counted a different number of folded frames"),
        );
        phase.wire_bytes += (buf.len() + late_buf.len()) as u64;
        phase.wire_reports += n + k;
        phase.add(
            "window.retired_subtract",
            (after.retired_subtract - before.retired_subtract) as f64,
        );
        phase.add(
            "window.retired_rebuild",
            (after.retired_rebuild - before.retired_rebuild) as f64,
        );
        phase.add("window.late_dropped", late_dropped as f64);

        let ring = &self.ring;
        tr.span("query", 0, |tr| {
            tr.span("estimate.estimates", D, |_| ring.estimates());
            let decayed = tr.span("estimate.decayed_estimates", D, |_| {
                ring.decayed_estimates()
            });
            phase.check(decayed.is_ok(), || {
                format!("hour {hour}: decayed estimates failed")
            });
            let pool = (&prep.items[..], prep.seed);
            run::query_burst(phase, tr, pool, r, scale.queries, |items| {
                ring.estimate_items(items)
            });
        });

        if Phase::wants_mse(r, Self::ROUNDS_PER_UNIT) {
            let live = self.truth.as_ref().ok_or("truth history missing")?;
            let mut sum = vec![0.0; D as usize];
            for h in live {
                for (s, c) in sum.iter_mut().zip(h) {
                    *s += c;
                }
            }
            phase.tail_mse.push(inputs::tail_mse(&estimates, &sum));
        }
        if r.is_multiple_of(scale.check_every) {
            tr.span("verify", n, |tr| {
                self.check_newest_window(&buf, n, tr, phase)
            })?;
        }
        if hour % 24 == 23 {
            tr.span("verify", 0, |tr| self.check_total(tr, phase))?;
            self.check_ring_round_trip(tr, phase);
        }
        Ok(())
    }

    fn close(&mut self, tr: &mut Tracer, phase: &mut Phase) -> Result<u64, String> {
        tr.span("verify", 0, |tr| self.check_total(tr, phase))?;
        Ok(self.check_ring_round_trip(tr, phase))
    }
}

fn config() -> WindowConfig {
    WindowConfig::new(WINDOW_LEN, HORIZON).with_decay(DECAY)
}

impl Window {
    fn fresh(&self) -> Result<CollectorService, String> {
        CollectorService::with_registry(&self.registry, &self.desc)
            .map_err(|e| format!("service: {e}"))
    }

    /// The newest window holds exactly the hour's frames: it must equal a
    /// standalone service that ingested them.
    fn check_newest_window(
        &self,
        buf: &[u8],
        n: u64,
        tr: &mut Tracer,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let mut alone = self.fresh()?;
        let res = tr.span("service.ingest_concat", n, |_| alone.ingest_concat(buf));
        phase.check(res.is_ok(), || "standalone ingest rejected a frame".into());
        let newest = self.ring.windows().last().map(|(_, w)| w.checkpoint());
        phase.check(newest == Some(alone.checkpoint()), || {
            "newest window differs from a standalone ingest of its frames".into()
        });
        Ok(())
    }

    /// The running total must equal the merge of the live windows.
    fn check_total(&self, tr: &mut Tracer, phase: &mut Phase) -> Result<(), String> {
        let mut merged = self.fresh()?;
        for (_, window) in self.ring.windows() {
            let blob = tr.span("snapshot.checkpoint", 0, |_| window.checkpoint());
            let copy = tr
                .span("snapshot.restore", blob.len() as u64, |_| {
                    CollectorService::from_checkpoint_with_registry(&self.registry, &blob)
                })
                .map_err(|e| format!("window restore: {e}"))?;
            let res = tr.span("service.merge", 0, |_| merged.merge(copy));
            phase.check(res.is_ok(), || "window merge failed".into());
        }
        phase.check(
            merged.checkpoint() == self.ring.total().checkpoint(),
            || "ring total differs from the merge of its windows".into(),
        );
        Ok(())
    }

    /// Checkpoints the ring, restores it, and checks the restored ring
    /// checkpoints to the same bytes; returns the checkpoint size.
    fn check_ring_round_trip(&self, tr: &mut Tracer, phase: &mut Phase) -> u64 {
        let blob = tr.span("snapshot.ring_checkpoint", 0, |tr| {
            let blob = self.ring.checkpoint();
            tr.set_work(blob.len() as u64);
            blob
        });
        let restored = tr.span("snapshot.ring_restore", blob.len() as u64, |_| {
            WindowRing::from_checkpoint(&blob)
        });
        let same = restored.is_ok_and(|ring| ring.checkpoint() == blob);
        phase.check(same, || {
            "ring checkpoint does not round-trip byte-exactly".into()
        });
        blob.len() as u64
    }
}
