//! `fleet_oue`: bulk device collection through the concurrent pipeline.
//!
//! Each round a population of devices randomizes its values with OUE
//! (d = 4096, 518-byte frames) through the client, and the producer
//! thread splits each shard's frames into batches and submits them to a
//! fresh `CollectorPipeline` (`nproc − 1` ingest workers, Block
//! backpressure); `finish` folds the shards and `estimates` publishes.
//! Client sampling sits inside the timed path: the producer is the
//! blocking stage.

use std::time::Instant;

use ldp_core::protocol::{MechanismKind, ProtocolDescriptor, Registry};
use ldp_workloads::pipeline::split_frames;
use ldp_workloads::service::{workspace_registry, CollectorService, WireClient};
use ldp_workloads::{BackpressurePolicy, CollectorPipeline, PipelineConfig, ZipfGenerator};

use crate::inputs::{self, Stream};
use crate::run::{self, Config, Phase, Tally, Workload};
use crate::trace::Tracer;

const D: u64 = 4096;
const EPSILON: f64 = 1.0;

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub reports: usize,
    pub shards: usize,
    pub batches_per_shard: usize,
    pub queue_depth: usize,
    pub queries: u64,
    /// Rounds between bit-identity checks (round 0 is always checked).
    pub check_every: u64,
}

pub const SCALE: Scale = Scale {
    reports: 10_000,
    shards: 4,
    batches_per_shard: 4,
    queue_depth: 8,
    queries: 16,
    check_every: 32,
};

pub struct Prep {
    seed: u64,
    scale: Scale,
    zipf: ZipfGenerator,
    /// Every item: the pool analyst queries draw from.
    items: Vec<u64>,
}

/// The values round `r` randomizes.
pub fn round_values(prep: &Prep, r: u64) -> Vec<u64> {
    inputs::zipf_values(&prep.zipf, prep.seed, r, prep.scale.reports)
}

pub struct Fleet {
    registry: Registry,
    desc: ProtocolDescriptor,
    client: WireClient,
    config: PipelineConfig,
    /// The pipeline set-up spawned, used by the warm-up round.
    ready: Option<CollectorPipeline>,
    published: Option<CollectorService>,
}

fn descriptor() -> Result<ProtocolDescriptor, String> {
    ProtocolDescriptor::builder(MechanismKind::OptimizedUnary)
        .domain_size(D)
        .epsilon(EPSILON)
        .build()
        .map_err(|e| format!("descriptor: {e}"))
}

/// Ingest workers beside the producer thread.
fn workers() -> usize {
    run::nproc().saturating_sub(1).max(1)
}

/// Contiguous `[lo, hi)` report ranges of each shard: the plan
/// `WireClient::frames_sharded` follows.
fn shard_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let chunk = len.div_ceil(shards);
    (0..shards)
        .map(|i| ((i * chunk).min(len), ((i + 1) * chunk).min(len)))
        .collect()
}

/// Frames in each of the `batches` pieces `split_frames` cuts `frames`
/// frames into (balanced by count, the last one short).
fn batch_frames(frames: usize, batches: usize) -> Vec<u64> {
    let per = frames.div_ceil(batches.max(1));
    (0..batches)
        .map(|b| (frames.min((b + 1) * per) - (b * per).min(frames)) as u64)
        .collect()
}

impl Workload for Fleet {
    type Prep = Prep;
    const ROUNDS_PER_UNIT: usize = 1;

    fn threads() -> usize {
        1 + workers()
    }

    fn prepare(cfg: &Config) -> Result<Prep, String> {
        Ok(Prep {
            seed: cfg.seed,
            scale: SCALE,
            zipf: ZipfGenerator::new(D, inputs::ZIPF_S)?,
            items: (0..D).collect(),
        })
    }

    fn setup(prep: &Prep, tr: &mut Tracer) -> Result<Self, String> {
        let registry = tr.span("service.workspace_registry", 0, |_| workspace_registry());
        let desc = descriptor()?;
        let client =
            WireClient::with_registry(&registry, &desc).map_err(|e| format!("client: {e}"))?;
        let config = PipelineConfig {
            shards: prep.scale.shards,
            workers: workers(),
            queue_depth: prep.scale.queue_depth,
            policy: BackpressurePolicy::Block,
        };
        let ready = tr
            .span("pipeline.new", 0, |_| {
                CollectorPipeline::with_registry(&registry, &desc, config)
            })
            .map_err(|e| format!("pipeline: {e}"))?;
        Ok(Self {
            registry,
            desc,
            client,
            config,
            ready: Some(ready),
            published: None,
        })
    }

    fn teardown(self) -> Result<(), String> {
        if let Some(p) = self.ready {
            p.finish().map_err(|e| format!("pipeline teardown: {e}"))?;
        }
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
        let n = scale.reports;
        let values = tr.span("loadgen", n as u64, |_| round_values(prep, r));
        let base_seed = inputs::mix(prep.seed, Stream::ClientSeed, r);
        let bounds = shard_bounds(n, scale.shards);

        let t0 = Instant::now();
        let (service, stats, estimates, shed, wire, lifetime) =
            tr.span("round", n as u64, |tr| {
                let pipeline = match self.ready.take() {
                    Some(p) => p,
                    None => tr
                        .span("pipeline.new", 0, |_| {
                            CollectorPipeline::with_registry(
                                &self.registry,
                                &self.desc,
                                self.config,
                            )
                        })
                        .map_err(|e| format!("pipeline: {e}"))?,
                };
                let (mut shed, mut wire) = (0u64, 0u64);
                let mut buf = Vec::new();
                for (shard, &(lo, hi)) in bounds.iter().enumerate() {
                    buf.clear();
                    tr.span("client.frames_for_shard", (hi - lo) as u64, |_| {
                        self.client
                            .frames_for_shard(&values[lo..hi], base_seed, shard, &mut buf)
                    })
                    .map_err(|e| format!("client: {e}"))?;
                    wire += buf.len() as u64;
                    let batches = tr
                        .span("pipeline.split_frames", (hi - lo) as u64, |_| {
                            split_frames(&buf, scale.batches_per_shard)
                        })
                        .map_err(|e| format!("split: {e}"))?;
                    let counts = batch_frames(hi - lo, batches.len());
                    for (batch, frames) in batches.into_iter().zip(counts) {
                        let accepted = tr
                            .span("pipeline.submit", frames, |_| pipeline.submit(shard, batch))
                            .map_err(|e| format!("submit: {e}"))?;
                        if !accepted {
                            shed += frames;
                        }
                    }
                }
                let (service, stats) = tr
                    .span("pipeline.finish", n as u64, |_| pipeline.finish())
                    .map_err(|e| format!("finish: {e}"))?;
                let lifetime = t0.elapsed();
                let estimates = tr.span("estimate.estimates", D, |_| service.estimates());
                Ok::<_, String>((service, stats, estimates, shed, wire, lifetime))
            })?;
        let publish = t0.elapsed();

        // `finish` refuses the whole aggregate on a malformed frame, so a
        // published round rejected nothing.
        let folded = service.reports() as u64;
        let ingested = stats.total_frames() as u64;
        phase.record_round(
            publish,
            Tally {
                attempted: n as u64,
                folded,
                shed,
                late: 0,
                rejected: 0,
            },
        );
        phase.check(folded == ingested, || {
            format!("round {r}: workers ingested {ingested} frames, aggregate holds {folded}")
        });
        phase.wire_bytes += wire;
        phase.wire_reports += n as u64;
        let busy: u64 = stats.workers.iter().map(|w| w.busy_nanos).sum();
        phase.add("pipeline.worker_busy_ns", busy as f64);
        phase.add("pipeline.worker_frames", ingested as f64);
        phase.add(
            "pipeline.worker_lifetime_ns",
            lifetime.as_nanos() as f64 * stats.workers.len() as f64,
        );
        phase.max("pipeline.queue_hwm", stats.queue_hwm() as f64);
        phase.add("pipeline.shed_batches", stats.dropped_batches() as f64);
        phase.add("pipeline.merge_ns", stats.merge_nanos as f64);

        let pool = (&prep.items[..], prep.seed);
        tr.span("query", 0, |tr| {
            run::query_burst(phase, tr, pool, r, scale.queries, |items| {
                service.estimate_items(items)
            })
        });

        if Phase::wants_mse(r, Self::ROUNDS_PER_UNIT) {
            let truth = ldp_workloads::gen::exact_counts(&values, D);
            phase.tail_mse.push(inputs::tail_mse(&estimates, &truth));
        }
        if r.is_multiple_of(scale.check_every) {
            tr.span("verify", n as u64, |tr| {
                self.check_identity(&values, base_seed, scale.shards, &service, tr, phase)
            })?;
            check_round_trip(&self.registry, &service, tr, phase);
        }
        self.published = Some(service);
        Ok(())
    }

    fn close(&mut self, tr: &mut Tracer, phase: &mut Phase) -> Result<u64, String> {
        let service = self.published.as_ref().ok_or("no round was published")?;
        Ok(check_round_trip(&self.registry, service, tr, phase))
    }
}

impl Fleet {
    /// The pipeline aggregate must be bit-identical to one service
    /// ingesting the same frames sequentially, and to per-shard services
    /// merged in shard order.
    fn check_identity(
        &self,
        values: &[u64],
        base_seed: u64,
        shards: usize,
        published: &CollectorService,
        tr: &mut Tracer,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let frames = tr
            .span("client.frames_sharded", values.len() as u64, |_| {
                self.client.frames_sharded(values, base_seed, shards)
            })
            .map_err(|e| format!("client: {e}"))?;
        let fresh = || {
            CollectorService::with_registry(&self.registry, &self.desc)
                .map_err(|e| format!("service: {e}"))
        };
        let mut sequential = fresh()?;
        let mut per_shard = Vec::with_capacity(frames.len());
        for (buf, (lo, hi)) in frames.iter().zip(shard_bounds(values.len(), frames.len())) {
            let mut shard = fresh()?;
            for svc in [&mut sequential, &mut shard] {
                let n = (hi - lo) as u64;
                let res = tr.span("service.ingest_concat", n, |_| svc.ingest_concat(buf));
                phase.check(res.is_ok(), || "reference ingest rejected a frame".into());
            }
            per_shard.push(shard);
        }
        let mut merged = per_shard.remove(0);
        for shard in per_shard {
            let res = tr.span("service.merge", 0, |_| merged.merge(shard));
            phase.check(res.is_ok(), || "shard merge failed".into());
        }
        let want = published.checkpoint();
        phase.check(sequential.checkpoint() == want, || {
            "pipeline aggregate differs from sequential ingest".into()
        });
        phase.check(merged.checkpoint() == want, || {
            "pipeline aggregate differs from the shard-order merge".into()
        });
        Ok(())
    }
}

/// Checkpoints `service`, restores it, and checks the restored state
/// checkpoints to the same bytes; returns the checkpoint size.
pub fn check_round_trip(
    registry: &Registry,
    service: &CollectorService,
    tr: &mut Tracer,
    phase: &mut Phase,
) -> u64 {
    let blob = tr.span("snapshot.checkpoint", 0, |tr| {
        let blob = service.checkpoint();
        tr.set_work(blob.len() as u64);
        blob
    });
    let restored = tr.span("snapshot.restore", blob.len() as u64, |_| {
        CollectorService::from_checkpoint_with_registry(registry, &blob)
    });
    let same = restored.is_ok_and(|s| s.checkpoint() == blob);
    phase.check(same, || {
        "checkpoint does not round-trip byte-exactly".into()
    });
    blob.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_frames_match_split_frames() {
        let desc = descriptor().unwrap();
        let client = WireClient::from_descriptor(&desc).unwrap();
        let values: Vec<u64> = (0..11).collect();
        let mut buf = Vec::new();
        client.frames_for_shard(&values, 1, 0, &mut buf).unwrap();
        for parts in [1usize, 2, 3, 4, 11, 20] {
            let batches = split_frames(&buf, parts).unwrap();
            let counts = batch_frames(values.len(), batches.len());
            for (batch, count) in batches.iter().zip(&counts) {
                assert_eq!(batch.len() as u64, count * 518, "parts={parts}");
            }
            assert_eq!(counts.iter().sum::<u64>(), 11);
        }
    }

    #[test]
    fn shard_bounds_tile_the_population() {
        assert_eq!(shard_bounds(10, 4), vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(shard_bounds(8, 4), vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
    }
}
