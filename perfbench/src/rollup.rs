//! `rollup_cms`: the regional-to-global rollup of Apple CMS sketches.
//!
//! Each round, S regional collectors each ingest a small slice of
//! traffic (small next to their 16×1024-cell sketch) and checkpoint;
//! `MergeTree::merge_level` rolls the checkpoints up at a fixed fan-in,
//! and the restored root answers `estimate_items` over the dictionary.
//! Client framing is load generation, outside the timed path.

use std::time::Instant;

use ldp_core::protocol::{MechanismKind, ProtocolDescriptor, Registry};
use ldp_workloads::service::{workspace_registry, CollectorService, MergeTree, WireClient};
use ldp_workloads::ZipfGenerator;

use crate::fleet::check_round_trip;
use crate::inputs::{self, Stream};
use crate::run::{self, Config, Phase, Tally, Workload};
use crate::trace::Tracer;

const DOMAIN: u64 = 1 << 20;
const EPSILON: f64 = 2.0;
const ROWS: u32 = 16;
const WIDTH: u32 = 1024;
const FAN_IN: usize = 4;

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub collectors: usize,
    pub reports_per_collector: usize,
    pub dictionary: usize,
    pub queries: u64,
    /// Rounds between rollup checks (round 0 is always checked).
    pub check_every: u64,
}

pub const SCALE: Scale = Scale {
    collectors: 8,
    reports_per_collector: 32,
    dictionary: 4096,
    queries: 8,
    check_every: 16,
};

fn descriptor() -> Result<ProtocolDescriptor, String> {
    ProtocolDescriptor::builder(MechanismKind::AppleCms)
        .domain_size(DOMAIN)
        .epsilon(EPSILON)
        .sketch(ROWS, WIDTH)
        .build()
        .map_err(|e| format!("descriptor: {e}"))
}

pub struct Prep {
    seed: u64,
    scale: Scale,
    /// Popularity ranks over the dictionary.
    zipf: ZipfGenerator,
    dictionary: Vec<u64>,
}

/// Dictionary ranks of the reports collector `c` receives in round `r`.
pub fn collector_ranks(prep: &Prep, r: u64, c: usize) -> Vec<u64> {
    let index = r * prep.scale.collectors as u64 + c as u64;
    inputs::zipf_values(
        &prep.zipf,
        prep.seed,
        index,
        prep.scale.reports_per_collector,
    )
}

pub struct Rollup {
    registry: Registry,
    desc: ProtocolDescriptor,
    client: WireClient,
    tree: MergeTree,
    /// Collectors set-up built, used by the warm-up round.
    ready: Vec<CollectorService>,
    published: Option<CollectorService>,
}

impl Workload for Rollup {
    type Prep = Prep;
    const ROUNDS_PER_UNIT: usize = 1;

    fn threads() -> usize {
        1
    }

    fn prepare(cfg: &Config) -> Result<Prep, String> {
        Ok(Prep {
            seed: cfg.seed,
            scale: SCALE,
            zipf: ZipfGenerator::new(SCALE.dictionary as u64, inputs::ZIPF_S)?,
            dictionary: inputs::dictionary(cfg.seed, SCALE.dictionary, DOMAIN),
        })
    }

    fn setup(prep: &Prep, tr: &mut Tracer) -> Result<Self, String> {
        let registry = tr.span("service.workspace_registry", 0, |_| workspace_registry());
        let desc = descriptor()?;
        let client =
            WireClient::with_registry(&registry, &desc).map_err(|e| format!("client: {e}"))?;
        let tree = tr
            .span("rollup.new", 0, |_| MergeTree::new(FAN_IN))
            .map_err(|e| format!("merge tree: {e}"))?;
        let ready = (0..prep.scale.collectors)
            .map(|_| new_collector(&registry, &desc, tr))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            registry,
            desc,
            client,
            tree,
            ready,
            published: None,
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
        let per = scale.reports_per_collector as u64;
        let attempted = per * scale.collectors as u64;
        let base_seed = inputs::mix(prep.seed, Stream::ClientSeed, r);
        let (ranks, frames) = tr.span("loadgen", 0, |tr| {
            let ranks: Vec<Vec<u64>> = (0..scale.collectors)
                .map(|c| collector_ranks(prep, r, c))
                .collect();
            let frames = tr.span("client.frames_for_shard", attempted, |_| {
                ranks
                    .iter()
                    .enumerate()
                    .map(|(c, ranks)| {
                        let items: Vec<u64> =
                            ranks.iter().map(|&k| prep.dictionary[k as usize]).collect();
                        let mut buf = Vec::new();
                        self.client
                            .frames_for_shard(&items, base_seed, c, &mut buf)
                            .map(|()| buf)
                            .map_err(|e| format!("client: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })?;
            Ok::<_, String>((ranks, frames))
        })?;

        let mut collectors = std::mem::take(&mut self.ready);
        let t0 = Instant::now();
        let (rejected, leaves, levels, root, estimates) = tr.span("round", attempted, |tr| {
            if collectors.is_empty() {
                for _ in 0..scale.collectors {
                    collectors.push(new_collector(&self.registry, &self.desc, tr)?);
                }
            }
            let mut rejected = 0u64;
            let mut leaves = Vec::with_capacity(collectors.len());
            for (svc, buf) in collectors.iter_mut().zip(&frames) {
                if let Err(e) = tr.span("service.ingest_concat", per, |_| svc.ingest_concat(buf)) {
                    rejected += per - e.ingested as u64;
                }
                leaves.push(tr.span("snapshot.checkpoint", 0, |tr| {
                    let blob = svc.checkpoint();
                    tr.set_work(blob.len() as u64);
                    blob
                }));
            }
            let mut levels = vec![leaves];
            while levels.last().is_some_and(|l| l.len() > 1) {
                let below = levels.last().ok_or("no level")?;
                let above = tr
                    .span("rollup.merge_level", below.len() as u64, |_| {
                        self.tree.merge_level(below)
                    })
                    .map_err(|e| format!("merge level: {e}"))?;
                levels.push(above);
            }
            let top = &levels[levels.len() - 1][0];
            let root = tr
                .span("snapshot.restore", top.len() as u64, |_| {
                    CollectorService::from_checkpoint_with_registry(&self.registry, top)
                })
                .map_err(|e| format!("root restore: {e}"))?;
            let estimates = tr
                .span(
                    "estimate.publish_items",
                    prep.dictionary.len() as u64,
                    |_| root.estimate_items(&prep.dictionary),
                )
                .map_err(|e| format!("publish: {e}"))?;
            let leaves = levels.swap_remove(0);
            Ok::<_, String>((rejected, leaves, levels.len(), root, estimates))
        })?;
        let publish = t0.elapsed();
        drop(collectors);

        let folded = root.reports() as u64;
        phase.record_round(
            publish,
            Tally {
                attempted,
                folded,
                shed: 0,
                late: 0,
                rejected,
            },
        );
        phase.check(rejected == 0, || {
            format!("round {r}: collectors rejected {rejected} frames")
        });
        phase.wire_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        phase.wire_reports += attempted;
        phase.add("rollup.levels", levels as f64);

        let pool = (&prep.dictionary[..], prep.seed);
        tr.span("query", 0, |tr| {
            run::query_burst(phase, tr, pool, r, scale.queries, |items| {
                root.estimate_items(items)
            })
        });

        if Phase::wants_mse(r, Self::ROUNDS_PER_UNIT) {
            let mut truth = vec![0.0; scale.dictionary];
            for &k in ranks.iter().flatten() {
                truth[k as usize] += 1.0;
            }
            phase.tail_mse.push(inputs::tail_mse(&estimates, &truth));
        }
        if r.is_multiple_of(scale.check_every) {
            tr.span("verify", attempted, |tr| {
                self.check_rollup(&leaves, &root, tr, phase)
            })?;
        }
        self.published = Some(root);
        Ok(())
    }

    fn close(&mut self, tr: &mut Tracer, phase: &mut Phase) -> Result<u64, String> {
        let root = self.published.as_ref().ok_or("no round was published")?;
        Ok(check_round_trip(&self.registry, root, tr, phase))
    }
}

fn new_collector(
    registry: &Registry,
    desc: &ProtocolDescriptor,
    tr: &mut Tracer,
) -> Result<CollectorService, String> {
    tr.span("service.with_registry", 0, |_| {
        CollectorService::with_registry(registry, desc)
    })
    .map_err(|e| format!("collector: {e}"))
}

impl Rollup {
    /// Every collector checkpoint must round-trip byte-exactly, and the
    /// root must equal a left-fold merge of the collectors.
    fn check_rollup(
        &self,
        leaves: &[Vec<u8>],
        root: &CollectorService,
        tr: &mut Tracer,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let mut fold: Option<CollectorService> = None;
        for blob in leaves {
            let svc = tr
                .span("snapshot.restore", blob.len() as u64, |_| {
                    CollectorService::from_checkpoint_with_registry(&self.registry, blob)
                })
                .map_err(|e| format!("collector restore: {e}"))?;
            phase.check(&svc.checkpoint() == blob, || {
                "collector checkpoint does not round-trip byte-exactly".into()
            });
            match fold.as_mut() {
                None => fold = Some(svc),
                Some(acc) => {
                    let res = tr.span("service.merge", 0, |_| acc.merge(svc));
                    phase.check(res.is_ok(), || "collector merge failed".into());
                }
            }
        }
        let fold = fold.ok_or("round had no collectors")?;
        phase.check(fold.checkpoint() == root.checkpoint(), || {
            "rollup root differs from the left-fold merge of its collectors".into()
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_group_rolls_up_to_the_left_fold() {
        // Five collectors leave a short group at the first level: 5 → 2 → 1.
        let mut prep = Rollup::prepare(&Config::new(3, 0.0, false)).unwrap();
        prep.scale.collectors = 5;
        let mut tr = Tracer::new(false);
        let mut w = Rollup::setup(&prep, &mut tr).unwrap();
        let mut phase = Phase::default();
        for r in 0..2 {
            w.round(&prep, r, &mut tr, &mut phase).unwrap();
        }
        assert!(phase.failures.is_empty(), "{:?}", phase.failures);
        assert_eq!(phase.counter("rollup.levels"), 4.0, "two levels a round");
        assert_eq!(
            phase.tally.folded,
            2 * 5 * SCALE.reports_per_collector as u64
        );
    }
}
