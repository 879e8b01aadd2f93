//! Client-side encoding cost per mechanism — the "Internet scale" claim:
//! a report must cost microseconds on-device.
//!
//! The `client_encode_batch` group is the scalar-vs-batch comparison:
//! for the unary family it pits the scalar path (word-parallel or
//! geometric-skip sampling through `dyn RngCore`, one report per call)
//! against the fused batch path (monomorphized draws, reports folded
//! straight into the aggregator, zero per-report allocation). The
//! industrial mechanisms get the same treatment: Apple CMS (reusable
//! `report_into` buffer vs fused counter path) and Microsoft dBitFlip
//! (fused rejection+skip batch).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ldp_apple::cms::{CmsOracle, CmsProtocol, CmsReport};
use ldp_apple::hcms::HcmsProtocol;
use ldp_core::fo::{
    DirectEncoding, FoAggregator, FrequencyOracle, HadamardResponse, OptimizedLocalHashing,
    OptimizedUnaryEncoding, ThresholdHistogramEncoding,
};
use ldp_core::rr::BinaryRandomizedResponse;
use ldp_core::Epsilon;
use ldp_microsoft::DBitFlip;
use ldp_microsoft::OneBitMean;
use ldp_rappor::{RapporClient, RapporParams};
use ldp_sketch::BitVec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_encode(c: &mut Criterion) {
    let eps = Epsilon::new(1.0).expect("valid eps");
    let mut group = c.benchmark_group("client_encode");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(1);

    group.bench_function("binary_rr", |b| {
        let rr = BinaryRandomizedResponse::new(eps);
        b.iter(|| rr.randomize(black_box(true), &mut rng))
    });

    group.bench_function("grr_d1024", |b| {
        let m = DirectEncoding::new(1024, eps).expect("valid domain");
        b.iter(|| m.randomize(black_box(17), &mut rng))
    });

    for d in [256u64, 4096] {
        group.bench_with_input(BenchmarkId::new("oue", d), &d, |b, &d| {
            let m = OptimizedUnaryEncoding::new(d, eps).expect("valid domain");
            b.iter(|| m.randomize(black_box(17), &mut rng))
        });
    }

    group.bench_function("olh_d2^30", |b| {
        let m = OptimizedLocalHashing::new(1 << 30, eps);
        b.iter(|| m.randomize(black_box(123_456), &mut rng))
    });

    group.bench_function("hr_d2^20", |b| {
        let m = HadamardResponse::new(1 << 20, eps);
        b.iter(|| m.randomize(black_box(123_456), &mut rng))
    });

    group.bench_function("rappor_report", |b| {
        let params = RapporParams::chrome_default(64).expect("valid params");
        let mut client = RapporClient::new(params, 3, &mut rng);
        b.iter(|| client.report(black_box(b"example.com"), &mut rng))
    });

    group.bench_function("apple_cms_m1024", |b| {
        let proto = CmsProtocol::new(64, 1024, Epsilon::new(4.0).expect("valid eps"), 9);
        b.iter(|| proto.randomize(black_box(42), &mut rng))
    });

    group.bench_function("apple_hcms_m1024", |b| {
        let proto = HcmsProtocol::new(64, 1024, Epsilon::new(4.0).expect("valid eps"), 9);
        b.iter(|| proto.randomize(black_box(42), &mut rng))
    });

    group.bench_function("microsoft_1bit", |b| {
        let m = OneBitMean::new(eps, 3600.0).expect("valid range");
        b.iter(|| m.randomize(black_box(900.0), &mut rng))
    });

    group.finish();
}

/// Scalar-vs-batch randomization for the unary family, over a 1k-report
/// batch so criterion's per-element throughput is comparable across the
/// paths.
fn bench_encode_batch(c: &mut Criterion) {
    let eps = Epsilon::new(1.0).expect("valid eps");
    let batch: Vec<u64> = (0..1000u64).collect();
    let mut group = c.benchmark_group("client_encode_batch");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(batch.len() as u64));

    for d in [1024u64, 4096] {
        let oue = OptimizedUnaryEncoding::new(d, eps).expect("valid domain");
        group.bench_with_input(BenchmarkId::new("oue_scalar_geometric", d), &d, |b, _| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| {
                let mut agg = oue.new_aggregator();
                for &v in &batch {
                    agg.accumulate(&oue.randomize(black_box(v), &mut rng));
                }
                agg.reports()
            })
        });
        group.bench_with_input(BenchmarkId::new("oue_fused_batch", d), &d, |b, _| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| {
                let mut agg = oue.new_aggregator();
                oue.randomize_accumulate_batch(black_box(&batch), &mut rng, &mut agg);
                agg.reports()
            })
        });
    }

    // THE: the batch path replaces d Laplace draws with 2 + d·q uniforms.
    {
        let the = ThresholdHistogramEncoding::new(4096, eps).expect("valid domain");
        group.bench_function("the_fused_batch/4096", |b| {
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| {
                let mut agg = the.new_aggregator();
                the.randomize_accumulate_batch(black_box(&batch), &mut rng, &mut agg);
                agg.reports()
            })
        });
    }

    // Apple CMS: the reusable report buffer vs the fused counter path.
    {
        let oracle = CmsOracle::new(16, 1024, Epsilon::new(2.0).expect("valid eps"), 31, 1024);
        group.bench_function("apple_cms_report_into_reused_buf/1024", |b| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut report = CmsReport::empty();
            b.iter(|| {
                let mut server = oracle.protocol().new_server();
                for &v in &batch {
                    oracle
                        .protocol()
                        .report_into(black_box(v), &mut rng, &mut report);
                    server.accumulate(&report);
                }
                server.reports()
            })
        });
        group.bench_function("apple_cms_fused_batch/1024", |b| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                let mut agg = oracle.new_aggregator();
                oracle.randomize_accumulate_batch(black_box(&batch), &mut rng, &mut agg);
                agg.reports()
            })
        });
    }

    // Microsoft dBitFlip: the fused rejection+skip batch path.
    {
        let dbf = DBitFlip::new(1024, 16, eps).expect("valid params");
        group.bench_function("ms_dbitflip_fused_batch/k1024_d16", |b| {
            let mut rng = StdRng::seed_from_u64(9);
            b.iter(|| {
                let mut agg = DBitFlip::new_aggregator(&dbf);
                dbf.randomize_accumulate_batch(black_box(&batch), &mut rng, &mut agg);
                agg.reports()
            })
        });
    }

    // RAPPOR: allocation-free reporting through the reusable buffer.
    {
        let params = RapporParams::chrome_default(64).expect("valid params");
        let mut rng = StdRng::seed_from_u64(9);
        let mut client = RapporClient::new(params.clone(), 3, &mut rng);
        let mut buf = BitVec::zeros(params.bloom_bits());
        group.bench_function("rappor_report_into_reused_buf", |b| {
            let mut rng = StdRng::seed_from_u64(10);
            b.iter(|| {
                let mut total = 0usize;
                for _ in 0..batch.len() {
                    client.report_into(black_box(b"example.com"), &mut rng, &mut buf);
                    total += buf.count_ones();
                }
                total
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_encode, bench_encode_batch);
criterion_main!(benches);
