//! Subtract-inverts-merge contract for Apple's sketch aggregators:
//! `try_subtract(merge(a, b), b)` must land on state bit-identical to
//! `a` (snapshot BLOB comparison) for the CMS and HCMS servers and the
//! composite SFP collector set, while shape/hash-family mismatches and
//! oversubtraction refuse atomically. This is what lets a sliding
//! window retire an Apple sketch delta exactly.

use ldp_apple::{CmsProtocol, HcmsProtocol, SfpConfig, SfpDiscovery};
use ldp_core::snapshot::snapshot_vec;
use ldp_core::{Epsilon, LdpError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).expect("valid eps")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cms_subtract_inverts_merge(
        e in 0.5f64..5.0, seed in 0u64..1000, n in 20usize..150, cut in 0usize..150,
    ) {
        let proto = CmsProtocol::new(8, 64, eps(e), seed ^ 0xA5);
        let mut rng = StdRng::seed_from_u64(seed);
        let n_a = cut.min(n);
        let mut a = proto.new_server();
        let mut b = proto.new_server();
        let mut merged = proto.new_server();
        for i in 0..n {
            let report = proto.randomize(i as u64 % 32, &mut rng);
            if i < n_a { a.accumulate(&report) } else { b.accumulate(&report) }
            merged.accumulate(&report);
        }

        merged.try_subtract(&b).expect("b is a sub-aggregate");
        prop_assert_eq!(snapshot_vec(&merged), snapshot_vec(&a));
        prop_assert_eq!(merged.reports(), n_a);

        // Oversubtraction and a foreign hash family both refuse with the
        // minuend untouched.
        let before = snapshot_vec(&merged);
        if n_a < n {
            let mut whole = proto.new_server();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..n {
                whole.accumulate(&proto.randomize(i as u64 % 32, &mut rng));
            }
            prop_assert!(matches!(
                merged.try_subtract(&whole),
                Err(LdpError::StateMismatch(_))
            ));
        }
        let foreign = CmsProtocol::new(8, 64, eps(e), seed ^ 0x5A).new_server();
        prop_assert!(matches!(
            merged.try_subtract(&foreign),
            Err(LdpError::StateMismatch(_))
        ));
        prop_assert_eq!(snapshot_vec(&merged), before);
    }

    #[test]
    fn hcms_subtract_inverts_merge(
        e in 0.5f64..5.0, seed in 0u64..1000, n in 20usize..150, cut in 0usize..150,
    ) {
        let proto = HcmsProtocol::new(8, 64, eps(e), seed ^ 0xC3);
        let mut rng = StdRng::seed_from_u64(seed);
        let n_a = cut.min(n);
        let mut a = proto.new_server();
        let mut b = proto.new_server();
        let mut merged = proto.new_server();
        for i in 0..n {
            let report = proto.randomize(i as u64 % 32, &mut rng);
            if i < n_a { a.accumulate(&report) } else { b.accumulate(&report) }
            merged.accumulate(&report);
        }

        merged.try_subtract(&b).expect("b is a sub-aggregate");
        prop_assert_eq!(snapshot_vec(&merged), snapshot_vec(&a));
        prop_assert_eq!(merged.reports(), n_a);

        let before = snapshot_vec(&merged);
        let foreign = HcmsProtocol::new(8, 64, eps(e), seed ^ 0x3C).new_server();
        prop_assert!(matches!(
            merged.try_subtract(&foreign),
            Err(LdpError::StateMismatch(_))
        ));
        prop_assert_eq!(snapshot_vec(&merged), before);
    }

    #[test]
    fn sfp_collectors_subtract_inverts_merge(seed in 0u64..500, cut in 1usize..9) {
        let config = SfpConfig {
            word_len: 4,
            fragment_len: 2,
            epsilon: eps(4.0),
            sketch_rows: 4,
            sketch_width: 128,
            fragments_per_position: 4,
        };
        let sfp = SfpDiscovery::new(config.clone(), seed ^ 0x51).unwrap();
        let words: Vec<&[u8]> = vec![
            b"tea", b"teal", b"t0-1", b"x9.z", b"cafe", b"tea", b"cafe", b"door", b"wall", b"tea",
        ];
        let (first, rest) = words.split_at(cut.min(words.len()));

        // One RNG stream across both shards, mirrored into the merged
        // run, so merged == merge(a, b) exactly.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = sfp.new_collectors();
        sfp.collect(first, &mut rng, &mut a);
        let mut b = sfp.new_collectors();
        sfp.collect(rest, &mut rng, &mut b);
        let mut merged = a.clone();
        merged.merge(b.clone()).unwrap();

        merged.try_subtract(&b).expect("b is a sub-aggregate");
        prop_assert_eq!(snapshot_vec(&merged), snapshot_vec(&a));
        prop_assert_eq!(merged.reports(), first.len());

        // A mismatched subtrahend (different sketch seed) refuses with
        // every fragment sketch and the word sketch untouched.
        let before = snapshot_vec(&merged);
        let foreign = SfpDiscovery::new(config, seed ^ 0x15).unwrap().new_collectors();
        prop_assert!(matches!(
            merged.try_subtract(&foreign),
            Err(LdpError::StateMismatch(_))
        ));
        prop_assert_eq!(snapshot_vec(&merged), before);
    }
}
