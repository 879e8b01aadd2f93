//! The Sequence Fragment Puzzle (SFP): Apple's new-word discovery.
//!
//! Discovering strings outside any dictionary is harder than frequency
//! estimation: fragments alone can be reassembled incorrectly ("face" +
//! "time" vs "face" + "book"). Apple's trick is the *puzzle piece*: every
//! fragment report carries an 8-bit hash of the **whole word**, so the
//! server only joins fragments whose puzzle pieces match — collisions
//! across different words are rare (1/256 per pair) and are filtered by a
//! final frequency check.
//!
//! Protocol (white-paper structure, simulated dictionary-free):
//! 1. Each client normalizes its word to a fixed length, picks a random
//!    fragment position `pos`, and submits
//!    `(pos, encode(fragment ‖ h₈(word)))` through a [`CmsProtocol`]
//!    sketch for that position, plus `encode(word)` through a separate
//!    whole-word sketch (budget split across the two submissions).
//! 2. The server decodes frequent `(fragment, puzzle)` pairs per position,
//!    groups them by puzzle byte, assembles one candidate word per puzzle
//!    group (taking the best fragment per position), and ranks candidates
//!    by their whole-word sketch estimate.

use crate::cms::{CmsProtocol, CmsServer};
use ldp_core::fo::counters::{self, Op};
use ldp_core::{Epsilon, Error, Result};
use ldp_sketch::hash::hash_bytes64;
use rand::Rng;

/// Normalization alphabet (same 40-symbol set as the RAPPOR discovery
/// reproduction): `a–z`, `0–9`, `.`, `-`, `_`, pad.
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-_";
const PAD: u64 = 39;
const RADIX: u64 = 40;

fn symbol(b: u8) -> u64 {
    match b {
        b'a'..=b'z' => (b - b'a') as u64,
        b'A'..=b'Z' => (b - b'A') as u64,
        b'0'..=b'9' => 26 + (b - b'0') as u64,
        b'.' => 36,
        b'-' => 37,
        b'_' => 38,
        _ => 37,
    }
}

#[cfg(test)]
fn normalize(s: &[u8], len: usize) -> Vec<u64> {
    let mut out = Vec::new();
    normalize_into(s, len, &mut out);
    out
}

/// Allocation-free [`normalize`] into a reusable buffer (the fused
/// collection loop normalizes one word per user).
fn normalize_into(s: &[u8], len: usize, out: &mut Vec<u64>) {
    out.clear();
    out.extend(s.iter().take(len).map(|&b| symbol(b)));
    out.resize(len, PAD);
}

fn pack_fragment(symbols: &[u64]) -> u64 {
    symbols.iter().fold(0, |acc, &s| acc * RADIX + s)
}

fn unpack_fragment(mut v: u64, len: usize) -> String {
    let mut chars = vec![0u8; len];
    for i in (0..len).rev() {
        let s = (v % RADIX) as usize;
        chars[i] = if s == PAD as usize { b'*' } else { ALPHABET[s] };
        v /= RADIX;
    }
    String::from_utf8(chars).expect("ascii alphabet")
}

/// 64-bit hash of a whole (normalized) word — the whole-word sketch key;
/// its low byte is the puzzle piece. `buf` is a reusable byte scratch.
fn word_hash_with(word: &[u64], buf: &mut Vec<u8>) -> u64 {
    buf.clear();
    buf.extend(word.iter().map(|&s| s as u8));
    hash_bytes64(buf)
}

/// 8-bit puzzle piece of a whole (normalized) word.
fn puzzle_piece(word: &[u64]) -> u64 {
    word_hash_with(word, &mut Vec::new()) & 0xff
}

/// Whole-word sketch key.
fn word_key(word: &[u64]) -> u64 {
    word_hash_with(word, &mut Vec::new())
}

/// Configuration for [`SfpDiscovery`].
#[derive(Debug, Clone)]
pub struct SfpConfig {
    /// Normalized word length (symbols).
    pub word_len: usize,
    /// Fragment length (must divide `word_len`).
    pub fragment_len: usize,
    /// Total per-user budget, split evenly between the fragment and
    /// whole-word submissions.
    pub epsilon: Epsilon,
    /// Sketch rows `k` for both sketches.
    pub sketch_rows: usize,
    /// Sketch width `m` for both sketches.
    pub sketch_width: usize,
    /// How many top `(fragment, puzzle)` pairs to keep per position.
    pub fragments_per_position: usize,
}

impl SfpConfig {
    /// A configuration suitable for simulations: 6-symbol words, bigram
    /// fragments, 1024-wide sketches.
    pub fn simulation(epsilon: Epsilon) -> Self {
        Self {
            word_len: 6,
            fragment_len: 2,
            epsilon,
            sketch_rows: 16,
            sketch_width: 1024,
            fragments_per_position: 8,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.word_len == 0 || self.fragment_len == 0 {
            return Err(Error::InvalidParameter("lengths must be positive".into()));
        }
        if !self.word_len.is_multiple_of(self.fragment_len) {
            return Err(Error::InvalidParameter(format!(
                "fragment_len {} must divide word_len {}",
                self.fragment_len, self.word_len
            )));
        }
        if self.sketch_rows == 0 || self.sketch_width < 2 || self.fragments_per_position == 0 {
            return Err(Error::InvalidParameter(
                "sketch parameters out of range".into(),
            ));
        }
        Ok(())
    }

    fn positions(&self) -> usize {
        self.word_len / self.fragment_len
    }

    fn fragment_domain(&self) -> u64 {
        RADIX.pow(self.fragment_len as u32) * 256
    }
}

/// A discovered word and its estimated count.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredWord {
    /// The recovered normalized word (pad symbols shown as `*`).
    pub word: String,
    /// Whole-word sketch estimate of its population count.
    pub estimate: f64,
}

/// Server-side collection state for one SFP round: one CMS server per
/// fragment position plus the whole-word server. Mergeable, so the
/// client stage can be sharded (threads or collector machines) and
/// combined — the same contract as every `ldp-core` aggregator.
#[derive(Debug, Clone)]
pub struct SfpCollectors {
    fragments: Vec<CmsServer>,
    word: CmsServer,
}

impl SfpCollectors {
    /// Reports collected (each user contributes one fragment report and
    /// one whole-word report).
    pub fn reports(&self) -> usize {
        self.word.reports()
    }

    /// The per-position fragment sketches.
    pub fn fragment_servers(&self) -> &[CmsServer] {
        &self.fragments
    }

    /// The whole-word sketch.
    pub fn word_server(&self) -> &CmsServer {
        &self.word
    }

    /// Merges another shard's collectors into this one (exact integer
    /// counter addition — bit-identical to sequential collection).
    ///
    /// # Errors
    /// As [`counters::apply`], for a position-count mismatch or any
    /// sketch; a refusal from one sketch undoes the ones already merged,
    /// so `self` is unchanged on error.
    pub fn merge(&mut self, other: Self) -> Result<()> {
        self.apply(&other, Op::Merge)
    }

    /// Subtracts another collector pair's counters from this one — the
    /// exact inverse of [`merge`](Self::merge), all-or-nothing the same
    /// way.
    ///
    /// # Errors
    /// As [`merge`](Self::merge).
    pub fn try_subtract(&mut self, other: &Self) -> Result<()> {
        self.apply(other, Op::Subtract)
    }

    fn apply(&mut self, other: &Self, op: Op) -> Result<()> {
        if self.fragments.len() != other.fragments.len() {
            return Err(Error::StateMismatch("SFP position counts differ".into()));
        }
        let mine = self.fragments.iter_mut().chain([&mut self.word]);
        let mut parts: Vec<_> = mine
            .zip(other.fragments.iter().chain([&other.word]))
            .collect();
        for i in 0..parts.len() {
            let (a, b) = &mut parts[i];
            if let Err(e) = counters::apply(*a, b, op) {
                for (a, b) in &mut parts[..i] {
                    counters::apply(*a, b, op.inverse()).expect("exact inverse");
                }
                return Err(e);
            }
        }
        Ok(())
    }
}

impl ldp_core::snapshot::StateSnapshot for SfpCollectors {
    fn state_tag(&self) -> u8 {
        ldp_core::snapshot::state_tag::APPLE_SFP
    }

    fn snapshot_payload(&self, out: &mut Vec<u8>) {
        // Each nested sketch payload is self-delimiting (its counter
        // vectors carry length prefixes), so the fragment payloads are
        // written back to back with only a leading position count.
        ldp_core::snapshot::put_count(out, self.fragments.len());
        for frag in &self.fragments {
            frag.snapshot_payload(out);
        }
        self.word.snapshot_payload(out);
    }

    fn restore_payload(&mut self, r: &mut ldp_core::wire::WireReader<'_>) -> ldp_core::Result<()> {
        let positions = ldp_core::snapshot::get_count(r)?;
        if positions != self.fragments.len() {
            return Err(ldp_core::LdpError::StateMismatch(format!(
                "SFP position count: snapshot has {positions}, aggregator has {}",
                self.fragments.len()
            )));
        }
        // Decode into clones so a failure partway leaves `self` intact.
        let mut fragments = self.fragments.clone();
        for frag in &mut fragments {
            frag.restore_payload(r)?;
        }
        let mut word = self.word.clone();
        word.restore_payload(r)?;
        self.fragments = fragments;
        self.word = word;
        Ok(())
    }
}

/// The SFP discovery protocol.
#[derive(Debug)]
pub struct SfpDiscovery {
    config: SfpConfig,
    fragment_sketches: Vec<CmsProtocol>,
    word_sketch: CmsProtocol,
}

impl SfpDiscovery {
    /// Creates the protocol, deriving per-position sketch seeds from
    /// `seed`.
    ///
    /// # Errors
    /// Propagates configuration validation failures.
    pub fn new(config: SfpConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let half_eps = config.epsilon.split(2);
        let fragment_sketches = (0..config.positions())
            .map(|p| {
                CmsProtocol::new(
                    config.sketch_rows,
                    config.sketch_width,
                    half_eps,
                    seed.wrapping_add(1 + p as u64),
                )
            })
            .collect();
        let word_sketch = CmsProtocol::new(config.sketch_rows, config.sketch_width, half_eps, seed);
        Ok(Self {
            config,
            fragment_sketches,
            word_sketch,
        })
    }

    /// Creates the empty per-position fragment sketches and the whole-word
    /// sketch for one collection round.
    pub fn new_collectors(&self) -> SfpCollectors {
        SfpCollectors {
            fragments: self
                .fragment_sketches
                .iter()
                .map(|s| s.new_server())
                .collect(),
            word: self.word_sketch.new_server(),
        }
    }

    /// The fused client stage: privatizes every user's fragment and
    /// whole-word submissions (each at `ε/2`) straight into `collectors`
    /// through [`CmsServer::accumulate_fused`] — no report vectors, no
    /// per-user sketch rows, one reusable normalization buffer.
    ///
    /// Bit-identical to the scalar reference (per-user
    /// `randomize` + `accumulate` with the same RNG), and mergeable: the
    /// population can be sharded across calls on separate collectors and
    /// combined with [`SfpCollectors::merge`].
    pub fn collect<R: Rng + ?Sized>(
        &self,
        population: &[&[u8]],
        rng: &mut R,
        collectors: &mut SfpCollectors,
    ) {
        let cfg = &self.config;
        let positions = cfg.positions();
        let mut word = Vec::with_capacity(cfg.word_len);
        let mut bytes = Vec::with_capacity(cfg.word_len);
        for raw in population {
            normalize_into(raw, cfg.word_len, &mut word);
            let hash = word_hash_with(&word, &mut bytes);
            let puzzle = hash & 0xff;
            let pos = rng.gen_range(0..positions);
            let frag = pack_fragment(&word[pos * cfg.fragment_len..(pos + 1) * cfg.fragment_len]);
            let frag_value = frag * 256 + puzzle;
            collectors.fragments[pos].accumulate_fused(frag_value, rng);
            collectors.word.accumulate_fused(hash, rng);
        }
    }

    /// Runs discovery over a population of words: one fused collection
    /// round ([`collect`](Self::collect)) followed by
    /// [`decode`](Self::decode).
    ///
    /// Returns discovered words sorted by estimated count, descending.
    pub fn run<R: Rng>(&self, population: &[&[u8]], rng: &mut R) -> Vec<DiscoveredWord> {
        let mut collectors = self.new_collectors();
        self.collect(population, rng, &mut collectors);
        self.decode(&collectors)
    }

    /// Server side: candidate-driven decode — a heavy-hitter-style
    /// frontier instead of exhaustively scoring `40^ℓ·256` values at
    /// every position.
    ///
    /// Position 0 is the seed scan: only `(fragment, puzzle)` values
    /// clearing a noise threshold (a multiple of the sketch's
    /// per-estimate standard deviation) survive — found with
    /// [`CmsServer::scan_above`], which feeds the threshold into a
    /// pruned sketch scan rather than estimating the full domain — and
    /// their puzzle bytes form the surviving *frontier*. Positions ≥ 1 then
    /// score only values whose puzzle byte is in the frontier — a
    /// `|frontier|/256` fraction of the domain. The join is sound
    /// because any completable candidate must carry its puzzle byte at
    /// *every* position, so restricting later positions to puzzles that
    /// survived position 0 discards nothing that could have assembled.
    ///
    /// Each surviving list is then capped at `fragments_per_position`
    /// (the same cap the frozen [`decode_exhaustive`](Self::decode_exhaustive)
    /// applies) and fed to the identical assemble/verify/rank stage, so
    /// on workloads where the true words sit above the noise threshold
    /// the two decoders return the same heavy-hitter set.
    pub fn decode(&self, collectors: &SfpCollectors) -> Vec<DiscoveredWord> {
        let cfg = &self.config;
        let domain = cfg.fragment_domain();
        let mut per_position: Vec<Vec<(u64, u64, f64)>> =
            Vec::with_capacity(collectors.fragments.len());
        // Frontier of puzzle bytes still alive; None = not yet seeded.
        let mut frontier: Option<std::collections::BTreeSet<u64>> = None;
        for (pos, server) in collectors.fragments.iter().enumerate() {
            let threshold = self.noise_threshold(pos, server.reports());
            let mut scored: Vec<(u64, u64, f64)> = Vec::new();
            match &frontier {
                None => {
                    // Seed scan: the 2σ survivor threshold drives a
                    // pruned sketch scan (precomputed cell table,
                    // row-level suffix-max cutoffs) instead of a full
                    // per-value estimate of the whole domain; the
                    // survivors and their estimates are bit-identical
                    // to the naive filter scan.
                    for (v, e) in server.scan_above(domain, threshold) {
                        scored.push((v / 256, v % 256, e));
                    }
                }
                Some(alive) => {
                    // Frontier scan: only puzzles that can still join.
                    for frag in 0..domain / 256 {
                        for &puzzle in alive {
                            let e = server.estimate(frag * 256 + puzzle);
                            if e > threshold {
                                scored.push((frag, puzzle, e));
                            }
                        }
                    }
                }
            }
            scored.sort_by(|a, b| b.2.total_cmp(&a.2));
            scored.truncate(cfg.fragments_per_position);
            // Narrow the frontier: a puzzle missing at any position can
            // never assemble a complete candidate.
            frontier = Some(scored.iter().map(|&(_, p, _)| p).collect());
            per_position.push(scored);
        }
        self.assemble_and_rank(&per_position, collectors)
    }

    /// The per-position survival threshold: twice the fragment sketch's
    /// approximate per-estimate standard deviation at `n` reports (and
    /// never below zero, matching the exhaustive decoder's positivity
    /// filter).
    fn noise_threshold(&self, pos: usize, n: usize) -> f64 {
        2.0 * self.fragment_sketches[pos].approx_count_variance(n).sqrt()
    }

    /// The frozen exhaustive decoder: scores the full `40^ℓ·256` domain
    /// at every position and keeps each position's global top
    /// `fragments_per_position`. Kept verbatim as the correctness oracle
    /// for [`decode`](Self::decode) (recall tests) and as the frozen
    /// baseline `ldp-bench` measures `sfp_decode_speedup` against — do
    /// not optimize it.
    pub fn decode_exhaustive(&self, collectors: &SfpCollectors) -> Vec<DiscoveredWord> {
        let cfg = &self.config;
        let domain = cfg.fragment_domain();
        let mut per_position: Vec<Vec<(u64, u64, f64)>> =
            Vec::with_capacity(collectors.fragments.len());
        for server in &collectors.fragments {
            let mut scored: Vec<(u64, u64, f64)> = (0..domain)
                .map(|v| (v / 256, v % 256, server.estimate(v)))
                .collect();
            scored.sort_by(|a, b| b.2.total_cmp(&a.2));
            scored.truncate(cfg.fragments_per_position);
            scored.retain(|&(_, _, e)| e > 0.0);
            per_position.push(scored);
        }
        self.assemble_and_rank(&per_position, collectors)
    }

    /// Shared back half of both decoders: group per-position survivors
    /// by puzzle byte, take the best fragment per position within each
    /// group, verify the puzzle byte against the assembled word, and
    /// rank the verified candidates by whole-word sketch estimate.
    fn assemble_and_rank(
        &self,
        per_position: &[Vec<(u64, u64, f64)>],
        collectors: &SfpCollectors,
    ) -> Vec<DiscoveredWord> {
        let cfg = &self.config;
        let mut candidates: Vec<Vec<u64>> = Vec::new();
        let puzzles: std::collections::BTreeSet<u64> = per_position
            .iter()
            .flat_map(|frags| frags.iter().map(|&(_, p, _)| p))
            .collect();
        for puzzle in puzzles {
            // Require a matching fragment at every position.
            let mut word_syms: Vec<u64> = Vec::with_capacity(cfg.word_len);
            let mut complete = true;
            for frags in per_position {
                match frags
                    .iter()
                    .filter(|&&(_, p, _)| p == puzzle)
                    .max_by(|a, b| a.2.total_cmp(&b.2))
                {
                    Some(&(frag, _, _)) => {
                        let mut syms = vec![0u64; cfg.fragment_len];
                        let mut v = frag;
                        for i in (0..cfg.fragment_len).rev() {
                            syms[i] = v % RADIX;
                            v /= RADIX;
                        }
                        word_syms.extend(syms);
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            // The puzzle byte must verify against the assembled word.
            if complete && puzzle_piece(&word_syms) == puzzle {
                candidates.push(word_syms);
            }
        }

        let mut out: Vec<DiscoveredWord> = candidates
            .into_iter()
            .map(|syms| DiscoveredWord {
                word: syms
                    .chunks(cfg.fragment_len)
                    .map(|c| unpack_fragment(pack_fragment(c), cfg.fragment_len))
                    .collect::<Vec<_>>()
                    .join(""),
                estimate: collectors.word.estimate(word_key(&syms)),
            })
            .filter(|d| d.estimate > 0.0)
            .collect();
        out.sort_by(|a, b| b.estimate.total_cmp(&a.estimate));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A refusal from the word sketch, after every fragment sketch has
    /// already moved, undoes the fragments: the composite stays
    /// all-or-nothing.
    #[test]
    fn refusal_from_a_later_sketch_undoes_the_earlier_ones() {
        let sfp = SfpDiscovery::new(SfpConfig::simulation(Epsilon::new(4.0).unwrap()), 3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = sfp.new_collectors();
        sfp.collect(&[b"face", b"time"], &mut rng, &mut a);
        let mut b = a.clone();
        b.word.accumulate_fused(7, &mut rng);
        let before = ldp_core::snapshot::snapshot_vec(&a);
        assert!(matches!(a.try_subtract(&b), Err(Error::StateMismatch(_))));
        assert_eq!(ldp_core::snapshot::snapshot_vec(&a), before);
    }

    #[test]
    fn puzzle_piece_is_8_bits_and_stable() {
        let w = normalize(b"foobar", 6);
        let p1 = puzzle_piece(&w);
        let p2 = puzzle_piece(&w);
        assert_eq!(p1, p2);
        assert!(p1 < 256);
        assert_ne!(
            puzzle_piece(&normalize(b"foobar", 6)),
            puzzle_piece(&normalize(b"foobaz", 6))
        );
    }

    #[test]
    fn fragment_pack_unpack_roundtrip() {
        for s in [b"ab".as_slice(), b"z9", b".."] {
            let syms = normalize(s, 2);
            let packed = pack_fragment(&syms);
            assert_eq!(
                unpack_fragment(packed, 2).as_bytes(),
                s.to_ascii_lowercase()
            );
        }
    }

    #[test]
    fn discovers_popular_words() {
        let config = SfpConfig::simulation(Epsilon::new(6.0).unwrap());
        let sfp = SfpDiscovery::new(config, 99).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut population: Vec<&[u8]> = Vec::new();
        for i in 0..20_000 {
            population.push(match i % 10 {
                0..=5 => b"selfie",
                6..=8 => b"emojis",
                _ => b"xq1-z0",
            });
        }
        let found = sfp.run(&population, &mut rng);
        assert!(!found.is_empty(), "should discover words");
        assert_eq!(found[0].word, "selfie", "top word: {found:?}");
        assert!(
            found.iter().any(|d| d.word == "emojis"),
            "emojis should be found: {found:?}"
        );
    }

    #[test]
    fn candidate_decode_matches_exhaustive_oracle() {
        // On seeded workloads whose true words sit well above the noise
        // threshold, the frontier decode must return exactly the same
        // heavy-hitter set as the frozen exhaustive oracle — every word
        // the oracle finds (recall) and nothing extra (superset-free).
        for (seed, rng_seed) in [(99u64, 7u64), (5, 11), (1234, 42)] {
            let config = SfpConfig::simulation(Epsilon::new(6.0).unwrap());
            let sfp = SfpDiscovery::new(config, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let mut population: Vec<&[u8]> = Vec::new();
            for i in 0..20_000 {
                population.push(match i % 10 {
                    0..=5 => b"selfie",
                    6..=8 => b"emojis",
                    _ => b"xq1-z0",
                });
            }
            let mut collectors = sfp.new_collectors();
            sfp.collect(&population, &mut rng, &mut collectors);

            let fast = sfp.decode(&collectors);
            let slow = sfp.decode_exhaustive(&collectors);
            let fast_words: Vec<&str> = fast.iter().map(|d| d.word.as_str()).collect();
            let slow_words: Vec<&str> = slow.iter().map(|d| d.word.as_str()).collect();
            assert_eq!(
                fast_words, slow_words,
                "seed ({seed},{rng_seed}): frontier {fast:?} vs exhaustive {slow:?}"
            );
            // Estimates come from the same whole-word sketch lookups.
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.estimate.to_bits(), s.estimate.to_bits());
            }
        }
    }

    #[test]
    fn config_validation() {
        let mut c = SfpConfig::simulation(Epsilon::new(2.0).unwrap());
        c.fragment_len = 4; // does not divide 6
        assert!(SfpDiscovery::new(c, 0).is_err());
        let mut c = SfpConfig::simulation(Epsilon::new(2.0).unwrap());
        c.sketch_rows = 0;
        assert!(SfpDiscovery::new(c, 0).is_err());
    }
}
