//! The runtime fault injector that a simulation engine consults.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![expect(
    clippy::disallowed_methods,
    reason = "the injector owns the fault stream: it seeds it, draws from it on the engine's main thread and restores it from a checkpoint; no fan-out here"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::FaultModel;
use crate::rng::GaussianSampler;

/// Explicit crash events: which tiles/links die, and when.
///
/// Round `0` means "dead from the start" (a manufacturing defect); any
/// later round models an in-field crash, used to reproduce the §4.1.3
/// observation that crashes in the early broadcast stages are the
/// dangerous ones.
///
/// # Examples
///
/// ```
/// use noc_faults::CrashSchedule;
///
/// let mut schedule = CrashSchedule::new();
/// schedule.kill_tile(5, 0);   // dead on arrival
/// schedule.kill_link(12, 30); // link 12 dies at round 30
/// assert!(schedule.tile_dead(5, 0));
/// assert!(!schedule.link_dead(12, 29));
/// assert!(schedule.link_dead(12, 30));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashSchedule {
    tiles: Vec<(usize, u64)>,
    links: Vec<(usize, u64)>,
}

impl CrashSchedule {
    /// An empty schedule (nothing crashes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules tile `tile` to be dead from round `round` onwards.
    pub fn kill_tile(&mut self, tile: usize, round: u64) -> &mut Self {
        self.tiles.push((tile, round));
        self
    }

    /// Schedules link `link` to be dead from round `round` onwards.
    pub fn kill_link(&mut self, link: usize, round: u64) -> &mut Self {
        self.links.push((link, round));
        self
    }

    /// Is `tile` dead at `round`?
    #[inline]
    pub fn tile_dead(&self, tile: usize, round: u64) -> bool {
        self.tiles.iter().any(|&(t, r)| t == tile && round >= r)
    }

    /// Is `link` dead at `round`?
    #[inline]
    pub fn link_dead(&self, link: usize, round: u64) -> bool {
        self.links.iter().any(|&(l, r)| l == link && round >= r)
    }

    /// Has any link's scheduled death come into effect by `round`? When
    /// none has, [`CrashSchedule::link_dead`] is `false` for every link.
    pub fn any_link_dead(&self, round: u64) -> bool {
        self.links.iter().any(|&(_, r)| round >= r)
    }

    /// Number of tiles ever scheduled to die.
    pub fn dead_tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Number of links ever scheduled to die.
    pub fn dead_link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over `(tile, round)` crash events.
    pub fn tile_events(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.tiles.iter().copied()
    }

    /// Iterates over `(link, round)` crash events.
    pub fn link_events(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.links.iter().copied()
    }
}

/// Running totals of the faults an injector has actually fired, so event
/// streams and reports can be reconciled against the *injection* side:
/// every detected or undetected upset in a report must trace back to one
/// `upsets` tick here, and likewise for probabilistic overflow drops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionTally {
    /// Times [`FaultInjector::upset_occurs`] answered `true`.
    pub upsets: u64,
    /// Times [`FaultInjector::overflow_drop`] answered `true`.
    pub overflow_drops: u64,
    /// Non-zero skew fractions handed out by
    /// [`FaultInjector::round_skew`].
    pub skew_draws: u64,
}

/// A captured [`FaultInjector`] position: everything that varies as the
/// injector runs, without the (immutable) fault model.
///
/// Restoring a snapshot onto an injector built from the *same* model
/// continues the fault stream exactly where the snapshot was taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectorSnapshot {
    /// Raw xoshiro256++ state of the fault stream.
    pub rng_state: [u64; 4],
    /// Cached Box–Muller spare of the skew sampler, if any.
    pub gauss_spare: Option<f64>,
    /// Injection-side fault ledger at capture time.
    pub tally: InjectionTally,
}

/// A seeded source of fault decisions, owned by the simulation engine.
///
/// All stochastic fault events — upsets, overflow drops, crash sampling,
/// synchronization skew — are drawn from one deterministic PRNG stream, so
/// an experiment is exactly reproducible from `(model, seed)`.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    model: FaultModel,
    rng: StdRng,
    gauss: GaussianSampler,
    tally: InjectionTally,
}

impl FaultInjector {
    /// Creates an injector for `model`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `model` fails [`FaultModel::validate`] — build models via
    /// [`FaultModel::builder`] to get a checked result instead.
    pub fn new(model: FaultModel, seed: u64) -> Self {
        #[expect(
            clippy::panic,
            reason = "constructor-time validation of a builder-produced model; outside the per-round sampling path"
        )]
        model
            .validate()
            .unwrap_or_else(|e| panic!("invalid fault model: {e}"));
        Self {
            model,
            rng: StdRng::seed_from_u64(seed),
            gauss: GaussianSampler::new(),
            tally: InjectionTally::default(),
        }
    }

    /// The model in force.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Totals of the faults fired so far (the injection-side ledger that
    /// event attribution reconciles against).
    pub fn tally(&self) -> InjectionTally {
        self.tally
    }

    /// Samples which of `n` tiles are dead from the start (Bernoulli with
    /// `p_tiles` per tile). Returns `alive[i]`.
    pub fn sample_alive_tiles(&mut self, n: usize) -> Vec<bool> {
        (0..n)
            .map(|_| !self.bernoulli(self.model.p_tiles))
            .collect()
    }

    /// Samples which of `m` links are dead from the start.
    pub fn sample_alive_links(&mut self, m: usize) -> Vec<bool> {
        (0..m)
            .map(|_| !self.bernoulli(self.model.p_links))
            .collect()
    }

    /// Samples exactly `k` distinct dead tiles out of `n` (used by the
    /// figure sweeps that put "number of defective tiles" on an axis).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_exact_dead_tiles(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot kill {k} of {n} tiles");
        // Floyd's algorithm for a k-subset.
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.rng.gen_range(0..=j);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen.sort_unstable();
        chosen
    }

    /// Does a data upset scramble the packet on this link traversal?
    #[inline]
    pub fn upset_occurs(&mut self) -> bool {
        let hit = self.bernoulli(self.model.p_upset);
        self.tally.upsets += u64::from(hit);
        hit
    }

    /// Applies the configured error model to `payload` in place
    /// (conditioned on an upset having occurred).
    ///
    /// # Panics
    ///
    /// Panics if `payload` is empty.
    pub fn scramble(&mut self, payload: &mut [u8]) {
        let model = self.model.error_model;
        let p = self.model.p_upset;
        model.scramble(&mut self.rng, payload, p);
    }

    /// Copy-on-write [`FaultInjector::scramble`] for a frame shared between
    /// in-flight copies: copies the bytes into one fresh allocation,
    /// scrambles that in place, and swaps it into `frame`. Other holders of
    /// the original `Arc` are unaffected, so one upset never corrupts the
    /// fan-out siblings of the same transmission.
    ///
    /// Draws exactly the same RNG sequence as [`FaultInjector::scramble`]
    /// on the same bytes.
    ///
    /// # Panics
    ///
    /// Panics if the frame is empty.
    pub fn scramble_shared(&mut self, frame: &mut std::sync::Arc<[u8]>) {
        let mut copy: std::sync::Arc<[u8]> = std::sync::Arc::from(&frame[..]);
        // A freshly built `Arc` has exactly one owner, so `get_mut`
        // always succeeds.
        if let Some(bytes) = std::sync::Arc::get_mut(&mut copy) {
            self.scramble(bytes);
        }
        *frame = copy;
    }

    /// The fault stream's position: what [`FaultInjector::rescramble`]
    /// replays a scramble drawn from here with.
    #[inline]
    pub fn stream_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Redoes on `payload` the [`FaultInjector::scramble`] this injector
    /// drew from stream position `state` (read by
    /// [`FaultInjector::stream_state`] just before), on a copy of the
    /// stream: this injector's own position does not move. A simulator
    /// that kept only an upset's position can rebuild its bytes when
    /// something does read them.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is empty.
    pub fn rescramble(&self, state: [u64; 4], payload: &mut [u8]) {
        let mut replay = StdRng::from_state(state);
        self.model
            .error_model
            .scramble(&mut replay, payload, self.model.p_upset);
    }

    /// Is a received packet dropped by (probabilistic) buffer overflow?
    #[inline]
    pub fn overflow_drop(&mut self) -> bool {
        let hit = self.bernoulli(self.model.p_overflow);
        self.tally.overflow_drops += u64::from(hit);
        hit
    }

    /// Samples this tile's round-duration skew as a *fraction of `T_R`*
    /// drawn from `N(0, sigma_synch²)`.
    #[inline]
    pub fn round_skew(&mut self) -> f64 {
        if self.model.sigma_synch == 0.0 {
            0.0
        } else {
            self.tally.skew_draws += 1;
            self.gauss
                .sample(&mut self.rng, 0.0, self.model.sigma_synch)
        }
    }

    /// Direct access to the underlying RNG for auxiliary decisions that
    /// must share the deterministic stream (e.g. gossip forwarding).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Captures the injector's mutable position (RNG state, Gaussian
    /// spare, tally) for checkpointing.
    #[deny(unused_variables)]
    pub fn snapshot(&self) -> InjectorSnapshot {
        // No `..`: a new field fails the build here until it is captured.
        // `model` is fixed at build; the engine hashes it into the
        // checkpoint's config digest.
        let Self {
            model: _,
            rng,
            gauss,
            tally,
        } = self;
        InjectorSnapshot {
            rng_state: rng.state(),
            gauss_spare: gauss.spare(),
            tally: *tally,
        }
    }

    /// Overwrites the injector's mutable position with `snapshot`,
    /// continuing the fault stream exactly where the snapshot was taken.
    /// The fault model is left untouched.
    pub fn restore(&mut self, snapshot: &InjectorSnapshot) {
        self.rng = StdRng::from_state(snapshot.rng_state);
        self.gauss = GaussianSampler::from_spare(snapshot.gauss_spare);
        self.tally = snapshot.tally;
    }

    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.rng.gen_bool(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultModel;

    fn model(p_upset: f64, p_overflow: f64) -> FaultModel {
        FaultModel::builder()
            .p_upset(p_upset)
            .p_overflow(p_overflow)
            .build()
            .unwrap()
    }

    #[test]
    fn fault_free_injector_never_fires() {
        let mut inj = FaultInjector::new(FaultModel::none(), 1);
        for _ in 0..1000 {
            assert!(!inj.upset_occurs());
            assert!(!inj.overflow_drop());
            assert_eq!(inj.round_skew(), 0.0);
        }
        assert!(inj.sample_alive_tiles(100).iter().all(|&a| a));
        assert!(inj.sample_alive_links(100).iter().all(|&a| a));
    }

    #[test]
    fn certain_faults_always_fire() {
        let mut inj = FaultInjector::new(model(1.0, 1.0), 1);
        for _ in 0..100 {
            assert!(inj.upset_occurs());
            assert!(inj.overflow_drop());
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = FaultInjector::new(model(0.5, 0.5), 42);
        let mut b = FaultInjector::new(model(0.5, 0.5), 42);
        let da: Vec<bool> = (0..100).map(|_| a.upset_occurs()).collect();
        let db: Vec<bool> = (0..100).map(|_| b.upset_occurs()).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = FaultInjector::new(model(0.5, 0.5), 1);
        let mut b = FaultInjector::new(model(0.5, 0.5), 2);
        let da: Vec<bool> = (0..100).map(|_| a.upset_occurs()).collect();
        let db: Vec<bool> = (0..100).map(|_| b.upset_occurs()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn upset_rate_approximates_p_upset() {
        let mut inj = FaultInjector::new(model(0.3, 0.0), 7);
        let n = 20_000;
        let hits = (0..n).filter(|_| inj.upset_occurs()).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn exact_dead_tiles_are_distinct_and_in_range() {
        let mut inj = FaultInjector::new(FaultModel::none(), 3);
        for k in 0..=16 {
            let dead = inj.sample_exact_dead_tiles(16, k);
            assert_eq!(dead.len(), k);
            assert!(dead.windows(2).all(|w| w[0] < w[1]), "distinct+sorted");
            assert!(dead.iter().all(|&t| t < 16));
        }
    }

    #[test]
    #[should_panic(expected = "cannot kill")]
    fn too_many_dead_tiles_panics() {
        let mut inj = FaultInjector::new(FaultModel::none(), 3);
        let _ = inj.sample_exact_dead_tiles(4, 5);
    }

    #[test]
    fn tally_counts_only_fired_faults() {
        let mut inj = FaultInjector::new(model(0.3, 0.3), 5);
        let mut upsets = 0u64;
        let mut overflows = 0u64;
        for _ in 0..1000 {
            upsets += u64::from(inj.upset_occurs());
            overflows += u64::from(inj.overflow_drop());
        }
        let t = inj.tally();
        assert_eq!(t.upsets, upsets);
        assert_eq!(t.overflow_drops, overflows);
        assert_eq!(t.skew_draws, 0, "sigma 0 never draws skew");

        let m = FaultModel::builder().sigma_synch(0.25).build().unwrap();
        let mut skewed = FaultInjector::new(m, 5);
        for _ in 0..17 {
            let _ = skewed.round_skew();
        }
        assert_eq!(skewed.tally().skew_draws, 17);
    }

    #[test]
    fn crash_schedule_semantics() {
        let mut s = CrashSchedule::new();
        s.kill_tile(2, 10).kill_link(7, 0);
        assert!(!s.tile_dead(2, 9));
        assert!(s.tile_dead(2, 10));
        assert!(s.tile_dead(2, 999));
        assert!(!s.tile_dead(3, 999));
        assert!(s.link_dead(7, 0));
        assert!(s.any_link_dead(0));
        let mut later = CrashSchedule::new();
        later.kill_tile(1, 0).kill_link(4, 6);
        assert!(!later.any_link_dead(5), "tile deaths do not count");
        assert!(later.any_link_dead(6) && later.link_dead(4, 6));
        assert_eq!(s.dead_tile_count(), 1);
        assert_eq!(s.dead_link_count(), 1);
        assert_eq!(s.tile_events().collect::<Vec<_>>(), vec![(2, 10)]);
    }

    #[test]
    fn scramble_shared_leaves_other_holders_untouched() {
        let mut inj = FaultInjector::new(model(0.5, 0.0), 9);
        let original: std::sync::Arc<[u8]> = vec![0u8; 8].into();
        let mut scrambled = std::sync::Arc::clone(&original);
        inj.scramble_shared(&mut scrambled);
        assert!(
            original.iter().all(|&b| b == 0),
            "CoW preserved the original"
        );
        assert!(scrambled.iter().any(|&b| b != 0));

        // Same seed, same bytes: the shared path draws the identical
        // stream and leaves it at the identical position.
        let mut inj2 = FaultInjector::new(model(0.5, 0.0), 9);
        let mut plain = vec![0u8; 8];
        inj2.scramble(&mut plain);
        assert_eq!(&scrambled[..], &plain[..]);
        assert_eq!(inj.snapshot(), inj2.snapshot());
    }

    #[test]
    fn rescramble_replays_the_scramble_drawn_from_a_position() {
        for model in [
            model(0.5, 0.0),
            FaultModel::builder()
                .p_upset(0.5)
                .error_model(crate::ErrorModel::RandomBitError)
                .build()
                .unwrap(),
        ] {
            let mut inj = FaultInjector::new(model, 13);
            for len in [1, 7, 8, 30, 530] {
                let state = inj.stream_state();
                let mut drawn = vec![0x3Cu8; len];
                inj.scramble(&mut drawn);
                let after = inj.snapshot();
                let mut replayed = vec![0x3Cu8; len];
                inj.rescramble(state, &mut replayed);
                assert_eq!(replayed, drawn, "{len} bytes");
                assert_eq!(inj.snapshot(), after, "the stream did not move");
            }
        }
    }

    #[test]
    fn scramble_changes_payload() {
        let mut inj = FaultInjector::new(model(0.5, 0.0), 9);
        let mut p = vec![0u8; 8];
        inj.scramble(&mut p);
        assert!(p.iter().any(|&b| b != 0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn alive_sampling_rate_tracks_p_tiles(
                p in 0.0f64..=1.0,
                seed in 0u64..1000,
            ) {
                let model = FaultModel::builder().p_tiles(p).build().unwrap();
                let mut inj = FaultInjector::new(model, seed);
                let alive = inj.sample_alive_tiles(2000);
                let dead = alive.iter().filter(|&&a| !a).count() as f64 / 2000.0;
                prop_assert!((dead - p).abs() < 0.06, "dead rate {dead} vs p {p}");
            }

            #[test]
            fn exact_dead_tiles_are_a_k_subset(
                n in 1usize..50,
                seed in 0u64..1000,
            ) {
                let mut inj = FaultInjector::new(FaultModel::none(), seed);
                for k in 0..=n {
                    let dead = inj.sample_exact_dead_tiles(n, k);
                    prop_assert_eq!(dead.len(), k);
                    prop_assert!(dead.windows(2).all(|w| w[0] < w[1]));
                    prop_assert!(dead.iter().all(|&t| t < n));
                }
            }

            #[test]
            fn scramble_is_never_a_no_op(
                len in 1usize..64,
                seed in 0u64..1000,
            ) {
                let model = FaultModel::builder().p_upset(0.5).build().unwrap();
                let mut inj = FaultInjector::new(model, seed);
                let original = vec![0xC3u8; len];
                let mut copy = original.clone();
                inj.scramble(&mut copy);
                prop_assert_ne!(copy, original);
            }
        }
    }

    #[test]
    fn skew_scales_with_sigma() {
        let m = FaultModel::builder().sigma_synch(0.25).build().unwrap();
        let mut inj = FaultInjector::new(m, 21);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| inj.round_skew()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!(mean.abs() < 0.01);
        assert!((std - 0.25).abs() < 0.01);
    }
}
