//! Drift-path guarantees: the streaming quantile sketch stays within its
//! provable rank-error bound on adversarial streams (constant runs,
//! ±∞-adjacent values, heavy duplicates), and epoch-versioned encodings
//! survive a store round trip — segments written under different epochs
//! decode independently from one persisted image, byte-identically at every
//! worker count, and keep their epochs through a durable WAL replay.

use proptest::prelude::*;
use sms_core::durable::{DurableConfig, DurableStore, FaultStorage};
use sms_core::pipeline::CodecBuilder;
use sms_core::segstore::SegmentStore;
use sms_core::separators::SeparatorMethod;
use sms_core::shard::{splitmix64, DriftConfig, ShardedEngineConfig, ShardedFleetEngine};
use sms_core::stats::{ExactQuantiles, QuantileSketch};
use sms_core::timeseries::TimeSeries;

/// Stream values `<= v` under the same total order the sketch uses.
fn true_rank_le(values: &[f64], v: f64) -> u64 {
    values.iter().filter(|x| x.total_cmp(&v).is_le()).count() as u64
}

/// Stream values strictly `< v`.
fn true_rank_lt(values: &[f64], v: f64) -> u64 {
    values.iter().filter(|x| x.total_cmp(&v).is_lt()).count() as u64
}

/// Adversarial streams: constant runs, heavy duplicates, values adjacent to
/// ±∞, and ±∞ themselves (the sketch accepts infinities as data — only NaN
/// errors, per the PR 6 policy).
fn adversarial_stream() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (0u8..13, -1e9f64..1e9).prop_map(|(tag, r)| match tag {
            0..=2 => 42.0,
            3 | 4 => -7.5,
            5 => f64::MAX,
            6 => f64::MIN,
            7 => f64::INFINITY,
            8 => f64::NEG_INFINITY,
            _ => r,
        }),
        1..500,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every rank estimate is within the sketch's own advertised bound.
    #[test]
    fn sketch_rank_error_stays_within_advertised_bound(values in adversarial_stream()) {
        // k = 8 forces compactions even on short streams, so the bound is
        // exercised, not just the exact regime.
        let mut sk = QuantileSketch::new(8).unwrap();
        for &v in &values {
            sk.update(v).unwrap();
        }
        let bound = sk.rank_error_bound();
        for &v in &values {
            let approx = sk.rank(v) as i128;
            let exact = true_rank_le(&values, v) as i128;
            prop_assert!(
                (approx - exact).abs() <= bound as i128,
                "rank({v}) = {approx}, exact {exact}, bound {bound}"
            );
        }
    }

    /// Sketch quantiles agree with [`ExactQuantiles`] to within the rank
    /// bound: the value returned for `q` sits within `rank_error_bound`
    /// stream positions of the exact type-1 quantile.
    #[test]
    fn sketch_quantiles_match_exact_quantiles_in_rank_space(
        finite in prop::collection::vec(
            (0u8..12, -1e6f64..1e6).prop_map(|(tag, r)| match tag {
                0..=2 => 42.0,
                3 | 4 => 1e308,
                5 | 6 => -1e308,
                _ => r,
            }),
            1..400,
        ),
        qnum in 0usize..11,
    ) {
        let q = qnum as f64 / 10.0;
        let mut sk = QuantileSketch::new(8).unwrap();
        for &v in &finite {
            sk.update(v).unwrap();
        }
        let eq = ExactQuantiles::new(&finite).unwrap();
        let n = finite.len() as u64;
        // Type-1 target rank (the sketch's quantile semantics). The exact
        // estimator interpolates at position q·(n−1), so anchor it only to
        // its own lower index: the interpolated value dominates sorted[lo].
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let exact_v = eq.quantile(q);
        let lo_idx = (q * (n - 1) as f64).floor() as u64;
        prop_assert!(true_rank_le(&finite, exact_v) > lo_idx);

        let approx_v = sk.quantile(q).unwrap();
        let bound = sk.rank_error_bound();
        // The approximate quantile's true rank interval must overlap
        // [target - bound, target + bound].
        prop_assert!(
            true_rank_le(&finite, approx_v) + bound >= target,
            "quantile({q}) = {approx_v} ranks too low: le-rank {} < target {target} - bound {bound}",
            true_rank_le(&finite, approx_v)
        );
        prop_assert!(
            true_rank_lt(&finite, approx_v) <= target + bound,
            "quantile({q}) = {approx_v} ranks too high: lt-rank {} > target {target} + bound {bound}",
            true_rank_lt(&finite, approx_v)
        );
    }

    /// Splitting a stream at any point and merging the two sketches keeps
    /// the merged bound honest.
    #[test]
    fn merged_sketches_keep_the_bound(values in adversarial_stream(), split_at in 0usize..500) {
        let cut = split_at.min(values.len());
        let mut a = QuantileSketch::new(8).unwrap();
        let mut b = QuantileSketch::new(8).unwrap();
        for &v in &values[..cut] {
            a.update(v).unwrap();
        }
        for &v in &values[cut..] {
            b.update(v).unwrap();
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), values.len() as u64);
        let bound = a.rank_error_bound();
        for &v in values.iter().take(50) {
            let approx = a.rank(v) as i128;
            let exact = true_rank_le(&values, v) as i128;
            prop_assert!((approx - exact).abs() <= bound as i128);
        }
    }
}

/// A house stream: `n` samples at 900 s, values derived from splitmix64 and
/// shifted by `offset` (the drift injection).
fn house_chunk(house: u64, start_index: usize, n: usize, offset: f64) -> TimeSeries {
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let x = splitmix64(
                house.wrapping_mul(0x9E37_79B9).wrapping_add((start_index + i) as u64 + 7919),
            );
            offset + 100.0 + (x % 4000) as f64 / 10.0
        })
        .collect();
    TimeSeries::from_regular(start_index as i64 * 900, 900, &values).expect("regular series")
}

/// Encode a fleet under epoch 0, drift it across a cutover to epoch 1, store
/// both epochs' segments in ONE image, and decode each epoch independently
/// after a byte round trip — at every worker count, with identical bytes.
#[test]
fn epoch_segments_roundtrip_through_one_image_at_every_worker_count() {
    const HOUSES: u64 = 6;
    const PRE: usize = 256;
    const POST: usize = 256;

    let mut reference: Option<Vec<u8>> = None;
    for workers in [1usize, 2, 8] {
        let builder = CodecBuilder::new()
            .method(SeparatorMethod::Median)
            .alphabet_size(16)
            .unwrap()
            .no_aggregation();
        let config = ShardedEngineConfig::with_shards(3)
            .workers(workers)
            .drift(DriftConfig { threshold: 0.3, window: 64 });
        let mut engine = ShardedFleetEngine::new(builder, config).unwrap();

        let fleet_pre: Vec<(u64, TimeSeries)> =
            (0..HOUSES).map(|h| (h, house_chunk(h, 0, PRE, 0.0))).collect();
        let fleet_post: Vec<(u64, TimeSeries)> =
            (0..HOUSES).map(|h| (h, house_chunk(h, PRE, POST, 800.0))).collect();

        let enc_pre = engine.encode_batch(&fleet_pre).unwrap();
        let enc_post = engine.encode_batch(&fleet_post).unwrap();
        assert!(enc_pre.epochs.iter().all(|&e| e == 0), "no cutover before the drift");
        assert!(enc_post.epochs.iter().all(|&e| e == 1), "every house cuts to epoch 1");

        let mut store = SegmentStore::new();
        for (i, (house, _)) in fleet_pre.iter().enumerate() {
            store.append_epoch(*house, enc_pre.epochs[i], &enc_pre.series[i]).unwrap();
            store.append_epoch(*house, enc_post.epochs[i], &enc_post.series[i]).unwrap();
        }
        let image = store.to_bytes();
        match &reference {
            None => reference = Some(image.clone()),
            Some(expected) => assert_eq!(
                *expected, image,
                "store image differs at {workers} workers — epochs leaked topology"
            ),
        }

        // The same appends through the durable layer, recovered after a
        // crash from the WAL alone (no checkpoint), keep their epochs.
        let (mut durable, _) =
            DurableStore::open(FaultStorage::new(), DurableConfig::default()).unwrap();
        for (i, (house, _)) in fleet_pre.iter().enumerate() {
            durable.append_epoch(*house, enc_pre.epochs[i], &enc_pre.series[i]).unwrap();
            durable.append_epoch(*house, enc_post.epochs[i], &enc_post.series[i]).unwrap();
        }
        durable.commit().unwrap();
        let crashed = durable.into_storage().crash_view();
        let (recovered, report) = DurableStore::open(crashed, DurableConfig::default()).unwrap();
        assert_eq!((report.generation, report.replayed), (0, 2 * HOUSES));
        for (house, _) in &fleet_pre {
            assert_eq!(recovered.store().house_epochs(*house), vec![0, 1], "house {house}");
        }
        assert_eq!(recovered.store().to_bytes(), image, "WAL replay must restore every epoch");

        // Round trip: both epochs decode independently from the one image.
        let mut reloaded = SegmentStore::from_bytes(&image).unwrap();
        for (i, (house, _)) in fleet_pre.iter().enumerate() {
            assert_eq!(reloaded.house_epochs(*house), vec![0, 1]);
            let bits = enc_pre.series[i].resolution_bits();
            for to_bits in [1, bits] {
                let got0 =
                    reloaded.read_epoch_truncated(*house, 0, i64::MIN, i64::MAX, to_bits).unwrap();
                assert_eq!(got0, enc_pre.series[i].truncate_resolution(to_bits).unwrap());
                let got1 =
                    reloaded.read_epoch_truncated(*house, 1, i64::MIN, i64::MAX, to_bits).unwrap();
                assert_eq!(got1, enc_post.series[i].truncate_resolution(to_bits).unwrap());
            }
            // An epoch never written reads back empty, not garbage.
            let none = reloaded.read_epoch_truncated(*house, 7, i64::MIN, i64::MAX, 1).unwrap();
            assert_eq!(none.len(), 0);
        }
    }
}
