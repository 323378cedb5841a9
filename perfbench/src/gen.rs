//! Seeded input synthesis. `meterdata` is too slow to call per house, so a
//! small pool of generated houses is simulated once and every benchmark
//! house-day is derived from it: each house follows one pool house from a
//! seeded day offset, with its own scale and per-sample jitter, and a
//! seeded share of houses shifts level from the drift day on. The same
//! seed gives the same inputs.

use sms_core::error::Result;
use sms_core::shard::splitmix64;
use sms_core::timeseries::{TimeSeries, SECONDS_PER_DAY};

/// Sampling interval of every derived series, seconds (5-minute readings).
pub const INTERVAL_S: i64 = 300;
/// Readings per house-day.
pub const SAMPLES_PER_DAY: usize = (SECONDS_PER_DAY / INTERVAL_S) as usize;

/// Houses simulated by `meterdata` for the pool.
const POOL_HOUSES: u32 = 16;
/// Days simulated per pool house.
const POOL_DAYS: usize = 7;
/// One house in this many drifts.
const DRIFT_ONE_IN: u64 = 16;
/// Level factor of a drifting house from its drift day on.
const DRIFT_FACTOR: f64 = 3.0;

/// The derived fleet of one seed.
pub struct Inputs {
    seed: u64,
    /// `POOL_HOUSES` series of `POOL_DAYS * SAMPLES_PER_DAY` values.
    pool: Vec<Vec<f64>>,
    /// First day of the level shift of drifting houses.
    drift_day: i64,
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl Inputs {
    /// Simulates the pool for `seed`; drifting houses shift on `drift_day`.
    pub fn new(seed: u64, drift_day: i64) -> Result<Self> {
        let pool =
            meterdata::generator::fleet_series(seed, POOL_HOUSES, POOL_DAYS as i64, INTERVAL_S)?
                .into_iter()
                .map(|s| s.values())
                .collect::<Vec<_>>();
        assert!(
            pool.iter().all(|v| v.len() == POOL_DAYS * SAMPLES_PER_DAY),
            "the pool is gap-free"
        );
        Ok(Inputs { seed, pool, drift_day })
    }

    fn hash(&self, house: u64, salt: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(house.wrapping_mul(0x9E37_79B9) ^ salt))
    }

    /// Whether `house` shifts level on the drift day.
    pub fn drifts(&self, house: u64) -> bool {
        self.hash(house, 0xD1F7).is_multiple_of(DRIFT_ONE_IN)
    }

    /// Appends the raw readings of `house` on `day` to `out`.
    pub fn day_values(&self, house: u64, day: i64, out: &mut Vec<f64>) {
        let h = self.hash(house, 0x900D);
        let src = &self.pool[(h % POOL_HOUSES as u64) as usize];
        let pool_day = ((h >> 16).wrapping_add(day as u64) % POOL_DAYS as u64) as usize;
        let mut scale = 0.5 + 1.5 * unit(self.hash(house, 0x5CA1E));
        if day >= self.drift_day && self.drifts(house) {
            scale *= DRIFT_FACTOR;
        }
        let mut noise = self.hash(house, day as u64);
        let day_src = &src[pool_day * SAMPLES_PER_DAY..(pool_day + 1) * SAMPLES_PER_DAY];
        out.extend(day_src.iter().map(|&v| {
            noise = splitmix64(noise);
            v * scale * (0.95 + 0.1 * unit(noise))
        }));
    }

    /// The readings of `house` on `day` as a regular series.
    pub fn day(&self, house: u64, day: i64) -> TimeSeries {
        let mut values = Vec::with_capacity(SAMPLES_PER_DAY);
        self.day_values(house, day, &mut values);
        TimeSeries::from_regular(day * SECONDS_PER_DAY, INTERVAL_S, &values)
            .expect("derived readings are finite")
    }
}
