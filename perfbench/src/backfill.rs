//! `backfill`: history replayed day-major, as concentrator-day files,
//! through the sharded engine (drift detection on) into the durable fleet.
//! One pass is a fixed history; the run repeats it on fresh stores, a
//! number of passes fixed by the requested time. Each day of a pass is one
//! chunk of the chunked figures (see `stats::upper_quartile`).

use std::time::Instant;

use sms_core::durable::{DurableFleet, DurableStats};
use sms_core::error::Result;
use sms_core::horizontal::SymbolicSeries;
use sms_core::shard::{splitmix64, ShardRouter};
use sms_core::timeseries::TimeSeries;

use crate::common::{
    checkpoint_all, cpu_seconds, dir_bytes, engine, ingest_file, median, open_stores,
    reference_codecs, Ctx, EpochLog, Outcome, TIMED,
};
use crate::gen::{Inputs, SAMPLES_PER_DAY};
use crate::stats::{lower_quartile, upper_quartile};
use crate::trace::{Profile, Tracer};

const W: &str = "backfill";

/// Every house's readings of one day, in house order.
pub fn day_inputs(inputs: &Inputs, houses: usize, day: i64) -> Vec<(u64, TimeSeries)> {
    (0..houses as u64).map(|h| (h, inputs.day(h, day))).collect()
}

/// Counters of one pass.
#[derive(Default)]
struct PassCounts {
    durable: DurableStats,
    packed_bytes: u64,
    segments: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    rebuilds: u64,
    epochs_shipped: u64,
    retries: u64,
    merge_wait_s: f64,
    drifted: usize,
}

/// Runs the `backfill` workload.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Outcome> {
    let houses = ctx.spec.count(W, "houses")?;
    let days = ctx.spec.count(W, "days")?;
    let file_houses = ctx.spec.count(W, "file_houses")?;
    let shards = ctx.spec.count(W, "shards")?;
    let workers = ctx.spec.count(W, "workers_per_shard")?;
    // Fixed work: whole passes, each with its own set-ups, and at least 3
    // so the files fill a p99 window.
    let passes = ((ctx.spec.real(W, "passes_per_second")? * ctx.seconds).ceil() as u64).max(3);
    let sample = ctx.spec.int(W, "check_houses")?;
    let inputs = Inputs::new(ctx.seed, ctx.spec.int(W, "drift_day")? as i64)?;
    let quiet = Tracer::new(false);
    let router = ShardRouter::new(shards)?;
    let mut out = Outcome::default();

    let (mut setups, mut file_ms, mut checkpoints, mut disk) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut day_rates, mut day_cpu) = (Vec::new(), Vec::new());
    let mut first: Option<PassCounts> = None;
    let mut pass = 0u64;
    while pass < passes {
        let root = ctx.work.join(format!("pass-{pass}"));
        let mut log = EpochLog::new(houses, days);

        // Set-up: stores, engine, and day 0, which trains every table;
        // `ctx.setups` times on a fresh directory, and the last one stays.
        let day0 = day_inputs(&inputs, houses, 0);
        let mut kept = None;
        for _ in 0..ctx.setups.max(1) {
            drop(kept.take());
            std::fs::remove_dir_all(&root).ok();
            let t = Instant::now();
            let (stores, _) = open_stores(&root, shards, &quiet)?;
            let mut fleet = DurableFleet::new(stores)?;
            let mut eng = engine(shards, workers, true)?;
            for (f, file) in day0.chunks(file_houses).enumerate() {
                let epochs = ingest_file(&mut eng, &mut fleet, file, &quiet, f as u64)?;
                for ((h, _), e) in file.iter().zip(epochs) {
                    log.set(*h, 0, e)?;
                }
            }
            setups.push(t.elapsed().as_secs_f64());
            kept = Some((fleet, eng));
        }
        let (mut fleet, mut eng) = kept.expect("at least one set-up");
        drop(day0);
        let merge0 = eng.stats().merge_wait_secs;

        // Timed: days 1.. in day-major files; synthesis stays outside.
        for day in 1..days {
            let files = day_inputs(&inputs, houses, day as i64);
            let c0 = cpu_seconds();
            let mut day_s = 0.0;
            for (f, file) in files.chunks(file_houses).enumerate() {
                let request = pass << 32 | (day * houses + f * file_houses) as u64;
                let t = Instant::now();
                let epochs = {
                    let _root = tracer.span(TIMED, request);
                    ingest_file(&mut eng, &mut fleet, file, tracer, request)?
                };
                let dt = t.elapsed().as_secs_f64();
                day_s += dt;
                file_ms.push(dt * 1e3);
                out.ops += file.len() as u64;
                for ((h, _), e) in file.iter().zip(epochs) {
                    log.set(*h, day, e)?;
                }
            }
            day_cpu.push((cpu_seconds() - c0) * 1e6 / houses as f64);
            out.timed_s += day_s;
            day_rates.push((houses * SAMPLES_PER_DAY) as f64 / day_s);
        }

        // The pass ends in a checkpoint.
        let mut stores = fleet.into_shards();
        let t = Instant::now();
        checkpoint_all(&mut stores, tracer)?;
        checkpoints.push(t.elapsed().as_secs_f64());

        // A seeded house sample must read back equal to a serial encode
        // under each day's recorded epoch.
        for k in 0..sample {
            let h = splitmix64(ctx.seed ^ pass << 20 ^ k) % houses as u64;
            let expected = reference_house(&inputs, h, log.house(h));
            let back = stores[router.route(h)].store_mut().read_range(h, 0, i64::MAX);
            out.tally.check(
                matches!((&expected, &back), (Ok(e), Ok(b)) if e.symbols() == b.symbols()
                    && e.timestamps() == b.timestamps()),
                || format!("pass {pass} house {h}: readback differs from the serial encode"),
            );
        }
        let s = eng.stats();
        out.tally.check(s.cache_evictions == 0, || {
            format!("pass {pass}: {} table-cache evictions; the fleet must fit", s.cache_evictions)
        });
        let mut counts = PassCounts {
            hits: s.cache_hits,
            misses: s.cache_misses,
            evictions: s.cache_evictions,
            rebuilds: eng.adaptive_stats().rebuilds,
            epochs_shipped: eng.adaptive_stats().epochs_shipped,
            retries: eng.pool_stats().retries,
            merge_wait_s: s.merge_wait_secs - merge0,
            drifted: log.drifted(),
            ..PassCounts::default()
        };
        for st in &stores {
            counts.durable.merge(&st.stats());
            counts.packed_bytes += st.store().stats().packed_bytes;
            counts.segments += st.store().stats().segments_written;
        }
        out.tally.check(counts.segments == (houses * days) as u64, || {
            format!("pass {pass}: {} segments stored, {} expected", counts.segments, houses * days)
        });
        drop(stores);
        disk.push(dir_bytes(&root) as f64 / (houses * days) as f64);
        std::fs::remove_dir_all(&root).ok();
        first.get_or_insert(counts);
        pass += 1;
    }

    out.tally.ops(out.ops);
    // Chunked figures: one chunk per timed day, its files in submit order.
    out.latency(file_ms, houses.div_ceil(file_houses))?;
    out.e2e.insert("setup_s", median(setups));
    out.e2e.insert("throughput_per_s", lower_quartile(&day_rates).expect("a timed day"));
    out.e2e.insert("cpu_us_per_op", upper_quartile(&day_cpu).expect("a timed day"));
    out.e2e.insert("disk_bytes_per_house_day", median(disk));
    let c = first.expect("at least one pass");
    out.lines.push(format!(
        "backfill: {pass} passes of {houses} houses x {days} days in files of {file_houses}; \
         {} house-days timed over {:.3} s; {} houses drifted",
        out.ops, out.timed_s, c.drifted
    ));

    out.layer("shard.table_cache_hit_ratio", c.hits as f64 / (c.hits + c.misses) as f64);
    out.layer("shard.merge_wait_s", c.merge_wait_s);
    out.layer("adaptive.rebuilds", c.rebuilds as f64);
    out.layer("adaptive.epochs_shipped", c.epochs_shipped as f64);
    out.layer("pool.retries", c.retries as f64);
    out.layer("durable.fsyncs", c.durable.fsyncs as f64);
    out.layer(
        "durable.wal_bytes_per_packed_byte",
        c.durable.wal_bytes as f64 / c.packed_bytes as f64,
    );
    out.layer("durable.checkpoint_s", median(checkpoints));
    out.layer("segstore.packed_bytes_per_house_day", c.packed_bytes as f64 / c.segments as f64);
    out.lines.push(format!(
        "backfill: per pass {} cache hits, {} misses, {} evictions",
        c.hits, c.misses, c.evictions
    ));
    out.spans = tracer.spans();
    if tracer.enabled() {
        let p = Profile::of(&out.spans);
        out.layer_pct(
            "shard.encode_batch_ms_p50",
            "shard.encode_batch_ms_p99",
            p.samples("shard.encode_batch", 1e6),
        );
        out.layer("shard.busy_s", p.self_s("shard."));
        out.layer_pct(
            "durable.append_us_p50",
            "durable.append_us_p99",
            p.samples("durable.append", 1e3),
        );
        out.layer_pct(
            "durable.commit_us_p50",
            "durable.commit_us_p99",
            p.samples("durable.commit", 1e3),
        );
        out.layer("durable.busy_s", p.self_s("durable.append") + p.self_s("durable.commit"));
    }
    Ok(out)
}

/// The serial reference of one house's whole stored history.
fn reference_house(inputs: &Inputs, house: u64, epochs: &[u8]) -> Result<SymbolicSeries> {
    let codecs = reference_codecs(inputs, house, epochs)?;
    let mut all = SymbolicSeries::new(4)?;
    for (day, &e) in epochs.iter().enumerate() {
        let s = codecs[e as usize].encode(&inputs.day(house, day as i64))?;
        for (t, sym) in s.iter() {
            all.push(t, sym)?;
        }
    }
    Ok(all)
}
