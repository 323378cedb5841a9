//! `query`: recover, then serve. Set-up builds a store through the backfill
//! path and checkpoints it halfway, so a restart loads a checkpoint and
//! replays a long WAL tail. The timed phase opens with that recovery, then
//! runs a closed-loop, single-threaded mix of reads over Zipf-skewed houses
//! and recent windows, with a trickle of group-committed next-day appends
//! spread evenly over the houses.
//! The mix is a fixed number of operations set by the requested time, in
//! batches; each batch is one chunk of the chunked figures (see
//! `stats::upper_quartile`).

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use sms_core::durable::{DurableFleet, DurableStore, FsStorage};
use sms_core::error::Result;
use sms_core::horizontal::SymbolicSeries;
use sms_core::pipeline::SymbolicCodec;
use sms_core::segstore::Aggregate;
use sms_core::shard::ShardRouter;
use sms_core::symbol::Symbol;
use sms_core::timeseries::SECONDS_PER_DAY;

use crate::backfill::day_inputs;
use crate::common::{
    checkpoint_all, cpu_seconds, dir_bytes, engine, ingest_file, median, open_stores,
    reference_codecs, Ctx, EpochLog, Outcome, Rng, TIMED,
};
use crate::gen::Inputs;
use crate::stats::{lower_quartile, upper_quartile};
use crate::trace::{Profile, Tracer};

const W: &str = "query";

/// One operation of the mix.
#[derive(Clone)]
enum Op {
    Read { house: u64, days: (i64, i64), bits: u8 },
    Count { house: u64, days: (i64, i64), prefix: Symbol },
    Aggregate { house: u64, days: (i64, i64) },
    Append { house: u64, day: i64, series: SymbolicSeries },
}

/// A result kept for checking against the reference.
enum Answer {
    Read(SymbolicSeries),
    Count(u64),
    Aggregate(Aggregate),
}

/// Zipf-skewed house picker over a seeded permutation of the houses.
struct Zipf {
    cdf: Vec<f64>,
    houses: Vec<u64>,
}

impl Zipf {
    fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        let mut houses: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            houses.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf { cdf, houses }
    }

    fn pick(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.houses[self.cdf.partition_point(|&c| c < u).min(self.houses.len() - 1)]
    }
}

/// The store `DurableFleet` left on disk, and what the checks need.
struct Built {
    log: EpochLog,
    /// The build time at its slow-quartile pace: `days` times the upper
    /// quartile of the per-day times, plus the time outside the days
    /// (opening the stores and the engine, the checkpoint).
    setup_s: f64,
}

/// Builds the store through the backfill path: `days` day-major days, a
/// checkpoint after `checkpoint_day` days, then a stop with the rest in
/// the WAL.
fn build(ctx: &Ctx, inputs: &Inputs, root: &Path) -> Result<Built> {
    let houses = ctx.spec.count(W, "houses")?;
    let days = ctx.spec.count(W, "days")?;
    let checkpoint_day = ctx.spec.count(W, "checkpoint_day")?;
    let file_houses = ctx.spec.count(W, "file_houses")?;
    let shards = ctx.spec.count(W, "shards")?;
    let workers = ctx.spec.count(W, "workers_per_shard")?;
    let quiet = Tracer::new(false);
    let mut log = EpochLog::new(houses, days);
    let (mut synth, mut day_s) = (0.0, Vec::with_capacity(days));

    let t = Instant::now();
    let (stores, _) = open_stores(root, shards, &quiet)?;
    let mut fleet = DurableFleet::new(stores)?;
    let mut eng = engine(shards, workers, false)?;
    for day in 0..days {
        let s = Instant::now();
        let files = day_inputs(inputs, houses, day as i64);
        synth += s.elapsed().as_secs_f64();
        let d = Instant::now();
        for (f, file) in files.chunks(file_houses).enumerate() {
            for ((h, _), e) in
                file.iter().zip(ingest_file(&mut eng, &mut fleet, file, &quiet, f as u64)?)
            {
                log.set(*h, day, e)?;
            }
        }
        day_s.push(d.elapsed().as_secs_f64());
        if day + 1 == checkpoint_day {
            let mut stores = fleet.into_shards();
            checkpoint_all(&mut stores, &quiet)?;
            fleet = DurableFleet::new(stores)?;
        }
    }
    drop(fleet);
    let outside = t.elapsed().as_secs_f64() - synth - day_s.iter().sum::<f64>();
    let pace = upper_quartile(&day_s).expect("at least one day");
    Ok(Built { log, setup_s: outside + days as f64 * pace })
}

fn span_of(days: (i64, i64)) -> (i64, i64) {
    (days.0 * SECONDS_PER_DAY, (days.1 + 1) * SECONDS_PER_DAY - 1)
}

/// The reference symbols of `house` on `day`: under the epoch the engine
/// logged, or for days appended during the run, the newest epoch.
struct Reference<'a> {
    inputs: &'a Inputs,
    codecs: &'a [Vec<SymbolicCodec>],
    log: &'a EpochLog,
    cache: HashMap<(u64, i64), SymbolicSeries>,
}

impl Reference<'_> {
    fn codec(&self, house: u64, day: i64) -> &SymbolicCodec {
        let c = &self.codecs[house as usize];
        let epochs = self.log.house(house);
        match epochs.get(day as usize) {
            Some(&e) => &c[e as usize],
            None => c.last().expect("every house has an epoch-0 table"),
        }
    }

    fn day(&mut self, house: u64, day: i64) -> Result<&SymbolicSeries> {
        if !self.cache.contains_key(&(house, day)) {
            if self.cache.len() >= 4096 {
                self.cache.clear();
            }
            let s = self.codec(house, day).encode(&self.inputs.day(house, day))?;
            self.cache.insert((house, day), s);
        }
        Ok(&self.cache[&(house, day)])
    }

    fn window(&mut self, house: u64, days: (i64, i64), bits: u8) -> Result<SymbolicSeries> {
        let mut out = SymbolicSeries::new(bits)?;
        for d in days.0..=days.1 {
            for (t, sym) in self.day(house, d)?.iter() {
                out.push(t, sym.truncate(bits)?)?;
            }
        }
        Ok(out)
    }

    fn check(&mut self, op: &Op, answer: &Answer) -> Result<bool> {
        Ok(match (op, answer) {
            (Op::Read { house, days, bits }, Answer::Read(got)) => {
                let want = self.window(*house, *days, *bits)?;
                want.symbols() == got.symbols() && want.timestamps() == got.timestamps()
            }
            (Op::Count { house, days, prefix }, Answer::Count(got)) => {
                let want = self.window(*house, *days, prefix.resolution_bits())?;
                want.symbols().iter().filter(|s| **s == *prefix).count() as u64 == *got
            }
            (Op::Aggregate { house, days }, Answer::Aggregate(got)) => {
                let table = self.codec(*house, days.1).table().clone();
                let want = self.window(*house, *days, table.resolution_bits())?;
                let mut counts = vec![0u64; table.size()];
                for s in want.symbols() {
                    counts[s.rank() as usize] += 1;
                }
                let n: u64 = counts.iter().sum();
                let sum: f64 = counts
                    .iter()
                    .zip(table.bin_means())
                    .filter(|(&c, _)| c > 0)
                    .map(|(&c, &m)| c as f64 * m)
                    .sum();
                got.count == n
                    && (got.mean - sum / n as f64).abs() <= 1e-9 * got.mean.abs().max(1.0)
            }
            _ => false,
        })
    }
}

/// Plans the next `n` operations; appends carry their encoded series, so
/// synthesis and encoding stay outside the timed batch.
#[allow(clippy::too_many_arguments)]
fn plan(
    n: usize,
    rng: &mut Rng,
    zipf: &Zipf,
    next_day: &mut [i64],
    reference: &Reference,
    max_window: u64,
    append_permille: u64,
    recency: f64,
) -> Result<Vec<Op>> {
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = rng.below(1000);
        if kind < append_permille {
            // Every meter reports its next day, so appends spread evenly
            // over the houses; only reads follow the Zipf skew.
            let house = rng.below(next_day.len() as u64);
            let day = next_day[house as usize];
            next_day[house as usize] += 1;
            let series = reference.codec(house, day).encode(&reference.inputs.day(house, day))?;
            ops.push(Op::Append { house, day, series });
            continue;
        }
        let house = zipf.pick(rng);
        let last = next_day[house as usize] - 1;
        let len = 1 + rng.below(max_window) as i64;
        // Recent days are likelier: a geometric step back from the last day.
        let mut back = 0i64;
        while rng.unit() > recency {
            back += 1;
        }
        let end = (last - back).max(len - 1);
        let days = (end - len + 1, end);
        let bits = 1 + rng.below(4) as u8;
        ops.push(match kind % 3 {
            0 => Op::Read { house, days, bits },
            1 => Op::Count {
                house,
                days,
                prefix: Symbol::from_rank(rng.below(1 << bits) as u16, bits)?,
            },
            _ => Op::Aggregate { house, days },
        });
    }
    Ok(ops)
}

/// Runs one operation against the shard that owns its house.
fn execute(
    op: &Op,
    stores: &mut [DurableStore<FsStorage>],
    router: &ShardRouter,
    reference: &Reference,
    tracer: &Tracer,
    request: u64,
) -> Result<Option<Answer>> {
    Ok(Some(match op {
        Op::Read { house, days, bits } => {
            let (t0, t1) = span_of(*days);
            let store = stores[router.route(*house)].store_mut();
            let _s = tracer.span("segstore.read_truncated", request);
            Answer::Read(store.read_truncated(*house, t0, t1, *bits)?)
        }
        Op::Count { house, days, prefix } => {
            let (t0, t1) = span_of(*days);
            let store = stores[router.route(*house)].store_mut();
            let _s = tracer.span("segstore.count_prefix", request);
            Answer::Count(store.count_prefix(*house, t0, t1, *prefix)?)
        }
        Op::Aggregate { house, days } => {
            let (t0, t1) = span_of(*days);
            let table = reference.codec(*house, days.1).table();
            let store = stores[router.route(*house)].store_mut();
            let _s = tracer.span("segstore.aggregate_range", request);
            Answer::Aggregate(store.aggregate_range(*house, t0, t1, table)?)
        }
        Op::Append { house, series, .. } => {
            let store = &mut stores[router.route(*house)];
            let _s = tracer.span("durable.append", request);
            store.append(*house, series)?;
            return Ok(None);
        }
    }))
}

/// Runs the `query` workload.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Outcome> {
    let houses = ctx.spec.count(W, "houses")?;
    let days = ctx.spec.count(W, "days")?;
    let checkpoint_day = ctx.spec.count(W, "checkpoint_day")?;
    let shards = ctx.spec.count(W, "shards")?;
    let batch = ctx.spec.count(W, "batch_ops")?;
    let check_every = ctx.spec.int(W, "check_every")?;
    let max_window = ctx.spec.int(W, "max_window_days")?;
    let append_permille = ctx.spec.int(W, "append_permille")?;
    let recency = ctx.spec.real(W, "recency")?;
    let zipf_s = ctx.spec.real(W, "zipf_s")?;
    let rounds = ctx.spec.count(W, "recovery_rounds")?;
    let total_ops = (ctx.spec.real(W, "ops_per_second")? * ctx.seconds).ceil() as usize;
    // The store is built without drift detection (see `build`), so the
    // inputs do not drift either.
    let inputs = Inputs::new(ctx.seed, i64::MAX)?;
    let root = ctx.work.join("store");
    let mut out = Outcome::default();

    // Set-up, repeated on a fresh directory; the last store is kept.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..ctx.setups {
        std::fs::remove_dir_all(&root).ok();
        let b = build(ctx, &inputs, &root)?;
        setups.push(b.setup_s);
        built = Some(b);
    }
    let Built { log, .. } = built.expect("at least one set-up");
    let codecs = (0..houses as u64)
        .map(|h| reference_codecs(&inputs, h, log.house(h)))
        .collect::<Result<Vec<_>>>()?;
    let mut reference =
        Reference { inputs: &inputs, codecs: &codecs, log: &log, cache: HashMap::new() };
    let router = ShardRouter::new(shards)?;
    let mut rng = Rng(ctx.seed ^ 0x0051_7E55);
    let zipf = Zipf::new(houses, zipf_s, &mut rng);
    let mut next_day = vec![days as i64; houses];
    let tail = ((days - checkpoint_day) * houses) as u64;

    // Timed: recovery (the median of `rounds` restarts of the same store;
    // the last one serves), then the closed-loop mix in planned batches.
    let mut restarts = Vec::with_capacity(rounds);
    let mut opened = None;
    for _ in 0..rounds.max(1) {
        drop(opened.take());
        let t = Instant::now();
        let _root = tracer.span(TIMED, 0);
        opened = Some(open_stores(&root, shards, tracer)?);
        restarts.push(t.elapsed().as_secs_f64());
    }
    let (mut stores, replayed) = opened.expect("at least one restart");
    let recovery = median(restarts.clone());
    out.tally
        .check(replayed == tail, || format!("recovery replayed {replayed} of {tail} WAL records"));
    let mut latencies = Vec::new();
    let mut kept: Vec<(Op, Answer)> = Vec::new();
    let mut appended: Vec<(u64, i64)> = Vec::new();
    let mut serve = 0.0;
    let (mut batch_rates, mut batch_cpu) = (Vec::new(), Vec::new());
    let mut request = 0u64;
    while (request as usize) < total_ops {
        let ops = plan(
            batch.min(total_ops - request as usize),
            &mut rng,
            &zipf,
            &mut next_day,
            &reference,
            max_window,
            append_permille,
            recency,
        )?;
        let (b, c0) = (Instant::now(), cpu_seconds());
        {
            let _root = tracer.span(TIMED, request);
            for op in &ops {
                let t = Instant::now();
                let answer = execute(op, &mut stores, &router, &reference, tracer, request);
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                request += 1;
                match (answer, op) {
                    (Ok(_), Op::Append { house, day, .. }) => appended.push((*house, *day)),
                    (Ok(Some(a)), _) if request.is_multiple_of(check_every) => {
                        kept.push((op.clone(), a))
                    }
                    (Ok(_), _) => {}
                    (Err(e), _) => out.tally.fail(format!("operation {request}: {e}")),
                }
            }
        }
        let dt = b.elapsed().as_secs_f64();
        serve += dt;
        batch_rates.push(ops.len() as f64 / dt);
        batch_cpu.push((cpu_seconds() - c0) * 1e6 / ops.len() as f64);
    }
    out.ops = latencies.len() as u64;
    out.tally.ops(out.ops);
    out.timed_s = restarts.iter().sum::<f64>() + serve;
    for st in stores.iter_mut() {
        let _s = tracer.span("durable.commit", 0);
        st.commit()?;
    }
    let mut fsyncs = 0;
    let (mut packed, mut segments, mut pruned, mut wal) = (0u64, 0u64, 0u64, 0u64);
    for st in &stores {
        let s = st.store().stats();
        packed += s.packed_bytes;
        segments += s.segments_written;
        pruned += s.segments_pruned;
        fsyncs += st.stats().fsyncs;
        wal += st.stats().wal_bytes;
    }
    drop(stores);

    // Every Nth answer must match the reference computed from the inputs.
    for (op, answer) in &kept {
        let ok = reference.check(op, answer)?;
        out.tally.check(ok, || "a query answer differs from the reference".to_string());
    }
    // Every committed record must survive a second recovery.
    let stored = (houses * days) as u64 + appended.len() as u64;
    let (mut stores, replayed2) = open_stores(&root, shards, &Tracer::new(false))?;
    let total: u64 = stores.iter().map(|s| s.store().stats().segments_written).sum();
    out.tally.check(total == stored && replayed2 == tail + appended.len() as u64, || {
        format!("after recovery {total} segments ({replayed2} replayed), {stored} committed")
    });
    for (i, (house, day)) in appended.iter().enumerate() {
        if !(i as u64).is_multiple_of(check_every) {
            continue;
        }
        let want = reference.window(*house, (*day, *day), 4)?;
        let (t0, t1) = span_of((*day, *day));
        let got = stores[router.route(*house)].store_mut().read_range(*house, t0, t1);
        out.tally.check(got.is_ok_and(|g| g.symbols() == want.symbols()), || {
            format!("appended house {house} day {day} did not survive recovery")
        });
    }
    drop(stores);

    out.latency(latencies, batch)?;
    out.e2e.insert("setup_s", median(setups));
    out.e2e.insert("throughput_per_s", lower_quartile(&batch_rates).expect("a batch ran"));
    out.e2e.insert("cpu_us_per_op", upper_quartile(&batch_cpu).expect("a batch ran"));
    out.e2e.insert("recovery_s", recovery);
    out.e2e.insert("disk_bytes_per_house_day", dir_bytes(&root) as f64 / stored as f64);
    out.lines.push(format!(
        "query: recovered {replayed} WAL records in {recovery:.3} s; {} ops in {serve:.3} s, \
         {} appends, {} answers checked; {} houses drifted",
        out.ops,
        appended.len(),
        kept.len(),
        log.drifted()
    ));

    out.layer("durable.open_s", recovery);
    out.layer("durable.replayed_records", replayed as f64);
    out.layer("durable.fsyncs", fsyncs as f64);
    out.layer("durable.wal_bytes_per_packed_byte", wal as f64 / packed as f64);
    out.layer("segstore.packed_bytes_per_house_day", packed as f64 / segments as f64);
    out.spans = tracer.spans();
    if tracer.enabled() {
        let p = Profile::of(&out.spans);
        let us = |n: &str| p.samples(n, 1e3);
        out.layer_pct(
            "segstore.read_truncated_us_p50",
            "segstore.read_truncated_us_p99",
            us("segstore.read_truncated"),
        );
        out.layer_pct(
            "segstore.count_prefix_us_p50",
            "segstore.count_prefix_us_p99",
            us("segstore.count_prefix"),
        );
        out.layer_pct(
            "segstore.aggregate_us_p50",
            "segstore.aggregate_us_p99",
            us("segstore.aggregate_range"),
        );
        let queries = p.durations.get("segstore.count_prefix").map_or(0, Vec::len)
            + p.durations.get("segstore.aggregate_range").map_or(0, Vec::len);
        out.layer("segstore.pruned_per_query", pruned as f64 / queries.max(1) as f64);
        out.layer_pct("durable.append_us_p50", "durable.append_us_p99", us("durable.append"));
        out.layer("durable.busy_s", p.self_s("durable.append"));
    }
    Ok(out)
}
