//! What the workloads share: the spec file, the outcome of a leg, output
//! checks, process counters, the durable store on disk, and the serial
//! reference encode the checks compare against.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sms_core::durable::{DurableConfig, DurableFleet, DurableStore, FsStorage};
use sms_core::error::{Error, Result};
use sms_core::json::{self, JsonValue};
use sms_core::pipeline::{CodecBuilder, SymbolicCodec};
use sms_core::shard::{splitmix64, DriftConfig, ShardedEngineConfig, ShardedFleetEngine};
use sms_core::timeseries::TimeSeries;

use crate::gen::Inputs;
use crate::stats::{chunk_medians, upper_quartile, windowed_p99, Span, Summary, P99_WINDOW};
use crate::trace::Tracer;

/// Name of the root span of each timed interval; the ledger covers it.
pub const TIMED: &str = "bench.timed";

/// The frozen sizes of `perfbench/spec.json`.
pub struct Spec(JsonValue);

impl Spec {
    /// Reads and parses the spec file.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Io(format!("read {}: {e}", path.display())))?;
        json::parse(&text).map(Spec).map_err(Error::Serde)
    }

    fn value(&self, workload: &str, key: &str) -> Result<&JsonValue> {
        self.0
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("sizes"))
            .and_then(|s| s.get(key))
            .ok_or_else(|| Error::Serde(format!("spec lacks workloads.{workload}.sizes.{key}")))
    }

    /// A whole-number size of `workload`.
    pub fn int(&self, workload: &str, key: &str) -> Result<u64> {
        self.value(workload, key)?
            .as_u64()
            .ok_or_else(|| Error::Serde(format!("{workload}.{key} is not a whole number")))
    }

    /// A whole-number size of `workload`, as `usize`.
    pub fn count(&self, workload: &str, key: &str) -> Result<usize> {
        Ok(self.int(workload, key)? as usize)
    }

    /// A real-valued size of `workload`.
    pub fn real(&self, workload: &str, key: &str) -> Result<f64> {
        self.value(workload, key)?
            .as_f64()
            .ok_or_else(|| Error::Serde(format!("{workload}.{key} is not a number")))
    }
}

/// Everything a workload leg needs from the command line.
pub struct Ctx<'a> {
    /// The frozen sizes.
    pub spec: &'a Spec,
    /// Input seed.
    pub seed: u64,
    /// Directory the leg may write its stores under (emptied by the caller).
    pub work: PathBuf,
    /// Seconds the timed phase runs.
    pub seconds: f64,
    /// Set-up repetitions, per pass in `backfill`; their median is `setup_s`.
    pub setups: usize,
}

/// A small seeded generator (a SplitMix64 stream).
pub struct Rng(pub u64);

impl Rng {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Output checks and operations, counted.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts `n` operations attempted; their failures go to [`Self::fail`].
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// What one workload leg measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and output checks.
    pub tally: Tally,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name, for the layers this leg exercised.
    pub layers: BTreeMap<String, f64>,
    /// Human-readable report lines (sample counts, ledger).
    pub lines: Vec<String>,
    /// Timed wall time, seconds.
    pub timed_s: f64,
    /// Operations in the timed phase (the unit of `cpu_us_per_op`).
    pub ops: u64,
    /// Spans recorded (empty when untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records `samples` (in operation order) as the end-to-end
    /// `latency_p50_ms`, the upper quartile of the medians of consecutive
    /// chunks of `chunk` operations (see [`upper_quartile`]), and
    /// `latency_p99_ms`, the median window's p99 (see [`windowed_p99`]),
    /// with sample counts on a report line.
    pub fn latency(&mut self, samples: Vec<f64>, chunk: usize) -> Result<()> {
        let n = samples.len();
        let Some((p99, windows)) = windowed_p99(&samples) else {
            return Err(Error::Engine(format!(
                "latency_p99_ms: {n} samples fill no window of {P99_WINDOW}"
            )));
        };
        let medians = chunk_medians(&samples, chunk);
        let Some(p50) = upper_quartile(&medians) else {
            return Err(Error::Engine(format!(
                "latency_p50_ms: {n} samples fill no chunk of {chunk}"
            )));
        };
        self.e2e.insert("latency_p50_ms", p50);
        self.e2e.insert("latency_p99_ms", p99);
        self.lines.push(format!(
            "latency_ms: n={n} p50={p50:.4} (upper quartile of {} chunk medians of {chunk}); \
             p99={p99:.4} (median of {windows} windows of {P99_WINDOW})",
            medians.len()
        ));
        Ok(())
    }

    /// Records a per-layer p50/p99 pair over `samples` (any order, in the
    /// metric's unit). A p99 with fewer than 10 samples beyond it is left
    /// out, and a report line says so.
    pub fn layer_pct(&mut self, p50: &str, p99: &str, samples: Vec<f64>) {
        let s = Summary::of(samples);
        if let Some(v) = s.p50 {
            self.layers.insert(p50.to_string(), v);
        }
        match s.p99 {
            Some(v) => {
                self.layers.insert(p99.to_string(), v);
            }
            None if s.n > 0 => {
                self.lines.push(format!("{p99}: n={} leaves fewer than 10 beyond p99", s.n))
            }
            None => {}
        }
        if s.n > 0 {
            self.lines.push(format!("{p50}: n={}", s.n));
        }
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

/// `struct timespec` as Linux's C library lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

/// Linux's clock id of the calling process's CPU time.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// CPU seconds (user + system) this process has used, threads that have
/// exited included, at nanosecond resolution (`CLOCK_PROCESS_CPUTIME_ID`).
/// The 1/100 s ticks of `/proc/self/stat` are too coarse for a chunk of a
/// few milliseconds, and per-thread counters miss the scoped workers the
/// engine's pools spawn and join inside each call.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `tp`,
    // which points at a live, writable `Timespec` with the C layout, and
    // the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Median of `v` (`0.0` when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Opens (recovering) one durable store per shard under `root`, with
/// [`DurableConfig::default`]: group commit 32, no automatic checkpoint.
/// Returns the stores and the WAL records replayed.
pub fn open_stores(
    root: &Path,
    shards: usize,
    tracer: &Tracer,
) -> Result<(Vec<DurableStore<FsStorage>>, u64)> {
    let mut stores = Vec::with_capacity(shards);
    let mut replayed = 0;
    for i in 0..shards {
        let storage = FsStorage::new(root.join(format!("shard-{i}")))?;
        let _s = tracer.span("durable.open", i as u64);
        let (store, report) = DurableStore::open(storage, DurableConfig::default())?;
        replayed += report.replayed;
        stores.push(store);
    }
    Ok((stores, replayed))
}

/// Checkpoints every store.
pub fn checkpoint_all(stores: &mut [DurableStore<FsStorage>], tracer: &Tracer) -> Result<()> {
    for (i, s) in stores.iter_mut().enumerate() {
        let _s = tracer.span("durable.checkpoint", i as u64);
        s.checkpoint()?;
    }
    Ok(())
}

/// The sharded engine of the backfill path: `shards` shards of `workers`
/// workers, default table caches, and drift detection at its default
/// policy when `drift` is set. Every workload encodes with the crate's
/// default codec: median separators, 16 symbols, 15-minute mean windows.
pub fn engine(shards: usize, workers: usize, drift: bool) -> Result<ShardedFleetEngine> {
    let config = ShardedEngineConfig::with_shards(shards).workers(workers);
    let config = if drift { config.drift(DriftConfig::default()) } else { config };
    ShardedFleetEngine::new(CodecBuilder::new(), config)
}

/// Encodes one concentrator-day file and makes it durable: one
/// `encode_batch`, one append per house, one commit. Returns each house's
/// separator epoch. A quarantined house is an error: the inputs are clean.
pub fn ingest_file(
    engine: &mut ShardedFleetEngine,
    fleet: &mut DurableFleet<FsStorage>,
    file: &[(u64, TimeSeries)],
    tracer: &Tracer,
    request: u64,
) -> Result<Vec<u32>> {
    let enc = {
        let _s = tracer.span("shard.encode_batch", request);
        engine.encode_batch(file)?
    };
    if let Some(q) = enc.quarantined.first() {
        return Err(Error::Engine(format!("house index {} quarantined: {:?}", q.house, q.reason)));
    }
    for ((house, _), series) in file.iter().zip(&enc.series) {
        let _s = tracer.span("durable.append", request);
        fleet.append(*house, series)?;
    }
    let _s = tracer.span("durable.commit", request);
    fleet.commit()?;
    Ok(enc.epochs)
}

/// Per-house, per-day separator epochs as the engine reported them.
pub struct EpochLog {
    days: usize,
    epochs: Vec<u8>,
}

impl EpochLog {
    /// An empty log for `houses` × `days`.
    pub fn new(houses: usize, days: usize) -> Self {
        EpochLog { days, epochs: vec![0; houses * days] }
    }

    /// Records the epoch `house` encoded `day` under.
    pub fn set(&mut self, house: u64, day: usize, epoch: u32) -> Result<()> {
        let e = u8::try_from(epoch).map_err(|_| Error::Engine(format!("epoch {epoch} > 255")))?;
        self.epochs[house as usize * self.days + day] = e;
        Ok(())
    }

    /// Epoch of `house` on each logged day.
    pub fn house(&self, house: u64) -> &[u8] {
        &self.epochs[house as usize * self.days..(house as usize + 1) * self.days]
    }

    /// Houses whose epoch ever moved past 0.
    pub fn drifted(&self) -> usize {
        self.epochs.chunks(self.days).filter(|d| d.iter().any(|&e| e > 0)).count()
    }
}

/// The serial encode the engine's output must equal: for each epoch, a
/// `SymbolicCodec` trained where the engine trained it — on the first day
/// the house encoded under that epoch (the table cache holds every house,
/// so a table is trained once per epoch).
pub fn reference_codecs(inputs: &Inputs, house: u64, epochs: &[u8]) -> Result<Vec<SymbolicCodec>> {
    let builder = CodecBuilder::new();
    let mut codecs = Vec::new();
    for (day, &e) in epochs.iter().enumerate() {
        if e as usize == codecs.len() {
            codecs.push(builder.train(&inputs.day(house, day as i64))?);
        } else if e as usize > codecs.len() {
            return Err(Error::Engine(format!("house {house} skipped to epoch {e} on day {day}")));
        }
    }
    Ok(codecs)
}

#[cfg(test)]
mod tests {
    use super::cpu_seconds;

    #[test]
    fn cpu_clock_keeps_the_time_of_exited_threads() {
        let before = cpu_seconds();
        let seen_inside = std::thread::scope(|s| {
            s.spawn(|| {
                let start = cpu_seconds();
                while cpu_seconds() - start < 0.03 {
                    std::hint::spin_loop();
                }
                cpu_seconds()
            })
            .join()
            .expect("the spinning thread panicked")
        });
        let after = cpu_seconds();
        assert!(seen_inside - before >= 0.03);
        assert!(after >= seen_inside, "an exited thread's CPU time must not drop out");
    }
}
