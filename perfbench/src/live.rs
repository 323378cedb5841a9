//! `live`: the served path. Each meter learns its own table at the edge
//! and encodes one day; in the timed phase a head-end polls the meters on
//! two channels, each session on a fresh connection to an in-process
//! gateway: handshake, upload, half-close, read acks to EOF. Each channel
//! is a closed loop with a fixed think time, so a stall of the shared host
//! delays the sessions in flight, not a queue of later ones. While they
//! run, the main thread samples process CPU time and finished sessions.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sms_core::alphabet::Alphabet;
use sms_core::durable::DurableFleet;
use sms_core::encoder::{SensorMessage, SensorPipeline};
use sms_core::error::{Error, Result};
use sms_core::gateway::{encode_handshake, Gateway, GatewayConfig, HANDSHAKE_ACK};
use sms_core::horizontal::SymbolicSeries;
use sms_core::ingest::{FleetIngest, IngestConfig};
use sms_core::separators::SeparatorMethod;
use sms_core::shard::ShardRouter;
use sms_core::timeseries::SECONDS_PER_DAY;
use sms_core::vertical::Aggregation;
use sms_core::wire::encode_message_into;

use crate::common::{cpu_seconds, dir_bytes, median, open_stores, Ctx, Outcome, TIMED};
use crate::gen::{Inputs, INTERVAL_S};
use crate::stats::{upper_quartile, Summary};
use crate::trace::Tracer;

const W: &str = "live";
const TOKEN: &[u8] = b"perfbench-meter";
/// Window of the edge encoder, seconds (the codec's 15 minutes).
const WINDOW_S: i64 = 900;
/// The edge trains on every reading of its day but the last, then replays
/// them all, so one day yields its table and all 96 windows.
const TRAIN_S: i64 = SECONDS_PER_DAY - INTERVAL_S;
/// Interval at which the main thread samples CPU time during the drive.
const SAMPLE_EVERY: Duration = Duration::from_millis(500);

/// One meter's day, encoded at the edge.
struct Meter {
    id: u64,
    wire: Vec<u8>,
    frames: u64,
}

/// What one session saw, client-side.
struct Session {
    meter: usize,
    late_ms: f64,
    latency_ms: f64,
    handshake_ms: f64,
    acked: u64,
    error: Option<String>,
}

/// Time the edge spent, without input synthesis.
struct EdgeTimes {
    /// Edge encoder time (`SensorPipeline::push` and `finish`).
    push: Duration,
    /// Wire encoder time.
    wire: Duration,
    /// Seconds per meter of each run of `chunk` consecutive meters.
    pace: Vec<f64>,
}

/// Learns every meter's table and encodes its day into wire frames.
fn edge_encode(inputs: &Inputs, meters: usize, chunk: usize) -> Result<(Vec<Meter>, EdgeTimes)> {
    let mut times = EdgeTimes { push: Duration::ZERO, wire: Duration::ZERO, pace: Vec::new() };
    let mut values = Vec::new();
    let mut out = Vec::with_capacity(meters);
    let mut in_chunk = Duration::ZERO;
    for m in 0..meters as u64 {
        values.clear();
        inputs.day_values(m, 0, &mut values);

        let t = Instant::now();
        let mut edge = SensorPipeline::new(
            SeparatorMethod::Median,
            Alphabet::with_size(16)?,
            WINDOW_S,
            Aggregation::Mean,
            TRAIN_S,
        )?;
        let mut msgs = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            msgs.extend(edge.push(i as i64 * INTERVAL_S, v)?);
        }
        msgs.extend(edge.finish());
        let push = t.elapsed();

        let t = Instant::now();
        let mut wire = Vec::new();
        for msg in &msgs {
            encode_message_into(msg, &mut wire)?;
        }
        let wire_t = t.elapsed();
        times.push += push;
        times.wire += wire_t;
        in_chunk += push + wire_t;
        if (m as usize + 1).is_multiple_of(chunk) {
            times.pace.push(in_chunk.as_secs_f64() / chunk as f64);
            in_chunk = Duration::ZERO;
        }
        out.push(Meter { id: m, wire, frames: msgs.len() as u64 });
    }
    Ok((out, times))
}

/// One meter session: connect, handshake, upload, half-close, read the
/// cumulative acks to EOF. Returns the handshake time and the final ack.
fn session(addr: SocketAddr, meter: &Meter, tracer: &Tracer) -> std::io::Result<(Duration, u64)> {
    let _s = tracer.span("gateway.session", meter.id);
    let t = Instant::now();
    let mut conn = {
        let _h = tracer.span("gateway.handshake", meter.id);
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.write_all(&encode_handshake(meter.id, TOKEN))?;
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack)?;
        if ack[0] != HANDSHAKE_ACK {
            return Err(std::io::Error::other(format!("handshake answered 0x{:02x}", ack[0])));
        }
        conn
    };
    let handshake = t.elapsed();
    conn.write_all(&meter.wire)?;
    conn.shutdown(Shutdown::Write)?;
    let mut acks = Vec::new();
    conn.read_to_end(&mut acks)?;
    if acks.len() % 8 != 0 {
        return Err(std::io::Error::other(format!("{} ack bytes", acks.len())));
    }
    let last = acks.rchunks(8).next().map_or(0, |a| u64::from_le_bytes(a.try_into().expect("8")));
    Ok((handshake, last))
}

/// Polls every meter once from `clients` channels. Each channel runs a
/// closed loop: a session, then `think` before its next session is due.
/// Latency runs from the session's start to its last ack; how late the
/// generator started it after its due time is kept apart. Meanwhile the
/// calling thread samples, every [`SAMPLE_EVERY`], the process CPU time per
/// session finished in the interval. Returns the sessions in claim order,
/// the timed wall time, and the samples.
fn drive(
    addr: SocketAddr,
    meters: &[Meter],
    clients: usize,
    think: Duration,
    tracer: &Tracer,
) -> (Vec<Session>, f64, Vec<f64>) {
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let mut cpu_per_session = Vec::new();
    let start = Instant::now();
    let mut end = start;
    let mut sessions: Vec<Session> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (next, finished) = (&next, &finished);
                s.spawn(move || {
                    let _root = tracer.span(TIMED, c as u64);
                    let mut seen = Vec::new();
                    let (mut due, mut last) = (start, start);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= meters.len() {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let began = Instant::now();
                        let result = session(addr, &meters[i], tracer);
                        let done = Instant::now();
                        finished.fetch_add(1, Ordering::Relaxed);
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        let (handshake_ms, acked, error) = match result {
                            Ok((h, a)) => (ms(h), a, None),
                            Err(e) => (0.0, 0, Some(e.to_string())),
                        };
                        seen.push(Session {
                            meter: i,
                            late_ms: ms(began.saturating_duration_since(due)),
                            latency_ms: ms(done.saturating_duration_since(began)),
                            handshake_ms,
                            acked,
                            error,
                        });
                        (due, last) = (done + think, done);
                    }
                    (seen, last)
                })
            })
            .collect();
        // The interval in which the last channel ends is partly idle: dropped.
        let (mut cpu0, mut done0) = (cpu_seconds(), 0);
        loop {
            std::thread::sleep(SAMPLE_EVERY);
            if handles.iter().all(|h| h.is_finished()) {
                break;
            }
            let (cpu, done) = (cpu_seconds(), finished.load(Ordering::Relaxed));
            if done > done0 {
                cpu_per_session.push((cpu - cpu0) * 1e6 / (done - done0) as f64);
            }
            (cpu0, done0) = (cpu, done);
        }
        let mut all = Vec::new();
        for h in handles {
            let (seen, last) = h.join().expect("a client thread panicked");
            all.extend(seen);
            end = end.max(last);
        }
        all
    });
    // Wall time ends at the last ack, not at the sampler's next tick.
    let wall = end.duration_since(start).as_secs_f64();
    sessions.sort_by_key(|s| s.meter);
    (sessions, wall, cpu_per_session)
}

/// Runs the `live` workload.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Outcome> {
    let think = Duration::from_secs_f64(ctx.spec.real(W, "think_ms")? / 1e3);
    let clients = ctx.spec.count(W, "client_threads")?;
    let shards = ctx.spec.count(W, "store_shards")?;
    let per_second = ctx.spec.count(W, "meters_per_second")?;
    let meters_n = (per_second as f64 * ctx.seconds).ceil() as usize;
    let inputs = Inputs::new(ctx.seed, i64::MAX)?;
    let mut out = Outcome::default();

    // Set-up, repeated: gateway start, edge table learning and encode, the
    // meters in chunks of an offered second.
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..ctx.setups {
        if let Some((gw, _, _)) = kept.take() {
            Gateway::shutdown(gw);
        }
        let t = Instant::now();
        let gw = {
            let _s = tracer.span("gateway.start", 0);
            Gateway::start(GatewayConfig::default().auth_token(TOKEN))?
        };
        let start = t.elapsed().as_secs_f64();
        let (meters, times) = edge_encode(&inputs, meters_n, per_second)?;
        // The edge's time at its slow-quartile pace (see `upper_quartile`).
        let pace = upper_quartile(&times.pace).expect("a full chunk of meters");
        setups.push(start + meters_n as f64 * pace);
        kept = Some((gw, meters, times));
    }
    let (gw, meters, times) = kept.expect("at least one set-up");
    let (push, wire) = (times.push, times.wire);
    let samples = meters_n as f64 * (SECONDS_PER_DAY / INTERVAL_S) as f64;
    let frames_sent: u64 = meters.iter().map(|m| m.frames).sum();
    out.layer("encoder.push_ns_per_sample", push.as_nanos() as f64 / samples);
    out.layer("wire.encode_ns_per_frame", wire.as_nanos() as f64 / frames_sent as f64);

    // Timed phase: the polling channels.
    let (sessions, wall, cpu_per_session) = drive(gw.local_addr(), &meters, clients, think, tracer);
    out.timed_s = wall;
    let bytes_sent: u64 =
        meters.iter().map(|m| (encode_handshake(m.id, TOKEN).len() + m.wire.len()) as u64).sum();
    let report = {
        let _s = tracer.span("gateway.shutdown", 0);
        gw.shutdown()
    };

    // Sessions are the operations; a session fails unless every frame is acked.
    let mut acked_total = 0;
    for s in &sessions {
        let m = &meters[s.meter];
        acked_total += s.acked;
        out.tally.check(s.error.is_none() && s.acked == m.frames, || {
            format!("meter {}: acked {} of {} frames ({:?})", m.id, s.acked, m.frames, s.error)
        });
    }
    out.ops = sessions.len() as u64;
    out.tally.check(report.stats.frames_acked == frames_sent, || {
        format!("gateway acked {} frames, {} sent", report.stats.frames_acked, frames_sent)
    });
    out.tally.check(report.stats.bytes_in == bytes_sent, || {
        format!("gateway read {} bytes, {} sent", report.stats.bytes_in, bytes_sent)
    });

    // The gateway's output must equal an in-process replay of the same bytes.
    let mut replay = FleetIngest::new(IngestConfig::default());
    let mut decode = Duration::ZERO;
    for m in &meters {
        let t = Instant::now();
        let msgs = {
            let _s = tracer.span("ingest.ingest", m.id);
            replay.ingest(m.id, &m.wire)
        };
        decode += t.elapsed();
        let served = report.output.get(&m.id);
        out.tally.check(msgs.as_ref().ok() == served, || {
            format!("meter {}: gateway output differs from the in-process replay", m.id)
        });
    }
    out.layer("ingest.decode_ns_per_frame", decode.as_nanos() as f64 / frames_sent as f64);
    out.layer("ingest.frame_success_rate", replay.stats().frame_success_rate());

    // Every acked frame must be in a durable store's readback. This check
    // is not the served path, so its durable calls are not traced.
    let quiet = Tracer::new(false);
    let root = ctx.work.join("store");
    let (stores, _) = open_stores(&root, shards, &quiet)?;
    let mut fleet = DurableFleet::new(stores)?;
    let mut stored = Vec::with_capacity(meters.len());
    for m in &meters {
        let mut series = SymbolicSeries::new(4)?;
        for msg in report.output.get(&m.id).into_iter().flatten() {
            if let SensorMessage::Window(w) = msg {
                series.push(w.window_start, w.symbol)?;
            }
        }
        fleet.append(m.id, &series)?;
        stored.push(series);
    }
    fleet.commit()?;
    drop(fleet);
    let disk = dir_bytes(&root) as f64 / meters.len() as f64;
    let (mut stores, _) = open_stores(&root, shards, &quiet)?;
    let router = ShardRouter::new(shards)?;
    for (m, series) in meters.iter().zip(&stored) {
        let back = stores[router.route(m.id)].store_mut().read_range(m.id, 0, i64::MAX);
        out.tally.check(
            back.as_ref().is_ok_and(|b| b.symbols() == series.symbols() && b.len() == 96),
            || format!("meter {}: durable readback differs from the acked windows", m.id),
        );
    }
    drop(stores);

    let ms = |v: &dyn Fn(&Session) -> f64| sessions.iter().map(v).collect::<Vec<f64>>();
    // Chunked figures: latency per offered second of sessions, CPU per
    // sampling interval.
    out.latency(ms(&|s| s.latency_ms), per_second)?;
    out.e2e.insert("setup_s", median(setups));
    out.e2e.insert("throughput_per_s", acked_total as f64 / out.timed_s);
    let Some(cpu) = upper_quartile(&cpu_per_session) else {
        return Err(Error::Engine("the drive ended before a CPU sample".into()));
    };
    out.e2e.insert("cpu_us_per_op", cpu);
    out.e2e.insert("disk_bytes_per_house_day", disk);
    out.lines.push(format!(
        "live: {} sessions on {clients} channels with {think:?} think time over {:.3} s, \
         {} frames acked, {} late by >1 ms",
        sessions.len(),
        out.timed_s,
        acked_total,
        sessions.iter().filter(|s| s.late_ms > 1.0).count()
    ));

    out.layer_pct("gateway.handshake_ms_p50", "gateway.handshake_ms_p99", ms(&|s| s.handshake_ms));
    let late = Summary::of(ms(&|s| s.late_ms));
    if let Some(v) = late.p99 {
        out.layer("loadgen.late_ms_p99", v);
    }
    out.layer("gateway.frames_acked", report.stats.frames_acked as f64);
    out.layer("gateway.bytes_in", report.stats.bytes_in as f64);
    out.spans = tracer.spans();
    Ok(out)
}
