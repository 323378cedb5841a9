//! End-to-end tests of the network-facing fleet gateway: loopback TCP
//! round-trips through the token handshake, length-prefixed framing, the
//! supervised session workers, and graceful drain.
//!
//! The contract under test, at every worker count: the gateway's decoded
//! fleet output is byte-identical to feeding the same per-meter byte
//! streams into an in-process [`FleetIngest`], rejections are counted
//! exactly, and no acknowledged frame is ever missing from the final
//! report.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use smart_meter_symbolics::core::encoder::{EncodedWindow, SensorMessage};
use smart_meter_symbolics::core::gateway::{
    encode_handshake, Gateway, GatewayConfig, HANDSHAKE_ACK, HANDSHAKE_NAK,
};
use smart_meter_symbolics::core::ingest::{FleetIngest, IngestConfig};
use smart_meter_symbolics::core::wire::encode_message;
use smart_meter_symbolics::prelude::*;
use sms_bench::gateway_exp::run_gateway;
use sms_bench::Scale;

const TOKEN: &[u8] = b"smg-local-dev";

fn shared_table() -> LookupTable {
    let values: Vec<f64> = (0..300).map(|i| ((i * 29) % 640) as f64).collect();
    LookupTable::learn(SeparatorMethod::Median, Alphabet::with_size(8).unwrap(), &values).unwrap()
}

/// A meter's stream: its table frame followed by `windows` window frames
/// whose symbols vary with `meter` so streams differ per meter.
fn meter_wire(table: &LookupTable, meter: u64, windows: i64) -> (Vec<SensorMessage>, Vec<u8>) {
    let mut msgs = vec![SensorMessage::Table(table.clone())];
    msgs.extend((0..windows).map(|i| {
        SensorMessage::Window(EncodedWindow {
            window_start: i * 900,
            symbol: Symbol::from_rank(((i + meter as i64) % 8) as u16, 3).unwrap(),
            samples: 900,
        })
    }));
    let wire = msgs.iter().flat_map(|m| encode_message(m).unwrap()).collect();
    (msgs, wire)
}

/// Streams `wire` for `meter` over a fresh connection and returns the final
/// cumulative ack the server reported before EOF.
fn stream_meter(addr: SocketAddr, meter: u64, wire: &[u8]) -> u64 {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&encode_handshake(meter, TOKEN)).unwrap();
    let mut ack = [0u8; 1];
    conn.read_exact(&mut ack).unwrap();
    assert_eq!(ack[0], HANDSHAKE_ACK, "meter {meter} handshake");
    conn.write_all(wire).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut last = 0u64;
    let mut buf = [0u8; 8];
    while conn.read_exact(&mut buf).is_ok() {
        last = u64::from_le_bytes(buf);
    }
    last
}

#[test]
fn gateway_output_is_byte_identical_to_in_process_ingest_at_every_worker_count() {
    let table = shared_table();
    let meters: Vec<u64> = (0..6).collect();
    let mut reference: Option<Vec<(u64, usize)>> = None;

    for workers in [1usize, 2, 8] {
        let gw = Gateway::start(GatewayConfig::default().workers(workers)).unwrap();
        let addr = gw.local_addr();
        for &m in &meters {
            let (msgs, wire) = meter_wire(&table, m, 12);
            let acked = stream_meter(addr, m, &wire);
            assert_eq!(acked, msgs.len() as u64, "workers={workers} meter={m}");
        }
        let report = gw.shutdown();

        // Replay the identical byte streams through the in-process path.
        let mut fleet = FleetIngest::new(IngestConfig::default());
        for &m in &meters {
            let (msgs, wire) = meter_wire(&table, m, 12);
            let decoded = fleet.ingest(m, &wire).unwrap();
            assert_eq!(decoded, msgs, "in-process decode must round-trip");
            assert_eq!(
                report.output.get(&m).map(Vec::as_slice),
                Some(decoded.as_slice()),
                "workers={workers} meter={m}: gateway output diverges from FleetIngest"
            );
        }

        // The decoded fleet is the same regardless of session parallelism.
        let shape: Vec<(u64, usize)> = report.output.iter().map(|(m, v)| (*m, v.len())).collect();
        match &reference {
            None => reference = Some(shape),
            Some(want) => assert_eq!(&shape, want, "workers={workers}"),
        }
        assert_eq!(report.stats.connections_accepted, meters.len() as u64);
        assert_eq!(report.stats.connections_active, 0);
        assert_eq!(report.pool.workers, workers);
    }
}

#[test]
fn meter_cap_admits_exactly_max_meters_under_concurrent_sessions() {
    let table = shared_table();
    for workers in [1usize, 2, 8] {
        let ingest = IngestConfig::default().max_meters(3);
        let gw =
            Gateway::start(GatewayConfig { ingest, ..GatewayConfig::default() }.workers(workers))
                .unwrap();
        let addr = gw.local_addr();
        let acks: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..8u64)
                .map(|m| {
                    let (msgs, wire) = meter_wire(&table, m, 12);
                    s.spawn(move || {
                        let mut conn = TcpStream::connect(addr).unwrap();
                        conn.write_all(&encode_handshake(m, TOKEN)).unwrap();
                        let mut ack = [0u8; 1];
                        conn.read_exact(&mut ack).unwrap();
                        assert_eq!(ack[0], HANDSHAKE_ACK, "meter {m} handshake");
                        // A capped-out meter is hung up on mid-stream, so
                        // its writes may fail; only the acks matter.
                        let _ = conn.write_all(&wire);
                        let _ = conn.shutdown(std::net::Shutdown::Write);
                        let mut last = 0u64;
                        let mut buf = [0u8; 8];
                        while conn.read_exact(&mut buf).is_ok() {
                            last = u64::from_le_bytes(buf);
                        }
                        (m, last, msgs.len() as u64)
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let report = gw.shutdown();

        let admitted: Vec<u64> =
            acks.iter().filter(|(_, last, _)| *last > 0).map(|(m, _, _)| *m).collect();
        assert_eq!(admitted.len(), 3, "workers={workers}: {acks:?}");
        for (m, last, frames) in &acks {
            if admitted.contains(m) {
                assert_eq!(last, frames, "workers={workers}: admitted meter {m} fully acked");
            }
        }
        assert_eq!(report.output.keys().copied().collect::<Vec<_>>(), admitted);
        assert_eq!(report.ingest.meters_rejected, 5, "workers={workers}");
        assert_eq!(report.stats.frames_acked, 3 * acks[0].2, "workers={workers}");
    }
}

#[test]
fn auth_rejections_are_counted_exactly() {
    let gw = Gateway::start(GatewayConfig::default().workers(2)).unwrap();
    let addr = gw.local_addr();
    let table = shared_table();

    let bad = 5u64;
    for m in 0..bad {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&encode_handshake(m, b"intruder")).unwrap();
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], HANDSHAKE_NAK);
        let mut rest = Vec::new();
        assert_eq!(conn.read_to_end(&mut rest).unwrap_or(0), 0, "server must hang up");
    }
    for m in 100..103u64 {
        let (_, wire) = meter_wire(&table, m, 4);
        stream_meter(addr, m, &wire);
    }

    let report = gw.shutdown();
    assert_eq!(report.stats.auth_failures, bad);
    assert_eq!(report.stats.handshake_errors, 0);
    assert_eq!(report.stats.connections_accepted, bad + 3);
    assert_eq!(report.output.len(), 3, "rejected meters contribute no output");
}

#[test]
fn rate_limited_session_is_throttled_counted_and_lossless() {
    // 1 KiB burst, 64 KiB/s refill against a ~28 KiB stream: the bucket
    // must run dry at least once, pausing reads without losing a frame.
    let gw =
        Gateway::start(GatewayConfig::default().workers(1).rate_limit(64 * 1024, 1024)).unwrap();
    let table = shared_table();
    let (msgs, wire) = meter_wire(&table, 9, 1500);
    let acked = stream_meter(gw.local_addr(), 9, &wire);
    assert_eq!(acked, msgs.len() as u64, "throttling must not drop frames");
    let report = gw.shutdown();
    assert!(report.stats.rate_limit_hits >= 1, "token bucket never ran dry: {:?}", report.stats);
    assert_eq!(report.output[&9], msgs);
    assert_eq!(report.stats.quota_closed, 0);
}

#[test]
fn graceful_shutdown_loses_no_acknowledged_frame() {
    let gw = Gateway::start(
        GatewayConfig::default().workers(2).drain_timeout(Duration::from_millis(400)),
    )
    .unwrap();
    let addr = gw.local_addr();
    let table = shared_table();

    // A client that streams frames indefinitely, draining cumulative acks
    // as it goes; it stops when the draining gateway hangs up on it.
    let client = std::thread::spawn(move || -> u64 {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&encode_handshake(77, TOKEN)).unwrap();
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], HANDSHAKE_ACK);
        conn.set_nonblocking(true).unwrap();

        let mut last_ack = 0u64;
        let mut partial: Vec<u8> = Vec::new();
        let drain = |conn: &mut TcpStream, partial: &mut Vec<u8>, last: &mut u64| -> bool {
            let mut buf = [0u8; 64];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) => return true,
                    Ok(n) => {
                        partial.extend_from_slice(&buf[..n]);
                        while partial.len() >= 8 {
                            *last = u64::from_le_bytes(partial[..8].try_into().unwrap());
                            partial.drain(..8);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                    Err(_) => return true,
                }
            }
        };

        let frame = encode_message(&SensorMessage::Table(table)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        'outer: for _ in 0..50_000 {
            let mut written = 0usize;
            while written < frame.len() {
                match conn.write(&frame[written..]) {
                    Ok(0) => break 'outer,
                    Ok(n) => written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if drain(&mut conn, &mut partial, &mut last_ack) {
                            break 'outer;
                        }
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    Err(_) => break 'outer,
                }
            }
            if drain(&mut conn, &mut partial, &mut last_ack) {
                break;
            }
            if Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        // Collect any acks still in flight until the server closes.
        let final_deadline = Instant::now() + Duration::from_secs(5);
        while !drain(&mut conn, &mut partial, &mut last_ack) {
            if Instant::now() > final_deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        last_ack
    });

    // Let traffic flow, then pull the plug mid-stream.
    std::thread::sleep(Duration::from_millis(150));
    let report = gw.shutdown();
    let acked = client.join().unwrap();

    assert!(acked > 0, "client should have streamed long enough to see acks");
    let committed = report.output.get(&77).map(|v| v.len() as u64).unwrap_or(0);
    assert!(
        committed >= acked,
        "{acked} frames acknowledged but only {committed} committed to the output"
    );
    assert_eq!(report.stats.frames_acked, committed, "server-side ack counter matches output");
    assert_eq!(report.stats.connections_active, 0, "drain must close every session");
}

#[test]
fn fault_injected_client_mix_recovers_most_frames_and_stays_identical() {
    let mut scale = Scale::quick();
    scale.days = 2;
    // run_gateway internally fails unless the gateway output is
    // byte-identical to the in-process ingest replay and every clean
    // connection is fully acknowledged.
    let r = run_gateway(scale, 40, 2, true).unwrap();
    assert!(r.auth_rejected > 0, "the mix must include bad tokens");
    assert!(r.truncated_streams > 0, "the mix must include truncated streams");
    assert!(r.slow_writers > 0, "the mix must include slow writers");
    assert_eq!(r.stats.gateway.unwrap().auth_failures, r.auth_rejected);
    assert!(
        r.faulted_recovery >= 0.95,
        "truncated streams recovered only {:.1}% of their frames",
        100.0 * r.faulted_recovery
    );
    assert!(r.stats.ingest.as_ref().unwrap().resyncs > 0, "recovery must involve resyncs");
}
