//! Event-loop-specific regressions: partial-frame resumption under
//! pathological write chunking, deadline-bounded drain while connections
//! hold half-written responses, and open-connection accounting under churn.
//!
//! The generic transport contract (answers, shedding, HTTP, clean drain) is
//! covered by `tests/loopback.rs`; this file exercises the states only a
//! readiness-driven server can be caught in.

use cote::{Cote, TimeModel};
use cote_catalog::{Catalog, ColumnDef, TableDef};
use cote_common::{ColRef, TableId, TableRef};
use cote_net::{EventConfig, EventServer};
use cote_query::{Query, QueryBlockBuilder};
use cote_service::{CoteService, QueryClass, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture() -> (Catalog, Vec<Query>) {
    let mut b = Catalog::builder();
    for i in 0..3 {
        b.add_table(TableDef::new(
            format!("t{i}"),
            1000.0 + 100.0 * i as f64,
            vec![
                ColumnDef::uniform("c0", 1000.0, 1000.0),
                ColumnDef::uniform("c1", 1000.0, 25.0),
            ],
        ));
    }
    let cat = b.build().unwrap();
    let queries = (2..=3)
        .map(|n| {
            let mut qb = QueryBlockBuilder::new();
            for i in 0..n {
                qb.add_table(TableId(i));
            }
            for i in 0..n - 1 {
                qb.join(
                    ColRef::new(TableRef(i as u8), 0),
                    ColRef::new(TableRef(i as u8 + 1), 0),
                );
            }
            Query::new(format!("chain{n}"), qb.build(&cat).unwrap())
        })
        .collect();
    (cat, queries)
}

fn service() -> (Arc<CoteService>, Arc<Vec<Query>>) {
    let (cat, queries) = fixture();
    let cote = Cote::new(
        cote_optimizer::OptimizerConfig::high(cote_optimizer::Mode::Serial),
        TimeModel {
            c_nljn: 1e-6,
            c_mgjn: 1e-6,
            c_hsjn: 1e-6,
            intercept: 0.0,
        },
    );
    let cfg = ServiceConfig {
        workers: 2,
        shards: 4,
        cache_capacity: 64,
        queue_capacity: 64,
        max_inflight: 0,
        degrade_queue_depth: 64,
        deadline: Duration::from_secs(5),
        ..Default::default()
    };
    (
        Arc::new(CoteService::start(cat, cote, cfg)),
        Arc::new(queries),
    )
}

/// Read exactly `n` newline-terminated frames from `stream`.
fn read_lines(stream: TcpStream, n: usize) -> Vec<String> {
    let mut reader = BufReader::new(stream);
    (0..n)
        .map(|i| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.ends_with('\n'), "response {i} truncated: {line:?}");
            line.truncate(line.len() - 1);
            line
        })
        .collect()
}

/// Drop the `"elapsed_us":N` tail — the only wall-clock-dependent field in
/// an estimate payload.
fn stable(line: &str) -> String {
    match line.split_once(",\"elapsed_us\":") {
        Some((head, _)) => format!("{head}}}"),
        None => line.to_string(),
    }
}

/// The same pipelined byte stream, delivered once in a single write and
/// once one byte at a time, must produce identical frames: the nonblocking
/// reader parks partial frames in its `FrameBuffer` and resumes them
/// exactly where a whole-buffer read would have split them.
#[test]
fn one_byte_writes_resume_partial_frames() {
    let (svc, queries) = service();
    // Warm the statement cache so `"cached"` agrees between the two runs.
    for q in queries.iter() {
        let _ = svc.submit(q, QueryClass::from_table_count(q.total_tables()));
    }

    let script = "PING\nESTIMATE 1\nESTIMATE 2\n\
                  ESTIMATE SQL SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0\n\
                  FROB x\nPING\n";
    let responses = 6;

    let event = EventServer::bind(
        Arc::clone(&svc),
        Arc::clone(&queries),
        "127.0.0.1:0",
        EventConfig::default(),
    )
    .unwrap();

    // Reference: the whole script in one write.
    let mut s = TcpStream::connect(event.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(script.as_bytes()).unwrap();
    let want: Vec<String> = read_lines(s, responses).iter().map(|l| stable(l)).collect();
    assert_eq!(want.len(), responses);
    assert_eq!(want[0], "OK pong");
    assert!(want[4].starts_with("ERR"), "{:?}", want[4]);

    // The same bytes, trickled.
    let mut s = TcpStream::connect(event.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    for byte in script.as_bytes() {
        s.write_all(std::slice::from_ref(byte)).unwrap();
        s.flush().unwrap();
        // Yield so most bytes arrive as their own readiness event and the
        // server genuinely parks a partial frame between reads.
        std::thread::sleep(Duration::from_micros(200));
    }
    let got: Vec<String> = read_lines(s, responses).iter().map(|l| stable(l)).collect();
    assert_eq!(got, want, "one-byte reassembly diverged from one write");

    // Same property for an HTTP request trickled one byte at a time.
    let body = "{\"query\":1}";
    let req = format!(
        "POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut s = TcpStream::connect(event.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for byte in req.as_bytes() {
        s.write_all(std::slice::from_ref(byte)).unwrap();
    }
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");

    assert!(event.shutdown().drained_cleanly);
    assert!(svc.drain(Duration::from_secs(10)));
    assert_eq!(svc.metrics().queue_depth.get(), 0);
}

/// Drain while a connection holds megabytes of half-written responses (the
/// peer stopped reading): write-backpressure must have kicked in, shutdown
/// must return within the drain deadline plus slack by force-closing the
/// stuck connection, and the service queue-depth gauge must end at zero.
#[test]
fn drain_with_half_written_responses_is_deadline_bounded() {
    let (svc, queries) = service();
    let cfg = EventConfig {
        drain_deadline: Duration::from_millis(300),
        ..Default::default()
    };
    let server =
        EventServer::bind(Arc::clone(&svc), Arc::clone(&queries), "127.0.0.1:0", cfg).unwrap();

    // A healthy connection mid-frame (no newline yet) that must drain
    // cleanly with a `BUSY draining` notice. Opened first, and confirmed
    // consumed via `bytes_in`, so the server's receive buffer is empty when
    // it closes the socket — a close with unread bytes would turn into an
    // RST that destroys the drain notice.
    let mut partial = TcpStream::connect(server.local_addr()).unwrap();
    partial
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    partial.write_all(b"ESTIM").unwrap();
    let t0 = Instant::now();
    while server.metrics().bytes_in.get() < 5 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "partial frame unread"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Pipeline far more METRICS responses than loopback socket buffers can
    // absorb, and never read. Backpressure caps the user-space write buffer
    // near the high-water mark, so the connection only truly wedges once
    // the kernel buffers are full too; wait until the `backpressured` gauge
    // (current state, not cumulative) stays pinned with no flush progress.
    let stuck = TcpStream::connect(server.local_addr()).unwrap();
    let writer = {
        let s = stuck.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut s = s;
            // Requests for far more response bytes than the kernel can
            // buffer; errors just mean the server force-closed.
            let _ = s.write_all("METRICS\n".repeat(100_000).as_bytes());
        })
    };
    // Wedged = backpressure engaged AND no flush progress: `bytes_out`
    // frozen means the kernel refused every write for the whole window, so
    // the remaining response bytes cannot go anywhere at drain time either.
    let t0 = Instant::now();
    let mut last_out = u64::MAX;
    let mut frozen_since = Instant::now();
    loop {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "write backpressure never wedged"
        );
        std::thread::sleep(Duration::from_millis(50));
        let out = server.metrics().bytes_out.get();
        if out != last_out || server.poll_metrics().backpressured.get() == 0 {
            last_out = out;
            frozen_since = Instant::now();
        } else if frozen_since.elapsed() >= Duration::from_millis(600) {
            break;
        }
    }
    assert!(server.poll_metrics().backpressure.get() >= 1);

    let t0 = Instant::now();
    let report = server.shutdown();
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_secs(6),
        "shutdown not deadline-bounded: {waited:?}"
    );
    assert!(!report.drained_cleanly, "{}", report.summary());
    assert!(report.forced_connections >= 1, "{}", report.summary());

    let mut resp = String::new();
    partial.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("BUSY draining"), "{resp:?}");
    drop(partial);
    drop(stuck);
    writer.join().unwrap();

    assert!(svc.drain(Duration::from_secs(10)));
    assert_eq!(
        svc.metrics().queue_depth.get(),
        0,
        "queue-depth gauge leaked through forced drain"
    );
}

/// Sequential connect/request/disconnect churn: the open-connection count
/// returns to zero and the final drain is clean.
#[test]
fn connection_churn_returns_open_count_to_zero() {
    let (svc, queries) = service();
    let server = EventServer::bind(
        Arc::clone(&svc),
        Arc::clone(&queries),
        "127.0.0.1:0",
        EventConfig::default(),
    )
    .unwrap();
    let addr: SocketAddr = server.local_addr();

    for _ in 0..50 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"PING\n").unwrap();
        let mut reader = BufReader::new(&s);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "OK pong\n");
    }

    let t0 = Instant::now();
    while server.open_connections() != 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "open-connection count leaked: {}",
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.metrics().conns.get() >= 50);

    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_eq!(report.forced_connections, 0);
    assert!(svc.drain(Duration::from_secs(10)));
    assert_eq!(svc.metrics().queue_depth.get(), 0);
}
