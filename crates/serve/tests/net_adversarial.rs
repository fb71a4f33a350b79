//! Adversarial-input suite for the network edge: hostile byte streams
//! must poison only their own connection. Oversized length prefixes,
//! truncated frames, garbage magic/version — each gets a typed
//! protocol error (or a clean close) on the offending connection while
//! the server keeps serving everyone else, with no poisoned registry
//! and no leaked admission slots. Clean pipelined traffic on several
//! connections across both reactors is accounted frame for frame.

use serve::net::{
    Frame, FrameParser, NetClient, NetConfig, NetServer, RequestFrame, Status, MAGIC, VERSION,
};
use serve::pool::Pool;
use serve::server::{BatchPolicy, ScenarioSpec, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// An echo server on an ephemeral loopback port.
fn echo_server() -> (Server<Vec<u8>, Vec<u8>>, NetServer) {
    let server: Server<Vec<u8>, Vec<u8>> = Server::new(
        Pool::new(2),
        BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
        },
    );
    server
        .register(ScenarioSpec::new("echo", "wire"), |xs: &[Vec<u8>]| {
            xs.to_vec()
        })
        .unwrap();
    let net = NetServer::bind(
        &server,
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            reactors: 2,
            per_conn_inflight: 4,
        },
    )
    .expect("bind loopback");
    (server, net)
}

/// Reads frames off a raw socket until `want` responses arrived or the
/// peer closed; returns (responses, saw_eof).
fn read_responses(stream: &mut TcpStream, want: usize) -> (Vec<serve::net::ResponseFrame>, bool) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut parser = FrameParser::new();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    let mut eof = false;
    while out.len() < want {
        match stream.read(&mut buf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                parser.feed(&buf[..n]).expect("server speaks the protocol");
                while let Some(Frame::Response(r)) = parser.next_frame() {
                    out.push(r);
                }
            }
            Err(e) => panic!("read failed: {e}"),
        }
    }
    (out, eof)
}

/// Waits until the socket reads EOF (server closed its end).
fn expect_eof(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) => panic!("expected EOF, got error: {e}"),
        }
    }
}

/// Spins until the server has torn down every accepted connection.
fn wait_all_closed(net: &NetServer) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.stats().open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "connections leaked: {:?}",
            net.stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn oversized_length_prefix_poisons_only_its_connection() {
    let (server, net) = echo_server();
    let addr = net.local_addr();

    // A healthy bystander connection, opened first.
    let mut good = NetClient::connect(addr).expect("good connect");

    // The attacker declares a payload far over MAX_PAYLOAD. The server
    // must answer BadFrame without ever buffering the claimed body.
    let mut evil = TcpStream::connect(addr).expect("evil connect");
    let mut hdr = Vec::new();
    hdr.extend_from_slice(&MAGIC.to_le_bytes());
    hdr.push(VERSION);
    hdr.push(0); // request
    hdr.extend_from_slice(&42u64.to_le_bytes()); // corr
    hdr.extend_from_slice(&4u16.to_le_bytes()); // model len
    hdr.extend_from_slice(&4u16.to_le_bytes()); // scenario len
    hdr.extend_from_slice(&u32::MAX.to_le_bytes()); // payload len: 4 GiB
    evil.write_all(&hdr).unwrap();
    let (resp, _) = read_responses(&mut evil, 1);
    assert_eq!(resp[0].status, Status::BadFrame);
    assert!(
        String::from_utf8_lossy(&resp[0].payload).contains("exceeds cap"),
        "error payload must say what broke: {:?}",
        String::from_utf8_lossy(&resp[0].payload)
    );
    expect_eof(&mut evil);

    // The bystander is unaffected, before and after.
    let r = good.call("echo", "wire", b"still here").expect("good call");
    assert_eq!(
        (r.status, r.payload.as_slice()),
        (Status::Ok, &b"still here"[..])
    );

    assert_eq!(net.stats().protocol_errors, 1);
    drop(good);
    drop(evil);
    wait_all_closed(&net);
    net.shutdown();
    server.shutdown();
}

#[test]
fn truncated_frame_then_eof_closes_cleanly() {
    let (server, net) = echo_server();
    let addr = net.local_addr();
    let mut good = NetClient::connect(addr).expect("good connect");

    // Write half a valid frame, then shut the write side down. Framing
    // was never violated — the server just closes, answering nothing.
    let full = RequestFrame {
        corr: 9,
        model: "echo".to_string(),
        scenario: "wire".to_string(),
        payload: vec![7; 64],
    }
    .encode();
    let mut evil = TcpStream::connect(addr).expect("evil connect");
    evil.write_all(&full[..full.len() / 2]).unwrap();
    evil.shutdown(std::net::Shutdown::Write).unwrap();
    expect_eof(&mut evil);

    // No protocol error — a torn write is not an attack — and no
    // response was owed. Other connections keep being served.
    assert_eq!(net.stats().protocol_errors, 0);
    let r = good.call("echo", "wire", b"fine").expect("good call");
    assert_eq!(r.status, Status::Ok);

    drop(good);
    drop(evil);
    wait_all_closed(&net);
    let s = net.stats();
    assert_eq!(s.frames_in, 1, "only the good frame ever decoded: {s:?}");
    net.shutdown();
    server.shutdown();
}

#[test]
fn garbage_magic_and_version_get_typed_errors() {
    let (server, net) = echo_server();
    let addr = net.local_addr();

    // Garbage magic.
    let mut evil = TcpStream::connect(addr).expect("connect");
    evil.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let (resp, _) = read_responses(&mut evil, 1);
    assert_eq!(resp[0].status, Status::BadFrame);
    assert!(String::from_utf8_lossy(&resp[0].payload).contains("magic"));
    expect_eof(&mut evil);

    // Right magic, wrong version.
    let mut evil2 = TcpStream::connect(addr).expect("connect");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC.to_le_bytes());
    bytes.push(VERSION + 1);
    bytes.push(0);
    evil2.write_all(&bytes).unwrap();
    let (resp, _) = read_responses(&mut evil2, 1);
    assert_eq!(resp[0].status, Status::BadFrame);
    assert!(String::from_utf8_lossy(&resp[0].payload).contains("version"));
    expect_eof(&mut evil2);

    // A response frame sent *to* the server is equally a violation.
    let mut evil3 = TcpStream::connect(addr).expect("connect");
    let resp_frame = serve::net::ResponseFrame {
        corr: 1,
        status: Status::Ok,
        retry_after: Duration::ZERO,
        payload: Vec::new(),
    };
    evil3.write_all(&resp_frame.encode()).unwrap();
    let (resp, _) = read_responses(&mut evil3, 1);
    assert_eq!(resp[0].status, Status::BadFrame);
    expect_eof(&mut evil3);

    assert_eq!(net.stats().protocol_errors, 3);
    // The server is not poisoned: a fresh client round-trips.
    let mut good = NetClient::connect(addr).expect("good connect");
    let r = good.call("echo", "wire", b"alive").expect("call");
    assert_eq!(r.status, Status::Ok);

    drop(good);
    drop(evil);
    drop(evil2);
    drop(evil3);
    wait_all_closed(&net);
    net.shutdown();
    server.shutdown();
}

#[test]
fn unknown_model_is_a_typed_status_not_a_poisoned_connection() {
    let (server, net) = echo_server();
    let mut client = NetClient::connect(net.local_addr()).expect("connect");

    // A well-formed frame for a key that does not exist: typed error,
    // connection stays open and usable.
    let r = client.call("nope", "wire", b"x").expect("call");
    assert_eq!(r.status, Status::UnknownModel);
    assert!(
        String::from_utf8_lossy(&r.payload).contains("no registration"),
        "message payload must carry the typed error text"
    );

    // Same connection, real model: still served.
    let r = client.call("echo", "wire", b"works").expect("call");
    assert_eq!(
        (r.status, r.payload.as_slice()),
        (Status::Ok, &b"works"[..])
    );
    assert_eq!(net.stats().protocol_errors, 0, "not a framing violation");

    drop(client);
    wait_all_closed(&net);
    net.shutdown();
    server.shutdown();
}

#[test]
fn per_connection_inflight_cap_rejects_without_leaking_slots() {
    let (server, net) = echo_server(); // per_conn_inflight = 4
    let mut client = NetClient::connect(net.local_addr()).expect("connect");

    // Fire a burst far over the connection cap in one write volley: the
    // reactor decodes them together, so overflow frames meet the cap.
    const BURST: usize = 64;
    let payloads: Vec<Vec<u8>> = (0..BURST).map(|i| vec![i as u8; 4]).collect();
    let responses = client
        .call_pipelined("echo", "wire", &payloads, BURST)
        .expect("burst");
    assert_eq!(responses.len(), BURST, "exactly one response per frame");
    let ok = responses.iter().filter(|r| r.status == Status::Ok).count();
    let rejected = responses
        .iter()
        .filter(|r| r.status == Status::Rejected)
        .count();
    assert_eq!(ok + rejected, BURST, "cap overflow must be typed Rejected");
    assert!(ok >= 4, "at least a full window must be admitted, got {ok}");
    assert_eq!(
        net.stats().inflight_rejections,
        rejected as u64,
        "every rejection must be counted at the connection gate"
    );

    // No admission slots leaked: the sync in-process face still works
    // and the wire face serves a fresh full window afterwards.
    assert_eq!(
        server.client().infer("echo", "wire", b"direct".to_vec()),
        Ok(b"direct".to_vec())
    );
    let again = client
        .call_pipelined("echo", "wire", &payloads[..4], 4)
        .expect("post-burst window");
    assert!(
        again.iter().all(|r| r.status == Status::Ok),
        "a fresh window after the burst must be fully admitted"
    );

    drop(client);
    wait_all_closed(&net);
    net.shutdown();
    server.shutdown();
}

#[test]
fn pipelined_connections_across_reactors_account_every_frame() {
    // The clean-traffic baseline the hostile cases are measured against:
    // several connections, dealt across both reactors, each pipelining a
    // full in-flight window. Every frame decodes once, every request gets
    // exactly one response carrying its own payload, and nothing is
    // rejected or counted as a protocol error.
    let (server, net) = echo_server(); // 2 reactors, per_conn_inflight = 4
    let addr = net.local_addr();
    const CONNS: usize = 4;
    const REQUESTS: usize = 64;
    std::thread::scope(|s| {
        for c in 0..CONNS {
            s.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let payloads: Vec<Vec<u8>> = (0..REQUESTS)
                    .map(|i| format!("conn {c} req {i}").into_bytes())
                    .collect();
                let responses = client
                    .call_pipelined("echo", "wire", &payloads, 4)
                    .expect("pipelined calls");
                for (resp, sent) in responses.iter().zip(&payloads) {
                    assert_eq!((resp.status, &resp.payload), (Status::Ok, sent));
                }
            });
        }
    });
    wait_all_closed(&net);
    let s = net.stats();
    let total = (CONNS * REQUESTS) as u64;
    assert_eq!(s.connections_opened, CONNS as u64, "{s:?}");
    assert_eq!(
        s.frames_in, total,
        "every request frame decoded once: {s:?}"
    );
    assert_eq!(s.frames_out, total, "one response frame per request: {s:?}");
    assert_eq!(s.protocol_errors, 0, "{s:?}");
    assert_eq!(
        s.inflight_rejections, 0,
        "a window at the cap never overflows it: {s:?}"
    );
    net.shutdown();
    server.shutdown();
}
