//! Network chaos suite (`--features faults`): scripted transport and
//! replica failures. The invariant under test is always the same —
//! **every client call resolves to a typed error or a valid response**;
//! no call hangs, no worker crashes the server, and the front keeps
//! serving new connections after each injected fault.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use fademl::{InferencePipeline, ThreatModel};
use fademl_filters::FilterSpec;
use fademl_net::wire::{encode_frame, read_frame, Frame, WireRequest};
use fademl_net::{
    NetClient, NetConfig, NetError, NetFaultPlan, NetServer, ReplicaRouter, RouterConfig,
};
use fademl_nn::vgg::VggConfig;
use fademl_serve::{FaultPlan, ServeError, ServerConfig};
use fademl_tensor::{Tensor, TensorRng};

fn pipeline(seed: u64) -> InferencePipeline {
    let mut rng = TensorRng::seed_from_u64(seed);
    let model = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
    InferencePipeline::new(model, FilterSpec::Lap { np: 8 }).unwrap()
}

fn router_config(replicas: usize) -> RouterConfig {
    RouterConfig {
        replicas,
        replica: ServerConfig {
            queue_capacity: 64,
            max_batch_size: 4,
            linger_us: 500,
            workers: 2,
            ..ServerConfig::default()
        },
        ..RouterConfig::default()
    }
}

fn image(seed: u64) -> Tensor {
    TensorRng::seed_from_u64(seed).uniform(&[3, 16, 16], 0.0, 1.0)
}

/// A torn response frame (cut mid-bytes) surfaces as a typed transport
/// error on the wounded call; a fresh connection is served normally.
#[test]
fn torn_response_is_a_typed_error_and_server_survives() {
    let router = ReplicaRouter::start(pipeline(21), router_config(1)).unwrap();
    let plan = NetFaultPlan::new().tear_response_on(2, 6);
    let server = NetServer::serve_router_with_faults(router, NetConfig::default(), plan).unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.classify(&image(1), ThreatModel::I).unwrap();
    match client.classify(&image(2), ThreatModel::I) {
        Err(NetError::Disconnected { .. } | NetError::Frame(_)) => {}
        other => panic!("torn frame must be a typed transport error, got {other:?}"),
    }

    // The fault was per-frame, not per-server: reconnect and classify.
    let mut fresh = NetClient::connect(server.local_addr()).unwrap();
    fresh.classify(&image(3), ThreatModel::II).unwrap();
    fresh.goodbye();
    server.shutdown();
}

/// A dropped response (connection cut before any reply byte) is a typed
/// disconnect, never a hang.
#[test]
fn dropped_response_is_a_typed_error() {
    let router = ReplicaRouter::start(pipeline(22), router_config(1)).unwrap();
    let plan = NetFaultPlan::new().drop_response_on(1);
    let server = NetServer::serve_router_with_faults(router, NetConfig::default(), plan).unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match client.classify(&image(4), ThreatModel::III) {
        Err(NetError::Disconnected { .. }) => {}
        other => panic!("dropped response must be Disconnected, got {other:?}"),
    }
    server.shutdown();
}

/// A client that disconnects mid-frame (torn request) poisons nothing:
/// its handler exits quietly and other connections keep working.
#[test]
fn mid_frame_client_disconnect_leaves_server_healthy() {
    let server = NetServer::start(pipeline(23), router_config(1), NetConfig::default()).unwrap();

    let frame = Frame::Request(WireRequest {
        id: 1,
        threat: ThreatModel::I,
        deadline_us: 0,
        tenant: String::new(),
        image: image(5),
    });
    let bytes = encode_frame(&frame).unwrap();
    #[expect(
        clippy::disallowed_methods,
        reason = "a raw socket, to send bytes the framed client never would"
    )]
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&bytes[..bytes.len() / 2]).unwrap();
    drop(raw); // cut mid-frame

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.classify(&image(6), ThreatModel::II).unwrap();
    client.goodbye();
    let report = server.shutdown();
    assert_eq!(report.serving.requests_completed, 1);
    assert_eq!(report.serving.requests_failed, 0);
}

/// Garbage bytes get a best-effort typed error reply before the
/// connection is closed, and count as a frame error on the server.
#[test]
fn garbage_frames_get_a_typed_error_reply() {
    let server = NetServer::start(pipeline(24), router_config(1), NetConfig::default()).unwrap();

    #[expect(
        clippy::disallowed_methods,
        reason = "a raw socket, to send bytes the framed client never would"
    )]
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"NOTFADEMLNOTFADEML").unwrap();
    match read_frame(&mut raw) {
        Ok(Frame::Error(fault)) => {
            assert_eq!(fault.id, 0, "unattributable errors carry id 0");
            assert!(matches!(fault.error, ServeError::InvalidInput { .. }));
        }
        other => panic!("expected typed error frame, got {other:?}"),
    }
    assert!(server.frame_errors() >= 1);

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.classify(&image(7), ThreatModel::I).unwrap();
    client.goodbye();
    server.shutdown();
}

/// A slow-loris peer dribbling header bytes is cut by the read timeout
/// instead of pinning a handler thread forever.
#[test]
fn slow_loris_is_cut_by_the_read_timeout() {
    let config = NetConfig {
        read_timeout_ms: 100,
        ..NetConfig::default()
    };
    let server = NetServer::start(pipeline(25), router_config(1), config).unwrap();

    #[expect(
        clippy::disallowed_methods,
        reason = "a raw socket, to stall mid-header as the framed client never would"
    )]
    let mut loris = TcpStream::connect(server.local_addr()).unwrap();
    loris.write_all(b"FAD").unwrap(); // 3 of 13 header bytes, then stall
    std::thread::sleep(Duration::from_millis(400));
    assert!(
        server.timeouts() >= 1,
        "the stalled connection must trip the read timeout"
    );

    // The handler thread it occupied is free again for real clients.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.classify(&image(8), ThreatModel::III).unwrap();
    client.goodbye();
    drop(loris);
    server.shutdown();
}

/// A replica worker dying mid-batch: the wounded batch resolves to
/// typed errors, the surviving worker keeps the replica serving, and
/// every subsequent call still resolves.
#[test]
fn replica_death_mid_batch_resolves_every_call() {
    // Arm every replica: consistent hashing decides which one a threat
    // model lands on, so either may take the wounded batch.
    let plans = vec![
        FaultPlan::new().kill_worker_on_batch(1),
        FaultPlan::new().kill_worker_on_batch(1),
    ];
    let router = ReplicaRouter::start_with_faults(pipeline(26), router_config(2), plans).unwrap();
    let server = NetServer::serve_router(router, NetConfig::default()).unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut ok = 0u64;
    let mut typed_errors = 0u64;
    for i in 0..24u64 {
        match client.classify(&image(100 + i), ThreatModel::ALL[(i % 3) as usize]) {
            Ok(_) => ok += 1,
            Err(NetError::Remote(_)) => typed_errors += 1,
            Err(other) => panic!("call {i} must resolve typed, got {other:?}"),
        }
    }
    assert_eq!(ok + typed_errors, 24, "every call resolved");
    assert!(ok > 0, "surviving workers must keep serving");

    client.goodbye();
    server.shutdown();
}
