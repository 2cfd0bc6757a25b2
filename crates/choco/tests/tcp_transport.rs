//! `BlobIo` over real loopback sockets: framing, partial reads, and typed
//! failures — everything the in-memory channels guarantee, now with a
//! kernel in the loop.

use choco::transport::tcp::BlobIo;
use choco::transport::{frame, FrameKind, TagKey, TransportError};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const MAX: u64 = 1 << 26;

/// Spawns a peer that accepts one connection and runs `serve` on it.
fn peer(serve: impl FnOnce(TcpStream) + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        serve(stream);
    });
    addr
}

fn connect(addr: SocketAddr) -> BlobIo {
    BlobIo::new(TcpStream::connect(addr).unwrap(), MAX)
}

/// Reads one blob, failing the test if none arrives within `ms`.
fn read_within(io: &mut BlobIo, ms: u64) -> Vec<u8> {
    io.read_blob(ms)
        .expect("read failed")
        .expect("no blob before the deadline")
}

#[test]
fn frames_roundtrip_over_loopback() {
    let key = TagKey::from_session_seed(b"tcp roundtrip");
    let peer_key = key.clone();
    let addr = peer(move |stream| {
        // Verify every frame and send it back.
        let mut io = BlobIo::new(stream, MAX);
        while let Ok(Some(blob)) = io.read_blob(2_000) {
            assert!(frame::decode_frame(&blob, &peer_key).is_ok());
            if io.write_all(&blob).is_err() {
                return;
            }
        }
    });
    let mut io = connect(addr);
    for seq in 0..5u64 {
        let wire = frame::encode_frame(FrameKind::EvalRequest, seq, &vec![seq as u8; 2048], &key);
        io.write_all(&wire).unwrap();
        assert_eq!(
            read_within(&mut io, 2_000),
            wire,
            "frame {seq} corrupted over loopback"
        );
    }
}

#[test]
fn partial_writes_are_reassembled() {
    // The peer dribbles a frame a few bytes at a time; the read buffer must
    // reassemble it across many short reads.
    let key = TagKey::from_session_seed(b"tcp dribble");
    let wire = frame::encode_frame(FrameKind::EvalResponse, 3, &[9; 200], &key);
    let sent = wire.clone();
    let addr = peer(move |mut stream| {
        for piece in sent.chunks(7) {
            stream.write_all(piece).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let mut io = connect(addr);
    let got = read_within(&mut io, 2_000);
    assert_eq!(got, wire);
    assert!(frame::decode_frame(&got, &key).is_ok());
}

#[test]
fn oversized_prefix_is_rejected_before_allocating() {
    // A rogue peer sends an absurd length prefix; the reader must refuse it
    // with a typed error instead of reserving 4 GiB.
    let addr = peer(|mut stream| {
        stream.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        stream.write_all(&[0u8; 64]).unwrap();
        std::thread::sleep(Duration::from_millis(500));
    });
    let mut io = connect(addr);
    match io.read_blob(500) {
        Err(TransportError::Oversized { declared, max }) => {
            assert_eq!(declared, 0xFFFF_FFFF);
            assert_eq!(max, MAX);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn peer_disconnect_is_typed() {
    let addr = peer(drop); // immediate hangup
    let mut io = connect(addr);
    match io.read_blob(2_000) {
        Err(TransportError::Disconnected(_)) => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }
}

#[test]
fn recv_deadline_reports_dry_not_dead() {
    // A peer that stays silent past the deadline, then sends: the first
    // read reports the pipe dry (not an error), and the connection is
    // still alive for the next read, which gets the late frame — partial
    // bytes included.
    let key = TagKey::from_session_seed(b"tcp dry");
    let wire = frame::encode_frame(FrameKind::EvalResponse, 0, &[4; 64], &key);
    let sent = wire.clone();
    let addr = peer(move |mut stream| {
        std::thread::sleep(Duration::from_millis(300));
        stream.write_all(&sent[..10]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(200));
        stream.write_all(&sent[10..]).unwrap();
        std::thread::sleep(Duration::from_millis(500));
    });
    let mut io = connect(addr);
    let start = Instant::now();
    assert!(matches!(io.read_blob(150), Ok(None)), "silence is dry");
    let waited = start.elapsed();
    assert!(waited >= Duration::from_millis(140), "gave up too early");
    assert!(waited < Duration::from_secs(3), "deadline not enforced");
    // Wait out the first half of the frame: still dry, bytes kept.
    std::thread::sleep(Duration::from_millis(250));
    assert!(matches!(io.read_blob(10), Ok(None)), "half a frame is dry");
    assert_eq!(read_within(&mut io, 2_000), wire, "a dry pipe is not dead");
}
