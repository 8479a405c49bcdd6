//! Transports: in-process loopback and TCP.
//!
//! The loopback transport runs the full wire path — every frame is
//! encoded to bytes and decoded back on both legs — without sockets, so
//! tests and benchmarks exercise exactly the bytes a TCP peer would see
//! while staying deterministic and sandbox-friendly. The TCP transport
//! serves a [`SharedGate`] — the
//! [`ShardedGate`](crate::sharded::ShardedGate), or a wrapper around it —
//! one reader thread per connection with a hard cap.

use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sybil_sim::Time;

use crate::service::Response;
use crate::wire::{read_frame, Frame};

/// An in-process connection to a gate, speaking real wire bytes.
pub struct Loopback<G> {
    service: G,
}

impl<G: SharedGate> Loopback<G> {
    /// Wraps a service in a loopback transport.
    pub fn new(service: G) -> Self {
        Loopback { service }
    }

    /// Opens a connection at `now`; returns the connection id and the
    /// decoded hello frame, after pushing it through encode/decode as a
    /// socket write would.
    pub fn connect(&mut self, now: Time) -> (u64, Frame) {
        let (conn, hello) = self.service.connect(now);
        let bytes = hello.encode();
        let (decoded, _) = Frame::decode(&bytes).expect("hello frames always round-trip");
        (conn, decoded)
    }

    /// Sends one client frame and returns the server's reply, or `None`
    /// when the server silently drops. Both directions cross the wire
    /// encoding.
    pub fn request(&mut self, conn: u64, frame: &Frame, now: Time) -> Option<Frame> {
        let bytes = frame.encode();
        let (decoded, _) = Frame::decode(&bytes).expect("well-formed frames round-trip");
        match self.service.handle(conn, &decoded, now) {
            Response::Drop => None,
            Response::Reply(reply) => {
                let bytes = reply.encode();
                let (decoded, _) = Frame::decode(&bytes).expect("replies round-trip");
                Some(decoded)
            }
        }
    }

    /// The wrapped service (counters, decision log, fingerprint).
    pub fn service(&self) -> &G {
        &self.service
    }

    /// Consumes the transport, returning the service.
    pub fn into_service(self) -> G {
        self.service
    }
}

/// A gate the transports can drive through shared references, from many
/// handler threads at once.
pub trait SharedGate: Send + Sync {
    /// Opens a connection; see
    /// [`ShardedGate::connect`](crate::sharded::ShardedGate::connect).
    fn connect(&self, now: Time) -> (u64, Frame);
    /// Handles one client frame; see
    /// [`ShardedGate::handle`](crate::sharded::ShardedGate::handle).
    fn handle(&self, conn: u64, frame: &Frame, now: Time) -> Response;
    /// Connection `conn` has ended: forget whatever `connect` promised
    /// it. Not a decision, so it is never logged or counted.
    fn disconnect(&self, _conn: u64) {}
}

/// Serves a gate over TCP until the listener fails. Each accepted
/// connection gets the hello immediately, then a read loop; at most
/// `max_conns` handler threads run at once — excess connections are
/// handled inline on the accept thread, a crude but effective
/// backpressure. A panicking handler costs exactly its own connection:
/// the unwind is caught so the slot is always released and an inline
/// handler can never take the acceptor loop down with it. Timestamps
/// are seconds since serve start.
pub fn serve<G: SharedGate + 'static>(
    listener: TcpListener,
    service: Arc<G>,
    max_conns: usize,
) -> std::io::Result<()> {
    let start = Instant::now();
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        let stream = stream?;
        let service = Arc::clone(&service);
        let slot = Arc::clone(&active);
        let handler = move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = handle_conn(stream, &*service, start);
            }));
            slot.fetch_sub(1, Ordering::Relaxed);
        };
        if active.fetch_add(1, Ordering::Relaxed) < max_conns.max(1) {
            std::thread::spawn(handler);
        } else {
            handler();
        }
    }
    Ok(())
}

/// Tells the gate its connection ended, however `handle_conn` exits.
struct Disconnect<'a, G: SharedGate>(&'a G, u64);

impl<G: SharedGate> Drop for Disconnect<'_, G> {
    fn drop(&mut self) {
        self.0.disconnect(self.1);
    }
}

/// One connection's lifecycle: hello, then frames until drop or EOF.
fn handle_conn<G: SharedGate>(
    mut stream: std::net::TcpStream,
    service: &G,
    start: Instant,
) -> std::io::Result<()> {
    let now = || Time(start.elapsed().as_secs_f64());
    let (conn, hello) = service.connect(now());
    let _disconnect = Disconnect(service, conn);
    stream.write_all(&hello.encode())?;
    while let Some(frame) = read_frame(&mut stream)? {
        match service.handle(conn, &frame, now()) {
            Response::Reply(reply) => stream.write_all(&reply.encode())?,
            Response::Drop => break, // silent: close without a byte
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memhard::{mine, MemHardParams};
    use crate::service::GateConfig;
    use crate::sharded::ShardedGate;
    use sybil_crypto::{Challenge, Solver};

    fn small_cfg() -> GateConfig {
        GateConfig {
            difficulty_floor: 2,
            mine_bits: 1,
            mem: MemHardParams { blocks: 4, passes: 1 },
            ..GateConfig::default()
        }
    }

    /// Drives one full two-phase admission through a transport-agnostic
    /// request function; shared by the loopback test here and the TCP
    /// smoke test in `tests/loopback.rs`.
    pub(crate) fn admit_via(
        hello: &Frame,
        mut request: impl FnMut(&Frame) -> Option<Frame>,
        client_tag: u64,
    ) -> Option<u64> {
        let &Frame::Hello { difficulty, nonce, mine_bits, mem_blocks, mem_passes, .. } = hello
        else {
            return None;
        };
        let challenge = Challenge::new(&nonce, &client_tag.to_be_bytes(), difficulty);
        let solution = Solver::new().solve(&challenge).nonce;
        let reply = request(&Frame::Join { client_tag, solution })?;
        let Frame::Granted { identity, token } = reply else { return None };
        let mem = MemHardParams { blocks: mem_blocks, passes: mem_passes };
        let mined = mine(&token, mine_bits, &mem);
        let reply = request(&Frame::MineSubmit { identity, token, salt: mined.salt })?;
        matches!(reply, Frame::Admitted { identity: i } if i == identity).then_some(identity)
    }

    #[test]
    fn loopback_full_admission_crosses_the_wire() {
        let mut lb = Loopback::new(ShardedGate::new(small_cfg(), 1));
        let (conn, hello) = lb.connect(Time(1.0));
        let identity = admit_via(&hello, |f| lb.request(conn, f, Time(1.0)), 7);
        // Note: after the Join the connection state is consumed, but the
        // MineSubmit carries its own credentials so the same conn id works.
        assert_eq!(identity, Some(0));
        let c = lb.service().counters();
        assert_eq!((c.granted, c.admitted), (1, 1));
    }

    #[test]
    fn loopback_drop_is_none() {
        // A high floor so a garbage solution cannot fluke past the
        // verifier (at difficulty d the fluke probability is 1/d).
        let cfg = GateConfig { difficulty_floor: 1 << 30, ..small_cfg() };
        let mut lb = Loopback::new(ShardedGate::new(cfg, 1));
        let (conn, _) = lb.connect(Time(1.0));
        let reply = lb.request(conn, &Frame::Join { client_tag: 1, solution: u64::MAX }, Time(1.0));
        assert_eq!(reply, None);
        assert_eq!(lb.service().counters().rejected_pow, 1);
    }

    /// A gate whose N-th `connect` panics: the deterministic stand-in
    /// for a handler bug, used to pin that a panicking handler cannot
    /// take the acceptor down.
    struct FlakyGate {
        inner: ShardedGate,
        calls: AtomicUsize,
        panic_on: usize,
    }

    impl SharedGate for FlakyGate {
        fn connect(&self, now: Time) -> (u64, Frame) {
            if self.calls.fetch_add(1, Ordering::SeqCst) == self.panic_on {
                panic!("deliberate test panic in a connection handler");
            }
            self.inner.connect(now)
        }
        fn handle(&self, conn: u64, frame: &Frame, now: Time) -> Response {
            self.inner.handle(conn, frame, now)
        }
    }

    #[test]
    fn panicking_inline_handler_does_not_kill_the_acceptor() {
        use std::io::Read;

        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: cannot bind a localhost listener in this sandbox");
            return;
        };
        let addr = listener.local_addr().expect("bound listener has an address");
        let gate = Arc::new(FlakyGate {
            inner: ShardedGate::new(small_cfg(), 1),
            calls: AtomicUsize::new(0),
            panic_on: 1,
        });
        std::thread::spawn(move || {
            let _ = serve(listener, gate, 1);
        });

        // Connection A is healthy and holds the single handler slot open.
        // Reading its hello proves its connect (call 0) has completed, so
        // the panic is pinned to connection B.
        let mut a = std::net::TcpStream::connect(addr).expect("connect A");
        let mut hello_a = [0u8; 4];
        a.read_exact(&mut hello_a).expect("hello A length prefix");

        // Connection B overflows the cap, so it is handled inline on the
        // acceptor thread — the worst case — and its connect panics.
        // Pre-hardening, that unwind killed the accept loop.
        let mut b = std::net::TcpStream::connect(addr).expect("connect B");
        let mut buf = Vec::new();
        let n = b.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "the panicked connection closes without a byte");

        // Connection C proves the acceptor survived: it is also handled
        // inline (A still occupies the slot) and gets a real hello.
        let mut c = std::net::TcpStream::connect(addr).expect("connect C");
        let mut hello_c = [0u8; 4];
        c.read_exact(&mut hello_c).expect("the acceptor must still serve hellos");
    }
}
