//! Transports: in-process loopback and TCP.
//!
//! The loopback transport runs the full wire path — every frame is
//! encoded to bytes and decoded back on both legs — without sockets, so
//! tests and benchmarks exercise exactly the bytes a TCP peer would see
//! while staying deterministic and sandbox-friendly. The TCP transport
//! serves a [`SharedGate`] — the
//! [`ShardedGate`](crate::sharded::ShardedGate), or a wrapper around it —
//! from a pool of handler threads, started on demand up to a hard cap and
//! reused from one connection to the next, under per-frame deadlines.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sybil_sim::Time;

use crate::service::Response;
use crate::sharded::lock;
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

/// How long a peer may take over each step of a connection. The shipped
/// values are constants, not knobs: they bound what an idle or dripping
/// socket can hold, and nothing a well-behaved client does comes near
/// them.
pub(crate) struct Deadlines {
    /// From the hello (or any reply but `Granted`) to the whole of the
    /// next frame. An honest client spends this solving the quoted PoW:
    /// about 0.3 s of hashing at the difficulty cap of 2²⁰.
    pub(crate) first_frame: Duration,
    /// From `Granted` to the whole `MineSubmit`. Looser, because this is
    /// where the client does its memory-hard mining.
    pub(crate) mined_frame: Duration,
    /// For the peer's socket to accept one reply (at most 68 bytes).
    pub(crate) write: Duration,
}

impl Deadlines {
    const SHIPPED: Deadlines = Deadlines {
        first_frame: Duration::from_secs(10),
        mined_frame: Duration::from_secs(60),
        write: Duration::from_secs(5),
    };
}

/// Serves a gate over TCP until the listener fails (the first accept
/// error ends it). Connections are served by a pool of handler threads
/// that is started on demand: a connection that arrives while no worker is
/// idle starts one, up to `max_conns`, and a worker that has finished a
/// connection waits for the next, so a listener nobody dials costs no
/// thread and a flood of short connections costs a wake-up each, not a
/// spawn. A connection that arrives while `max_conns` workers are all busy
/// — or while the OS refuses another thread — is closed without a hello.
/// A worker sends the hello and then reads frames under [`Deadlines`]. The
/// accept thread itself never reads from, writes to or waits on a client
/// or a worker (the hand-off is a push under a short lock), so no peer can
/// stall it. A panicking handler costs exactly its own connection and its
/// own thread, and the next connection may start a replacement. Before
/// `serve` returns it wakes the idle workers and joins every one: nothing
/// it started outlives it, and a worker in mid-connection finishes that
/// connection first, each step of it still bounded by the deadlines.
/// Timestamps are seconds since serve start.
pub fn serve<G: SharedGate + 'static>(
    listener: TcpListener,
    service: Arc<G>,
    max_conns: usize,
) -> std::io::Result<()> {
    serve_with(listener, service, max_conns, &Deadlines::SHIPPED)
}

/// [`serve`] with explicit deadlines, so tests need not wait out the
/// shipped ones. By reference, and the handler reads unbuffered, on
/// purpose: a worker allocates per connection exactly what a handler
/// thread did before there were deadlines or a pool. glibc hands threads
/// whichever arena is free, the main one included, and `benchmark/`'s
/// `gate_admit` showed a bigger spawn closure or a per-connection read
/// buffer there as +20 % peak RSS.
pub(crate) fn serve_with<G: SharedGate + 'static>(
    listener: TcpListener,
    service: Arc<G>,
    max_conns: usize,
    deadlines: &'static Deadlines,
) -> std::io::Result<()> {
    let start = Instant::now();
    let pool = Arc::new(Pool::default());
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let error = loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => break e,
        };
        let mut state = lock(&pool.state);
        if state.idle > 0 {
            state.idle -= 1;
            state.queue.push_back(stream);
            drop(state);
            pool.wake.notify_one();
        } else if state.workers < max_conns.max(1) {
            state.workers += 1;
            let n = state.workers;
            drop(state);
            let (shared, service) = (Arc::clone(&pool), Arc::clone(&service));
            let worker = move || work(&shared, stream, &*service, start, deadlines);
            match std::thread::Builder::new().name(format!("gate-worker-{n}")).spawn(worker) {
                Ok(handle) => {
                    // Replacements for panicked workers must not pile up.
                    handles.retain(|h| !h.is_finished());
                    handles.push(handle);
                }
                // No thread to be had is over the cap by another name: the
                // dropped closure has closed the stream.
                Err(_) => lock(&pool.state).workers -= 1,
            }
        } else {
            drop(state);
            drop(stream); // Refused: closed at once, without a hello.
        }
    };
    lock(&pool.state).closed = true;
    pool.wake.notify_all();
    for handle in handles {
        let _ = handle.join(); // A handler's panic was its own connection's.
    }
    Err(error)
}

/// What the accept thread and its workers decide a hand-off by.
#[derive(Default)]
struct PoolState {
    /// Accepted connections, each promised to a waiting worker.
    queue: VecDeque<TcpStream>,
    /// Workers between connections that no queued connection is promised to.
    idle: usize,
    /// Workers alive: serving, waiting or being started.
    workers: usize,
    /// The listener failed: a worker that finds the queue empty exits.
    closed: bool,
}

/// The handler pool of one [`serve`].
#[derive(Default)]
struct Pool {
    /// Every update is a counter step or a queue push or pop, valid at
    /// every point, so a poisoned lock is recovered ([`lock`]); nothing
    /// that can panic runs under it anyway.
    state: Mutex<PoolState>,
    wake: Condvar,
}

impl Pool {
    /// Waits for the next connection handed to a worker; `None` once the
    /// pool is closed and the queue is empty.
    fn next(&self) -> Option<TcpStream> {
        let mut state = lock(&self.state);
        loop {
            if let Some(stream) = state.queue.pop_front() {
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A worker's life: the connection it was started for, then every
/// connection the accept thread hands it, until the pool closes.
fn work<G: SharedGate>(
    pool: &Pool,
    first: TcpStream,
    service: &G,
    start: Instant,
    deadlines: &Deadlines,
) {
    let mut first = Some(first);
    while let Some(stream) = first.take().or_else(|| pool.next()) {
        // Dropped before `stream`, on return and on a panicking handler's
        // unwind alike: the worker is free (or counted out) before the
        // socket closes, so a client that has seen this connection end can
        // never be refused on its account.
        let _release = Release(pool);
        let _ = handle_conn(&stream, service, start, deadlines);
    }
}

/// Ends a worker's connection in the pool's books: the worker is idle
/// again, or, when its handler panicked, gone.
struct Release<'a>(&'a Pool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        if std::thread::panicking() {
            state.workers -= 1;
        } else {
            state.idle += 1;
        }
    }
}

/// Tells the gate its connection ended, however `handle_conn` exits.
struct Disconnect<'a, G: SharedGate>(&'a G, u64);

impl<G: SharedGate> Drop for Disconnect<'_, G> {
    fn drop(&mut self) {
        self.0.disconnect(self.1);
    }
}

/// Reads from a socket until a deadline: before every read the socket's
/// timeout is set to the time left, so a peer that drips bytes gets no
/// longer than one that sends nothing.
struct UntilDeadline<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for UntilDeadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// One connection's lifecycle: hello, then frames until drop, EOF or a
/// missed deadline (an error like any other: the connection closes, its
/// state is freed, nothing is logged).
fn handle_conn<G: SharedGate>(
    mut stream: &TcpStream,
    service: &G,
    start: Instant,
    deadlines: &Deadlines,
) -> std::io::Result<()> {
    let now = || Time(start.elapsed().as_secs_f64());
    stream.set_write_timeout(Some(deadlines.write))?;
    let (conn, hello) = service.connect(now());
    let _disconnect = Disconnect(service, conn);
    stream.write_all(&hello.encode())?;
    let mut reader = UntilDeadline { stream, deadline: Instant::now() + deadlines.first_frame };
    while let Some(frame) = read_frame(&mut reader)? {
        match service.handle(conn, &frame, now()) {
            Response::Reply(reply) => {
                stream.write_all(&reply.encode())?;
                let wait = match reply {
                    Frame::Granted { .. } => deadlines.mined_frame,
                    _ => deadlines.first_frame,
                };
                reader.deadline = Instant::now() + wait;
            }
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
    use std::collections::HashSet;
    use std::io::ErrorKind;
    use std::net::Shutdown;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
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
    /// for a handler bug.
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

    /// The deadline a misbehaving peer is held to in these tests, and how
    /// long a client waits before failing its test instead of hanging it.
    const TEST_DEADLINE: Duration = Duration::from_secs(1);
    const CLIENT_PATIENCE: Duration = Duration::from_secs(10);

    /// Serves `gate` on `listener` with [`TEST_DEADLINE`] for every step.
    fn spawn_serve<G: SharedGate + 'static>(
        listener: TcpListener,
        gate: Arc<G>,
        max_conns: usize,
    ) -> JoinHandle<std::io::Result<()>> {
        const DEADLINES: Deadlines = Deadlines {
            first_frame: TEST_DEADLINE,
            mined_frame: TEST_DEADLINE,
            write: TEST_DEADLINE,
        };
        std::thread::spawn(move || serve_with(listener, gate, max_conns, &DEADLINES))
    }

    /// A listener on a fresh loopback port; `None` where the sandbox cannot
    /// bind one.
    fn bind_loopback() -> Option<(TcpListener, std::net::SocketAddr)> {
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: cannot bind a localhost listener in this sandbox");
            return None;
        };
        let addr = listener.local_addr().expect("bound listener has an address");
        Some((listener, addr))
    }

    /// [`spawn_serve`] on a fresh loopback port, left running.
    fn serve_on_loopback<G: SharedGate + 'static>(
        gate: Arc<G>,
        max_conns: usize,
    ) -> Option<std::net::SocketAddr> {
        let (listener, addr) = bind_loopback()?;
        spawn_serve(listener, gate, max_conns);
        Some(addr)
    }

    /// A client socket that gives up after [`CLIENT_PATIENCE`].
    fn dial(addr: std::net::SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect to the local gate");
        stream.set_read_timeout(Some(CLIENT_PATIENCE)).expect("client read timeout");
        stream
    }

    /// Dials and reads the hello, which proves the connection holds a
    /// handler slot.
    fn dial_for_hello(addr: std::net::SocketAddr) -> (TcpStream, Frame) {
        let mut stream = dial(addr);
        let hello = read_frame(&mut stream).expect("read hello").expect("a hello, not EOF");
        assert!(matches!(hello, Frame::Hello { .. }), "first frame must be the hello: {hello:?}");
        (stream, hello)
    }

    /// Blocks until the server closes `stream`, which must happen without
    /// another byte and within the client's patience.
    fn assert_closed_silently(mut stream: TcpStream, who: &str) {
        let mut rest = Vec::new();
        match stream.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "{who}: closed, but after {} bytes", rest.len()),
            Err(e) => panic!("{who}: the server never closed the connection: {e}"),
        }
    }

    /// Reads the hello, then sends a length prefix and half a `Join` body
    /// and goes silent.
    fn slow_loris(addr: std::net::SocketAddr) -> TcpStream {
        let (mut stream, _) = dial_for_hello(addr);
        let join = Frame::Join { client_tag: 1, solution: 2 }.encode();
        stream.write_all(&join[..4 + (join.len() - 4) / 2]).expect("send half a join");
        stream
    }

    #[test]
    fn panicking_inline_handler_does_not_kill_the_acceptor() {
        let gate = Arc::new(FlakyGate {
            inner: ShardedGate::new(small_cfg(), 1),
            calls: AtomicUsize::new(0),
            panic_on: 0,
        });
        let Some(addr) = serve_on_loopback(gate, 1) else { return };
        // Connection A's handler panics in `connect`, before any byte.
        assert_closed_silently(dial(addr), "the panicked connection");
        // The only slot was A's. B is dialled after A's socket closed, so
        // it gets a hello only if the unwind freed the slot first — and
        // only if the acceptor is still there to hand it out.
        dial_for_hello(addr);
    }

    #[test]
    fn idle_sockets_holding_every_slot_are_shed_at_the_deadline() {
        let gate = Arc::new(ShardedGate::new(small_cfg(), 1));
        let Some(addr) = serve_on_loopback(Arc::clone(&gate), 2) else { return };
        let holders = [dial_for_hello(addr).0, dial_for_hello(addr).0];
        // Every slot is taken by a peer that says nothing. The next
        // connection is refused at once — closed without a hello — rather
        // than served on the accept thread, which would then be stuck
        // behind it.
        assert_closed_silently(dial(addr), "the connection over the cap");
        // The holders are closed at their deadline, and a slot is free by
        // the time a socket closes, so the next peer is served.
        for holder in holders {
            assert_closed_silently(holder, "an idle holder");
        }
        dial_for_hello(addr);
        assert_eq!(gate.counters(), crate::service::GateCounters::default());
    }

    #[test]
    fn half_a_frame_then_silence_is_closed_at_the_deadline_and_leaves_nothing() {
        let gate = Arc::new(ShardedGate::new(small_cfg(), 1));
        let Some(addr) = serve_on_loopback(Arc::clone(&gate), 2) else { return };
        assert_eq!(gate.open_connections(), 0);
        let stream = slow_loris(addr);
        let (log, counters) = (gate.decision_log(), gate.counters());
        assert_eq!(gate.open_connections(), 1, "the hello's challenge state is live");
        assert_closed_silently(stream, "the slow loris");
        assert_eq!(gate.open_connections(), 0, "expiry frees the connection state");
        assert_eq!(gate.decision_log(), log, "expiry is not a decision: nothing is logged");
        assert_eq!(gate.counters(), counters);
    }

    #[test]
    fn admission_succeeds_after_misbehaving_peers_held_every_slot() {
        let gate = Arc::new(ShardedGate::new(small_cfg(), 1));
        let Some(addr) = serve_on_loopback(Arc::clone(&gate), 2) else { return };
        // Both slots held, one by an idle peer and one mid-frame, and one
        // more silent peer over the cap.
        let holders = [dial_for_hello(addr).0, slow_loris(addr)];
        let _over_the_cap = dial(addr);
        for holder in holders {
            assert_closed_silently(holder, "a misbehaving holder");
        }
        let (mut stream, hello) = dial_for_hello(addr);
        let request = |frame: &Frame| {
            stream.write_all(&frame.encode()).expect("send a frame");
            read_frame(&mut stream).expect("read the reply")
        };
        assert!(admit_via(&hello, request, 7).is_some(), "the admission must complete");
        let c = gate.counters();
        assert_eq!((c.granted, c.admitted), (1, 1));
    }

    /// A gate that notes which thread ran each `connect` — the pool's
    /// workers, as far as a test can see them — and panics in the first
    /// `panics` of them.
    struct Watched {
        inner: ShardedGate,
        served_by: Mutex<Vec<ThreadId>>,
        panics: usize,
    }

    impl Watched {
        fn new(panics: usize) -> Arc<Self> {
            let inner = ShardedGate::new(small_cfg(), 1);
            Arc::new(Watched { inner, served_by: Mutex::default(), panics })
        }

        /// The serving thread of every `connect` so far, in order.
        fn served_by(&self) -> Vec<ThreadId> {
            self.served_by.lock().expect("nothing panics under this lock").clone()
        }

        fn distinct_workers(&self) -> usize {
            self.served_by().into_iter().collect::<HashSet<_>>().len()
        }
    }

    impl SharedGate for Watched {
        fn connect(&self, now: Time) -> (u64, Frame) {
            let nth = {
                let mut served_by = self.served_by.lock().expect("nothing panics under this lock");
                served_by.push(std::thread::current().id());
                served_by.len()
            };
            if nth <= self.panics {
                panic!("deliberate test panic in a connection handler");
            }
            self.inner.connect(now)
        }
        fn handle(&self, conn: u64, frame: &Frame, now: Time) -> Response {
            self.inner.handle(conn, frame, now)
        }
        fn disconnect(&self, conn: u64) {
            self.inner.disconnect(conn)
        }
    }

    /// Ends a well-behaved connection: hangs up and waits for the server
    /// to close its end, which a worker does last, after it is back in the
    /// pool.
    fn hang_up(stream: TcpStream) {
        stream.shutdown(Shutdown::Write).expect("hang up");
        assert_closed_silently(stream, "a connection that hung up");
    }

    #[test]
    fn sequential_connections_reuse_one_worker() {
        let gate = Watched::new(0);
        let Some(addr) = serve_on_loopback(Arc::clone(&gate), 4) else { return };
        assert_eq!(gate.distinct_workers(), 0, "no thread before a connection needs one");
        for _ in 0..200 {
            hang_up(dial_for_hello(addr).0);
        }
        assert_eq!(gate.served_by().len(), 200);
        // Each dial found the one worker idle again: it frees itself before
        // its socket closes. A thread per connection would read 200.
        assert_eq!(gate.distinct_workers(), 1);
    }

    #[test]
    fn workers_start_on_demand_and_never_exceed_the_cap() {
        let gate = Watched::new(0);
        let Some(addr) = serve_on_loopback(Arc::clone(&gate), 3) else { return };
        let first = dial_for_hello(addr).0;
        assert_eq!(gate.distinct_workers(), 1, "one connection, one worker");
        let holders = [first, dial_for_hello(addr).0, dial_for_hello(addr).0];
        assert_eq!(gate.distinct_workers(), 3, "three at once need three");
        assert_closed_silently(dial(addr), "the connection over the cap");
        holders.into_iter().for_each(hang_up);
        for _ in 0..50 {
            hang_up(dial_for_hello(addr).0);
        }
        assert_eq!(gate.served_by().len(), 53, "the refused connection reached no handler");
        assert_eq!(gate.distinct_workers(), 3, "no thread beyond the three that were needed");
    }

    #[test]
    fn serve_returns_only_after_every_worker_has_exited() {
        let gate = Watched::new(0);
        let Some((listener, addr)) = bind_loopback() else { return };
        let stop = listener.try_clone().expect("a listener handle can be duplicated");
        let serving = spawn_serve(listener, Arc::clone(&gate), 4);
        // Two idle workers and one in mid-connection when the listener fails.
        let holders = [dial_for_hello(addr).0, dial_for_hello(addr).0];
        let busy = dial_for_hello(addr).0;
        holders.into_iter().for_each(hang_up);
        assert_eq!(gate.distinct_workers(), 3);
        // What `benchmark/`'s teardown does: the next accept fails with
        // `WouldBlock`, and one last connection wakes the blocked one.
        stop.set_nonblocking(true).expect("make the listening socket non-blocking");
        drop(TcpStream::connect(addr));
        hang_up(busy); // `serve` waits for this connection's worker.
        let result = serving.join().expect("serve does not panic");
        assert_eq!(result.expect_err("serve ends on an error").kind(), ErrorKind::WouldBlock);
        assert_eq!(Arc::strong_count(&gate), 1, "a worker outlived its serve");
    }

    #[test]
    fn panicking_handlers_do_not_shrink_the_pool() {
        let gate = Watched::new(3);
        let Some(addr) = serve_on_loopback(Arc::clone(&gate), 1) else { return };
        // Three times over, the only worker the cap allows dies in
        // `connect`. Each unwind must count it out before its socket
        // closes, or the next dial is refused for good.
        for _ in 0..3 {
            assert_closed_silently(dial(addr), "a panicked connection");
        }
        dial_for_hello(addr);
        assert_eq!(gate.distinct_workers(), 4, "a panic costs its own thread, and only that");
    }

    #[test]
    fn fin_mid_frame_is_closed_at_once_and_the_worker_serves_on() {
        let gate = Watched::new(0);
        let Some(addr) = serve_on_loopback(Arc::clone(&gate), 2) else { return };
        let stream = slow_loris(addr);
        let (log, counters) = (gate.inner.decision_log(), gate.inner.counters());
        assert_eq!(gate.inner.open_connections(), 1);
        let hung_up = Instant::now();
        hang_up(stream);
        assert!(hung_up.elapsed() < TEST_DEADLINE / 2, "closed at the deadline, not at the FIN");
        assert_eq!(gate.inner.open_connections(), 0, "EOF inside a frame frees the state");
        assert_eq!(gate.inner.decision_log(), log, "a truncated frame is not a decision");
        assert_eq!(gate.inner.counters(), counters);
        dial_for_hello(addr);
        let served_by = gate.served_by();
        assert_eq!(served_by[0], served_by[1], "the same worker serves the next connection");
    }

    #[test]
    fn reset_instead_of_fin_frees_the_state_and_the_worker_serves_on() {
        let gate = Watched::new(0);
        let Some(addr) = serve_on_loopback(Arc::clone(&gate), 1) else { return };
        let stream = dial(addr);
        stream.peek(&mut [0u8; 1]).expect("the hello has arrived");
        let log = gate.inner.decision_log();
        // Closing with the hello unread makes Linux answer with a reset,
        // which fails the handler's blocked read instead of ending it.
        drop(stream);
        // A reset socket cannot show the client when its handler is done.
        // Until then the one slot is taken and a dial is refused.
        let patience = Instant::now();
        let mut next = dial(addr);
        while read_frame(&mut next).expect("a hello or a refusal").is_none() {
            assert!(patience.elapsed() < CLIENT_PATIENCE, "the reset connection held its slot");
            next = dial(addr);
        }
        assert_eq!(gate.inner.open_connections(), 1, "only the open connection keeps state");
        let logged = gate.inner.decision_log();
        assert!(logged.starts_with(&log) && logged.len() == 2 * log.len(), "one more hello");
        assert_eq!(gate.inner.counters(), crate::service::GateCounters::default());
        let served_by = gate.served_by();
        assert_eq!(served_by.len(), 2, "a refused dial reaches no handler");
        assert_eq!(served_by[0], served_by[1], "the worker outlived the failed read");
    }
}
