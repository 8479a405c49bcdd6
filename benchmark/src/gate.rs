//! `gate_admit` and `gate_flood`: the admission gate over real sockets,
//! served by `transport::serve` exactly as the `sybil-gate` binary does,
//! driven closed-loop by one client thread with one connection at a time.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use sybil_crypto::{Challenge, Sha256, Solution, Solver};
use sybil_gate::{
    memhard, read_frame, transport, Frame, GateConfig, GateCounters, MemHardParams, ShardedGate,
    SharedGate,
};

use crate::adapters::{TimedGate, GATE_OPS};
use crate::harness::{Ctx, Driver, Layers, PassOut, PassTrace};
use crate::probes::{self, mix};
use crate::stats;

/// Handler threads `serve` may run at once (the binary's default).
const MAX_CONNS: usize = 8;
/// `gate_flood` spreads its short connections over this many loopback
/// addresses (one listener each, one shared gate), so the ephemeral
/// 4-tuples of one destination are never exhausted by sockets in
/// TIME_WAIT.
const FLOOD_ADDRS: u8 = 8;
/// `gate_flood` quotes this difficulty: a garbage solution passes with
/// probability 2^-20, and the client skips the ones that would.
const FLOOD_DIFFICULTY: u64 = 1 << 20;

/// Running `transport::serve` threads and the means to end them.
struct Servers {
    listeners: Vec<(TcpListener, SocketAddr)>,
    threads: Vec<JoinHandle<()>>,
}

impl Servers {
    /// Binds `addrs` loopback listeners (`127.0.0.1`, `.2`, ...) and
    /// serves `gate` on each. Addresses past the first are optional: a
    /// sandbox that cannot bind them serves on fewer.
    fn spawn<G: SharedGate + 'static>(gate: &Arc<G>, addrs: u8) -> Servers {
        let mut servers = Servers { listeners: Vec::new(), threads: Vec::new() };
        for host in 1..=addrs {
            let listener = match TcpListener::bind((Ipv4Addr::new(127, 0, 0, host), 0)) {
                Ok(listener) => listener,
                Err(e) if host == 1 => panic!("cannot bind a loopback listener: {e}"),
                Err(_) => break,
            };
            let addr = listener.local_addr().expect("a bound listener has an address");
            let handle = listener.try_clone().expect("a listener handle can be duplicated");
            let gate = Arc::clone(gate);
            servers.threads.push(std::thread::spawn(move || {
                // Ends with the WouldBlock that `stop` provokes.
                let _ = transport::serve(listener, gate, MAX_CONNS);
            }));
            servers.listeners.push((handle, addr));
        }
        servers
    }

    /// Ends every serve loop and waits for its thread: `serve` returns on
    /// the first accept error, so the shared listening socket is made
    /// non-blocking and one last connection wakes the blocked accept.
    fn stop(self) {
        for (listener, addr) in &self.listeners {
            let _ = listener.set_nonblocking(true);
            let _ = TcpStream::connect(addr);
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Client-side sums of the traced passes.
#[derive(Default)]
struct ClientLayers {
    busy_ns: u64,
    pow_hashes: u64,
    mine_attempts: u64,
    wait_ns: u64,
    connections: u64,
    conn_setup_us: Vec<f64>,
    latencies_us: Vec<f64>,
}

/// Workloads 4 and 5.
pub struct GateDriver {
    flood: bool,
    gate: Option<Arc<ShardedGate>>,
    timed: Option<Arc<TimedGate>>,
    servers: Option<Servers>,
    addrs: Vec<SocketAddr>,
    /// Operations issued so far, over all passes: the client tag
    /// sequence, the address rotation and the bootstrap departures all
    /// derive from it.
    issued: u64,
    /// Admitted identities waiting out the departure lag.
    members: VecDeque<(u64, [u8; 32])>,
    succeeded: u64,
    /// Running mix of what the client sent (solutions, salts): the
    /// flood's decision log is all rejections, whatever the seed, so the
    /// fingerprint folds the inputs in as well.
    transcript: u64,
    /// Gate counters and handler totals when the first traced pass began.
    baseline: Option<(GateCounters, [(u64, u64); 4])>,
    client: ClientLayers,
}

/// A connection span and the pass it belongs to.
type ConnTrace<'a> = Option<(PassTrace<'a>, u32)>;

/// Runs `f` inside a child span of the connection, when traced.
fn spanned<T>(trace: ConnTrace<'_>, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    let span = trace.map(|(t, conn)| (t, t.tracer.open(name, Some(conn), op)));
    let out = f();
    if let Some((t, span)) = span {
        t.tracer.close(span);
    }
    out
}

fn unexpected(what: &str, got: Option<Frame>) -> io::Error {
    io::Error::other(format!("expected {what}, got {got:?}"))
}

impl GateDriver {
    /// `flood` selects `gate_flood`, else `gate_admit`. Pins the calling
    /// thread to one CPU (see [`crate::steady`]) so that the server
    /// threads every set-up starts inherit the mask.
    pub fn new(flood: bool) -> Self {
        crate::steady::pin_to_one_cpu();
        GateDriver {
            flood,
            gate: None,
            timed: None,
            servers: None,
            addrs: Vec::new(),
            issued: 0,
            members: VecDeque::new(),
            succeeded: 0,
            transcript: 0,
            baseline: None,
            client: ClientLayers::default(),
        }
    }

    fn gate(&self) -> &Arc<ShardedGate> {
        self.gate.as_ref().expect("set-up ran")
    }

    /// Connects to the next address of the rotation and reads the hello.
    /// Returns the stream, the hello and the µs from connect to hello.
    fn connect(&mut self, trace: ConnTrace<'_>) -> io::Result<(TcpStream, Frame, f64)> {
        let addr = self.addrs[(self.issued % self.addrs.len() as u64) as usize];
        spanned(trace, "hello", self.issued, || {
            let started = Instant::now();
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let hello = read_frame(&mut stream)?;
            let setup_us = started.elapsed().as_secs_f64() * 1e6;
            match hello {
                Some(hello @ Frame::Hello { .. }) => Ok((stream, hello, setup_us)),
                other => Err(unexpected("Hello", other)),
            }
        })
    }

    /// One request/reply exchange; returns the reply and the wait in µs.
    fn request(
        stream: &mut TcpStream,
        frame: &Frame,
        name: &'static str,
        op: u64,
        trace: ConnTrace<'_>,
    ) -> io::Result<(Option<Frame>, f64)> {
        spanned(trace, name, op, || {
            let started = Instant::now();
            stream.write_all(&frame.encode())?;
            let reply = read_frame(stream)?;
            Ok((reply, started.elapsed().as_secs_f64() * 1e6))
        })
    }

    /// One full two-phase admission on its own connection, then the
    /// departure of the identity admitted `depart_lag` operations ago
    /// (a bootstrap identity for the first `depart_lag`) on another.
    /// Returns the client's total wait on the server for the admission.
    fn admit(&mut self, ctx: &Ctx, trace: Option<PassTrace<'_>>) -> io::Result<f64> {
        let op = self.issued;
        let conn = trace.map(|t| (t, t.tracer.open("conn.admit", Some(t.span), op)));
        let (mut stream, hello, setup_us) = self.connect(conn)?;
        let Frame::Hello { difficulty, nonce, mine_bits, mem_blocks, mem_passes, .. } = hello
        else {
            unreachable!("connect returns hellos only")
        };
        let client_tag = mix(ctx.seed).wrapping_add(op);

        let busy = Instant::now();
        let mut solver = Solver::new();
        let challenge = Challenge::new(&nonce, &client_tag.to_be_bytes(), difficulty);
        let solution = solver.solve(&challenge).nonce;
        let mut busy_ns = busy.elapsed().as_nanos() as u64;
        let join = Frame::Join { client_tag, solution };
        let (reply, join_us) = Self::request(&mut stream, &join, "join", op, conn)?;
        let Some(Frame::Granted { identity, token }) = reply else {
            return Err(unexpected("Granted", reply));
        };

        let busy = Instant::now();
        let mem = MemHardParams { blocks: mem_blocks, passes: mem_passes };
        let mined = memhard::mine(&token, mine_bits, &mem);
        busy_ns += busy.elapsed().as_nanos() as u64;
        self.transcript = mix(self.transcript ^ solution ^ mined.salt.rotate_left(32));
        let submit = Frame::MineSubmit { identity, token, salt: mined.salt };
        let (reply, mine_us) = Self::request(&mut stream, &submit, "mine", op, conn)?;
        if reply != Some(Frame::Admitted { identity }) {
            return Err(unexpected("Admitted", reply));
        }
        drop(stream);
        if let Some((t, conn)) = conn {
            t.tracer.close(conn);
        }
        self.members.push_back((identity, token));

        let (leaver, leaver_token) = if op < ctx.sizes.depart_lag as u64 {
            let token = self.gate().bootstrap_token(op).expect("bootstrap identities have tokens");
            (op, *token.as_bytes())
        } else {
            self.members.pop_front().expect("an admission precedes every departure")
        };
        let conn = trace.map(|t| (t, t.tracer.open("conn.depart", Some(t.span), op)));
        let (mut stream, _, depart_setup_us) = self.connect(conn)?;
        let depart = Frame::Depart { identity: leaver, token: leaver_token };
        let (reply, depart_us) = Self::request(&mut stream, &depart, "depart", op, conn)?;
        if reply != Some(Frame::DepartAck { identity: leaver }) {
            return Err(unexpected("DepartAck", reply));
        }
        drop(stream);
        if let Some((t, conn)) = conn {
            t.tracer.close(conn);
        }

        let wait_us = setup_us + join_us + mine_us;
        if trace.is_some() {
            let c = &mut self.client;
            c.busy_ns += busy_ns;
            c.pow_hashes += solver.work();
            c.mine_attempts += mined.attempts;
            c.wait_ns += ((wait_us + depart_setup_us + depart_us) * 1e3) as u64;
            c.connections += 2;
            c.conn_setup_us.extend([setup_us, depart_setup_us]);
            c.latencies_us.push(wait_us);
        }
        Ok(wait_us)
    }

    /// One flood connection: a Join whose seeded solution is checked to
    /// be wrong, answered by silence. Returns µs from connect to EOF.
    fn flood(&mut self, ctx: &Ctx, trace: Option<PassTrace<'_>>) -> io::Result<f64> {
        let op = self.issued;
        let conn = trace.map(|t| (t, t.tracer.open("conn.flood", Some(t.span), op)));
        let started = Instant::now();
        let (mut stream, hello, setup_us) = self.connect(conn)?;
        let Frame::Hello { difficulty, nonce, .. } = hello else {
            unreachable!("connect returns hellos only")
        };
        let client_tag = mix(ctx.seed).wrapping_add(op);
        let challenge = Challenge::new(&nonce, &client_tag.to_be_bytes(), difficulty);
        let mut solution = mix(client_tag);
        while challenge.verify(&Solution { nonce: solution }) {
            solution = solution.wrapping_add(1);
        }
        self.transcript = mix(self.transcript ^ solution);
        let read = spanned(conn, "join", op, || {
            stream.write_all(&Frame::Join { client_tag, solution }.encode())?;
            stream.read(&mut [0u8; 1])
        })?;
        let total_us = started.elapsed().as_secs_f64() * 1e6;
        if let Some((t, conn)) = conn {
            t.tracer.close(conn);
        }
        if read != 0 {
            return Err(io::Error::other("the gate answered a bad solution"));
        }
        if trace.is_some() {
            let c = &mut self.client;
            c.wait_ns += (total_us * 1e3) as u64;
            c.connections += 1;
            c.conn_setup_us.push(setup_us);
            c.latencies_us.push(total_us);
        }
        Ok(total_us)
    }
}

impl Driver for GateDriver {
    fn identical_passes(&self) -> bool {
        false
    }

    /// Bootstraps a gate with the shipped defaults and a constant quote
    /// (`difficulty_cap = difficulty_floor`, as `gate_bench::parallel_cfg`
    /// does: `serve` feeds wall-clock time into the adaptive quote, which
    /// would make client work depend on how fast the run is), binds the
    /// listeners and starts serving.
    fn setup(&mut self, ctx: &Ctx) {
        let defaults = GateConfig::default();
        let floor = if self.flood { FLOOD_DIFFICULTY } else { defaults.difficulty_floor };
        let cfg = GateConfig {
            difficulty_floor: floor,
            difficulty_cap: floor,
            initial_size: ctx.sizes.gate_initial,
            seed: ctx.seed,
            ..defaults
        };
        let gate = Arc::new(ShardedGate::new(cfg, 1));
        let addrs = if self.flood { FLOOD_ADDRS } else { 1 };
        let servers = if ctx.traced_run {
            let timed = Arc::new(TimedGate::new(Arc::clone(&gate)));
            self.timed = Some(Arc::clone(&timed));
            Servers::spawn(&timed, addrs)
        } else {
            Servers::spawn(&gate, addrs)
        };
        self.addrs = servers.listeners.iter().map(|(_, addr)| *addr).collect();
        self.servers = Some(servers);
        self.gate = Some(gate);
        self.issued = 0;
        self.succeeded = 0;
        self.transcript = 0;
        self.members.clear();
    }

    fn teardown(&mut self) {
        if let Some(servers) = self.servers.take() {
            servers.stop();
        }
    }

    fn pass(&mut self, ctx: &Ctx, trace: Option<PassTrace<'_>>, out: &mut PassOut) {
        if let (Some(_), None, Some(timed)) = (trace, &self.baseline, &self.timed) {
            self.baseline = Some((self.gate().counters(), timed.totals()));
        }
        let handlers_before = self.timed.as_ref().map(|t| t.totals());
        let ops = if self.flood { ctx.sizes.floods } else { ctx.sizes.admits };
        out.latencies_us.reserve(ops);
        let started = Instant::now();
        for _ in 0..ops {
            out.attempted += 1;
            let result = if self.flood { self.flood(ctx, trace) } else { self.admit(ctx, trace) };
            self.issued += 1;
            match result {
                Ok(latency_us) => out.latencies_us.push(latency_us),
                Err(e) => {
                    if out.failed == 0 {
                        eprintln!("gate operation {} failed: {e}", self.issued - 1);
                    }
                    out.failed += 1;
                }
            }
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out.ops = out.attempted - out.failed;
        self.succeeded += out.ops;
        // Over the whole decision log so far, hashed in place (copying the
        // log out every pass would show up in `peak_rss_mb`), and over
        // what the client sent.
        let mut hasher = Sha256::new();
        hasher.update(self.gate().fingerprint().as_bytes());
        hasher.update(&self.transcript.to_le_bytes());
        out.fingerprint = Some(hasher.finalize());
        if let (Some(trace), Some(before), Some(timed)) = (trace, handlers_before, &self.timed) {
            for ((name, after), before) in GATE_OPS.iter().zip(timed.totals()).zip(before) {
                trace.tracer.aggregate(trace.span, name, after.0 - before.0, after.1 - before.1);
            }
        }
    }

    fn finish(&mut self, ctx: &Ctx, _ops_per_s: f64, layers: &mut Layers) -> bool {
        // Read before the teardown's wake-up connections reach the gate.
        let counters = self.gate().counters();
        let handlers = self.timed.as_ref().map(|t| t.totals());
        let invariants_hold = if self.flood {
            counters.granted == 0
                && counters.rejected_pow == self.issued
                && counters.mem_verifications == 0
        } else {
            counters.admitted == self.issued
                && counters.departed == self.issued
                && counters.rejected_pow == 0
        } && self.succeeded == self.issued
            && counters.dropped == 0;
        self.teardown();
        if let (true, Some(handlers), Some((base, handlers_base))) =
            (ctx.traced_run, handlers, self.baseline)
        {
            let mut handler_ns = 0u64;
            for (i, op) in GATE_OPS.iter().enumerate() {
                let delta =
                    (handlers[i].0 - handlers_base[i].0, handlers[i].1 - handlers_base[i].1);
                handler_ns += delta.1;
                layers.set_calls_busy(op, delta);
            }
            for (name, now, then) in [
                ("pow_verifications", counters.pow_verifications, base.pow_verifications),
                ("mem_verifications", counters.mem_verifications, base.mem_verifications),
                ("granted", counters.granted, base.granted),
                ("admitted", counters.admitted, base.admitted),
                ("rejected_pow", counters.rejected_pow, base.rejected_pow),
                ("departed", counters.departed, base.departed),
                ("dropped", counters.dropped, base.dropped),
            ] {
                layers.set(&format!("gate.counters.{name}"), (now - then) as f64);
            }
            let mem_verifications = counters.mem_verifications - base.mem_verifications;
            let verify_us = probes::memhard_verify_us(&self.gate().config().mem);
            layers.set("gate.memhard.verify_us", verify_us);
            layers.set(
                "gate.memhard.share",
                verify_us * 1e3 * mem_verifications as f64 / handler_ns.max(1) as f64,
            );
            let c = &mut self.client;
            layers.set("gate.transport.conn_setup_us", stats::median(&mut c.conn_setup_us));
            layers.set(
                "gate.transport.overhead_us",
                c.wait_ns.saturating_sub(handler_ns) as f64 / 1e3 / c.connections.max(1) as f64,
            );
            layers.set("gate.client.busy_s", c.busy_ns as f64 / 1e9);
            layers.set("gate.client.pow_hashes", c.pow_hashes as f64);
            layers.set("gate.client.mine_attempts", c.mine_attempts as f64);
            layers.set("gate.client.samples", c.latencies_us.len() as f64);
            c.latencies_us.sort_by(f64::total_cmp);
            layers.set("gate.client.p99_us", stats::quantile(&c.latencies_us, 0.99));
            layers.set("gate.client.p999_us", stats::quantile(&c.latencies_us, 0.999));
            let (sha, hmac, pow) = probes::crypto_ns();
            layers.set("crypto.sha256.ns_per_block", sha);
            layers.set("crypto.hmac.ns_per_tag", hmac);
            layers.set("crypto.pow.verify_ns", pow);
            let (encode, decode) = probes::wire_ns();
            layers.set("gate.wire.encode_ns", encode);
            layers.set("gate.wire.decode_ns", decode);
        }
        invariants_hold
    }
}
