//! The network side shared by the wire workloads: the `f32`-LE tensor
//! payload codec, the byte-level batch function that wraps a packed model,
//! the closed-loop load generator, and the window accounting read from the
//! server's own counters and histograms.

use crate::host;
use crate::report::Report;
use dnn::graph::{Model, QuantScheme};
use dnn::Tensor;
use serve::net::{NetClient, NetConfig, NetServer, NetStatsSnapshot, Status};
use serve::pool::{Pool, PoolStats};
use serve::server::{BatchPolicy, ScenarioSpec, Server};
use serve::trace;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Encodes a tensor as a request/response payload: rank (`u8`), each
/// dimension (`u32` LE), then the elements (`f32` LE).
pub fn encode_tensor(t: &Tensor) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 4 * t.shape().len() + 4 * t.len());
    out.push(u8::try_from(t.shape().len()).expect("tensor rank fits in a byte"));
    for &d in t.shape() {
        out.extend_from_slice(&u32::try_from(d).expect("dimension fits u32").to_le_bytes());
    }
    for &v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a payload written by [`encode_tensor`], accepting it only if its
/// shape is exactly `shape` and its length matches.
pub fn decode_tensor(bytes: &[u8], shape: &[usize]) -> Option<Tensor> {
    let (&rank, rest) = bytes.split_first()?;
    if usize::from(rank) != shape.len() || rest.len() < 4 * shape.len() {
        return None;
    }
    let (dims, data) = rest.split_at(4 * shape.len());
    for (c, &want) in dims.chunks_exact(4).zip(shape) {
        let d = u32::from_le_bytes(c.try_into().ok()?);
        if usize::try_from(d).ok()? != want {
            return None;
        }
    }
    if data.len() != 4 * shape.iter().product::<usize>() {
        return None;
    }
    let values = data
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Some(Tensor::from_vec(shape, values))
}

/// The batch function of a byte-payload registration serving a packed
/// model: decode every payload, run the whole micro-batch through
/// `forward_batch_quant`, encode each output. A payload that does not
/// decode to the model's input shape gets an empty response, which the
/// load generator counts as a failed op.
pub fn packed_batch_fn(
    model: Arc<Model>,
    scheme: Arc<QuantScheme>,
) -> impl Fn(&[Vec<u8>]) -> Vec<Vec<u8>> + Send + Sync + 'static {
    move |batch: &[Vec<u8>]| {
        let mut out = vec![Vec::new(); batch.len()];
        let (idx, xs): (Vec<usize>, Vec<Tensor>) = batch
            .iter()
            .enumerate()
            .filter_map(|(i, b)| decode_tensor(b, model.input_shape()).map(|t| (i, t)))
            .unzip();
        for (i, y) in idx
            .into_iter()
            .zip(model.forward_batch_quant(&xs, Some(&scheme)))
        {
            out[i] = encode_tensor(&y);
        }
        out
    }
}

/// One registration the load generator sends to, with its request
/// payloads and the response each must produce.
pub struct Target {
    /// Registered model name.
    pub model: String,
    /// Registered scenario name.
    pub scenario: String,
    /// Request payloads, sent round-robin.
    pub payloads: Vec<Vec<u8>>,
    /// Expected response payload of each request payload.
    pub expected: Vec<Vec<u8>>,
}

impl Target {
    /// Flips one bit in each of the first `n` expected outputs, so the
    /// responses to those inputs must be counted as failed ops.
    pub fn corrupt(&mut self, n: usize) {
        for e in self.expected.iter_mut().take(n) {
            if let Some(b) = e.last_mut() {
                *b ^= 1;
            }
        }
    }
}

/// When a closed loop stops sending.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many requests (warm-up).
    Count(u64),
    /// After this much time (the timed window).
    Time(Duration),
}

/// Largest micro-batch every workload's scheduler forms, and the batch
/// size of the traced run's `_bmax` replays.
pub const MAX_BATCH: usize = 8;

/// Length of one time slice of the timed window, seconds.
pub const SLICE_S: f64 = 0.5;

/// Fewest consecutive completions a latency chunk holds, so its p99 has at
/// least ten samples beyond it.
const MIN_CHUNK: usize = 1000;

/// What one closed loop observed.
pub struct LoopStats {
    /// Requests sent.
    pub sent: u64,
    /// Responses with a non-Ok status or an unexpected payload.
    pub failed: u64,
    /// Responses received inside the window.
    pub in_window: u64,
    /// Client-observed latency of each response received inside the
    /// window, in completion order, seconds.
    pub latencies_s: Vec<f64>,
    /// Sum of every response's latency (window and drain), seconds.
    pub latency_sum_s: f64,
    /// Responses completed in each [`SLICE_S`] slice of the window.
    pub slice_done: Vec<u64>,
    /// Process CPU seconds spent in each slice.
    pub slice_cpu_s: Vec<f64>,
    /// Window length, seconds.
    pub window_s: f64,
}

/// End-to-end figures of a window, each taken from the calmer parts of it:
/// the host's speed drifts by a fifth over tens of seconds as other
/// tenants come and go, so each figure is the fast-tenth value over the
/// window's parts (the 90th percentile of slice throughput, the 10th of
/// per-slice CPU per op and of per-chunk latency percentiles). A change to
/// the code moves that value as it moves every other one.
pub struct Summary {
    /// Fast-tenth slice throughput, ops per second.
    pub throughput: f64,
    /// Fast-tenth chunk p50, ms.
    pub p50_ms: f64,
    /// Fast-tenth chunk p99, ms.
    pub p99_ms: f64,
    /// Fast-tenth process CPU per completed op, ms.
    pub cpu_ms_per_op: f64,
    /// Completions per latency chunk.
    pub chunk: usize,
    /// Latency chunks.
    pub chunks: usize,
    /// Throughput of each slice, ascending, ops per second.
    pub slice_rates: Vec<f64>,
}

/// The fast-tenth value of per-part figures: the 90th percentile where
/// higher is better, the 10th where lower is.
pub fn fast_tenth(xs: &mut [f64], higher_is_better: bool) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile(xs, if higher_is_better { 90.0 } else { 10.0 })
}

impl LoopStats {
    /// The window's [`Summary`].
    pub fn summary(&self) -> Summary {
        let mut rates: Vec<f64> = self
            .slice_done
            .iter()
            .map(|&n| n as f64 / SLICE_S)
            .collect();
        let mut cpu: Vec<f64> = self
            .slice_done
            .iter()
            .zip(&self.slice_cpu_s)
            .filter(|(&n, _)| n > 0)
            .map(|(&n, &c)| c * 1e3 / n as f64)
            .collect();
        let lat = &self.latencies_s;
        let chunk = MIN_CHUNK.max(lat.len() / 40).min(lat.len().max(1));
        let (mut p50, mut p99): (Vec<f64>, Vec<f64>) = lat
            .chunks_exact(chunk)
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_by(f64::total_cmp);
                (percentile(&c, 50.0) * 1e3, percentile(&c, 99.0) * 1e3)
            })
            .unzip();
        Summary {
            throughput: fast_tenth(&mut rates, true),
            slice_rates: rates,
            p50_ms: fast_tenth(&mut p50, false),
            p99_ms: fast_tenth(&mut p99, false),
            cpu_ms_per_op: fast_tenth(&mut cpu, false),
            chunk,
            chunks: p50.len(),
        }
    }
}

/// Drives a closed loop on one connection: keeps `window` requests in
/// flight, sends the next only when a response arrives, rotates requests
/// over `targets` and their payloads, and checks every response against its
/// expected payload. A timed loop runs a whole number of [`SLICE_S`]
/// slices. After the stop condition it drains what is still in flight
/// (checked, but outside the window).
///
/// # Errors
///
/// Socket failures, an unknown correlation id, or an unreadable `/proc`.
pub fn closed_loop(
    client: &mut NetClient,
    targets: &[Target],
    window: usize,
    stop: Stop,
    next: &mut u64,
) -> Result<LoopStats, String> {
    let io = |e: std::io::Error| format!("wire: {e}");
    let t_count = targets.len() as u64;
    let mut pending: HashMap<u64, (Instant, usize, usize)> = HashMap::with_capacity(2 * window);
    let mut issue = |client: &mut NetClient,
                     pending: &mut HashMap<u64, (Instant, usize, usize)>|
     -> Result<(), String> {
        let k = *next;
        *next += 1;
        let t = (k % t_count) as usize;
        let i = ((k / t_count) % targets[t].payloads.len() as u64) as usize;
        let sent_at = Instant::now();
        let corr = client
            .submit(
                &targets[t].model,
                &targets[t].scenario,
                &targets[t].payloads[i],
            )
            .map_err(io)?;
        pending.insert(corr, (sent_at, t, i));
        Ok(())
    };
    let (limit, slices) = match stop {
        Stop::Count(n) => (n, 0),
        Stop::Time(d) => (
            u64::MAX,
            (d.as_secs_f64() / SLICE_S).round().max(1.0) as usize,
        ),
    };
    let slice = Duration::from_secs_f64(SLICE_S);
    let start = Instant::now();
    let mut slice_end = start + slice;
    let mut cpu_mark = host::cpu_seconds()?;
    let mut done_in_slice = 0u64;
    let mut st = LoopStats {
        sent: 0,
        failed: 0,
        in_window: 0,
        latencies_s: Vec::new(),
        latency_sum_s: 0.0,
        slice_done: Vec::with_capacity(slices),
        slice_cpu_s: Vec::with_capacity(slices),
        window_s: 0.0,
    };
    while st.sent < limit.min(window as u64) {
        issue(client, &mut pending)?;
        st.sent += 1;
    }
    let mut window_open = true;
    while !pending.is_empty() {
        let resp = client.recv().map_err(io)?;
        let now = Instant::now();
        let (sent_at, t, i) = pending
            .remove(&resp.corr)
            .ok_or_else(|| format!("wire: response for unknown correlation id {}", resp.corr))?;
        if resp.status != Status::Ok || resp.payload != targets[t].expected[i] {
            st.failed += 1;
        }
        let latency = (now - sent_at).as_secs_f64();
        st.latency_sum_s += latency;
        while window_open && slices > 0 && now >= slice_end {
            let cpu = host::cpu_seconds()?;
            st.slice_done.push(std::mem::take(&mut done_in_slice));
            st.slice_cpu_s.push(cpu - cpu_mark);
            cpu_mark = cpu;
            slice_end += slice;
            window_open = st.slice_done.len() < slices;
        }
        if window_open {
            st.in_window += 1;
            done_in_slice += 1;
            st.latencies_s.push(latency);
            if st.sent < limit {
                issue(client, &mut pending)?;
                st.sent += 1;
            }
        }
    }
    st.window_s = if slices > 0 {
        slices as f64 * SLICE_S
    } else {
        start.elapsed().as_secs_f64()
    };
    Ok(st)
}

/// Median of `xs` (sorted in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Server-side totals summed over a set of registrations.
#[derive(Default, Clone, Copy)]
struct ServerTotals {
    count: u64,
    total_s: f64,
    queue_wait_s: f64,
    service_s: f64,
    delivery_s: f64,
    batches: u64,
    batch_items: f64,
    shed: u64,
    passed_over: u64,
}

impl ServerTotals {
    fn read(server: &Server<Vec<u8>, Vec<u8>>, keys: &[(String, String)]) -> ServerTotals {
        let mut t = ServerTotals::default();
        for (m, s) in keys {
            let st = server.stats(m, s).expect("registered key");
            let bs = server.batch_size_stats(m, s).expect("registered key");
            t.count += st.count;
            t.total_s += st.mean_s * st.count as f64;
            t.queue_wait_s += st.queue_wait.mean_s * st.queue_wait.count as f64;
            t.service_s += st.service.mean_s * st.service.count as f64;
            t.delivery_s += st.delivery.mean_s * st.delivery.count as f64;
            t.batches += bs.count;
            t.batch_items += bs.sum;
            t.shed += st.shed_total();
            t.passed_over += st.passed_over;
        }
        t
    }

    fn minus(self, b: ServerTotals) -> ServerTotals {
        ServerTotals {
            count: self.count - b.count,
            total_s: self.total_s - b.total_s,
            queue_wait_s: self.queue_wait_s - b.queue_wait_s,
            service_s: self.service_s - b.service_s,
            delivery_s: self.delivery_s - b.delivery_s,
            batches: self.batches - b.batches,
            batch_items: self.batch_items - b.batch_items,
            shed: self.shed - b.shed,
            passed_over: self.passed_over - b.passed_over,
        }
    }
}

/// Longest a partial batch waits for company.
const MAX_WAIT: Duration = Duration::from_millis(2);

/// Load configuration of a wire workload.
pub struct WireConfig {
    /// Requests the load generator keeps in flight.
    pub window: usize,
    /// Requests of the warm-up that precedes the window.
    pub warmup: u64,
}

/// A running server with its network edge and one connected client.
pub struct Wire {
    cfg: WireConfig,
    pool: Pool,
    server: Server<Vec<u8>, Vec<u8>>,
    net: NetServer,
    client: NetClient,
    keys: Vec<(String, String)>,
    next: u64,
}

impl Wire {
    /// Starts a pool, a server with `registrations`, its TCP edge on an
    /// ephemeral loopback port, and one client connection.
    ///
    /// # Errors
    ///
    /// Registration, bind or connect failures.
    pub fn start(
        cfg: WireConfig,
        registrations: Vec<(ScenarioSpec, BatchFn)>,
    ) -> Result<Wire, String> {
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
        let pool = Pool::new(threads);
        let server = Server::new(
            pool.clone(),
            BatchPolicy {
                max_batch: MAX_BATCH,
                max_wait: MAX_WAIT,
            },
        );
        let mut keys = Vec::new();
        for (spec, f) in registrations {
            keys.push((spec.model().to_string(), spec.scenario().to_string()));
            server.register(spec, f).map_err(|e| e.to_string())?;
        }
        let net = NetServer::bind(
            &server,
            NetConfig {
                addr: "127.0.0.1:0".to_string(),
                reactors: 1,
                per_conn_inflight: cfg.window,
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let client = NetClient::connect(net.local_addr()).map_err(|e| format!("connect: {e}"))?;
        println!(
            "  config: pool {} threads (available parallelism {threads}), max_batch {}, \
             max_wait {:?}, in-flight window {}, 1 connection, 1 reactor, warm-up {} requests, \
             closed loop from 1 load-generator thread",
            pool.threads(),
            MAX_BATCH,
            MAX_WAIT,
            cfg.window,
            cfg.warmup
        );
        Ok(Wire {
            cfg,
            pool,
            server,
            net,
            client,
            keys,
            next: 0,
        })
    }

    /// Runs the warm-up, counting its ops into `report`.
    ///
    /// # Errors
    ///
    /// As [`closed_loop`].
    pub fn warm_up(&mut self, targets: &[Target], report: &mut Report) -> Result<(), String> {
        let st = closed_loop(
            &mut self.client,
            targets,
            self.cfg.window,
            Stop::Count(self.cfg.warmup),
            &mut self.next,
        )?;
        report.count(st.sent, st.failed);
        Ok(())
    }

    /// Runs the timed window and records the end-to-end metrics and the
    /// `net.*`, `server.*` and `pool.*` layer metrics, with their checks.
    ///
    /// # Errors
    ///
    /// As [`closed_loop`].
    pub fn measure(
        &mut self,
        targets: &[Target],
        seconds: f64,
        report: &mut Report,
    ) -> Result<(), String> {
        if report.traced() {
            trace::clear();
            trace::set_enabled(true);
        }
        let net0 = self.net.stats();
        let srv0 = ServerTotals::read(&self.server, &self.keys);
        let pool0 = self.pool.stats();
        let st = closed_loop(
            &mut self.client,
            targets,
            self.cfg.window,
            Stop::Time(Duration::from_secs_f64(seconds)),
            &mut self.next,
        )?;
        let net1 = self.net.stats();
        let srv = ServerTotals::read(&self.server, &self.keys).minus(srv0);
        let pool1 = self.pool.stats();
        if report.traced() {
            trace::set_enabled(false);
            print_trace_counts();
        }
        report.count(st.sent, st.failed);

        let sum = st.summary();
        report.set("throughput_rps", sum.throughput);
        report.set("traced.throughput_rps", sum.throughput);
        report.set("latency_p50_ms", sum.p50_ms);
        report.set("latency_p99_ms", sum.p99_ms);
        report.set("cpu_ms_per_op", sum.cpu_ms_per_op);
        println!(
            "  window: {:.1} s in {} slices of {SLICE_S} s, {} responses inside it, {} sent in \
             total; throughput and CPU per op are fast-tenth values over the slices, latency \
             percentiles fast-tenth values over {} chunks of {} consecutive responses",
            st.window_s,
            st.slice_done.len(),
            st.in_window,
            st.sent,
            sum.chunks,
            sum.chunk
        );

        let rates = &sum.slice_rates;
        println!(
            "  slice throughput (1/s): min {:.0}, p10 {:.0}, p50 {:.0}, p90 {:.0}, max {:.0}",
            percentile(rates, 0.0),
            percentile(rates, 10.0),
            percentile(rates, 50.0),
            percentile(rates, 90.0),
            percentile(rates, 100.0)
        );
        self.net_metrics(net0, net1, &st, report);
        self.server_metrics(srv, &st, report);
        pool_metrics(&pool0, &pool1, report);
        Ok(())
    }

    fn net_metrics(
        &self,
        net0: NetStatsSnapshot,
        net1: NetStatsSnapshot,
        st: &LoopStats,
        report: &mut Report,
    ) {
        let frames_in = net1.frames_in - net0.frames_in;
        let frames_out = net1.frames_out - net0.frames_out;
        report.set("net.frames_in", frames_in as f64);
        report.set("net.frames_out", frames_out as f64);
        report.set(
            "net.bytes_per_req",
            (net1.bytes_in - net0.bytes_in + net1.bytes_out - net0.bytes_out) as f64
                / frames_in.max(1) as f64,
        );
        report.set(
            "net.inflight_rejections",
            (net1.inflight_rejections - net0.inflight_rejections) as f64,
        );
        report.check(
            format!("net.frames_in ({frames_in}) == net.frames_out ({frames_out}) == attempted in window ({})", st.sent),
            frames_in == st.sent && frames_out == st.sent,
        );
        report.check(
            format!("net protocol_errors == 0 (got {})", net1.protocol_errors),
            net1.protocol_errors == 0,
        );
        let total = self.net.stats();
        report.check(
            format!(
                "net frames over the whole run == ops attempted ({} in, {} out, {} attempted)",
                total.frames_in, total.frames_out, report.attempted
            ),
            total.frames_in == report.attempted && total.frames_out == report.attempted,
        );
    }

    fn server_metrics(&self, srv: ServerTotals, st: &LoopStats, report: &mut Report) {
        let merged = self
            .server
            .stats_by_class()
            .into_iter()
            .next()
            .map(|(_, s)| s)
            .expect("at least one registration");
        report.set("server.queue_wait_ms_p50", merged.queue_wait.p50_s * 1e3);
        report.set("server.queue_wait_ms_p99", merged.queue_wait.p99_s * 1e3);
        report.set("server.service_ms_p50", merged.service.p50_s * 1e3);
        report.set("server.delivery_ms_p50", merged.delivery.p50_s * 1e3);
        let batch_mean = srv.batch_items / srv.batches.max(1) as f64;
        report.set("server.batch_mean", batch_mean);
        report.set("server.batch_fill", batch_mean / MAX_BATCH as f64);
        report.set("server.shed_total", srv.shed as f64);
        report.set("server.passed_over", srv.passed_over as f64);

        // Means are additive: client mean = queue wait + service + delivery
        // (server side) + the edge share.
        let n = srv.count.max(1) as f64;
        let client_mean_ms = st.latency_sum_s * 1e3 / st.sent.max(1) as f64;
        let server_mean_ms = srv.total_s * 1e3 / n;
        let edge_ms = client_mean_ms - server_mean_ms;
        report.set("net.edge_ms_mean", edge_ms);
        let stages_ms = (srv.queue_wait_s + srv.service_s + srv.delivery_s) * 1e3 / n;
        println!(
            "  client mean {client_mean_ms:.4} ms = queue wait {:.4} + service {:.4} + delivery \
             {:.4} + edge {edge_ms:.4} (stage means over {} requests; quantiles are since \
             registration, warm-up included)",
            srv.queue_wait_s * 1e3 / n,
            srv.service_s * 1e3 / n,
            srv.delivery_s * 1e3 / n,
            srv.count
        );
        report.check(
            format!(
                "server completions in window ({}) == attempted in window ({})",
                srv.count, st.sent
            ),
            srv.count == st.sent,
        );
        let tolerance = client_mean_ms * serve::Histogram::RELATIVE_ERROR;
        report.check(
            "layer sum: server stage means + net.edge_ms_mean == client mean latency (within 1/32)",
            (stages_ms + edge_ms - client_mean_ms).abs() <= tolerance,
        );
    }

    /// Closes the client, the edge and the server, joining their threads.
    pub fn shutdown(self) {
        drop(self.client);
        self.net.shutdown();
        self.server.shutdown();
    }
}

/// A registration's batch function.
pub type BatchFn = Box<dyn Fn(&[Vec<u8>]) -> Vec<Vec<u8>> + Send + Sync + 'static>;

/// Records the `pool.*` metrics from two snapshots of the pool counters.
pub fn pool_metrics(before: &PoolStats, after: &PoolStats, report: &mut Report) {
    let executed = after.total_executed() - before.total_executed();
    let stolen = after.total_stolen() - before.total_stolen();
    let failures = after.total_steal_failures() - before.total_steal_failures();
    let parks = after.total_parks() - before.total_parks();
    report.set("pool.executed", executed as f64);
    report.set(
        "pool.steal_success",
        stolen as f64 / (stolen + failures).max(1) as f64,
    );
    report.set("pool.parks_per_task", parks as f64 / executed.max(1) as f64);
}

/// Prints how many `serve::trace` events the traced window recorded, by
/// kind (from the retained ring contents) and in total.
pub fn print_trace_counts() {
    let mut by_kind: std::collections::BTreeMap<&str, u64> = Default::default();
    let mut retained = 0u64;
    for t in trace::snapshot() {
        retained += t.events.len() as u64;
        for e in &t.events {
            *by_kind.entry(e.event.name()).or_default() += 1;
        }
    }
    let recorded = trace::stats().recorded;
    let kinds: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect();
    println!(
        "  serve::trace: {recorded} events recorded, {retained} retained in the rings ({})",
        kinds.join(", ")
    );
}
