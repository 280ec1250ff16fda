//! The dynamic micro-batching scheduler — one instance per shard.
//!
//! Requests enter a bounded queue; the shard's batch worker thread
//! groups same-entry, same-payload-kind neighbours into batches and runs
//! them through the engine. A batch dispatches as soon as either
//!
//! - it is **full** — `batch_size` compatible requests are queued, or
//! - it is **stale** — `max_wait` has elapsed since its oldest request
//!   arrived (so a lone request never waits longer than the deadline).
//!
//! Admission control is strict: a request arriving while the queue holds
//! `queue_cap` entries is shed immediately ([`SubmitError::Overloaded`])
//! rather than buffered — the caller turns that into an explicit
//! `overloaded` reply, keeping tail latency bounded under overload.
//!
//! Every queued request carries the `Arc<ModelEntry>` it resolved at
//! admission, so a registry hot-swap mid-queue is harmless: the request
//! executes on the version it was admitted against. Batches group by
//! **entry identity** (the `Arc` pointer), not by name — requests
//! straddling a version flip land in separate batches and never mix
//! versions.
//!
//! Replies leave through a `ReplySink`: an `mpsc` channel for direct
//! embedders and tests, or a connection's sequenced output buffer for
//! the sharded server (the worker encodes the wire frame itself, off
//! the event loop).
//!
//! Shutdown is graceful: [`Batcher::begin_drain`] stops admissions, the
//! worker drains every queued request (still batched, no deadline
//! waits), and [`Batcher::shutdown`] joins it — zero queued requests are
//! dropped.

use std::collections::VecDeque;
use std::mem::{self, Discriminant};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use telemetry::flight::{
    FlightRecord, STAMP_BATCH, STAMP_ENQUEUE, STAMP_FLUSH, STAMP_INFER_END, STAMP_INFER_START,
};

use crate::config::ServeConfig;
use crate::conn::ConnShared;
use crate::metrics;
use crate::protocol::{self, Payload, Response};
use crate::quota::QuotaGuard;
use crate::registry::ModelEntry;

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; the request was shed.
    Overloaded,
    /// The batcher is draining and admits nothing new.
    ShuttingDown,
}

/// Where a completed request's output goes.
pub(crate) enum ReplySink {
    /// Hand the raw payload to a waiting thread (tests, embedders).
    Channel(mpsc::Sender<Payload>),
    /// Encode the wire response and deposit it in the connection's
    /// sequenced output buffer.
    Conn {
        /// The connection's shared output half.
        conn: Arc<ConnShared>,
        /// The response slot allocated at parse time.
        seq: u64,
        /// Encode as a JSON line instead of a binary frame.
        json: bool,
    },
}

impl ReplySink {
    /// Delivers a successful output through the sink, carrying the
    /// request's flight record along. A connection sink finalizes the
    /// trace when the bytes actually flush; a channel sink has no socket,
    /// so the trace completes (and feeds the stage histograms) at send.
    fn deliver(self, output: Payload, trace: Option<FlightRecord>) {
        match self {
            ReplySink::Channel(tx) => {
                if let Some(mut rec) = trace {
                    rec.stamps_ns[STAMP_FLUSH] = telemetry::flight::now_ns();
                    metrics::record_stages(&rec);
                }
                // A receiver dropped mid-flight (client hung up) is fine.
                let _ = tx.send(output);
            }
            ReplySink::Conn { conn, seq, json } => {
                let resp = Response::Output(output);
                conn.push_reply(seq, encode_for_wire(&resp, json), trace);
            }
        }
    }
}

/// Encodes a response as its on-the-wire bytes: a length-prefixed binary
/// frame, or a newline-terminated JSON line.
pub(crate) fn encode_for_wire(resp: &Response, json: bool) -> Vec<u8> {
    if json {
        let mut line = protocol::render_json_response(resp).into_bytes();
        line.push(b'\n');
        line
    } else {
        let body = protocol::encode_response(resp);
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(
            &u32::try_from(body.len())
                .expect("frame fits u32")
                .to_le_bytes(),
        );
        frame.extend_from_slice(&body);
        frame
    }
}

/// A queued request.
pub(crate) struct Pending {
    pub(crate) entry: Arc<ModelEntry>,
    /// The sample; its variant selects the engine path.
    pub(crate) input: Payload,
    pub(crate) sink: ReplySink,
    /// Held until the reply is delivered; releases the tenant's slot.
    pub(crate) quota: Option<QuotaGuard>,
    pub(crate) enqueued: Instant,
    /// Lifecycle trace, stamped as the request moves through the
    /// scheduler. `None` when telemetry is off or the caller untraced.
    pub(crate) trace: Option<FlightRecord>,
}

/// Batch compatibility key: the *entry identity* (pointer) and payload
/// kind, so a batch never mixes the float and fixed-point paths.
fn key(p: &Pending) -> (usize, Discriminant<Payload>) {
    (Arc::as_ptr(&p.entry) as usize, mem::discriminant(&p.input))
}

/// Publish the queue-depth gauges once per this many admissions. The
/// local high-water mark is still tracked on **every** admission (under
/// the already-held queue lock), so the published peak never misses the
/// true maximum — it just reaches the registry a little later.
const GAUGE_SAMPLE: u64 = 16;

struct State {
    queue: VecDeque<Pending>,
    shutting_down: bool,
    /// Admissions since start; drives gauge sampling.
    admitted: u64,
    /// High-water mark of the queue, tracked locally per admission and
    /// published to [`metrics::QUEUE_PEAK`] every [`GAUGE_SAMPLE`]
    /// admissions and at every dispatch.
    peak: usize,
}

struct Shared {
    cfg: ServeConfig,
    state: Mutex<State>,
    cv: Condvar,
    /// Batch ids handed out at formation time, tagged into traces.
    batch_seq: AtomicU32,
}

/// Handle to one shard's scheduler: submit requests, then drain and join.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Spawns the batch worker. Models arrive per request as resolved
    /// [`ModelEntry`] references, so the batcher itself holds no
    /// registry state.
    pub fn start(cfg: ServeConfig) -> Batcher {
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutting_down: false,
                admitted: 0,
                peak: 0,
            }),
            cv: Condvar::new(),
            batch_seq: AtomicU32::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("serve-batcher".into())
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawn batch worker");
        Batcher {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Submits one request with a channel reply. On admission, the reply
    /// (the model output, same payload variant as the input) arrives on
    /// the returned receiver; a receiver whose sender was dropped means
    /// the batcher shut down before executing the request.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after draining began.
    pub fn submit(
        &self,
        entry: Arc<ModelEntry>,
        input: Payload,
    ) -> Result<mpsc::Receiver<Payload>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        self.submit_sink(entry, input, ReplySink::Channel(tx), None, None)?;
        Ok(rx)
    }

    /// Submits one request with an arbitrary sink (the sharded server's
    /// entry point). A traced request gets its `enqueue` stamp here.
    pub(crate) fn submit_sink(
        &self,
        entry: Arc<ModelEntry>,
        input: Payload,
        sink: ReplySink,
        quota: Option<QuotaGuard>,
        mut trace: Option<FlightRecord>,
    ) -> Result<(), SubmitError> {
        let mut st = self.shared.state.lock().expect("batcher lock");
        if st.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if st.queue.len() >= self.shared.cfg.queue_cap {
            metrics::SHED.add(1);
            return Err(SubmitError::Overloaded);
        }
        if let Some(rec) = trace.as_mut() {
            rec.stamps_ns[STAMP_ENQUEUE] = telemetry::flight::now_ns();
        }
        st.queue.push_back(Pending {
            entry,
            input,
            sink,
            quota,
            enqueued: Instant::now(),
            trace,
        });
        metrics::ACCEPTED.add(1);
        let depth = st.queue.len();
        st.peak = st.peak.max(depth);
        st.admitted += 1;
        // Keep the gauge updates off the per-enqueue hot path: publish
        // every GAUGE_SAMPLE admissions (the worker also publishes at
        // every dispatch, so the high-water mark always lands).
        if st.admitted.is_multiple_of(GAUGE_SAMPLE) {
            metrics::QUEUE_DEPTH.set(depth as f64);
            metrics::QUEUE_PEAK.set_max(st.peak as f64);
        }
        drop(st);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Current queue depth (for tests and load generators).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().expect("batcher lock").queue.len()
    }

    /// Stops admissions and tells the worker to drain without deadline
    /// waits. Non-blocking and idempotent; pair with
    /// [`Batcher::is_drained`] / [`Batcher::shutdown`].
    pub fn begin_drain(&self) {
        {
            let mut st = self.shared.state.lock().expect("batcher lock");
            st.shutting_down = true;
        }
        self.shared.cv.notify_all();
    }

    /// Whether the worker has finished draining and exited.
    pub fn is_drained(&self) -> bool {
        self.worker
            .lock()
            .expect("worker lock")
            .as_ref()
            .is_none_or(std::thread::JoinHandle::is_finished)
    }

    /// Stops admissions, drains every queued request through the engine,
    /// and joins the worker. Idempotent.
    pub fn shutdown(&self) {
        self.begin_drain();
        if let Some(handle) = self.worker.lock().expect("worker lock").take() {
            handle.join().expect("batch worker panicked");
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Takes up to `cap` requests compatible with the queue front's
/// (entry, payload kind) key, preserving arrival order and leaving
/// incompatible requests queued.
fn take_batch(queue: &mut VecDeque<Pending>, cap: usize) -> Vec<Pending> {
    let Some(front) = queue.front() else {
        return Vec::new();
    };
    let k = key(front);
    let mut batch = Vec::new();
    let mut i = 0;
    while i < queue.len() && batch.len() < cap {
        if key(&queue[i]) == k {
            batch.push(queue.remove(i).expect("index in bounds"));
        } else {
            i += 1;
        }
    }
    batch
}

/// Counts queued requests matching the queue front's (entry, payload kind)
/// key.
fn matching_front(queue: &VecDeque<Pending>) -> usize {
    match queue.front() {
        None => 0,
        Some(front) => {
            let k = key(front);
            queue.iter().filter(|p| key(p) == k).count()
        }
    }
}

fn worker_loop(shared: &Shared) {
    let cfg = shared.cfg;
    loop {
        let batch = {
            let mut st = shared.state.lock().expect("batcher lock");
            loop {
                if st.queue.is_empty() {
                    if st.shutting_down {
                        return;
                    }
                    st = shared.cv.wait(st).expect("batcher lock");
                    continue;
                }
                // Dispatch when full, stale, or draining.
                let full = matching_front(&st.queue) >= cfg.batch_size;
                let oldest = st.queue.front().expect("non-empty").enqueued;
                let age = oldest.elapsed();
                if full || st.shutting_down || age >= cfg.max_wait {
                    let mut batch = take_batch(&mut st.queue, cfg.batch_size);
                    metrics::QUEUE_DEPTH.set(st.queue.len() as f64);
                    metrics::QUEUE_PEAK.set_max(st.peak as f64);
                    if batch.iter().any(|p| p.trace.is_some()) {
                        let bid = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
                        let formed = telemetry::flight::now_ns();
                        for rec in batch.iter_mut().filter_map(|p| p.trace.as_mut()) {
                            rec.batch = bid;
                            rec.stamps_ns[STAMP_BATCH] = formed;
                        }
                    }
                    break batch;
                }
                // Sleep until the front request's deadline; a new arrival
                // (which may complete the batch) wakes us early.
                let remaining = cfg.max_wait - age;
                let (guard, _timeout) =
                    shared.cv.wait_timeout(st, remaining).expect("batcher lock");
                st = guard;
            }
        };
        execute(batch);
    }
}

/// Runs one batch through the engine and delivers the replies.
pub(crate) fn execute(mut batch: Vec<Pending>) {
    if batch.is_empty() {
        return;
    }
    metrics::BATCH_SIZE.record(batch.len() as u64);
    let entry = Arc::clone(&batch[0].entry);
    if batch.iter().any(|p| p.trace.is_some()) {
        let t = telemetry::flight::now_ns();
        for rec in batch.iter_mut().filter_map(|p| p.trace.as_mut()) {
            rec.stamps_ns[STAMP_INFER_START] = t;
        }
    }
    let start = Instant::now();
    // The batch key gives every member the front's payload kind.
    let outputs: Vec<Payload> = match batch[0].input {
        Payload::F32(_) => {
            let samples: Vec<Vec<f32>> = batch
                .iter()
                .map(|p| match &p.input {
                    Payload::F32(v) => v.clone(),
                    Payload::Fx(_) => unreachable!("batch mixes payload kinds"),
                })
                .collect();
            entry
                .forward_f32_batch(&samples)
                .into_iter()
                .map(Payload::F32)
                .collect()
        }
        Payload::Fx(_) => {
            // Flatten the payloads straight into the packed container —
            // no per-sample row clones; the i16 lanes ride the FxBatch
            // through every layer and only split back into rows for the
            // per-request replies.
            let fx = entry.fx().expect("fx mode unavailable");
            let (q, sample_len) = (fx.qformat(), fx.input_len());
            let mut flat = Vec::with_capacity(batch.len() * sample_len);
            for p in &batch {
                match &p.input {
                    Payload::Fx(v) => flat.extend_from_slice(v),
                    Payload::F32(_) => unreachable!("batch mixes payload kinds"),
                }
            }
            let packed = hwsim::FxBatch::from_flat(q, batch.len(), sample_len, flat);
            entry
                .forward_fx_batch_packed(packed)
                .into_rows()
                .into_iter()
                .map(Payload::Fx)
                .collect()
        }
    };
    let exec_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    metrics::BATCH_EXEC.record(exec_ns);
    if batch.iter().any(|p| p.trace.is_some()) {
        let t = telemetry::flight::now_ns();
        for rec in batch.iter_mut().filter_map(|p| p.trace.as_mut()) {
            rec.stamps_ns[STAMP_INFER_END] = t;
        }
    }
    for (pending, output) in batch.into_iter().zip(outputs) {
        let latency = pending.enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        metrics::LATENCY.record(latency);
        metrics::COMPLETED.add(1);
        pending.sink.deliver(output, pending.trace);
        // The quota guard drops here: the slot frees as the reply lands.
        drop(pending.quota);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Model, Registry};
    use nn::layers::{BcmConv2d, ReLU};
    use nn::{CheckpointMeta, Network};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn tiny_entry(seed: u64) -> (Arc<ModelEntry>, usize, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(
            "tiny",
            vec![
                Box::new(BcmConv2d::new(&mut rng, 4, 4, 3, 1, 1, 4)),
                Box::new(ReLU::new()),
            ],
        );
        let meta = CheckpointMeta {
            input_dims: vec![4, 4, 4],
            frac_bits: 8,
        };
        let reg = Registry::new();
        let entry = reg.publish(Model::from_network("tiny", net, meta));
        let input_len = entry.input_len();
        let output_len = entry.output_len();
        (entry, input_len, output_len)
    }

    #[test]
    fn requests_get_replies() {
        let (entry, input_len, output_len) = tiny_entry(1);
        let batcher = Batcher::start(ServeConfig::default());
        let rxs: Vec<_> = (0..5)
            .map(|i| {
                batcher
                    .submit(
                        Arc::clone(&entry),
                        Payload::F32(vec![i as f32 * 0.1; input_len]),
                    )
                    .unwrap()
            })
            .collect();
        for rx in rxs {
            let out = rx.recv().expect("reply");
            assert_eq!(out.len(), output_len);
        }
        batcher.shutdown();
    }

    #[test]
    fn overload_sheds_instead_of_buffering() {
        let (entry, input_len, _) = tiny_entry(2);
        let cfg = ServeConfig {
            batch_size: 4,
            max_wait: Duration::from_millis(50),
            queue_cap: 4,
            ..ServeConfig::default()
        };
        let batcher = Batcher::start(cfg);
        // Far more than queue_cap submissions in a tight loop: some must
        // shed (the worker can't drain 64 batches instantly).
        let mut shed = 0;
        let mut rxs = Vec::new();
        for _ in 0..64 {
            match batcher.submit(Arc::clone(&entry), Payload::F32(vec![0.5; input_len])) {
                Ok(rx) => rxs.push(rx),
                Err(SubmitError::Overloaded) => shed += 1,
                Err(SubmitError::ShuttingDown) => unreachable!(),
            }
        }
        assert!(shed > 0, "expected shedding under 16x overload");
        for rx in rxs {
            rx.recv().expect("admitted requests still complete");
        }
        batcher.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let (entry, input_len, _) = tiny_entry(3);
        let cfg = ServeConfig {
            batch_size: 4,
            // Long deadline: queued singles would otherwise linger.
            max_wait: Duration::from_secs(5),
            queue_cap: 64,
            ..ServeConfig::default()
        };
        let batcher = Batcher::start(cfg);
        let rxs: Vec<_> = (0..7)
            .map(|_| {
                batcher
                    .submit(Arc::clone(&entry), Payload::F32(vec![0.25; input_len]))
                    .unwrap()
            })
            .collect();
        batcher.shutdown();
        for rx in rxs {
            rx.recv().expect("shutdown drains in-flight requests");
        }
        assert!(matches!(
            batcher.submit(entry, Payload::F32(vec![0.0; input_len])),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn stale_singles_dispatch_at_the_deadline() {
        let (entry, input_len, _) = tiny_entry(4);
        let cfg = ServeConfig {
            batch_size: 64,
            max_wait: Duration::from_millis(5),
            queue_cap: 64,
            ..ServeConfig::default()
        };
        let batcher = Batcher::start(cfg);
        let rx = batcher
            .submit(entry, Payload::F32(vec![0.1; input_len]))
            .unwrap();
        // A single request must complete despite never filling the batch.
        let out = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("deadline dispatch");
        assert!(!out.is_empty());
        batcher.shutdown();
    }

    #[test]
    fn batches_never_mix_entry_versions() {
        // Two versions of the same name: jobs group by entry identity, and
        // within one entry by payload kind.
        let (v1, input_len, _) = tiny_entry(5);
        let (v2, _, _) = tiny_entry(6);
        let mut queue: VecDeque<Pending> = VecDeque::new();
        let f32_job = || Payload::F32(vec![0.0; input_len]);
        let fx_job = || Payload::Fx(vec![0; input_len]);
        for (entry, input) in [
            (&v1, f32_job()),
            (&v2, f32_job()),
            (&v1, fx_job()),
            (&v1, f32_job()),
            (&v2, f32_job()),
        ] {
            let (tx, _rx) = mpsc::channel();
            queue.push_back(Pending {
                entry: Arc::clone(entry),
                input,
                sink: ReplySink::Channel(tx),
                quota: None,
                enqueued: Instant::now(),
                trace: None,
            });
        }
        let batch = take_batch(&mut queue, 8);
        assert_eq!(batch.len(), 2, "only same-version, same-kind jobs batch");
        assert!(
            batch
                .iter()
                .all(|p| Arc::ptr_eq(&p.entry, &v1) && matches!(p.input, Payload::F32(_))),
            "front key wins"
        );
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn sampled_gauges_still_capture_the_queue_high_water_mark() {
        telemetry::set_enabled(true);
        let (entry, input_len, _) = tiny_entry(7);
        let cfg = ServeConfig {
            // The batch never fills and never goes stale, so the queue
            // holds every submission until drain dispatches them.
            batch_size: 64,
            max_wait: Duration::from_secs(30),
            queue_cap: 64,
            ..ServeConfig::default()
        };
        let batcher = Batcher::start(cfg);
        // Fewer submissions than GAUGE_SAMPLE: the per-enqueue sampled
        // publish never fires, so only the dispatch-time publish can
        // surface the peak — which must still be the true high water.
        let depth = 5;
        assert!((depth as u64) < GAUGE_SAMPLE);
        let rxs: Vec<_> = (0..depth)
            .map(|_| {
                batcher
                    .submit(Arc::clone(&entry), Payload::F32(vec![0.5; input_len]))
                    .unwrap()
            })
            .collect();
        assert_eq!(batcher.queue_depth(), depth);
        batcher.shutdown();
        for rx in rxs {
            rx.recv().expect("drain executes queued requests");
        }
        if telemetry::enabled() {
            assert!(
                metrics::QUEUE_PEAK.value() >= depth as f64,
                "dispatch-time publish must land the high-water mark \
                 even when the admission sampling never fired"
            );
        }
    }
}
