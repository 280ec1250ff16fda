//! The traced run's per-layer numbers. Counts come from the server's
//! `stats` snapshot; times come from the benchmark's own timed calls into
//! each layer's public functions, on the workloads' own shapes and seeded
//! inputs, each timed batch of calls recorded as a span.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bench::experiments::serve::{demo_model, seq_demo_model};
use bench::json::{self, Json};
use circulant::BlockCirculant;
use fft::real::HalfSpectrum;
use hwsim::fxfft::FxFftPe;
use hwsim::inference::{conv_forward_fx_batch_packed, FxWeights};
use hwsim::{ComplexFx, FxBatch};
use nn::seq::SeqRunnerBatch;
use nn::Network;
use serve::protocol::{
    decode_request, encode_request, encode_response, Payload, Request, Response,
};
use serve::{Client, FxSeqRunnerBatch, Model, ModelEntry, Registry, Server};
use tensor::Tensor;

use crate::stats::{self, Summary};
use crate::workloads::{float_swap, fx_infer, prune_pipeline, serving, Ctx, Outcome};

/// Timed batches per metric; each metric is their median.
const REPS: usize = 41;

/// Demo-model batch width for the lane kernels (one 128-bit vector of
/// i16 lanes).
const LANES: usize = 8;

/// Collected per-layer values, in [`crate::metrics::PER_LAYER`] names.
pub type Values = Vec<(&'static str, f64)>;

/// Times `calls` back-to-back calls of `f`, [`REPS`] times after a
/// warm-up, recording each timed batch as a span named `name`; returns
/// ns per call.
fn time_calls(ctx: &mut Ctx, name: &'static str, calls: usize, mut f: impl FnMut()) -> Summary {
    for _ in 0..calls.min(8) {
        f();
    }
    let (parent, t_parent) = ctx.spans.open();
    let mut per_call = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        let t1 = Instant::now();
        ctx.spans.record(name, parent, t0, t1);
        per_call.push((t1 - t0).as_nanos() as f64 / calls as f64);
    }
    ctx.spans.close((parent, t_parent), name, ctx.root);
    let s = Summary::of(&per_call).expect("timed batches ran");
    ctx.note(format!("{name}: ns/call {s}"));
    s
}

/// Everything the replay needs from the `stats` snapshot.
struct Counts {
    batch_size_mean: f64,
    queue_wait_p99_us: f64,
    shed_frac: f64,
    gang_width_mean: f64,
    ganged_frac: f64,
    ping_rtt_us: f64,
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_num().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reads the workload server's `stats` snapshot over the wire and times
/// pings on it. A workload without a server gets a fresh empty one for
/// the pings and zero counts: its batcher and sessions were idle.
fn counts(ctx: &mut Ctx, outcome: &Outcome) -> Counts {
    let scratch;
    let server = match &outcome.live {
        Some(live) => &live.server,
        None => {
            scratch = Server::bind("127.0.0.1:0", serving::config(), Registry::new())
                .expect("bind ping server");
            &scratch
        }
    };
    let mut client = Client::connect(server.local_addr()).expect("connect stats client");
    let doc = json::parse(&client.stats().expect("stats opcode")).expect("stats JSON");
    let ping = time_calls(ctx, "serve.ping", 1, || client.ping().expect("ping"));

    let hist = |name: &str| {
        let h = doc
            .get("telemetry")
            .and_then(|t| t.get("histograms"))
            .and_then(|h| h.get(name));
        match h {
            Some(h) => (num(h, &["sum"]), num(h, &["count"])),
            None => (0.0, 0.0),
        }
    };
    let counter = |name: &str| num(&doc, &["telemetry", "counters", name]);
    let (bs_sum, bs_n) = hist("serve.batch.size");
    let (gw_sum, gw_n) = hist("serve.session.gang_width");
    // Nearest-rank p99 of the flight rings' batch_wait intervals: a shard
    // contributes only when at least ten samples lie beyond its p99.
    let queue_wait_p99_us = doc
        .get("shards")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|s| {
            let n = num(s, &["stages", "batch_wait_ns", "count"]) as usize;
            let rank = n.saturating_sub(1) * 99 / 100;
            (n > 0 && n - 1 - rank >= stats::MIN_BEYOND)
                .then(|| num(s, &["stages", "batch_wait_ns", "p99_ns"]) / 1e3)
        })
        .fold(0.0, f64::max);
    let shed = counter("serve.requests.shed");
    let accepted = counter("serve.requests.accepted");
    let c = Counts {
        batch_size_mean: ratio(bs_sum, bs_n),
        queue_wait_p99_us,
        shed_frac: ratio(shed, shed + accepted),
        gang_width_mean: ratio(gw_sum, gw_n),
        ganged_frac: ratio(
            num(&doc, &["sessions", "steps_ganged"]),
            num(&doc, &["sessions", "steps"]),
        ),
        ping_rtt_us: ping.median / 1e3,
    };
    drop(client);
    if outcome.live.is_none() {
        server.shutdown();
    }
    c
}

/// Per-layer lane kernels of the demo fx model, and their consistency
/// with the layer and model timings.
fn fx_layers(ctx: &mut Ctx, out: &mut Values) {
    let (net, meta) = demo_model(ctx.seed);
    let q = hwsim::QFormat::new(meta.frac_bits as u32);
    let model = Model::from_network(fx_infer::MODEL, net.clone(), meta);
    let entry = Registry::new().publish(model);
    let rows = fx_infer::inputs(ctx.seed, LANES);
    let b1 = FxBatch::from_rows(q, &rows[..1]);
    let b8 = FxBatch::from_rows(q, &rows);
    let t_b1 = time_calls(ctx, "serve.registry.fx_batch_b1", 8, || {
        black_box(entry.forward_fx_batch_packed(b1.clone()));
    });
    let t_b8 = time_calls(ctx, "serve.registry.fx_batch_b8", 4, || {
        black_box(entry.forward_fx_batch_packed(b8.clone()));
    });
    out.push(("serve.registry.fx_batch_b1_ns", t_b1.median));
    out.push(("serve.registry.fx_batch_b8_ns", t_b8.median));

    // Protocol: decode one fx infer request, encode its reply.
    let req = encode_request(&Request::Infer {
        model: fx_infer::MODEL.into(),
        input: Payload::Fx(rows[0].clone()),
    });
    let reply = Response::Output(Payload::Fx(
        entry.fx().expect("fx mirror").forward(&rows[0]),
    ));
    let dec = time_calls(ctx, "serve.protocol.decode_request", 64, || {
        black_box(decode_request(black_box(&req)).expect("valid request"));
    });
    let enc = time_calls(ctx, "serve.protocol.encode_response", 64, || {
        black_box(encode_response(black_box(&reply)));
    });
    out.push(("serve.protocol.decode_request_ns", dec.median));
    out.push(("serve.protocol.encode_response_ns", enc.median));

    // Kernels on the first layer's shapes: BS 16, eight lanes.
    let layers: Vec<FxWeights> = net
        .bcm_layers()
        .iter()
        .map(|l| FxWeights::from_folded(q, &l.folded()))
        .collect();
    let bs = layers[0].block_size();
    let bins = bs / 2 + 1;
    let pe = FxFftPe::new(bs, q);
    let mut re0 = vec![0i16; bs * LANES];
    for ci in 0..bs {
        for (s, row) in rows.iter().enumerate() {
            re0[ci * LANES + s] = row[ci];
        }
    }
    let (mut re, mut im) = (re0.clone(), vec![0i16; bs * LANES]);
    let fwd = time_calls(ctx, "hwsim.fxfft.forward_lanes", 16, || {
        re.copy_from_slice(&re0);
        im.fill(0);
        pe.forward_lanes(&mut re, &mut im, LANES);
    });
    let (spec_re, spec_im) = (re.clone(), im.clone());
    let inv = time_calls(ctx, "hwsim.fxfft.inverse_lanes", 16, || {
        re.copy_from_slice(&spec_re);
        im.copy_from_slice(&spec_im);
        pe.inverse_lanes(&mut re, &mut im, LANES);
    });
    // The first live block's weight bins, quantized as FxWeights does.
    let folded = net.bcm_layers()[0].folded();
    let block = folded
        .grid(0, 0)
        .iter()
        .find(|b| !b.is_zero())
        .expect("a live block");
    let w64: Vec<f64> = block
        .defining_vector()
        .iter()
        .map(|&v| f64::from(v))
        .collect();
    let wbins: Vec<ComplexFx> = HalfSpectrum::forward(&w64)
        .bins()
        .iter()
        .map(|c| ComplexFx::from_f64(q, c.re, c.im))
        .collect();
    let (xre, xim) = (&spec_re[..bins * LANES], &spec_im[..bins * LANES]);
    let (mut acc_re, mut acc_im) = (vec![0i32; bins * LANES], vec![0i32; bins * LANES]);
    let emac = time_calls(ctx, "hwsim.pe.emac_block_lanes", 64, || {
        hwsim::pe::emac_block_lanes(q, bs, &wbins, xre, xim, &mut acc_re, &mut acc_im, LANES);
        black_box(&acc_re);
    });
    out.push(("hwsim.fxfft.forward_lanes_ns", fwd.median));
    out.push(("hwsim.fxfft.inverse_lanes_ns", inv.median));
    out.push(("hwsim.pe.emac_block_lanes_ns", emac.median));

    // Each layer on its own input (the previous layer's ReLU'd output).
    const LAYER_NAMES: [(&str, &str); 3] = [
        ("hwsim.inference.layer0_b8", "hwsim.inference.layer0_b8_ns"),
        ("hwsim.inference.layer1_b8", "hwsim.inference.layer1_b8_ns"),
        ("hwsim.inference.layer2_b8", "hwsim.inference.layer2_b8_ns"),
    ];
    let mut cur = b8;
    let (mut layer_sum, mut kernel_sum) = (0.0, 0.0);
    let mut share = [0.0f64; 3];
    for (i, w) in layers.iter().enumerate() {
        let (span_name, metric) = LAYER_NAMES[i];
        let t = time_calls(ctx, span_name, 4, || {
            black_box(conv_forward_fx_batch_packed(w, &cur, 1, 1));
        });
        out.push((metric, t.median));
        let kernels = [
            w.in_blocks() as f64 * fwd.median,
            w.live_count() as f64 * emac.median,
            w.out_blocks() as f64 * inv.median,
        ];
        let dominant = ["fft", "emac", "ifft"][(0..3)
            .max_by(|&a, &b| kernels[a].total_cmp(&kernels[b]))
            .expect("three kernels")];
        ctx.note(format!(
            "layer {i}: {:.0} ns; fft {:.0} ns ({} calls), emac {:.0} ns ({} calls), \
             ifft {:.0} ns ({} calls); dominant kernel: {dominant}",
            t.median,
            kernels[0],
            w.in_blocks(),
            kernels[1],
            w.live_count(),
            kernels[2],
            w.out_blocks()
        ));
        layer_sum += t.median;
        kernel_sum += kernels.iter().sum::<f64>();
        for (s, k) in share.iter_mut().zip(kernels) {
            *s += k;
        }
        let mut next = conv_forward_fx_batch_packed(w, &cur, 1, 1);
        for v in next.as_flat_mut() {
            *v = (*v).max(0);
        }
        cur = next;
    }
    out.push(("hwsim.kernel_share.fft", share[0] / layer_sum));
    out.push(("hwsim.kernel_share.emac", share[1] / layer_sum));
    out.push(("hwsim.kernel_share.ifft", share[2] / layer_sum));
    let kernel_residual = (kernel_sum - layer_sum) / layer_sum;
    let layer_residual = (layer_sum - t_b8.median) / t_b8.median;
    out.push(("hwsim.consistency.kernel_residual", kernel_residual));
    out.push(("hwsim.consistency.layer_residual", layer_residual));
    ctx.note(format!(
        "consistency: kernels sum {kernel_sum:.0} ns vs layers sum {layer_sum:.0} ns \
         (residual {kernel_residual:+.3}); layers sum vs fx_batch_b8 {:.0} ns \
         (residual {layer_residual:+.3}); b8 spread {:.3}",
        t_b8.median,
        t_b8.rel_iqr()
    ));
}

/// Float path of the `float_swap` model: registry entry, layers,
/// circulant and FFT kernels, and the hot-swap publish.
fn float_layers(ctx: &mut Ctx, out: &mut Values) {
    let (net, meta) = float_swap::network(ctx.seed);
    let rows = float_swap::inputs(ctx.seed, LANES);
    let entry: Arc<ModelEntry> = Registry::new().publish(Model::from_network(
        float_swap::MODEL,
        net.clone(),
        meta.clone(),
    ));
    let t = time_calls(ctx, "serve.registry.f32_batch_b8", 1, || {
        black_box(entry.forward_f32_batch(&rows));
    });
    out.push(("serve.registry.f32_batch_b8_ns", t.median));

    // The same entry called from two threads at once: each call also
    // waits for the other's hold of the network mutex.
    let barrier = Barrier::new(2);
    let per_call: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    (0..REPS)
                        .map(|_| {
                            let t0 = Instant::now();
                            black_box(entry.forward_f32_batch(&rows));
                            t0.elapsed().as_nanos() as f64
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let two = Summary::of(&per_call).expect("two-caller samples");
    ctx.note(format!(
        "serve.registry.f32_batch_b8_2caller: ns/call {two}"
    ));
    out.push(("serve.registry.f32_batch_b8_2caller_ns", two.median));

    // Layer by layer through a copy of the network, eval mode.
    let mut dims = vec![LANES];
    dims.extend_from_slice(&float_swap::INPUT_DIMS);
    let x = Tensor::from_vec(rows.concat(), &dims);
    let mut layer_net: Network = net.clone();
    let (mut bcm, mut other) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (pass, t_pass) = ctx.spans.open();
        let mut cur = x.clone();
        let (mut b, mut o) = (0.0, 0.0);
        for layer in layer_net.layers_mut() {
            let t0 = Instant::now();
            let y = layer.forward(&cur, false);
            let t1 = Instant::now();
            let is_bcm = layer.bcm().is_some();
            let name = if is_bcm {
                "nn.layers.bcmconv"
            } else {
                "nn.layers.other"
            };
            ctx.spans.record(name, pass, t0, t1);
            let ns = (t1 - t0).as_nanos() as f64;
            if is_bcm {
                b += ns;
            } else {
                o += ns;
            }
            cur = y;
        }
        ctx.spans
            .close((pass, t_pass), "nn.layers.forward_b8", ctx.root);
        bcm.push(b);
        other.push(o);
    }
    out.push((
        "nn.layers.bcmconv_b8_ns",
        Summary::of(&bcm).expect("passes").median,
    ));
    out.push((
        "nn.layers.other_b8_ns",
        Summary::of(&other).expect("passes").median,
    ));

    // circulant: the widest BCM layer's centre tap, eight samples.
    let widest = net
        .bcm_layers()
        .iter()
        .map(|l| l.folded())
        .max_by_key(|f| f.channel_dims().1)
        .expect("a BCM layer");
    let (kh, kw) = widest.kernel_dims();
    let grid: &BlockCirculant<f32> = widest.grid(kh / 2, kw / 2);
    let cols = grid.dense_dims().1;
    let xs: Vec<f32> = rows
        .iter()
        .flat_map(|r| r[..cols].iter().copied())
        .collect();
    let mm = time_calls(ctx, "circulant.matmat_b8", 4, || {
        black_box(grid.matmat(&xs, LANES));
    });
    out.push(("circulant.matmat_b8_ns", mm.median));

    // fft: one block-size real transform each way.
    let sig: Vec<f32> = rows[0][..float_swap::BLOCK].to_vec();
    let spec = HalfSpectrum::forward(&sig);
    let f = time_calls(ctx, "fft.forward_real", 256, || {
        black_box(HalfSpectrum::forward(black_box(&sig)));
    });
    let i = time_calls(ctx, "fft.inverse_real", 256, || {
        black_box(black_box(&spec).inverse());
    });
    out.push(("fft.forward_real_ns", f.median));
    out.push(("fft.inverse_real_ns", i.median));

    // Hot-swap publish of prebuilt versions into a registry serving the
    // model (the old version is dropped inside the publish).
    let registry = Registry::new();
    registry.publish(Model::from_network(
        float_swap::MODEL,
        net.clone(),
        meta.clone(),
    ));
    let mut pending: Vec<Model> = (0..REPS)
        .map(|_| Model::from_network(float_swap::MODEL, net.clone(), meta.clone()))
        .collect();
    let mut publish = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let m = pending.pop().expect("prebuilt model");
        let t0 = Instant::now();
        registry.publish(m);
        let t1 = Instant::now();
        ctx.spans.record("serve.registry.publish", ctx.root, t0, t1);
        publish.push((t1 - t0).as_nanos() as f64 / 1e3);
    }
    out.push((
        "serve.registry.publish_us",
        Summary::of(&publish).expect("publishes").median,
    ));
}

/// Session steppers of the streaming demo model, solo and as a gang of
/// eight, on both datapaths.
fn session_layers(ctx: &mut Ctx, out: &mut Values) {
    let (net, meta) = seq_demo_model(ctx.seed);
    let model = Model::from_network("seq", net, meta);
    let seq = model.seq().expect("streamable");
    let width = seq.input_len();
    let x: Vec<f32> = fx_infer::inputs(ctx.seed, 1)[0][..width]
        .iter()
        .map(|&v| f32::from(v) / 256.0)
        .collect();
    let mut f_runners: Vec<_> = (0..LANES).map(|_| seq.new_f32()).collect();
    let mut q_runners: Vec<_> = (0..LANES).map(|_| seq.new_fx().expect("fx form")).collect();
    let xq = q_runners[0].qformat().quantize_slice(&x);
    let f_solo = time_calls(ctx, "nn.seq.f32_solo_step", 32, || {
        black_box(f_runners[0].step(&x));
    });
    let f_gang = time_calls(ctx, "nn.seq.f32_gang8_step", 8, || {
        let mut refs: Vec<&mut nn::seq::SeqRunner> = f_runners.iter_mut().collect();
        let xs: Vec<&[f32]> = vec![&x[..]; LANES];
        black_box(SeqRunnerBatch::step(&mut refs, &xs));
    });
    let q_solo = time_calls(ctx, "serve.session.fx_solo_step", 32, || {
        black_box(q_runners[0].step(&xq));
    });
    let q_gang = time_calls(ctx, "serve.session.fx_gang8_step", 8, || {
        let mut refs: Vec<&mut serve::FxSeqRunner> = q_runners.iter_mut().collect();
        let xs: Vec<&[i16]> = vec![&xq[..]; LANES];
        black_box(FxSeqRunnerBatch::step(&mut refs, &xs));
    });
    out.push(("nn.seq.f32_solo_step_ns", f_solo.median));
    out.push(("nn.seq.f32_gang8_step_ns", f_gang.median));
    out.push(("serve.session.fx_solo_step_ns", q_solo.median));
    out.push(("serve.session.fx_gang8_step_ns", q_gang.median));
}

/// `Model::from_network` of the workload's own model, ms.
fn model_build_ms(ctx: &mut Ctx, workload: &str) -> f64 {
    let (net, meta) = match workload {
        "fx_infer" => demo_model(ctx.seed),
        "session_stream" => seq_demo_model(ctx.seed),
        _ => float_swap::network(ctx.seed),
    };
    let mut ms = Vec::with_capacity(9);
    for _ in 0..9 {
        let n = net.clone();
        let t0 = Instant::now();
        let m = Model::from_network("build", n, meta.clone());
        let t1 = Instant::now();
        ctx.spans
            .record("serve.registry.model_build", ctx.root, t0, t1);
        drop(m);
        ms.push((t1 - t0).as_secs_f64() * 1e3);
    }
    Summary::of(&ms).expect("builds ran").median
}

/// Every per-layer value for one traced run of `workload`, and the
/// failure reason when the replayed pipeline's outputs differ from the
/// recorded ones.
pub fn replay(ctx: &mut Ctx, workload: &str, outcome: &Outcome) -> (Values, Option<String>) {
    let mut out: Values = Vec::new();
    let c = counts(ctx, outcome);
    out.push(("serve.ping_rtt_us", c.ping_rtt_us));
    out.push(("serve.batcher.batch_size_mean", c.batch_size_mean));
    out.push(("serve.batcher.queue_wait_p99_us", c.queue_wait_p99_us));
    out.push(("serve.batcher.shed_frac", c.shed_frac));
    out.push(("serve.session.gang_width_mean", c.gang_width_mean));
    out.push(("serve.session.ganged_frac", c.ganged_frac));
    fx_layers(ctx, &mut out);
    float_layers(ctx, &mut out);
    session_layers(ctx, &mut out);
    let (facts, failure) = match outcome.pipeline {
        Some(f) => (f, None),
        None => prune_pipeline::facts_once(ctx),
    };
    let build_ms = if workload == "prune_pipeline" {
        facts.model_build_ms
    } else {
        model_build_ms(ctx, workload)
    };
    out.push(("serve.registry.model_build_ms", build_ms));
    out.push(("nn.train.fit_s", facts.fit_s));
    out.push(("nn.train.samples_per_s", facts.samples_per_s));
    out.push(("core.pruning.prune_s", facts.prune_s));
    out.push(("core.pruning.accepted_frac", facts.accepted_frac));
    (out, failure)
}
