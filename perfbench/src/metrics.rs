//! Every metric the benchmark prints: its unit, which direction is
//! better, and — for per-layer metrics — the end-to-end metric and
//! workload it should move. `BENCHMARK.json` lists the same names; a
//! test keeps the two in step.

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// For a per-layer metric, the end-to-end metric and workload it
    /// should move; for an end-to-end metric, what it measures.
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, hib: bool, moves: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: hib,
        moves,
    }
}

/// End-to-end metrics (untraced runs). On `prune_pipeline` one operation
/// is one whole train → prune → fold pipeline.
pub const END_TO_END: [Def; 4] = [
    def("setup_s", "s", false, "model build, publish, bind, connect, first correct reply; pipeline: data synthesis and model init"),
    def("throughput_ops_s", "ops/s", true, "closed-loop saturation, fixed in-flight window; pipeline: pipelines per second"),
    def("latency_p50_us", "us", false, "open loop at the fixed nominal rate, from each request's due time; pipeline: pipeline wall time"),
    def("peak_rss_mb", "MiB", false, "process VmHWM at workload end"),
];

/// Per-layer metrics (traced runs).
pub const PER_LAYER: [Def; 42] = [
    def(
        "serve.ping_rtt_us",
        "us",
        false,
        "latency_p50_us @ fx_infer, session_stream",
    ),
    def(
        "serve.protocol.decode_request_ns",
        "ns",
        false,
        "latency_p50_us @ fx_infer",
    ),
    def(
        "serve.protocol.encode_response_ns",
        "ns",
        false,
        "latency_p50_us @ fx_infer",
    ),
    def(
        "serve.batcher.batch_size_mean",
        "count",
        true,
        "throughput_ops_s @ fx_infer, float_swap",
    ),
    def(
        "serve.batcher.queue_wait_p99_us",
        "us",
        false,
        "latency_p50_us @ fx_infer (p99 tail)",
    ),
    def(
        "serve.batcher.shed_frac",
        "ratio",
        false,
        "failed @ fx_infer",
    ),
    def(
        "serve.registry.fx_batch_b1_ns",
        "ns",
        false,
        "latency_p50_us @ fx_infer",
    ),
    def(
        "serve.registry.fx_batch_b8_ns",
        "ns",
        false,
        "throughput_ops_s @ fx_infer",
    ),
    def(
        "serve.registry.f32_batch_b8_ns",
        "ns",
        false,
        "throughput_ops_s @ float_swap",
    ),
    def(
        "serve.registry.f32_batch_b8_2caller_ns",
        "ns",
        false,
        "throughput_ops_s @ float_swap",
    ),
    def(
        "serve.registry.model_build_ms",
        "ms",
        false,
        "setup_s @ all; latency_p50_us @ prune_pipeline",
    ),
    def(
        "serve.registry.publish_us",
        "us",
        false,
        "latency_p50_us @ float_swap (p99 tail)",
    ),
    def(
        "serve.session.gang_width_mean",
        "count",
        true,
        "throughput_ops_s @ session_stream",
    ),
    def(
        "serve.session.ganged_frac",
        "ratio",
        true,
        "throughput_ops_s @ session_stream",
    ),
    def(
        "serve.session.fx_gang8_step_ns",
        "ns",
        false,
        "throughput_ops_s @ session_stream",
    ),
    def(
        "serve.session.fx_solo_step_ns",
        "ns",
        false,
        "latency_p50_us @ session_stream",
    ),
    def(
        "nn.seq.f32_gang8_step_ns",
        "ns",
        false,
        "throughput_ops_s @ session_stream",
    ),
    def(
        "nn.seq.f32_solo_step_ns",
        "ns",
        false,
        "latency_p50_us @ session_stream",
    ),
    def(
        "nn.layers.bcmconv_b8_ns",
        "ns",
        false,
        "throughput_ops_s @ float_swap",
    ),
    def(
        "nn.layers.other_b8_ns",
        "ns",
        false,
        "throughput_ops_s @ float_swap",
    ),
    def(
        "hwsim.inference.layer0_b8_ns",
        "ns",
        false,
        "throughput_ops_s @ fx_infer",
    ),
    def(
        "hwsim.inference.layer1_b8_ns",
        "ns",
        false,
        "throughput_ops_s @ fx_infer",
    ),
    def(
        "hwsim.inference.layer2_b8_ns",
        "ns",
        false,
        "throughput_ops_s @ fx_infer",
    ),
    def(
        "hwsim.fxfft.forward_lanes_ns",
        "ns",
        false,
        "throughput_ops_s @ fx_infer",
    ),
    def(
        "hwsim.fxfft.inverse_lanes_ns",
        "ns",
        false,
        "throughput_ops_s @ fx_infer",
    ),
    def(
        "hwsim.pe.emac_block_lanes_ns",
        "ns",
        false,
        "throughput_ops_s @ fx_infer",
    ),
    def(
        "hwsim.kernel_share.fft",
        "ratio",
        false,
        "descriptive: which kernel dominates fx layer time",
    ),
    def(
        "hwsim.kernel_share.emac",
        "ratio",
        false,
        "descriptive: which kernel dominates fx layer time",
    ),
    def(
        "hwsim.kernel_share.ifft",
        "ratio",
        false,
        "descriptive: which kernel dominates fx layer time",
    ),
    def(
        "hwsim.consistency.kernel_residual",
        "ratio",
        false,
        "descriptive: (sum of kernel time - sum of layer time) / sum of layer time",
    ),
    def(
        "hwsim.consistency.layer_residual",
        "ratio",
        false,
        "descriptive: (sum of layer time - fx_batch_b8_ns) / fx_batch_b8_ns",
    ),
    def(
        "circulant.matmat_b8_ns",
        "ns",
        false,
        "throughput_ops_s @ float_swap",
    ),
    def(
        "fft.forward_real_ns",
        "ns",
        false,
        "throughput_ops_s @ float_swap",
    ),
    def(
        "fft.inverse_real_ns",
        "ns",
        false,
        "throughput_ops_s @ float_swap",
    ),
    def(
        "nn.train.fit_s",
        "s",
        false,
        "latency_p50_us @ prune_pipeline",
    ),
    def(
        "nn.train.samples_per_s",
        "samples/s",
        true,
        "throughput_ops_s @ prune_pipeline",
    ),
    def(
        "core.pruning.prune_s",
        "s",
        false,
        "latency_p50_us @ prune_pipeline",
    ),
    def(
        "core.pruning.accepted_frac",
        "ratio",
        true,
        "latency_p50_us @ prune_pipeline",
    ),
    def(
        "trace.setup_s",
        "s",
        false,
        "traced-run setup_s; minus the untraced value is tracing overhead",
    ),
    def(
        "trace.throughput_ops_s",
        "ops/s",
        true,
        "traced-run throughput_ops_s; overhead as above",
    ),
    def(
        "trace.latency_p50_us",
        "us",
        false,
        "traced-run latency_p50_us; overhead as above",
    ),
    def(
        "trace.peak_rss_mb",
        "MiB",
        false,
        "traced-run peak_rss_mb; overhead as above",
    ),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}
