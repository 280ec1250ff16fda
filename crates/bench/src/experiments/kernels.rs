//! `exp_kernels`: microbenchmarks of the vectorized spectral kernels
//! against their scalar references, plus a deterministic fixed-point
//! fingerprint.
//!
//! Four kernels, each timed in both schedules over identical words:
//!
//! 1. **Butterfly** — the fixed-point FFT PE: per-sample
//!    [`FxFftPe::forward`] vs the batch-of-8 SoA lane transform
//!    ([`FxFftPe::forward_lanes`]).
//! 2. **eMAC inner loop** — the frequency-domain complex MAC: per-sample
//!    [`ComplexAcc::mac`] bins vs the shared-weight `[bin][lane]` form
//!    ([`hwsim::pe::emac_block_lanes`]).
//! 3. **Quantize/dequantize** — batch ingress/egress: per-row
//!    [`QFormat`] slice conversion vs the packed [`FxBatch`] container.
//! 4. **Float conv** — the `f32` instance of the one conv schedule
//!    ([`SpectralConv::forward`], a half-pruned 3×3 BCM conv): one width-1
//!    call per sample vs one 8-lane call.
//!
//! Every lane measurement is validated word-for-word (for the float conv,
//! bit for bit) against its scalar column before timing is trusted
//! (`bit_identical` in the artifact).
//!
//! The `fx_fingerprint` record hashes the output of an integer-only
//! batched conv (synthesized i16 spectra, LCG inputs — no float FFT
//! anywhere) with FNV-1a. It is exactly reproducible on any host and
//! any `RUSTFLAGS`, so CI's native-CPU job asserts byte-identity of the
//! fixed-point datapath by recomputing it against the committed
//! artifact (`--smoke`).
//!
//! Writes `results/BENCH_kernels.json`: one record per kernel
//! (`{config, elems, scalar_ns, lane_ns, speedup, bit_identical}`) plus
//! the fingerprint record.

use crate::table::Table;
use circulant::schedule::{ConvShape, SpectralConv};
use hwsim::fixed::{ComplexAcc, ComplexFx, QFormat};
use hwsim::fxfft::FxFftPe;
use hwsim::inference::{conv_forward_fx_batch_packed, FxWeights};
use hwsim::FxBatch;

/// One kernel's scalar-vs-lane comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMeasurement {
    /// Kernel label (the JSON `config` field).
    pub config: String,
    /// Elements processed per timed repetition.
    pub elems: u64,
    /// Median scalar-schedule wall time per repetition, nanoseconds.
    pub scalar_ns: u64,
    /// Median lane-schedule wall time per repetition, nanoseconds.
    pub lane_ns: u64,
    /// `scalar_ns / lane_ns`.
    pub speedup: f64,
    /// Whether the two schedules produced identical words (1.0 = yes).
    pub bit_identical: bool,
}

/// All measurements plus the datapath fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelsResult {
    /// One record per kernel.
    pub measurements: Vec<KernelMeasurement>,
    /// FNV-1a hash of the integer-only batched conv output.
    pub fingerprint: u64,
}

impl KernelsResult {
    /// Looks a kernel up by label.
    pub fn get(&self, config: &str) -> Option<&KernelMeasurement> {
        self.measurements.iter().find(|m| m.config == config)
    }

    /// Renders the JSON artifact (hand-rolled: the workspace is std-only).
    /// The fingerprint is split into 32-bit halves so the values stay
    /// exact in the reporter's f64 metric space.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for m in &self.measurements {
            s.push_str(&format!(
                "  {{\"config\": \"{}\", \"elems\": {}, \"scalar_ns\": {}, \"lane_ns\": {}, \
                 \"speedup\": {:.3}, \"bit_identical\": {}}},\n",
                m.config,
                m.elems,
                m.scalar_ns,
                m.lane_ns,
                m.speedup,
                u8::from(m.bit_identical),
            ));
        }
        s.push_str(&format!(
            "  {{\"config\": \"fx_fingerprint\", \"fingerprint_hi\": {}, \"fingerprint_lo\": {}}}\n]",
            self.fingerprint >> 32,
            self.fingerprint & 0xffff_ffff,
        ));
        s
    }
}

use super::median_ns;

/// Deterministic full-range i16 words (LCG — no float, no platform
/// dependence).
fn lcg_words(seed: u64, count: usize) -> Vec<i16> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 48) as i16
        })
        .collect()
}

const LANES: usize = 8;

/// Butterfly microbenchmark: `groups` batches of [`LANES`] size-`bs`
/// transforms, scalar loop vs one lane transform per batch.
fn bench_butterfly(bs: usize, groups: usize, reps: usize) -> KernelMeasurement {
    let q = QFormat::q8();
    let pe = FxFftPe::new(bs, q);
    let words = lcg_words(1, groups * LANES * bs * 2);
    let (re_words, im_words) = words.split_at(groups * LANES * bs);

    // Scalar schedule: AoS buffers, one forward per sample.
    let mut scalar_out = vec![ComplexFx::zero(); groups * LANES * bs];
    let scalar_ns = median_ns(
        || {
            for g in 0..groups * LANES {
                let buf = &mut scalar_out[g * bs..(g + 1) * bs];
                for (i, c) in buf.iter_mut().enumerate() {
                    *c = ComplexFx::new(re_words[g * bs + i], im_words[g * bs + i]);
                }
                pe.forward(buf);
            }
            std::hint::black_box(&scalar_out);
        },
        reps,
    );

    // Lane schedule: split planes, one wide forward per group of LANES.
    let mut lre = vec![0i16; groups * LANES * bs];
    let mut lim = vec![0i16; groups * LANES * bs];
    let lane_ns = median_ns(
        || {
            for g in 0..groups {
                let re = &mut lre[g * LANES * bs..(g + 1) * LANES * bs];
                let im = &mut lim[g * LANES * bs..(g + 1) * LANES * bs];
                for r in 0..bs {
                    for l in 0..LANES {
                        let s = g * LANES + l;
                        re[r * LANES + l] = re_words[s * bs + r];
                        im[r * LANES + l] = im_words[s * bs + r];
                    }
                }
                pe.forward_lanes(re, im, LANES);
            }
            std::hint::black_box(&lre);
        },
        reps,
    );

    // Word-for-word agreement of the two schedules.
    let mut bit_identical = true;
    for g in 0..groups {
        for l in 0..LANES {
            let s = g * LANES + l;
            for r in 0..bs {
                let c = scalar_out[s * bs + r];
                if c.re != lre[(g * bs + r) * LANES + l] || c.im != lim[(g * bs + r) * LANES + l] {
                    bit_identical = false;
                }
            }
        }
    }

    KernelMeasurement {
        config: format!("butterfly_bs{bs}_x{}", groups * LANES),
        elems: (groups * LANES * bs) as u64,
        scalar_ns,
        lane_ns,
        speedup: scalar_ns as f64 / lane_ns.max(1) as f64,
        bit_identical,
    }
}

/// eMAC microbenchmark: `blocks` live weight blocks accumulated into
/// [`LANES`] samples' bins, scalar [`ComplexAcc::mac`] vs
/// [`hwsim::pe::emac_block_lanes`].
fn bench_emac(bs: usize, blocks: usize, reps: usize) -> KernelMeasurement {
    let q = QFormat::q8();
    let bins = bs / 2 + 1;
    let wts = lcg_words(2, blocks * bins * 2);
    let weights: Vec<Vec<ComplexFx>> = (0..blocks)
        .map(|b| {
            (0..bins)
                .map(|k| ComplexFx::new(wts[(b * bins + k) * 2], wts[(b * bins + k) * 2 + 1]))
                .collect()
        })
        .collect();
    let xre = lcg_words(3, blocks * bins * LANES);
    let xim = lcg_words(4, blocks * bins * LANES);

    // Scalar schedule: per-sample AoS accumulators, sample loop outermost.
    let mut scalar_acc = vec![ComplexAcc::zero(); LANES * bins];
    let scalar_ns = median_ns(
        || {
            scalar_acc.fill(ComplexAcc::zero());
            for l in 0..LANES {
                let acc = &mut scalar_acc[l * bins..(l + 1) * bins];
                for (b, ws) in weights.iter().enumerate() {
                    for (k, a) in acc.iter_mut().enumerate() {
                        let x = ComplexFx::new(
                            xre[(b * bins + k) * LANES + l],
                            xim[(b * bins + k) * LANES + l],
                        );
                        a.mac(q, x, ws[k]);
                    }
                }
            }
            std::hint::black_box(&scalar_acc);
        },
        reps,
    );

    // Lane schedule: shared weight load, `[bin][lane]` i32 planes.
    let mut lane_re = vec![0i32; bins * LANES];
    let mut lane_im = vec![0i32; bins * LANES];
    let lane_ns = median_ns(
        || {
            lane_re.fill(0);
            lane_im.fill(0);
            for (b, ws) in weights.iter().enumerate() {
                hwsim::pe::emac_block_lanes(
                    q,
                    bs,
                    ws,
                    &xre[b * bins * LANES..(b + 1) * bins * LANES],
                    &xim[b * bins * LANES..(b + 1) * bins * LANES],
                    &mut lane_re,
                    &mut lane_im,
                    LANES,
                );
            }
            std::hint::black_box(&lane_re);
        },
        reps,
    );

    let mut bit_identical = true;
    for l in 0..LANES {
        for k in 0..bins {
            let a = scalar_acc[l * bins + k];
            if a.re != lane_re[k * LANES + l] || a.im != lane_im[k * LANES + l] {
                bit_identical = false;
            }
        }
    }

    KernelMeasurement {
        config: format!("emac_bs{bs}_blocks{blocks}"),
        elems: (blocks * bins * LANES) as u64,
        scalar_ns,
        lane_ns,
        speedup: scalar_ns as f64 / lane_ns.max(1) as f64,
        bit_identical,
    }
}

/// Quantize/dequantize microbenchmark: per-row slice conversion with a
/// fresh `Vec` per row vs the packed [`FxBatch`] ingress/egress.
fn bench_quantize(rows: usize, row_len: usize, reps: usize) -> KernelMeasurement {
    let q = QFormat::q8();
    let samples: Vec<Vec<f32>> = (0..rows)
        .map(|r| {
            lcg_words(5 + r as u64, row_len)
                .iter()
                .map(|&w| f32::from(w) / 8192.0)
                .collect()
        })
        .collect();

    let mut scalar_rows: Vec<Vec<i16>> = Vec::new();
    let mut scalar_back: Vec<Vec<f32>> = Vec::new();
    let scalar_ns = median_ns(
        || {
            scalar_rows = samples
                .iter()
                .map(|row| row.iter().map(|&v| q.from_f32(v)).collect())
                .collect();
            scalar_back = scalar_rows
                .iter()
                .map(|row| row.iter().map(|&v| q.to_f64(v) as f32).collect())
                .collect();
            std::hint::black_box(&scalar_back);
        },
        reps,
    );

    let mut packed = FxBatch::quantize_rows(q, &samples[..1]);
    let mut packed_back: Vec<Vec<f32>> = Vec::new();
    let lane_ns = median_ns(
        || {
            packed = FxBatch::quantize_rows(q, &samples);
            packed_back = packed.dequantize_rows();
            std::hint::black_box(&packed_back);
        },
        reps,
    );

    let bit_identical = (0..rows).all(|r| packed.row(r) == &scalar_rows[r][..])
        && scalar_back
            .iter()
            .zip(&packed_back)
            .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));

    KernelMeasurement {
        config: format!("quantize_roundtrip_{rows}x{row_len}"),
        elems: (rows * row_len) as u64,
        scalar_ns,
        lane_ns,
        speedup: scalar_ns as f64 / lane_ns.max(1) as f64,
        bit_identical,
    }
}

/// Float conv schedule: [`LANES`] width-1 calls of the `f32` instance vs
/// one [`LANES`]-wide call on the same samples, a half-pruned 3×3,
/// `c → c` BS-8 conv on a `side × side` map. Every lane must keep the
/// bits of its width-1 call.
fn bench_f32_conv(c: usize, side: usize, reps: usize) -> KernelMeasurement {
    let (bs, k) = (8, 3);
    let to_f32 =
        |words: Vec<i16>| -> Vec<f32> { words.iter().map(|&v| f32::from(v) / 32768.0).collect() };
    let skip: Vec<bool> = (0..k * k * (c / bs) * (c / bs))
        .map(|i| i % 2 == 0)
        .collect();
    let live = skip.iter().filter(|&&l| l).count();
    let vecs = to_f32(lcg_words(11, live * bs));
    let conv = SpectralConv::new(bs, k, c / bs, c / bs, &skip, &vecs);
    let shape = ConvShape {
        h: side,
        w: side,
        stride: 1,
        pad: 1,
    };
    let len = c * side * side;
    let xs = to_f32(lcg_words(12, LANES * len));

    let mut singles = Vec::new();
    let scalar_ns = median_ns(
        || {
            singles = xs
                .chunks(len)
                .flat_map(|x| conv.forward(x, 1, shape))
                .collect();
            std::hint::black_box(&singles);
        },
        reps,
    );
    let mut lanes = Vec::new();
    let lane_ns = median_ns(
        || {
            lanes = conv.forward(&xs, LANES, shape);
            std::hint::black_box(&lanes);
        },
        reps,
    );
    let bit_identical = singles.len() == lanes.len()
        && singles
            .iter()
            .zip(&lanes)
            .all(|(a, b)| a.to_bits() == b.to_bits());

    KernelMeasurement {
        config: format!("f32_conv_c{c}_{side}x{side}_b{LANES}"),
        elems: (LANES * len) as u64,
        scalar_ns,
        lane_ns,
        speedup: scalar_ns as f64 / lane_ns.max(1) as f64,
        bit_identical,
    }
}

/// Integer-only datapath fingerprint: a pruned batched conv on
/// synthesized i16 spectra and LCG inputs, FNV-1a over the output words.
/// No float ever enters the pipeline, so the value is exact on every
/// host, optimization level, and `RUSTFLAGS`.
pub fn fingerprint() -> u64 {
    let (bs, k, ob, ib, h, w, n) = (8usize, 3usize, 2usize, 2usize, 6usize, 6usize, 5usize);
    let q = QFormat::q8();
    let blocks = k * k * ob * ib;
    let skip: Vec<bool> = (0..blocks).map(|i| i % 3 != 1).collect();
    let bins = bs / 2 + 1;
    let live = skip.iter().filter(|&&s| s).count();
    let words = lcg_words(97, live * bins * 2);
    let weights = FxWeights::from_parts(bs, k, ob, ib, &skip, &words);
    let sample_len = ib * bs * h * w;
    let xs = FxBatch::from_flat(q, n, sample_len, lcg_words(98, n * sample_len));
    let out = conv_forward_fx_batch_packed(&weights, &xs, h, w);
    let mut hash = telemetry::fnv::Fnv1a::new();
    for &v in out.as_flat() {
        hash.write_u16(v as u16);
    }
    hash.finish()
}

/// Runs every microbenchmark. `quick` shrinks sizes for smoke runs while
/// keeping every kernel and the fingerprint.
pub fn run(quick: bool) -> KernelsResult {
    let reps = if quick { 5 } else { 15 };
    let scale = if quick { 1 } else { 8 };
    let measurements = vec![
        bench_butterfly(8, 64 * scale, reps),
        bench_butterfly(32, 16 * scale, reps),
        bench_emac(8, 512 * scale, reps),
        bench_emac(16, 256 * scale, reps),
        bench_quantize(8, 512 * scale, reps),
        bench_f32_conv(32, if quick { 8 } else { 16 }, reps),
    ];
    KernelsResult {
        measurements,
        fingerprint: fingerprint(),
    }
}

/// Writes `results/BENCH_kernels.json` (path anchored at the workspace
/// root so the binary works from any working directory).
pub fn write_json(r: &KernelsResult) -> std::io::Result<std::path::PathBuf> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_kernels.json");
    std::fs::write(&path, r.to_json() + "\n")?;
    Ok(path)
}

/// Prints the kernel table.
pub fn print(r: &KernelsResult) {
    println!("== Kernel microbenchmarks: scalar vs SoA lane schedules ==");
    let mut t = Table::new(&[
        "kernel",
        "elems",
        "scalar ns",
        "lane ns",
        "speedup",
        "bit-id",
    ]);
    for m in &r.measurements {
        t.row_owned(vec![
            m.config.clone(),
            m.elems.to_string(),
            m.scalar_ns.to_string(),
            m.lane_ns.to_string(),
            format!("{:.2}x", m.speedup),
            if m.bit_identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.print();
    println!("fx fingerprint: {:#018x}", r.fingerprint);
}

/// Smoke checks: every kernel bit-identical, and — when the committed
/// artifact exists — the recomputed fingerprint must match it exactly
/// (CI's native-CPU byte-identity gate). Returns the failures.
pub fn smoke_failures(r: &KernelsResult) -> Vec<String> {
    let mut fails = Vec::new();
    for m in &r.measurements {
        if !m.bit_identical {
            fails.push(format!("{}: lane schedule diverged from scalar", m.config));
        }
        if m.scalar_ns == 0 || m.lane_ns == 0 {
            fails.push(format!("{}: zero wall time measured", m.config));
        }
    }
    let committed =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_kernels.json");
    match std::fs::read_to_string(&committed) {
        Ok(text) => {
            let hi = extract_num(&text, "fingerprint_hi");
            let lo = extract_num(&text, "fingerprint_lo");
            match (hi, lo) {
                (Some(hi), Some(lo)) => {
                    let want = (hi << 32) | lo;
                    if want != r.fingerprint {
                        fails.push(format!(
                            "fx fingerprint mismatch: computed {:#018x}, committed {want:#018x}",
                            r.fingerprint
                        ));
                    }
                }
                _ => fails.push("committed BENCH_kernels.json has no fingerprint".into()),
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => fails.push(format!("cannot read committed artifact: {e}")),
    }
    fails
}

/// Pulls `"key": <integer>` out of the committed artifact.
fn extract_num(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = text[at..].trim_start_matches([':', ' ']);
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_deterministic() {
        assert_eq!(fingerprint(), fingerprint());
    }

    #[test]
    fn quick_run_is_bit_identical_everywhere() {
        let r = run(true);
        for m in &r.measurements {
            assert!(m.bit_identical, "{} diverged", m.config);
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let r = KernelsResult {
            measurements: vec![KernelMeasurement {
                config: "x".into(),
                elems: 4,
                scalar_ns: 10,
                lane_ns: 5,
                speedup: 2.0,
                bit_identical: true,
            }],
            fingerprint: 0x1234_5678_9abc_def0,
        };
        let j = r.to_json();
        assert!(j.contains("\"config\": \"x\""));
        assert!(j.contains("\"speedup\": 2.000"));
        assert!(j.contains("\"bit_identical\": 1"));
        assert!(j.contains("\"fingerprint_hi\": 305419896"));
        assert!(j.contains("\"fingerprint_lo\": 2596069104"));
        assert!(j.starts_with('[') && j.ends_with(']'));
        crate::json::parse(&j).expect("artifact is valid JSON");
    }

    #[test]
    fn extract_num_reads_committed_fields() {
        let t = r#"{"fingerprint_hi": 12, "fingerprint_lo": 34}"#;
        assert_eq!(extract_num(t, "fingerprint_hi"), Some(12));
        assert_eq!(extract_num(t, "fingerprint_lo"), Some(34));
        assert_eq!(extract_num(t, "missing"), None);
    }
}
