//! Per-layer accelerator pipeline analysis for ResNet-18, then the measured
//! float BCM conv forward on the `vgg_tiny` conv shapes.
//! Run: `cargo run -p bench --release --bin exp_layers [-- <alpha>]`.
fn main() {
    let raw = std::env::args().nth(1);
    let alpha: f64 = match raw.as_deref().map(str::parse::<f64>) {
        None => 0.5,
        Some(Ok(a)) if (0.0..=1.0).contains(&a) => a,
        Some(_) => {
            eprintln!(
                "error: pruning ratio must be a number in [0, 1], got {:?}",
                raw.expect("arg present")
            );
            std::process::exit(2);
        }
    };
    let result = bench::experiments::layers::run(alpha);
    bench::experiments::layers::print(&result);
    println!();
    let float = bench::experiments::layers::measure_float(31);
    bench::experiments::layers::print_float(&float);
    bench::write_telemetry("layers");
}
