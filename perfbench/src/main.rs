//! Command-line entry point; see the library docs for the output.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    let report = perfbench::run(&args, Some(Path::new(perfbench::OUT_DIR)));
    for line in &report.notes {
        eprintln!("{line}");
    }
    if !report.valid {
        eprintln!("invalid run: the generator ran later than the latency limit; not scored");
        return ExitCode::from(3);
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
