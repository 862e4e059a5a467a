//! `flick-perf` — see `crates/perf/README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(flick_perf::cli::main(&args));
}
