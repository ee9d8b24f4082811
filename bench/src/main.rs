//! `e2e`: the repository's end-to-end benchmark. See `bench/README.md`.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]
//! e2e --verify [--seed <n>]
//! e2e --benchmark-json
//! e2e --write-expected <path>
//! ```
//!
//! A workload run prints `name value unit n=<samples>` per measured value
//! and ends with one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Exit code 0 means every operation succeeded with a correct answer.

mod check;
mod common;
mod inputs;
mod json;
mod lubm_join;
mod lubm_rw;
mod lubm_serve;
mod metrics;
mod stats;
mod suite_cold;
mod trace;
mod verify;

use std::path::{Path, PathBuf};

use metrics::{Report, RUN_SECONDS, WORKLOADS};

/// Write the spans and print the self-time table of a traced run.
fn finish_trace(tracer: &trace::Tracer, workload: &str, out_dir: &Path) {
    let path = out_dir.join(format!("trace.{workload}.jsonl"));
    match std::fs::create_dir_all(out_dir).and_then(|()| tracer.write_jsonl(&path)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    print!("{}", tracer.self_time_table());
}

fn usage() -> ! {
    eprintln!(
        "usage: e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n       \
         e2e --verify [--seed N]\n       e2e --benchmark-json\n       e2e --write-expected PATH",
        WORKLOADS.map(|(name, _)| name).join("|")
    );
    std::process::exit(64)
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!(
            "e2e: refusing to measure a debug build; use bench/run.sh or cargo build --release"
        );
        std::process::exit(64);
    }
    let mut workload: Option<String> = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = RUN_SECONDS;
    let mut traced = false;
    let mut verify = false;
    let mut out_dir = PathBuf::from("bench/out");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = parse_u64(&value()).unwrap_or_else(|| usage()),
            "--seconds" => {
                seconds = parse_u64(&value())
                    .filter(|s| *s >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => traced = parse_u64(&value()).unwrap_or_else(|| usage()) != 0,
            "--out-dir" => out_dir = PathBuf::from(value()),
            "--verify" => verify = true,
            "--benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return;
            }
            "--write-expected" => {
                if let Err(e) = verify::write_expected(&value()) {
                    eprintln!("e2e: {e}");
                    std::process::exit(1);
                }
                return;
            }
            _ => usage(),
        }
    }

    let mut report = Report::default();
    if verify {
        verify::verify(seed, &mut report);
        for why in &report.failures {
            println!("FAILED {why}");
        }
        println!(
            "verify: {} checks, {} failed",
            report.attempted, report.failed
        );
        std::process::exit(i32::from(report.failed > 0));
    }
    let Some(workload) = workload else { usage() };
    match (workload.as_str(), traced) {
        ("suite_cold", false) => suite_cold::run(seed, seconds, &mut report),
        ("suite_cold", true) => suite_cold::run_traced(seed, &mut report, &out_dir),
        ("lubm_join", false) => lubm_join::run(seed, seconds, &mut report),
        ("lubm_join", true) => lubm_join::run_traced(seed, &mut report, &out_dir),
        ("lubm_serve", false) => lubm_serve::run(seed, seconds, &mut report),
        ("lubm_serve", true) => lubm_serve::run_traced(seed, &mut report, &out_dir),
        ("lubm_rw", false) => lubm_rw::run(seed, seconds, &mut report, &out_dir),
        ("lubm_rw", true) => lubm_rw::run_traced(seed, &mut report, &out_dir),
        _ => usage(),
    }
    println!(
        "workload {workload} seed {seed:#x} seconds {seconds} trace {}",
        u8::from(traced)
    );
    report.print(traced);
    std::process::exit(i32::from(report.failed > 0));
}
