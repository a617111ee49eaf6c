//! Benchmarks the streaming profiler on a tiled million-event trace and
//! writes `BENCH_profile_stream.json` (`--smoke`:
//! `BENCH_profile_stream.smoke.json`).
//!
//! ```console
//! $ cargo run --release -p varuna-bench --bin profile_stream            # ~1.2M events
//! $ cargo run --release -p varuna-bench --bin profile_stream -- --smoke # ~120k events
//! ```
//!
//! Exits nonzero if the windowed report diverges from `profile()` by a
//! single byte, if any stream counter flags a violation, if resident
//! state grew past a small fraction of the stream, or if the windowed
//! fold fell more than a constant factor below `profile()` — the gates
//! CI holds with `--smoke`.

use varuna_bench::profile_stream::{self, MAX_RESIDENT_RATIO, MAX_SLOWDOWN_VS_POSTHOC};
use varuna_bench::util::{print_table, report_path};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let target = if smoke { 120_000 } else { 1_200_000 };
    println!(
        "Streaming profiler bench{}: target {target} events\n",
        if smoke { " (smoke)" } else { "" }
    );
    let b = profile_stream::run(target);

    let rows = vec![
        vec![
            "null sink (floor)".to_string(),
            format!("{:.3e}", b.null_eps),
            "-".to_string(),
        ],
        vec![
            "windowed profiler".to_string(),
            format!("{:.3e}", b.stream_eps),
            format!("{:.1}x", b.slowdown_vs_null()),
        ],
        vec![
            "profile()".to_string(),
            format!("{:.3e}", b.posthoc_eps),
            format!("{:.1}x", b.null_eps / b.posthoc_eps),
        ],
    ];
    print_table(
        &format!("{} events, {} tiles", b.events, b.tiles),
        &["consumer", "events/s", "vs null"],
        &rows,
    );

    println!(
        "\nresident: peak {} entries over {} events (ratio {:.5}, gate {MAX_RESIDENT_RATIO})",
        b.peak_resident, b.events, b.resident_ratio
    );
    println!(
        "exactness: windowed {} | violations {}",
        if b.stream_matches {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        b.violations
    );

    let path = report_path("profile_stream", smoke);
    profile_stream::report(&b)
        .write(std::path::Path::new(&path))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("machine-readable report written to {path}");

    let mut failed = false;
    if !b.stream_matches {
        eprintln!("FAIL: windowed report diverged from profile()");
        failed = true;
    }
    if b.violations > 0 {
        eprintln!("FAIL: {} stream-counter violation(s)", b.violations);
        failed = true;
    }
    if b.resident_ratio > MAX_RESIDENT_RATIO {
        eprintln!(
            "FAIL: resident ratio {:.5} above gate {MAX_RESIDENT_RATIO}",
            b.resident_ratio
        );
        failed = true;
    }
    if b.slowdown_vs_posthoc() > MAX_SLOWDOWN_VS_POSTHOC {
        eprintln!(
            "FAIL: windowed fold {:.2}x slower than profile() (gate {MAX_SLOWDOWN_VS_POSTHOC}x)",
            b.slowdown_vs_posthoc()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
