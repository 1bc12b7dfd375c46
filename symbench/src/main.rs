//! End-to-end benchmark of the Symphony serving path.
//!
//! ```text
//! cargo run --release --manifest-path symbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` builds the workload's world several times (`setup_s` is
//! the median CPU time of a build), then drives `Platform::query` /
//! `Router::query` (and `Platform::click`) in a closed loop for
//! `--seconds` and reports the end-to-end metrics. `--trace 1` runs a
//! fixed number of operations twice on fresh worlds, untraced and
//! traced, checks that the program's counters agree, and reports
//! per-layer metrics from spans the benchmark records around its own
//! calls into each layer.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. A failed output check prints
//! it with `"correct": false` and exits with status 1.
//! See `BENCH.md` for the workloads and metrics.

mod heap;
mod layers;
mod run;
mod spans;
mod stats;
mod workloads;
mod worlds;

use run::{Outcome, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The workloads, by the names `BENCHMARK.json` uses.
const WORKLOADS: [&str; 4] = ["cold_fanout", "web_scatter", "tenant_mix", "hybrid_filter"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or \"all\""
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn measure<W: Workload>(wl: &W, name: &str, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run::traced(wl, name, args.seed)
    } else {
        run::untraced(wl, args.seconds)
    }
}

fn run_one(name: &str, args: &Args) -> Result<Outcome, String> {
    // Under `--workload all`, an earlier workload's peak is not this one's.
    heap::reset_peak();
    println!(
        "== {name} (seed {}, {}; {} CPUs)",
        args.seed,
        if args.trace {
            "traced".to_string()
        } else {
            format!("{} s", args.seconds)
        },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match name {
        "cold_fanout" => measure(&workloads::ColdFanout::new(args.seed), name, args),
        "web_scatter" => measure(&workloads::WebScatter::new(args.seed), name, args),
        "tenant_mix" => measure(&workloads::TenantMix::new(args.seed), name, args),
        "hybrid_filter" => measure(&workloads::HybridFilter::new(args.seed), name, args),
        _ => unreachable!("validated workload name"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("symbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let outcome = match run_one(name, &args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("symbench: {name}: {e}");
                std::process::exit(1);
            }
        };
        match stats::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics,
        ) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("symbench: {name}: {e}");
                std::process::exit(1);
            }
        }
        all_correct &= outcome.correct;
    }
    if !all_correct {
        std::process::exit(1);
    }
}
