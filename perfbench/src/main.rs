//! `perfbench` — the repository benchmark's measuring program.
//!
//! ```text
//! perfbench --workload compile|serve_warm|serve_mixed --seed N --seconds S
//!           --trace 0|1 --serve-bin PATH --work-dir DIR [--sha SHA]
//! ```
//!
//! Prints one `host:` line of metadata, one `metric <name> <value> <unit>`
//! line per measured metric and a final `result correct=.. attempted=..
//! failed=..` line.  `perfbench/run.py` builds this program and the daemon,
//! runs it, and turns those lines into the benchmark's result object.  The
//! exit status is non-zero on any wrong output.

mod compile;
mod gen;
mod loadgen;
mod oracle;
mod procfs;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// Operations attempted, failed (errors, shed load, wrong answers) and wrong
/// (answers the oracles reject).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn fail_wrong(&mut self) {
        self.failed += 1;
        self.wrong += 1;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
    sha: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        serve_bin: PathBuf::new(),
        work_dir: PathBuf::new(),
        sha: "unknown".to_string(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--serve-bin" => args.serve_bin = PathBuf::from(&value),
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            "--sha" => args.sha = value.clone(),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds is required".to_string());
    }
    Ok(args)
}

/// Per-layer metrics a workload's path never reaches read 0: the compile
/// workload runs no daemon, and the serving workloads fit no stage growth
/// (their stage times come from the daemon's traced spans).
const SERVER_LAYERS: &[(&str, &str)] = &[
    ("server.cpu_us_per_req", "us/req"),
    ("server.syscalls_per_req", "syscalls/req"),
    ("server.wakeups_per_req", "wakeups/req"),
    ("server.map_latency_p99_us", "us"),
    ("server.queue_wait_p99_us", "us"),
    ("server.rejected", "count"),
    ("cache.l0_share", "ratio"),
    ("cache.flow_runs_per_new", "ratio"),
    ("cache.post_hit_share", "ratio"),
    ("persist.loads", "count"),
    ("setup.boot_ms", "ms"),
    ("setup.warm_ms", "ms"),
    ("span.queue_wait_us", "us"),
    ("span.map_service_us", "us"),
    ("span.respond_us", "us"),
    ("serve.unaccounted_share", "ratio"),
    ("gen.lateness_p99_us", "us"),
];
const COMPILE_LAYERS: &[(&str, &str)] = &[
    ("transform.exponent", "slope"),
    ("cluster.exponent", "slope"),
    ("partition.exponent", "slope"),
    ("allocate.exponent", "slope"),
    ("transform.visits_per_node", "visits/node"),
    ("flow.unaccounted_share", "ratio"),
];

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: workload={} seed={} nproc={nproc} cpu=\"{}\" profile={} sha={} workers={} shards={} catalog={}",
        args.workload,
        args.seed,
        cpu_model(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.sha,
        serve::WORKERS,
        serve::SHARDS,
        serve::CATALOG,
    );
    let mut report = stats::Report::default();
    let ctx = serve::Ctx {
        bin: &args.serve_bin,
        work: &args.work_dir,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let (outcome, idle_layers) = match args.workload.as_str() {
        "compile" => (
            compile::run(args.seed, args.seconds, args.trace, &mut report),
            SERVER_LAYERS,
        ),
        "serve_warm" => (serve::run(&ctx, false, &mut report), COMPILE_LAYERS),
        "serve_mixed" => (serve::run(&ctx, true, &mut report), COMPILE_LAYERS),
        other => (Err(format!("unknown workload `{other}`")), &[][..]),
    };
    let tally = match outcome {
        Ok(tally) => tally,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    for &(name, unit) in idle_layers {
        if report.get(name).is_none() {
            report.put(name, 0.0, unit);
        }
    }
    print!("{}", report.lines());
    println!(
        "result correct={} attempted={} failed={}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed
    );
    if tally.wrong > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
