//! `fpfa-map` — command-line front door to the mapping flow.
//!
//! Reads a C-subset kernel, maps it onto an FPFA tile and prints the
//! requested artefacts: the mapping report, the per-cycle listing, Graphviz
//! renderings of the CDFG / cluster graph / schedule, or a simulation run.
//!
//! ```text
//! fpfa-map kernel.c                  # report only
//! fpfa-map kernel.c --listing        # plus the per-cycle tile job
//! fpfa-map kernel.c --dot schedule   # Graphviz of the schedule (cdfg|clusters|schedule)
//! fpfa-map kernel.c --pps 3          # target a 3-PP tile
//! fpfa-map kernel.c --tiles 4        # partition across a 4-tile array
//! fpfa-map kernel.c --no-clustering --no-locality
//! fpfa-map kernel.c --verify         # lint the source + verify the mapping
//! fpfa-map kernel.c --diag-json      # ... with machine-readable diagnostics
//! fpfa-map kernel.c --simulate       # run on the cycle-accurate simulator
//! fpfa-map kernel.c --timings        # per-stage wall-clock breakdown
//! fpfa-map kernel.c --timings-json   # ... as one machine-readable JSON array
//! fpfa-map kernel.c --repeat 5       # re-map through one MappingService
//! fpfa-map --batch a.c b.c c.c       # map many kernels in parallel
//! fpfa-map --batch                   # ... the built-in workload suite
//! fpfa-map --batch --repeat 3        # warm-cache repeat of the suite
//! ```
//!
//! With `--simulate`, every array of the kernel is filled with the
//! deterministic test signal also used by the benchmark suite, and every
//! scalar input is set to 1.  With `--batch`, all given kernels (or, with no
//! files, the `fpfa-workloads` registry) are mapped in parallel through a
//! `MappingService` and the aggregated batch report — including the
//! content-addressed cache's hit/miss/eviction stats — is printed;
//! `--threads N` bounds the worker pool (it applies to `--batch` only).
//! `--repeat N` runs the whole mapping N times through one long-lived
//! `MappingService`, printing the wall-clock and cache stats of every pass:
//! the first pass is cold, later passes are served from the cache.
//!
//! With `--verify`, the kernel source is linted by the `fpfa-verify` semantic
//! pass (`FS0xx` rules, spans and snippets included) and the finished mapping
//! is re-checked by the static mapping verifier (`FV0xx` rules); any
//! deny-level diagnostic fails the run with a non-zero exit code.
//! `--diag-json` (implies `--verify`) additionally prints every diagnostic as
//! one JSON array of `{"kernel":..,"diagnostics":[..]}` objects on stdout.

use fpfa::arch::{EnergyModel, TileConfig};
use fpfa::core::pipeline::Mapper;
use fpfa::core::{viz, KernelSpec, MappingResult, MappingService};
use fpfa::sim::{simulate, test_inputs, SimOutcome};
use fpfa_obs::json::escape_into;
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    paths: Vec<String>,
    pps: usize,
    tiles: usize,
    clustering: bool,
    locality: bool,
    listing: bool,
    dot: Option<String>,
    simulate: bool,
    timings: bool,
    timings_json: bool,
    batch: bool,
    threads: Option<usize>,
    repeat: usize,
    cache_capacity: Option<usize>,
    cache_dir: Option<String>,
    verify: bool,
    diag_json: bool,
}

fn usage() -> &'static str {
    "usage: fpfa-map <kernel.c> [--pps N] [--tiles N] [--no-clustering] [--no-locality] \
     [--listing] [--dot cdfg|clusters|schedule] [--simulate] [--timings] [--timings-json] \
     [--verify] [--diag-json] [--repeat N] [--cache-capacity N] [--cache-dir DIR]\n\
     \x20      fpfa-map --batch [kernel.c ...] [--pps N] [--tiles N] [--threads N] \
     [--timings] [--timings-json] [--verify] [--diag-json] [--repeat N] \
     [--cache-capacity N] [--cache-dir DIR]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        paths: Vec::new(),
        pps: TileConfig::paper().num_pps,
        tiles: 1,
        clustering: true,
        locality: true,
        listing: false,
        dot: None,
        simulate: false,
        timings: false,
        timings_json: false,
        batch: false,
        threads: None,
        repeat: 1,
        cache_capacity: None,
        cache_dir: None,
        verify: false,
        diag_json: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--pps" => {
                let value = iter.next().ok_or("--pps needs a value")?;
                options.pps = value.parse().map_err(|_| "--pps needs a number")?;
            }
            "--tiles" => {
                let value = iter.next().ok_or("--tiles needs a value")?;
                options.tiles = value.parse().map_err(|_| "--tiles needs a number")?;
                if options.tiles == 0 {
                    return Err("--tiles needs at least one tile".to_string());
                }
            }
            "--threads" => {
                let value = iter.next().ok_or("--threads needs a value")?;
                options.threads = Some(value.parse().map_err(|_| "--threads needs a number")?);
                if options.threads == Some(0) {
                    return Err("--threads needs at least one thread".to_string());
                }
            }
            "--repeat" => {
                let value = iter.next().ok_or("--repeat needs a value")?;
                options.repeat = value.parse().map_err(|_| "--repeat needs a number")?;
                if options.repeat == 0 {
                    return Err("--repeat needs at least one pass".to_string());
                }
            }
            "--cache-capacity" => {
                let value = iter.next().ok_or("--cache-capacity needs a value")?;
                options.cache_capacity = Some(
                    value
                        .parse()
                        .map_err(|_| "--cache-capacity needs a number")?,
                );
                if options.cache_capacity == Some(0) {
                    return Err("--cache-capacity needs at least one entry".to_string());
                }
            }
            "--cache-dir" => {
                let value = iter.next().ok_or("--cache-dir needs a directory")?;
                options.cache_dir = Some(value.clone());
            }
            "--no-clustering" => options.clustering = false,
            "--no-locality" => options.locality = false,
            "--listing" => options.listing = true,
            "--verify" => options.verify = true,
            "--diag-json" => {
                options.diag_json = true;
                options.verify = true;
            }
            "--simulate" => options.simulate = true,
            "--timings" => options.timings = true,
            "--timings-json" => options.timings_json = true,
            "--batch" => options.batch = true,
            "--dot" => {
                let value = iter.next().ok_or("--dot needs cdfg|clusters|schedule")?;
                options.dot = Some(value.clone());
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n{}", usage()))
            }
            other => options.paths.push(other.to_string()),
        }
    }
    if options.repeat > 1 && (options.listing || options.simulate || options.dot.is_some()) {
        return Err(format!(
            "--repeat is incompatible with --listing/--simulate/--dot\n{}",
            usage()
        ));
    }
    if options.batch {
        if options.listing || options.simulate || options.dot.is_some() {
            return Err(format!(
                "--batch is incompatible with --listing/--simulate/--dot\n{}",
                usage()
            ));
        }
    } else if options.threads.is_some() {
        return Err(format!("--threads only applies to --batch\n{}", usage()));
    } else if options.cache_capacity.is_some() && options.repeat == 1 && options.cache_dir.is_none()
    {
        // The cache only exists on the MappingService paths (`--cache-dir`
        // routes even a single run through a service).
        return Err(format!(
            "--cache-capacity only applies to --batch, --repeat or --cache-dir runs\n{}",
            usage()
        ));
    } else {
        match options.paths.len() {
            0 => return Err(usage().to_string()),
            1 => {}
            _ => {
                return Err(format!(
                    "more than one input file given (use --batch to map several)\n{}",
                    usage()
                ))
            }
        }
    }
    Ok(options)
}

fn build_mapper(options: &Options) -> Mapper {
    let config = TileConfig::paper().with_num_pps(options.pps);
    let mut mapper = Mapper::new().with_config(config).with_tiles(options.tiles);
    if !options.clustering {
        mapper = mapper.without_clustering();
    }
    if !options.locality {
        mapper = mapper.without_locality();
    }
    if options.verify {
        mapper = mapper.with_verify();
    }
    if let Some(threads) = options.threads {
        mapper = mapper.with_batch_threads(threads);
    }
    mapper
}

/// A long-lived service around the configured mapper, with the cache bounded
/// to `--cache-capacity` when given and backed by the persistent disk tier
/// of `--cache-dir` when given.
fn build_service(options: &Options) -> Result<MappingService, String> {
    let mapper = build_mapper(options);
    let capacity = options
        .cache_capacity
        .unwrap_or(fpfa::core::cache::DEFAULT_CAPACITY);
    match &options.cache_dir {
        Some(dir) => MappingService::with_cache_dir(mapper, capacity, dir)
            .map_err(|e| format!("cannot open cache dir {dir}: {e}")),
        None => Ok(match options.cache_capacity {
            Some(capacity) => MappingService::with_capacity(mapper, capacity),
            None => MappingService::new(mapper),
        }),
    }
}

/// Lints one kernel source and statically verifies its mapping, collecting
/// every diagnostic into one report. Parse failures surface as an error.
fn verify_kernel(
    verifier: &fpfa::verify::Verifier,
    name: &str,
    source: &str,
    mapping: Option<&MappingResult>,
) -> Result<fpfa::verify::VerifyReport, String> {
    let mut report = fpfa::verify::analyze(source)
        .map_err(|e| format!("cannot lint {name}:\n{}", e.render(name, source)))?;
    if let Some(mapping) = mapping {
        report.merge(verifier.verify(mapping));
    }
    Ok(report)
}

/// Prints a report's diagnostics in `rustc` style: `name:line:col:
/// severity[rule]: message`, followed by the annotated source line for
/// span-carrying (frontend) diagnostics.
fn print_diagnostics(name: &str, source: &str, report: &fpfa::verify::VerifyReport) {
    for diagnostic in &report.diagnostics {
        match diagnostic.span {
            Some(span) => {
                eprintln!("{name}:{diagnostic}");
                let snippet = fpfa::frontend::render_snippet(source, span);
                if !snippet.is_empty() {
                    eprintln!("{snippet}");
                }
            }
            None => eprintln!("{name}: {diagnostic}"),
        }
    }
}

/// One `{"kernel":..,"<field>":<json>}` object of a JSON array the CLI
/// prints (`--diag-json`, `--timings-json`).  Kernel names come from the
/// command line, so they may hold anything.
fn kernel_json(name: &str, field: &str, json: &str) -> String {
    let mut out = String::from("{\"kernel\":");
    escape_into(&mut out, name);
    out.push_str(&format!(",\"{field}\":{json}}}"));
    out
}

/// `--batch`: maps every given kernel (or the built-in workload registry)
/// through one [`MappingService`] — `--repeat N` times — and prints the
/// aggregated report(s) including the cache stats.
fn run_batch(options: &Options) -> Result<(), String> {
    let specs = if options.paths.is_empty() {
        fpfa::workloads::registry()
            .into_iter()
            .map(|kernel| KernelSpec::new(kernel.name, kernel.source))
            .collect::<Vec<_>>()
    } else {
        let mut specs = Vec::with_capacity(options.paths.len());
        for path in &options.paths {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            specs.push(KernelSpec::new(path.clone(), source));
        }
        specs
    };

    let service = build_service(options)?;
    let mut report = service.map_many(&specs);
    print!("{report}");
    for pass in 2..=options.repeat {
        report = service.map_many(&specs);
        println!(
            "pass {pass}: {}/{} kernel(s) in {:?}, cache: {}",
            report.succeeded(),
            report.entries.len(),
            report.wall,
            service.stats()
        );
    }
    if options.timings {
        for entry in &report.entries {
            if let Ok(mapping) = &entry.outcome {
                println!("\n-- {} ({}) --", entry.name, mapping.report.cache);
                print!("{}", mapping.trace);
            }
        }
        println!("\ncache: {}", service.stats());
    }
    if options.timings_json {
        let entries: Vec<String> = report
            .entries
            .iter()
            .filter_map(|entry| {
                entry.outcome.as_ref().ok().map(|mapping| {
                    kernel_json(&entry.name, "timings", &mapping.trace.timings_json())
                })
            })
            .collect();
        println!("[{}]", entries.join(","));
    }
    if options.cache_dir.is_some() {
        let persist = service.cache().persist_stats();
        println!(
            "persist: {} load(s), {} store(s), {} corrupt skipped, \
             {} warm-start entr(ies), {} compaction(s)",
            persist.loads,
            persist.stores,
            persist.corrupt_skipped,
            persist.warm_start_entries,
            persist.compactions
        );
    }
    let mut verify_denies = 0usize;
    if options.verify {
        let verifier = fpfa::verify::Verifier::for_mapper(&build_mapper(options));
        let mut json_entries = Vec::new();
        for (spec, entry) in specs.iter().zip(&report.entries) {
            let diags = verify_kernel(
                &verifier,
                &entry.name,
                &spec.source,
                entry.outcome.as_ref().ok(),
            )?;
            print_diagnostics(&entry.name, &spec.source, &diags);
            verify_denies += diags.deny_count();
            if options.diag_json {
                json_entries.push(kernel_json(&entry.name, "diagnostics", &diags.to_json()));
            }
        }
        if options.diag_json {
            println!("[{}]", json_entries.join(","));
        }
    }
    if verify_denies > 0 {
        return Err(format!(
            "verification failed with {verify_denies} error(s) across the batch"
        ));
    }
    if report.failed() > 0 {
        // Name every failing spec (by its disambiguated entry name) on
        // stderr, so a scripted batch caller sees which kernel broke without
        // scraping the stdout table.
        let mut message = format!("{} kernel(s) failed to map:", report.failed());
        for entry in &report.entries {
            if let Err(error) = &entry.outcome {
                message.push_str(&format!("\n  {}: {error}", entry.name));
            }
        }
        return Err(message);
    }
    Ok(())
}

fn run(options: &Options) -> Result<(), String> {
    let path = &options.paths[0];
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    // Lint before mapping, so kernels the lowering rejects still produce
    // span-carrying diagnostics instead of a bare frontend error.
    let mut diags = fpfa::verify::VerifyReport::new();
    if options.verify {
        diags = fpfa::verify::analyze(&source)
            .map_err(|e| format!("cannot lint {path}:\n{}", e.render(path, &source)))?;
        if !diags.is_clean() {
            print_diagnostics(path, &source, &diags);
            if options.diag_json {
                println!("[{}]", kernel_json(path, "diagnostics", &diags.to_json()));
            }
            return Err(format!(
                "verification failed with {} error(s) in {path}",
                diags.deny_count()
            ));
        }
    }

    let mapping = if options.repeat > 1 || options.cache_dir.is_some() {
        // Repeat (and persistent-cache) runs share one long-lived service:
        // the first pass is cold — unless `--cache-dir` warm-started it from
        // a previous process — and later passes are answered from the
        // content-addressed cache.
        let service = build_service(options)?;
        let mut mapping = None;
        for pass in 1..=options.repeat {
            let started = Instant::now();
            let result = service.map_source(&source).map_err(|e| e.to_string())?;
            println!(
                "pass {pass}: {:?} ({})",
                started.elapsed(),
                result.report.cache
            );
            mapping = Some(result);
        }
        println!("cache: {}", service.stats());
        if options.cache_dir.is_some() {
            let persist = service.cache().persist_stats();
            println!(
                "persist: {} load(s), {} store(s), {} corrupt skipped, \
                 {} warm-start entr(ies), {} compaction(s)",
                persist.loads,
                persist.stores,
                persist.corrupt_skipped,
                persist.warm_start_entries,
                persist.compactions
            );
        }
        println!();
        mapping.ok_or("--repeat ran no passes")?
    } else {
        build_mapper(options)
            .map_source(&source)
            .map_err(|e| e.to_string())?
    };

    if options.verify {
        let verifier = fpfa::verify::Verifier::for_mapper(&build_mapper(options));
        diags.merge(verifier.verify(&mapping));
        print_diagnostics(path, &source, &diags);
        if options.diag_json {
            println!("[{}]", kernel_json(path, "diagnostics", &diags.to_json()));
        }
        if !diags.is_clean() {
            return Err(format!(
                "verification failed with {} error(s) in {path}",
                diags.deny_count()
            ));
        }
    }

    match options.dot.as_deref() {
        Some("cdfg") => {
            print!("{}", fpfa::cdfg::dot::to_dot(&mapping.simplified));
            return Ok(());
        }
        Some("clusters") => {
            print!(
                "{}",
                viz::clusters_to_dot(&mapping.mapping_graph, &mapping.clustered)
            );
            return Ok(());
        }
        Some("schedule") => {
            print!(
                "{}",
                viz::schedule_to_dot(
                    &mapping.mapping_graph,
                    &mapping.clustered,
                    &mapping.schedule
                )
            );
            return Ok(());
        }
        Some(other) => return Err(format!("unknown --dot target `{other}`\n{}", usage())),
        None => {}
    }

    println!("{}", mapping.report);
    if let Some(multi) = &mapping.multi {
        print_multi_summary(multi);
    }
    if options.timings {
        println!();
        print!("{}", mapping.trace);
    }
    if options.timings_json {
        println!("{}", mapping.trace.timings_json());
    }
    if options.listing {
        match &mapping.multi {
            Some(multi) => println!("\n{}", multi.program.listing()),
            None => println!("\n{}", mapping.program.listing()),
        }
    }

    if options.simulate {
        let outcome = simulate_with_test_data(&mapping)?;
        println!("\n-- simulation (deterministic test data) --");
        let mut names: Vec<_> = outcome.scalars.keys().collect();
        names.sort();
        for name in names {
            println!("  {name} = {}", outcome.scalars[name]);
        }
        println!(
            "  cycles {}  alu ops {}  mem r/w {}/{}  crossbar {}  inter-tile {}",
            outcome.counts.cycles,
            outcome.counts.alu_ops,
            outcome.counts.mem_reads,
            outcome.counts.mem_writes,
            outcome.counts.crossbar_transfers,
            outcome.counts.inter_tile_transfers
        );
        println!(
            "  energy {:.1} units",
            outcome.energy(&EnergyModel::default_model()).total
        );
    }
    Ok(())
}

/// Prints the per-tile schedule occupancy and the traffic report of a
/// multi-tile mapping.
fn print_multi_summary(multi: &fpfa::core::MultiTileMapping) {
    println!("\n-- per-tile schedules --");
    for (tile, schedule) in multi.schedule.tiles().iter().enumerate() {
        let clusters: usize = schedule.levels().iter().map(Vec::len).sum();
        println!(
            "  tile {tile}: {} cluster(s), peak {} / level, avg {:.2}",
            clusters,
            schedule.max_parallelism(),
            schedule.average_parallelism()
        );
    }
    print!("{}", multi.traffic());
    println!(
        "  transfer energy {:.1} units (default model)",
        multi.traffic().energy(&EnergyModel::default_model())
    );
}

/// Runs the mapped program (single- or multi-tile) on the deterministic test
/// signal the benchmark suite uses.
fn simulate_with_test_data(mapping: &MappingResult) -> Result<SimOutcome, String> {
    simulate(mapping, &test_inputs(mapping)).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if options.batch {
        run_batch(&options)
    } else {
        run(&options)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fpfa-map: {message}");
            ExitCode::FAILURE
        }
    }
}
