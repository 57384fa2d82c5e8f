//! The `serve_warm` and `serve_mixed` workloads: the real `fpfa-serve`
//! binary, two workers and one shard, driven over protocol v2 from one
//! process with two load threads and two load connections.
//!
//! Every daemon starts from a copy of a catalog cache that an untimed
//! earlier daemon wrote, so boot warm-starts the disk tier and the set-up
//! catalog pass answers from it.  Layers are measured from outside: `/proc`
//! deltas of the daemon and its `metrics`/`dump` verbs over exactly the
//! measured phase.

use crate::gen::{self, Rng, L0_CAPACITY, L1_CAPACITY};
use crate::loadgen::{self, Answer, Conn, Digests, Phase, Send, Template};
use crate::oracle::{self, Quality};
use crate::procfs::{self, ProcCounters};
use crate::stats::{median, quantile, ratio, windowed_quantile, Report};
use crate::Tally;
use fpfa_core::cache::CacheOutcome;
use fpfa_obs::{MetricValue, Snapshot};
use fpfa_server::CacheFlavor;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Catalog kernels: more than the L1 capacity, fewer than the L0 capacity.
pub const CATALOG: usize = 1000;
/// Daemon shape, set explicitly rather than taken from the host.
pub const WORKERS: usize = 2;
pub const SHARDS: usize = 1;
/// Requests in flight during a set-up pass (below the queue depth of 64, so
/// nothing is shed).
const PASS_WINDOW: usize = 32;
/// Nominal open-loop rates on a 2-core host: about a quarter of
/// `serve_warm`'s and `serve_mixed`'s `max_rate_rps` (~750k and ~10k req/s).
/// At half, the warm median flips between two modes from run to run, and
/// the mixed daemon nears saturation whenever the shared host runs slow for
/// a while (its highest passing rate then falls to ~6k req/s) — the median
/// hit then waits behind the workers, ten times longer.  The warm nominal
/// phase pins both load threads to one CPU,
/// leaving the daemon's shard the other; unpinned, the thread placement the
/// scheduler happens to settle on moves its median by a third.  The mixed
/// phases stay unpinned: the daemon's workers need both cores.
const WARM_NOMINAL_RPS: f64 = 200_000.0;
const MIXED_NOMINAL_RPS: f64 = 5_000.0;
/// The nominal rate is measured in rounds, each on a freshly set up daemon
/// and apart in time, for [`NOMINAL_SHARE`] of `--seconds` in all: this
/// many before the catalog's oracle runs, between it and the rate ladder
/// (or the traced phase), and after.  CPU, memory and latency metrics are
/// medians over the rounds: one daemon whose threads the scheduler placed
/// unluckily, or a few seconds in which the shared host ran slow, moves one
/// round, not the result.
const ROUNDS: [usize; 3] = [2, 1, 2];
const NOMINAL_SHARE: f64 = 0.4;
/// `serve_mixed` composition per [`MIX_PERIOD`] scheduled slots: one fresh
/// kernel (sent twice, the second time on the other connection right away)
/// and three whitespace variants of catalog kernels, evenly spaced so the
/// misses arrive at a steady pace; every other slot repeats a catalog kernel
/// (≈ 95% of requests).
const MIX_PERIOD: usize = 100;
const VARIANT_SLOTS: [usize; 3] = [25, 50, 75];
/// Gap between a fresh kernel's two sends: far below its mapping time, so
/// the second arrives while the first is in flight.
const DUPLICATE_GAP_NS: u64 = 50_000;
/// Zipf exponent of catalog popularity.
const ZIPF_S: f64 = 1.0;
/// Limits a ladder step must meet.  They bound windowed medians, not p99s:
/// on a shared virtual host the p99 measures hypervisor stalls, while the
/// median of a step — and of its last quarter, which rises when a backlog
/// builds — measures whether the system keeps up.
const HIT_P50_LIMIT_US: f64 = 1_000.0;
const MISS_P50_LIMIT_US: f64 = 50_000.0;
/// A generator whose median send runs later than this has fallen behind
/// its schedule: the nominal phase is rejected, a ladder step fails.
const LATENESS_LIMIT_US: f64 = 200.0;
/// Ladder steps: coarse ×1.25 until a step fails, then ×1.05 from the last
/// passing rate (the resolution is well inside the metric's bound).
const COARSE_STEP: f64 = 1.25;
const FINE_STEP: f64 = 1.05;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Catalog,
    New,
    Variant,
}

/// Every source the run may send, with its pre-encoded request frame.
#[derive(Default)]
struct Sources {
    names: Vec<String>,
    sources: Vec<String>,
    /// Index into `kernels` of the kernel that supplies the data.
    kernel_of: Vec<usize>,
    class: Vec<Class>,
    templates: Vec<Template>,
    kernels: Vec<fpfa_workloads::Kernel>,
}

impl Sources {
    fn add(&mut self, name: String, source: String, kernel: usize, class: Class) -> u32 {
        self.templates.push(Template::map(&name, &source));
        self.names.push(name);
        self.sources.push(source);
        self.kernel_of.push(kernel);
        self.class.push(class);
        (self.templates.len() - 1) as u32
    }
}

/// Seeded request stream: Zipf-popular catalog repeats, plus (mixed) fresh
/// kernels and whitespace variants drawn on demand.
struct Mix {
    mixed: bool,
    rng: Rng,
    /// Cumulative Zipf weights over popularity ranks.
    cdf: Vec<f64>,
    /// Catalog template of each popularity rank.
    by_rank: Vec<u32>,
    /// Slots scheduled so far (the composition pattern runs on across
    /// phases).
    slot: usize,
    /// Fresh kernels come from their own stream.
    fresh: gen::Fresh,
    fresh_sent: usize,
    taken: HashSet<String>,
    /// Whitespace variants made so far per catalog source.
    variants_of: HashMap<usize, usize>,
}

impl Mix {
    fn catalog_pick(&mut self) -> u32 {
        let u = self.rng.unit() * self.cdf[self.cdf.len() - 1];
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.by_rank[rank]
    }

    /// The next `rate * seconds` scheduled slots at a fixed rate, starting
    /// 2 ms out so the sender is ready for the first send.
    fn plan(&mut self, sources: &mut Sources, rate: f64, seconds: f64) -> Vec<Send> {
        let count = (rate * seconds).round() as usize;
        let period = 1e9 / rate;
        let mut plan = Vec::with_capacity(count + count / 16);
        for slot in 0..count {
            let at_ns = 2_000_000 + (slot as f64 * period) as u64;
            let conn = (slot % 2) as u8;
            let position = self.slot % MIX_PERIOD;
            self.slot += 1;
            if self.mixed && position == 0 {
                let draw = self.fresh.next(&mut self.taken);
                self.fresh_sent += 1;
                let kernel = sources.kernels.len();
                sources.kernels.push(draw.kernel.clone());
                let name = format!("n{}", self.fresh_sent);
                let template = sources.add(name, draw.kernel.source, kernel, Class::New);
                plan.push(Send {
                    at_ns,
                    template,
                    conn,
                });
                plan.push(Send {
                    at_ns: at_ns + DUPLICATE_GAP_NS,
                    template,
                    conn: 1 - conn,
                });
            } else if self.mixed && VARIANT_SLOTS.contains(&position) {
                let base = self.catalog_pick() as usize;
                let index = self.variants_of.entry(base).or_default();
                let source = gen::whitespace_variant(&sources.sources[base], *index);
                *index += 1;
                let (name, kernel) = (sources.names[base].clone(), sources.kernel_of[base]);
                let template = sources.add(name, source, kernel, Class::Variant);
                plan.push(Send {
                    at_ns,
                    template,
                    conn,
                });
            } else {
                let template = self.catalog_pick();
                plan.push(Send {
                    at_ns,
                    template,
                    conn,
                });
            }
        }
        plan.sort_by_key(|s| s.at_ns);
        plan
    }
}

/// A running daemon; killed and reaped on drop if not stopped cleanly.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    pid: u32,
    /// Request ids already used on this daemon (ids stay unique so traced
    /// spans match client timings).
    next_id: u64,
    /// Distinct sources sent to this daemon: kept below the L0 capacity so
    /// every run sees the same cache tiers.
    distinct: HashSet<u32>,
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening on` line.
    fn spawn(bin: &Path, cache_dir: &Path, trace_sample: u32) -> Result<Daemon, String> {
        let mut command = Command::new(bin);
        command
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--shards", &SHARDS.to_string()])
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(["--trace-sample", &trace_sample.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the closure runs in the forked child before exec and only
        // makes the async-signal-safe prctl call: the daemon is killed if
        // the benchmark dies, so no run leaves a daemon behind.
        unsafe {
            command.pre_exec(|| {
                const PR_SET_PDEATHSIG: i32 = 1;
                const SIGKILL: u64 = 9;
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no daemon stdout")?);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".to_string());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr}: {e}"))?;
            }
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
            pid,
            next_id: 0,
            distinct: HashSet::new(),
        })
    }

    /// Graceful stop through the `shutdown` verb; waits for the exit.
    fn stop(mut self) -> Result<(), String> {
        Conn::connect(self.addr)?.call(&fpfa_server::Request::Shutdown)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => return Err("daemon did not drain".to_string()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Sum of a counter or gauge over all its label sets.
fn counter(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot
        .metrics
        .iter()
        .filter(|m| m.key.name == name)
        .map(|m| match &m.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Histogram { .. } => 0,
        })
        .sum()
}

type Buckets = [u64; fpfa_obs::HISTOGRAM_BUCKETS];

/// Growth of a registry histogram's buckets between two snapshots.
fn histogram_growth(before: &Snapshot, after: &Snapshot, name: &str) -> Buckets {
    let buckets = |snapshot: &Snapshot| {
        let mut out: Buckets = [0; fpfa_obs::HISTOGRAM_BUCKETS];
        for metric in snapshot.metrics.iter().filter(|m| m.key.name == name) {
            if let MetricValue::Histogram { buckets, .. } = &metric.value {
                for (o, b) in out.iter_mut().zip(buckets) {
                    *o += b;
                }
            }
        }
        out
    };
    let (a, b) = (buckets(after), buckets(before));
    std::array::from_fn(|i| a[i].saturating_sub(b[i]))
}

/// p99 upper bound of histogram buckets, in their unit (µs); 0 when empty.
fn histogram_p99(buckets: &Buckets) -> f64 {
    fpfa_obs::quantile_upper_bound(buckets, 0.99).unwrap_or(0) as f64
}

/// Medians of one request class in a ladder step.
struct ClassStats {
    /// Windowed median (see [`windowed_quantile`]).
    window_p50_us: f64,
    /// Windowed median of the class's last quarter (in send order).
    tail_p50_us: f64,
}

impl ClassStats {
    fn of(samples: &[f32]) -> ClassStats {
        let tail = &samples[samples.len() - samples.len() / 4..];
        ClassStats {
            window_p50_us: windowed_quantile(samples, 0.5),
            tail_p50_us: windowed_quantile(tail, 0.5),
        }
    }

    /// Served at pace, with no backlog building up towards the end of the
    /// step (vacuous when empty).
    fn keeps_up(&self, limit_us: f64) -> bool {
        self.window_p50_us <= limit_us && self.tail_p50_us <= limit_us
    }
}

/// Latency samples of one or more open-loop phases, in send order.
#[derive(Default)]
struct Latencies {
    hit: Vec<f32>,
    miss: Vec<f32>,
    all: Vec<f32>,
    /// How late the generator sent each request.
    lateness: Vec<f32>,
    failed: usize,
}

impl Latencies {
    fn lateness_us(&self, q: f64) -> f64 {
        quantile(&mut self.lateness.clone(), q)
    }

    fn append(&mut self, mut other: Latencies) {
        self.hit.append(&mut other.hit);
        self.miss.append(&mut other.miss);
        self.all.append(&mut other.all);
        self.lateness.append(&mut other.lateness);
        self.failed += other.failed;
    }
}

/// When each source was first answered by a daemon: phase-relative
/// nanoseconds during a phase, 0 for sources answered before it.
struct Answered(HashMap<u32, u64>);

impl Answered {
    /// A daemon whose set-up answered the catalog.
    fn after_setup(catalog: &[u32]) -> Answered {
        Answered(catalog.iter().map(|&t| (t, 0)).collect())
    }

    /// Splits a phase's latencies into hits and misses: a request is a miss
    /// when no earlier request for its source had been answered by its
    /// scheduled send time.
    fn classify(&mut self, plan: &[Send], phase: &Phase) -> Latencies {
        let (mut hit, mut miss, mut all) = (Vec::new(), Vec::new(), Vec::new());
        let mut failed = 0;
        for (i, send) in plan.iter().enumerate() {
            if !matches!(phase.answers[i], Answer::Served(_)) {
                failed += 1;
                continue;
            }
            let latency = phase.latency_us[i];
            let recv = send.at_ns + (f64::from(latency) * 1e3) as u64;
            let first = self.0.entry(send.template).or_insert(u64::MAX);
            if *first <= send.at_ns {
                hit.push(latency);
            } else {
                miss.push(latency);
            }
            *first = (*first).min(recv);
            all.push(latency);
        }
        // Schedules start 2 ms into a phase, so 0 precedes every send.
        self.0.values_mut().for_each(|first| *first = 0);
        Latencies {
            hit,
            miss,
            all,
            lateness: phase.lateness_us.clone(),
            failed,
        }
    }
}

struct SetupTimes {
    setup_s: f64,
    boot_ms: f64,
    warm_ms: f64,
    persist_loads: f64,
}

/// Everything one serving run accumulates.
struct Run<'a> {
    bin: &'a Path,
    work: &'a Path,
    pristine: PathBuf,
    sources: Sources,
    catalog: Vec<u32>,
    mix: Mix,
    digests: Digests,
    tally: Tally,
    setups: Vec<SetupTimes>,
}

impl Run<'_> {
    /// Books a pass or phase: `counted` is false for ladder steps above
    /// capacity, whose shed load is expected (their answers are still
    /// checked).
    fn book(&mut self, answers: &[Answer], counted: bool) {
        if counted {
            self.tally.attempted += answers.len() as u64;
            self.tally.failed += answers
                .iter()
                .filter(|a| !matches!(a, Answer::Served(_)))
                .count() as u64;
        }
    }

    /// Boots a daemon on a fresh copy of the catalog cache and answers one
    /// pass over the catalog — the timed set-up.
    fn setup(&mut self, trace_sample: u32) -> Result<Daemon, String> {
        let dir = self.work.join(format!("cache-{}", self.setups.len()));
        copy_dir(&self.pristine, &dir)?;
        let started = Instant::now();
        let mut daemon = Daemon::spawn(self.bin, &dir, trace_sample)?;
        let boot = started.elapsed();
        let mut conn = Conn::connect(daemon.addr)?;
        let answers = conn.pass(
            &self.sources.templates,
            &self.catalog,
            PASS_WINDOW,
            &mut self.digests,
        )?;
        let setup = started.elapsed();
        self.book(&answers, true);
        // The pass used request ids 0..catalog; phases continue after them.
        daemon.next_id = self.catalog.len() as u64;
        daemon.distinct.extend(self.catalog.iter().copied());
        self.setups.push(SetupTimes {
            setup_s: setup.as_secs_f64(),
            boot_ms: boot.as_secs_f64() * 1e3,
            warm_ms: (setup - boot).as_secs_f64() * 1e3,
            persist_loads: counter(&conn.metrics()?, "persist.loads") as f64,
        });
        Ok(daemon)
    }

    /// One open-loop phase on `daemon`; `pin` as in [`loadgen::open_loop`].
    fn phase(
        &mut self,
        daemon: &mut Daemon,
        conns: &mut [Conn; 2],
        plan: &[Send],
        answered: &mut Answered,
        pin: bool,
    ) -> Result<(Phase, Latencies), String> {
        daemon.distinct.extend(plan.iter().map(|s| s.template));
        if daemon.distinct.len() >= L0_CAPACITY {
            return Err(
                "a daemon was sent more distinct sources than its L0 tier holds".to_string(),
            );
        }
        let phase = loadgen::open_loop(
            conns,
            &self.sources.templates,
            plan,
            daemon.next_id,
            &mut self.digests,
            pin,
        )?;
        daemon.next_id += plan.len() as u64;
        let latencies = answered.classify(plan, &phase);
        Ok((phase, latencies))
    }

    /// Highest ladder rate at which the daemon keeps up; each step runs for
    /// `step_s` seconds.  Steps share a daemon until the next one could
    /// push its distinct sources past the L0 capacity; then a fresh daemon
    /// is set up (and timed like every set-up).
    fn ladder(&mut self, start_rps: f64, step_s: f64) -> Result<(f64, usize), String> {
        let mut lane: Option<(Daemon, [Conn; 2], Answered)> = None;
        let mut steps = 0;
        let mut step = |run: &mut Self, rate: f64| -> Result<bool, String> {
            steps += 1;
            // Distinct sources a step may add: fresh kernels and variants,
            // with a 2x margin.
            let budget = (rate * step_s * (1 + VARIANT_SLOTS.len()) as f64 / MIX_PERIOD as f64
                * 2.0) as usize;
            if lane
                .as_ref()
                .is_none_or(|(daemon, _, _)| daemon.distinct.len() + budget >= L0_CAPACITY)
            {
                if let Some((daemon, conns, _)) = lane.take() {
                    drop(conns);
                    daemon.stop()?;
                }
                let daemon = run.setup(0)?;
                let conns = [Conn::connect(daemon.addr)?, Conn::connect(daemon.addr)?];
                lane = Some((daemon, conns, Answered::after_setup(&run.catalog)));
            }
            let (daemon, conns, answered) = lane.as_mut().expect("a daemon was just set up");
            let plan = run.mix.plan(&mut run.sources, rate, step_s);
            let (phase, lat) = run.phase(daemon, conns, &plan, answered, false)?;
            let (hit, miss) = (ClassStats::of(&lat.hit), ClassStats::of(&lat.miss));
            let lateness_p50_us = lat.lateness_us(0.5);
            let pass = lat.failed == 0
                && hit.keeps_up(HIT_P50_LIMIT_US)
                && miss.keeps_up(MISS_P50_LIMIT_US)
                && lateness_p50_us <= LATENESS_LIMIT_US;
            eprintln!(
                "ladder: {rate:.0} req/s {} (hit p50 {:.0}/{:.0} us, miss p50 {:.0}/{:.0} us, \
                 shed or failed {}, lateness p50 {lateness_p50_us:.0} us)",
                if pass { "pass" } else { "fail" },
                hit.window_p50_us,
                hit.tail_p50_us,
                miss.window_p50_us,
                miss.tail_p50_us,
                lat.failed,
            );
            run.book(&phase.answers, pass);
            Ok(pass)
        };
        // Coarse steps up while passing (or down until one passes); a
        // coarse failure is confirmed once, since a host stall can fail a
        // step the daemon sustains.  Then every fine step between the best
        // passing rate and the next coarse one; the highest that passes
        // counts.
        let mut passes = |run: &mut Self, rate: f64| -> Result<bool, String> {
            Ok(step(run, rate)? || step(run, rate)?)
        };
        let mut best = 0.0f64;
        let mut rate = start_rps;
        if passes(self, rate)? {
            best = rate;
            loop {
                rate *= COARSE_STEP;
                if !passes(self, rate)? {
                    break;
                }
                best = rate;
            }
        } else {
            for _ in 0..6 {
                rate /= COARSE_STEP;
                if passes(self, rate)? {
                    best = rate;
                    break;
                }
            }
        }
        let coarse = best;
        let mut fine = coarse * FINE_STEP;
        while coarse > 0.0 && fine < coarse * COARSE_STEP * 0.999 {
            if step(self, fine)? {
                best = fine;
            }
            fine *= FINE_STEP;
        }
        if let Some((daemon, conns, _)) = lane.take() {
            drop(conns);
            daemon.stop()?;
        }
        Ok((best, steps))
    }
}

pub struct Ctx<'a> {
    pub bin: &'a Path,
    pub work: &'a Path,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub fn run(ctx: &Ctx, mixed: bool, report: &mut Report) -> Result<Tally, String> {
    // Daemon caches live in the work directory; leftovers from another run
    // would turn fresh kernels into disk hits.
    std::fs::create_dir_all(ctx.work).map_err(|e| e.to_string())?;
    if std::fs::read_dir(ctx.work)
        .map_err(|e| e.to_string())?
        .next()
        .is_some()
    {
        return Err(format!(
            "work directory {} is not empty",
            ctx.work.display()
        ));
    }
    let mut taken = HashSet::new();
    let draws = gen::catalog(ctx.seed, CATALOG, &mut taken);
    println!(
        "catalog: {} kernels (L1 capacity {L1_CAPACITY}, L0 capacity {L0_CAPACITY})",
        draws.len()
    );
    let mut sources = Sources::default();
    let mut catalog = Vec::with_capacity(draws.len());
    for (i, draw) in draws.into_iter().enumerate() {
        catalog.push(sources.add(
            format!("c{i}"),
            draw.kernel.source.clone(),
            i,
            Class::Catalog,
        ));
        sources.kernels.push(draw.kernel);
    }
    let mut rng = Rng::new(ctx.seed, 4);
    let mut by_rank = catalog.clone();
    rng.shuffle(&mut by_rank);
    let cdf = (1..=by_rank.len())
        .scan(0.0, |acc, rank| {
            *acc += 1.0 / (rank as f64).powf(ZIPF_S);
            Some(*acc)
        })
        .collect();
    let mix = Mix {
        mixed,
        rng,
        cdf,
        by_rank,
        slot: 0,
        fresh: gen::Fresh::new(ctx.seed),
        fresh_sent: 0,
        taken,
        variants_of: HashMap::new(),
    };
    let mut run = Run {
        bin: ctx.bin,
        work: ctx.work,
        pristine: ctx.work.join("catalog-cache"),
        sources,
        catalog,
        mix,
        digests: Digests::default(),
        tally: Tally::default(),
        setups: Vec::new(),
    };

    // The catalog cache, written by an untimed daemon.
    {
        let writer = Daemon::spawn(ctx.bin, &run.pristine, 0)?;
        let answers = Conn::connect(writer.addr)?.pass(
            &run.sources.templates,
            &run.catalog,
            PASS_WINDOW,
            &mut run.digests,
        )?;
        run.book(&answers, true);
        writer.stop()?;
    }

    // Nominal rounds spread over the run (see [`ROUNDS`]); between them the
    // catalog's oracle, then the rate ladder (untraced) or a traced phase on
    // a daemon started with --trace-sample 1 (traced).
    let seconds = ctx.seconds as f64;
    let nominal_rps = if mixed {
        MIXED_NOMINAL_RPS
    } else {
        WARM_NOMINAL_RPS
    };
    let round_s = NOMINAL_SHARE * seconds / ROUNDS.iter().sum::<usize>() as f64;
    let mut rounds = Rounds::default();
    rounds.measure(&mut run, nominal_rps, round_s, ROUNDS[0])?;
    let catalog_oracle = oracle_of(&run.sources, &run.catalog);
    rounds.measure(&mut run, nominal_rps, round_s, ROUNDS[1])?;
    let traced_p50 = if ctx.trace {
        let mut daemon = run.setup(1)?;
        let mut conns = [Conn::connect(daemon.addr)?, Conn::connect(daemon.addr)?];
        let mut answered = Answered::after_setup(&run.catalog);
        let plan = run.mix.plan(&mut run.sources, nominal_rps, round_s);
        let id_base = daemon.next_id;
        let (phase, lat) = run.phase(&mut daemon, &mut conns, &plan, &mut answered, !mixed)?;
        run.book(&phase.answers, true);
        let dump = Conn::connect(daemon.addr)?.dump()?;
        span_metrics(&dump, &plan, &phase, id_base, report)?;
        drop(conns);
        daemon.stop()?;
        Some(windowed_quantile(&lat.all, 0.5))
    } else {
        let step_s = seconds / 25.0;
        let (max_rate, steps) = run.ladder(nominal_rps, step_s)?;
        println!(
            "ladder: {steps} steps of {step_s:.2} s, highest passing rate {max_rate:.0} req/s"
        );
        report.put("max_rate_rps", max_rate, "req/s");
        None
    };
    rounds.measure(&mut run, nominal_rps, round_s, ROUNDS[2])?;
    let untraced_p50 = rounds.report(&run, nominal_rps, report);
    if let Some(traced_p50) = traced_p50 {
        report.put(
            "obs.trace_overhead",
            ratio(traced_p50, untraced_p50) - 1.0,
            "ratio",
        );
    }

    let column =
        |f: fn(&SetupTimes) -> f64| median(&mut run.setups.iter().map(f).collect::<Vec<_>>());
    report.put("setup_s", column(|s| s.setup_s), "s");
    report.put("setup.boot_ms", column(|s| s.boot_ms), "ms");
    report.put("setup.warm_ms", column(|s| s.warm_ms), "ms");
    report.put("persist.loads", column(|s| s.persist_loads), "count");
    check_against_oracle(run, catalog_oracle, mixed, report)
}

/// The nominal-rate rounds of a run, with their `/proc` and registry deltas
/// summed over exactly the measured phases.
#[derive(Default)]
struct Rounds {
    /// Per round: windowed median and p99 over every request, requests per
    /// daemon CPU-second, and the daemon's peak RSS.
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    ops_per_cpu_s: Vec<f64>,
    rss_mb: Vec<f64>,
    latencies: Latencies,
    requests: usize,
    cpu_us: f64,
    syscalls: u64,
    wakeups: u64,
    /// Registry counter growth by name.
    counters: HashMap<&'static str, f64>,
    map_latency: Buckets,
    queue_wait: Buckets,
    fresh: usize,
    variants: usize,
    variant_post_hits: usize,
}

/// Registry counters summed over the rounds.
const ROUND_COUNTERS: [&str; 4] = [
    "cache.post.misses",
    "cache.post.hits",
    "serve.rejected",
    "serve.l0_hits",
];

impl Rounds {
    /// `count` rounds, one after the other.
    fn measure(
        &mut self,
        run: &mut Run,
        rate: f64,
        seconds: f64,
        count: usize,
    ) -> Result<(), String> {
        (0..count).try_for_each(|_| self.round(run, rate, seconds))
    }

    /// One round: a freshly set up daemon answers `rate` req/s for
    /// `seconds`, then stops.
    fn round(&mut self, run: &mut Run, rate: f64, seconds: f64) -> Result<(), String> {
        let mut daemon = run.setup(0)?;
        let mut conns = [Conn::connect(daemon.addr)?, Conn::connect(daemon.addr)?];
        let mut control = Conn::connect(daemon.addr)?;
        let mut answered = Answered::after_setup(&run.catalog);
        let plan = run.mix.plan(&mut run.sources, rate, seconds);
        let metrics_before = control.metrics()?;
        let proc_before = ProcCounters::read(daemon.pid)?;
        let pin = !run.mix.mixed;
        let (phase, lat) = run.phase(&mut daemon, &mut conns, &plan, &mut answered, pin)?;
        let proc = ProcCounters::read(daemon.pid)?.since(&proc_before);
        let metrics_after = control.metrics()?;
        run.book(&phase.answers, true);
        let lateness_p50_us = lat.lateness_us(0.5);
        if lateness_p50_us > LATENESS_LIMIT_US {
            return Err(format!(
                "generator fell behind its schedule (median lateness {lateness_p50_us:.0} us)"
            ));
        }
        self.rss_mb
            .push(procfs::peak_rss_mb(&daemon.pid.to_string())?);
        drop((conns, control));
        daemon.stop()?;

        self.p50_us.push(windowed_quantile(&lat.all, 0.5));
        self.p99_us.push(windowed_quantile(&lat.all, 0.99));
        self.ops_per_cpu_s
            .push(ratio(plan.len() as f64, proc.cpu_us / 1e6));
        self.requests += plan.len();
        self.cpu_us += proc.cpu_us;
        self.syscalls += proc.syscalls;
        self.wakeups += proc.wakeups;
        for name in ROUND_COUNTERS {
            let growth =
                counter(&metrics_after, name).saturating_sub(counter(&metrics_before, name));
            *self.counters.entry(name).or_default() += growth as f64;
        }
        for (total, name) in [
            (&mut self.map_latency, "serve.map.latency"),
            (&mut self.queue_wait, "serve.queue.wait"),
        ] {
            let growth = histogram_growth(&metrics_before, &metrics_after, name);
            total.iter_mut().zip(growth).for_each(|(t, g)| *t += g);
        }
        let class_of = |send: &Send| run.sources.class[send.template as usize];
        self.fresh += plan
            .iter()
            .filter(|s| class_of(s) == Class::New)
            .map(|s| s.template)
            .collect::<HashSet<u32>>()
            .len();
        for (i, send) in plan.iter().enumerate() {
            if class_of(send) == Class::Variant {
                self.variants += 1;
                if phase.answers[i] == Answer::Served(CacheFlavor::PostTransformHit) {
                    self.variant_post_hits += 1;
                }
            }
        }
        self.latencies.append(lat);
        Ok(())
    }

    /// Reports every round metric; returns the rounds' median latency.
    fn report(&self, run: &Run, rate: f64, report: &mut Report) -> f64 {
        let mid = |values: &[f64]| median(&mut values.to_vec());
        let p50 = mid(&self.p50_us);
        report.put("latency_p50_us", p50, "us");
        report.put("latency_p99_us", mid(&self.p99_us), "us");
        // Requests per CPU-second of the daemon: its capacity per core, which
        // unlike `max_rate_rps` does not move with the host's stalls.
        report.put("ops_per_cpu_s", mid(&self.ops_per_cpu_s), "1/s");
        report.put("rss_peak_mb", mid(&self.rss_mb), "MiB");

        let lat = &self.latencies;
        let plain = |samples: &[f32], q: f64| quantile(&mut samples.to_vec(), q);
        report.put("hit_latency_p50_us", plain(&lat.hit, 0.5), "us");
        report.put("hit_latency_p99_us", plain(&lat.hit, 0.99), "us");
        if run.mix.mixed {
            report.put("miss_latency_p50_us", plain(&lat.miss, 0.5), "us");
            report.put("miss_latency_p99_us", plain(&lat.miss, 0.99), "us");
        }
        let requests = self.requests as f64;
        let count = |name: &str| self.counters.get(name).copied().unwrap_or(0.0);
        let flow_runs = count("cache.post.misses");
        report.put(
            "server.cpu_us_per_req",
            ratio(self.cpu_us, requests),
            "us/req",
        );
        report.put(
            "server.syscalls_per_req",
            ratio(self.syscalls as f64, requests),
            "syscalls/req",
        );
        report.put(
            "server.wakeups_per_req",
            ratio(self.wakeups as f64, requests),
            "wakeups/req",
        );
        report.put(
            "server.map_latency_p99_us",
            histogram_p99(&self.map_latency),
            "us",
        );
        report.put(
            "server.queue_wait_p99_us",
            histogram_p99(&self.queue_wait),
            "us",
        );
        report.put("server.rejected", count("serve.rejected"), "count");
        report.put(
            "cache.l0_share",
            ratio(count("serve.l0_hits"), requests),
            "ratio",
        );
        report.put(
            "cache.flow_runs_per_new",
            ratio(flow_runs, self.fresh as f64),
            "ratio",
        );
        report.put(
            "cache.post_hit_share",
            ratio(
                count("cache.post.hits"),
                count("cache.post.hits") + flow_runs,
            ),
            "ratio",
        );
        report.put("gen.lateness_p99_us", lat.lateness_us(0.99), "us");
        println!(
            "nominal rounds: {} x {} requests at {rate} req/s (p50 {:.1?} us, p99 {:.0?} us): \
             {} hits, {} misses ({} fresh kernels, {} variants of which {} post-transform hits), \
             {flow_runs} flow runs, generator lateness p50 {:.1} us",
            self.p50_us.len(),
            self.requests / self.p50_us.len().max(1),
            self.p50_us,
            self.p99_us,
            lat.hit.len(),
            lat.miss.len(),
            self.fresh,
            self.variants,
            self.variant_post_hits,
            lat.lateness_us(0.5),
        );
        p50
    }
}

/// Span breakdown of the traced requests the daemon's trace ring retained.
fn span_metrics(
    dump: &str,
    plan: &[Send],
    phase: &Phase,
    id_base: u64,
    report: &mut Report,
) -> Result<(), String> {
    let doc = fpfa_obs::json::parse(dump)?;
    let traces = doc
        .as_object()
        .and_then(|o| o.get("traces"))
        .and_then(|t| t.as_array())
        .ok_or("dump has no traces array")?;
    let mut by_id: HashMap<u64, HashMap<&str, u64>> = HashMap::new();
    for event in traces {
        let obj = event.as_object().ok_or("trace event is not an object")?;
        let field = |key: &str| {
            obj.get(key)
                .ok_or_else(|| format!("trace event without {key}"))
        };
        let id = field("trace_id")?.as_u64().ok_or("trace_id")?;
        let name = field("name")?.as_str().ok_or("name")?;
        let dur = field("dur_us")?.as_u64().ok_or("dur_us")?;
        *by_id.entry(id).or_default().entry(name).or_default() += dur;
    }
    let mut stage_us = [0.0f64; 7];
    let (mut queue, mut service, mut respond, mut unaccounted) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (id, spans) in &by_id {
        let Some(i) = id
            .checked_sub(id_base)
            .and_then(|i| usize::try_from(i).ok())
            .filter(|&i| i < plan.len() && spans.contains_key("request"))
        else {
            continue;
        };
        let span = |name: &str| spans.get(name).copied().unwrap_or(0) as f64;
        // A mapping hit ran no stage; the daemon bridges the stage timings
        // stored with the cached result, so they are not counted again.
        if phase.answers[i] != Answer::Served(CacheFlavor::MappingHit) {
            for (slot, stage) in crate::compile::STAGES.iter().enumerate() {
                stage_us[slot] += span(stage);
            }
        }
        let (q, s, r) = (span("queue.wait"), span("map.service"), span("respond"));
        queue.push(q);
        service.push(s);
        respond.push(r);
        // Client-side time from the actual send to receipt.
        let client_us = f64::from(phase.latency_us[i]) - f64::from(phase.lateness_us[i]);
        if client_us.is_finite() && client_us > 0.0 {
            unaccounted.push((client_us - (q + s + r)) / client_us);
        }
    }
    for (slot, stage) in crate::compile::STAGES.iter().enumerate() {
        report.put(&format!("{stage}.self_ms"), stage_us[slot] / 1e3, "ms");
    }
    report.put("span.queue_wait_us", median(&mut queue), "us");
    report.put("span.map_service_us", median(&mut service), "us");
    report.put("span.respond_us", median(&mut respond), "us");
    report.put("serve.unaccounted_share", median(&mut unaccounted), "ratio");
    println!(
        "traced phase: {} traced requests retained by the daemon's trace ring",
        queue.len()
    );
    Ok(())
}

/// One-shot answers for `templates`, on two threads; catalog sources are
/// also simulated, since the quality numbers describe the catalog — the
/// served working set.
fn oracle_of(sources: &Sources, templates: &[u32]) -> HashMap<u32, Result<Quality, String>> {
    let answers = oracle::on_two_threads(templates.len(), |i| {
        let t = templates[i] as usize;
        oracle::one_shot(
            &sources.kernels[sources.kernel_of[t]],
            &sources.sources[t],
            sources.class[t] == Class::Catalog,
        )
    });
    templates.iter().copied().zip(answers).collect()
}

/// Checks every served digest against a one-shot `Mapper::map_source` of the
/// same source (`expected` holds the answers computed earlier; the rest are
/// computed now, all outside every measured phase), and — for the
/// mixed workload — that the generator's fresh kernels are full misses and
/// its variants post-transform hits against a scratch `MappingService`.
fn check_against_oracle(
    run: Run,
    mut expected: HashMap<u32, Result<Quality, String>>,
    mixed: bool,
    report: &mut Report,
) -> Result<Tally, String> {
    let Run {
        sources,
        catalog,
        digests,
        mut tally,
        ..
    } = run;
    let served: Vec<(u32, u64, u64)> = digests.served().collect();
    let rest: Vec<u32> = served
        .iter()
        .map(|&(t, _, _)| t)
        .filter(|t| !expected.contains_key(t))
        .collect();
    expected.extend(oracle_of(&sources, &rest));
    let mut qualities: Vec<Quality> = Vec::with_capacity(catalog.len());
    for &(t, digest, count) in &served {
        match &expected[&t] {
            Ok(quality) if quality.digest == digest => {
                if sources.class[t as usize] == Class::Catalog {
                    qualities.push(*quality);
                }
            }
            Ok(quality) => {
                eprintln!(
                    "served digest {digest:#x} differs from the one-shot {:#x}",
                    quality.digest
                );
                tally.wrong += 1;
                tally.failed += count;
            }
            Err(e) => {
                eprintln!("oracle: {e}");
                tally.wrong += 1;
                tally.failed += count;
            }
        }
    }
    tally.wrong += digests.inconsistent;
    tally.failed += digests.inconsistent;
    oracle::quality_metrics(report, &qualities);

    if mixed {
        let service = fpfa_core::MappingService::with_capacity(
            fpfa_core::pipeline::Mapper::new(),
            4 * L0_CAPACITY,
        );
        let specs: Vec<fpfa_core::flow::KernelSpec> = catalog
            .iter()
            .map(|&t| {
                let t = t as usize;
                fpfa_core::flow::KernelSpec::new(
                    sources.names[t].clone(),
                    sources.sources[t].clone(),
                )
            })
            .collect();
        for chunk in specs.chunks(64) {
            if service.map_many(chunk).failed() > 0 {
                return Err("a scratch service failed to map the catalog".to_string());
            }
        }
        let (mut misses, mut post_hits, mut others) = (0, 0, 0);
        for &(t, _, _) in &served {
            let outcome = match sources.class[t as usize] {
                Class::Catalog => continue,
                class => (
                    class,
                    service
                        .map_source(&sources.sources[t as usize])
                        .map_err(|e| e.to_string())?
                        .report
                        .cache,
                ),
            };
            match outcome {
                (Class::New, CacheOutcome::Miss) => misses += 1,
                (Class::Variant, CacheOutcome::PostTransformHit) => post_hits += 1,
                (class, outcome) => {
                    others += 1;
                    eprintln!(
                        "generator: {class:?} kernel {} was a {outcome} against a scratch service",
                        sources.kernels[sources.kernel_of[t as usize]].name
                    );
                }
            }
        }
        println!(
            "generator: against a scratch service, {misses} fresh kernels are full misses, \
             {post_hits} variants are post-transform hits, {others} are neither"
        );
        tally.wrong += others;
    }
    Ok(tally)
}
