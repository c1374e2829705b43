//! `serve-stream`: a closed loop over `Server::submit` / `recv`. Callers
//! wait for their replies, so at most [`IN_FLIGHT`] jobs are outstanding and
//! a slow server receives less load; one operation is one job, and a job's
//! latency runs from its own `submit`.

use std::collections::BTreeMap;
use std::time::Instant;

use cosma::api::RunSession;
use cosma::problem::MmmProblem;
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::machine::{Placement, Topology};
use serve::{
    AlgoChoice, AutoPlanner, CacheStats, JobRequest, JobResult, PlanCache, PlanKey, Server, ServerConfig,
};

use crate::calibrate::Calibrator;
use crate::checks::{execution_failures, Reference, SimTuple};
use crate::procfs::cpu_seconds;
use crate::run::{repeat_set_up, Measured, Opts};
use crate::spec::Workload;
use crate::stats::{median, splitmix64_at};
use crate::trace::{SpanId, Tracer};

/// Jobs outstanding at any moment. With the server's two drivers this keeps
/// both busy and nothing queued; `nproc` is 2 on the reference box, and the
/// generator itself only runs between a reply and the next submit.
pub const IN_FLIGHT: usize = 2;
/// Jobs served between two turns of the calibrator: about 0.4 s of stream.
const CHUNK: u64 = 500;
/// Share of jobs drawn from the repeating roster (plan-cache reads); the
/// rest carry a key that never repeats (plan-cache writes, LRU eviction).
const HOT_PERCENT: u64 = 85;
/// Operand prototypes per roster entry. Jobs clone a prototype, so the
/// generator holds 24 operand pairs however long the stream is.
const VARIANTS: usize = 2;
/// `mem_words` of the roster's problems; a cold job's is this plus a
/// never-repeated offset, which changes its plan key and nothing else.
const HOT_MEM_WORDS: usize = 1 << 14;

/// What job `j` of the stream is, as a pure function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    /// Index into the roster.
    pub combo: usize,
    /// Which operand prototype of the roster entry.
    pub variant: usize,
    /// A never-repeated plan key rather than the roster's.
    pub cold: bool,
}

pub fn draw(seed: u64, j: u64, combos: usize) -> Draw {
    let r = splitmix64_at(seed, j);
    Draw {
        cold: r % 100 >= HOT_PERCENT,
        combo: ((r >> 8) % combos as u64) as usize,
        variant: ((r >> 40) % VARIANTS as u64) as usize,
    }
}

struct Prototype {
    a: Matrix,
    b: Matrix,
    reference: Reference,
}

/// The traffic plan: the roster, its operand prototypes with their
/// reference products, and the seed the jobs are drawn with.
pub struct Traffic {
    seed: u64,
    combos: Vec<(MmmProblem, AlgoChoice)>,
    prototypes: Vec<Prototype>,
}

impl Traffic {
    pub fn new(seed: u64) -> Traffic {
        let combos = bench::serve_bench::unique_combos();
        let prototypes = (0..combos.len() * VARIANTS)
            .map(|i| {
                let prob = &combos[i / VARIANTS].0;
                assert_eq!(
                    prob.mem_words, HOT_MEM_WORDS,
                    "cold keys are offsets from the roster's memory size"
                );
                let a = Matrix::deterministic(prob.m, prob.k, seed * 1000 + 2 * i as u64);
                let b = Matrix::deterministic(prob.k, prob.n, seed * 1000 + 2 * i as u64 + 1);
                let reference = Reference::of(&a, &b, seed);
                Prototype { a, b, reference }
            })
            .collect();
        Traffic {
            seed,
            combos,
            prototypes,
        }
    }

    fn draw(&self, j: u64) -> Draw {
        draw(self.seed, j, self.combos.len())
    }

    fn prototype(&self, d: Draw) -> &Prototype {
        &self.prototypes[d.combo * VARIANTS + d.variant]
    }

    /// Job `j`: default knobs, so the backend is what tenants get
    /// (`ExecBackend::auto`, blocking worlds over the shared pool).
    pub fn job(&self, j: u64) -> JobRequest {
        let d = self.draw(j);
        let (mut prob, choice) = self.combos[d.combo].clone();
        if d.cold {
            prob.mem_words = HOT_MEM_WORDS + 1 + j as usize;
        }
        let proto = self.prototype(d);
        JobRequest::new(j, prob, proto.a.clone(), proto.b.clone()).choice(choice)
    }
}

/// What the closed loop tells its observer.
pub enum Event<'a> {
    /// Job `id` is about to be submitted.
    Submitting(u64),
    /// A job came back, `latency_s` after its submit.
    Finished(&'a JobResult, f64),
}

/// Serve jobs `jobs` of `traffic` with [`IN_FLIGHT`] outstanding. Returns
/// seconds from the first submit to the last result.
pub fn drive(
    server: &Server,
    traffic: &Traffic,
    jobs: std::ops::Range<u64>,
    mut observe: impl FnMut(Event<'_>),
) -> f64 {
    let (first, end) = (jobs.start, jobs.end);
    // Submit time of every job sent so far, by `id - first`.
    let mut sent_at: Vec<Instant> = Vec::with_capacity((end - first) as usize);
    let submit_next = |sent_at: &mut Vec<Instant>, observe: &mut dyn FnMut(Event<'_>)| {
        let id = first + sent_at.len() as u64;
        if id < end {
            let job = traffic.job(id);
            observe(Event::Submitting(id));
            sent_at.push(Instant::now());
            server.submit(job);
        }
    };
    let start = Instant::now();
    for _ in 0..IN_FLIGHT {
        submit_next(&mut sent_at, &mut observe);
    }
    let mut wall_s = 0.0;
    for _ in first..end {
        let result = server.recv().expect("a live server returns one result per job");
        let sent = sent_at.get(result.id.wrapping_sub(first) as usize);
        let latency_s = sent.expect("results carry the id of a submitted job").elapsed().as_secs_f64();
        wall_s = start.elapsed().as_secs_f64();
        // Refill before looking at the result, so the server is never short of work while the generator checks.
        submit_next(&mut sent_at, &mut observe);
        observe(Event::Finished(&result, latency_s));
    }
    wall_s
}

/// Per-roster-entry expectations and running sums of the jobs checked.
struct Checker {
    /// Simulated statistics of the first job served for each roster entry;
    /// every later job of the entry, cold ones included, must repeat them.
    expect: Vec<Option<SimTuple>>,
    retries: u64,
    sim: [u64; 3],
}

impl Checker {
    fn failures(&mut self, traffic: &Traffic, result: &JobResult) -> Vec<String> {
        self.retries += result.attempts.saturating_sub(1) as u64;
        let out = match &result.outcome {
            Ok(out) => out,
            Err(e) => return vec![format!("the job returned an error: {e}")],
        };
        let d = traffic.draw(result.id);
        let got = SimTuple::of(&out.report.stats);
        self.sim[0] += got.words;
        self.sim[1] += got.msgs;
        self.sim[2] += got.flops;
        let want = *self.expect[d.combo].get_or_insert(got);
        let failed = execution_failures(&out.report, &out.plan, &traffic.prototype(d).reference, Some(&want));
        failed.into_iter().map(str::to_string).collect()
    }
}

struct Ready {
    server: Server,
    traffic: Traffic,
    checker: Checker,
}

fn server() -> Result<Server, String> {
    let config = ServerConfig {
        drivers: 2,
        pool_workers: 2,
        ..ServerConfig::default()
    };
    Server::new(baselines::registry(), config).map_err(|e| format!("starting the server: {e}"))
}

fn set_up(seed: u64, warm_up: u64) -> Result<Ready, String> {
    let mut ready = Ready {
        server: server()?,
        traffic: Traffic::new(seed),
        checker: Checker {
            expect: Vec::new(),
            retries: 0,
            sim: [0; 3],
        },
    };
    ready.checker.expect = vec![None; ready.traffic.combos.len()];
    // The warm-up stream fills the plan cache with the roster, the arena with
    // buffers and `expect` with each roster entry's simulated statistics.
    let mut failures = Vec::new();
    drive(&ready.server, &ready.traffic, 0..warm_up, |event| {
        if let Event::Finished(result, _) = event {
            failures.extend(
                ready
                    .checker
                    .failures(&ready.traffic, result)
                    .into_iter()
                    .map(|f| format!("job {}: {f}", result.id)),
            );
        }
    });
    if !failures.is_empty() {
        return Err(format!("warm-up stream failed its checks: {}", failures.join("; ")));
    }
    ready.checker.retries = 0;
    ready.checker.sim = [0; 3];
    Ok(ready)
}

fn cache_delta(after: CacheStats, before: CacheStats) -> [f64; 3] {
    [
        (after.hits - before.hits) as f64,
        (after.misses - before.misses) as f64,
        (after.evictions - before.evictions) as f64,
    ]
}

pub fn run(
    w: &Workload,
    jobs: u64,
    warm_up: u64,
    opts: &Opts,
    cal: &mut Calibrator,
) -> Result<Measured, String> {
    let mut out = Measured::new(w.name);
    let (mut ready, setup_s) = repeat_set_up(cal, w.setup_repeats, || set_up(opts.seed, warm_up))?;
    out.setup_s = setup_s;
    let (server, traffic, checker) = (&ready.server, &ready.traffic, &mut ready.checker);

    let untraced = if opts.trace { jobs.div_ceil(2) } else { jobs };
    let cache_before = server.cache_stats();
    // The stream is served in chunks with the loop drained in between, so
    // the calibrator gets its turns while the server is idle rather than
    // beside it; a drain costs one job's worth of overlap per chunk.
    let (mut wall_per_job, mut cpu_per_job) = (Vec::new(), Vec::new());
    let mut next = warm_up;
    while next < warm_up + untraced {
        let chunk = next..(next + CHUNK).min(warm_up + untraced);
        let chunk_jobs = (chunk.end - chunk.start) as f64;
        next = chunk.end;
        let cpu_before = cpu_seconds();
        let wall_s = drive(server, traffic, chunk, |event| {
            if let Event::Finished(result, latency_s) = event {
                out.lat_s.push(latency_s);
                out.tally.record(result.id, &checker.failures(traffic, result));
            }
        });
        cpu_per_job.push((cpu_seconds() - cpu_before) / chunk_jobs);
        wall_per_job.push(wall_s / chunk_jobs);
        cal.after(wall_s);
    }
    // The stream keeps both of the guest's cores busy, so whatever else wants
    // a core for a second slows a chunk by a third. The median chunk is what
    // the stream costs when it has the cores it was given; a plain sum had
    // ten runs of one binary spread by 38 %.
    out.wall_s = median(&wall_per_job) * untraced as f64;
    out.cpu_s = median(&cpu_per_job) * untraced as f64;
    out.work = untraced as f64;

    if opts.trace {
        let mut tracer = Tracer::new();
        let mut open: BTreeMap<u64, SpanId> = BTreeMap::new();
        let traced = warm_up + untraced..warm_up + jobs.max(untraced + 1);
        drive(server, traffic, traced, |event| match event {
            Event::Submitting(id) => drop(open.insert(id, tracer.begin_detached("job", id))),
            Event::Finished(result, _) => {
                tracer.end(open.remove(&result.id).expect("a finished job was submitted"));
                out.tally.record(result.id, &checker.failures(traffic, result));
            }
        });
        let lat_p50_s = median(&out.lat_s);
        out.layers = layer_probes(traffic, lat_p50_s, &mut tracer);
        let [hits, misses, evictions] = cache_delta(server.cache_stats(), cache_before);
        out.layers.insert("serve.cache.hits", hits);
        out.layers.insert("serve.cache.misses", misses);
        out.layers.insert("serve.cache.evictions", evictions);
        out.layers.insert("serve.cache.hit_rate", hits / (hits + misses).max(1.0));
        out.layers.insert("serve.driver.retries", checker.retries as f64);
        out.layers.insert("serve.arena.hit_rate", server.arena_stats().hit_rate());
        out.layers.insert("sim.words", checker.sim[0] as f64);
        out.layers.insert("sim.msgs", checker.sim[1] as f64);
        out.layers.insert("sim.flops", checker.sim[2] as f64);
        out.finish_trace(&tracer, w.name, "job")?;
    }
    Ok(out)
}

/// The serving layers called directly, without a server around them.
fn layer_probes(traffic: &Traffic, lat_p50_s: f64, tracer: &mut Tracer) -> BTreeMap<&'static str, f64> {
    let model = CostModel::piz_daint_two_sided();
    let planner = AutoPlanner::new(baselines::registry());
    let key_of = |prob: &MmmProblem, choice: &AlgoChoice| {
        PlanKey::try_new(prob, &model, true, None, choice, &Topology::Flat, Placement::Block)
            .expect("the model is finite")
    };
    let probes = tracer.begin("probes", 0);
    let combos = &traffic.combos;

    const KEY_REPS: usize = 100_000;
    let ((), key_s) = tracer.time("serve.key.build", 0, || {
        for i in 0..KEY_REPS {
            let (prob, choice) = &combos[i % combos.len()];
            std::hint::black_box(key_of(prob, choice));
        }
    });

    // A cache shaped like the server's default, warm with the roster.
    let cache = PlanCache::with_default_shape();
    let mut selected = Vec::new();
    for (prob, choice) in combos {
        let (planned, _) = cache
            .get_or_try_insert_with(key_of(prob, choice), || planner.select(prob, &model, true, choice))
            .expect("the roster plans");
        selected.push(planned.selection.algo);
    }
    let keys: Vec<PlanKey> = combos.iter().map(|(prob, choice)| key_of(prob, choice)).collect();
    const HIT_REPS: usize = 200_000;
    let ((), hit_s) = tracer.time("serve.cache.hit", 0, || {
        for i in 0..HIT_REPS {
            std::hint::black_box(cache.get(&keys[i % keys.len()]));
        }
    });

    // Fresh keys: the miss path, the cold selection included as a child span.
    for i in 0..64u64 {
        let (mut prob, choice) = combos[i as usize % combos.len()].clone();
        prob.mem_words = 2 * HOT_MEM_WORDS + i as usize;
        let miss = tracer.begin("serve.cache.miss", i);
        let inserted = cache.get_or_try_insert_with(key_of(&prob, &choice), || {
            tracer
                .time("serve.auto.select", i, || planner.select(&prob, &model, true, &choice))
                .0
        });
        tracer.end(miss);
        inserted.expect("the roster plans at any memory size above its own");
    }

    // The roster's jobs through a plain session: what a job costs with no server around it.
    for rep in 0..5 {
        for (i, ((prob, _), algo)) in combos.iter().zip(&selected).enumerate() {
            let proto = &traffic.prototypes[i * VARIANTS];
            let session = RunSession::new(*prob).registry(baselines::registry()).algorithm(*algo);
            let (report, _) =
                tracer.time("serve.driver.direct_job", rep, || session.execute(&proto.a, &proto.b));
            report.expect("the roster executes");
        }
    }
    tracer.end(probes);

    let direct_s = median(&tracer.durations_s("serve.driver.direct_job"));
    BTreeMap::from([
        ("serve.key.build_ns", key_s * 1e9 / KEY_REPS as f64),
        ("serve.cache.hit_ns", hit_s * 1e9 / HIT_REPS as f64),
        ("serve.cache.miss_us", median(&tracer.durations_s("serve.cache.miss")) * 1e6),
        ("serve.driver.direct_job_ms", direct_s * 1e3),
        ("serve.driver.overhead_us", (lat_p50_s - direct_s) * 1e6),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, n: u64) -> Vec<Draw> {
        (0..n).map(|j| draw(seed, j, 12)).collect()
    }

    #[test]
    fn the_same_seed_draws_the_same_jobs() {
        assert_eq!(draws(1, 2_000), draws(1, 2_000));
        let (one, two) = (Traffic::new(1), Traffic::new(1));
        for j in [0, 1, 17, 999] {
            let (x, y) = (one.job(j), two.job(j));
            assert_eq!((x.id, x.prob, &x.choice), (y.id, y.prob, &y.choice));
            assert_eq!((x.a, x.b), (y.a, y.b));
        }
    }

    #[test]
    fn another_seed_draws_other_jobs_with_the_same_hot_cold_split() {
        let (one, two) = (draws(1, 12_000), draws(2, 12_000));
        assert_ne!(one, two);
        let cold_share = |d: &[Draw]| d.iter().filter(|d| d.cold).count() as f64 / d.len() as f64;
        assert!((cold_share(&one) - 0.15).abs() < 0.01, "{}", cold_share(&one));
        assert!((cold_share(&one) - cold_share(&two)).abs() < 0.01);
        // Every roster entry and both prototypes are in use.
        for combo in 0..12 {
            for variant in 0..VARIANTS {
                assert!(one.iter().any(|d| d.combo == combo && d.variant == variant));
            }
        }
    }

    #[test]
    fn cold_jobs_never_repeat_a_plan_key() {
        let traffic = Traffic::new(3);
        let mut cold_mem = std::collections::BTreeSet::new();
        for j in 0..500 {
            let job = traffic.job(j);
            if traffic.draw(j).cold {
                assert!(job.prob.mem_words > HOT_MEM_WORDS);
                assert!(cold_mem.insert(job.prob.mem_words));
            } else {
                assert_eq!(job.prob.mem_words, HOT_MEM_WORDS);
            }
        }
    }

    /// Serve a short stream and return the plan cache's misses.
    fn misses_of(seed: u64) -> u64 {
        let ready = set_up(seed, 40).unwrap();
        let mut failed = 0;
        let mut checker = ready.checker;
        drive(&ready.server, &ready.traffic, 40..160, |event| {
            if let Event::Finished(result, _) = event {
                failed += usize::from(!checker.failures(&ready.traffic, result).is_empty());
            }
        });
        assert_eq!(failed, 0);
        ready.server.cache_stats().misses
    }

    #[test]
    fn the_same_seed_misses_the_plan_cache_equally_often() {
        // Only the first two jobs start at the same instant; were they the same roster entry, both
        // could miss before either inserts, and the count would depend on the race.
        let (first, second) = (draw(5, 0, 12), draw(5, 1, 12));
        assert!(first.combo != second.combo || first.cold || second.cold);
        assert_eq!(misses_of(5), misses_of(5));
    }
}
