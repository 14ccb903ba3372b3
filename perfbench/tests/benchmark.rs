//! Checks of the benchmark itself: deterministic counters repeat, each mix
//! loads the layer it was chosen for, and an injected 2× SAP slowdown is
//! attributed to the right layer and moves the right workload only. Run in
//! release mode: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use engine::{
    build_strategies_with, CancelToken, Engine, EngineConfig, Provenance, SessionStore, SolveJob,
    Strategy, StrategyBudget, StrategyOutcome,
};
use perfbench::e2e::{self, Limit, Target};
use perfbench::trace::{durations, Span, Tracer};
use perfbench::waterfall::{self, portfolio};
use perfbench::workloads::{Inputs, Mix};
use serve::{Service, ServiceConfig};

/// Serializes the tests: their timing checks must not share the cores with
/// each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs the wrapped strategy, then spins for as long again: every call
/// takes twice as long and does the same work.
#[derive(Debug)]
struct Twice(Arc<dyn Strategy>);

impl Strategy for Twice {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn provenance(&self) -> Provenance {
        self.0.provenance()
    }

    fn estimate(&self, job: &SolveJob<'_>) -> f64 {
        self.0.estimate(job)
    }

    fn run(
        &self,
        job: &SolveJob<'_>,
        budget: &StrategyBudget,
        cancel: &CancelToken,
    ) -> StrategyOutcome {
        let start = Instant::now();
        let out = self.0.run(job, budget, cancel);
        let until = Instant::now() + start.elapsed();
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        out
    }
}

/// The shipped roster, with SAP slowed down when `slow_sap`.
fn roster(slow_sap: bool, warm: Option<Arc<SessionStore>>) -> Vec<Arc<dyn Strategy>> {
    build_strategies_with(&portfolio(), warm)
        .into_iter()
        .map(|s| match s.provenance() {
            Provenance::Sap if slow_sap => Arc::new(Twice(s)) as Arc<dyn Strategy>,
            _ => s,
        })
        .collect()
}

/// The default engine, through the `with_strategies` extension point.
fn engine(slow_sap: bool) -> Engine {
    let config = EngineConfig::default();
    let store = Arc::new(SessionStore::new(config.warm_sessions));
    Engine::with_strategies(config, roster(slow_sap, Some(store)))
}

fn in_process(slow_sap: bool) -> Target {
    Target::InProcess(Arc::new(move || {
        Arc::new(Service::new(
            Arc::new(engine(slow_sap)),
            ServiceConfig::default(),
        ))
    }))
}

fn shipped_in_process() -> Target {
    Target::InProcess(Arc::new(|| {
        Arc::new(Service::with_engine_config(
            EngineConfig::default(),
            ServiceConfig::default(),
        ))
    }))
}

/// The bound `BENCHMARK.json` fixes for end-to-end metric `name`.
fn bound(name: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = proto::parse_json(&text).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .and_then(|m| m.as_arr())
        .expect("end_to_end list")
        .iter()
        .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(name))
        .and_then(|m| m.get("bound"))
        .and_then(|b| b.as_f64())
        .unwrap_or_else(|| panic!("no bound for {name}"))
}

fn traced(mix: Mix, sample: usize, cfg: waterfall::Config) -> (waterfall::Outcome, Vec<Span>) {
    let tracer = Arc::new(Tracer::default());
    let out = waterfall::run(
        &Inputs::new(mix, 11),
        &waterfall::Config { sample, ..cfg },
        &tracer,
    );
    assert!(out.problems.is_empty(), "{:?}", out.problems);
    (out, tracer.spans())
}

fn total_us(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum()
}

fn slowed(slow_sap: bool) -> waterfall::Config {
    waterfall::Config {
        sample: 0,
        roster: Arc::new(move || roster(slow_sap, None)),
        engine: Arc::new(move || engine(slow_sap)),
    }
}

#[test]
fn waterfall_attributes_a_slower_sap_to_sap_and_the_race() {
    let _serial = serial();
    // Interleaved pairs, summed: drift in machine speed hits both arms.
    let (mut base, mut slow) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        base.extend(traced(Mix::ColdSat, 120, slowed(false)).1);
        slow.extend(traced(Mix::ColdSat, 120, slowed(true)).1);
    }
    let delta = |name: &str| total_us(&slow, name) - total_us(&base, name);
    let sap = delta("engine.strategy.sap");
    assert!(
        sap > 0.5 * total_us(&base, "engine.strategy.sap"),
        "SAP spans must grow by most of their own time: +{sap:.0} us"
    );
    assert!(
        delta("engine.race") > 0.5 * sap,
        "the race must absorb the SAP slowdown"
    );
    let packing =
        delta("engine.strategy.packing").abs() + delta("engine.strategy.packing-dlx").abs();
    assert!(
        sap > packing,
        "the slowdown lands in SAP (+{sap:.0} us), not packing ({packing:.0} us)"
    );
}

/// `jobs_per_s`, latency p50 and timed-phase races of one 3 s in-process
/// run.
fn e2e_figures(mix: Mix, slow_sap: bool, seed: u64) -> (f64, f64, u64) {
    let cfg = e2e::Config {
        connections: 2,
        window: e2e::WINDOW,
        segments: 1,
        limit: Limit::Time(Duration::from_secs(3)),
        rss_after: usize::MAX,
        prefetch: 0,
    };
    let out =
        e2e::run(&in_process(slow_sap), &Inputs::new(mix, seed), cfg).expect("in-process run");
    (out.jobs_per_s(), out.latency_p50_us(), out.races)
}

type Figures = (f64, f64, u64);

/// Interleaved base and slowed runs of `mix`, one pair per seed: drift in
/// machine speed hits both arms.
fn pairs(mix: Mix) -> (Vec<Figures>, Vec<Figures>) {
    let (mut base, mut slow) = (Vec::new(), Vec::new());
    for seed in 40..45 {
        base.push(e2e_figures(mix, false, seed));
        slow.push(e2e_figures(mix, true, seed));
    }
    (base, slow)
}

fn med(runs: &[Figures], pick: fn(&Figures) -> f64) -> f64 {
    perfbench::stats::median(&runs.iter().map(pick).collect::<Vec<_>>())
}

#[test]
fn a_slower_sap_moves_cold_sat_and_leaves_zipf_hit_inside_its_bounds() {
    let _serial = serial();
    let (base, slow) = pairs(Mix::ColdSat);
    let (cold_base, cold_slow) = (med(&base, |f| f.0), med(&slow, |f| f.0));
    eprintln!("cold-sat jobs/s: base {cold_base:.0}, slowed SAP {cold_slow:.0}");
    assert!(
        cold_slow < (1.0 - bound("jobs_per_s")) * cold_base,
        "cold-sat jobs/s {cold_slow:.0} vs {cold_base:.0} must fall outside its bound"
    );
    let (base, slow) = pairs(Mix::ZipfHit);
    let races: u64 = base.iter().chain(&slow).map(|f| f.2).sum();
    assert_eq!(races, 0, "zipf-hit's timed phase runs no race");
    let (rate_base, rate_slow) = (med(&base, |f| f.0), med(&slow, |f| f.0));
    let (p50_base, p50_slow) = (med(&base, |f| f.1), med(&slow, |f| f.1));
    assert!(
        rate_slow > (1.0 - bound("jobs_per_s")) * rate_base,
        "zipf-hit jobs/s {rate_slow:.0} vs {rate_base:.0} must stay inside its bound"
    );
    assert!(
        p50_slow < (1.0 + bound("latency_p50_us")) * p50_base,
        "zipf-hit p50 {p50_slow:.1} vs {p50_base:.1} us must stay inside its bound"
    );
}

#[test]
fn quality_counters_repeat_exactly_and_each_mix_loads_its_layer() {
    let _serial = serial();
    for (mix, requests) in [
        (Mix::ColdSat, 400),
        (Mix::ZipfHit, 3000),
        (Mix::AdversarialCanon, 600),
        (Mix::CircuitSchedule, 30),
    ] {
        let target = shipped_in_process();
        let a = e2e::counters(&target, mix, 21, requests).expect("first run");
        let b = e2e::counters(&target, mix, 21, requests).expect("second run");
        assert_eq!(a, b, "{}: counters must repeat exactly", mix.name());
        assert_eq!(a.failed, 0, "{}: {:?}", mix.name(), a.problems);
        let held_out = e2e::counters(&target, mix, 22, requests).expect("held-out run");
        eprintln!(
            "{}: seed 21 mean_depth {:.4} proved {:.4} conflicts {} hit_rate {:.4}; held-out seed 22 mean_depth {:.4} proved {:.4} conflicts {} hit_rate {:.4}",
            mix.name(),
            a.mean_depth(),
            a.proved_frac(),
            a.conflicts,
            a.hit_rate(),
            held_out.mean_depth(),
            held_out.proved_frac(),
            held_out.conflicts,
            held_out.hit_rate()
        );
        match mix {
            Mix::ColdSat => assert_eq!(a.cache_hits, 0, "cold-sat must miss the cache"),
            Mix::ZipfHit | Mix::AdversarialCanon => {
                assert!(
                    a.hit_rate() >= 0.99,
                    "{}: hit rate {}",
                    mix.name(),
                    a.hit_rate()
                )
            }
            Mix::CircuitSchedule => {
                assert_eq!(a.frames_without_hit, 0, "a frame without a cross-layer hit")
            }
        }
    }
}

#[test]
fn waterfall_layers_carry_the_load_each_mix_was_chosen_for() {
    let _serial = serial();
    let (cold, _) = traced(Mix::ColdSat, 200, waterfall::Config::shipped(0));
    assert!(
        cold.metric("engine.solve_job_race_frac") >= 0.8,
        "cold-sat: race share of solve_job"
    );
    assert_eq!(cold.metric("engine.cache_hit_rate"), 0.0);
    let (zipf, _) = traced(Mix::ZipfHit, 300, waterfall::Config::shipped(0));
    assert!(zipf.metric("engine.cache_hit_rate") >= 0.99);
    assert_eq!(
        zipf.metric("engine.solve_job_race_frac"),
        0.0,
        "zipf-hit: no race behind solve_job"
    );
    let (adversarial, _) = traced(Mix::AdversarialCanon, 300, waterfall::Config::shipped(0));
    assert!(
        adversarial.metric("engine.canon_us.p50") >= 5.0 * zipf.metric("engine.canon_us.p50"),
        "adversarial-canon canon p50 {} vs zipf-hit {}",
        adversarial.metric("engine.canon_us.p50"),
        zipf.metric("engine.canon_us.p50")
    );
}
