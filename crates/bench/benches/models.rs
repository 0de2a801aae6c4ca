//! Model-level benchmarks and ablations: the hot paths of each substrate,
//! plus the design-choice ablations called out in DESIGN.md.

use cc_analysis::dist::DistSpec;
use cc_analysis::pareto::{frontier, Point};
use cc_analysis::rng::SplitMix64;
use cc_analysis::stats::StreamingStats;
use cc_bench::Bencher;
use cc_data::ai_models::CnnModel;
use cc_dcsim::{Facility, MultiSiteScheduler, ServerConfig, SitePlan};
use cc_fab::WaferFootprint;
use cc_socsim::{ExecutionModel, Network, PowerMonitor, UnitKind};
use cc_units::prelude::*;
use std::hint::black_box;

fn bench_socsim() {
    let g = Bencher::group("socsim");
    let model = ExecutionModel::pixel3();
    for cnn in CnnModel::ALL {
        let network = Network::build(cnn);
        g.bench(&format!("inference/{cnn}"), || {
            black_box(model.run(&network, UnitKind::Dsp).unwrap())
        });
    }
    // Ablation: sampled (Monsoon) measurement vs analytical energy.
    let network = Network::build(CnnModel::MobileNetV3);
    let report = model.run(&network, UnitKind::Cpu).unwrap();
    let static_power = model.soc().unit(UnitKind::Cpu).unwrap().static_power();
    g.bench("monitor_sampling_100_runs", || {
        let monitor = PowerMonitor::monsoon();
        black_box(monitor.measure_energy(&report, static_power, 100))
    });
}

fn bench_pareto() {
    let g = Bencher::group("pareto");
    for n in [10usize, 100, 1_000] {
        // Deterministic pseudo-random cloud (LCG) — no RNG dependency in the
        // hot loop.
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point<usize>> = (0..n)
            .map(|i| Point::new(next() * 100.0, next() * 100.0, i))
            .collect();
        g.bench(&format!("frontier/{n}"), || black_box(frontier(&pts)));
    }
}

fn bench_dcsim() {
    let g = Bencher::group("dcsim");
    g.bench("prineville_7yr", || {
        black_box(cc_dcsim::prineville::simulate())
    });
    g.bench("facility_30yr", || {
        let mut f = Facility::builder("bench", 2000, ServerConfig::web())
            .renewable_ramp(vec![0.0, 0.5, 1.0])
            .build();
        black_box(f.simulate(30))
    });
    // Ablation: carbon-aware vs uniform scheduling.
    let site = [SitePlan::flat(
        "site",
        IntensityTrace::solar_day(380.0, 120.0),
        5.0,
        60.0,
        15.0,
    )];
    let sched = MultiSiteScheduler::default();
    g.bench("scheduler_uniform", || {
        black_box(sched.static_placement(&site))
    });
    g.bench("scheduler_carbon_aware", || {
        black_box(sched.carbon_aware(&site))
    });
}

fn bench_fab_and_lca() {
    let g = Bencher::group("fab_lca");
    let wafer = WaferFootprint::tsmc_300mm();
    g.bench("wafer_renewable_sweep", || {
        black_box(wafer.renewable_sweep(&cc_fab::wafer::FIG14_FACTORS))
    });
    g.bench("category_summaries", || {
        black_box(cc_lca::inventory::all_categories())
    });
    let analysis = cc_lca::AmortizationAnalysis::new(
        CarbonMass::from_kg(25.0),
        CarbonIntensity::from_g_per_kwh(380.0),
    );
    g.bench("breakeven_solve", || {
        black_box(
            analysis
                .breakeven(Energy::from_joules(0.047), TimeSpan::from_millis(6.0))
                .unwrap(),
        )
    });
}

fn bench_extensions() {
    let g = Bencher::group("extensions_models");
    // DVFS sweep over the full modelled range.
    let cpu = *cc_socsim::Soc::snapdragon_845()
        .unit(UnitKind::Cpu)
        .expect("cpu");
    let network = Network::build(CnnModel::MobileNetV3);
    let scales: Vec<f64> = (3..=15).map(|i| f64::from(i) / 10.0).collect();
    g.bench("dvfs_sweep_13_points", || {
        black_box(cc_socsim::dvfs::sweep(&cpu, &network, &scales))
    });
    // Batched inference.
    let model = ExecutionModel::pixel3();
    g.bench("batch_256", || {
        black_box(cc_socsim::batch::run_batch(&model, &network, UnitKind::Dsp, 256).unwrap())
    });
    // Monte-Carlo propagation: seeded triangular draws into a streaming
    // digest, the shape of `ext-mc`'s Fig 10 headline.
    let [budget, grid, joules] = [
        DistSpec::triangular_around(24_850.0, 0.20),
        DistSpec::triangular_around(380.0, 0.15),
        DistSpec::triangular_around(0.0447, 0.25),
    ];
    g.bench("monte_carlo_10k", || {
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut stats = StreamingStats::new();
        for _ in 0..10_000 {
            let (b, c, e) = (
                budget.sample(&mut rng),
                grid.sample(&mut rng),
                joules.sample(&mut rng),
            );
            stats.push(b / ((e / 3.6e6) * c));
        }
        black_box(stats.summary())
    });
}

fn main() {
    bench_socsim();
    bench_pareto();
    bench_dcsim();
    bench_fab_and_lca();
    bench_extensions();
}
