//! `paper-suite`: the 15 programs of Figures 11 and 12 at `Scale::Bench`,
//! each run cold through `runner::run_session` on a fresh 4-DIMM CNM
//! `Session` with the `cinm-opt` options. One pass runs every program once;
//! a run makes whole passes.

use std::time::{Duration, Instant};

use cinm_core::runner::{self, WorkloadInputs};
use cinm_core::session::{Session, SessionOptions};
use cinm_core::{ShardPolicy, Target};
use cinm_lowering::{ShardedRunOptions, UpmemRunOptions};
use cinm_telemetry::Telemetry;
use cinm_workloads::{data, Scale, WorkloadId, WorkloadParams};
use upmem_sim::SystemStats;

use crate::common::{geomean, median, process_cpu, quantile, sorted, Args, Report, Tally, Timer};
use crate::layers::{grid_mram_peak_mb, DeviceDelta, DeviceSnapshot, Layers, SIM_MS};
use crate::probes::{self, Kernel};

const RANKS: usize = 4;
const SCALE: Scale = Scale::Bench;

/// The layout of `runner::inputs`, with every buffer drawn from the run's
/// seed instead of the fixed seeds.
fn inputs(id: WorkloadId, seed: u64) -> WorkloadInputs {
    let g = |k: u64, len: usize| data::i32_vec(seed.wrapping_add(k), len, -8, 8);
    let buffers = match id.params(SCALE) {
        WorkloadParams::Gemm { m, k, n } => vec![g(1, m * k), g(2, k * n)],
        WorkloadParams::Gemm2 { m, k, n, p } => vec![g(1, m * k), g(2, k * n), g(3, n * p)],
        WorkloadParams::Gemm3 { m, k, n, p } => {
            vec![g(1, m * k), g(2, k * n), g(3, n * k), g(4, k * p)]
        }
        WorkloadParams::Conv2d { h, w, c, kh, kw, f } => {
            vec![g(1, h * w * c), g(2, kh * kw * c * f)]
        }
        WorkloadParams::ContractL { a, b, c, d, e, f } => {
            vec![g(1, a * e * b * f), g(2, d * f * c * e)]
        }
        WorkloadParams::ContractS1 { a, b, c, d } => vec![g(1, a * c * d), g(2, d * b * c)],
        WorkloadParams::ContractS2 { a, b, c, d } => vec![g(1, a * c * d), g(2, d * b)],
        WorkloadParams::Mlp { batch, layers } => vec![
            g(1, batch * layers[0]),
            g(2, layers[1] * layers[0]),
            g(3, layers[1]),
            g(4, layers[2] * layers[1]),
            g(5, layers[2]),
            g(6, layers[3] * layers[2]),
            g(7, layers[3]),
        ],
        WorkloadParams::Gemv { rows, cols } => vec![g(1, rows * cols), g(2, cols)],
        WorkloadParams::Vector { len } => vec![g(1, len), g(2, len)],
        WorkloadParams::Select { len, .. } => vec![data::i32_vec(seed, len, 0, 1 << 21)],
        WorkloadParams::Bfs { vertices, degree } => {
            let (rows, cols) = data::csr_graph(seed, vertices, degree);
            let mut frontier = vec![0i32; vertices];
            for f in frontier.iter_mut().skip((seed % 97) as usize).step_by(97) {
                *f = 1;
            }
            vec![rows, cols, frontier]
        }
        WorkloadParams::Histogram { len, max_value, .. } => {
            vec![data::i32_vec(seed, len, 0, max_value)]
        }
        WorkloadParams::TimeSeries { len, .. } => vec![data::i32_vec(seed, len, -64, 64)],
    };
    WorkloadInputs { buffers }
}

struct Program {
    id: WorkloadId,
    inp: WorkloadInputs,
    golden: Vec<i32>,
    golden_ms: f64,
    walls_ms: Vec<f64>,
    cpus_ms: Vec<f64>,
    setups_s: Vec<f64>,
    /// Simulated stats of the first pass; every later pass must match.
    sim: Option<SystemStats>,
}

fn session(telemetry: Option<Telemetry>) -> Session {
    match telemetry {
        None => runner::cnm_session(RANKS, UpmemRunOptions::optimized()),
        // `runner::cnm_session` with a registry attached.
        Some(t) => Session::new(
            SessionOptions::default()
                .with_policy(ShardPolicy::Single(Target::Cnm))
                .with_sharded(ShardedRunOptions {
                    ranks: RANKS,
                    upmem: UpmemRunOptions::optimized(),
                    ..ShardedRunOptions::default()
                })
                .with_telemetry(t),
        ),
    }
}

/// What the traced passes accumulate beyond the op walls.
#[derive(Default)]
struct Trace {
    run: Timer,
    devices: DeviceDelta,
    fused_groups: u64,
    graphs_optimized: u64,
    mram_peak_mb: f64,
    useful_ops: f64,
}

/// One cold program: a fresh session, then `run_session`.
fn run_program(p: &mut Program, trace: Option<&mut Trace>, tally: &mut Tally) {
    let tele = trace.as_ref().map(|_| Telemetry::new());
    let t = Instant::now();
    let mut s = session(tele.clone());
    p.setups_s.push(t.elapsed().as_secs_f64());
    let before = DeviceSnapshot::of(&s);
    let cpu0 = process_cpu();
    let t = Instant::now();
    let out = tally.attempt(p.id.name(), || {
        Ok::<_, String>(runner::run_session(p.id, SCALE, &p.inp, &mut s))
    });
    let wall = t.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let Some(out) = out else { return };
    p.walls_ms.push(wall.as_secs_f64() * 1e3);
    p.cpus_ms.push(cpu.as_secs_f64() * 1e3);
    if out != p.golden {
        tally.mismatch(p.id.name());
    }
    let sim = *s.upmem_stats();
    match p.sim {
        None => p.sim = Some(sim),
        Some(first) => tally.require(
            first == sim,
            "a program's simulated stats are identical on every pass",
        ),
    }
    if let (Some(tr), Some(tele)) = (trace, tele) {
        let d = DeviceSnapshot::of(&s).since(&before);
        tally.require(
            tele.snapshot().counter("upmem.launches") == Some(d.upmem.launches),
            "telemetry launch counter agrees with upmem_stats",
        );
        tr.run.total += wall;
        tr.run.calls += 1;
        tr.devices.add(&d);
        let opt = s.optimizer_stats();
        tr.fused_groups += opt.fused_groups;
        tr.graphs_optimized += opt.graphs_optimized;
        tr.mram_peak_mb = tr.mram_peak_mb.max(grid_mram_peak_mb(&s));
        tr.useful_ops += runner::cpu_op_counts(p.id, SCALE).total_ops();
    }
}

/// Whole passes over the suite until `budget` has passed.
fn passes(
    programs: &mut [Program],
    budget: Duration,
    mut trace: Option<&mut Trace>,
    tally: &mut Tally,
) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < budget {
        for p in programs.iter_mut() {
            run_program(p, trace.as_deref_mut(), tally);
        }
        n += 1;
    }
    n
}

/// Geomean over programs of a per-program percentile of the op walls.
fn suite_ms(programs: &[Program], q: f64, pick: fn(&Program) -> &Vec<f64>) -> f64 {
    let per: Vec<f64> = programs
        .iter()
        .map(|p| quantile(&sorted(pick(p)), q))
        .collect();
    geomean(&per)
}

/// Geomean over programs of the per-program mean of the op walls.
fn suite_mean_ms(programs: &[Program], pick: fn(&Program) -> &Vec<f64>) -> f64 {
    let per: Vec<f64> = programs
        .iter()
        .map(|p| pick(p).iter().sum::<f64>() / pick(p).len().max(1) as f64)
        .collect();
    geomean(&per)
}

pub fn run(args: &Args, tally: &mut Tally, report: &mut Report) {
    let dpus = session(None).num_dpus();
    let mut programs: Vec<Program> = WorkloadId::all()
        .into_iter()
        .enumerate()
        .map(|(i, id)| {
            let inp = inputs(id, args.sub_seed(100 + i as u64));
            let t = Instant::now();
            let golden = runner::reference(id, SCALE, &inp, dpus);
            let golden_ms = t.elapsed().as_secs_f64() * 1e3;
            Program {
                id,
                inp,
                golden,
                golden_ms,
                walls_ms: Vec::new(),
                cpus_ms: Vec::new(),
                setups_s: Vec::new(),
                sim: None,
            }
        })
        .collect();

    if !args.trace {
        let n = passes(&mut programs, args.budget(), None, tally);
        let ops: usize = programs.iter().map(|p| p.walls_ms.len()).sum();
        let timed_s: f64 = programs
            .iter()
            .map(|p| p.walls_ms.iter().sum::<f64>())
            .sum::<f64>()
            / 1e3;
        let sims: Vec<&SystemStats> = programs.iter().filter_map(|p| p.sim.as_ref()).collect();
        let sim_ms: Vec<f64> = sims.iter().map(|s| s.total_ms()).collect();
        let sim_mj: Vec<f64> = sims.iter().map(|s| s.total_energy_j() * 1e3).collect();
        let setup: f64 = programs.iter().map(|p| median(&p.setups_s)).sum();
        let wall_ms = suite_mean_ms(&programs, |p| &p.walls_ms);
        report.put("setup_s", setup, "s");
        report.put("wall_ms", wall_ms, "ms");
        report.put(
            "wall_ms.p90",
            suite_ms(&programs, 0.90, |p| &p.walls_ms),
            "ms",
        );
        report.put(
            "wall_ms.p99",
            suite_ms(&programs, 0.99, |p| &p.walls_ms),
            "ms",
        );
        report.put("ops_per_s", ops as f64 / timed_s, "1/s");
        report.put("cpu_ms", suite_mean_ms(&programs, |p| &p.cpus_ms), "ms");
        report.put("sim_ms", geomean(&sim_ms), SIM_MS);
        report.put("sim_mj", geomean(&sim_mj), "mJ");
        report.put("peak_rss_mb", crate::common::peak_rss_mb(), "MB");
        let golden = geomean(&programs.iter().map(|p| p.golden_ms).collect::<Vec<_>>());
        eprintln!(
            "perfbench: {n} passes; cpu-sim golden geomean {golden:.3} ms, wall_ms / golden = {:.2}",
            wall_ms / golden
        );
        for p in &programs {
            eprintln!(
                "perfbench:   {:8} median {:9.3} ms  golden {:8.3} ms  sim {:9.4} ms",
                p.id.name(),
                median(&p.walls_ms),
                p.golden_ms,
                p.sim.map_or(0.0, |s| s.total_ms())
            );
        }
        return;
    }

    let half = args.budget() / 2;
    passes(&mut programs, half, None, tally);
    let base_ms = suite_mean_ms(&programs, |p| &p.walls_ms);
    for p in programs.iter_mut() {
        p.walls_ms.clear();
        p.cpus_ms.clear();
    }
    let mut tr = Trace::default();
    passes(&mut programs, half, Some(&mut tr), tally);
    let traced_ms = suite_mean_ms(&programs, |p| &p.walls_ms);
    let ops = tr.run.calls;

    let mut l = Layers::default();
    l.set_devices(&tr.devices, ops);
    l.session_run_us = tr.run.us_per(ops);
    l.session_fused_groups = tr.fused_groups as f64 / tr.graphs_optimized.max(1) as f64;
    l.upmem_mram_peak_mb = tr.mram_peak_mb;
    l.upmem_cpu_ns_per_useful_op = tr.devices.cpu.as_secs_f64() * 1e9 / tr.useful_ops;

    // Probes at mm's shape: the largest program whose broadcast operand
    // keeps the probe grid small.
    let WorkloadParams::Gemm { m, k, n } = WorkloadId::Mm.params(SCALE) else {
        unreachable!("mm is a gemm")
    };
    let kernel = Kernel::Gemm { m, k, n };
    let up = probes::upmem(RANKS, kernel, args.sub_seed(7));
    l.upmem_scatter_us = up.scatter_us;
    l.upmem_broadcast_us = up.broadcast_us;
    l.upmem_launch_us = up.launch_us;
    l.upmem_gather_us = up.gather_us;
    l.cim_mvm_us = probes::crossbar_mvm_us(args.sub_seed(8));
    l.shard_plan_us = probes::planner_us(RANKS, kernel);
    l.runtime_dispatch_us = probes::pool_round_trip_us(&cinm_runtime::PoolHandle::global());

    let walls: f64 = programs
        .iter()
        .map(|p| p.walls_ms.iter().sum::<f64>())
        .sum();
    l.trace_coverage_pct = 100.0 * tr.run.total.as_secs_f64() * 1e3 / walls;
    l.trace_overhead_pct = 100.0 * (traced_ms - base_ms) / base_ms;
    l.emit(report);
}
