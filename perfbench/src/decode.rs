//! `decode-cnm` and `decode-auto`: a loop over a resident model. A
//! 4096×1024 weight matrix and a bias stay in one `Session` on 8 DIMMs;
//! each iteration writes a fresh input vector, records gemv → add bias →
//! max 0 → select, runs, and fetches the selection.

use std::time::{Duration, Instant};

use cinm_core::session::{Session, SessionOptions, TensorHandle};
use cinm_core::{ShardPolicy, Target};
use cinm_lowering::{ShardError, ShardedRunOptions};
use cinm_runtime::PoolHandle;
use cinm_telemetry::Telemetry;
use cinm_workloads::data;
use cpu_sim::kernels;
use cpu_sim::model::OpCounts;
use upmem_sim::BinOp;

use crate::common::{cores, median, Args, LoopSummary, Report, Tally, Timer, Windows};
use crate::layers::{grid_mram_peak_mb, DeviceSnapshot, Layers};
use crate::probes::{self, Kernel};

const ROWS: usize = 4096;
const COLS: usize = 1024;
const RANKS: usize = 8;
/// Distinct seeded input vectors the loop cycles through.
const INPUTS: usize = 64;
/// Set-ups measured per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Warm-up iterations allowed before the plan must replay.
const MAX_WARMUP: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    Cnm,
    Auto,
}

struct Inputs {
    w: Vec<i32>,
    bias: Vec<i32>,
    xs: Vec<Vec<i32>>,
    goldens: Vec<Vec<i32>>,
    golden_ms: f64,
}

fn golden(w: &[i32], bias: &[i32], x: &[i32]) -> Vec<i32> {
    let y = kernels::matvec(w, x, ROWS, COLS);
    let z: Vec<i32> = y.iter().zip(bias).map(|(&a, &b)| (a + b).max(0)).collect();
    kernels::select_gt(&z, 0)
}

fn inputs(args: &Args) -> Inputs {
    let w = data::i32_vec(args.sub_seed(1), ROWS * COLS, -8, 8);
    let bias = data::i32_vec(args.sub_seed(2), ROWS, -64, 64);
    let xs: Vec<Vec<i32>> = (0..INPUTS)
        .map(|i| data::i32_vec(args.sub_seed(100 + i as u64), COLS, -8, 8))
        .collect();
    let mut golden_times = Vec::new();
    let goldens = xs
        .iter()
        .map(|x| {
            let t = Instant::now();
            let g = golden(&w, &bias, x);
            golden_times.push(t.elapsed().as_secs_f64() * 1e3);
            g
        })
        .collect();
    Inputs {
        w,
        bias,
        xs,
        goldens,
        golden_ms: median(&golden_times),
    }
}

struct Model {
    s: Session,
    a: TensorHandle,
    bias: TensorHandle,
    zeros: TensorHandle,
    x: TensorHandle,
}

#[derive(Default)]
struct Calls {
    record: Timer,
    write: Timer,
    run: Timer,
    fetch: Timer,
}

impl Calls {
    fn new(on: bool) -> Self {
        Calls {
            record: Timer::new(on),
            write: Timer::new(on),
            run: Timer::new(on),
            fetch: Timer::new(on),
        }
    }

    fn total(&self) -> Duration {
        self.record.total + self.write.total + self.run.total + self.fetch.total
    }
}

fn build(
    inp: &Inputs,
    placement: Placement,
    pool: &PoolHandle,
    telemetry: Option<Telemetry>,
) -> Model {
    let policy = match placement {
        Placement::Cnm => ShardPolicy::Single(Target::Cnm),
        Placement::Auto => ShardPolicy::Auto,
    };
    let mut options = SessionOptions::default().with_policy(policy).with_sharded(
        ShardedRunOptions::default()
            .with_ranks(RANKS)
            .with_pool(pool.clone()),
    );
    if let Some(t) = telemetry {
        options = options.with_telemetry(t);
    }
    let mut s = Session::new(options);
    let a = s.matrix(&inp.w, ROWS, COLS);
    let bias = s.vector(&inp.bias);
    let zeros = s.vector(&vec![0; ROWS]);
    let x = s.vector(&inp.xs[0]);
    Model {
        s,
        a,
        bias,
        zeros,
        x,
    }
}

fn iterate(
    m: &mut Model,
    x: &[i32],
    out: &mut Vec<i32>,
    calls: &mut Calls,
) -> Result<(), ShardError> {
    calls.write.time(|| m.s.write(m.x, x));
    let sel = calls.record.time(|| {
        let y = m.s.gemv(m.a, m.x);
        let z = m.s.elementwise(BinOp::Add, y, m.bias);
        let r = m.s.elementwise(BinOp::Max, z, m.zeros);
        m.s.select(r, 0)
    });
    calls.run.time(|| m.s.run())?;
    calls.fetch.time(|| m.s.fetch_into(sel, out));
    Ok(())
}

/// One checked iteration on input `i`; returns its wall time.
fn checked(
    m: &mut Model,
    inp: &Inputs,
    i: usize,
    out: &mut Vec<i32>,
    calls: &mut Calls,
    tally: &mut Tally,
) -> Option<Duration> {
    let k = i % INPUTS;
    let t = Instant::now();
    let done = tally.attempt("decode iteration", || iterate(m, &inp.xs[k], out, calls));
    let wall = t.elapsed();
    done?;
    if *out != inp.goldens[k] {
        tally.mismatch("decode iteration");
    }
    Some(wall)
}

/// Builds the model and iterates until its plan replays on two
/// consecutive runs.
fn set_up(
    inp: &Inputs,
    placement: Placement,
    pool: &PoolHandle,
    telemetry: Option<Telemetry>,
    tally: &mut Tally,
) -> Model {
    let mut m = build(inp, placement, pool, telemetry);
    let mut out = Vec::new();
    let mut calls = Calls::new(false);
    let mut replayed_in_a_row = 0;
    for i in 0..MAX_WARMUP {
        let (_, before) = m.s.run_counts();
        checked(&mut m, inp, i, &mut out, &mut calls, tally);
        let (_, after) = m.s.run_counts();
        replayed_in_a_row = if after > before {
            replayed_in_a_row + 1
        } else {
            0
        };
        if replayed_in_a_row == 2 {
            break;
        }
    }
    tally.require(
        replayed_in_a_row == 2,
        "decode plan replays within the warm-up",
    );
    m
}

struct Phase {
    summary: LoopSummary,
    /// Sum of the op walls (the golden checks between ops excluded).
    op_wall: Duration,
    calls: Calls,
    devices: crate::layers::DeviceDelta,
    wall: Duration,
}

fn measure(
    m: &mut Model,
    inp: &Inputs,
    budget: Duration,
    traced: bool,
    tally: &mut Tally,
) -> Phase {
    let mut out = Vec::new();
    let mut calls = Calls::new(traced);
    let mut op_wall = Duration::ZERO;
    let before = DeviceSnapshot::of(&m.s);
    let mut windows = Windows::start();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget {
        if let Some(w) = checked(m, inp, i, &mut out, &mut calls, tally) {
            windows.record(w.as_secs_f64() * 1e3);
            op_wall += w;
        }
        i += 1;
    }
    let wall = start.elapsed();
    Phase {
        summary: windows.finish(),
        op_wall,
        calls,
        devices: DeviceSnapshot::of(&m.s).since(&before),
        wall,
    }
}

fn check_compiles(m: &Model, tally: &mut Tally) {
    let (runs, replays) = m.s.run_counts();
    tally.require(
        runs - replays <= 2,
        "decode loop replays after at most two compiles",
    );
}

pub fn run(args: &Args, placement: Placement, tally: &mut Tally, report: &mut Report) {
    let inp = inputs(args);
    eprintln!(
        "perfbench: cpu-sim golden (matvec + bias + relu + select) {:.3} ms per iteration",
        inp.golden_ms
    );

    // The calling thread runs queued device tasks while it waits, so
    // `cores - 1` workers keep one compute thread per core.
    let pool = PoolHandle::with_threads(cores().saturating_sub(1).max(1));
    crate::common::release_free_memory();
    let t = Instant::now();
    let mut m = set_up(&inp, placement, &pool, None, tally);
    let first_setup = t.elapsed().as_secs_f64();
    let host_w = m.s.backend().host_model().active_power_w;

    if !args.trace {
        let p = measure(&mut m, &inp, args.budget(), false, tally);
        check_compiles(&m, tally);
        let peak_rss = crate::common::peak_rss_mb();
        // Further set-ups steady `setup_s`; they run after the loop so the
        // memory they churn stays out of `peak_rss_mb`.
        let mut setups = vec![first_setup];
        for _ in 1..SETUPS {
            crate::common::release_free_memory();
            let t = Instant::now();
            let extra = set_up(&inp, placement, &pool, None, tally);
            setups.push(t.elapsed().as_secs_f64());
            drop(extra);
        }
        let s = &p.summary;
        let n = s.ops.max(1) as f64;
        let wall_ms = s.mean_ms;
        report.put("setup_s", median(&setups), "s");
        report.put("wall_ms", wall_ms, "ms");
        report.put("wall_ms.p90", s.p90_ms, "ms");
        report.put("wall_ms.p99", s.p99_ms, "ms");
        report.put("ops_per_s", s.ops_per_s, "1/s");
        report.put("cpu_ms", s.cpu_ms_per_op, "ms");
        report.put(
            "sim_ms",
            p.devices.sim_seconds() * 1e3 / n,
            crate::layers::SIM_MS,
        );
        report.put("sim_mj", p.devices.sim_joules(host_w) * 1e3 / n, "mJ");
        report.put("peak_rss_mb", peak_rss, "MB");
        let busy = p.devices.shard_busy;
        eprintln!(
            "perfbench: {} iterations in {:.2} s; wall_ms / golden = {:.2}; shard busy ms/iter cnm {:.3} cim {:.3} host {:.3}",
            s.ops,
            p.wall.as_secs_f64(),
            wall_ms / inp.golden_ms,
            busy[0] * 1e3 / n,
            busy[1] * 1e3 / n,
            busy[2] * 1e3 / n,
        );
        return;
    }

    // Traced run: half the budget untraced, then a fresh session with a
    // telemetry registry and timers around every session call.
    let half = args.budget() / 2;
    let base = measure(&mut m, &inp, half, false, tally);
    drop(m);
    let tele = Telemetry::new();
    let mut m = set_up(&inp, placement, &pool, Some(tele.clone()), tally);
    let snap0 = tele.snapshot();
    let p = measure(&mut m, &inp, half, true, tally);
    check_compiles(&m, tally);
    let snap1 = tele.snapshot();
    let counter = |name: &str| snap1.counter(name).unwrap_or(0) - snap0.counter(name).unwrap_or(0);
    let ops = p.summary.ops;
    let n = ops.max(1) as f64;

    let mut l = Layers::default();
    l.set_devices(&p.devices, ops);
    l.session_record_us = p.calls.record.us_per(ops);
    l.session_write_us = p.calls.write.us_per(ops);
    l.session_run_us = p.calls.run.us_per(ops);
    l.session_fetch_us = p.calls.fetch.us_per(ops);
    let opt = m.s.optimizer_stats();
    l.session_fused_groups = opt.fused_groups as f64 / opt.graphs_optimized.max(1) as f64;
    l.upmem_mram_peak_mb = grid_mram_peak_mb(&m.s);
    let (hits, misses) = m.s.shard_planner().cache_stats();
    l.shard_plan_cache_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let useful =
        OpCounts::gemv(ROWS, COLS).total_ops() + 3.0 * OpCounts::elementwise(ROWS).total_ops();
    l.upmem_cpu_ns_per_useful_op = p.devices.cpu.as_secs_f64() * 1e9 / (n * useful);

    let kernel = Kernel::Gemv {
        rows: ROWS,
        cols: COLS,
    };
    let up = probes::upmem(RANKS, kernel, args.sub_seed(7));
    l.upmem_scatter_us = up.scatter_us;
    l.upmem_broadcast_us = up.broadcast_us;
    l.upmem_launch_us = up.launch_us;
    l.upmem_gather_us = up.gather_us;
    l.cim_mvm_us = probes::crossbar_mvm_us(args.sub_seed(8));
    l.shard_plan_us = probes::planner_us(RANKS, kernel);
    l.runtime_dispatch_us = probes::pool_round_trip_us(&pool);

    let launches = p.devices.upmem.launches;
    let main = launches.min(ops);
    let simulated_us = up.estimate_us(
        counter("upmem.scatter.bytes"),
        counter("upmem.broadcast.bytes"),
        counter("upmem.gather.bytes"),
        main,
        launches - main,
    ) + p.devices.cim_mvm_ops as f64 * l.cim_mvm_us;
    let calls_us = p.calls.total().as_secs_f64() * 1e6;
    l.session_self_us = (calls_us - simulated_us) / n;

    let traced_ms = p.summary.mean_ms;
    let base_ms = base.summary.mean_ms;
    l.trace_overhead_pct = 100.0 * (traced_ms - base_ms) / base_ms;
    l.trace_coverage_pct = 100.0 * calls_us / (p.op_wall.as_secs_f64() * 1e6);
    l.emit(report);
}
