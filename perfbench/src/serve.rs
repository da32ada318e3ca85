//! `serve-mix`: a closed loop against a `SessionServer` on 1 DIMM with 8
//! tenants. Even tenants serve a 64×32 gemv model, odd tenants a 16×8 · 8×8
//! gemm model, so every scheduling round fuses two shape classes into one
//! command stream. Each tenant keeps `DEPTH` requests outstanding.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cinm_core::serve::{
    ModelId, RequestTicket, ServerOptions, SessionServer, TenantId, TenantSpec,
};
use cinm_runtime::PoolHandle;
use cinm_telemetry::Telemetry;
use cinm_workloads::data;
use cpu_sim::kernels;
use cpu_sim::model::OpCounts;
use upmem_sim::SystemStats;

use crate::common::{median, process_cpu, Args, LoopSummary, Report, Tally, Timer, Windows};
use crate::layers::{upmem_delta, Layers, SIM_MS};
use crate::probes::{self, Kernel};

const RANKS: usize = 1;
const TENANTS: usize = 8;
/// Requests each tenant keeps in flight.
const DEPTH: usize = 4;
/// Distinct seeded activations per tenant; requests cycle through them.
const INPUTS: usize = 256;
const GEMV: (usize, usize) = (64, 32);
const GEMM: (usize, usize, usize) = (16, 8, 8);
const SETUPS: usize = 9;
/// Closed-loop rounds each set-up runs before it counts as warm.
const WARMUP_ROUNDS: u64 = 16;

struct TenantData {
    gemv: bool,
    /// Arithmetic ops of one request (the `cpu_sim` op count).
    useful_ops: f64,
    weights: Vec<i32>,
    xs: Vec<Vec<i32>>,
    goldens: Vec<Vec<i32>>,
}

fn inputs(args: &Args) -> (Vec<TenantData>, f64) {
    let mut golden_us = Vec::new();
    let tenants = (0..TENANTS)
        .map(|i| {
            let gemv = i % 2 == 0;
            let seed = |k: u64| args.sub_seed(1000 * (i as u64 + 1) + k);
            let (w_len, x_len) = if gemv {
                (GEMV.0 * GEMV.1, GEMV.1)
            } else {
                (GEMM.0 * GEMM.1, GEMM.1 * GEMM.2)
            };
            let weights = data::i32_vec(seed(0), w_len, -8, 8);
            let xs: Vec<Vec<i32>> = (0..INPUTS)
                .map(|k| data::i32_vec(seed(1 + k as u64), x_len, -8, 8))
                .collect();
            let goldens = xs
                .iter()
                .map(|x| {
                    let t = Instant::now();
                    let g = if gemv {
                        kernels::matvec(&weights, x, GEMV.0, GEMV.1)
                    } else {
                        kernels::matmul(&weights, x, GEMM.0, GEMM.1, GEMM.2)
                    };
                    golden_us.push(t.elapsed().as_secs_f64() * 1e6);
                    g
                })
                .collect();
            TenantData {
                gemv,
                useful_ops: if gemv {
                    OpCounts::gemv(GEMV.0, GEMV.1).total_ops()
                } else {
                    OpCounts::gemm(GEMM.0, GEMM.1, GEMM.2).total_ops()
                },
                weights,
                xs,
                goldens,
            }
        })
        .collect();
    (tenants, median(&golden_us))
}

struct Server {
    server: SessionServer,
    tenants: Vec<(TenantId, ModelId)>,
    /// Next activation index per tenant.
    next: Vec<usize>,
}

fn build(data: &[TenantData], telemetry: Option<Telemetry>) -> Server {
    let mut options = ServerOptions::default()
        .with_ranks(RANKS)
        .with_tenant_slots(TENANTS)
        .with_queue_depth(DEPTH);
    if let Some(t) = telemetry {
        options = options.with_telemetry(t);
    }
    let mut server = SessionServer::new(options);
    let tenants = data
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let t = server.register_tenant(TenantSpec::new(format!("tenant-{i}")));
            let model = if d.gemv {
                server.load_gemv_weights(t, &d.weights, GEMV.0, GEMV.1)
            } else {
                server.load_gemm_weights(t, &d.weights, GEMM.0, GEMM.1, GEMM.2)
            };
            (t, model.expect("the weights of 8 tenants fit one DIMM"))
        })
        .collect();
    Server {
        server,
        tenants,
        next: vec![0; TENANTS],
    }
}

/// (tenant, input index, result, latency in seconds) of a request one round
/// redeemed.
type Redeemed = (usize, usize, Vec<i32>, Result<f64, String>);

struct Pending {
    input: usize,
    ticket: RequestTicket,
}

struct Calls {
    submit: Timer,
    step: Timer,
    wait: Timer,
    /// `queue_backlog` and `tenant_stats`, read every round.
    stats: Timer,
}

struct Phase {
    latencies: LoopSummary,
    calls: Calls,
    wall: Duration,
    cpu: Duration,
    completed: u64,
    rounds: u64,
    batches: u64,
    batched: u64,
    backlog_mean: f64,
    upmem: SystemStats,
    useful_ops: f64,
}

/// How long a closed loop keeps submitting.
#[derive(Debug, Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Rounds(u64),
}

/// Runs closed-loop rounds until `until` is reached, then drains every
/// outstanding request. Each round tops every tenant up to `DEPTH`
/// outstanding requests, runs one scheduling step and redeems what it
/// completed.
fn closed_loop(
    srv: &mut Server,
    data: &[TenantData],
    until: Until,
    traced: bool,
    tally: &mut Tally,
) -> Phase {
    let mut calls = Calls {
        submit: Timer::new(traced),
        step: Timer::new(traced),
        wait: Timer::new(traced),
        stats: Timer::new(traced),
    };
    let stats0 = srv.server.stats();
    let upmem0 = *srv.server.upmem_stats();
    // Per-tenant FIFOs: a tenant's requests complete in submission order,
    // so only the oldest needs polling.
    let mut pending: Vec<VecDeque<Pending>> = (0..TENANTS)
        .map(|_| VecDeque::with_capacity(DEPTH))
        .collect();
    let mut latencies = Windows::start();
    let mut results: Vec<Redeemed> = (0..TENANTS * DEPTH)
        .map(|_| (0, 0, Vec::new(), Ok(0.0)))
        .collect();
    let mut backlog_sum = 0u64;
    let mut steps = 0u64;
    let mut useful_ops = 0.0;
    let cpu0 = process_cpu();
    let start = Instant::now();
    loop {
        let submitting = match until {
            Until::Elapsed(budget) => start.elapsed() < budget,
            Until::Rounds(rounds) => steps < rounds,
        };
        if !submitting && pending.iter().all(VecDeque::is_empty) {
            break;
        }
        // Spans cover whole phases of the round rather than each call, so
        // the tracer reads the clock a few times per round, not per call.
        calls.submit.time(|| {
            for (ti, &(_, model)) in srv.tenants.iter().enumerate() {
                while submitting && pending[ti].len() < DEPTH {
                    let k = srv.next[ti];
                    srv.next[ti] = (k + 1) % INPUTS;
                    let x = &data[ti].xs[k];
                    let server = &mut srv.server;
                    let Some(ticket) = tally.attempt("serve submit", || server.submit(model, x))
                    else {
                        break;
                    };
                    pending[ti].push_back(Pending { input: k, ticket });
                }
            }
        });
        backlog_sum += calls.stats.time(|| srv.server.queue_backlog()) as u64;
        steps += 1;
        calls.step.time(|| srv.server.step());
        let mut redeemed = 0;
        calls.wait.time(|| {
            for (ti, queue) in pending.iter_mut().enumerate() {
                while let Some(p) = queue.front() {
                    if !srv.server.is_done(p.ticket) {
                        break;
                    }
                    let p = queue.pop_front().expect("front exists");
                    let out = &mut results[redeemed];
                    let r = srv.server.wait_into(p.ticket, &mut out.2);
                    out.0 = ti;
                    out.1 = p.input;
                    out.3 = r
                        .map(|report| report.latency_seconds)
                        .map_err(|e| e.to_string());
                    redeemed += 1;
                }
            }
        });
        for (ti, input, out, r) in &results[..redeemed] {
            match r {
                Ok(latency) => {
                    latencies.record(latency * 1e3);
                    useful_ops += data[*ti].useful_ops;
                    if *out != data[*ti].goldens[*input] {
                        tally.mismatch("served request");
                    }
                }
                Err(e) => tally.fail("served request", e),
            }
        }
        let fair = calls.stats.time(|| completions_spread(srv)) <= 1;
        tally.require(fair, "tenant completions stay within one round");
    }
    let wall = start.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let stats = srv.server.stats();
    let upmem = *srv.server.upmem_stats();
    Phase {
        latencies: latencies.finish(),
        calls,
        wall,
        cpu,
        completed: stats.completed - stats0.completed,
        rounds: stats.rounds - stats0.rounds,
        batches: stats.batches - stats0.batches,
        batched: stats.batched_requests - stats0.batched_requests,
        backlog_mean: backlog_sum as f64 / steps.max(1) as f64,
        upmem: upmem_delta(&upmem, &upmem0),
        useful_ops,
    }
}

/// How far the most-served tenant is ahead of the least-served one, in
/// completed requests. Under equal weights one round serves each tenant
/// at most once, so more than 1 means a tenant ran a round ahead.
fn completions_spread(srv: &Server) -> u64 {
    let (lo, hi) = srv
        .tenants
        .iter()
        .map(|&(t, _)| srv.server.tenant_stats(t).completed)
        .fold((u64::MAX, 0), |(lo, hi), c| (lo.min(c), hi.max(c)));
    hi - lo
}

fn check_accounting(srv: &Server, tally: &mut Tally) {
    let s = srv.server.stats();
    tally.require(
        s.submitted == s.completed + s.failed,
        "submitted = completed + failed",
    );
    tally.require(s.rejected == 0, "no request is rejected");
}

fn set_up(data: &[TenantData], telemetry: Option<Telemetry>, tally: &mut Tally) -> Server {
    let mut srv = build(data, telemetry);
    // Warm the request slots, staging buffers and command streams.
    closed_loop(&mut srv, data, Until::Rounds(WARMUP_ROUNDS), false, tally);
    srv
}

pub fn run(args: &Args, tally: &mut Tally, report: &mut Report) {
    let (data, golden_us) = inputs(args);
    eprintln!("perfbench: cpu-sim golden {golden_us:.3} us per request");

    crate::common::release_free_memory();
    let t = Instant::now();
    let mut srv = set_up(&data, None, tally);
    let first_setup = t.elapsed().as_secs_f64();

    if !args.trace {
        let p = closed_loop(&mut srv, &data, Until::Elapsed(args.budget()), false, tally);
        check_accounting(&srv, tally);
        let peak_rss = crate::common::peak_rss_mb();
        // Further set-ups steady `setup_s`; they run after the loop so the
        // memory they churn stays out of `peak_rss_mb`.
        let mut setups = vec![first_setup];
        for _ in 1..SETUPS {
            crate::common::release_free_memory();
            let t = Instant::now();
            let extra = set_up(&data, None, tally);
            setups.push(t.elapsed().as_secs_f64());
            drop(extra);
        }
        let n = p.completed.max(1) as f64;
        let lat = &p.latencies;
        report.put("setup_s", median(&setups), "s");
        report.put("wall_ms", lat.mean_ms, "ms");
        report.put("wall_ms.p90", lat.p90_ms, "ms");
        report.put("wall_ms.p99", lat.p99_ms, "ms");
        report.put("ops_per_s", lat.ops_per_s, "1/s");
        report.put("cpu_ms", lat.cpu_ms_per_op, "ms");
        report.put("sim_ms", p.upmem.total_seconds() * 1e3 / n, SIM_MS);
        report.put("sim_mj", p.upmem.total_energy_j() * 1e3 / n, "mJ");
        report.put("peak_rss_mb", peak_rss, "MB");
        eprintln!(
            "perfbench: {} requests in {:.2} s over {} rounds; mean batch {:.2}; wall_ms / golden = {:.1}",
            p.completed,
            p.wall.as_secs_f64(),
            p.rounds,
            p.batched as f64 / p.batches.max(1) as f64,
            lat.mean_ms * 1e3 / golden_us,
        );
        return;
    }

    let half = args.budget() / 2;
    let base = closed_loop(&mut srv, &data, Until::Elapsed(half), false, tally);
    check_accounting(&srv, tally);
    drop(srv);
    let tele = Telemetry::new();
    let mut srv = set_up(&data, Some(tele.clone()), tally);
    let pool = PoolHandle::global();
    let tasks0 = pool.get().tasks_executed();
    let batch0 = tele
        .snapshot()
        .histogram("serve.batch.size")
        .map_or((0, 0.0), |h| (h.count, h.sum));
    let p = closed_loop(&mut srv, &data, Until::Elapsed(half), true, tally);
    check_accounting(&srv, tally);
    let tasks = pool.get().tasks_executed() - tasks0;
    let snap = tele.snapshot();
    let batch = snap
        .histogram("serve.batch.size")
        .map_or((0, 0.0), |h| (h.count - batch0.0, h.sum - batch0.1));

    let ops = p.completed;
    let n = ops.max(1) as f64;
    let mut l = Layers {
        serve_submit_us: p.calls.submit.us_per(ops),
        serve_step_us: p.calls.step.us_per_call(),
        serve_wait_us: p.calls.wait.us_per(ops),
        serve_batch_mean: batch.1 / batch.0.max(1) as f64,
        serve_rounds_per_req: p.rounds as f64 / n,
        serve_backlog_mean: p.backlog_mean,
        ..Layers::default()
    };
    let u = &p.upmem;
    l.upmem_launches = u.launches as f64 / n;
    l.upmem_sim_kernel_ms = u.kernel_seconds * 1e3 / n;
    l.upmem_sim_h2d_ms = u.host_to_dpu_seconds * 1e3 / n;
    l.upmem_sim_d2h_ms = u.dpu_to_host_seconds * 1e3 / n;
    l.upmem_h2d_mb = u.host_to_dpu_bytes as f64 / 1e6 / n;
    l.upmem_d2h_mb = u.dpu_to_host_bytes as f64 / 1e6 / n;
    l.upmem_energy_mj = u.total_energy_j() * 1e3 / n;
    l.upmem_mram_peak_mb = srv.server.residency_snapshot().peak_mram_bytes as f64 / 1e6;
    l.upmem_cpu_ns_per_useful_op = p.cpu.as_secs_f64() * 1e9 / p.useful_ops;
    l.runtime_tasks = tasks as f64 / n;

    let kernel = Kernel::Gemv {
        rows: GEMV.0,
        cols: GEMV.1,
    };
    let up = probes::upmem(RANKS, kernel, args.sub_seed(7));
    l.upmem_scatter_us = up.scatter_us;
    l.upmem_broadcast_us = up.broadcast_us;
    l.upmem_launch_us = up.launch_us;
    l.upmem_gather_us = up.gather_us;
    l.cim_mvm_us = probes::crossbar_mvm_us(args.sub_seed(8));
    l.shard_plan_us = probes::planner_us(RANKS, kernel);
    l.runtime_dispatch_us = probes::pool_round_trip_us(&pool);

    let c = &p.calls;
    let calls = c.submit.total + c.step.total + c.wait.total + c.stats.total;
    l.trace_coverage_pct = 100.0 * calls.as_secs_f64() / p.wall.as_secs_f64();
    let traced_ms = p.latencies.mean_ms;
    let base_ms = base.latencies.mean_ms;
    l.trace_overhead_pct = 100.0 * (traced_ms - base_ms) / base_ms;
    l.emit(report);
}
