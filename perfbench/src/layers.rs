//! Per-layer readings of the traced run: snapshots of the program's own
//! stats accessors, their differences over a phase, and the fixed list of
//! per-layer metrics every traced run prints.

use std::time::Duration;

use cinm_core::session::Session;
use cinm_lowering::{CimRunStats, ShardStats};
use upmem_sim::SystemStats;

use crate::common::{process_cpu, Report};

/// Everything a session's device set has counted so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceSnapshot {
    pub upmem: SystemStats,
    pub cim: CimRunStats,
    pub shard: ShardStats,
    pub pool_tasks: u64,
    pub cpu: Duration,
    pub runs: u64,
    pub replays: u64,
}

impl DeviceSnapshot {
    pub fn of(s: &Session) -> Self {
        let (runs, replays) = s.run_counts();
        DeviceSnapshot {
            upmem: *s.upmem_stats(),
            cim: s.backend().cim_backend().stats(),
            shard: *s.shard_stats(),
            pool_tasks: s.backend().pool().get().tasks_executed(),
            cpu: process_cpu(),
            runs,
            replays,
        }
    }

    /// What was counted between `before` and `self`.
    pub fn since(&self, before: &DeviceSnapshot) -> DeviceDelta {
        let sh = |f: fn(&ShardStats) -> [f64; 3]| {
            let (x, y) = (f(&self.shard), f(&before.shard));
            [x[0] - y[0], x[1] - y[1], x[2] - y[2]]
        };
        DeviceDelta {
            upmem: upmem_delta(&self.upmem, &before.upmem),
            cim_energy_j: self.cim.total_energy_j() - before.cim.total_energy_j(),
            cim_mvm_ops: self.cim.xbar.mvm_ops - before.cim.xbar.mvm_ops,
            cim_tile_writes: self.cim.xbar.tile_writes - before.cim.xbar.tile_writes,
            shard_ops: self.shard.ops - before.shard.ops,
            shard_sim: sh(|s| s.sim_seconds),
            shard_busy: sh(|s| s.busy_wall_seconds),
            shard_wall: self.shard.wall_seconds - before.shard.wall_seconds,
            shard_makespan: self.shard.sim_makespan_seconds - before.shard.sim_makespan_seconds,
            pool_tasks: self.pool_tasks - before.pool_tasks,
            cpu: self.cpu.saturating_sub(before.cpu),
            runs: self.runs - before.runs,
            replays: self.replays - before.replays,
        }
    }
}

/// `now - before` for every UPMEM counter.
pub fn upmem_delta(now: &SystemStats, before: &SystemStats) -> SystemStats {
    SystemStats {
        host_to_dpu_seconds: now.host_to_dpu_seconds - before.host_to_dpu_seconds,
        dpu_to_host_seconds: now.dpu_to_host_seconds - before.dpu_to_host_seconds,
        kernel_seconds: now.kernel_seconds - before.kernel_seconds,
        host_to_dpu_bytes: now.host_to_dpu_bytes - before.host_to_dpu_bytes,
        dpu_to_host_bytes: now.dpu_to_host_bytes - before.dpu_to_host_bytes,
        launches: now.launches - before.launches,
        host_to_dpu_energy_j: now.host_to_dpu_energy_j - before.host_to_dpu_energy_j,
        dpu_to_host_energy_j: now.dpu_to_host_energy_j - before.dpu_to_host_energy_j,
        kernel_energy_j: now.kernel_energy_j - before.kernel_energy_j,
    }
}

/// MRAM high-water mark of the whole grid in MB: the per-DPU peak times
/// the DPU count, which is host memory the simulator holds.
pub fn grid_mram_peak_mb(s: &Session) -> f64 {
    let sys = s.backend().upmem().system();
    (sys.mram_peak_bytes() * sys.num_dpus()) as f64 / 1e6
}

/// Counts over one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceDelta {
    pub upmem: SystemStats,
    pub cim_energy_j: f64,
    pub cim_mvm_ops: u64,
    pub cim_tile_writes: u64,
    pub shard_ops: u64,
    pub shard_sim: [f64; 3],
    pub shard_busy: [f64; 3],
    pub shard_wall: f64,
    pub shard_makespan: f64,
    pub pool_tasks: u64,
    pub cpu: Duration,
    pub runs: u64,
    pub replays: u64,
}

impl DeviceDelta {
    /// Adds another phase's counts.
    pub fn add(&mut self, o: &DeviceDelta) {
        self.upmem.merge(&o.upmem);
        self.cim_energy_j += o.cim_energy_j;
        self.cim_mvm_ops += o.cim_mvm_ops;
        self.cim_tile_writes += o.cim_tile_writes;
        self.shard_ops += o.shard_ops;
        for i in 0..3 {
            self.shard_sim[i] += o.shard_sim[i];
            self.shard_busy[i] += o.shard_busy[i];
        }
        self.shard_wall += o.shard_wall;
        self.shard_makespan += o.shard_makespan;
        self.pool_tasks += o.pool_tasks;
        self.cpu += o.cpu;
        self.runs += o.runs;
        self.replays += o.replays;
    }

    /// Simulated device seconds. Sharded ops count their makespan once
    /// (the three devices run concurrently); UPMEM work outside sharded
    /// ops is serial with them.
    pub fn sim_seconds(&self) -> f64 {
        self.shard_makespan + (self.upmem.total_seconds() - self.shard_sim[0])
    }

    /// Simulated joules from the UPMEM, crossbar and host models. The host
    /// shard's energy is its simulated seconds at the host model's active
    /// power, which is how `CpuModel::energy_joules` defines it.
    pub fn sim_joules(&self, host_active_w: f64) -> f64 {
        self.upmem.total_energy_j() + self.cim_energy_j + host_active_w * self.shard_sim[2]
    }
}

/// Every per-layer metric of the traced run, in the order printed. A layer
/// that is not on a workload's path reads 0.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    pub session_record_us: f64,
    pub session_write_us: f64,
    pub session_run_us: f64,
    pub session_fetch_us: f64,
    pub session_self_us: f64,
    pub session_replay_ratio: f64,
    pub session_fused_groups: f64,
    pub shard_plan_us: f64,
    pub shard_plan_cache_hit_ratio: f64,
    pub shard_busy_ms: [f64; 3],
    pub shard_dispatch_us: f64,
    pub shard_sim_makespan_ms: f64,
    pub shard_imbalance: f64,
    pub upmem_scatter_us: f64,
    pub upmem_broadcast_us: f64,
    pub upmem_launch_us: f64,
    pub upmem_gather_us: f64,
    pub upmem_cpu_ns_per_useful_op: f64,
    pub upmem_mram_peak_mb: f64,
    pub upmem_launches: f64,
    pub upmem_sim_kernel_ms: f64,
    pub upmem_sim_h2d_ms: f64,
    pub upmem_sim_d2h_ms: f64,
    pub upmem_h2d_mb: f64,
    pub upmem_d2h_mb: f64,
    pub upmem_energy_mj: f64,
    pub cim_mvm_us: f64,
    pub cim_mvm_ops: f64,
    pub cim_tile_writes: f64,
    pub cim_energy_mj: f64,
    pub runtime_tasks: f64,
    pub runtime_dispatch_us: f64,
    pub serve_submit_us: f64,
    pub serve_step_us: f64,
    pub serve_wait_us: f64,
    pub serve_batch_mean: f64,
    pub serve_rounds_per_req: f64,
    pub serve_backlog_mean: f64,
    pub trace_overhead_pct: f64,
    pub trace_coverage_pct: f64,
}

/// Unit of simulated (device-clock) time, kept apart from host `ms`.
pub const SIM_MS: &str = "sim-ms";

impl Layers {
    /// Fills the device-side per-op readings from a phase's counts.
    pub fn set_devices(&mut self, d: &DeviceDelta, ops: u64) {
        let per = |v: f64| v / ops.max(1) as f64;
        let u = &d.upmem;
        self.upmem_launches = per(u.launches as f64);
        self.upmem_sim_kernel_ms = per(u.kernel_seconds * 1e3);
        self.upmem_sim_h2d_ms = per(u.host_to_dpu_seconds * 1e3);
        self.upmem_sim_d2h_ms = per(u.dpu_to_host_seconds * 1e3);
        self.upmem_h2d_mb = per(u.host_to_dpu_bytes as f64 / 1e6);
        self.upmem_d2h_mb = per(u.dpu_to_host_bytes as f64 / 1e6);
        self.upmem_energy_mj = per(u.total_energy_j() * 1e3);
        self.cim_mvm_ops = per(d.cim_mvm_ops as f64);
        self.cim_tile_writes = per(d.cim_tile_writes as f64);
        self.cim_energy_mj = per(d.cim_energy_j * 1e3);
        self.runtime_tasks = per(d.pool_tasks as f64);
        for i in 0..3 {
            self.shard_busy_ms[i] = per(d.shard_busy[i] * 1e3);
        }
        if d.shard_ops > 0 {
            let busiest = d.shard_busy.iter().copied().fold(0.0, f64::max);
            self.shard_dispatch_us = per((d.shard_wall - busiest) * 1e6);
            self.shard_sim_makespan_ms = per(d.shard_makespan * 1e3);
            let mean_device = d.shard_sim.iter().sum::<f64>() / 3.0;
            self.shard_imbalance = d.shard_makespan / mean_device;
        }
        if d.runs > 0 {
            self.session_replay_ratio = d.replays as f64 / d.runs as f64;
        }
    }

    pub fn emit(&self, r: &mut Report) {
        r.put("session.record_us", self.session_record_us, "us");
        r.put("session.write_us", self.session_write_us, "us");
        r.put("session.run_us", self.session_run_us, "us");
        r.put("session.fetch_us", self.session_fetch_us, "us");
        r.put("session.self_us", self.session_self_us, "us");
        r.put("session.replay_ratio", self.session_replay_ratio, "ratio");
        r.put("session.fused_groups", self.session_fused_groups, "count");
        r.put("shard.plan_us", self.shard_plan_us, "us");
        r.put(
            "shard.plan_cache_hit_ratio",
            self.shard_plan_cache_hit_ratio,
            "ratio",
        );
        r.put("shard.busy_ms.cnm", self.shard_busy_ms[0], "ms");
        r.put("shard.busy_ms.cim", self.shard_busy_ms[1], "ms");
        r.put("shard.busy_ms.host", self.shard_busy_ms[2], "ms");
        r.put("shard.dispatch_us", self.shard_dispatch_us, "us");
        r.put("shard.sim_makespan_ms", self.shard_sim_makespan_ms, SIM_MS);
        r.put("shard.imbalance", self.shard_imbalance, "ratio");
        r.put("upmem.scatter_us", self.upmem_scatter_us, "us");
        r.put("upmem.broadcast_us", self.upmem_broadcast_us, "us");
        r.put("upmem.launch_us", self.upmem_launch_us, "us");
        r.put("upmem.gather_us", self.upmem_gather_us, "us");
        r.put(
            "upmem.cpu_ns_per_useful_op",
            self.upmem_cpu_ns_per_useful_op,
            "ns",
        );
        r.put("upmem.mram_peak_mb", self.upmem_mram_peak_mb, "MB");
        r.put("upmem.launches", self.upmem_launches, "count");
        r.put("upmem.sim_kernel_ms", self.upmem_sim_kernel_ms, SIM_MS);
        r.put("upmem.sim_h2d_ms", self.upmem_sim_h2d_ms, SIM_MS);
        r.put("upmem.sim_d2h_ms", self.upmem_sim_d2h_ms, SIM_MS);
        r.put("upmem.h2d_mb", self.upmem_h2d_mb, "MB");
        r.put("upmem.d2h_mb", self.upmem_d2h_mb, "MB");
        r.put("upmem.energy_mj", self.upmem_energy_mj, "mJ");
        r.put("cim.mvm_us", self.cim_mvm_us, "us");
        r.put("cim.mvm_ops", self.cim_mvm_ops, "count");
        r.put("cim.tile_writes", self.cim_tile_writes, "count");
        r.put("cim.energy_mj", self.cim_energy_mj, "mJ");
        r.put("runtime.tasks", self.runtime_tasks, "count");
        r.put("runtime.dispatch_us", self.runtime_dispatch_us, "us");
        r.put("serve.submit_us", self.serve_submit_us, "us");
        r.put("serve.step_us", self.serve_step_us, "us");
        r.put("serve.wait_us", self.serve_wait_us, "us");
        r.put("serve.batch_mean", self.serve_batch_mean, "count");
        r.put("serve.rounds_per_req", self.serve_rounds_per_req, "ratio");
        r.put("serve.backlog_mean", self.serve_backlog_mean, "count");
        r.put("trace.overhead_pct", self.trace_overhead_pct, "%");
        r.put("trace.coverage_pct", self.trace_coverage_pct, "%");
    }
}
