//! Direct probes of the lower layers at a workload's own shapes: the UPMEM
//! simulator's four commands, a crossbar MVM, the shard planner and one
//! empty-task round trip through the worker pool. Each reports the median
//! host time of one call.

use std::time::{Duration, Instant};

use cinm_core::shard::{ShardPlanner, ShardPolicy};
use cinm_lowering::{ShardShape, UpmemBackend, UpmemRunOptions};
use cinm_runtime::PoolHandle;
use cinm_workloads::data;
use memristor_sim::{CrossbarAccelerator, CrossbarConfig};
use upmem_sim::{BinOp, DpuKernelKind};

use crate::common::median;

/// Host time spent per probe kind.
const PROBE_BUDGET: Duration = Duration::from_millis(150);
const MAX_PROBE_CALLS: usize = 4000;

/// A matmul-like op as the session lays it out on the grid.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    Gemv { rows: usize, cols: usize },
    Gemm { m: usize, k: usize, n: usize },
}

impl Kernel {
    fn planner_op(self) -> (&'static str, ShardShape) {
        match self {
            Kernel::Gemv { rows, cols } => ("cinm.gemv", ShardShape::matmul(rows, cols, 1)),
            Kernel::Gemm { m, k, n } => ("cinm.gemm", ShardShape::matmul(m, k, n)),
        }
    }
}

/// Median host microseconds per UPMEM command, with the bytes the command
/// moves across the host interface (as the simulator counts them).
#[derive(Debug, Default, Clone, Copy)]
pub struct UpmemProbe {
    pub scatter_us: f64,
    pub broadcast_us: f64,
    pub launch_us: f64,
    /// An element-wise launch over the op's per-DPU output chunk (the
    /// shape of a fused tail behind the matmul).
    pub tail_launch_us: f64,
    pub gather_us: f64,
    pub scatter_bytes: u64,
    pub broadcast_bytes: u64,
    pub gather_bytes: u64,
}

impl UpmemProbe {
    /// Estimated host microseconds the simulator spends on commands that
    /// moved the given bytes and ran `main` matmul launches plus `tail`
    /// other launches.
    pub fn estimate_us(
        &self,
        scatter_bytes: u64,
        broadcast_bytes: u64,
        gather_bytes: u64,
        main: u64,
        tail: u64,
    ) -> f64 {
        let per_byte = |us: f64, bytes: u64| us / bytes.max(1) as f64;
        scatter_bytes as f64 * per_byte(self.scatter_us, self.scatter_bytes)
            + broadcast_bytes as f64 * per_byte(self.broadcast_us, self.broadcast_bytes)
            + gather_bytes as f64 * per_byte(self.gather_us, self.gather_bytes)
            + main as f64 * self.launch_us
            + tail as f64 * self.tail_launch_us
    }
}

/// Median microseconds of `f` over repeated calls.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazily allocated scratch
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < PROBE_BUDGET && samples.len() < MAX_PROBE_CALLS {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Probes `UpmemSystem::{scatter_i32, broadcast_i32, launch,
/// gather_i32_into}` on a grid of `ranks` DIMMs at the geometry the session
/// gives `kernel` (rows split across DPUs, right operand broadcast).
pub fn upmem(ranks: usize, kernel: Kernel, seed: u64) -> UpmemProbe {
    let mut be = UpmemBackend::new(ranks, UpmemRunOptions::optimized());
    let dpus = be.num_dpus();
    let (chunk, bcast, out_chunk, kind) = match kernel {
        Kernel::Gemv { rows, cols } => {
            let rpd = rows.div_ceil(dpus).max(1);
            (
                rpd * cols,
                cols,
                rpd,
                DpuKernelKind::Gemv { rows: rpd, cols },
            )
        }
        Kernel::Gemm { m, k, n } => {
            let rpd = m.div_ceil(dpus).max(1);
            (
                rpd * k,
                k * n,
                rpd * n,
                DpuKernelKind::Gemm { m: rpd, k, n },
            )
        }
    };
    let sys = be.system_mut();
    let a = sys.alloc_buffer(chunk).expect("probe buffer fits MRAM");
    let x = sys.alloc_buffer(bcast).expect("probe buffer fits MRAM");
    let y = sys.alloc_buffer(out_chunk).expect("probe buffer fits MRAM");
    let z = sys.alloc_buffer(out_chunk).expect("probe buffer fits MRAM");
    let a_host = data::i32_vec(seed, chunk * dpus, -8, 8);
    let x_host = data::i32_vec(seed ^ 1, bcast, -8, 8);
    let spec = be.kernel_spec(kind, vec![a, x], y);
    let tail = be.kernel_spec(
        DpuKernelKind::Elementwise {
            op: BinOp::Add,
            len: out_chunk,
        },
        vec![y, y],
        z,
    );
    let sys = be.system_mut();
    let mut p = UpmemProbe {
        scatter_bytes: sys
            .scatter_i32(a, &a_host, chunk)
            .expect("probe scatter")
            .bytes,
        broadcast_bytes: sys
            .broadcast_i32(x, &x_host)
            .expect("probe broadcast")
            .bytes,
        ..UpmemProbe::default()
    };
    sys.launch(&spec).expect("probe launch");
    let mut out = Vec::new();
    p.gather_bytes = sys
        .gather_i32_into(y, out_chunk, &mut out)
        .expect("probe gather")
        .bytes;
    p.scatter_us = per_call_us(|| {
        sys.scatter_i32(a, &a_host, chunk).expect("probe scatter");
    });
    p.broadcast_us = per_call_us(|| {
        sys.broadcast_i32(x, &x_host).expect("probe broadcast");
    });
    p.launch_us = per_call_us(|| {
        sys.launch(&spec).expect("probe launch");
    });
    p.tail_launch_us = per_call_us(|| {
        sys.launch(&tail).expect("probe launch");
    });
    p.gather_us = per_call_us(|| {
        sys.gather_i32_into(y, out_chunk, &mut out)
            .expect("probe gather");
    });
    p
}

/// One MVM on a programmed crossbar tile of the default geometry.
pub fn crossbar_mvm_us(seed: u64) -> f64 {
    let mut xbar = CrossbarAccelerator::new(CrossbarConfig::default());
    let (rows, cols) = (xbar.config().tile_rows, xbar.config().tile_cols);
    let w = data::i32_vec(seed, rows * cols, -8, 8);
    xbar.write_tile(0, &w, rows, cols)
        .expect("probe tile write");
    let input = data::i32_vec(seed ^ 1, rows, -8, 8);
    let mut out = vec![0i32; cols];
    per_call_us(|| {
        xbar.mvm_into(0, &input, &mut out).expect("probe mvm");
    })
}

/// One uncached `ShardPlanner::plan` of the workload's matmul under the
/// `Auto` policy.
pub fn planner_us(ranks: usize, kernel: Kernel) -> f64 {
    let planner = ShardPlanner::with_default_models(ranks).with_policy(ShardPolicy::Auto);
    let (op, shape) = kernel.planner_op();
    per_call_us(|| {
        std::hint::black_box(planner.plan(op, shape).expect("plannable op"));
    })
}

/// One empty task spawned on the worker pool and joined.
pub fn pool_round_trip_us(pool: &PoolHandle) -> f64 {
    per_call_us(|| {
        pool.get().scope(|s| s.spawn(|_| {}));
    })
}
