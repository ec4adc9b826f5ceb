//! Kernel micro-benchmark: the integer psum GEMM vs the f32
//! grouped-conv front-end, plus the end-to-end frozen-engine comparison.
//! Emits `BENCH_kernels.json`.
fn main() {
    println!(
        "{}",
        cq_bench::experiments::kernels::run(cq_bench::Scale::from_env())
    );
}
