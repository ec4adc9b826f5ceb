//! Blocked, optionally multi-threaded matrix multiplication kernels.
//!
//! Three entry points cover every GEMM orientation this workspace needs
//! (forward conv, input gradient, weight gradient) without strided views:
//!
//! * [`matmul`]      — `C[m,n] = A[m,k] · B[k,n]`
//! * [`matmul_a_bt`] — `C[m,n] = A[m,k] · B[n,k]ᵀ`
//! * [`matmul_at_b`] — `C[m,n] = A[k,m]ᵀ · B[k,n]`
//!
//! The inner kernels use an `i-k-j` loop order (axpy over contiguous output
//! rows) or row-dot-products, both of which auto-vectorize well. Work is
//! split across the persistent [`crate::exec`] pool once it is large enough
//! to pay for the submission overhead.

use crate::exec;
use crate::Tensor;

/// Work threshold (multiply-accumulate count) below which threading is not
/// worth the fork overhead.
const PAR_THRESHOLD: usize = 1 << 20;

/// Thread count for a kernel doing `work` multiply-accumulates: 1 below the
/// fork-overhead threshold, then roughly one thread per threshold's worth of
/// work, capped by the `CQ_THREADS` override (if set) or the machine's
/// available parallelism — so a conv tail barely past the threshold forks
/// two threads, not the whole pool (tiny GEMMs used to spawn every core and
/// drown micro-benchmarks in fork noise).
///
/// `CQ_THREADS` exists so benchmark numbers are reproducible on shared CI
/// runners whose visible core count varies run to run; it is read once and
/// cached. Invalid or zero values are ignored.
pub fn threads_for(work: usize) -> usize {
    if work < PAR_THRESHOLD {
        return 1;
    }
    max_threads().min(work / PAR_THRESHOLD).max(1)
}

/// The `CQ_THREADS`-capped machine parallelism (read once, cached).
pub fn max_threads() -> usize {
    use std::sync::OnceLock;
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| {
        if let Ok(v) = std::env::var("CQ_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// `C = A · B` for row-major slices, accumulating into `c` (which must be
/// zeroed by the caller if a fresh product is wanted).
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, `k*n`, `m*n`.
pub fn gemm_nn_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A buffer length");
    assert_eq!(b.len(), k * n, "B buffer length");
    assert_eq!(c.len(), m * n, "C buffer length");
    let nt = threads_for(m * k * n);
    if nt <= 1 || m < nt {
        gemm_nn_rows(k, n, a, b, c);
        return;
    }
    let rows_per = m.div_ceil(nt);
    exec::scope(|s| {
        for (chunk_i, c_chunk) in c.chunks_mut(rows_per * n).enumerate() {
            let a_off = chunk_i * rows_per * k;
            let rows = c_chunk.len() / n;
            let a_chunk = &a[a_off..a_off + rows * k];
            s.spawn(move || gemm_nn_rows(k, n, a_chunk, b, c_chunk));
        }
    });
}

/// Serial `i-k-j` kernel over a row block: `c[i,:] += a[i,kk] * b[kk,:]`.
pub(crate) fn gemm_nn_rows(k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let m = a.len() / k;
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// `C += A · Bᵀ` where `a` is `m×k` and `b` is `n×k` (both row-major).
///
/// # Panics
///
/// Panics if slice lengths do not match.
pub fn gemm_nt_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A buffer length");
    assert_eq!(b.len(), n * k, "B buffer length");
    assert_eq!(c.len(), m * n, "C buffer length");
    let nt = threads_for(m * k * n);
    if nt <= 1 || m < nt {
        gemm_nt_rows(k, n, a, b, c);
        return;
    }
    let rows_per = m.div_ceil(nt);
    exec::scope(|s| {
        for (chunk_i, c_chunk) in c.chunks_mut(rows_per * n).enumerate() {
            let a_off = chunk_i * rows_per * k;
            let rows = c_chunk.len() / n;
            let a_chunk = &a[a_off..a_off + rows * k];
            s.spawn(move || gemm_nt_rows(k, n, a_chunk, b, c_chunk));
        }
    });
}

fn gemm_nt_rows(k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let m = a.len() / k;
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            crow[j] += dot(arow, brow);
        }
    }
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    // Four partial accumulators break the serial dependency chain so the
    // compiler can vectorize.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let ia = i * 4;
        acc[0] += a[ia] * b[ia];
        acc[1] += a[ia + 1] * b[ia + 1];
        acc[2] += a[ia + 2] * b[ia + 2];
        acc[3] += a[ia + 3] * b[ia + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// `C[m,n] = A[m,k] · B[k,n]` on [`Tensor`]s.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
    let mut c = Tensor::zeros(&[m, n]);
    gemm_nn_acc(m, k, n, a.data(), b.data(), c.data_mut());
    c
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ` on [`Tensor`]s.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the `k` dimensions disagree.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_a_bt lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_a_bt rhs must be rank 2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, k2) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul_a_bt inner dims: {k} vs {k2}");
    let mut c = Tensor::zeros(&[m, n]);
    gemm_nt_acc(m, k, n, a.data(), b.data(), c.data_mut());
    c
}

/// `C[m,n] = A[k,m]ᵀ · B[k,n]` on [`Tensor`]s.
///
/// Implemented as an explicit transpose followed by [`matmul`]; the
/// transpose cost is negligible against the GEMM for the sizes used here.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the `k` dimensions disagree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_at_b lhs must be rank 2");
    let at = a.transpose2();
    matmul(&at, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        // Small deterministic pseudo-random values, exactly representable
        // enough for strict comparisons at these sizes.
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((x >> 33) % 17) as f32 - 8.0
            })
            .collect()
    }

    #[test]
    fn matmul_matches_naive_small() {
        let (m, k, n) = (5, 7, 3);
        let a = filled(m * k, 1);
        let b = filled(k * n, 2);
        let c = matmul(
            &Tensor::from_vec(a.clone(), &[m, k]),
            &Tensor::from_vec(b.clone(), &[k, n]),
        );
        assert_eq!(c.data(), naive(m, k, n, &a, &b).as_slice());
    }

    #[test]
    fn matmul_identity() {
        let n = 8;
        let mut eye = Tensor::zeros(&[n, n]);
        for i in 0..n {
            eye.set(&[i, i], 1.0);
        }
        let a = Tensor::from_vec(filled(n * n, 3), &[n, n]);
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    fn matmul_a_bt_matches_naive() {
        let (m, k, n) = (4, 6, 5);
        let a = filled(m * k, 4);
        let b = filled(n * k, 5);
        // naive against transposed b
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for kk in 0..k {
                bt[kk * n + j] = b[j * k + kk];
            }
        }
        let want = naive(m, k, n, &a, &bt);
        let c = matmul_a_bt(&Tensor::from_vec(a, &[m, k]), &Tensor::from_vec(b, &[n, k]));
        assert_eq!(c.data(), want.as_slice());
    }

    #[test]
    fn matmul_at_b_matches_naive() {
        let (m, k, n) = (3, 6, 4);
        let a = filled(k * m, 6); // stored as [k, m]
        let b = filled(k * n, 7);
        let mut at = vec![0.0f32; m * k];
        for i in 0..k {
            for j in 0..m {
                at[j * k + i] = a[i * m + j];
            }
        }
        let want = naive(m, k, n, &at, &b);
        let c = matmul_at_b(&Tensor::from_vec(a, &[k, m]), &Tensor::from_vec(b, &[k, n]));
        assert_eq!(c.data(), want.as_slice());
    }

    #[test]
    fn large_matmul_uses_threads_and_matches_naive() {
        // Big enough to cross PAR_THRESHOLD.
        let (m, k, n) = (128, 96, 128);
        let a = filled(m * k, 8);
        let b = filled(k * n, 9);
        let want = naive(m, k, n, &a, &b);
        let c = matmul(&Tensor::from_vec(a, &[m, k]), &Tensor::from_vec(b, &[k, n]));
        assert_eq!(c.data(), want.as_slice());
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::ones(&[2, 2]);
        let mut c = Tensor::full(&[2, 2], 10.0);
        gemm_nn_acc(2, 2, 2, a.data(), b.data(), c.data_mut());
        assert_eq!(c.data(), &[12.0, 12.0, 12.0, 12.0]);
    }
}
