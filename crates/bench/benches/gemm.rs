//! Local GEMM kernel microbenchmarks: the naive reference and the packed
//! kernel that replace vendor BLAS, across the block shapes the distributed
//! algorithms actually multiply (square tiles, thin slabs).

use bench::micro::Group;
use densemat::gemm::{gemm_naive, gemm_packed};
use densemat::matrix::Matrix;

fn main() {
    let group = Group::new("gemm-square");
    for &n in &[64usize, 128, 256] {
        let a = Matrix::deterministic(n, n, 1);
        let b = Matrix::deterministic(n, n, 2);
        group.bench(&format!("naive/{n}"), || {
            let mut cmat = Matrix::zeros(n, n);
            gemm_naive(&a, &b, &mut cmat);
            cmat
        });
        group.bench(&format!("packed/{n}"), || {
            let mut cmat = Matrix::zeros(n, n);
            gemm_packed(&a, &b, &mut cmat);
            cmat
        });
    }

    // COSMA's actual local shape: a C tile times a thin k-slab.
    let group = Group::new("gemm-slab");
    for &s in &[8usize, 32, 128] {
        let (mn, k) = (256, s);
        let a = Matrix::deterministic(mn, k, 3);
        let b = Matrix::deterministic(k, mn, 4);
        group.bench(&format!("naive/{s}"), || {
            let mut cmat = Matrix::zeros(mn, mn);
            gemm_naive(&a, &b, &mut cmat);
            cmat
        });
        group.bench(&format!("packed/{s}"), || {
            let mut cmat = Matrix::zeros(mn, mn);
            gemm_packed(&a, &b, &mut cmat);
            cmat
        });
    }
}
