//! The paper's motivating production workload (§8): the matrix products of
//! RPA energy calculations for `w` water molecules, `m = n = 136·w`,
//! `k = 228·w²` — extremely "tall-and-skinny" (largeK).
//!
//! Small `w` is executed and verified on the simulator; the paper's
//! `w = 128` (17,408 × 3,735,552) is planned at full scale and the per-rank
//! communication of COSMA vs the baselines is reported, reproducing the
//! strong-scaling setup of Figures 10–11. Everything goes through
//! [`RunSession`] over the full algorithm registry.
//!
//! Run with: `cargo run --release --example rpa_water`

use cosma::api::{AlgoId, RunSession};
use cosma::problem::MmmProblem;
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::machine::MachineSpec;

fn main() {
    let registry = baselines::registry();
    let model = CostModel::piz_daint_two_sided();

    // --- Executed: w = 2 on 16 simulated ranks ---
    let small = MmmProblem::rpa_water(2, 16, 1 << 17);
    println!("w = 2: m = n = {}, k = {} on {} ranks (executed)", small.m, small.n, small.k);
    let a = Matrix::deterministic(small.m, small.k, 3);
    let b = Matrix::deterministic(small.k, small.n, 4);
    let (dplan, _) = RunSession::new(small)
        .machine(model)
        .execute_verified(&a, &b)
        .expect("cosma executes");
    println!("  verified ✓  (grid {:?})\n", dplan.grid);

    // --- Planned at paper scale: w = 128, strong scaling ---
    println!("w = 128: m = n = 17,408, k = 3,735,552 (planned, Piz-Daint-like S)");
    println!("{:>7} | {:>12} {:>12} {:>12} | speedup", "cores", "cosma MB", "summa MB", "p25d MB");
    for p in [2048usize, 4096, 8192, 16384] {
        let prob = MmmProblem::rpa_water(128, p, MachineSpec::piz_daint(p).mem_words);
        let mb = |w: f64| w * 8.0 / 1e6;
        let run = |id: AlgoId| {
            RunSession::new(prob)
                .machine(model)
                .registry(registry.clone())
                .algorithm(id)
                .run()
                .unwrap_or_else(|e| panic!("{id} at p={p}: {e}"))
        };
        let cosma = run(AlgoId::Cosma);
        let summa = run(AlgoId::Summa);
        let ctf = run(AlgoId::P25d);
        let best_other = summa.report.time_s.min(ctf.report.time_s);
        println!(
            "{p:>7} | {:>12.1} {:>12.1} {:>12.1} | {:.2}x",
            mb(cosma.plan.mean_comm_words()),
            mb(summa.plan.mean_comm_words()),
            mb(ctf.plan.mean_comm_words()),
            best_other / cosma.report.time_s
        );
    }
    println!("\n(COSMA's advantage on tall-and-skinny matrices is the paper's headline result.)");
}
