//! End-to-end executed multiplications on the blocking executor: every
//! registry algorithm at a fixed small scale, COSMA under both §7.4
//! backends, all driven through the [`MmmAlgorithm`] trait — plus the
//! plan-predicted-vs-executed ablation (planning alone, and the cost-model
//! analysis of a plan, against the execution above).

use bench::micro::Group;
use cosma::algorithm::Backend;
use cosma::api::{execute_boxed, AlgoId, CosmaAlgorithm, MmmAlgorithm};
use cosma::problem::MmmProblem;
use cosma::CosmaConfig;
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::exec::ExecBackend;
use mpsim::machine::MachineSpec;

fn main() {
    let (m, n, k, p, s) = (128usize, 128usize, 128usize, 16usize, 1usize << 13);
    let prob = MmmProblem::new(m, n, k, p, s);
    let model = CostModel::piz_daint_two_sided();
    let a = Matrix::deterministic(m, k, 1);
    let b = Matrix::deterministic(k, n, 2);
    let spec = MachineSpec::piz_daint_with_memory(p, s);

    let group = Group::new("executed-128cube-p16");
    for backend in [Backend::TwoSided, Backend::OneSided] {
        let algo = CosmaAlgorithm::with_config(CosmaConfig { delta: 0.03, backend });
        let plan = algo.plan(&prob, &model).unwrap();
        group.bench(&format!("cosma-{backend:?}"), || algo.execute(&plan, &spec, &a, &b).unwrap());
    }
    let registry = baselines::registry();
    for id in [AlgoId::Summa, AlgoId::Cannon, AlgoId::P25d, AlgoId::Carma] {
        let algo = registry.by_id(id).unwrap();
        let plan = algo.plan(&prob, &model).unwrap();
        group.bench(id.as_str(), || {
            execute_boxed(algo.as_ref(), &plan, &spec, ExecBackend::auto(p), &a, &b).unwrap()
        });
    }

    // Ablation: planning alone vs cost-model analysis vs the execution
    // timed above.
    let group = Group::new("plan-vs-execute");
    let algo = registry.by_id(AlgoId::Cosma).unwrap();
    group.bench("plan-only", || algo.plan(&prob, &model).unwrap());
    let plan = algo.plan(&prob, &model).unwrap();
    group.bench("plan-analyze", || plan.simulate(&model, true));
}
