//! Simulator substrate benchmarks: point-to-point message rate, collectives,
//! and the cost-model evaluation used by every figure.

use bench::micro::Group;
use mpsim::collectives::{allgather_bruck, allgather_ring, bcast, reduce_scatter_ring, reduce_sum};
use mpsim::cost::{simulate_rounds, CostModel, RoundCost};
use mpsim::exec::{run_spmd_with, ExecBackend};
use mpsim::machine::MachineSpec;
use mpsim::stats::Phase;

fn main() {
    let group = Group::new("collectives-p16");
    let spec = MachineSpec::test_machine(16, 1 << 20);
    let words = 4096usize;
    group.bench("bcast", || {
        run_spmd_with(&spec, ExecBackend::auto(spec.p), |mut comm| async move {
            let group: Vec<usize> = (0..comm.size()).collect();
            let mut data = if comm.rank() == 0 {
                vec![1.0; words]
            } else {
                vec![]
            };
            bcast(&mut comm, &group, 0, &mut data, 1, Phase::InputA).await;
        })
        .expect("blocking run accepted")
    });
    group.bench("reduce", || {
        run_spmd_with(&spec, ExecBackend::auto(spec.p), |mut comm| async move {
            let group: Vec<usize> = (0..comm.size()).collect();
            let mut data = vec![1.0; words];
            reduce_sum(&mut comm, &group, 0, &mut data, 1, Phase::OutputC).await;
        })
        .expect("blocking run accepted")
    });
    group.bench("allgather-ring", || {
        run_spmd_with(&spec, ExecBackend::auto(spec.p), |mut comm| async move {
            let group: Vec<usize> = (0..comm.size()).collect();
            allgather_ring(&mut comm, &group, vec![1.0; words / 16], 1, Phase::InputA).await
        })
        .expect("blocking run accepted")
    });
    group.bench("allgather-bruck", || {
        run_spmd_with(&spec, ExecBackend::auto(spec.p), |mut comm| async move {
            let group: Vec<usize> = (0..comm.size()).collect();
            let cuts: Vec<usize> = (0..=16).map(|j| j * words / 16).collect();
            let (pos, mut slab) = (comm.rank(), vec![1.0; words]);
            allgather_bruck(&mut comm, &group, pos, &mut slab, 1, &cuts, 1, Phase::InputA).await;
            slab
        })
        .expect("blocking run accepted")
    });
    group.bench("reduce-scatter", || {
        run_spmd_with(&spec, ExecBackend::auto(spec.p), |mut comm| async move {
            let group: Vec<usize> = (0..comm.size()).collect();
            let mut data = vec![1.0; words];
            reduce_scatter_ring(&mut comm, &group, &mut data, 1, Phase::OutputC).await
        })
        .expect("blocking run accepted")
    });
    // The same collective workload on the event-driven stackless executor:
    // collectives park in the matching table instead of on threads.
    let event_group = Group::new("collectives-p16-event");
    event_group.bench("bcast", || {
        run_spmd_with(&spec, ExecBackend::event(), |mut comm| async move {
            let group: Vec<usize> = (0..comm.size()).collect();
            let mut data = if comm.rank() == 0 {
                vec![1.0; words]
            } else {
                vec![]
            };
            bcast(&mut comm, &group, 0, &mut data, 1, Phase::InputA).await;
        })
        .expect("event run accepted")
    });

    let group = Group::new("cost-model");
    let model = CostModel::piz_daint_two_sided();
    for &rounds in &[16usize, 256, 4096] {
        let rs: Vec<RoundCost> = (0..rounds)
            .map(|i| RoundCost {
                words: 1000 + i as u64,
                msgs: 4,
                flops: 1_000_000,
            })
            .collect();
        group.bench(&format!("overlap/{rounds}"), || simulate_rounds(&rs, &model, true));
    }
}
