//! **Robustness** — cost-model sensitivity analysis (beyond the paper).
//!
//! The reproduction's headline ratios should not be knife-edge artifacts of
//! calibration. This binary perturbs the two load-bearing efficiency
//! constants — `m_half` (tensor-core saturation) and `n_droop` (wide-GEMM
//! droop) — by ±50% and re-measures Liger's saturated-throughput gain over
//! Intra-Op and its pre-saturation latency advantage over Inter-Op on the
//! OPT-30B/V100 panel. The qualitative conclusions must survive every
//! perturbation.
//!
//! Flags: `--requests N` (default 200).

use liger_bench::{arg_parse, intra_capacity, Node, Table};
use liger_core::{LigerConfig, LigerEngine};
use liger_model::{BatchShape, CostModel, ModelConfig};
use liger_parallelism::{InterOpEngine, IntraOpEngine, PipelineFlavor};
use liger_serving::{serve, PrefillTraceConfig};

fn run(cost: &CostModel, node: Node, rate: f64, requests: usize) -> (f64, f64, f64) {
    let model = ModelConfig::opt_30b();
    let trace = PrefillTraceConfig::paper(requests, 2, rate, 42).generate();
    let factor = node.contention_factor();

    let mut sim = node.simulation(4, false);
    let mut liger = LigerEngine::new(
        model.clone(),
        cost.clone(),
        4,
        LigerConfig::default().with_contention_factor(factor),
    )
    .unwrap();
    let lm = serve(&mut sim, &mut liger, trace.clone());

    let mut sim = node.simulation(4, false);
    let mut intra = IntraOpEngine::new(model.clone(), cost.clone(), 4).unwrap();
    let im = serve(&mut sim, &mut intra, trace.clone());

    let mut sim = node.simulation(4, false);
    let mut inter = InterOpEngine::new(model, cost.clone(), 4, PipelineFlavor::Measured).unwrap();
    let pm = serve(&mut sim, &mut inter, trace);

    (
        lm.throughput() / im.throughput(),
        lm.avg_latency().as_secs_f64(),
        pm.avg_latency().as_secs_f64(),
    )
}

fn main() {
    let requests: usize = arg_parse("requests", 200);
    let node = Node::V100;
    let base_cap = intra_capacity(&ModelConfig::opt_30b(), node, 4, BatchShape::prefill(2, 72));

    println!("Sensitivity: OPT-30B / V100, saturated rate; m_half and n_droop perturbed ±50%");
    let mut t = Table::new(&["m_half", "n_droop", "thr gain vs Intra", "lat vs Inter-Op"]);
    for m_scale in [0.5f64, 1.0, 1.5] {
        for d_scale in [0.5f64, 1.0, 1.5] {
            let mut cost = node.cost_model();
            cost.params.m_half *= m_scale;
            cost.params.n_droop *= d_scale;
            // Saturate relative to the *perturbed* capacity so every cell
            // sits at the same operating point.
            let ops = liger_model::assemble(
                &cost,
                &ModelConfig::opt_30b(),
                BatchShape::prefill(2, 72),
                4,
            );
            let (c, m) = liger_model::class_totals(&ops);
            let cap = 1.0 / (c + m).as_secs_f64();
            let (gain, liger_lat, inter_lat) = run(&cost, node, cap * 1.4, requests);
            t.row(&[
                format!("{:.0}", cost.params.m_half),
                format!("{:.0}k", cost.params.n_droop / 1e3),
                format!("x{gain:.3}"),
                format!("-{:.1}%", (1.0 - liger_lat / inter_lat) * 100.0),
            ]);
        }
    }
    println!("{}", t.render());
    let _ = base_cap;
    println!("Conclusion holds iff every row shows gain > 1 and a latency reduction.");
}
