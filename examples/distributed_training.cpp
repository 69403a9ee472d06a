/**
 * @file
 * Distributed hybrid-parallel training on 8 simulated GPU workers:
 * the sharding planner assigns embedding tables across workers
 * (table-wise / column-wise / data-parallel), MLPs are replicated, and
 * the full synchronous step runs — input AllToAll, fused lookups, pooled
 * AllToAll (FP16-quantized), backward with exact sparse updates and the
 * MLP gradient AllReduce. Demonstrates the determinism contract and the
 * communication accounting.
 *
 *   ./distributed_training [workers]
 *
 * With NEO_TRACE=1 the run also records per-rank spans, writes the
 * Chrome trace to neo_trace.json (load it in https://ui.perfetto.dev),
 * and prints the measured step breakdown side by side with the
 * sim::IterationModel prediction for the same workload.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "comm/threaded_process_group.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "obs/step_breakdown.h"
#include "obs/trace.h"
#include "sharding/planner.h"
#include "sim/iteration_model.h"

namespace {

using namespace neo;

/**
 * Aggregate workload stats for sim::IterationModel, derived from the
 * same config the functional run trains.
 */
sim::WorkloadModel
MakeWorkloadModel(const core::DlrmConfig& model)
{
    sim::WorkloadModel w;
    w.name = "example";
    w.num_params = model.TotalParams();
    w.num_tables = static_cast<int>(model.tables.size());
    int64_t dim_min = model.tables[0].dim;
    int64_t dim_max = model.tables[0].dim;
    double dim_sum = 0.0;
    double pooling_sum = 0.0;
    double max_table = 0.0;
    for (const auto& t : model.tables) {
        dim_min = std::min(dim_min, t.dim);
        dim_max = std::max(dim_max, t.dim);
        dim_sum += static_cast<double>(t.dim);
        pooling_sum += static_cast<double>(t.pooling);
        max_table = std::max(
            max_table, static_cast<double>(t.rows) *
                           static_cast<double>(t.dim));
    }
    w.dim_min = dim_min;
    w.dim_max = dim_max;
    w.dim_avg = dim_sum / static_cast<double>(model.tables.size());
    w.avg_pooling = pooling_sum / static_cast<double>(model.tables.size());
    w.max_table_params = max_table;
    // Forward MFLOPs/sample: 2 * sum of layer weight products.
    double flops = 0.0;
    const std::vector<size_t> bottom = model.BottomLayerSizes();
    for (size_t i = 0; i + 1 < bottom.size(); i++) {
        flops += 2.0 * static_cast<double>(bottom[i] * bottom[i + 1]);
    }
    const std::vector<size_t> top = model.TopLayerSizes();
    double mlp_width_sum = 0.0;
    int mlp_layers = 0;
    for (size_t i = 0; i + 1 < top.size(); i++) {
        flops += 2.0 * static_cast<double>(top[i] * top[i + 1]);
    }
    for (const size_t width : bottom) {
        mlp_width_sum += static_cast<double>(width);
        mlp_layers++;
    }
    for (const size_t width : top) {
        mlp_width_sum += static_cast<double>(width);
        mlp_layers++;
    }
    w.mflops_per_sample = flops / 1e6;
    w.num_mlp_layers = mlp_layers;
    w.avg_mlp_size = mlp_width_sum / mlp_layers;
    return w;
}

/** Worst per-worker sum of row-wise-sharded dims (TrainingSetup knob). */
double
MaxRowWiseDimSum(const sharding::ShardingPlan& plan,
                 const core::DlrmConfig& model, int workers)
{
    std::vector<double> per_worker(workers, 0.0);
    for (const auto& shard : plan.shards) {
        if (shard.scheme == sharding::Scheme::kRowWise) {
            per_worker[shard.worker] +=
                static_cast<double>(model.tables[shard.table].dim);
        }
    }
    double worst = 0.0;
    for (const double d : per_worker) {
        worst = std::max(worst, d);
    }
    return worst;
}

}  // namespace

int
main(int argc, char** argv)
{
    const int kWorkers = argc > 1 ? std::atoi(argv[1]) : 8;
    if (kWorkers < 1) {
        std::fprintf(stderr, "usage: %s [workers]\n", argv[0]);
        return 2;
    }
    constexpr size_t kLocalBatch = 64;
    constexpr int kSteps = 40;

    // NEO_TRACE=1 in the environment switches the tracer on at first use.
    const bool tracing = obs::Tracer::Get().enabled();

    // A model with heterogeneous tables so the planner has real choices:
    // a couple of hot/wide tables, several medium ones, tiny enums.
    core::DlrmConfig model = core::MakeSmallDlrmConfig(
        /*num_tables=*/8, /*rows=*/3000, /*dim=*/16);
    model.tables[0].rows = 60000;   // big: forced to split rows
    model.tables[1].pooling = 60;   // hot: heavy pooling, split columns
    model.tables[6].rows = 60;      // tiny: data-parallel candidates
    model.tables[7].rows = 90;

    // ---- plan the sharding ----------------------------------------
    sharding::PlannerOptions planner_options;
    planner_options.topo.num_workers = kWorkers;
    planner_options.topo.workers_per_node = kWorkers;
    planner_options.global_batch = kLocalBatch * kWorkers;
    planner_options.hbm_bytes_per_worker = 4e6;  // tiny "HBM" to force splits
    planner_options.cw_min_dim = 16;
    planner_options.cw_shard_dim = 8;
    sharding::ShardingPlanner planner(planner_options);
    const sharding::ShardingPlan plan = planner.Plan(model.tables);
    std::printf("sharding plan: %zu shards, imbalance %.3f%s\n",
                plan.shards.size(), plan.balance.imbalance,
                plan.feasible ? "" : " (INFEASIBLE)");
    for (size_t t = 0; t < model.tables.size(); t++) {
        std::printf("  %-8s -> %s\n", model.tables[t].name.c_str(),
                    sharding::SchemeName(
                        plan.SchemeForTable(static_cast<int>(t))));
    }

    // ---- run the workers -------------------------------------------
    core::DistributedOptions options;
    options.forward_alltoall = Precision::kFp16;  // quantized comms
    options.backward_alltoall = Precision::kBf16;

    std::vector<double> final_loss(kWorkers);
    std::vector<uint64_t> a2a_bytes(kWorkers);
    comm::ThreadedWorld::Run(kWorkers, [&](int rank,
                                           comm::ProcessGroup& pg) {
        core::DistributedDlrm trainer(model, plan, pg, options);
        // Each worker generates the identical global stream and trains on
        // its slice — what a distributed reader tier would feed it.
        data::SyntheticCtrDataset dataset(core::MakeDatasetConfig(model, 99));
        double loss = 0.0;
        for (int step = 0; step < kSteps; step++) {
            data::Batch global = dataset.NextBatch(kLocalBatch * kWorkers);
            data::Batch local;
            const size_t begin = rank * kLocalBatch;
            local.dense = Matrix(kLocalBatch, global.dense.cols());
            for (size_t b = 0; b < kLocalBatch; b++) {
                for (size_t c = 0; c < global.dense.cols(); c++) {
                    local.dense(b, c) = global.dense(begin + b, c);
                }
            }
            local.sparse =
                global.sparse.SliceBatch(begin, begin + kLocalBatch);
            local.labels.assign(global.labels.begin() + begin,
                                global.labels.begin() + begin +
                                    kLocalBatch);
            loss = trainer.TrainStep(local);
        }
        final_loss[rank] = loss;
        a2a_bytes[rank] = pg.Stats().alltoall_bytes;
    });

    // Synchronous training: every worker reports the identical global
    // loss, bit for bit.
    std::printf("\nfinal global loss per worker:");
    bool all_equal = true;
    for (int w = 0; w < kWorkers; w++) {
        std::printf(" %.6f", final_loss[w]);
        all_equal &= final_loss[w] == final_loss[0];
    }
    std::printf("\nall workers agree bitwise: %s\n",
                all_equal ? "yes" : "NO");
    std::printf("AllToAll traffic per worker over %d steps: ~%.2f MB\n",
                kSteps, a2a_bytes[0] / 1e6);

    // ---- measured vs. modeled step breakdown ------------------------
    if (tracing) {
        const std::vector<obs::Span> spans = obs::Tracer::Get().Collect();
        if (!obs::Tracer::Get().WriteChromeJson("neo_trace.json")) {
            std::fprintf(stderr, "cannot write neo_trace.json\n");
            return 1;
        }
        std::printf("\nwrote neo_trace.json (%zu spans; open in "
                    "https://ui.perfetto.dev)\n",
                    spans.size());
        const obs::StepBreakdown measured =
            obs::StepBreakdown::FromSpans(spans, /*rank=*/0);
        std::printf("\nmeasured step breakdown (rank 0, %d steps, "
                    "coverage %.1f%%):\n\n%s\n",
                    measured.steps, measured.Coverage() * 100.0,
                    measured.ToTable().c_str());

        // Model the same workload on the paper's A100 cluster. The
        // functional run executes on simulated CPU workers, so absolute
        // times differ by construction — the point of the diff is the
        // shape of the breakdown, not the magnitudes.
        sim::TrainingSetup setup;
        setup.cluster = sim::ClusterSpec::Prototype(1);
        setup.num_gpus = kWorkers;
        setup.per_gpu_batch = static_cast<int64_t>(kLocalBatch);
        setup.fwd_comm = Precision::kFp16;
        setup.bwd_comm = Precision::kBf16;
        setup.imbalance = plan.balance.imbalance;
        setup.rw_dim_sum = MaxRowWiseDimSum(plan, model, kWorkers);
        const sim::IterationModel iteration(MakeWorkloadModel(model),
                                            setup);
        const obs::StepBreakdown modeled =
            obs::StepBreakdown::FromModel(iteration.Estimate());
        std::printf("measured (CPU workers) vs. modeled (A100 cluster):"
                    "\n\n%s\n",
                    obs::StepBreakdown::DiffTable(measured,
                                                  modeled).c_str());
    }
    return 0;
}
