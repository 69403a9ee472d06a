/**
 * @file
 * PARAM replay mode (Appendix A): record the exact collective sequence of
 * a real (functional) distributed training run, then replay it through
 * the calibrated cluster model to estimate per-iteration communication
 * time at full scale. This bridges the two layers of the repo — what the
 * workload actually sends is measured; how long the cluster takes is
 * modeled.
 */
#include <cstdio>

#include "comm/threaded_process_group.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "sharding/planner.h"
#include "sim/trace_replay.h"

namespace {

using namespace neo;

}  // namespace

int
main()
{
    constexpr int kWorkers = 8;
    constexpr size_t kLocalBatch = 64;
    constexpr int kSteps = 3;

    // A mid-sized model so the trace has realistic structure.
    core::DlrmConfig model = core::MakeSmallDlrmConfig(16, 2000, 16);
    model.tables[0].rows = 40000;
    model.tables[1].pooling = 50;

    sharding::PlannerOptions planner_options;
    planner_options.topo.num_workers = kWorkers;
    planner_options.topo.workers_per_node = kWorkers;
    planner_options.global_batch = kLocalBatch * kWorkers;
    planner_options.hbm_bytes_per_worker = 1e9;
    sharding::ShardingPlanner planner(planner_options);
    const sharding::ShardingPlan plan = planner.Plan(model.tables);

    const data::DatasetConfig data_config = core::MakeDatasetConfig(model, 3);

    // ---- record rank 0's collective trace over real training steps ----
    std::vector<comm::TraceEvent> trace;
    comm::ThreadedWorld::Run(kWorkers, [&](int rank,
                                           comm::ProcessGroup& pg) {
        if (rank == 0) {
            pg.SetTrace(&trace);
        }
        core::DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(data_config);
        for (int step = 0; step < kSteps; step++) {
            data::Batch global = dataset.NextBatch(kLocalBatch * kWorkers);
            const size_t begin = rank * kLocalBatch;
            data::Batch local;
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
            trainer.TrainStep(local);
        }
        if (rank == 0) {
            pg.SetTrace(nullptr);
        }
    });

    uint64_t total_bytes = 0;
    for (const auto& event : trace) {
        total_bytes += event.bytes;
    }
    std::printf("== PARAM replay mode: recorded functional trace ==\n");
    std::printf("%zu collective calls over %d steps, %s total payload "
                "(rank 0)\n\n",
                trace.size(), kSteps, FormatBytes(total_bytes).c_str());

    // ---- replay on modeled clusters ------------------------------------
    std::printf("replaying the trace on the modeled prototype cluster:\n\n");
    TablePrinter table({"Target GPUs", "comm ms/iter", "AllToAll ms",
                        "AllReduce ms", "other ms"});
    for (int gpus : {8, 16, 32, 64, 128}) {
        const sim::CommModel comm_model(
            sim::ClusterSpec::Prototype((gpus + 7) / 8));
        const sim::ReplayEstimate est =
            sim::ReplayTrace(trace, comm_model, gpus);
        const double per_iter = 1e3 / kSteps;
        table.Row()
            .Cell(gpus)
            .CellF(est.total_seconds * per_iter, "%.2f")
            .CellF(est.alltoall_seconds * per_iter, "%.2f")
            .CellF(est.allreduce_seconds * per_iter, "%.2f")
            .CellF((est.total_seconds - est.alltoall_seconds -
                    est.allreduce_seconds) *
                       per_iter,
                   "%.2f");
    }
    table.Print();
    std::printf("\n(serialized comm time; AllToAll grows with scale while "
                "the AllReduce term stays amortized — the Fig. 12 trend, "
                "now from a measured trace)\n");
    return 0;
}
