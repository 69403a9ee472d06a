/**
 * @file
 * The F1 story at example scale: a model whose single massive table
 * cannot fit one worker's memory. Shows (1) the capacity math that makes
 * 12T parameters trainable (row-wise AdaGrad + FP16), (2) row-wise
 * sharding with bucketized inputs running functionally across workers,
 * and (3) the HBM-as-cache-over-DDR hierarchy (software cache vs UVM)
 * serving a table bigger than "HBM".
 *
 *   ./capacity_12t
 */
#include <cstdio>

#include "cache/cached_embedding_store.h"
#include "cache/uvm_store.h"
#include "comm/threaded_process_group.h"
#include "common/units.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "data/dataset.h"
#include "sim/capacity_model.h"

namespace {

using namespace neo;

}  // namespace

int
main()
{
    // ---- 1. The paper's capacity math, full scale ----------------------
    const sim::WorkloadModel f1 = sim::WorkloadModel::F1();
    const sim::ClusterSpec cluster = sim::ClusterSpec::Prototype(16);
    const sim::CapacityEstimate naive = sim::EstimateCapacity(
        f1, cluster, Precision::kFp32, /*rowwise=*/false, 256.0);
    const sim::CapacityEstimate optimized = sim::EstimateCapacity(
        f1, cluster, Precision::kFp16, /*rowwise=*/true, 256.0);
    std::printf("== 12T-parameter model footprint ==\n");
    std::printf("naive (FP32 + elementwise state):   %s\n",
                FormatBytes(naive.naive_bytes).c_str());
    std::printf("FP16 + row-wise AdaGrad:            %s (fits HBM+DDR: "
                "%s)\n\n",
                FormatBytes(optimized.optimized_bytes).c_str(),
                optimized.fits_hbm_ddr ? "yes" : "no");

    // ---- 2. Functional row-wise sharded training (scaled down) --------
    // One massive table (vs its siblings) forces row-wise sharding;
    // inputs are bucketized by row range and partial pools ReduceScatter.
    constexpr int kWorkers = 4;
    constexpr size_t kLocalBatch = 32;
    core::DlrmConfig model = core::MakeSmallDlrmConfig(3, 200, 16);
    model.tables[0].rows = 100000;  // the "massive" table
    model.tables[0].name = "massive";
    model.sparse_optimizer.kind = ops::SparseOptimizerKind::kRowWiseAdaGrad;

    sharding::PlannerOptions options;
    options.topo.num_workers = kWorkers;
    options.topo.workers_per_node = kWorkers;
    options.global_batch = kLocalBatch * kWorkers;
    options.hbm_bytes_per_worker = 3e6;  // massive table cannot fit one
    sharding::ShardingPlanner planner(options);
    const sharding::ShardingPlan plan = planner.Plan(model.tables);
    std::printf("== scaled-down functional run ==\n");
    std::printf("massive table scheme: %s (%d row shards)\n",
                sharding::SchemeName(plan.SchemeForTable(0)),
                static_cast<int>(plan.shards.size()) -
                    static_cast<int>(model.tables.size()) + 1);

    const data::DatasetConfig data_config =
        core::MakeDatasetConfig(model, 7, /*zipf_s=*/1.1);
    std::vector<double> last_loss(kWorkers);
    comm::ThreadedWorld::Run(kWorkers, [&](int rank,
                                           comm::ProcessGroup& pg) {
        core::DistributedDlrm trainer(model, plan, pg);
        data::SyntheticCtrDataset dataset(data_config);
        for (int step = 0; step < 25; step++) {
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
            last_loss[rank] = trainer.TrainStep(local);
        }
    });
    std::printf("trained 25 steps across %d workers; final loss %.4f\n\n",
                kWorkers, last_loss[0]);

    // ---- 3. HBM-as-cache over DDR: software cache vs UVM ---------------
    const int64_t rows = 200000, dim = 32;
    Rng rng(11);
    ZipfSampler sampler(static_cast<uint64_t>(rows), 1.05);
    std::vector<int64_t> trace(200000);
    for (auto& r : trace) {
        r = static_cast<int64_t>(sampler.Sample(rng));
    }
    std::vector<float> buf(static_cast<size_t>(dim));

    ops::EmbeddingTable backing1(rows, dim);
    cache::MemoryTier hbm1(cache::Tier::kHbm, 1e9, 850e9);
    cache::MemoryTier pcie1(cache::Tier::kDdr, 1e12, 13e9);
    cache::CachedEmbeddingStore sw(std::move(backing1), {256, 32}, &hbm1,
                                   &pcie1);
    for (int64_t r : trace) {
        sw.ReadRow(r, buf.data());
    }

    ops::EmbeddingTable backing2(rows, dim);
    cache::MemoryTier hbm2(cache::Tier::kHbm, 1e9, 850e9);
    cache::MemoryTier pcie2(cache::Tier::kDdr, 1e12, 13e9);
    cache::UvmPagedStore uvm(std::move(backing2), 64 * 1024, 1 << 20,
                             &hbm2, &pcie2);
    for (int64_t r : trace) {
        uvm.ReadRow(r, buf.data());
    }

    std::printf("== HBM-as-cache over DDR (Zipf trace, same budget) ==\n");
    std::printf("software cache: hit rate %.1f%%, PCIe traffic %s, "
                "effective time %s\n",
                sw.stats().HitRate() * 100.0,
                FormatBytes(pcie1.total_bytes()).c_str(),
                FormatSeconds(hbm1.TrafficSeconds() +
                              pcie1.TrafficSeconds()).c_str());
    std::printf("UVM paging:     fault rate %.1f%%, PCIe traffic %s, "
                "effective time %s\n",
                uvm.stats().FaultRate() * 100.0,
                FormatBytes(pcie2.total_bytes()).c_str(),
                FormatSeconds(hbm2.TrafficSeconds() +
                              pcie2.TrafficSeconds()).c_str());
    std::printf("(the paper reports ~15%% end-to-end gain from the "
                "software cache over UVM)\n");
    return 0;
}
