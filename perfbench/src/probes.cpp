/**
 * @file
 * Layer probes: each layer's public entry point re-run on rank 0's
 * captured shapes (its shards, routed inputs and MLP widths) outside the
 * timed loop, timed one call at a time. A probe reports the median call.
 */
#include <algorithm>
#include <unordered_set>

#include "bench.h"
#include "common/rng.h"
#include "common/stats.h"
#include "ops/embedding_bag.h"
#include "ops/mlp.h"
#include "tensor/gemm.h"

namespace perfbench {

using namespace neo;

namespace {

/** Timed passes over the captured steps. */
constexpr int kProbeReps = 3;

Matrix
RandomMatrix(size_t rows, size_t cols, Rng& rng)
{
    Matrix m(rows, cols);
    m.InitUniform(rng, -0.01f, 0.01f);
    return m;
}

/** One embedding collection (shards or DP replicas) with its inputs. */
struct EmbProbe {
    std::unique_ptr<ops::EmbeddingBagCollection> bag;
    size_t batch = 0;
    /** Per step: one TableInput per table (views into the captures). */
    std::vector<std::vector<ops::TableInput>> inputs;
    std::vector<std::vector<Matrix>> grads;
};

}  // namespace

ProbeResult
RunProbes(const core::DlrmConfig& model, const CapturedShapes& captured)
{
    ProbeResult out;
    if (captured.steps.empty()) {
        return out;
    }
    Rng rng(model.seed);
    const size_t b_local = captured.steps.front().local_batch;

    // ---- embedding bags: rank 0's shards (global batch) and DP tables
    // (local batch), with the same routed indices the trainer saw.
    std::vector<EmbProbe> probes(2);
    std::vector<ops::TableSpec> shard_specs;
    for (const auto& shard : captured.shards) {
        shard_specs.push_back({shard.NumRows(), shard.NumCols(),
                               model.tables[shard.table].precision});
    }
    std::vector<ops::TableSpec> dp_specs;
    for (int t : captured.dp_tables) {
        dp_specs.push_back({model.tables[t].rows, model.tables[t].dim,
                            model.tables[t].precision});
    }
    probes[0].bag = std::make_unique<ops::EmbeddingBagCollection>(
        shard_specs, model.sparse_optimizer, model.seed);
    probes[0].batch = b_local * kRanks;
    probes[1].bag = std::make_unique<ops::EmbeddingBagCollection>(
        dp_specs, model.sparse_optimizer, model.seed);
    probes[1].batch = b_local;

    double fwd_bytes = 0.0;
    double occurrences = 0.0;
    double unique_rows = 0.0;
    // Adds one table's input (and a random pooled gradient) to a probe.
    const auto add = [&](EmbProbe& p, const ops::TableInput& in, size_t dim) {
        p.inputs.back().push_back(in);
        p.grads.back().push_back(RandomMatrix(p.batch, dim, rng));
        const std::unordered_set<int64_t> rows(in.indices.begin(),
                                               in.indices.end());
        occurrences += static_cast<double>(in.indices.size());
        unique_rows += static_cast<double>(rows.size());
        fwd_bytes += static_cast<double>((in.indices.size() + p.batch) * dim *
                                         sizeof(float));
    };
    for (const auto& step : captured.steps) {
        for (auto& p : probes) {
            p.inputs.emplace_back();
            p.grads.emplace_back();
        }
        for (size_t i = 0; i < captured.shards.size(); i++) {
            add(probes[0], step.shard_inputs[i].InputForTable(0),
                static_cast<size_t>(shard_specs[i].dim));
        }
        for (size_t i = 0; i < captured.dp_tables.size(); i++) {
            add(probes[1],
                step.local_sparse.InputForTable(
                    static_cast<size_t>(captured.dp_tables[i])),
                static_cast<size_t>(dp_specs[i].dim));
        }
    }
    const double steps = static_cast<double>(captured.steps.size());
    out.emb_bwd_unique_frac =
        occurrences > 0.0 ? unique_rows / occurrences : 0.0;

    std::vector<double> fwd_ms;
    std::vector<double> bwd_ms;
    std::vector<Matrix> pooled;
    for (int rep = 0; rep < kProbeReps; rep++) {
        for (size_t s = 0; s < captured.steps.size(); s++) {
            double fwd = 0.0;
            double bwd = 0.0;
            for (auto& p : probes) {
                if (p.bag->NumTables() == 0) {
                    continue;
                }
                const auto t0 = Clock::now();
                p.bag->Forward(p.inputs[s], p.batch, pooled);
                const auto t1 = Clock::now();
                p.bag->BackwardAndUpdate(p.inputs[s], p.batch, p.grads[s]);
                const auto t2 = Clock::now();
                fwd += Ms(t0, t1);
                bwd += Ms(t1, t2);
            }
            fwd_ms.push_back(fwd);
            bwd_ms.push_back(bwd);
        }
    }
    out.emb_fwd_ms = Percentile(fwd_ms, 50.0);
    out.emb_bwd_ms = Percentile(bwd_ms, 50.0);
    out.emb_fwd_gbps =
        out.emb_fwd_ms > 0.0
            ? fwd_bytes / steps / (out.emb_fwd_ms * 1e-3) / 1e9
            : 0.0;

    // ---- dense arch: bottom + top MLP forward, backward, optimizer ----
    ops::Mlp bottom(ops::MlpConfig{model.BottomLayerSizes(), true}, rng);
    ops::Mlp top(ops::MlpConfig{model.TopLayerSizes(), false}, rng);
    ops::DenseOptimizer dense_opt(model.dense_optimizer);
    const auto bottom_slots = bottom.RegisterParams(dense_opt);
    const auto top_slots = top.RegisterParams(dense_opt);
    const Matrix top_in = RandomMatrix(b_local, top.InputDim(), rng);
    const Matrix top_grad = RandomMatrix(b_local, top.OutputDim(), rng);
    const Matrix bottom_grad = RandomMatrix(b_local, bottom.OutputDim(), rng);
    std::vector<double> mlp_fwd;
    std::vector<double> mlp_bwd;
    std::vector<double> opt;
    Matrix bottom_out;
    Matrix top_out;
    Matrix grad_in;
    for (int rep = 0; rep < kProbeReps; rep++) {
        for (const auto& step : captured.steps) {
            const auto t0 = Clock::now();
            bottom.Forward(step.dense, bottom_out);
            top.Forward(top_in, top_out);
            const auto t1 = Clock::now();
            top.ZeroGrads();
            top.Backward(top_grad, grad_in);
            bottom.ZeroGrads();
            bottom.Backward(bottom_grad, grad_in);
            const auto t2 = Clock::now();
            bottom.ApplyOptimizer(dense_opt, bottom_slots);
            top.ApplyOptimizer(dense_opt, top_slots);
            const auto t3 = Clock::now();
            mlp_fwd.push_back(Ms(t0, t1));
            mlp_bwd.push_back(Ms(t1, t2));
            opt.push_back(Ms(t2, t3));
        }
    }
    out.mlp_fwd_ms = Percentile(mlp_fwd, 50.0);
    out.mlp_bwd_ms = Percentile(mlp_bwd, 50.0);
    out.dense_opt_ms = Percentile(opt, 50.0);

    // ---- GEMM at the widest top-MLP layer: out = in * W^T ----
    const std::vector<size_t> widths = model.TopLayerSizes();
    size_t layer = 0;
    for (size_t l = 0; l + 1 < widths.size(); l++) {
        if (widths[l] * widths[l + 1] > widths[layer] * widths[layer + 1]) {
            layer = l;
        }
    }
    const Matrix a = RandomMatrix(b_local, widths[layer], rng);
    const Matrix w = RandomMatrix(widths[layer + 1], widths[layer], rng);
    Matrix c(b_local, widths[layer + 1]);
    std::vector<double> gemm_ms;
    for (int rep = 0; rep < 20; rep++) {
        const auto t0 = Clock::now();
        Gemm(Trans::kNo, Trans::kYes, 1.0f, a, w, 0.0f, c);
        gemm_ms.push_back(Ms(t0, Clock::now()));
    }
    const double flops = 2.0 * static_cast<double>(b_local) *
                         static_cast<double>(widths[layer]) *
                         static_cast<double>(widths[layer + 1]);
    out.gemm_gflops = flops / (Percentile(gemm_ms, 50.0) * 1e-3) / 1e9;
    return out;
}

}  // namespace perfbench
