#include "ops/embedding_bag.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neo::ops {

namespace {

/**
 * Batch rows per forward shard. Each shard pools a contiguous sample range
 * of one table, so shards write disjoint output rows and the partitioning
 * (table x fixed batch chunks) is independent of the thread count.
 */
constexpr size_t kForwardBatchGrain = 64;

/** One (job, sample-range) unit of forward work. */
struct ForwardShard {
    size_t job;
    size_t batch_begin;
    size_t batch_end;
    size_t index_offset;  // offset of batch_begin's first index
};

}  // namespace

void
PoolBags(std::span<const PoolJob> jobs)
{
    // Serial pass: validate inputs, size outputs, and carve the fused
    // (table x batch) iteration space into shards. Offsets into the
    // combined indices are prefix sums of lengths, so they are computed
    // here once and each shard starts from a known position.
    std::vector<ForwardShard> shards;
    for (size_t j = 0; j < jobs.size(); j++) {
        const PoolJob& job = jobs[j];
        const size_t batch = job.input.lengths.size();
        const size_t dim = static_cast<size_t>(job.table->dim());
        Matrix& out = *job.out;
        if (out.rows() != batch || out.cols() != dim) {
            out = Matrix(batch, dim);
        } else {
            out.Zero();
        }
        size_t offset = 0;
        for (size_t b = 0; b < batch; b++) {
            if (b % kForwardBatchGrain == 0) {
                shards.push_back(
                    {j, b, std::min(b + kForwardBatchGrain, batch), offset});
            }
            const uint32_t len = job.input.lengths[b];
            NEO_CHECK(offset + len <= job.input.indices.size(),
                      "indices shorter than lengths imply");
            offset += len;
        }
        NEO_CHECK(offset == job.input.indices.size(),
                  "indices longer than lengths imply");
    }
    // Fused parallel loop over all tables (the CPU analogue of the single
    // batched CUDA kernel in Fig. 7). Shards write disjoint output rows and
    // only read table parameters, so any thread count produces the serial
    // result bit-for-bit. Each bag pools through the active SIMD kernel
    // tier's fused gather+accumulate.
    static obs::Counter& pool_calls =
        obs::MetricsRegistry::Get().GetCounter("neo.kernels.pool_calls");
    ParallelFor(0, shards.size(), 1, [&](size_t s0, size_t s1) {
        uint64_t bags = 0;
        for (size_t s = s0; s < s1; s++) {
            const ForwardShard& shard = shards[s];
            const PoolJob& job = jobs[shard.job];
            size_t offset = shard.index_offset;
            for (size_t b = shard.batch_begin; b < shard.batch_end; b++) {
                const uint32_t len = job.input.lengths[b];
                job.table->PoolRows(job.input.indices.data() + offset, len,
                                    job.out->Row(b));
                offset += len;
            }
            bags += shard.batch_end - shard.batch_begin;
        }
        pool_calls.Add(bags);
    });
}

void
CollectGrads(const TableInput& input, size_t batch, const Matrix& grad,
             std::vector<SparseGradRef>& refs)
{
    NEO_REQUIRE(input.lengths.size() == batch, "lengths size mismatch");
    NEO_REQUIRE(grad.rows() == batch, "grad batch mismatch");
    refs.clear();
    refs.reserve(input.indices.size());
    size_t offset = 0;
    for (size_t b = 0; b < batch; b++) {
        const float* g = grad.Row(b);
        const uint32_t len = input.lengths[b];
        for (uint32_t i = 0; i < len; i++) {
            refs.push_back({input.indices[offset + i], g});
        }
        offset += len;
    }
    NEO_CHECK(offset == input.indices.size(), "indices/lengths mismatch");
}

uint64_t
EmbeddingBagCollection::TableSeed(uint64_t base_seed, size_t table)
{
    SplitMix64 sm(base_seed + 0xABCD0000ull + table);
    return sm.Next();
}

EmbeddingBagCollection::EmbeddingBagCollection(
    const std::vector<TableSpec>& specs,
    const SparseOptimizerConfig& optimizer, uint64_t seed)
{
    tables_.reserve(specs.size());
    optimizers_.reserve(specs.size());
    for (size_t t = 0; t < specs.size(); t++) {
        const auto& spec = specs[t];
        tables_.emplace_back(spec.rows, spec.dim, spec.precision);
        tables_.back().InitDeterministic(TableSeed(seed, t), 0, 0, spec.dim);
        optimizers_.emplace_back(optimizer, spec.rows, spec.dim);
    }
}

void
EmbeddingBagCollection::Forward(std::span<const TableInput> inputs,
                                size_t batch,
                                std::vector<Matrix>& outputs) const
{
    NEO_TRACE_SPAN("emb_bag_forward", "emb_fwd");
    NEO_REQUIRE(inputs.size() == tables_.size(),
                "one input per table required");
    outputs.resize(tables_.size());
    std::vector<PoolJob> jobs;
    jobs.reserve(tables_.size());
    for (size_t t = 0; t < tables_.size(); t++) {
        NEO_REQUIRE(inputs[t].lengths.size() == batch,
                    "lengths size mismatch");
        jobs.push_back({&tables_[t], inputs[t], &outputs[t]});
    }
    PoolBags(jobs);
}

void
EmbeddingBagCollection::BackwardAndUpdate(std::span<const TableInput> inputs,
                                          size_t batch,
                                          const std::vector<Matrix>& grads)
{
    NEO_TRACE_SPAN("emb_bag_backward_update", "emb_bwd");
    NEO_REQUIRE(inputs.size() == tables_.size() &&
                grads.size() == tables_.size(),
                "one input and grad per table required");
    std::vector<SparseGradRef> refs;
    for (size_t t = 0; t < tables_.size(); t++) {
        CollectGrads(inputs[t], batch, grads[t], refs);
        optimizers_[t].ApplyExact(tables_[t], refs);
    }
}

void
EmbeddingBagCollection::BackwardAndUpdateNaive(
    std::span<const TableInput> inputs, size_t batch,
    const std::vector<Matrix>& grads)
{
    NEO_REQUIRE(inputs.size() == tables_.size() &&
                grads.size() == tables_.size(),
                "one input and grad per table required");
    std::vector<SparseGradRef> refs;
    for (size_t t = 0; t < tables_.size(); t++) {
        CollectGrads(inputs[t], batch, grads[t], refs);
        optimizers_[t].ApplyNaive(tables_[t], refs);
    }
}

size_t
EmbeddingBagCollection::ParameterBytes() const
{
    size_t total = 0;
    for (const auto& t : tables_) {
        total += t.ParameterBytes();
    }
    return total;
}

size_t
EmbeddingBagCollection::OptimizerStateBytes() const
{
    size_t total = 0;
    for (const auto& o : optimizers_) {
        total += o.StateBytes();
    }
    return total;
}

void
EmbeddingBagCollection::Save(BinaryWriter& writer) const
{
    writer.Write<uint32_t>(0x45424143u);  // 'EBAC'
    writer.Write<uint64_t>(tables_.size());
    for (const auto& t : tables_) {
        t.Save(writer);
    }
}

void
EmbeddingBagCollection::Load(BinaryReader& reader)
{
    const uint32_t magic = reader.Read<uint32_t>();
    NEO_REQUIRE(magic == 0x45424143u, "bad collection magic");
    const uint64_t n = reader.Read<uint64_t>();
    NEO_REQUIRE(n == tables_.size(), "checkpoint table count mismatch");
    for (size_t t = 0; t < tables_.size(); t++) {
        EmbeddingTable loaded = EmbeddingTable::Load(reader);
        NEO_REQUIRE(loaded.rows() == tables_[t].rows() &&
                    loaded.dim() == tables_[t].dim(),
                    "checkpoint table shape mismatch");
        tables_[t] = std::move(loaded);
    }
}

}  // namespace neo::ops
