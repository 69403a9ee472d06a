#include "cache/tiered_embedding_bag.h"

#include "common/logging.h"

namespace neo::cache {

namespace {

ops::RowStore*
RequireStore(ops::RowStore* store)
{
    NEO_REQUIRE(store != nullptr, "null row store");
    return store;
}

}  // namespace

TieredEmbeddingBag::TieredEmbeddingBag(
    ops::RowStore* store, const ops::SparseOptimizerConfig& optimizer)
    : store_(RequireStore(store)),
      optimizer_(optimizer, store_->rows(), store_->dim()),
      staged_(store_->dim())
{
}

void
TieredEmbeddingBag::Forward(const ops::TableInput& input, size_t batch,
                            Matrix& out)
{
    NEO_REQUIRE(input.lengths.size() == batch, "lengths size mismatch");
    ops::StageRows(*store_, input.indices, staged_);
    const ops::PoolJob job{&staged_.table,
                           {input.lengths, staged_.indices}, &out};
    ops::PoolBags({&job, 1});
}

void
TieredEmbeddingBag::BackwardAndUpdate(const ops::TableInput& input,
                                      size_t batch, const Matrix& grad)
{
    ops::CollectGrads(input, batch, grad, refs_);
    optimizer_.GroupByRow(refs_);
    optimizer_.ApplyGrouped(*store_);
}

}  // namespace neo::cache
