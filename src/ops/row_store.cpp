#include "ops/row_store.h"

#include <algorithm>

#include "common/logging.h"

namespace neo::ops {

void
StageRows(RowStore& store, std::span<const int64_t> indices,
          StagedRows& staged)
{
    NEO_REQUIRE(staged.table.dim() == store.dim(),
                "staging table width mismatch");
    std::vector<int64_t>& rows = staged.rows;
    rows.assign(indices.begin(), indices.end());
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    NEO_REQUIRE(rows.empty() || (rows.front() >= 0 &&
                                 rows.back() < store.rows()),
                "row index out of range");
    const int64_t n = static_cast<int64_t>(rows.size());
    if (staged.table.rows() < n) {
        staged.table = EmbeddingTable(n, store.dim());
    }
    // Read each row at its first occurrence, not in ascending order: the
    // update then sweeps the rows ascending, and two ascending sweeps
    // cycle through every cache set, so once a batch names more rows of a
    // set than it has ways, LRU would evict each row before its reuse.
    std::vector<float> row(static_cast<size_t>(store.dim()));
    std::vector<char> seen(rows.size(), 0);
    staged.indices.resize(indices.size());
    for (size_t i = 0; i < indices.size(); i++) {
        const int64_t k =
            std::lower_bound(rows.begin(), rows.end(), indices[i]) -
            rows.begin();
        staged.indices[i] = k;
        if (!seen[k]) {
            seen[k] = 1;
            store.ReadRow(indices[i], row.data());
            staged.table.WriteRow(k, row.data());
        }
    }
}

}  // namespace neo::ops
