/**
 * @file
 * Per-row dirty bits for differential checkpointing (Sec. 4.4,
 * Check-N-Run [9]): the trainer marks the rows a step is about to
 * update, and the next delta copies exactly the marked rows, so
 * checkpoint work scales with what training touched instead of with the
 * table.
 */
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace neo::core {

/**
 * One bit per embedding row. A set bit means the row (or its optimizer
 * state) may differ from the last checkpoint; a clear bit guarantees it
 * does not. Marking happens before the mutation, so a row that was
 * updated back to its old value (or rolled back) stays marked — the set
 * is a superset of the changed rows, never a subset.
 */
class DirtyRows
{
  public:
    /** All rows start dirty: nothing has been checkpointed yet. */
    explicit DirtyRows(int64_t rows)
        : rows_(rows), words_((static_cast<size_t>(rows) + 63) / 64)
    {
        MarkAll();
    }

    /** Mark `rows`, each below the row count (as SparseOptimizer::GroupByRow
     *  returns them, already validated). */
    void
    Mark(std::span<const int64_t> rows)
    {
        for (const int64_t r : rows) {
            words_[static_cast<size_t>(r) >> 6] |= uint64_t(1) << (r & 63);
        }
    }

    /** Mark every row (the whole table was overwritten). */
    void
    MarkAll()
    {
        for (uint64_t& w : words_) {
            w = ~uint64_t(0);
        }
        if (rows_ % 64 != 0) {
            // Keep the bits past the last row clear so ForEach never
            // reports them.
            words_.back() = (uint64_t(1) << (rows_ % 64)) - 1;
        }
    }

    /** Clear every bit (everything was just checkpointed). */
    void
    ClearAll()
    {
        for (uint64_t& w : words_) {
            w = 0;
        }
    }

    /** Call `f(row)` for every dirty row, in ascending order. */
    template <typename F>
    void
    ForEach(F&& f) const
    {
        for (size_t i = 0; i < words_.size(); i++) {
            for (uint64_t w = words_[i]; w != 0; w &= w - 1) {
                f(static_cast<int64_t>(i * 64 + std::countr_zero(w)));
            }
        }
    }

  private:
    int64_t rows_;
    std::vector<uint64_t> words_;
};

}  // namespace neo::core
