/**
 * @file
 * Merge Sorting Unit+ (MSU+) model. The MSU+ of a Neo Sorting Core merges
 * sorted runs and, beyond a conventional merge unit, (a) filters out
 * entries whose valid bit was cleared during the previous frame's
 * rasterization (deferred deletion — no shift cost) and (b) merges the
 * sorted incoming-Gaussian table into the reused table in the same pass
 * (insertion).
 *
 * Long tables can additionally split across worker threads: the merge
 * tree of msuMergeRuns fans its independent pairwise merges of each pass
 * out over the pool (fixed tree shape, disjoint output ranges), and the
 * two-way msuMerge / msuUpdateTable *speculatively* splits the merged
 * output at merge-path partition points assuming both inputs are sorted,
 * verifying the assumption inside the parallel spans and falling back to
 * the serial interleaving when it is refuted. Both paths recombine in
 * fixed chunk order and keep every hardware counter bit-identical to the
 * serial pass for any thread count.
 */

#ifndef NEO_SORT_MERGE_UNIT_H
#define NEO_SORT_MERGE_UNIT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gs/tiling.h"

namespace neo
{

/** Operation counters for a Merge Sorting Unit+. */
struct MsuStats
{
    uint64_t merges = 0;           //!< merge passes executed
    uint64_t elements_processed = 0; //!< elements streamed through
    uint64_t compares = 0;           //!< head-to-head comparisons
    uint64_t filtered_invalid = 0;   //!< entries dropped by valid-bit filter

    MsuStats &
    operator+=(const MsuStats &o)
    {
        merges += o.merges;
        elements_processed += o.elements_processed;
        compares += o.compares;
        filtered_invalid += o.filtered_invalid;
        return *this;
    }
};

/**
 * Tables shorter than this always merge serially: below it the split /
 * recombination bookkeeping costs more than the merge itself (a table
 * this size is a handful of 256-entry hardware chunks).
 */
constexpr size_t kMsuParallelMinEntries = 2048;

/**
 * Two-way merge of sorted runs @p a and @p b into @p out (cleared first).
 * Entries with valid == false in either input are filtered out, modeling
 * the MSU+ invalid-bit filter on its local input buffers.
 *
 * With @p threads > 1 and enough entries, the merge runs *speculatively*:
 * the output is split at merge-path partition points computed as if both
 * inputs were sorted, the spans merge on the pool concurrently, and each
 * span verifies the sortedness of its own slice of the inputs as it goes
 * (collectively a full std::is_sorted of both inputs, without the two
 * upfront serial scans). If any span finds an inversion — the reused
 * table under Dynamic Partial Sorting is only approximately sorted — the
 * speculative result is discarded and the serial loop, whose element
 * interleaving is the behavioral contract, runs instead. Output and
 * counters are bit-identical to the serial pass in both outcomes.
 */
void msuMerge(const std::vector<TileEntry> &a, const std::vector<TileEntry> &b,
              std::vector<TileEntry> &out, MsuStats *stats = nullptr,
              int threads = 1);

/**
 * Merge consecutive sorted runs of length @p run inside
 * @p entries[first, first+count), doubling the run length; repeat until a
 * single sorted run remains. This is the in-core merge tree that follows
 * bsuSortRuns, producing a fully sorted chunk. With @p threads > 1 the
 * independent pairwise merges of each pass execute on the worker pool
 * (they write disjoint ranges; the tree shape is fixed by (count, run)
 * alone, so results and counters never depend on the thread count).
 *
 * @param scratch merge staging buffer of the serial passes; callers in a
 *        steady-state frame loop pass one that persists across frames so
 *        the merge allocates nothing once warm (nullptr: a local buffer)
 * @return number of merge passes executed (for cycle accounting).
 */
int msuMergeRuns(std::vector<TileEntry> &entries, size_t first, size_t count,
                 size_t run, MsuStats *stats = nullptr, int threads = 1,
                 std::vector<TileEntry> *scratch = nullptr);

/**
 * The full MSU+ reuse-and-update step for one tile: stream the (sorted,
 * possibly containing invalidated entries) reused table and the sorted
 * incoming table through the unit, dropping invalid entries and merging in
 * the newcomers in a single pass. @p threads as in msuMerge.
 */
void msuUpdateTable(const std::vector<TileEntry> &reused_sorted,
                    const std::vector<TileEntry> &incoming_sorted,
                    std::vector<TileEntry> &out, MsuStats *stats = nullptr,
                    int threads = 1);

} // namespace neo

#endif // NEO_SORT_MERGE_UNIT_H
