#include "sort/chunk_sort.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"

namespace neo
{

SortCoreStats &
SortCoreStats::operator+=(const SortCoreStats &o)
{
    bsu.subchunks += o.bsu.subchunks;
    bsu.compare_exchanges += o.bsu.compare_exchanges;
    bsu.stages += o.bsu.stages;
    msu.merges += o.msu.merges;
    msu.elements_processed += o.msu.elements_processed;
    msu.compares += o.msu.compares;
    msu.filtered_invalid += o.msu.filtered_invalid;
    chunk_loads += o.chunk_loads;
    chunk_stores += o.chunk_stores;
    entries_read += o.entries_read;
    entries_written += o.entries_written;
    global_merge_passes += o.global_merge_passes;
    return *this;
}

void
sortChunk(std::vector<TileEntry> &entries, size_t first, size_t count,
          SortCoreStats *stats, std::vector<TileEntry> *scratch)
{
    if (count == 0)
        return;
    if (count > kChunkSize)
        panic("sortChunk: %zu entries exceed the chunk capacity", count);

    BsuStats *bsu = stats ? &stats->bsu : nullptr;
    MsuStats *msu = stats ? &stats->msu : nullptr;
    bsuSortRuns(entries, first, count, bsu);
    msuMergeRuns(entries, first, count, kBsuWidth, msu, 1, scratch);
    if (stats) {
        ++stats->chunk_loads;
        ++stats->chunk_stores;
        stats->entries_read += count;
        stats->entries_written += count;
    }
}

void
fullSortTable(std::vector<TileEntry> &table, SortCoreStats *stats,
              int threads, std::vector<TileEntry> *scratch)
{
    const size_t n = table.size();
    if (n == 0)
        return;
    const size_t chunks = (n + kChunkSize - 1) / kChunkSize;
    if (threads > 1 && chunks > 1 && n >= kMsuParallelMinEntries &&
        !ThreadPool::insideParallelRegion()) {
        // The 256-entry chunk sorts touch disjoint slices, so they fan
        // out over the pool; counters are integer sums per chunk, merged
        // in fixed chunk order.
        for (const SortCoreStats &s : parallelForAccumulate<SortCoreStats>(
                 chunks, threads,
                 [&](size_t begin, size_t end, SortCoreStats &cs) {
                     for (size_t c = begin; c < end; ++c) {
                         const size_t first = c * kChunkSize;
                         sortChunk(table, first,
                                   std::min(kChunkSize, n - first),
                                   stats ? &cs : nullptr);
                     }
                 }))
            if (stats)
                *stats += s;
    } else {
        for (size_t first = 0; first < n; first += kChunkSize)
            sortChunk(table, first, std::min(kChunkSize, n - first), stats,
                      scratch);
    }

    if (chunks > 1) {
        // Global merge across chunks. Functionally we merge in one go; the
        // hardware streams the table through the MSU+ log2(chunks) times,
        // so cost that many extra off-chip passes.
        MsuStats *msu = stats ? &stats->msu : nullptr;
        msuMergeRuns(table, 0, n, kChunkSize, msu, threads, scratch);
        size_t passes = 0;
        for (size_t c = 1; c < chunks; c <<= 1)
            ++passes;
        if (stats) {
            stats->global_merge_passes += passes;
            stats->entries_read += passes * n;
            stats->entries_written += passes * n;
        }
    }
}

} // namespace neo
