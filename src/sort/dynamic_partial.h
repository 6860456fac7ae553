/**
 * @file
 * Dynamic Partial Sorting — Algorithm 1 of the Neo paper.
 *
 * A tile's Gaussian table carried over from the previous frame is almost
 * sorted; rather than re-sorting globally, the algorithm sorts it chunk by
 * chunk (each chunk fits on-chip), reading and writing every entry exactly
 * once per frame. To let entries migrate across chunk boundaries over
 * time, the chunk grid is shifted by half a chunk on alternate frames
 * ("interleaved sorting boundaries", Fig. 9).
 */

#ifndef NEO_SORT_DYNAMIC_PARTIAL_H
#define NEO_SORT_DYNAMIC_PARTIAL_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sort/chunk_sort.h"

namespace neo
{

/** Tunables of Dynamic Partial Sorting. */
struct DynamicPartialConfig
{
    /** On-chip chunk capacity in entries (paper: 256). */
    size_t chunk = kChunkSize;
    /** Shift chunk boundaries by chunk/2 on even frames (paper: on). */
    bool interleave = true;
    /**
     * Off-chip sorting passes per frame. The paper adopts a single pass
     * (>=2 passes buy <0.1 dB quality for proportional extra traffic).
     */
    int passes = 1;
};

/**
 * Chunk boundaries for a table of length @p len on frame @p frame_index:
 * returns consecutive [start, end) offsets. With interleaving enabled,
 * even frames use a grid shifted by chunk/2 (the first chunk is a
 * half-chunk), which is how the algorithm's "range" update is realized.
 */
std::vector<std::pair<size_t, size_t>>
dynamicPartialBoundaries(size_t len, uint64_t frame_index,
                         const DynamicPartialConfig &cfg);

/**
 * Call @p fn(start, end) for each range dynamicPartialBoundaries returns,
 * in order, without materializing the list.
 */
template <typename Fn>
void
forEachDynamicPartialRange(size_t len, uint64_t frame_index,
                           const DynamicPartialConfig &cfg, Fn &&fn)
{
    if (len == 0 || cfg.chunk == 0)
        return;
    // Odd frames (and non-interleaved mode) use the natural grid
    // [0,C), [C,2C), ...; even frames shift by C/2 so the first chunk is a
    // half-chunk and Gaussians can cross the odd-frame boundaries.
    // (Algorithm 1 expresses this by initializing range.end to C or C/2;
    // we advance each range to the previous end, which is the behaviour
    // Fig. 9 depicts.)
    const bool shifted = cfg.interleave && (frame_index % 2 == 0);
    size_t start = 0;
    size_t end = shifted ? std::min(cfg.chunk / 2, len)
                         : std::min(cfg.chunk, len);
    for (;;) {
        if (end > start)
            fn(start, end);
        if (end >= len)
            break;
        start = end;
        end = std::min(start + cfg.chunk, len);
    }
}

/**
 * Run Dynamic Partial Sorting on @p table in place.
 *
 * @param table previous frame's table with refreshed depth values
 * @param frame_index current frame number (selects boundary phase)
 * @param cfg tunables
 * @param stats optional hardware counters (chunk loads/stores, BSU/MSU ops)
 * @param scratch merge staging buffer, as in msuMergeRuns
 */
void dynamicPartialSort(std::vector<TileEntry> &table, uint64_t frame_index,
                        const DynamicPartialConfig &cfg = {},
                        SortCoreStats *stats = nullptr,
                        std::vector<TileEntry> *scratch = nullptr);

/**
 * Sortedness metric: fraction of adjacent pairs in depth order. 1.0 for a
 * sorted table; used by tests and the accuracy-restoration experiments.
 */
double sortedFraction(const std::vector<TileEntry> &table);

/**
 * Mean absolute displacement between each entry's position and its
 * position in the fully sorted permutation (0 for a sorted table).
 */
double meanDisplacement(const std::vector<TileEntry> &table);

} // namespace neo

#endif // NEO_SORT_DYNAMIC_PARTIAL_H
