#include "sort/dynamic_partial.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace neo
{

std::vector<std::pair<size_t, size_t>>
dynamicPartialBoundaries(size_t len, uint64_t frame_index,
                         const DynamicPartialConfig &cfg)
{
    std::vector<std::pair<size_t, size_t>> out;
    forEachDynamicPartialRange(len, frame_index, cfg,
                               [&](size_t start, size_t end) {
                                   out.emplace_back(start, end);
                               });
    return out;
}

void
dynamicPartialSort(std::vector<TileEntry> &table, uint64_t frame_index,
                   const DynamicPartialConfig &cfg, SortCoreStats *stats,
                   std::vector<TileEntry> *scratch)
{
    if (cfg.passes < 1)
        panic("dynamicPartialSort: passes must be >= 1");
    for (int pass = 0; pass < cfg.passes; ++pass) {
        // Alternate the boundary phase across passes as well, otherwise
        // additional passes within a frame could not move entries across
        // the same fixed boundaries.
        forEachDynamicPartialRange(
            table.size(), frame_index + static_cast<uint64_t>(pass), cfg,
            [&](size_t start, size_t end) {
                sortChunk(table, start, end - start, stats, scratch);
            });
    }
}

double
sortedFraction(const std::vector<TileEntry> &table)
{
    if (table.size() < 2)
        return 1.0;
    size_t ordered = 0;
    for (size_t i = 0; i + 1 < table.size(); ++i)
        if (!entryDepthLess(table[i + 1], table[i]))
            ++ordered;
    return static_cast<double>(ordered) /
           static_cast<double>(table.size() - 1);
}

double
meanDisplacement(const std::vector<TileEntry> &table)
{
    const size_t n = table.size();
    if (n < 2)
        return 0.0;
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return entryDepthLess(table[a], table[b]);
    });
    // order[k] = index in `table` of the k-th smallest entry; displacement
    // of that entry is |k - order[k]|.
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k) {
        acc += std::fabs(static_cast<double>(k) -
                         static_cast<double>(order[k]));
    }
    return acc / static_cast<double>(n);
}

} // namespace neo
