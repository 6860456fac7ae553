#include "gs/tiling.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/frame_arena.h"
#include "common/parallel.h"
#include "gs/projection.h"

namespace neo
{

TileRect
tileRectOf(Vec2 mean2d, float radius_px, const TileGrid &grid)
{
    TileRect r;
    const float radius = radius_px;
    int x0 = static_cast<int>(
        std::floor((mean2d.x - radius) / grid.tile_size));
    int y0 = static_cast<int>(
        std::floor((mean2d.y - radius) / grid.tile_size));
    int x1 = static_cast<int>(
        std::floor((mean2d.x + radius) / grid.tile_size));
    int y1 = static_cast<int>(
        std::floor((mean2d.y + radius) / grid.tile_size));
    r.x0 = std::max(x0, 0);
    r.y0 = std::max(y0, 0);
    r.x1 = std::min(x1, grid.tiles_x - 1);
    r.y1 = std::min(y1, grid.tiles_y - 1);
    return r;
}

double
BinnedFrame::meanTileLength() const
{
    uint64_t total = 0;
    size_t nonempty = 0;
    for (const auto &t : tiles) {
        if (!t.empty()) {
            total += t.size();
            ++nonempty;
        }
    }
    return nonempty ? static_cast<double>(total) / nonempty : 0.0;
}

size_t
BinnedFrame::capacityBytes() const
{
    size_t total = feature_of_id.capacity() * sizeof(int32_t) +
                   tiles.capacity() * sizeof(std::vector<TileEntry>) +
                   mean2d.capacity() * sizeof(Vec2) +
                   (color.capacity() + conic.capacity()) * sizeof(Vec3) +
                   (radius_px.capacity() + depth.capacity() +
                    opacity.capacity()) *
                       sizeof(float);
    for (const auto &t : tiles)
        total += t.capacity() * sizeof(TileEntry);
    return total;
}

namespace
{

/** Arena keys of the binning scratch (see kArenaKeysBinning). */
enum : int
{
    kKeyIds = kArenaKeysBinning + 0,     //!< provisional slot -> id
    kKeyRects = kArenaKeysBinning + 1,   //!< provisional slot -> tile rect
    kKeyCursors = kArenaKeysBinning + 2, //!< chunks x tiles counts/cursors
    kKeyFeatureBase = kArenaKeysBinning + 3, //!< per-chunk feature offsets
};

/** Move @p count elements of @p v from @p from down to @p to (to <= from). */
template <typename T>
void
moveDown(std::vector<T> &v, size_t from, size_t to, size_t count)
{
    std::copy(v.begin() + from, v.begin() + from + count, v.begin() + to);
}

} // namespace

BinnedFrame
binFrame(const GaussianScene &scene, const Camera &camera, int tile_px,
         int threads)
{
    BinnedFrame out;
    FrameArena arena;
    binFrameInto(out, arena, scene, camera, tile_px, threads);
    return out;
}

void
binFrameInto(BinnedFrame &out, FrameArena &arena, const GaussianScene &scene,
             const Camera &camera, int tile_px, int threads)
{
    const int t = resolveThreadCount(threads);
    out.grid = TileGrid(camera.resolution(), tile_px);
    const size_t tile_count = static_cast<size_t>(out.grid.tileCount());
    const size_t n = scene.size();
    clearNested(out.tiles, tile_count);
    out.feature_of_id.assign(n, -1);
    out.instances = 0;

    // Each chunk owns a contiguous ascending id range and at most as many
    // feature slots as ids, so it writes its features from the provisional
    // base `begin`; the serial pass below moves them down into place.
    const size_t chunks = parallelChunkCount(n, t);
    auto provisional = [&](size_t chunk) {
        return parallelChunkRange(n, chunks, chunk).begin;
    };
    auto &ids = arena.buffer<GaussianId>(kKeyIds);
    ids.resize(n);
    auto &rects = arena.buffer<TileRect>(kKeyRects);
    rects.resize(n);
    auto &cursors = arena.buffer<uint32_t>(kKeyCursors);
    cursors.assign(chunks * tile_count, 0);
    auto &feature_base = arena.buffer<uint32_t>(kKeyFeatureBase);
    feature_base.assign(chunks + 1, 0);
    out.mean2d.resize(n);
    out.radius_px.resize(n);
    out.depth.resize(n);
    out.opacity.resize(n);
    out.color.resize(n);
    out.conic.resize(n);

    // Pass 1 (stages 1-2 plus the duplication count): project a SIMD
    // block, then per visible lane compute the tile rectangle, write the
    // features and count the chunk's per-tile instances. (If this runs
    // nested inside another parallel region the whole range lands in
    // chunk 0, whose provisional base is 0 either way; the other rows stay
    // zero, which the prefix pass handles.)
    const ProjectionConstants k(camera);
    parallelFor(n, t, [&](size_t begin, size_t end, size_t chunk) {
        uint32_t *counts = cursors.data() + chunk * tile_count;
        size_t slot = begin;
        ProjectedLanes lanes;
        for (size_t block = begin; block < end; block += kProjectLanes) {
            const size_t count = std::min(kProjectLanes, end - block);
            projectBlock(&scene[block], count, k, lanes);
            for (size_t i = 0; i < count; ++i) {
                if (!lanes.visible[i])
                    continue;
                const Vec2 mean{lanes.mean_x[i], lanes.mean_y[i]};
                const TileRect rect =
                    tileRectOf(mean, lanes.radius[i], out.grid);
                if (rect.empty())
                    continue;
                ids[slot] = static_cast<GaussianId>(block + i);
                rects[slot] = rect;
                out.mean2d[slot] = mean;
                out.radius_px[slot] = lanes.radius[i];
                out.depth[slot] = lanes.depth[i];
                out.opacity[slot] = scene[block + i].opacity;
                out.color[slot] = {lanes.red[i], lanes.green[i],
                                   lanes.blue[i]};
                out.conic[slot] = {lanes.conic_a[i], lanes.conic_b[i],
                                   lanes.conic_c[i]};
                ++slot;
                for (int ty = rect.y0; ty <= rect.y1; ++ty)
                    for (int tx = rect.x0; tx <= rect.x1; ++tx)
                        ++counts[out.grid.tileIndex(tx, ty)];
            }
        }
        feature_base[chunk + 1] = static_cast<uint32_t>(slot - begin);
    });

    // Prefix pass: turn the per-chunk counts into per-chunk write cursors
    // (chunk-order concatenation within each tile), size every tile list
    // exactly, and move each chunk's features down to its final slots.
    uint64_t instances = 0;
    for (size_t tile = 0; tile < tile_count; ++tile) {
        uint32_t offset = 0;
        for (size_t c = 0; c < chunks; ++c) {
            const uint32_t count = cursors[c * tile_count + tile];
            cursors[c * tile_count + tile] = offset;
            offset += count;
        }
        out.tiles[tile].resize(offset);
        instances += offset;
    }
    out.instances = instances;
    for (size_t c = 0; c < chunks; ++c) {
        const size_t count = feature_base[c + 1];
        feature_base[c + 1] += feature_base[c];
        const size_t from = provisional(c), to = feature_base[c];
        if (from == to || count == 0)
            continue;
        moveDown(out.mean2d, from, to, count);
        moveDown(out.radius_px, from, to, count);
        moveDown(out.depth, from, to, count);
        moveDown(out.opacity, from, to, count);
        moveDown(out.color, from, to, count);
        moveDown(out.conic, from, to, count);
    }
    const size_t visible = feature_base[chunks];
    out.mean2d.resize(visible);
    out.radius_px.resize(visible);
    out.depth.resize(visible);
    out.opacity.resize(visible);
    out.color.resize(visible);
    out.conic.resize(visible);

    // Pass 2: scatter. Chunks write disjoint feature_of_id entries and
    // disjoint index ranges of each tile list, so the parallel writes are
    // race-free and land exactly where a serial ascending-id pass would
    // put them.
    parallelFor(n, t, [&](size_t, size_t, size_t chunk) {
        uint32_t *cursor = cursors.data() + chunk * tile_count;
        const size_t count = feature_base[chunk + 1] - feature_base[chunk];
        const size_t first = provisional(chunk);
        for (size_t j = 0; j < count; ++j) {
            const size_t from = first + j;
            const size_t slot = feature_base[chunk] + j;
            const GaussianId id = ids[from];
            const TileRect &rect = rects[from];
            const float depth = out.depth[slot];
            out.feature_of_id[id] = static_cast<int32_t>(slot);
            for (int ty = rect.y0; ty <= rect.y1; ++ty)
                for (int tx = rect.x0; tx <= rect.x1; ++tx) {
                    const int tile = out.grid.tileIndex(tx, ty);
                    out.tiles[tile][cursor[tile]++] =
                        TileEntry{id, depth, true};
                }
        }
    });
}

} // namespace neo
