/**
 * @file
 * Unit tests for tile binning / duplication.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gs/culling.h"
#include "gs/projection.h"
#include "gs/tiling.h"
#include "test_util.h"

namespace neo
{
namespace
{

TEST(TileGridTest, DimensionsRoundUp)
{
    TileGrid grid({100, 50, "t"}, 16);
    EXPECT_EQ(grid.tiles_x, 7);
    EXPECT_EQ(grid.tiles_y, 4);
    EXPECT_EQ(grid.tileCount(), 28);
}

TEST(TileGridTest, IndexAndOriginRoundTrip)
{
    TileGrid grid({256, 192, "t"}, 16);
    int idx = grid.tileIndex(3, 2);
    Vec2 origin = grid.tileOrigin(idx);
    EXPECT_FLOAT_EQ(origin.x, 48.0f);
    EXPECT_FLOAT_EQ(origin.y, 32.0f);
}

TEST(TileRectTest, EmptyRect)
{
    TileRect r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.count(), 0);
}

TEST(TileRectTest, CentralGaussianCoversExpectedTiles)
{
    TileGrid grid({256, 192, "t"}, 16);
    ProjectedGaussian pg;
    pg.mean2d = {128.0f, 96.0f};
    pg.radius_px = 20.0f;
    TileRect r = tileRectOf(pg, grid);
    // 128 +- 20 spans pixels 108..148 -> tiles 6..9; 96 +- 20 -> tiles 4..7.
    EXPECT_EQ(r.x0, 6);
    EXPECT_EQ(r.x1, 9);
    EXPECT_EQ(r.y0, 4);
    EXPECT_EQ(r.y1, 7);
    EXPECT_EQ(r.count(), 16);
}

TEST(TileRectTest, ClampsToGrid)
{
    TileGrid grid({256, 192, "t"}, 16);
    ProjectedGaussian pg;
    pg.mean2d = {2.0f, 2.0f};
    pg.radius_px = 100.0f;
    TileRect r = tileRectOf(pg, grid);
    EXPECT_EQ(r.x0, 0);
    EXPECT_EQ(r.y0, 0);
    EXPECT_LE(r.x1, grid.tiles_x - 1);
    EXPECT_LE(r.y1, grid.tiles_y - 1);
}

TEST(TileRectTest, OffscreenGaussianIsEmpty)
{
    TileGrid grid({256, 192, "t"}, 16);
    ProjectedGaussian pg;
    pg.mean2d = {-500.0f, 96.0f};
    pg.radius_px = 10.0f;
    EXPECT_TRUE(tileRectOf(pg, grid).empty());
}

TEST(BinFrameTest, InstancesEqualSumOfTileLists)
{
    GaussianScene scene = test::blobScene(300);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    uint64_t sum = 0;
    for (const auto &t : frame.tiles)
        sum += t.size();
    EXPECT_EQ(sum, frame.instances);
    EXPECT_GT(frame.instances, 0u);
}

TEST(BinFrameTest, DuplicationAtLeastOneTilePerVisible)
{
    GaussianScene scene = test::blobScene(300);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    EXPECT_GE(frame.instances, frame.visibleCount());
}

TEST(BinFrameTest, FeatureLookupIsConsistent)
{
    GaussianScene scene = test::blobScene(100);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    // Visible ids own the slots 0, 1, ... in ascending id order.
    int32_t next_slot = 0;
    for (GaussianId id = 0; id < scene.size(); ++id) {
        if (!frame.isVisible(id))
            continue;
        EXPECT_EQ(frame.slotOf(id), next_slot++);
    }
    EXPECT_EQ(static_cast<size_t>(next_slot), frame.visibleCount());
}

TEST(BinFrameTest, EntriesCarryFeatureDepth)
{
    GaussianScene scene = test::blobScene(100);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    for (const auto &tile : frame.tiles)
        for (const auto &e : tile) {
            ASSERT_TRUE(frame.isVisible(e.id));
            EXPECT_FLOAT_EQ(e.depth, frame.depth[frame.slotOf(e.id)]);
            EXPECT_TRUE(e.valid);
        }
}

TEST(BinFrameTest, EveryInstanceIntersectsItsTileRect)
{
    GaussianScene scene = test::blobScene(100);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    for (int tile = 0; tile < frame.grid.tileCount(); ++tile) {
        Vec2 origin = frame.grid.tileOrigin(tile);
        for (const auto &e : frame.tiles[tile]) {
            const Vec2 mean = frame.mean2d[frame.slotOf(e.id)];
            const float radius = frame.radius_px[frame.slotOf(e.id)];
            // The gaussian's bbox must overlap the tile's pixel rect.
            EXPECT_LE(mean.x - radius, origin.x + frame.grid.tile_size);
            EXPECT_GE(mean.x + radius, origin.x);
            EXPECT_LE(mean.y - radius, origin.y + frame.grid.tile_size);
            EXPECT_GE(mean.y + radius, origin.y);
        }
    }
}

TEST(BinFrameTest, LargerTilesMeanFewerInstances)
{
    GaussianScene scene = test::blobScene(500);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame f16 = binFrame(scene, cam, 16);
    BinnedFrame f64 = binFrame(scene, cam, 64);
    EXPECT_GT(f16.instances, f64.instances);
    EXPECT_EQ(f16.visibleCount(), f64.visibleCount());
}

TEST(BinFrameTest, MeanTileLengthSane)
{
    GaussianScene scene = test::blobScene(500);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    double mean_len = frame.meanTileLength();
    EXPECT_GT(mean_len, 0.0);
    EXPECT_LE(mean_len, static_cast<double>(frame.instances));
}

/** Parameterized: binning must be self-consistent across tile sizes. */
class TileSizeTest : public ::testing::TestWithParam<int>
{
};

TEST_P(TileSizeTest, GridCoversImage)
{
    int tile_px = GetParam();
    GaussianScene scene = test::blobScene(200);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, tile_px);
    EXPECT_GE(frame.grid.tiles_x * tile_px, cam.width());
    EXPECT_GE(frame.grid.tiles_y * tile_px, cam.height());
    EXPECT_EQ(frame.tiles.size(),
              static_cast<size_t>(frame.grid.tileCount()));
}

INSTANTIATE_TEST_SUITE_P(TileSizes, TileSizeTest,
                         ::testing::Values(8, 16, 32, 64));

/**
 * The historical scalar binning: project every Gaussian into an
 * id-indexed optional slot (inFrustum, then projectGaussian), then one
 * serial ascending-id pass that drops empty tile rectangles, appends the
 * features and scatters the tile entries.
 */
BinnedFrame
referenceBin(const GaussianScene &scene, const Camera &camera, int tile_px)
{
    std::vector<std::optional<ProjectedGaussian>> projected(scene.size());
    for (size_t i = 0; i < scene.size(); ++i)
        if (inFrustum(scene[i], camera))
            projected[i] = projectGaussian(
                scene[i], static_cast<GaussianId>(i), camera);

    BinnedFrame out;
    out.grid = TileGrid(camera.resolution(), tile_px);
    out.tiles.resize(static_cast<size_t>(out.grid.tileCount()));
    out.feature_of_id.assign(scene.size(), -1);
    for (size_t id = 0; id < scene.size(); ++id) {
        if (!projected[id])
            continue;
        const ProjectedGaussian &pg = *projected[id];
        const TileRect rect = tileRectOf(pg, out.grid);
        if (rect.empty())
            continue;
        out.feature_of_id[id] = static_cast<int32_t>(out.mean2d.size());
        out.mean2d.push_back(pg.mean2d);
        out.radius_px.push_back(pg.radius_px);
        out.depth.push_back(pg.depth);
        out.opacity.push_back(pg.opacity);
        out.color.push_back(pg.color);
        out.conic.push_back({pg.conic_a, pg.conic_b, pg.conic_c});
        for (int ty = rect.y0; ty <= rect.y1; ++ty)
            for (int tx = rect.x0; tx <= rect.x1; ++tx) {
                out.tiles[out.grid.tileIndex(tx, ty)].push_back(
                    TileEntry{static_cast<GaussianId>(id), pg.depth, true});
                ++out.instances;
            }
    }
    return out;
}

template <typename T>
bool
sameBytes(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const T &x, const T &y) {
                          return std::memcmp(&x, &y, sizeof(T)) == 0;
                      });
}

TEST(BinFrameTest, MatchesScalarReferenceAtAnyThreadCount)
{
    // A synthetic scene plus Gaussians on the awkward paths (behind and
    // straddling the near plane, zero scale, off-screen, footprints far
    // larger than the image), with a count that splits into ragged
    // chunks and a partial last SIMD block.
    GaussianScene scene = test::tinySyntheticScene(3000, 5);
    Rng rng(17);
    for (int i = 0; i < 237; ++i) {
        Gaussian g = test::makeGaussian(
            {rng.uniform(-6.0f, 6.0f), rng.uniform(-6.0f, 6.0f),
             rng.uniform(-5.2f, 4.0f)},
            std::exp(rng.uniform(-8.0f, 1.5f)));
        if (i % 7 == 0)
            g.scale = {0.0f, 0.0f, 0.0f};
        if (i % 11 == 0)
            g.position.z = -4.95f; // 0.05 in front of the eye
        scene.gaussians.push_back(g);
    }
    std::vector<Camera> cams = {test::frontCamera(5.0f)};
    Camera oblique({250, 187, "r"}, deg2rad(70.0f));
    oblique.lookAt({3.0f, -2.0f, 4.0f}, {0.2f, 0.1f, -0.3f});
    cams.push_back(oblique);
    for (const Camera &cam : cams) {
        for (int tile_px : {16, 64}) {
            const BinnedFrame ref = referenceBin(scene, cam, tile_px);
            ASSERT_GT(ref.visibleCount(), 100u);
            for (int threads : {1, 2, 8}) {
                SCOPED_TRACE(testing::Message() << "tile " << tile_px
                                                << " threads " << threads);
                const BinnedFrame got =
                    binFrame(scene, cam, tile_px, threads);
                EXPECT_EQ(got.feature_of_id, ref.feature_of_id);
                EXPECT_EQ(got.instances, ref.instances);
                EXPECT_TRUE(sameBytes(got.mean2d, ref.mean2d));
                EXPECT_TRUE(sameBytes(got.radius_px, ref.radius_px));
                EXPECT_TRUE(sameBytes(got.depth, ref.depth));
                EXPECT_TRUE(sameBytes(got.opacity, ref.opacity));
                EXPECT_TRUE(sameBytes(got.color, ref.color));
                EXPECT_TRUE(sameBytes(got.conic, ref.conic));
                ASSERT_EQ(got.tiles.size(), ref.tiles.size());
                for (size_t t = 0; t < ref.tiles.size(); ++t) {
                    ASSERT_EQ(got.tiles[t].size(), ref.tiles[t].size());
                    for (size_t i = 0; i < ref.tiles[t].size(); ++i) {
                        EXPECT_EQ(got.tiles[t][i].id, ref.tiles[t][i].id);
                        EXPECT_EQ(
                            std::bit_cast<uint32_t>(got.tiles[t][i].depth),
                            std::bit_cast<uint32_t>(ref.tiles[t][i].depth));
                        EXPECT_TRUE(got.tiles[t][i].valid);
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace neo
