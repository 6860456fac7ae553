/**
 * @file
 * Unit tests for the subtile rasterizer (ITU + SCU functional model).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/neo_renderer.h"
#include "gs/pipeline.h"
#include "gs/raster.h"
#include "test_util.h"

namespace neo
{
namespace
{

/** Single-Gaussian frame helper. */
BinnedFrame
singleGaussianFrame(Vec3 world_pos, float scale, float opacity, Vec3 color,
                    int tile_px = 64)
{
    GaussianScene scene;
    scene.gaussians.push_back(
        test::makeGaussian(world_pos, scale, opacity, color));
    recomputeBounds(scene);
    Camera cam = test::frontCamera(5.0f);
    return binFrame(scene, cam, tile_px);
}

TEST(SubtileBitmapTest, CenteredGaussianCoversAllSubtiles)
{
    ProjectedGaussian pg;
    pg.mean2d = {32.0f, 32.0f};
    pg.radius_px = 64.0f;
    SubtileBitmap bm = subtileBitmap(pg, {0.0f, 0.0f}, 64, 8);
    EXPECT_EQ(bm, ~SubtileBitmap{0});
}

TEST(SubtileBitmapTest, FarGaussianCoversNothing)
{
    ProjectedGaussian pg;
    pg.mean2d = {500.0f, 500.0f};
    pg.radius_px = 10.0f;
    EXPECT_EQ(subtileBitmap(pg, {0.0f, 0.0f}, 64, 8), 0u);
}

TEST(SubtileBitmapTest, CornerGaussianCoversCornerOnly)
{
    ProjectedGaussian pg;
    pg.mean2d = {2.0f, 2.0f};
    pg.radius_px = 5.0f;
    SubtileBitmap bm = subtileBitmap(pg, {0.0f, 0.0f}, 64, 8);
    EXPECT_TRUE(bm & 1); // top-left subtile
    EXPECT_EQ(bm & ~SubtileBitmap{1}, 0u); // nothing else
}

TEST(SubtileBitmapTest, BitmapGrowsWithRadius)
{
    ProjectedGaussian pg;
    pg.mean2d = {32.0f, 32.0f};
    pg.radius_px = 4.0f;
    SubtileBitmap small = subtileBitmap(pg, {0.0f, 0.0f}, 64, 8);
    pg.radius_px = 20.0f;
    SubtileBitmap large = subtileBitmap(pg, {0.0f, 0.0f}, 64, 8);
    EXPECT_EQ(small & large, small); // superset
    EXPECT_GT(std::popcount(large), std::popcount(small));
}

// --- Bounded bitmap vs the full subtile scan ----------------------------
//
// subtileBitmap evaluates only the 3x3 subtiles around the clamped center
// when the footprint is smaller than a subtile. The blocked-vs-reference
// tests cannot catch a wrong bitmap (both blend paths read the same
// phase-1 bitmaps), so the bitmap is pinned bit for bit to a copy of the
// historical formulation: every subtile tested, origins advanced
// incrementally.

SubtileBitmap
fullScanBitmap(Vec2 mean2d, float radius_px, Vec2 tile_origin, int tile_size,
               int subtile_size)
{
    const int subtiles = tile_size / subtile_size;
    const float step = static_cast<float>(subtile_size);
    const float r2 = radius_px * radius_px;
    SubtileBitmap bitmap = 0;
    int bit = 0;
    float y0 = tile_origin.y;
    for (int sy = 0; sy < subtiles; ++sy, y0 += step) {
        const float cy = clamp(mean2d.y, y0, y0 + step);
        const float dy = cy - mean2d.y;
        const float dy2 = dy * dy;
        float x0 = tile_origin.x;
        for (int sx = 0; sx < subtiles; ++sx, ++bit, x0 += step) {
            float cx = clamp(mean2d.x, x0, x0 + step);
            float dx = cx - mean2d.x;
            if (dx * dx + dy2 <= r2)
                bitmap |= (SubtileBitmap{1} << bit);
        }
    }
    return bitmap;
}

/** Asserts the bitmap equals the full scan; returns false on mismatch. */
bool
bitmapMatchesFullScan(Vec2 mean, float radius, Vec2 origin, int tile,
                      int sub)
{
    const SubtileBitmap got = subtileBitmap(mean, radius, origin, tile, sub);
    const SubtileBitmap want = fullScanBitmap(mean, radius, origin, tile, sub);
    EXPECT_EQ(got, want) << "mean=(" << mean.x << ", " << mean.y
                         << ") radius=" << radius << " origin=(" << origin.x
                         << ", " << origin.y << ") tile=" << tile
                         << " subtile=" << sub;
    return got == want;
}

struct TileShape
{
    int tile;
    int subtile;
};

// 48/12 is not a power-of-two split, so dividing by the subtile size
// rounds when the bounded path locates the center subtile.
constexpr TileShape kBitmapShapes[] = {{16, 4}, {64, 8}, {64, 16}, {48, 12}};

/** Radii just below, at and above the subtile size, plus small ones. */
std::vector<float>
boundaryRadii(float step)
{
    const float inf = std::numeric_limits<float>::infinity();
    return {0.0f,
            std::numeric_limits<float>::denorm_min(),
            0.5f,
            2.0f,
            0.5f * step,
            step - 1.0f,
            std::nextafter(step, 0.0f),
            step,
            std::nextafter(step, inf),
            step + 1.0f,
            2.0f * step,
            -2.0f,
            -std::nextafter(step, 0.0f),
            -step,
            -3.0f * step};
}

TEST(SubtileBitmapTest, BoundedMatchesFullScanOnEdges)
{
    // Centers exactly on every subtile edge, one ulp either side of it,
    // and at subtile midpoints, from two subtiles outside the tile to two
    // past it — the positions where the 3x3 window could be off by one.
    for (const TileShape shape : kBitmapShapes) {
        const int n = shape.tile / shape.subtile;
        const float step = static_cast<float>(shape.subtile);
        for (const Vec2 origin :
             {Vec2{0.0f, 0.0f}, Vec2{static_cast<float>(3 * shape.tile),
                                     static_cast<float>(2 * shape.tile)}}) {
            auto positions = [&](float o) {
                std::vector<float> out;
                for (int k = -2; k <= n + 2; ++k) {
                    const float edge = o + static_cast<float>(k) * step;
                    out.push_back(edge);
                    out.push_back(std::nextafter(edge, -1e30f));
                    out.push_back(std::nextafter(edge, 1e30f));
                    out.push_back(edge + 0.5f * step);
                }
                return out;
            };
            const std::vector<float> xs = positions(origin.x);
            const std::vector<float> ys = positions(origin.y);
            for (const float r : boundaryRadii(step))
                for (const float y : ys)
                    for (const float x : xs)
                        ASSERT_TRUE(bitmapMatchesFullScan(
                            {x, y}, r, origin, shape.tile, shape.subtile));
        }
    }
}

TEST(SubtileBitmapTest, BoundedMatchesFullScanOnNonFinite)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float specials[] = {nan, inf, -inf, 1e30f, -1e30f};
    for (const TileShape shape : kBitmapShapes) {
        const Vec2 origin{static_cast<float>(shape.tile), 0.0f};
        const float step = static_cast<float>(shape.subtile);
        const Vec2 inside{origin.x + 1.5f * step, origin.y + 1.5f * step};
        std::vector<float> radii = boundaryRadii(step);
        radii.insert(radii.end(), {nan, inf, -inf});
        for (const float r : radii)
            for (const float s : specials) {
                ASSERT_TRUE(bitmapMatchesFullScan({s, inside.y}, r, origin,
                                                  shape.tile, shape.subtile));
                ASSERT_TRUE(bitmapMatchesFullScan({inside.x, s}, r, origin,
                                                  shape.tile, shape.subtile));
                ASSERT_TRUE(bitmapMatchesFullScan({s, s}, r, origin,
                                                  shape.tile, shape.subtile));
            }
        for (const float r : {nan, inf, -inf})
            ASSERT_TRUE(bitmapMatchesFullScan(inside, r, origin, shape.tile,
                                              shape.subtile));
    }
}

TEST(SubtileBitmapTest, BoundedMatchesFullScanRandom)
{
    Rng rng(4242);
    for (const TileShape shape : kBitmapShapes) {
        const float step = static_cast<float>(shape.subtile);
        const float tile = static_cast<float>(shape.tile);
        for (int i = 0; i < 50000; ++i) {
            const Vec2 origin{tile * static_cast<float>(rng.next() % 40),
                              tile * static_cast<float>(rng.next() % 24)};
            const Vec2 mean{
                origin.x + rng.uniform(-2.0f * step, tile + 2.0f * step),
                origin.y + rng.uniform(-2.0f * step, tile + 2.0f * step)};
            // Mostly sub-subtile footprints (the bounded path), with a
            // share of integer radii (what projection produces) and of
            // larger ones.
            float r = rng.uniform(0.0f, 1.5f * step);
            if (i % 3 == 0)
                r = std::ceil(r);
            ASSERT_TRUE(bitmapMatchesFullScan(mean, r, origin, shape.tile,
                                              shape.subtile));
        }
    }
}

TEST(RasterizeTest, SingleGaussianColorsCenterPixel)
{
    BinnedFrame frame =
        singleGaussianFrame({0.0f, 0.0f, 0.0f}, 0.25f, 0.9f,
                            {1.0f, 0.0f, 0.0f});
    ASSERT_EQ(frame.features.size(), 1u);
    const ProjectedGaussian &pg = frame.features[0];
    TileGrid grid = frame.grid;
    int tx = static_cast<int>(pg.mean2d.x) / grid.tile_size;
    int ty = static_cast<int>(pg.mean2d.y) / grid.tile_size;
    int tile = grid.tileIndex(tx, ty);
    ASSERT_FALSE(frame.tiles[tile].empty());

    Image image(grid.tiles_x * grid.tile_size, grid.tiles_y * grid.tile_size);
    RasterConfig cfg;
    RasterStats stats = rasterizeTile(frame.tiles[tile], frame, tile, cfg,
                                      &image);
    EXPECT_GT(stats.blend_ops, 0u);
    Vec3 px = image.at(static_cast<int>(pg.mean2d.x),
                       static_cast<int>(pg.mean2d.y));
    EXPECT_GT(px.x, 0.5f);
    EXPECT_LT(px.y, 0.1f);
}

TEST(RasterizeTest, FrontGaussianOccludesBack)
{
    GaussianScene scene;
    // Red in front (closer to camera at -5), blue behind, same screen pos.
    scene.gaussians.push_back(test::makeGaussian(
        {0.0f, 0.0f, -1.0f}, 0.3f, 0.95f, {1.0f, 0.0f, 0.0f}));
    scene.gaussians.push_back(test::makeGaussian(
        {0.0f, 0.0f, 1.0f}, 0.3f, 0.95f, {0.0f, 0.0f, 1.0f}));
    recomputeBounds(scene);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 64);

    // Find the tile containing the screen center and sort it by depth.
    const ProjectedGaussian &pg = frame.features[0];
    TileGrid grid = frame.grid;
    int tile = grid.tileIndex(static_cast<int>(pg.mean2d.x) / grid.tile_size,
                              static_cast<int>(pg.mean2d.y) / grid.tile_size);
    auto entries = frame.tiles[tile];
    std::sort(entries.begin(), entries.end(), entryDepthLess);

    Image image(grid.tiles_x * grid.tile_size, grid.tiles_y * grid.tile_size);
    rasterizeTile(entries, frame, tile, RasterConfig{}, &image);
    Vec3 px = image.at(static_cast<int>(pg.mean2d.x),
                       static_cast<int>(pg.mean2d.y));
    EXPECT_GT(px.x, 0.6f) << "front (red) should dominate";
    EXPECT_LT(px.z, 0.3f);

    // Reverse the order: blue now wrongly blended first.
    std::reverse(entries.begin(), entries.end());
    Image wrong(grid.tiles_x * grid.tile_size, grid.tiles_y * grid.tile_size);
    rasterizeTile(entries, frame, tile, RasterConfig{}, &wrong);
    Vec3 wrong_px = wrong.at(static_cast<int>(pg.mean2d.x),
                             static_cast<int>(pg.mean2d.y));
    EXPECT_GT(wrong_px.z, 0.6f) << "reversed order should show blue";
}

TEST(RasterizeTest, InvalidEntriesAreSkipped)
{
    BinnedFrame frame =
        singleGaussianFrame({0.0f, 0.0f, 0.0f}, 0.25f, 0.9f,
                            {1.0f, 0.0f, 0.0f});
    const ProjectedGaussian &pg = frame.features[0];
    TileGrid grid = frame.grid;
    int tile = grid.tileIndex(static_cast<int>(pg.mean2d.x) / grid.tile_size,
                              static_cast<int>(pg.mean2d.y) / grid.tile_size);
    auto entries = frame.tiles[tile];
    for (auto &e : entries)
        e.valid = false;
    Image image(grid.tiles_x * grid.tile_size, grid.tiles_y * grid.tile_size);
    RasterStats stats =
        rasterizeTile(entries, frame, tile, RasterConfig{}, &image);
    EXPECT_EQ(stats.blend_ops, 0u);
    EXPECT_EQ(stats.gaussians_blended, 0u);
}

TEST(RasterizeTest, ValidOutReflectsIntersection)
{
    BinnedFrame frame =
        singleGaussianFrame({0.0f, 0.0f, 0.0f}, 0.25f, 0.9f,
                            {1.0f, 0.0f, 0.0f});
    const ProjectedGaussian &pg = frame.features[0];
    TileGrid grid = frame.grid;
    int tile = grid.tileIndex(static_cast<int>(pg.mean2d.x) / grid.tile_size,
                              static_cast<int>(pg.mean2d.y) / grid.tile_size);
    std::vector<uint8_t> valid;
    rasterizeTile(frame.tiles[tile], frame, tile, RasterConfig{}, nullptr,
                  &valid);
    ASSERT_EQ(valid.size(), frame.tiles[tile].size());
    EXPECT_EQ(valid[0], 1);

    // An entry for a Gaussian that does not touch this tile gets valid=0.
    auto entries = frame.tiles[tile];
    // Fake an entry pointing at the same feature but in a distant tile.
    int far_tile = grid.tileIndex(0, 0) == tile ? grid.tileCount() - 1
                                                : grid.tileIndex(0, 0);
    rasterizeTile(entries, frame, far_tile, RasterConfig{}, nullptr, &valid);
    EXPECT_EQ(valid[0], 0);
}

TEST(RasterizeTest, OpaqueWallTerminatesEarly)
{
    // Stack many opaque Gaussians on the same spot: pixels must saturate
    // and terminate, so blend ops stay far below entries * pixels.
    GaussianScene scene;
    for (int i = 0; i < 50; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {0.0f, 0.0f, 0.1f * i}, 0.6f, 0.95f, {0.2f, 0.8f, 0.2f}));
    recomputeBounds(scene);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 64);
    const ProjectedGaussian &pg = frame.features[0];
    TileGrid grid = frame.grid;
    int tile = grid.tileIndex(static_cast<int>(pg.mean2d.x) / grid.tile_size,
                              static_cast<int>(pg.mean2d.y) / grid.tile_size);
    auto entries = frame.tiles[tile];
    std::sort(entries.begin(), entries.end(), entryDepthLess);
    Image image(grid.tiles_x * grid.tile_size, grid.tiles_y * grid.tile_size);
    RasterStats stats =
        rasterizeTile(entries, frame, tile, RasterConfig{}, &image);
    EXPECT_GT(stats.pixels_terminated, 0u);
    uint64_t upper = static_cast<uint64_t>(entries.size()) * 64 * 64;
    EXPECT_LT(stats.blend_ops, 3 * upper / 4);
}

TEST(RasterizeTest, EstimateTracksActualWithinFactor)
{
    GaussianScene scene = test::blobScene(400, 17);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 64);
    RasterConfig cfg;
    uint64_t actual = 0, estimated = 0;
    Image image(frame.grid.tiles_x * 64, frame.grid.tiles_y * 64);
    for (int tile = 0; tile < frame.grid.tileCount(); ++tile) {
        auto entries = frame.tiles[tile];
        if (entries.empty())
            continue;
        std::sort(entries.begin(), entries.end(), entryDepthLess);
        actual += rasterizeTile(entries, frame, tile, cfg, &image).blend_ops;
        estimated += estimateTileBlendOps(entries, frame, tile, cfg);
    }
    ASSERT_GT(actual, 0u);
    double ratio = static_cast<double>(estimated) / actual;
    EXPECT_GT(ratio, 0.2) << "estimate too low";
    EXPECT_LT(ratio, 5.0) << "estimate too high";
}

// --- Subtile-blocked kernel vs scalar reference -------------------------
//
// The blocked kernel restructures the blend loop but must reproduce the
// reference bit for bit: identical pixels (frame hash) and identical
// RasterStats, field by field, on every input.

void
expectEqualStats(const RasterStats &a, const RasterStats &b)
{
    EXPECT_EQ(a.gaussians_in, b.gaussians_in);
    EXPECT_EQ(a.intersection_tests, b.intersection_tests);
    EXPECT_EQ(a.gaussians_blended, b.gaussians_blended);
    EXPECT_EQ(a.blend_ops, b.blend_ops);
    EXPECT_EQ(a.pixels_terminated, b.pixels_terminated);
}

/**
 * Rasterize every tile of @p frame into an exact-resolution image (which
 * makes the right/bottom tiles partial when the resolution is not a tile
 * multiple) and return the summed stats.
 */
RasterStats
renderAllTiles(const BinnedFrame &frame, const RasterConfig &cfg,
               Resolution res, Image &image)
{
    image = Image(res.width, res.height);
    RasterStats total;
    for (int tile = 0; tile < frame.grid.tileCount(); ++tile) {
        auto entries = frame.tiles[tile];
        if (entries.empty())
            continue;
        std::sort(entries.begin(), entries.end(), entryDepthLess);
        total += rasterizeTile(entries, frame, tile, cfg, &image);
    }
    return total;
}

void
expectBlockedMatchesReference(const GaussianScene &scene, Resolution res,
                              int tile_px, int subtile, bool fast_exp)
{
    Camera cam = test::frontCamera(5.0f, res);
    BinnedFrame frame = binFrame(scene, cam, tile_px);

    RasterConfig cfg;
    cfg.subtile_size = subtile;
    cfg.fast_exp = fast_exp;

    RasterConfig ref_cfg = cfg;
    ref_cfg.reference_path = true;

    Image blocked_img, ref_img;
    RasterStats blocked = renderAllTiles(frame, cfg, res, blocked_img);
    RasterStats ref = renderAllTiles(frame, ref_cfg, res, ref_img);

    ASSERT_GT(blocked.blend_ops, 0u);
    expectEqualStats(blocked, ref);
    EXPECT_EQ(blocked_img.contentHash(), ref_img.contentHash())
        << "tile=" << tile_px << " subtile=" << subtile
        << " fast_exp=" << fast_exp;
}

TEST(BlockedVsReference, BitIdenticalAcrossSubtileSizes)
{
    GaussianScene scene = test::blobScene(400, 17);
    for (int tile_px : {16, 64})
        for (int subtile : {4, 8, 16}) {
            const int per_side = tile_px / subtile;
            if (per_side * per_side > 64 || per_side < 1)
                continue; // over the 64-bit bitmap (4-px subtiles @ 64)
            expectBlockedMatchesReference(scene, test::smallRes(),
                                          tile_px, subtile, false);
        }
}

TEST(BlockedVsReference, PartialEdgeTilesBitIdentical)
{
    // A resolution that is a multiple of neither tile size: the right and
    // bottom tiles are partial, and with 8-px subtiles their edge blocks
    // are partial too (250 % 8 == 2, 187 % 8 == 3).
    const Resolution res{250, 187, "ragged"};
    GaussianScene scene = test::blobScene(300, 23);
    for (int tile_px : {16, 64})
        expectBlockedMatchesReference(scene, res, tile_px, 8, false);
}

TEST(BlockedVsReference, SaturatedEarlyExitBitIdentical)
{
    // An opaque wall saturates whole subtile blocks: the blocked kernel's
    // block-level retirement must not change any counter or pixel.
    GaussianScene scene;
    for (int i = 0; i < 50; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {0.0f, 0.0f, 0.1f * i}, 0.6f, 0.95f, {0.2f, 0.8f, 0.2f}));
    recomputeBounds(scene);
    Camera cam = test::frontCamera();
    BinnedFrame frame = binFrame(scene, cam, 64);

    RasterConfig cfg;
    RasterConfig ref_cfg;
    ref_cfg.reference_path = true;

    Image blocked_img, ref_img;
    RasterStats blocked =
        renderAllTiles(frame, cfg, test::smallRes(), blocked_img);
    RasterStats ref =
        renderAllTiles(frame, ref_cfg, test::smallRes(), ref_img);

    ASSERT_GT(blocked.pixels_terminated, 0u)
        << "scene must exercise the saturation path";
    expectEqualStats(blocked, ref);
    EXPECT_EQ(blocked_img.contentHash(), ref_img.contentHash());
}

TEST(BlockedVsReference, FullRendererAndNeoRendererMatch)
{
    // End to end through both renderers: the blocked default and the
    // reference path must produce bit-identical frames and raster
    // counters, including through reuse-and-update orderings.
    GaussianScene scene = test::tinySyntheticScene();
    Camera cam = test::frontCamera();

    PipelineOptions opts;
    PipelineOptions ref_opts;
    ref_opts.raster.reference_path = true;

    FrameStats stats, ref_stats;
    Renderer renderer(opts), reference(ref_opts);
    Image img = renderer.render(scene, cam, &stats);
    Image ref_img = reference.render(scene, cam, &ref_stats);
    EXPECT_EQ(img.contentHash(), ref_img.contentHash());
    expectEqualStats(stats.raster, ref_stats.raster);

    PipelineOptions neo_opts = NeoRenderer::neoDefaultOptions();
    PipelineOptions neo_ref_opts = neo_opts;
    neo_ref_opts.raster.reference_path = true;
    NeoRenderer neo(neo_opts), neo_ref(neo_ref_opts);
    for (uint64_t f = 0; f < 3; ++f) {
        NeoFrameReport rep, ref_rep;
        Image a = neo.renderFrame(scene, cam, f, &rep);
        Image b = neo_ref.renderFrame(scene, cam, f, &ref_rep);
        EXPECT_EQ(a.contentHash(), b.contentHash()) << "frame " << f;
        expectEqualStats(rep.frame.raster, ref_rep.frame.raster);
    }
}

// --- Deterministic polynomial fast-exp ----------------------------------

TEST(FastExpTest, AccuracyBoundAgainstStdExp)
{
    // Dense sweep over the whole falloff range: relative error must stay
    // inside the documented bound.
    float max_rel = 0.0f;
    for (double x = -87.0; x <= 0.0; x += 1.0 / 512.0) {
        const float xf = static_cast<float>(x);
        const float approx = fastExpNegative(xf);
        const float exact = std::exp(xf);
        const float rel = std::fabs(approx - exact) / exact;
        max_rel = std::max(max_rel, rel);
    }
    EXPECT_LE(max_rel, kFastExpMaxRelError);

    // Anchors: exact at 0, flushed to 0 below the underflow point.
    EXPECT_EQ(fastExpNegative(0.0f), 1.0f);
    EXPECT_EQ(fastExpNegative(-90.0f), 0.0f);
    EXPECT_EQ(fastExpNegative(-1000.0f), 0.0f);
}

TEST(FastExpTest, BlockedAndReferencePathsAgree)
{
    // With fast_exp on, pixel values change (within the error bound) but
    // the blocked/reference bit-equality contract must still hold: both
    // paths evaluate the same polynomial.
    GaussianScene scene = test::blobScene(300, 31);
    expectBlockedMatchesReference(scene, test::smallRes(), 16, 8, true);
    expectBlockedMatchesReference(scene, test::smallRes(), 64, 8, true);
}

TEST(FastExpTest, DeterministicAcrossThreadCounts)
{
    // fast_exp is a pure per-pixel function, so the threads∈{1,2,8}
    // bit-equality contract holds with it enabled.
    GaussianScene scene = test::tinySyntheticScene();
    Camera cam = test::frontCamera();

    auto hashAt = [&](int threads) {
        PipelineOptions opts;
        opts.threads = threads;
        opts.raster.fast_exp = true;
        Renderer renderer(opts);
        return renderer.render(scene, cam).contentHash();
    };
    const uint64_t serial = hashAt(1);
    EXPECT_EQ(serial, hashAt(2));
    EXPECT_EQ(serial, hashAt(8));
}

TEST(FastExpTest, LaneBitIdenticalToScalar)
{
    // The survivor exp batch evaluates fastExpNegativeLane (branchless,
    // auto-vectorizable); the scalar fastExpNegative is the reference.
    // The bit-equality contract requires them to agree on every input
    // the batch can see: the whole negative range, zero, the underflow
    // boundary, denormals, -inf and NaN (payload preserved).
    auto expectSame = [](float x) {
        const float a = fastExpNegative(x);
        const float b = fastExpNegativeLane(x);
        EXPECT_EQ(std::bit_cast<uint32_t>(a), std::bit_cast<uint32_t>(b))
            << "x=" << x << " scalar=" << a << " lane=" << b;
    };
    for (double x = -100.0; x <= 0.0; x += 1.0 / 1024.0)
        expectSame(static_cast<float>(x));
    expectSame(0.0f);
    expectSame(-0.0f);
    expectSame(-87.0f);
    expectSame(std::nextafter(-87.0f, 0.0f));
    expectSame(std::nextafter(-87.0f, -100.0f));
    expectSame(-1.0f); // the neutral pad lane
    expectSame(-1e30f);
    expectSame(-std::numeric_limits<float>::infinity());
    expectSame(-std::numeric_limits<float>::denorm_min());
    expectSame(std::numeric_limits<float>::quiet_NaN());
    // Random negative bit patterns (incl. NaNs and denormals): the two
    // forms must agree bit for bit everywhere below zero.
    Rng rng(2027);
    for (int i = 0; i < 200000; ++i) {
        const uint32_t bits =
            static_cast<uint32_t>(rng.next()) | 0x80000000u;
        expectSame(std::bit_cast<float>(bits));
    }
}

TEST(FastExpTest, LanePositiveInputsSaturateDefined)
{
    // Positive inputs sit outside the specified (x <= 0) domain; the
    // lane form must still be defined — it clamps them to +0 and
    // saturates to exp(0) == 1 instead of running the scalar form's
    // exponent arithmetic out of range.
    EXPECT_EQ(fastExpNegativeLane(1.0f), 1.0f);
    EXPECT_EQ(fastExpNegativeLane(100.0f), 1.0f);
    EXPECT_EQ(fastExpNegativeLane(1e30f), 1.0f);
    EXPECT_EQ(fastExpNegativeLane(std::numeric_limits<float>::infinity()),
              1.0f);
    EXPECT_EQ(fastExpNegativeLane(std::numeric_limits<float>::denorm_min()),
              1.0f);
}

// --- Survivor-batch edge cases ------------------------------------------
//
// The batched pipeline (compaction -> batch exp -> blend in survivor
// order) has boundary shapes the random scenes may not hit reliably:
// blocks where no pixel survives the cut, blocks where every pixel
// survives, blocks whose pixel count is not a multiple of the batch
// width (tail lanes), and blocks that saturate midway through a
// survivor list. Each must stay bit-identical to the reference in both
// fast_exp modes.

TEST(BlockedVsReference, AllSkipBlocksBitIdentical)
{
    // Near-threshold opacity: the cut ellipse is much smaller than the
    // 3-sigma circle the phase-1 bitmap tests, so many bucketed
    // Gaussian x block pairs compact to an empty survivor list.
    GaussianScene scene;
    Rng rng(11);
    for (int i = 0; i < 120; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {rng.uniform(-1.2f, 1.2f), rng.uniform(-0.9f, 0.9f),
             rng.uniform(-0.5f, 0.5f)},
            rng.uniform(0.05f, 0.2f), rng.uniform(0.005f, 0.02f),
            {0.9f, 0.4f, 0.1f}));
    recomputeBounds(scene);
    for (bool fast_exp : {false, true})
        expectBlockedMatchesReference(scene, test::smallRes(), 16, 8,
                                      fast_exp);
}

TEST(BlockedVsReference, AllPassBlocksBitIdentical)
{
    // Huge opaque splats cover whole tiles: every pixel of every block
    // survives, so the survivor list is the full block (and with an
    // 8-px subtile its length is already a batch-width multiple — the
    // padding loop must run zero times without disturbing anything).
    GaussianScene scene;
    for (int i = 0; i < 8; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {0.1f * i, -0.05f * i, 0.3f * i}, 1.5f, 0.9f,
            {0.2f, 0.5f, 0.9f}));
    recomputeBounds(scene);
    for (bool fast_exp : {false, true})
        expectBlockedMatchesReference(scene, test::smallRes(), 16, 8,
                                      fast_exp);
}

TEST(BlockedVsReference, TailLanesBitIdentical)
{
    // A resolution that is a multiple of neither the tile nor the
    // subtile size: the right/bottom edge blocks are 2x3 pixels, so the
    // survivor batch is shorter than kSurvivorExpBatch and the fast-exp
    // loop runs entirely on a padded tail.
    const Resolution res{250, 187, "ragged"};
    GaussianScene scene = test::blobScene(300, 23);
    for (bool fast_exp : {false, true})
        for (int tile_px : {16, 64})
            expectBlockedMatchesReference(scene, res, tile_px, 8,
                                          fast_exp);
}

TEST(BlockedVsReference, ExtremeAnisotropyBitIdentical)
{
    // Thin, hugely anisotropic splats at oblique rotations: the conic's
    // a*c - b*b cancels catastrophically in float, exactly the case the
    // extent prune's conditioning guard must detect (det below the
    // 2^-10 * a*c floor disables pruning for that Gaussian) so the
    // bit-equality contract survives ill-conditioned covariances.
    GaussianScene scene;
    Rng rng(77);
    for (int i = 0; i < 30; ++i) {
        Gaussian g = test::makeGaussian(
            {rng.uniform(-1.0f, 1.0f), rng.uniform(-0.8f, 0.8f),
             rng.uniform(-0.4f, 0.4f)},
            1.0f, rng.uniform(0.2f, 0.9f), {0.8f, 0.3f, 0.6f});
        g.scale = {rng.uniform(1.0f, 3.0f),
                   rng.uniform(0.001f, 0.004f),
                   rng.uniform(0.005f, 0.02f)};
        const float half = 0.5f * rng.uniform(0.2f, 1.4f);
        g.rotation = {std::cos(half), 0.0f, 0.0f, std::sin(half)};
        scene.gaussians.push_back(g);
    }
    recomputeBounds(scene);
    for (bool fast_exp : {false, true})
        expectBlockedMatchesReference(scene, test::smallRes(), 16, 8,
                                      fast_exp);
}

TEST(BlockedVsReference, SaturatedMidBatchBitIdentical)
{
    // An opaque wall saturates block pixels partway through the
    // front-to-back survivor lists: the per-block live counter must
    // retire the remaining Gaussians at exactly the same point as the
    // reference, in both exp modes.
    GaussianScene scene;
    for (int i = 0; i < 50; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {0.0f, 0.0f, 0.1f * i}, 0.6f, 0.95f, {0.2f, 0.8f, 0.2f}));
    recomputeBounds(scene);
    Camera cam = test::frontCamera();
    BinnedFrame frame = binFrame(scene, cam, 64);

    for (bool fast_exp : {false, true}) {
        RasterConfig cfg;
        cfg.fast_exp = fast_exp;
        RasterConfig ref_cfg = cfg;
        ref_cfg.reference_path = true;

        Image blocked_img, ref_img;
        RasterStats blocked =
            renderAllTiles(frame, cfg, test::smallRes(), blocked_img);
        RasterStats ref =
            renderAllTiles(frame, ref_cfg, test::smallRes(), ref_img);

        ASSERT_GT(blocked.pixels_terminated, 0u)
            << "scene must exercise the saturation path";
        expectEqualStats(blocked, ref);
        EXPECT_EQ(blocked_img.contentHash(), ref_img.contentHash())
            << "fast_exp=" << fast_exp;
    }
}

TEST(BlockedVsReference, DenseTinySplatsBitIdentical)
{
    // The served workload's shape: tens of thousands of splats a few
    // pixels across, 64-px tiles with 8-px subtiles, so nearly every
    // bitmap comes from the bounded 3x3 path and most entries hit one to
    // four subtiles. 300x181 adds partial edge tiles and blocks.
    GaussianScene scene;
    Rng rng(2026);
    for (int i = 0; i < 28000; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {rng.uniform(-3.6f, 3.6f), rng.uniform(-2.2f, 2.2f),
             rng.uniform(-1.0f, 1.0f)},
            rng.uniform(0.001f, 0.008f), rng.uniform(0.2f, 0.95f),
            {rng.uniform(0.1f, 1.0f), rng.uniform(0.1f, 1.0f),
             rng.uniform(0.1f, 1.0f)}));
    recomputeBounds(scene);

    for (const Resolution res :
         {Resolution{320, 192, "fleet"}, Resolution{300, 181, "ragged"}}) {
        Camera cam = test::frontCamera(5.0f, res);
        BinnedFrame frame = binFrame(scene, cam, 64);
        ASSERT_GT(frame.radius_px.size(), 20000u) << res.name;
        std::vector<float> radii = frame.radius_px;
        std::nth_element(radii.begin(), radii.begin() + radii.size() / 2,
                         radii.end());
        const float median = radii[radii.size() / 2];
        EXPECT_GE(median, 1.5f);
        EXPECT_LE(median, 2.5f);

        expectBlockedMatchesReference(scene, res, 64, 8, false);

        // Dry run: identical valid bits and ITU counters, no blend work.
        RasterConfig cfg;
        Image image(res.width, res.height);
        for (int tile = 0; tile < frame.grid.tileCount(); ++tile) {
            auto entries = frame.tiles[tile];
            std::sort(entries.begin(), entries.end(), entryDepthLess);
            std::vector<uint8_t> valid, dry_valid;
            const RasterStats full =
                rasterizeTile(entries, frame, tile, cfg, &image, &valid);
            const RasterStats dry = rasterizeTile(entries, frame, tile, cfg,
                                                  nullptr, &dry_valid);
            EXPECT_EQ(valid, dry_valid) << "tile " << tile;
            EXPECT_EQ(dry.gaussians_in, full.gaussians_in);
            EXPECT_EQ(dry.intersection_tests, full.intersection_tests);
            EXPECT_EQ(dry.gaussians_blended, full.gaussians_blended);
            EXPECT_EQ(dry.blend_ops, 0u);
            EXPECT_EQ(dry.pixels_terminated, 0u);
        }
    }
    expectBlockedMatchesReference(scene, {320, 192, "fleet"}, 64, 8, true);
}

TEST(RasterizeTest, DryRunDoesOnlyItuWork)
{
    BinnedFrame frame =
        singleGaussianFrame({0.0f, 0.0f, 0.0f}, 0.25f, 0.9f,
                            {1.0f, 0.0f, 0.0f});
    const ProjectedGaussian &pg = frame.features[0];
    TileGrid grid = frame.grid;
    int tile = grid.tileIndex(static_cast<int>(pg.mean2d.x) / grid.tile_size,
                              static_cast<int>(pg.mean2d.y) / grid.tile_size);
    RasterStats stats = rasterizeTile(frame.tiles[tile], frame, tile,
                                      RasterConfig{}, nullptr);
    EXPECT_GT(stats.intersection_tests, 0u);
    EXPECT_EQ(stats.blend_ops, 0u);
}

} // namespace
} // namespace neo
