/**
 * @file
 * Unit tests for the float RGB framebuffer.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>

#include <gtest/gtest.h>

#include "common/image.h"
#include "common/rng.h"
#include "gs/pipeline.h"
#include "test_util.h"

namespace neo
{
namespace
{

TEST(ImageTest, ConstructionAndFill)
{
    Image img(4, 3, {0.5f, 0.25f, 1.0f});
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.pixelCount(), 12u);
    EXPECT_FALSE(img.empty());
    EXPECT_FLOAT_EQ(img.at(2, 1).x, 0.5f);
    EXPECT_FLOAT_EQ(img.at(2, 1).y, 0.25f);
}

TEST(ImageTest, DefaultIsEmpty)
{
    Image img;
    EXPECT_TRUE(img.empty());
    EXPECT_EQ(img.pixelCount(), 0u);
}

TEST(ImageTest, ClampChannels)
{
    Image img(2, 1);
    img.at(0, 0) = {-0.5f, 0.5f, 2.0f};
    img.clampChannels();
    EXPECT_FLOAT_EQ(img.at(0, 0).x, 0.0f);
    EXPECT_FLOAT_EQ(img.at(0, 0).y, 0.5f);
    EXPECT_FLOAT_EQ(img.at(0, 0).z, 1.0f);
}

TEST(ImageTest, MeanAbsoluteDifference)
{
    Image a(2, 2, {0.0f, 0.0f, 0.0f});
    Image b(2, 2, {0.3f, 0.3f, 0.3f});
    EXPECT_NEAR(Image::meanAbsoluteDifference(a, b), 0.3, 1e-6);
    EXPECT_DOUBLE_EQ(Image::meanAbsoluteDifference(a, a), 0.0);
}

TEST(ImageTest, Downsample2xAveragesQuads)
{
    Image img(4, 2);
    img.at(0, 0) = {1.0f, 0.0f, 0.0f};
    img.at(1, 0) = {0.0f, 1.0f, 0.0f};
    img.at(0, 1) = {0.0f, 0.0f, 1.0f};
    img.at(1, 1) = {1.0f, 1.0f, 1.0f};
    Image half = img.downsample2x();
    EXPECT_EQ(half.width(), 2);
    EXPECT_EQ(half.height(), 1);
    EXPECT_FLOAT_EQ(half.at(0, 0).x, 0.5f);
    EXPECT_FLOAT_EQ(half.at(0, 0).y, 0.5f);
    EXPECT_FLOAT_EQ(half.at(0, 0).z, 0.5f);
}

TEST(ImageTest, DownsampleTooSmallReturnsEmpty)
{
    Image img(1, 1);
    EXPECT_TRUE(img.downsample2x().empty());
}

TEST(ImageTest, LumaWeightsSumToOne)
{
    Image img(1, 1, {1.0f, 1.0f, 1.0f});
    auto luma = img.luma();
    ASSERT_EQ(luma.size(), 1u);
    EXPECT_NEAR(luma[0], 1.0f, 1e-5f);
}

TEST(ImageTest, LumaGreenDominates)
{
    Image g(1, 1, {0.0f, 1.0f, 0.0f});
    Image r(1, 1, {1.0f, 0.0f, 0.0f});
    EXPECT_GT(g.luma()[0], r.luma()[0]);
}

TEST(ImageTest, WritePpmProducesFile)
{
    Image img(8, 8, {1.0f, 0.5f, 0.0f});
    const char *path = "/tmp/neo_test_image.ppm";
    ASSERT_TRUE(img.writePpm(path));
    std::FILE *f = std::fopen(path, "rb");
    ASSERT_NE(f, nullptr);
    char magic[3] = {};
    ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
    EXPECT_EQ(magic[0], 'P');
    EXPECT_EQ(magic[1], '6');
    std::fclose(f);
    std::remove(path);
}

TEST(ImageTest, WritePpmFailsOnBadPath)
{
    Image img(2, 2);
    EXPECT_FALSE(img.writePpm("/nonexistent_dir_xyz/out.ppm"));
}

Image
randomImage(int w, int h, uint64_t seed)
{
    Image img(w, h);
    Rng rng(seed);
    for (Vec3 &p : img.pixels())
        p = {rng.uniform(-1.0f, 2.0f), rng.uniform(0.0f, 1.0f),
             rng.uniform(0.0f, 1.0f)};
    return img;
}

TEST(ContentHashTest, EverySingleBitFlipChangesTheHash)
{
    // 7x5 = 105 channel words: not a multiple of the 4 hash lanes, so
    // the tail words are covered too. 105 * 32 = 3360 flips.
    Image img = randomImage(7, 5, 3);
    const uint64_t base = img.contentHash();
    auto *words = reinterpret_cast<unsigned char *>(img.pixels().data());
    const size_t word_count = img.pixelCount() * 3;
    ASSERT_EQ(word_count, 105u);
    size_t flips = 0;
    for (size_t w = 0; w < word_count; ++w) {
        for (int bit = 0; bit < 32; ++bit) {
            uint32_t v;
            std::memcpy(&v, words + 4 * w, 4);
            const uint32_t flipped = v ^ (1u << bit);
            std::memcpy(words + 4 * w, &flipped, 4);
            EXPECT_NE(img.contentHash(), base)
                << "word " << w << " bit " << bit;
            std::memcpy(words + 4 * w, &v, 4);
            ++flips;
        }
    }
    EXPECT_EQ(flips, 3360u);
    EXPECT_EQ(img.contentHash(), base);
}

TEST(ContentHashTest, EqualAcrossCopiesAndReuse)
{
    const Image img = randomImage(13, 9, 4);
    const Image copy = img;
    EXPECT_EQ(copy.contentHash(), img.contentHash());
    Image reused = randomImage(40, 40, 5);
    reused.reset(13, 9);
    reused.pixels() = img.pixels();
    EXPECT_EQ(reused.contentHash(), img.contentHash());
    EXPECT_NE(randomImage(13, 9, 6).contentHash(), img.contentHash());
}

TEST(ContentHashTest, EqualAcrossThreadCounts)
{
    const GaussianScene scene = test::tinySyntheticScene(3000, 8);
    const Camera cam = test::frontCamera(5.0f);
    uint64_t serial = 0;
    for (int threads : {1, 2, 8}) {
        PipelineOptions opts;
        opts.tile_px = 16;
        opts.threads = threads;
        const Image img = Renderer(opts).render(scene, cam);
        if (threads == 1)
            serial = img.contentHash();
        EXPECT_EQ(img.contentHash(), serial) << "threads " << threads;
    }
}

TEST(ContentHashTest, EmptyImageHasTheFoldedSeed)
{
    // No words: every lane keeps the FNV offset basis and the fold
    // (h = h * prime ^ lane) combines them.
    constexpr uint64_t kOffset = 1469598103934665603ull;
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t expect = kOffset;
    for (int lane = 1; lane < 4; ++lane)
        expect = (expect * kPrime) ^ kOffset;
    EXPECT_EQ(Image().contentHash(), expect);
    EXPECT_EQ(Image(0, 0).contentHash(), expect);
    EXPECT_NE(Image(1, 1).contentHash(), expect);
}

} // namespace
} // namespace neo
