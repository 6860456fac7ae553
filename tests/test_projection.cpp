/**
 * @file
 * Unit tests for EWA projection / feature extraction.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gs/culling.h"
#include "gs/projection.h"
#include "gs/sh.h"
#include "test_util.h"

namespace neo
{
namespace
{

TEST(ProjectionTest, CenteredGaussianProjectsToImageCenter)
{
    Camera cam = test::frontCamera(5.0f);
    Gaussian g = test::makeGaussian({0.0f, 0.0f, 0.0f});
    auto pg = projectGaussian(g, 7, cam);
    ASSERT_TRUE(pg.has_value());
    EXPECT_EQ(pg->id, 7u);
    EXPECT_NEAR(pg->mean2d.x, cam.width() / 2.0f, 0.5f);
    EXPECT_NEAR(pg->mean2d.y, cam.height() / 2.0f, 0.5f);
    EXPECT_NEAR(pg->depth, 5.0f, 1e-3f);
}

TEST(ProjectionTest, BehindCameraIsRejected)
{
    Camera cam = test::frontCamera(5.0f);
    Gaussian g = test::makeGaussian({0.0f, 0.0f, -10.0f});
    EXPECT_FALSE(projectGaussian(g, 0, cam).has_value());
}

TEST(ProjectionTest, IsotropicGaussianGivesCircularConic)
{
    Camera cam = test::frontCamera(5.0f);
    Gaussian g = test::makeGaussian({0.0f, 0.0f, 0.0f}, 0.2f);
    auto pg = projectGaussian(g, 0, cam);
    ASSERT_TRUE(pg.has_value());
    EXPECT_NEAR(pg->conic_a, pg->conic_c, 0.05f * pg->conic_a);
    EXPECT_NEAR(pg->conic_b, 0.0f, 0.05f * pg->conic_a);
}

TEST(ProjectionTest, RadiusShrinksWithDistance)
{
    Camera cam = test::frontCamera(5.0f);
    Gaussian near_g = test::makeGaussian({0.0f, 0.0f, -2.0f}, 0.2f);
    Gaussian far_g = test::makeGaussian({0.0f, 0.0f, 10.0f}, 0.2f);
    auto pn = projectGaussian(near_g, 0, cam);
    auto pf = projectGaussian(far_g, 1, cam);
    ASSERT_TRUE(pn && pf);
    EXPECT_GT(pn->radius_px, pf->radius_px);
}

TEST(ProjectionTest, RadiusGrowsWithScale)
{
    Camera cam = test::frontCamera(5.0f);
    auto small = projectGaussian(
        test::makeGaussian({0.0f, 0.0f, 0.0f}, 0.05f), 0, cam);
    auto large = projectGaussian(
        test::makeGaussian({0.0f, 0.0f, 0.0f}, 0.5f), 1, cam);
    ASSERT_TRUE(small && large);
    EXPECT_GT(large->radius_px, small->radius_px);
}

TEST(ProjectionTest, FalloffPeaksAtCenter)
{
    Camera cam = test::frontCamera(5.0f);
    auto pg = projectGaussian(
        test::makeGaussian({0.0f, 0.0f, 0.0f}, 0.3f), 0, cam);
    ASSERT_TRUE(pg.has_value());
    EXPECT_NEAR(pg->falloff(0.0f, 0.0f), 1.0f, 1e-5f);
    EXPECT_LT(pg->falloff(pg->radius_px / 2.0f, 0.0f), 1.0f);
    EXPECT_LT(pg->falloff(pg->radius_px, pg->radius_px),
              pg->falloff(pg->radius_px / 4.0f, 0.0f));
}

TEST(ProjectionTest, ConicMatchesCovarianceInverse)
{
    Camera cam = test::frontCamera(4.0f);
    Gaussian g = test::makeGaussian({0.3f, -0.2f, 0.0f}, 0.25f);
    Vec3 cam_pos = cam.toCameraSpace(g.position);
    Mat3 w = cam.worldToCamera().rotationBlock();
    Mat3 cov_cam = w * g.covariance() * w.transposed();
    Vec3 cov2d =
        ewaCovariance2d(cov_cam, cam_pos, cam.focalX(), cam.focalY());
    auto pg = projectGaussian(g, 0, cam);
    ASSERT_TRUE(pg.has_value());
    const float det = cov2d.x * cov2d.z - cov2d.y * cov2d.y;
    EXPECT_NEAR(pg->conic_a, cov2d.z / det, 1e-3f * std::fabs(pg->conic_a));
    EXPECT_NEAR(pg->conic_c, cov2d.x / det, 1e-3f * std::fabs(pg->conic_c));
    EXPECT_NEAR(pg->conic_b, -cov2d.y / det,
                1e-3f * std::fabs(pg->conic_a) + 1e-6f);
}

TEST(ProjectionTest, DilationBoundsConditioning)
{
    // Extremely thin Gaussians must still produce a valid (PSD) 2D
    // covariance thanks to the dilation term.
    Camera cam = test::frontCamera(5.0f);
    Gaussian g = test::makeGaussian({0.0f, 0.0f, 0.0f});
    g.scale = {0.5f, 1e-6f, 0.5f};
    auto pg = projectGaussian(g, 0, cam);
    ASSERT_TRUE(pg.has_value());
    EXPECT_GT(pg->radius_px, 0.0f);
}

TEST(ProjectionTest, OpacityAndColorCarriedThrough)
{
    Camera cam = test::frontCamera(5.0f);
    Gaussian g = test::makeGaussian({0.0f, 0.0f, 0.0f}, 0.1f, 0.7f,
                                    {0.9f, 0.1f, 0.2f});
    auto pg = projectGaussian(g, 0, cam);
    ASSERT_TRUE(pg.has_value());
    EXPECT_FLOAT_EQ(pg->opacity, 0.7f);
    EXPECT_NEAR(pg->color.x, 0.9f, 1e-4f);
    EXPECT_NEAR(pg->color.y, 0.1f, 1e-4f);
}

/** Parameterized sweep: projection must be stable across distances. */
class ProjectionDistanceTest : public ::testing::TestWithParam<float>
{
};

TEST_P(ProjectionDistanceTest, DepthEqualsCameraDistance)
{
    float d = GetParam();
    Camera cam = test::frontCamera(d);
    auto pg = projectGaussian(
        test::makeGaussian({0.0f, 0.0f, 0.0f}, 0.1f), 0, cam);
    ASSERT_TRUE(pg.has_value());
    EXPECT_NEAR(pg->depth, d, 1e-3f * d);
    EXPECT_GE(pg->radius_px, 1.0f);
}

INSTANTIATE_TEST_SUITE_P(Distances, ProjectionDistanceTest,
                         ::testing::Values(0.5f, 1.0f, 2.0f, 5.0f, 10.0f,
                                           50.0f));

// ---------------------------------------------------------------------
// projectBlock (the SIMD front end) against the scalar reference.

/** Outcome classes of the scalar reference, to check coverage. */
struct ReferenceOutcomes
{
    size_t visible = 0, frustum_culled = 0, near_culled = 0, det_culled = 0,
           radius_culled = 0, huge_radius = 0;
};

/**
 * Equal bit patterns, or both NaN: IEEE 754 leaves the sign and payload
 * of a NaN result open, and the vectorized code may commute an operation
 * or fold a negation, so only NaN-ness is pinned for NaN values.
 */
bool
sameBits(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

/**
 * Run @p gs through projectBlock in blocks of kProjectLanes (the last one
 * partial when the count is not a multiple) and compare every lane bit for
 * bit with inFrustum + projectGaussian (+ shColor for the color, which the
 * kernel defines for every lane).
 */
ReferenceOutcomes
expectBlockMatchesReference(const std::vector<Gaussian> &gs,
                            const Camera &cam)
{
    ReferenceOutcomes seen;
    const ProjectionConstants k(cam);
    const Mat3 rot = cam.worldToCamera().rotationBlock();
    for (size_t base = 0; base < gs.size(); base += kProjectLanes) {
        const size_t count = std::min(kProjectLanes, gs.size() - base);
        ProjectedLanes lanes;
        projectBlock(&gs[base], count, k, lanes);
        for (size_t i = count; i < kProjectLanes; ++i)
            EXPECT_EQ(lanes.visible[i], 0u) << "padding lane " << i;
        for (size_t i = 0; i < count; ++i) {
            const Gaussian &g = gs[base + i];
            SCOPED_TRACE(testing::Message() << "gaussian " << base + i);
            const Vec3 color =
                shColor(g, cam.viewDirection(g.position));
            EXPECT_TRUE(sameBits(lanes.red[i], color.x));
            EXPECT_TRUE(sameBits(lanes.green[i], color.y));
            EXPECT_TRUE(sameBits(lanes.blue[i], color.z));

            const bool in_frustum = inFrustum(g, cam);
            ProjectedGaussian ref;
            bool visible = false;
            if (in_frustum) {
                if (const auto pg = projectGaussian(g, 0, cam, rot)) {
                    ref = *pg;
                    visible = true;
                }
            }
            if (!in_frustum) {
                ++seen.frustum_culled;
            } else if (!visible) {
                const Vec3 c = cam.toCameraSpace(g.position);
                const Mat3 cov = rot * g.covariance() * rot.transposed();
                const Vec3 cov2d =
                    ewaCovariance2d(cov, c, cam.focalX(), cam.focalY());
                if (c.z <= kNearPlane)
                    ++seen.near_culled;
                else if (cov2d.x * cov2d.z - cov2d.y * cov2d.y <= 0.0f)
                    ++seen.det_culled;
                else
                    ++seen.radius_culled;
            } else {
                ++seen.visible;
                seen.huge_radius += ref.radius_px >= 8388608.0f;
            }
            EXPECT_EQ(lanes.visible[i], visible ? ~0u : 0u);
            if (!visible)
                continue;
            EXPECT_TRUE(sameBits(lanes.mean_x[i], ref.mean2d.x));
            EXPECT_TRUE(sameBits(lanes.mean_y[i], ref.mean2d.y));
            EXPECT_TRUE(sameBits(lanes.conic_a[i], ref.conic_a));
            EXPECT_TRUE(sameBits(lanes.conic_b[i], ref.conic_b));
            EXPECT_TRUE(sameBits(lanes.conic_c[i], ref.conic_c));
            EXPECT_TRUE(sameBits(lanes.radius[i], ref.radius_px));
            EXPECT_TRUE(sameBits(lanes.depth[i], ref.depth));
            EXPECT_TRUE(sameBits(g.opacity, ref.opacity));
            EXPECT_TRUE(sameBits(lanes.red[i], ref.color.x));
            EXPECT_TRUE(sameBits(lanes.green[i], ref.color.y));
            EXPECT_TRUE(sameBits(lanes.blue[i], ref.color.z));
        }
    }
    return seen;
}

/** Random Gaussian around the origin: any scale, rotation and SH. */
Gaussian
randomGaussian(Rng &rng, float extent)
{
    Gaussian g;
    g.position = {rng.uniform(-extent, extent), rng.uniform(-extent, extent),
                  rng.uniform(-extent, extent)};
    g.scale = {std::exp(rng.uniform(-9.0f, 1.0f)),
               std::exp(rng.uniform(-9.0f, 1.0f)),
               std::exp(rng.uniform(-9.0f, 1.0f))};
    g.rotation = Quat{rng.normal(), rng.normal(), rng.normal(),
                      rng.normal()};
    if (rng.uniform() < 0.8)
        g.rotation = g.rotation.normalized();
    g.opacity = rng.uniform(0.0f, 1.0f);
    for (auto &channel : g.sh)
        for (float &c : channel)
            c = rng.uniform(-2.0f, 2.0f);
    return g;
}

std::vector<Camera>
testCameras()
{
    std::vector<Camera> cams = {test::frontCamera(5.0f),
                                test::frontCamera(0.3f, {320, 192, "f"})};
    Camera oblique({250, 187, "r"}, deg2rad(70.0f));
    oblique.lookAt({3.0f, -2.0f, 4.0f}, {0.2f, 0.1f, -0.3f},
                   {0.3f, 1.0f, 0.1f});
    cams.push_back(oblique);
    return cams;
}

TEST(ProjectBlockTest, RandomScenesMatchReferenceBitForBit)
{
    Rng rng(1234);
    for (const Camera &cam : testCameras()) {
        std::vector<Gaussian> gs;
        for (int i = 0; i < 20000; ++i)
            gs.push_back(randomGaussian(rng, i % 2 ? 3.0f : 12.0f));
        const ReferenceOutcomes seen = expectBlockMatchesReference(gs, cam);
        EXPECT_GT(seen.visible, 1000u);
        EXPECT_GT(seen.frustum_culled, 1000u);
    }
}

TEST(ProjectBlockTest, NearPlaneBehindAndStraddling)
{
    // Depths from behind the camera through the near plane (±1 ulp) to
    // just past it; large scales make the sphere straddle the plane.
    const Camera cam = test::frontCamera(5.0f);
    std::vector<Gaussian> gs;
    const float eye_z = -5.0f;
    for (float depth : {-1.0f, -0.01f, 0.0f, 0.02f, 0.049f, 0.05f, 0.051f,
                        0.06f, 0.2f}) {
        for (float ulps : {-1.0f, 0.0f, 1.0f}) {
            float z = eye_z + depth;
            z = ulps < 0 ? std::nextafter(z, -1e9f)
                         : ulps > 0 ? std::nextafter(z, 1e9f) : z;
            for (float scale : {0.001f, 0.05f, 0.5f, 3.0f})
                for (float x : {0.0f, 0.01f, 0.3f})
                    gs.push_back(test::makeGaussian({x, -x, z}, scale));
        }
    }
    const ReferenceOutcomes seen = expectBlockMatchesReference(gs, cam);
    EXPECT_GT(seen.near_culled, 0u);
    EXPECT_GT(seen.visible, 0u);
}

TEST(ProjectBlockTest, DegenerateShapesAndHugeRadii)
{
    const Camera cam = test::frontCamera(5.0f);
    Rng rng(99);
    std::vector<Gaussian> gs;
    // Zero scales (the dilation alone sets the footprint).
    for (int i = 0; i < 16; ++i) {
        Gaussian g = test::makeGaussian(
            {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f), 0.0f});
        g.scale = {0.0f, i % 2 ? 0.0f : 0.1f, 0.0f};
        gs.push_back(g);
    }
    // Needles far longer than wide, rotated in the image plane: the 2x2
    // determinant cancels to <= 0 in float.
    for (int i = 0; i < 400; ++i) {
        Gaussian g = test::makeGaussian({0.0f, 0.0f, 0.0f});
        g.scale = {std::exp(rng.uniform(2.0f, 14.0f)), 1e-6f, 1e-6f};
        g.rotation = Quat::fromAxisAngle({0.0f, 0.0f, 1.0f},
                                         rng.uniform(0.0f, kPi));
        gs.push_back(g);
    }
    // radius < 1 needs eig_max <= 0, which the dilation rules out for a
    // finite 2x2 covariance; this one overflows to c = -inf, b = NaN.
    Gaussian overflow = test::makeGaussian(
        {-0x1.8a399p-4f, 0x1.9f0fbp-2f, -0x1.c11fap-1f});
    overflow.scale = {0x1.aa8162p+62f, 0x1.8f51e4p+13f, 0x1.bb9088p+17f};
    overflow.rotation = {-0x1.612bc8p-1f, -0x1.13cf5ep-3f, -0x1.5ae3e6p-1f,
                         0x1.bc1b86p-3f};
    gs.push_back(overflow);
    // Footprints past 2^23 px: the exact-ceil fast path must hand these
    // through unchanged.
    for (float s : {1e4f, 1e5f, 1e6f, 1e7f, 3e7f}) {
        Gaussian g = test::makeGaussian({0.1f, 0.0f, -4.0f}, s);
        gs.push_back(g);
    }
    const ReferenceOutcomes seen = expectBlockMatchesReference(gs, cam);
    EXPECT_GT(seen.det_culled, 0u);
    EXPECT_GT(seen.radius_culled, 0u);
    EXPECT_GT(seen.huge_radius, 0u);
}

TEST(ProjectBlockTest, NonFiniteInputs)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const Camera cam = test::frontCamera(5.0f);
    const Gaussian base = test::makeGaussian({0.2f, -0.1f, 0.0f}, 0.2f);
    std::vector<Gaussian> gs;
    for (float v : {nan, inf, -inf}) {
        for (int field = 0; field < 3; ++field) {
            Gaussian g = base;
            (&g.position.x)[field] = v;
            gs.push_back(g);
            g = base;
            (&g.scale.x)[field] = v;
            gs.push_back(g);
        }
        for (int field = 0; field < 4; ++field) {
            Gaussian g = base;
            (&g.rotation.w)[field] = v;
            gs.push_back(g);
        }
        for (int c = 0; c < 3; ++c)
            for (int j = 0; j < kShCoeffsPerChannel; ++j) {
                Gaussian g = base;
                g.sh[c][j] = v;
                gs.push_back(g);
            }
        Gaussian g = base;
        g.opacity = v;
        gs.push_back(g);
    }
    expectBlockMatchesReference(gs, cam);
}

TEST(ProjectBlockTest, GaussianAtTheEye)
{
    // Zero view direction: normalized() returns 0, so the color is the
    // DC term alone — in every lane, visible or not.
    const Camera cam = test::frontCamera(5.0f);
    std::vector<Gaussian> gs;
    for (float scale : {0.01f, 1.0f, 10.0f}) {
        Gaussian g = test::makeGaussian(cam.position(), scale, 0.5f,
                                        {0.2f, 0.4f, 0.6f});
        setShFromColor(g, {0.2f, 0.4f, 0.6f}, 0.5f);
        gs.push_back(g);
    }
    expectBlockMatchesReference(gs, cam);
}

TEST(ProjectBlockTest, FrustumEdges)
{
    // Walk x (and y) across each side of the view pyramid one ulp at a
    // time so both sides of every inFrustum comparison are hit.
    for (const Camera &cam : testCameras()) {
        const Vec3 fwd = {cam.worldToCamera()(2, 0), cam.worldToCamera()(2, 1),
                          cam.worldToCamera()(2, 2)};
        const Vec3 right = {cam.worldToCamera()(0, 0),
                            cam.worldToCamera()(0, 1),
                            cam.worldToCamera()(0, 2)};
        const Vec3 down = {cam.worldToCamera()(1, 0),
                           cam.worldToCamera()(1, 1),
                           cam.worldToCamera()(1, 2)};
        std::vector<Gaussian> gs;
        for (float depth : {0.5f, 3.0f}) {
            for (float scale : {0.0f, 0.01f}) {
                const float hw = 0.5f * cam.width() / cam.focalX() * depth +
                                 3.0f * scale;
                const float hh = 0.5f * cam.height() / cam.focalY() * depth +
                                 3.0f * scale;
                for (int side = 0; side < 4; ++side) {
                    const Vec3 axis = side < 2 ? right : down;
                    const float sign = side % 2 ? -1.0f : 1.0f;
                    float t = sign * (side < 2 ? hw : hh);
                    for (int step = 0; step < 40; ++step)
                        t = std::nextafter(t, 0.0f);
                    for (int step = 0; step < 80; ++step) {
                        Gaussian g = test::makeGaussian(
                            cam.position() + fwd * depth + axis * t, scale);
                        g.scale = {scale, scale, scale};
                        gs.push_back(g);
                        t = std::nextafter(t, sign * 1e9f);
                    }
                }
            }
        }
        const ReferenceOutcomes seen = expectBlockMatchesReference(gs, cam);
        EXPECT_GT(seen.visible, 0u);
        EXPECT_GT(seen.frustum_culled, 0u);
    }
}

} // namespace
} // namespace neo
