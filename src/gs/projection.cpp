#include "gs/projection.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "gs/sh.h"

namespace neo
{

Vec3
ewaCovariance2d(const Mat3 &cov3d_cam, const Vec3 &cam, float focal_x,
                float focal_y)
{
    // Jacobian of the perspective projection at the Gaussian center.
    const float inv_z = 1.0f / cam.z;
    const float inv_z2 = inv_z * inv_z;
    Mat3 j{};
    j(0, 0) = focal_x * inv_z;
    j(0, 2) = -focal_x * cam.x * inv_z2;
    j(1, 1) = focal_y * inv_z;
    j(1, 2) = -focal_y * cam.y * inv_z2;
    // Third row zero: we only need the top-left 2x2 of J Sigma J^T.

    Mat3 t = j * cov3d_cam * j.transposed();
    return {t(0, 0) + kCovarianceDilation, t(0, 1),
            t(1, 1) + kCovarianceDilation};
}

std::optional<ProjectedGaussian>
projectGaussian(const Gaussian &g, GaussianId id, const Camera &camera)
{
    return projectGaussian(g, id, camera,
                           camera.worldToCamera().rotationBlock());
}

std::optional<ProjectedGaussian>
projectGaussian(const Gaussian &g, GaussianId id, const Camera &camera,
                const Mat3 &cam_rotation)
{
    Vec3 cam = camera.toCameraSpace(g.position);
    if (cam.z <= kNearPlane)
        return std::nullopt;

    // Rotate the world covariance into camera space.
    const Mat3 &w = cam_rotation;
    Mat3 cov_cam = w * g.covariance() * w.transposed();
    Vec3 cov2d =
        ewaCovariance2d(cov_cam, cam, camera.focalX(), camera.focalY());

    const float a = cov2d.x, b = cov2d.y, c = cov2d.z;
    const float det = a * c - b * b;
    if (det <= 0.0f)
        return std::nullopt;

    ProjectedGaussian out;
    out.id = id;
    out.mean2d = camera.toScreen(cam);
    const float inv_det = 1.0f / det;
    out.conic_a = c * inv_det;
    out.conic_b = -b * inv_det;
    out.conic_c = a * inv_det;
    out.depth = cam.z;
    out.opacity = g.opacity;

    auto [eig_max, eig_min] = symmetricEigenvalues2x2(a, b, c);
    (void)eig_min;
    out.radius_px = std::ceil(3.0f * std::sqrt(std::max(eig_max, 0.0f)));
    if (out.radius_px < 1.0f)
        return std::nullopt;

    out.color = shColor(g, camera.viewDirection(g.position));
    return out;
}

ProjectionConstants::ProjectionConstants(const Camera &camera)
    : focal_x(camera.focalX()), focal_y(camera.focalY()),
      half_w_per_z(0.5f * camera.width() / camera.focalX()),
      half_h_per_z(0.5f * camera.height() / camera.focalY()),
      center_x(0.5f * camera.width()), center_y(0.5f * camera.height()),
      eye(camera.position())
{
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 4; ++c)
            view[r][c] = camera.worldToCamera()(r, c);
}

namespace
{

/** Bits of a float. */
inline uint32_t
bitsOf(float x)
{
    return std::bit_cast<uint32_t>(x);
}

/** All-ones when @p p holds, else zero. */
inline uint32_t
maskOf(bool p)
{
    return 0u - static_cast<uint32_t>(p);
}

/** mask ? a : b, branch-free on the bit patterns. */
inline float
select(uint32_t mask, float a, float b)
{
    return std::bit_cast<float>((bitsOf(a) & mask) | (bitsOf(b) & ~mask));
}

/**
 * std::ceil without a libm call: below 2^23 in magnitude truncate and
 * step up when truncation went down, and carry the sign of @p x so that
 * (-1, -0] maps to -0 as in ceil; larger magnitudes, infinities and NaN
 * are already integral and pass through.
 */
inline float
ceilLane(float x)
{
    const uint32_t small = maskOf(std::fabs(x) < 8388608.0f);
    const float xs = select(small, x, 0.0f);
    float t = static_cast<float>(static_cast<int32_t>(xs));
    t = t + select(maskOf(t < xs), 1.0f, 0.0f);
    const float c = std::bit_cast<float>(bitsOf(t) |
                                         (bitsOf(x) & 0x80000000u));
    return select(small, c, x);
}

/** One block of Gaussians transposed to SoA rows. */
struct GaussianLanes
{
    float px[kProjectLanes], py[kProjectLanes], pz[kProjectLanes];
    float sx[kProjectLanes], sy[kProjectLanes], sz[kProjectLanes];
    float qw[kProjectLanes], qx[kProjectLanes], qy[kProjectLanes],
        qz[kProjectLanes];
    float sh[3][kShCoeffsPerChannel][kProjectLanes];
};

} // namespace

void
projectBlock(const Gaussian *g, size_t count, const ProjectionConstants &k,
             ProjectedLanes &out)
{
    // Lanes past `count` project a default Gaussian and are masked off.
    static constexpr Gaussian kPad{};
    GaussianLanes in;
    for (size_t i = 0; i < kProjectLanes; ++i) {
        const Gaussian &s = i < count ? g[i] : kPad;
        in.px[i] = s.position.x;
        in.py[i] = s.position.y;
        in.pz[i] = s.position.z;
        in.sx[i] = s.scale.x;
        in.sy[i] = s.scale.y;
        in.sz[i] = s.scale.z;
        in.qw[i] = s.rotation.w;
        in.qx[i] = s.rotation.x;
        in.qy[i] = s.rotation.y;
        in.qz[i] = s.rotation.z;
        for (int c = 0; c < 3; ++c)
            for (int j = 0; j < kShCoeffsPerChannel; ++j)
                in.sh[c][j][i] = s.sh[c][j];
    }

    // Per-frame terms as scalars so the loop broadcasts them.
    const float m00 = k.view[0][0], m01 = k.view[0][1], m02 = k.view[0][2],
                m03 = k.view[0][3];
    const float m10 = k.view[1][0], m11 = k.view[1][1], m12 = k.view[1][2],
                m13 = k.view[1][3];
    const float m20 = k.view[2][0], m21 = k.view[2][1], m22 = k.view[2][2],
                m23 = k.view[2][3];
    const float fx = k.focal_x, fy = k.focal_y;
    const float hwz = k.half_w_per_z, hhz = k.half_h_per_z;
    const float ccx = k.center_x, ccy = k.center_y;
    const float ex = k.eye.x, ey = k.eye.y, ez = k.eye.z;

    // Every expression below is the scalar reference's, with its operand
    // order, its `0.0f + ...` matrix-product accumulator starts and its
    // products with structural zeros (they turn inf/NaN inputs into NaN
    // exactly as the reference does); comments name the function each
    // block reproduces. Selects are bit masks, so the loop has no
    // control flow.
#pragma GCC ivdep
    for (size_t i = 0; i < kProjectLanes; ++i) {
        const float px = in.px[i], py = in.py[i], pz = in.pz[i];

        // Camera::toCameraSpace (Mat4::transformPoint, w = 1).
        const float cx = m00 * px + m01 * py + m02 * pz + m03 * 1.0f;
        const float cy = m10 * px + m11 * py + m12 * pz + m13 * 1.0f;
        const float cz = m20 * px + m21 * py + m22 * pz + m23 * 1.0f;

        // inFrustum (margin 1): std::max({sx, sy, sz}) keeps the first
        // of equal maxima and skips NaN candidates.
        float smax = in.sx[i];
        smax = select(maskOf(smax < in.sy[i]), in.sy[i], smax);
        smax = select(maskOf(smax < in.sz[i]), in.sz[i], smax);
        const float extent = 3.0f * smax;
        const float zc = select(maskOf(cz < kNearPlane), kNearPlane, cz);
        const float half_w = hwz * zc * 1.0f + extent;
        const float half_h = hhz * zc * 1.0f + extent;
        uint32_t visible = maskOf(!(cz + extent <= kNearPlane)) &
                           maskOf(std::fabs(cx) <= half_w) &
                           maskOf(std::fabs(cy) <= half_h);

        // projectGaussian: near-plane test.
        visible &= maskOf(!(cz <= kNearPlane));

        // Quat::toMatrix.
        const float qw = in.qw[i], qx = in.qx[i], qy = in.qy[i],
                    qz = in.qz[i];
        const float r00 = 1.0f - 2.0f * (qy * qy + qz * qz);
        const float r01 = 2.0f * (qx * qy - qw * qz);
        const float r02 = 2.0f * (qx * qz + qw * qy);
        const float r10 = 2.0f * (qx * qy + qw * qz);
        const float r11 = 1.0f - 2.0f * (qx * qx + qz * qz);
        const float r12 = 2.0f * (qy * qz - qw * qx);
        const float r20 = 2.0f * (qx * qz - qw * qy);
        const float r21 = 2.0f * (qy * qz + qw * qx);
        const float r22 = 1.0f - 2.0f * (qx * qx + qy * qy);

        // covarianceFromScaleRotation: rs = R * diag(s), sig = rs rs^T
        // (symmetric bit for bit: each entry's products commute).
        const float sx = in.sx[i], sy = in.sy[i], sz = in.sz[i];
        const float rs00 = 0.0f + r00 * sx + r01 * 0.0f + r02 * 0.0f;
        const float rs01 = 0.0f + r00 * 0.0f + r01 * sy + r02 * 0.0f;
        const float rs02 = 0.0f + r00 * 0.0f + r01 * 0.0f + r02 * sz;
        const float rs10 = 0.0f + r10 * sx + r11 * 0.0f + r12 * 0.0f;
        const float rs11 = 0.0f + r10 * 0.0f + r11 * sy + r12 * 0.0f;
        const float rs12 = 0.0f + r10 * 0.0f + r11 * 0.0f + r12 * sz;
        const float rs20 = 0.0f + r20 * sx + r21 * 0.0f + r22 * 0.0f;
        const float rs21 = 0.0f + r20 * 0.0f + r21 * sy + r22 * 0.0f;
        const float rs22 = 0.0f + r20 * 0.0f + r21 * 0.0f + r22 * sz;
        const float s00 = 0.0f + rs00 * rs00 + rs01 * rs01 + rs02 * rs02;
        const float s01 = 0.0f + rs00 * rs10 + rs01 * rs11 + rs02 * rs12;
        const float s02 = 0.0f + rs00 * rs20 + rs01 * rs21 + rs02 * rs22;
        const float s11 = 0.0f + rs10 * rs10 + rs11 * rs11 + rs12 * rs12;
        const float s12 = 0.0f + rs10 * rs20 + rs11 * rs21 + rs12 * rs22;
        const float s22 = 0.0f + rs20 * rs20 + rs21 * rs21 + rs22 * rs22;

        // View rotation: a = W * sig, v = a * W^T (not bitwise symmetric,
        // so all nine entries).
        const float a00 = 0.0f + m00 * s00 + m01 * s01 + m02 * s02;
        const float a01 = 0.0f + m00 * s01 + m01 * s11 + m02 * s12;
        const float a02 = 0.0f + m00 * s02 + m01 * s12 + m02 * s22;
        const float a10 = 0.0f + m10 * s00 + m11 * s01 + m12 * s02;
        const float a11 = 0.0f + m10 * s01 + m11 * s11 + m12 * s12;
        const float a12 = 0.0f + m10 * s02 + m11 * s12 + m12 * s22;
        const float a20 = 0.0f + m20 * s00 + m21 * s01 + m22 * s02;
        const float a21 = 0.0f + m20 * s01 + m21 * s11 + m22 * s12;
        const float a22 = 0.0f + m20 * s02 + m21 * s12 + m22 * s22;
        const float v00 = 0.0f + a00 * m00 + a01 * m01 + a02 * m02;
        const float v01 = 0.0f + a00 * m10 + a01 * m11 + a02 * m12;
        const float v02 = 0.0f + a00 * m20 + a01 * m21 + a02 * m22;
        const float v10 = 0.0f + a10 * m00 + a11 * m01 + a12 * m02;
        const float v11 = 0.0f + a10 * m10 + a11 * m11 + a12 * m12;
        const float v12 = 0.0f + a10 * m20 + a11 * m21 + a12 * m22;
        const float v20 = 0.0f + a20 * m00 + a21 * m01 + a22 * m02;
        const float v21 = 0.0f + a20 * m10 + a21 * m11 + a22 * m12;
        const float v22 = 0.0f + a20 * m20 + a21 * m21 + a22 * m22;

        // ewaCovariance2d: t = (J v) J^T with J's zero entries explicit.
        const float inv_z = 1.0f / cz;
        const float inv_z2 = inv_z * inv_z;
        const float j00 = fx * inv_z;
        const float j02 = -fx * cx * inv_z2;
        const float j11 = fy * inv_z;
        const float j12 = -fy * cy * inv_z2;
        const float jv00 = 0.0f + j00 * v00 + 0.0f * v10 + j02 * v20;
        const float jv01 = 0.0f + j00 * v01 + 0.0f * v11 + j02 * v21;
        const float jv02 = 0.0f + j00 * v02 + 0.0f * v12 + j02 * v22;
        const float jv10 = 0.0f + 0.0f * v00 + j11 * v10 + j12 * v20;
        const float jv11 = 0.0f + 0.0f * v01 + j11 * v11 + j12 * v21;
        const float jv12 = 0.0f + 0.0f * v02 + j11 * v12 + j12 * v22;
        const float t00 = 0.0f + jv00 * j00 + jv01 * 0.0f + jv02 * j02;
        const float t01 = 0.0f + jv00 * 0.0f + jv01 * j11 + jv02 * j12;
        const float t11 = 0.0f + jv10 * 0.0f + jv11 * j11 + jv12 * j12;
        const float a = t00 + kCovarianceDilation;
        const float b = t01;
        const float c = t11 + kCovarianceDilation;

        // projectGaussian: determinant test, conic, mean.
        const float det = a * c - b * b;
        visible &= maskOf(!(det <= 0.0f));
        const float inv_det = 1.0f / det;
        out.conic_a[i] = c * inv_det;
        out.conic_b[i] = -b * inv_det;
        out.conic_c[i] = a * inv_det;
        out.mean_x[i] = fx * cx / cz + ccx;
        out.mean_y[i] = fy * cy / cz + ccy;
        out.depth[i] = cz;

        // symmetricEigenvalues2x2 and the 3-sigma radius.
        const float mid = 0.5f * (a + c);
        const float disc_sq = mid * mid - det;
        const float disc =
            std::sqrt(select(maskOf(0.0f < disc_sq), disc_sq, 0.0f));
        const float eig_max = mid + disc;
        const float radius = ceilLane(
            3.0f * std::sqrt(select(maskOf(eig_max < 0.0f), 0.0f, eig_max)));
        visible &= maskOf(!(radius < 1.0f));
        out.radius[i] = radius;
        out.visible[i] = visible;

        // Camera::viewDirection (Vec3::normalized), then shBasis.
        const float dx = px - ex, dy = py - ey, dz = pz - ez;
        const float n = std::sqrt(dx * dx + dy * dy + dz * dz);
        const uint32_t degenerate =
            maskOf(n <= std::numeric_limits<float>::min());
        const float x = select(degenerate, 0.0f, dx / n);
        const float y = select(degenerate, 0.0f, dy / n);
        const float z = select(degenerate, 0.0f, dz / n);
        const float basis[kShCoeffsPerChannel] = {
            kShC0,
            -kShC1 * y,
            kShC1 * z,
            -kShC1 * x,
            kShC2[0] * x * y,
            kShC2[1] * y * z,
            kShC2[2] * (2.0f * z * z - x * x - y * y),
            kShC2[3] * x * z,
            kShC2[4] * (x * x - y * y),
        };

        // shColor: 0.5 DC offset, in-order accumulation, max(c, 0).
        float rgb[3];
        for (int ch = 0; ch < 3; ++ch) {
            float acc = 0.5f;
            for (int j = 0; j < kShCoeffsPerChannel; ++j)
                acc += in.sh[ch][j][i] * basis[j];
            rgb[ch] = select(maskOf(acc < 0.0f), 0.0f, acc);
        }
        out.red[i] = rgb[0];
        out.green[i] = rgb[1];
        out.blue[i] = rgb[2];
    }
    for (size_t i = count; i < kProjectLanes; ++i)
        out.visible[i] = 0;
}

} // namespace neo
