/**
 * @file
 * Feature extraction: projecting 3D Gaussians to screen space. Implements
 * the EWA splatting approximation used by 3DGS — the 3D covariance is
 * transformed by the view rotation and the Jacobian of the perspective
 * projection to produce a 2D covariance, from which the conic (inverse
 * covariance) and the 3-sigma screen radius are derived.
 */

#ifndef NEO_GS_PROJECTION_H
#define NEO_GS_PROJECTION_H

#include <cstddef>
#include <cstdint>
#include <optional>

#include "gs/camera.h"
#include "gs/gaussian.h"

namespace neo
{

/** Near plane below which Gaussians are culled. */
constexpr float kNearPlane = 0.05f;

/** Dilation added to the 2D covariance diagonal (antialiasing, as 3DGS). */
constexpr float kCovarianceDilation = 0.3f;

/**
 * Project a single Gaussian.
 *
 * @param g the source Gaussian
 * @param id its scene id, copied into the result
 * @param camera viewing camera
 * @return the projected 2D Gaussian, or std::nullopt if it is behind the
 *         near plane, degenerate, or its opacity contribution vanishes.
 */
std::optional<ProjectedGaussian>
projectGaussian(const Gaussian &g, GaussianId id, const Camera &camera);

/**
 * projectGaussian with the camera's world-to-camera rotation block
 * precomputed — per-frame loops hoist it out of the per-Gaussian body
 * (it only depends on the camera). Results are identical.
 */
std::optional<ProjectedGaussian>
projectGaussian(const Gaussian &g, GaussianId id, const Camera &camera,
                const Mat3 &cam_rotation);

/**
 * EWA 2D covariance of a camera-space Gaussian.
 *
 * @param cov3d_cam covariance already rotated into camera space
 * @param cam camera-space mean
 * @param focal_x focal length in pixels (x)
 * @param focal_y focal length in pixels (y)
 * @return upper-triangular (a, b, c) of the symmetric 2x2 covariance
 */
Vec3 ewaCovariance2d(const Mat3 &cov3d_cam, const Vec3 &cam, float focal_x,
                     float focal_y);

/** Lanes of one projectBlock call: the SIMD front end's block size. */
constexpr size_t kProjectLanes = 16;

/**
 * The camera terms projectBlock reads, hoisted once per frame. Each is
 * computed with the expression inFrustum / projectGaussian / shColor use,
 * so the kernel reproduces their results bit for bit.
 */
struct ProjectionConstants
{
    explicit ProjectionConstants(const Camera &camera);

    float view[3][4] = {};    //!< world-to-camera rows 0..2
    float focal_x = 1.0f;
    float focal_y = 1.0f;
    float half_w_per_z = 0.0f; //!< 0.5 * width / focal_x (inFrustum)
    float half_h_per_z = 0.0f; //!< 0.5 * height / focal_y
    float center_x = 0.0f;     //!< 0.5 * width (toScreen)
    float center_y = 0.0f;     //!< 0.5 * height
    Vec3 eye;
};

/** projectBlock output: one SoA row per projected field. */
struct ProjectedLanes
{
    /**
     * All-ones when inFrustum(g, camera) holds and projectGaussian(g, ...)
     * returns a value; zero otherwise. The geometric fields of a zero
     * lane are unspecified.
     */
    uint32_t visible[kProjectLanes];
    float mean_x[kProjectLanes];
    float mean_y[kProjectLanes];
    float conic_a[kProjectLanes];
    float conic_b[kProjectLanes];
    float conic_c[kProjectLanes];
    float radius[kProjectLanes];
    float depth[kProjectLanes];
    float red[kProjectLanes];
    float green[kProjectLanes];
    float blue[kProjectLanes];
};

/**
 * Frustum-cull, project and SH-shade @p count <= kProjectLanes Gaussians
 * (pipeline stages 1-2) in one branch-free loop over the block, written
 * for the auto-vectorizer. Every visible lane equals the scalar reference
 * (inFrustum, then projectGaussian) bit for bit — mean, conic, radius,
 * depth and color — and the color of every lane below @p count equals
 * shColor(g, camera.viewDirection(g.position)). Non-finite inputs take
 * the reference's path too; only where a result is NaN may its sign and
 * payload differ (IEEE 754 leaves them open, and the vectorized code may
 * commute an operation or fold a negation). Opacity passes through
 * unchanged and is not an output. Lanes at or past @p count are not
 * visible.
 */
void projectBlock(const Gaussian *g, size_t count,
                  const ProjectionConstants &k, ProjectedLanes &out);

} // namespace neo

#endif // NEO_GS_PROJECTION_H
