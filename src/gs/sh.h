/**
 * @file
 * Real spherical-harmonics basis evaluation (degree 0..2) used for the
 * view-dependent color of each Gaussian, matching the SH convention of the
 * 3DGS reference implementation.
 */

#ifndef NEO_GS_SH_H
#define NEO_GS_SH_H

#include "common/math.h"
#include "gs/gaussian.h"

namespace neo
{

// Real SH basis constants for bands 0-2, shared by shBasis and the SIMD
// projection kernel (which must evaluate the identical basis).
constexpr float kShC0 = 0.28209479177387814f;
constexpr float kShC1 = 0.4886025119029199f;
constexpr float kShC2[5] = {
    1.0925484305920792f,
    -1.0925484305920792f,
    0.31539156525252005f,
    -1.0925484305920792f,
    0.5462742152960396f,
};

/**
 * Evaluate the 9 degree<=2 real SH basis functions for unit direction
 * @p dir into @p basis (size kShCoeffsPerChannel).
 */
void shBasis(const Vec3 &dir, float basis[kShCoeffsPerChannel]);

/**
 * Evaluate a Gaussian's SH color for viewing direction @p dir.
 * The DC convention matches 3DGS: color = 0.5 + SH dot basis, clamped at 0.
 */
Vec3 shColor(const Gaussian &g, const Vec3 &dir);

/**
 * Write SH coefficients into @p g such that its color is @p base with a
 * view-dependent tint of relative strength @p directional (0 = flat color).
 * Directional coefficients are taken from @p dir_seed components.
 */
void setShFromColor(Gaussian &g, const Vec3 &base, float directional = 0.0f,
                    const Vec3 &dir_seed = {0.3f, -0.2f, 0.1f});

} // namespace neo

#endif // NEO_GS_SH_H
