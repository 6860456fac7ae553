#include "gs/sh.h"

#include <algorithm>

namespace neo
{

void
shBasis(const Vec3 &dir, float basis[kShCoeffsPerChannel])
{
    const float x = dir.x, y = dir.y, z = dir.z;
    basis[0] = kShC0;
    basis[1] = -kShC1 * y;
    basis[2] = kShC1 * z;
    basis[3] = -kShC1 * x;
    basis[4] = kShC2[0] * x * y;
    basis[5] = kShC2[1] * y * z;
    basis[6] = kShC2[2] * (2.0f * z * z - x * x - y * y);
    basis[7] = kShC2[3] * x * z;
    basis[8] = kShC2[4] * (x * x - y * y);
}

Vec3
shColor(const Gaussian &g, const Vec3 &dir)
{
    float basis[kShCoeffsPerChannel];
    shBasis(dir, basis);
    Vec3 c{0.5f, 0.5f, 0.5f}; // 3DGS DC offset
    for (int i = 0; i < kShCoeffsPerChannel; ++i) {
        c.x += g.sh[0][i] * basis[i];
        c.y += g.sh[1][i] * basis[i];
        c.z += g.sh[2][i] * basis[i];
    }
    c.x = std::max(c.x, 0.0f);
    c.y = std::max(c.y, 0.0f);
    c.z = std::max(c.z, 0.0f);
    return c;
}

void
setShFromColor(Gaussian &g, const Vec3 &base, float directional,
               const Vec3 &dir_seed)
{
    // Invert the DC convention: channel = 0.5 + sh[0] * kShC0.
    g.sh[0][0] = (base.x - 0.5f) / kShC0;
    g.sh[1][0] = (base.y - 0.5f) / kShC0;
    g.sh[2][0] = (base.z - 0.5f) / kShC0;
    for (int c = 0; c < 3; ++c)
        for (int i = 1; i < kShCoeffsPerChannel; ++i)
            g.sh[c][i] = 0.0f;
    if (directional > 0.0f) {
        // Seed the three linear (band-1) coefficients so the color varies
        // smoothly with viewing direction, as trained scenes do.
        const float s[3] = {dir_seed.x, dir_seed.y, dir_seed.z};
        for (int c = 0; c < 3; ++c)
            for (int i = 0; i < 3; ++i)
                g.sh[c][1 + i] = directional * s[i] * (c == i ? 1.0f : 0.5f);
    }
}

} // namespace neo
