/**
 * @file
 * FrameArena — reusable per-frame scratch storage for the steady-state
 * frame loop. Hot-loop stages (binning scatter, rasterization accumulators,
 * harness buffers) fetch their working vectors from an arena owned by the
 * long-lived renderer instead of allocating fresh ones every frame: the
 * first frame grows each buffer to its working size, every later frame is
 * a clear()-and-refill with capacity retained, so the binning/raster path
 * performs zero per-frame heap allocations once warm.
 *
 * Buffers are addressed by (key, element type); the key spaces below keep
 * independent subsystems that share one arena from colliding. Reuse of a
 * key with a different element type is a programming error and panics.
 */

#ifndef NEO_COMMON_FRAME_ARENA_H
#define NEO_COMMON_FRAME_ARENA_H

#include <cstddef>
#include <memory>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace neo
{

/**
 * Arena key spaces, one per subsystem that stores scratch in a shared
 * arena. A subsystem uses keys [base, base + 0x100).
 */
enum : int
{
    kArenaKeysBinning = 0x100,   //!< gs/tiling.cpp (binning scratch)
    kArenaKeysRaster = 0x200,    //!< gs/pipeline.cpp (raster accumulators)
    kArenaKeysHarness = 0x300,   //!< sim/perf_harness.cpp
    kArenaKeysIntegrity = 0x400, //!< common/integrity.cpp (shadow copies)
};

/** Keyed set of reusable, capacity-retaining scratch vectors. */
class FrameArena
{
  public:
    FrameArena() = default;

    FrameArena(const FrameArena &) = delete;
    FrameArena &operator=(const FrameArena &) = delete;
    FrameArena(FrameArena &&) = default;
    FrameArena &operator=(FrameArena &&) = default;

    /**
     * The reusable vector bound to @p key, created empty on first use.
     * Contents persist between calls — callers reset what they need
     * (assign / clear / resize) and capacity is retained across frames.
     * The element type must be the same at every use of a given key.
     */
    template <typename T>
    std::vector<T> &buffer(int key)
    {
        for (Entry &e : slots_) {
            if (e.key == key) {
                if (*e.type != typeid(T))
                    panic("FrameArena: key %d reused with a different "
                          "element type",
                          key);
                return static_cast<Slot<T> *>(e.slot.get())->v;
            }
        }
        auto slot = std::make_unique<Slot<T>>();
        std::vector<T> &v = slot->v;
        slots_.push_back(Entry{key, &typeid(T), std::move(slot)});
        return v;
    }

    /** Number of distinct buffers created so far. */
    size_t bufferCount() const { return slots_.size(); }

    /**
     * Bytes of capacity currently retained across all buffers. Element
     * types that expose a `size_t capacityBytes() const` member (e.g.
     * the rasterizer's per-chunk scratch) contribute their nested heap
     * capacity too; other nested containers count only their headers.
     * Steady-state frame loops keep this constant — the arena-reuse test
     * asserts exactly that.
     */
    size_t retainedBytes() const;

    /** Drop every buffer and its capacity. */
    void release() { slots_.clear(); }

  private:
    struct SlotBase
    {
        virtual ~SlotBase() = default;
        virtual size_t capacityBytes() const = 0;
    };

    template <typename T>
    struct Slot final : SlotBase
    {
        std::vector<T> v;
        size_t capacityBytes() const override
        {
            size_t total = v.capacity() * sizeof(T);
            if constexpr (requires(const T &t) { t.capacityBytes(); }) {
                for (const T &t : v)
                    total += t.capacityBytes();
            }
            return total;
        }
    };

    struct Entry
    {
        int key = 0;
        const std::type_info *type = nullptr;
        std::unique_ptr<SlotBase> slot;
    };

    /** Small linear-scanned registry: lookup is allocation-free. */
    std::vector<Entry> slots_;
};

/**
 * Resize a nested vector to @p n outer elements and clear every inner
 * vector while keeping its capacity — the canonical per-frame reset of
 * per-tile lists.
 */
template <typename T>
void
clearNested(std::vector<std::vector<T>> &vv, size_t n)
{
    if (vv.size() != n)
        vv.resize(n);
    for (auto &v : vv)
        v.clear();
}

} // namespace neo

#endif // NEO_COMMON_FRAME_ARENA_H
