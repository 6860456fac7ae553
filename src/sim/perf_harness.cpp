#include "sim/perf_harness.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/faultinject.h"
#include "common/frame_arena.h"
#include "common/integrity.h"
#include "common/parallel.h"
#include "core/delta_tracker.h"
#include "gs/tile_sort.h"
#include "gs/tiling.h"

namespace neo
{

double
SequenceResult::meanFps() const
{
    if (frames.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &f : frames)
        total += f.latency_s;
    return total > 0.0 ? static_cast<double>(frames.size()) / total : 0.0;
}

double
SequenceResult::totalTrafficGB() const
{
    return traffic().totalGB();
}

TrafficBreakdown
SequenceResult::traffic() const
{
    TrafficBreakdown t;
    for (const auto &f : frames)
        t += f.traffic;
    return t;
}

double
SequenceResult::trafficGBPer60Frames() const
{
    if (frames.empty())
        return 0.0;
    return totalTrafficGB() * 60.0 / static_cast<double>(frames.size());
}

double
SequenceResult::meanLatencyMs() const
{
    if (frames.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &f : frames)
        total += f.latency_s;
    return total * 1e3 / static_cast<double>(frames.size());
}

double
SequenceResult::maxLatencyMs() const
{
    double mx = 0.0;
    for (const auto &f : frames)
        mx = std::max(mx, f.latency_s);
    return mx * 1e3;
}

namespace
{

/** Extract one tile-geometry sequence with delta tracking. */
std::vector<FrameWorkload>
extractOne(const GaussianScene &scene, const Trajectory &trajectory,
           Resolution res, int frames, int tile_px, int threads)
{
    PipelineOptions opts;
    opts.tile_px = tile_px;
    opts.threads = threads;
    Renderer renderer(opts);
    DeltaTracker tracker;
    tracker.setThreads(threads);

    // Steady-state extraction: the binned frame, scatter scratch and
    // delta buffers persist across the frame loop with capacity retained.
    BinnedFrame frame;
    FrameArena arena;
    FrameDelta delta;

    std::vector<FrameWorkload> out;
    out.reserve(frames);
    for (int f = 0; f < frames; ++f) {
        Camera cam = trajectory.cameraAt(f, res);
        renderer.prepareInto(frame, arena, scene, cam);
        tracker.observe(frame, delta);
        FrameWorkload w = renderer.workloadFromBinned(frame, res);
        w.incoming_instances = delta.incoming_total;
        w.outgoing_instances = delta.outgoing_total;
        w.mean_tile_retention = delta.meanRetention();
        out.push_back(std::move(w));
    }
    return out;
}

} // namespace

WorkloadSequences
extractSequences(const GaussianScene &scene, const Trajectory &trajectory,
                 Resolution res, int frames, bool want16, bool want64,
                 int threads)
{
    WorkloadSequences seqs;
    if (want16)
        seqs.tile16 =
            extractOne(scene, trajectory, res, frames, 16, threads);
    if (want64)
        seqs.tile64 =
            extractOne(scene, trajectory, res, frames, 64, threads);
    return seqs;
}

std::vector<ThreadScalingPoint>
sweepRenderThreads(const GaussianScene &scene, const Trajectory &trajectory,
                   Resolution res, int frames,
                   const std::vector<int> &thread_counts,
                   PipelineOptions opts)
{
    using clock = std::chrono::steady_clock;

    std::vector<ThreadScalingPoint> points;
    points.reserve(thread_counts.size());
    for (int requested : thread_counts) {
        opts.threads = requested;
        Renderer renderer(opts);
        BinnedFrame frame;
        FrameArena arena;
        Image image;
        const std::vector<std::vector<TileEntry>> no_orderings;
        auto renderOnce = [&](int f) {
            renderer.prepareInto(frame, arena, scene,
                                 trajectory.cameraAt(f, res));
            renderer.renderInto(image, frame, no_orderings, nullptr,
                                &arena);
        };

        // One untimed warm-up frame spins up the worker pool, faults in
        // the scene and grows the reused buffers to their working size,
        // so the timed frames measure the allocation-free steady state.
        renderOnce(0);

        auto t0 = clock::now();
        for (int f = 0; f < frames; ++f)
            renderOnce(f);
        auto t1 = clock::now();

        ThreadScalingPoint p;
        p.threads = resolveThreadCount(requested);
        p.ms_per_frame =
            std::chrono::duration<double, std::milli>(t1 - t0).count() /
            std::max(frames, 1);
        p.frame_hash = image.contentHash();
        p.speedup = points.empty()
                        ? 1.0
                        : points.front().ms_per_frame / p.ms_per_frame;
        points.push_back(p);
    }
    return points;
}

std::vector<ThreadScalingPoint>
sweepRenderThreadsStaged(const GaussianScene &scene,
                         const Trajectory &trajectory, Resolution res,
                         int frames, const std::vector<int> &thread_counts,
                         PipelineOptions opts)
{
    using clock = std::chrono::steady_clock;
    auto ms_since = [](clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(clock::now() - t0)
            .count();
    };

    std::vector<ThreadScalingPoint> points;
    points.reserve(thread_counts.size());
    for (int requested : thread_counts) {
        opts.threads = requested;
        const int threads = resolveThreadCount(requested);
        Renderer renderer(opts);
        DeltaTracker tracker;
        tracker.setThreads(threads);
        BinnedFrame frame;
        FrameArena arena;
        FrameDelta delta;
        Image image;
        BatchSortScratch sort_scratch;
        const std::vector<std::vector<TileEntry>> no_orderings;

        // Integrity fences run inside the timed stage sections, so a
        // check/recover sweep point measures the mode's true per-stage
        // overhead (this is where BENCH_PR6's check-vs-off delta comes
        // from); with the mode off every fence is a no-op branch.
        IntegrityContext integrity;
        integrity.configure(resolveIntegrityMode(opts.integrity));
        const bool fenced = integrity.enabled();
        IntegrityContext *ctx = fenced ? &integrity : nullptr;
        if (fenced)
            tracker.setIntegrity(ctx);

        StageTimings acc;
        FrameStats last_stats;
        auto frameOnce = [&](int f, bool timed) {
            const Camera cam = trajectory.cameraAt(f, res);
            auto t0 = clock::now();
            if (fenced)
                integrity.beginFrame(static_cast<uint64_t>(f));
            binFrameInto(frame, arena, scene, cam, opts.tile_px, threads);
            if (fenced) {
                integrity.sealTiles(IntegrityStage::Binning,
                                    kIntegrityBinTiles, frame.tiles);
                faultinject::corruptTiles(kIntegrityBinTiles, frame.tiles);
                integrity.verifyTiles(IntegrityStage::Binning,
                                      kIntegrityBinTiles, frame.tiles);
                // Projection fences over the feature SoA arrays (filled
                // by the projection pass of binning) — same placement as
                // the NeoRenderer frame loop, inside the timed bin
                // section so check-mode overhead stays honestly measured.
                integrity.sealSpan(IntegrityStage::Projection,
                                   kIntegrityProjMean2d, frame.mean2d);
                integrity.sealSpan(IntegrityStage::Projection,
                                   kIntegrityProjRadius, frame.radius_px);
                integrity.sealSpan(IntegrityStage::Projection,
                                   kIntegrityProjDepth, frame.depth);
                integrity.sealSpan(IntegrityStage::Projection,
                                   kIntegrityProjConic, frame.conic);
                faultinject::corruptSpan(kIntegrityProjMean2d,
                                         frame.mean2d);
                faultinject::corruptSpan(kIntegrityProjRadius,
                                         frame.radius_px);
                faultinject::corruptSpan(kIntegrityProjDepth, frame.depth);
                faultinject::corruptSpan(kIntegrityProjConic, frame.conic);
                integrity.verifySpan(IntegrityStage::Projection,
                                     kIntegrityProjMean2d, frame.mean2d);
                integrity.verifySpan(IntegrityStage::Projection,
                                     kIntegrityProjRadius,
                                     frame.radius_px);
                integrity.verifySpan(IntegrityStage::Projection,
                                     kIntegrityProjDepth, frame.depth);
                integrity.verifySpan(IntegrityStage::Projection,
                                     kIntegrityProjConic, frame.conic);
            }
            if (timed)
                acc.bin_ms += ms_since(t0);

            t0 = clock::now();
            // Fused cross-tile batching: tiny tiles pack into ~256-entry
            // batches and sort through the key kernel — one pool dispatch
            // per batch instead of per tile, bit-identical to per-tile
            // std::sort(entryDepthLess) at any thread count.
            sortTablesBatched(frame.tiles, threads, sort_scratch);
            if (fenced) {
                // The sorted tile lists are the orderings rasterization
                // consumes — the staged loop's analogue of the sorter's
                // persistent tables.
                integrity.sealTiles(IntegrityStage::Sorting,
                                    kIntegritySortTables, frame.tiles);
                faultinject::corruptTiles(kIntegritySortTables,
                                          frame.tiles);
                integrity.verifyTiles(IntegrityStage::Sorting,
                                      kIntegritySortTables, frame.tiles);
            }
            if (timed)
                acc.sort_ms += ms_since(t0);

            t0 = clock::now();
            renderer.renderInto(image, frame, no_orderings, &last_stats,
                                &arena, ctx);
            if (timed)
                acc.raster_ms += ms_since(t0);

            t0 = clock::now();
            tracker.observe(frame, delta);
            if (timed)
                acc.tracker_ms += ms_since(t0);
            if (fenced)
                integrity.exportStats(last_stats.integrity);
        };

        // Untimed warm-up: pool spin-up, scene faults, buffer growth.
        frameOnce(0, false);
        for (int f = 0; f < frames; ++f)
            frameOnce(f, true);

        const double denom = std::max(frames, 1);
        ThreadScalingPoint p;
        p.threads = threads;
        p.has_stages = true;
        p.stages.bin_ms = acc.bin_ms / denom;
        p.stages.sort_ms = acc.sort_ms / denom;
        p.stages.raster_ms = acc.raster_ms / denom;
        p.stages.tracker_ms = acc.tracker_ms / denom;
        p.ms_per_frame = p.stages.totalMs();
        p.frame_hash = image.contentHash();
        p.last_frame = last_stats;
        p.speedup = points.empty()
                        ? 1.0
                        : points.front().ms_per_frame / p.ms_per_frame;
        points.push_back(p);
    }
    return points;
}

SequenceResult
simulateGpu(const GpuModel &model, const std::vector<FrameWorkload> &seq)
{
    SequenceResult r;
    r.frames.reserve(seq.size());
    for (const auto &w : seq)
        r.frames.push_back(model.simulateFrame(w));
    return r;
}

SequenceResult
simulateGscore(const GscoreModel &model,
               const std::vector<FrameWorkload> &seq)
{
    SequenceResult r;
    r.frames.reserve(seq.size());
    for (const auto &w : seq)
        r.frames.push_back(model.simulateFrame(w));
    return r;
}

SequenceResult
simulateNeo(const NeoModel &model, const std::vector<FrameWorkload> &seq,
            bool first_is_cold)
{
    SequenceResult r;
    r.frames.reserve(seq.size());
    for (size_t i = 0; i < seq.size(); ++i) {
        bool cold = first_is_cold && i == 0;
        r.frames.push_back(model.simulateFrame(seq[i], cold));
    }
    return r;
}

} // namespace neo
