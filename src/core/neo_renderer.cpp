#include "core/neo_renderer.h"

#include <chrono>
#include <cstdint>
#include <memory>

#include "common/faultinject.h"

namespace neo
{

PipelineOptions
NeoRenderer::neoDefaultOptions()
{
    PipelineOptions opts;
    opts.tile_px = 64;
    opts.raster.subtile_size = 8;
    return opts;
}

namespace
{

/** base_'s options with the scalar reference blend forced on. */
PipelineOptions
referenceOptions(PipelineOptions opts)
{
    opts.raster.reference_path = true;
    return opts;
}

using steady_clock = std::chrono::steady_clock;

double
msSince(steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(steady_clock::now() -
                                                     t0)
        .count();
}

} // namespace

RendererShared::RendererShared(PipelineOptions opts)
    : base_(opts), reference_(referenceOptions(opts))
{
}

NeoRenderer::NeoRenderer(PipelineOptions opts, DynamicPartialConfig dps)
    : NeoRenderer(std::make_shared<const RendererShared>(opts), dps)
{
}

NeoRenderer::NeoRenderer(std::shared_ptr<const RendererShared> shared,
                         DynamicPartialConfig dps)
    : shared_(std::move(shared)), sorter_(dps)
{
    // One thread knob drives every stage: binning/projection (binFrame),
    // reuse-and-update sorting (sorter_), and rasterization (base).
    sorter_.setThreads(opts().threads);
    integrity_.configure(resolveIntegrityMode(opts().integrity));
    if (integrity_.enabled())
        sorter_.setIntegrity(&integrity_);
}

Image
NeoRenderer::renderFrame(const GaussianScene &scene, const Camera &camera,
                         uint64_t frame_index, NeoFrameReport *report)
{
    Image image;
    renderFrameInto(image, scene, camera, frame_index, report);
    return image;
}

void
NeoRenderer::binStage(const GaussianScene &scene, const Camera &camera,
                      uint64_t frame_index)
{
    const bool fenced = integrity_.enabled();
    if (fenced)
        integrity_.beginFrame(frame_index);

    binFrameInto(frame_, arena_, scene, camera, opts().tile_px,
                 opts().threads);
    if (fenced) {
        // Binning fence: seal the fresh tile lists, expose the injection
        // window, and verify before the sorter consumes them. In recover
        // mode a mismatching tile is restored from the shadow here, so
        // corruption never reaches the persistent tables.
        integrity_.sealTiles(IntegrityStage::Binning, kIntegrityBinTiles,
                             frame_.tiles);
        faultinject::corruptTiles(kIntegrityBinTiles, frame_.tiles);
        integrity_.verifyTiles(IntegrityStage::Binning, kIntegrityBinTiles,
                               frame_.tiles);

        // Projection fences: the feature SoA arrays are filled by the
        // projection pass of binning; seal them here and verify before the
        // sorter's deferred depth update copies frame depths into the
        // persistent tables — a corrupted depth caught any later would
        // already have poisoned cross-frame state.
        integrity_.sealSpan(IntegrityStage::Projection,
                            kIntegrityProjMean2d, frame_.mean2d);
        integrity_.sealSpan(IntegrityStage::Projection,
                            kIntegrityProjRadius, frame_.radius_px);
        integrity_.sealSpan(IntegrityStage::Projection, kIntegrityProjDepth,
                            frame_.depth);
        integrity_.sealSpan(IntegrityStage::Projection, kIntegrityProjConic,
                            frame_.conic);
        faultinject::corruptSpan(kIntegrityProjMean2d, frame_.mean2d);
        faultinject::corruptSpan(kIntegrityProjRadius, frame_.radius_px);
        faultinject::corruptSpan(kIntegrityProjDepth, frame_.depth);
        faultinject::corruptSpan(kIntegrityProjConic, frame_.conic);
        integrity_.verifySpan(IntegrityStage::Projection,
                              kIntegrityProjMean2d, frame_.mean2d);
        integrity_.verifySpan(IntegrityStage::Projection,
                              kIntegrityProjRadius, frame_.radius_px);
        integrity_.verifySpan(IntegrityStage::Projection,
                              kIntegrityProjDepth, frame_.depth);
        integrity_.verifySpan(IntegrityStage::Projection,
                              kIntegrityProjConic, frame_.conic);
    }
}

void
NeoRenderer::sortStage(uint64_t frame_index)
{
    // (The tracker's prev-id fence runs inside beginFrame: verified on
    // entry to observe(), re-sealed when the new membership is adopted.)
    sorter_.beginFrame(frame_, frame_index);
    if (integrity_.enabled()) {
        // Sorting fence: the persistent tables are final for this frame
        // once beginFrame returns (the deferred depth update runs inside
        // it); they are the orderings rasterization consumes.
        auto &tables = sorter_.mutableTables().tables();
        integrity_.sealTiles(IntegrityStage::Sorting, kIntegritySortTables,
                             tables);
        faultinject::corruptTiles(kIntegritySortTables, tables);
        integrity_.verifyTiles(IntegrityStage::Sorting,
                               kIntegritySortTables, tables);
    }
}

void
NeoRenderer::rasterStage(Image &out, uint64_t frame_index,
                         const std::vector<std::vector<TileEntry>> &orderings,
                         std::vector<std::vector<TileEntry>> &sort_tables,
                         FrameStats &stats)
{
    IntegrityContext *ctx = integrity_.enabled() ? &integrity_ : nullptr;
    shared_->base().renderInto(out, frame_, orderings, &stats, &arena_,
                               ctx);

    if (integrity_.mode() == IntegrityMode::Recover &&
        integrity_.frameFaulted()) {
        // Every faulted structure has already been restored from its
        // digest-verified shadow (or, for the CSR, the tile fell back to
        // the reference blend before any pixel write). Re-rendering the
        // whole frame through the scalar reference path — bit-identical
        // to the blocked kernel by the determinism contract — and
        // re-verifying the fenced inputs turns that contract into
        // end-to-end attestation: the delivered frame hash equals the
        // uncorrupted reference.
        shared_->reference().renderInto(out, frame_, orderings, &stats,
                                        nullptr, &integrity_);
        // Re-verify the fenced inputs. On the direct path the frame's
        // tile lists were depth-sorted in place after the binning seal,
        // so only the sorting fence (sealed post-sort) still applies —
        // &sort_tables == &frame_.tiles there.
        if (&sort_tables != &frame_.tiles)
            integrity_.verifyTiles(IntegrityStage::Binning,
                                   kIntegrityBinTiles, frame_.tiles);
        integrity_.verifyTiles(IntegrityStage::Sorting,
                               kIntegritySortTables, sort_tables);
        integrity_.markFrameRecovered();
    }

    if (integrity_.attestDue(frame_index)) {
        // Attest-mode cross-render: the delivered frame (after the
        // injection window below, which models corruption of delivered
        // pixels) must hash bit-identically to an independent render
        // through the scalar reference kernel. Detection only — the
        // frame is delivered as-is and the mismatch flows through the
        // normal FaultReport path.
        faultinject::corruptSpan(kIntegrityAttestFrame, out.pixels());
        shared_->reference().renderInto(attest_image_, frame_, orderings,
                                        nullptr, nullptr, nullptr);
        const uint64_t expected = attest_image_.contentHash();
        const uint64_t actual = out.contentHash();
        integrity_.noteCheck();
        if (expected != actual)
            integrity_.recordFault(IntegrityStage::Attestation,
                                   kIntegrityAttestFrame, -1, expected,
                                   actual, false);
    }
}

void
NeoRenderer::finishFrame(FrameStats &stats, NeoFrameReport *report)
{
    if (integrity_.enabled())
        integrity_.exportStats(stats.integrity);
    if (report) {
        report->frame = stats;
        report->sort = sorter_.takeStats();
        report->reuse = sorter_.lastReport();
    } else {
        sorter_.takeStats();
    }
}

void
NeoRenderer::renderFrameInto(Image &out, const GaussianScene &scene,
                             const Camera &camera, uint64_t frame_index,
                             NeoFrameReport *report)
{
    binStage(scene, camera, frame_index);
    sortStage(frame_index);

    FrameStats stats;
    rasterStage(out, frame_index, sorter_.orderings(),
                sorter_.mutableTables().tables(), stats);
    finishFrame(stats, report);
}

void
NeoRenderer::renderFrameTimed(Image &out, const GaussianScene &scene,
                              const Camera &camera, uint64_t frame_index,
                              StageTimings &stages, NeoFrameReport *report)
{
    stages = StageTimings{};

    auto t0 = steady_clock::now();
    binStage(scene, camera, frame_index);
    stages.bin_ms = msSince(t0);

    // The delta tracker runs inside the sorter's beginFrame, so its cost
    // is part of sort_ms; tracker_ms stays 0 on this path.
    t0 = steady_clock::now();
    sortStage(frame_index);
    stages.sort_ms = msSince(t0);

    FrameStats stats;
    t0 = steady_clock::now();
    rasterStage(out, frame_index, sorter_.orderings(),
                sorter_.mutableTables().tables(), stats);
    stages.raster_ms = msSince(t0);

    finishFrame(stats, report);
}

void
NeoRenderer::renderFrameDirect(Image &out, const GaussianScene &scene,
                               const Camera &camera, uint64_t frame_index,
                               StageTimings &stages, NeoFrameReport *report)
{
    stages = StageTimings{};

    auto t0 = steady_clock::now();
    binStage(scene, camera, frame_index);
    stages.bin_ms = msSince(t0);

    // Plain per-tile depth sort of the freshly binned lists — the
    // persistent tables are neither read nor written, so the reuse
    // sorter carries no trace of this frame (hence the caller-side
    // reset() contract before the next reuse-path frame).
    t0 = steady_clock::now();
    sortTablesBatched(frame_.tiles, opts().threads, direct_sort_scratch_);
    if (integrity_.enabled()) {
        integrity_.sealTiles(IntegrityStage::Sorting, kIntegritySortTables,
                             frame_.tiles);
        faultinject::corruptTiles(kIntegritySortTables, frame_.tiles);
        integrity_.verifyTiles(IntegrityStage::Sorting,
                               kIntegritySortTables, frame_.tiles);
    }
    stages.sort_ms = msSince(t0);

    FrameStats stats;
    static const std::vector<std::vector<TileEntry>> no_orderings;
    t0 = steady_clock::now();
    rasterStage(out, frame_index, no_orderings, frame_.tiles, stats);
    stages.raster_ms = msSince(t0);

    if (integrity_.enabled())
        integrity_.exportStats(stats.integrity);
    if (report) {
        report->frame = stats;
        report->sort = SortCoreStats{};
        report->reuse = ReuseUpdateReport{};
    }
}

FrameWorkload
NeoRenderer::extractWorkload(const GaussianScene &scene,
                             const Camera &camera, uint64_t frame_index)
{
    binStage(scene, camera, frame_index);
    sortStage(frame_index);

    FrameWorkload w =
        shared_->base().workloadFromBinned(frame_, camera.resolution());
    const FrameDelta &delta = sorter_.lastDelta();
    w.incoming_instances = delta.incoming_total;
    w.outgoing_instances = delta.outgoing_total;
    w.mean_tile_retention = delta.meanRetention();
    return w;
}

} // namespace neo
