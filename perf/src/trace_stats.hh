/**
 * @file
 * Reads a benchmark trace back (Chrome trace-event JSON as written by
 * TraceRecorder) and derives the per-layer numbers from its spans.
 */

#ifndef PFITS_PERF_TRACE_STATS_HH
#define PFITS_PERF_TRACE_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace perf
{

struct TraceSummary
{
    size_t events = 0;

    /** Wall time of the "perf.replay" span on the main lane. */
    double replayMs = 0;

    /**
     * Self time inside the replay, rolled up to the nearest enclosing
     * span of category "layer" and keyed by that span's name: a
     * library span nested in a layer call counts for that layer.
     */
    std::map<std::string, double> layerMs;

    /** Replay time no layer span covers: pfits_perf's own loop. */
    double unattributedMs = 0;

    /** "perf.rep" spans on the main lane (traced reps). */
    unsigned reps = 0;

    /**
     * Wall time per traced rep during which at least one Runner
     * "prepare" / "simulate" span was open on any lane.
     */
    double preparePhaseMs = 0;
    double simulatePhaseMs = 0;
};

/**
 * Summarize the trace at @p path; @p main_lane is the lane the reps and
 * the replay ran on. @return false and *err when it cannot be read.
 */
bool summarizeTrace(const std::string &path, uint32_t main_lane,
                    TraceSummary *out, std::string *err);

} // namespace perf

#endif // PFITS_PERF_TRACE_STATS_HH
