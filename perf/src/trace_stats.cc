#include "trace_stats.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <utility>
#include <vector>

namespace perf
{

namespace
{

using Interval = std::pair<double, double>;

/** Length of the union of @p spans clipped to @p windows. */
double
unionWithin(std::vector<Interval> spans, const std::vector<Interval> &windows)
{
    std::vector<Interval> clipped;
    for (const Interval &s : spans)
        for (const Interval &w : windows) {
            const double b = std::max(s.first, w.first);
            const double e = std::min(s.second, w.second);
            if (e > b)
                clipped.emplace_back(b, e);
        }
    std::sort(clipped.begin(), clipped.end());
    double total = 0, cur_b = 0, cur_e = -1;
    for (const Interval &s : clipped) {
        if (s.first > cur_e) {
            total += std::max(0.0, cur_e - cur_b);
            cur_b = s.first;
            cur_e = s.second;
        } else {
            cur_e = std::max(cur_e, s.second);
        }
    }
    return total + std::max(0.0, cur_e - cur_b);
}

/**
 * The text of "key": in one event line, up to the closing quote
 * (TraceRecorder writes one event per line, names and categories
 * before args). Empty when absent.
 */
std::string
textField(const std::string &line, const std::string &key)
{
    const std::string pat = "\"" + key + "\":\"";
    const size_t at = line.find(pat);
    if (at == std::string::npos)
        return "";
    std::string out;
    for (size_t i = at + pat.size(); i < line.size() && line[i] != '"'; ++i) {
        if (line[i] == '\\' && i + 1 < line.size())
            ++i;
        out += line[i];
    }
    return out;
}

bool
numberField(const std::string &line, const std::string &key, double *out)
{
    const std::string pat = "\"" + key + "\":";
    const size_t at = line.find(pat);
    if (at == std::string::npos)
        return false;
    char *end = nullptr;
    *out = std::strtod(line.c_str() + at + pat.size(), &end);
    return end != line.c_str() + at + pat.size();
}

} // namespace

bool
summarizeTrace(const std::string &path, uint32_t main_lane,
               TraceSummary *out, std::string *err)
{
    // Read line by line: a chip_scale rep traces ~4.5e5 events, and a
    // JSON DOM of that costs about twelve times the file's size.
    std::ifstream in(path);
    if (!in) {
        *err = "cannot read " + path;
        return false;
    }

    struct Open
    {
        std::string name;
        std::string cat;
        double begin = 0;
        double children = 0;
    };
    std::vector<std::pair<uint32_t, std::vector<Open>>> stacks;
    auto stackOf = [&](uint32_t lane) -> std::vector<Open> & {
        for (auto &[l, s] : stacks)
            if (l == lane)
                return s;
        stacks.emplace_back(lane, std::vector<Open>{});
        return stacks.back().second;
    };

    std::vector<Interval> reps, prepares, simulates;
    std::string line;
    while (std::getline(in, line)) {
        const std::string ph = textField(line, "ph");
        if (ph.empty())
            continue;
        ++out->events;
        if (ph != "B" && ph != "E")
            continue;
        double tid = 0, ts = 0;
        if (!numberField(line, "tid", &tid) || !numberField(line, "ts", &ts)) {
            *err = path + ": event without tid/ts: " + line;
            return false;
        }
        const auto lane = static_cast<uint32_t>(tid);
        ts /= 1e3; // us -> ms
        std::vector<Open> &stack = stackOf(lane);
        if (ph == "B") {
            stack.push_back(
                {textField(line, "name"), textField(line, "cat"), ts, 0});
            continue;
        }
        if (stack.empty()) {
            *err = path + ": span end without a begin";
            return false;
        }
        const Open span = std::move(stack.back());
        stack.pop_back();
        const double dur = ts - span.begin;
        if (!stack.empty())
            stack.back().children += dur;

        if (span.cat == "runner" && span.name == "prepare")
            prepares.emplace_back(span.begin, ts);
        else if (span.cat == "runner" && span.name == "simulate")
            simulates.emplace_back(span.begin, ts);
        if (lane != main_lane)
            continue;

        const double self = dur - span.children;
        if (span.cat == "perf" && span.name == "perf.rep") {
            reps.emplace_back(span.begin, ts);
        } else if (span.cat == "perf" && span.name == "perf.replay") {
            out->replayMs = dur;
            out->unattributedMs += self;
        } else {
            // Attribute to the innermost layer span, this one included.
            const Open *layer = span.cat == "layer" ? &span : nullptr;
            bool in_replay = false;
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
                if (!layer && it->cat == "layer")
                    layer = &*it;
                if (it->cat == "perf" && it->name == "perf.replay")
                    in_replay = true;
            }
            if (in_replay && layer)
                out->layerMs[layer->name] += self;
            else if (in_replay)
                out->unattributedMs += self;
        }
    }
    for (const auto &[lane, stack] : stacks)
        if (!stack.empty()) {
            *err = path + ": unclosed span '" + stack.back().name + "'";
            return false;
        }

    out->reps = static_cast<unsigned>(reps.size());
    if (!reps.empty()) {
        out->preparePhaseMs = unionWithin(prepares, reps) / reps.size();
        out->simulatePhaseMs = unionWithin(simulates, reps) / reps.size();
    }
    return true;
}

} // namespace perf
