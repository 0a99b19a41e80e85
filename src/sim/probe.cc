#include "sim/probe.hh"

#include <fstream>
#include <ostream>

#include "common/logging.hh"
#include "obs/json.hh"
#include "sim/machine.hh"

namespace pfits
{

const char *
stallReasonName(StallReason reason)
{
    switch (reason) {
      case StallReason::None: return "none";
      case StallReason::FrontEnd: return "frontend";
      case StallReason::Operands: return "operands";
      case StallReason::Structural: return "structural";
      default: panic("bad StallReason");
    }
}

const char *
faultEventKindName(FaultEvent::Kind kind)
{
    switch (kind) {
      case FaultEvent::Kind::Injected: return "injected";
      case FaultEvent::Kind::Detected: return "detected";
      case FaultEvent::Kind::Escaped: return "escaped";
      default: panic("bad FaultEvent::Kind");
    }
}

void
IntervalStatsObserver::onRunEnd(RunResult &result)
{
    // The final sample absorbs the partial instruction tail and the
    // pipeline-drain cycles, so the series partitions the whole run.
    // The tail is non-empty when instructions committed past the last
    // boundary, when a trapped op fetched without committing, or when
    // the run produced no samples at all; only then does it become a
    // sample of its own. When the retired count is an exact multiple
    // of the interval the drain cycles fold into the last sample —
    // an empty trailing sample would break the fixed-width shape of
    // the series (and read as a zero-IPC phase in the curves).
    if (current_.instructions != 0 || current_.fetchBits != 0 ||
        intervals_.empty()) {
        close(result.cycles);
    } else if (result.cycles > startCycle_) {
        intervals_.back().cycles += result.cycles - startCycle_;
        startCycle_ = result.cycles;
    }
}

void
TraceObserver::writeEntry(std::ostream &os, const Entry &e) const
{
    char buf[160];
    switch (e.type) {
      case Entry::Type::Fetch:
        std::snprintf(buf, sizeof(buf),
                      "{\"event\":\"fetch\",\"index\":%llu,"
                      "\"addr\":\"0x%08x\",\"encoding\":\"0x%08x\","
                      "\"newWord\":%s,\"hit\":%s}",
                      static_cast<unsigned long long>(e.index), e.addr,
                      e.a, (e.b & 1u) ? "true" : "false",
                      (e.b & 2u) ? "true" : "false");
        break;
      case Entry::Type::Issue:
        std::snprintf(buf, sizeof(buf),
                      "{\"event\":\"issue\",\"index\":%llu,"
                      "\"cycle\":%llu,\"slot\":%u,\"stall\":\"%s\"}",
                      static_cast<unsigned long long>(e.index),
                      static_cast<unsigned long long>(e.cycle), e.a,
                      stallReasonName(static_cast<StallReason>(e.b)));
        break;
      case Entry::Type::Commit:
        std::snprintf(buf, sizeof(buf),
                      "{\"event\":\"commit\",\"index\":%llu,"
                      "\"cycle\":%llu,\"executed\":%s,"
                      "\"branchTaken\":%s}",
                      static_cast<unsigned long long>(e.index),
                      static_cast<unsigned long long>(e.cycle),
                      (e.a & 1u) ? "true" : "false",
                      (e.a & 2u) ? "true" : "false");
        break;
      case Entry::Type::DataAccess:
        std::snprintf(buf, sizeof(buf),
                      "{\"event\":\"dmem\",\"index\":%llu,"
                      "\"addr\":\"0x%08x\",\"write\":%s,\"hit\":%s}",
                      static_cast<unsigned long long>(e.index), e.addr,
                      e.a ? "true" : "false", e.b ? "true" : "false");
        break;
      case Entry::Type::Fault:
        std::snprintf(buf, sizeof(buf),
                      "{\"event\":\"fault\",\"target\":\"%s\","
                      "\"kind\":\"%s\",\"instr\":%llu,"
                      "\"addr\":\"0x%08x\"}",
                      faultTargetName(static_cast<FaultTarget>(e.a)),
                      faultEventKindName(
                          static_cast<FaultEvent::Kind>(e.b)),
                      static_cast<unsigned long long>(e.index), e.addr);
        break;
      default:
        panic("bad TraceObserver entry type");
    }
    os << buf << '\n';
}

void
TraceObserver::dump(std::ostream &os, const RunResult *result) const
{
    if (result) {
        os << "{\"event\":\"run\",\"benchmark\":\""
           << jsonEscapeString(result->benchmark) << "\",\"config\":\""
           << jsonEscapeString(result->config) << "\",\"outcome\":\""
           << runOutcomeName(result->outcome) << "\",\"reason\":\""
           << jsonEscapeString(result->trapReason) << "\"}\n";
    }
    // Oldest first: once the ring wrapped, next_ points at the oldest.
    const size_t n = ring_.size();
    const size_t start = n == capacity_ ? next_ : 0;
    for (size_t i = 0; i < n; ++i)
        writeEntry(os, ring_[(start + i) % n]);
}

void
TraceObserver::onRunEnd(RunResult &result)
{
    const bool qualifying = result.outcome == RunOutcome::Trapped ||
                            result.outcome == RunOutcome::FaultDetected;
    if (qualifying) {
        if (sink_) {
            dump(*sink_, &result);
        } else if (!path_.empty()) {
            std::ofstream os(path_, std::ios::app);
            if (os) {
                dump(os, &result);
            } else {
                warn_once("trace: cannot open '%s' for append",
                          path_.c_str());
            }
        }
    }
    clear();
}

} // namespace pfits
