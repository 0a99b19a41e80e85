#include "common/fault.hh"

#include "common/logging.hh"

namespace pfits
{

const char *
faultTargetName(FaultTarget target)
{
    switch (target) {
      case FaultTarget::ICACHE: return "icache";
      case FaultTarget::MEMORY: return "memory";
      case FaultTarget::CONFIG: return "config";
      default: panic("bad FaultTarget");
    }
}

FaultPlan::FaultPlan(const FaultParams &params)
    : params_(params), rng_(params.seed)
{
    for (auto &at : nextAt_)
        at = 0;
    if (params_.icacheMeanInterval)
        nextAt_[static_cast<size_t>(FaultTarget::ICACHE)] =
            nextGap(params_.icacheMeanInterval);
    if (params_.memoryMeanInterval)
        nextAt_[static_cast<size_t>(FaultTarget::MEMORY)] =
            nextGap(params_.memoryMeanInterval);
}

uint64_t
FaultPlan::nextGap(uint64_t mean)
{
    // Uniform in [1, 2*mean]: meets the mean without a fixed period
    // that could alias against a kernel's loop structure.
    uint64_t span = 2 * mean;
    if (span > 0xffffffffull)
        span = 0xffffffffull;
    return 1 + rng_.below(static_cast<uint32_t>(span));
}

bool
FaultPlan::due(FaultTarget target, uint64_t instr)
{
    uint64_t mean = 0;
    switch (target) {
      case FaultTarget::ICACHE: mean = params_.icacheMeanInterval; break;
      case FaultTarget::MEMORY: mean = params_.memoryMeanInterval; break;
      default: return false; // CONFIG upsets are not instruction-timed
    }
    if (mean == 0)
        return false;
    uint64_t &at = nextAt_[static_cast<size_t>(target)];
    if (instr < at)
        return false;
    at = instr + nextGap(mean);
    return true;
}

void
FaultPlan::recordInjected(FaultTarget target)
{
    ++injected_[static_cast<size_t>(target)];
}

void
FaultPlan::recordDetected(FaultTarget target)
{
    ++detected_[static_cast<size_t>(target)];
}

void
FaultPlan::recordEscaped(FaultTarget target)
{
    ++escaped_[static_cast<size_t>(target)];
}

uint64_t
FaultPlan::injected(FaultTarget target) const
{
    return injected_[static_cast<size_t>(target)];
}

uint64_t
FaultPlan::detected(FaultTarget target) const
{
    return detected_[static_cast<size_t>(target)];
}

uint64_t
FaultPlan::escaped(FaultTarget target) const
{
    return escaped_[static_cast<size_t>(target)];
}

uint64_t
FaultPlan::totalInjected() const
{
    uint64_t sum = 0;
    for (uint64_t n : injected_)
        sum += n;
    return sum;
}

int64_t
FaultPlan::corruptTextBit(std::string &text)
{
    if (text.empty())
        return -1;
    uint64_t bits = static_cast<uint64_t>(text.size()) * 8;
    uint64_t bit;
    if (bits > 0xffffffffull) {
        bit = (static_cast<uint64_t>(rng_.next()) << 32 | rng_.next()) %
              bits;
    } else {
        bit = rng_.below(static_cast<uint32_t>(bits));
    }
    text[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(text[bit / 8]) ^ (1u << (bit % 8)));
    recordInjected(FaultTarget::CONFIG);
    return static_cast<int64_t>(bit);
}

} // namespace pfits
