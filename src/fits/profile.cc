#include "fits/profile.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/tile.hh"

namespace pfits
{

unsigned
ProfileInfo::numRegsUsed() const
{
    unsigned count = 0;
    for (unsigned reg = 0; reg < NUM_REGS; ++reg)
        if ((regsUsed >> reg) & 1u)
            ++count;
    return count;
}

int
ProfileInfo::pickScratchReg() const
{
    // Prefer a high caller-saved-looking register; SP/LR are never
    // eligible even when technically untouched.
    for (int reg = R12; reg >= 0; --reg)
        if (!((regsUsed >> reg) & 1u))
            return reg;
    return -1;
}

const SigStats *
ProfileInfo::find(const Signature &sig) const
{
    auto it = sigs.find(sig.key());
    return it == sigs.end() ? nullptr : &it->second;
}

std::vector<uint32_t>
findMovPairs(const Program &prog, const std::vector<MicroOp> &uops)
{
    // Collect branch targets so we never merge across a join point.
    std::set<uint64_t> targets;
    for (size_t i = 0; i < uops.size(); ++i) {
        if (uops[i].op == Op::B || uops[i].op == Op::BL) {
            targets.insert(static_cast<uint64_t>(i) +
                           uops[i].branchOffset);
        }
    }
    (void)prog;

    std::vector<uint32_t> pairs;
    for (size_t i = 0; i + 1 < uops.size(); ++i) {
        const MicroOp &lo = uops[i];
        const MicroOp &hi = uops[i + 1];
        if (lo.op == Op::MOVW && hi.op == Op::MOVT &&
            lo.rd == hi.rd && lo.cond == Cond::AL &&
            hi.cond == Cond::AL && !targets.count(i + 1)) {
            pairs.push_back(static_cast<uint32_t>(i));
            ++i; // never overlap pairs
        }
    }
    return pairs;
}

namespace
{

/** Characteristic profiled value of an instruction, if any. */
bool
characteristicValue(const MicroOp &uop, const Signature &sig,
                    int64_t &value)
{
    switch (sig.form) {
      case SigForm::IMM:
        value = static_cast<int64_t>(uop.imm);
        return true;
      case SigForm::MEM_IMM:
        value = uop.memDisp;
        return true;
      case SigForm::SHIFT_IMM:
      case SigForm::MEM_REG:
        value = uop.shiftAmount;
        return true;
      default:
        break;
    }
    switch (uop.op) {
      case Op::B: case Op::BL:
        value = uop.branchOffset;
        return true;
      case Op::SWI:
        value = static_cast<int64_t>(uop.imm);
        return true;
      default:
        return false;
    }
}

void
accumulate(ProfileInfo &info, const MicroOp &uop, uint64_t weight,
           bool merged_pair_lo, uint32_t merged_value)
{
    Signature sig;
    MicroOp effective = uop;
    if (merged_pair_lo) {
        // Treat a mergeable MOVW/MOVT pair as one MOV #imm32.
        effective.op = Op::MOV;
        effective.op2Kind = Operand2Kind::IMM;
        effective.imm = merged_value;
    }
    sig = signatureOf(effective);
    SigStats &stats = info.sigs[sig.key()];
    stats.sig = sig;
    ++stats.staticCount;
    stats.dynCount += weight;

    int64_t value;
    if (characteristicValue(effective, sig, value))
        stats.values[value] += weight ? weight : 1;
    if (isAluLikeOp(effective.op) && effective.rd == effective.rn &&
        !isCompareOp(static_cast<AluOp>(effective.op)) &&
        !isMoveOp(static_cast<AluOp>(effective.op))) {
        stats.rdEqRnCount += weight ? weight : 1;
    }

    if (effective.op == Op::LDM || effective.op == Op::STM)
        info.regLists[effective.regList] += weight ? weight : 1;

    if (sig.form == SigForm::REG4 && !isAluLikeOp(effective.op)) {
        uint16_t pair = static_cast<uint16_t>(
            (effective.rd << 8) | effective.ra);
        stats.regPairs[pair] += weight ? weight : 1;
    }

    for (unsigned reg = 0; reg < NUM_REGS; ++reg) {
        bool reads = uop.readsReg(static_cast<uint8_t>(reg));
        bool writes = uop.writesReg(static_cast<uint8_t>(reg));
        if (reads)
            info.regReads[reg] += weight ? weight : 1;
        if (writes)
            info.regWrites[reg] += weight ? weight : 1;
        if (reads || writes)
            info.regsUsed |= static_cast<uint16_t>(1u << reg);
    }
}

} // namespace

ProfileInfo
profileProgram(const Program &prog, bool run_dynamic, uint64_t max_instrs)
{
    ProfileInfo info;
    const std::vector<MicroOp> uops = prog.decodeAll();
    info.totalStatic = uops.size();

    if (run_dynamic) {
        FunctionalRun run = runFunctional(prog, uops, max_instrs);
        if (run.end == FunctionalEnd::FellOff)
            fatal("profile of '%s': fell off the end of the program",
                  prog.name.c_str());
        if (run.end == FunctionalEnd::CapExceeded)
            fatal("profile of '%s': exceeded instruction cap",
                  prog.name.c_str());
        info.dynCounts = std::move(run.dynCounts);
        info.totalDynamic = run.instructions;
        // Exact work counters, tallied once per profile (never in the
        // loop): host-independent, so bench_regress.sh gates them.
        if (MetricRegistry *metrics = MetricRegistry::current()) {
            metrics->counter("fits.profiles").add();
            metrics->counter("fits.profile_instrs").add(run.instructions);
            metrics->counter("fits.profile_runs").add(run.runs);
        }
    } else {
        // Static estimate: every instruction "runs once".
        info.dynCounts.assign(uops.size(), 1);
        info.totalDynamic = uops.size();
    }

    info.mergeablePairs = findMovPairs(prog, uops);
    std::set<uint32_t> pair_lo(info.mergeablePairs.begin(),
                               info.mergeablePairs.end());

    for (size_t i = 0; i < uops.size(); ++i) {
        if (i > 0 && pair_lo.count(static_cast<uint32_t>(i - 1)))
            continue; // the MOVT half of a merged pair
        bool merged = pair_lo.count(static_cast<uint32_t>(i)) != 0;
        uint32_t merged_value = 0;
        if (merged) {
            merged_value = (uops[i].imm & 0xffffu) |
                           (uops[i + 1].imm << 16);
            info.pairConstants[merged_value] += info.dynCounts[i];
        }
        accumulate(info, uops[i], info.dynCounts[i], merged,
                   merged_value);
    }
    return info;
}

} // namespace pfits
