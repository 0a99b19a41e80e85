#include "verify/differential.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "cache/cache.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "sim/executor.hh"
#include "sim/probe.hh"

namespace pfits
{

namespace
{

/**
 * The interpreter oracle (makeOracleTile, verify/differential.hh) as a
 * Tile. Deliberately plain: one instruction at a time straight on the
 * members, every cache access through the full Cache::access() scan,
 * observers checked per event. Speed is the engine's job; this tile's
 * job is to be obviously right.
 */
class OracleTile final : public Tile
{
  public:
    OracleTile(const FrontEnd &fe, const CoreConfig &config, Memory &mem,
               unsigned tileId)
        : fe_(fe), config_(config), mem_(mem), tileId_(tileId),
          icache_(config_.icache), dcache_(config_.dcache),
          codec_(fe.codec()), readMasks_(fe.numInstructions())
    {
        state_.regs[SP] = fe_.stackTop();
        // Per-static-instruction source masks (bit r = reads register
        // r, bit NUM_REGS = waits on NZCV), computed once.
        for (size_t i = 0; i < readMasks_.size(); ++i)
            readMasks_[i] = fe_.uopAt(i).readRegMask();
        result_.benchmark = fe_.name();
        result_.config = config_.name;
        result_.clockHz = config_.clockHz;
        result_.outcome = RunOutcome::Completed;
    }

    void
    attachL2(CoherentL2 *l2, uint32_t addrBase) override
    {
        l2_ = l2;
        addrBase_ = addrBase;
    }

    void
    step(uint64_t budget, FaultPlan *faults,
         const ObserverList *observers) override
    {
        const ObserverList *extra =
            observers && !observers->empty() ? observers : nullptr;
        // A remote tile may have invalidated the buffered I-line
        // between our quanta.
        afterL2(0);
        try {
            for (uint64_t n = 0; !done_ && n < budget; ++n)
                retireOne(faults, extra);
        } catch (const TrapError &e) {
            // Architectural trap raised by the executor or memory
            // system: a measured outcome with partial statistics.
            end(RunOutcome::Trapped, e.what());
        }
    }

    bool done() const override { return done_; }

    RunResult
    finish(const ObserverList *observers) override
    {
        if (finished_)
            return result_;
        finished_ = true;
        // Drain the pipeline; every outcome reports the activity it
        // accumulated. External observers see the finished counters.
        result_.cycles = lastIssue_ + 4;
        result_.icache = icache_.stats();
        result_.dcache = dcache_.stats();
        result_.finalState = state_;
        result_.instructions = retired_;
        result_.annulled = annulled_;
        result_.takenBranches = takenBranches_;
        result_.dmemAccesses = dmemAccesses_;
        result_.fetchToggleBits = toggleBits_;
        result_.fetchBitsTotal = bitsTotal_;
        result_.icacheRefillWords = refillWords_;
        if (observers && !observers->empty())
            observers->runEnd(result_);
        return result_;
    }

    bool
    coherenceInvalidate(uint32_t lineAddr) override
    {
        const uint32_t virt = lineAddr - addrBase_;
        // The packed-fetch buffer may hold a word of the dropped line.
        if (icache_.invalidateLine(virt).present)
            fetchPoisoned_ = true;
        return dcache_.invalidateLine(virt).dirty;
    }

    bool
    coherenceDowngrade(uint32_t lineAddr) override
    {
        // I-side lines are never dirty; a downgrade leaves them resident.
        return dcache_.cleanLine(lineAddr - addrBase_).dirty;
    }

    void
    enumerateLines(
        const std::function<void(uint32_t, bool)> &fn) const override
    {
        for (const Cache *cache : {&icache_, &dcache_})
            cache->forEachValidLine([&](uint32_t la, bool dirty) {
                fn(addrBase_ + la, dirty);
            });
    }

  private:
    void retireOne(FaultPlan *faults, const ObserverList *extra);

    void
    end(RunOutcome outcome, std::string reason)
    {
        result_.outcome = outcome;
        result_.trapReason = std::move(reason);
        done_ = true;
    }

    /**
     * An L2 call just returned @p penalty. A coherence invalidation —
     * remote, or the L2 back-invalidating this very tile — may have
     * dropped the line the packed-fetch buffer holds a word of, so the
     * next fetch must go back to the array (packed-fetch buffer
     * contract, sim/machine.hh).
     */
    unsigned
    afterL2(unsigned penalty)
    {
        if (fetchPoisoned_) {
            prevWordAddr_ = kNoFetchWord;
            fetchPoisoned_ = false;
        }
        return penalty;
    }

    const FrontEnd &fe_;
    const CoreConfig config_;
    Memory &mem_;
    const unsigned tileId_;
    Cache icache_;
    Cache dcache_;
    const AddrCodec codec_;
    std::vector<uint32_t> readMasks_;
    CpuState state_;

    // The analytic scoreboard; index NUM_REGS tracks the NZCV flags.
    uint64_t regReady_[NUM_REGS + 1] = {};
    uint64_t issueCycle_ = 0; //!< cycle of the most recent issue group
    unsigned slotsUsed_ = 0;  //!< instructions issued in that cycle
    bool memPortUsed_ = false;
    bool mulUnitUsed_ = false;
    uint64_t frontReady_ = 0; //!< earliest issue for the next instr
    uint64_t lastIssue_ = 0;

    static constexpr uint64_t kNoFetchWord = ~0ull;
    uint64_t prevWordAddr_ = kNoFetchWord; //!< packed-fetch buffer tag
    uint64_t index_ = 0;
    uint64_t retired_ = 0; //!< watchdog / fault-schedule clock

    // RunResult counters.
    uint64_t annulled_ = 0;
    uint64_t takenBranches_ = 0;
    uint64_t dmemAccesses_ = 0;
    uint32_t prevEncoding_ = 0; //!< fetch-bus state for toggle counts
    uint64_t toggleBits_ = 0;
    uint64_t bitsTotal_ = 0;
    uint64_t refillWords_ = 0;

    RunResult result_;
    bool done_ = false;
    bool finished_ = false;

    CoherentL2 *l2_ = nullptr;
    uint32_t addrBase_ = 0;
    bool fetchPoisoned_ = false; //!< see afterL2()
};

void
OracleTile::retireOne(FaultPlan *faults, const ObserverList *extra)
{
    if (index_ == AddrCodec::kBadIndex)
        trap("control transfer below the code base");
    if (index_ >= readMasks_.size())
        trap("fell off the end of the program at index %llu",
             static_cast<unsigned long long>(index_));
    if (retired_ >= config_.maxInstructions) {
        // Runaway guard: partial statistics, not a torn-down sweep.
        end(RunOutcome::WatchdogExpired,
            detail::format("exceeded the %llu-instruction cap",
                           static_cast<unsigned long long>(
                               config_.maxInstructions)));
        return;
    }

    // --- soft-error injection ---------------------------------------------
    if (faults) {
        if (faults->due(FaultTarget::ICACHE, retired_) &&
            icache_.injectBitFlip(faults->rng())) {
            faults->recordInjected(FaultTarget::ICACHE);
            if (extra)
                extra->fault({FaultTarget::ICACHE,
                              FaultEvent::Kind::Injected, retired_, 0});
            // The buffered fetch word may belong to the struck line:
            // drop it so parity sees the corruption.
            prevWordAddr_ = kNoFetchWord;
        }
        if (faults->due(FaultTarget::MEMORY, retired_) &&
            mem_.injectBitFlip(faults->rng())) {
            faults->recordInjected(FaultTarget::MEMORY);
            if (extra)
                extra->fault({FaultTarget::MEMORY,
                              FaultEvent::Kind::Injected, retired_, 0});
        }
    }

    const MicroOp &uop = fe_.uopAt(static_cast<size_t>(index_));
    const uint32_t addr = codec_.addrOf(index_);

    // --- fetch ----------------------------------------------------------------
    const bool new_word =
        !config_.packedFetch || (addr >> 2) != prevWordAddr_;
    prevWordAddr_ = addr >> 2;
    CacheAccessResult fetch;
    if (new_word) {
        fetch = icache_.access(addr, false);
        if (fetch.parityError) {
            // Machine-check: parity caught a corrupt line on
            // consumption. No FetchEvent for the poisoned word, and no
            // stale word survives in the fetch buffer.
            if (faults)
                faults->recordDetected(FaultTarget::ICACHE);
            if (extra)
                extra->fault({FaultTarget::ICACHE,
                              FaultEvent::Kind::Detected, retired_, addr});
            prevWordAddr_ = kNoFetchWord;
            end(RunOutcome::FaultDetected,
                detail::format("I-cache parity error at 0x%08x", addr));
            return;
        }
        // No checker: the escape is counted, not acted out (the
        // tag-only cache cannot alter the functional stream).
        if (fetch.corruptDelivered && faults) {
            faults->recordEscaped(FaultTarget::ICACHE);
            if (extra)
                extra->fault({FaultTarget::ICACHE,
                              FaultEvent::Kind::Escaped, retired_, addr});
        }
        if (!fetch.hit) {
            const unsigned penalty =
                l2_ ? afterL2(l2_->accessFill(tileId_, addrBase_ + addr,
                                              false))
                    : config_.icacheMissPenalty;
            frontReady_ = std::max(frontReady_, lastIssue_) + penalty;
        }
    }
    const uint32_t encoding = fe_.encodingAt(static_cast<size_t>(index_));
    const unsigned bits = fe_.instrBits();
    const uint32_t line_words = config_.icache.lineBytes / 4;
    // Fetch-bus activity: true bit flips between successive encodings.
    toggleBits_ += popcount32((encoding ^ prevEncoding_) &
                              detail::encodingMask(bits));
    prevEncoding_ = encoding;
    bitsTotal_ += bits;
    if (new_word && !fetch.hit)
        refillWords_ += line_words;
    if (extra)
        extra->fetch(FetchEvent{index_, addr, encoding, bits, new_word,
                                fetch, line_words});

    // --- execute (functional) ----------------------------------------------
    ExecInfo info;
    execute(uop, index_, codec_, state_, mem_, result_.io, info);

    // --- issue timing --------------------------------------------------------
    const uint64_t prev_issue = lastIssue_;
    const uint64_t base_ready = std::max(frontReady_, lastIssue_);
    uint64_t earliest = base_ready;
    for (uint32_t m = readMasks_[index_]; m != 0; m &= m - 1)
        earliest = std::max(earliest, regReady_[std::countr_zero(m)]);
    const bool operand_stall = earliest > base_ready;
    // Structural constraints within an issue group.
    const bool wants_mem = info.executed && (info.isLoad || info.isStore);
    const bool wants_mul = info.executed && info.isMulDiv;
    bool structural_stall = false;
    if (earliest == issueCycle_ &&
        (slotsUsed_ >= config_.issueWidth || (wants_mem && memPortUsed_) ||
         (wants_mul && mulUnitUsed_))) {
        earliest += 1;
        structural_stall = true;
    }
    if (earliest != issueCycle_) {
        issueCycle_ = earliest;
        slotsUsed_ = 0;
        memPortUsed_ = false;
        mulUnitUsed_ = false;
    }
    ++slotsUsed_;
    memPortUsed_ = memPortUsed_ || wants_mem;
    mulUnitUsed_ = mulUnitUsed_ || wants_mul;
    lastIssue_ = issueCycle_;
    if (extra) {
        // A structural bump is applied last; operand readiness can
        // only raise a front-end-ready baseline.
        StallReason reason = StallReason::None;
        if (issueCycle_ != prev_issue)
            reason = structural_stall ? StallReason::Structural
                     : operand_stall  ? StallReason::Operands
                                      : StallReason::FrontEnd;
        extra->issue(IssueEvent{index_, issueCycle_, slotsUsed_ - 1,
                                issueCycle_ - prev_issue, reason});
    }

    // --- data memory timing --------------------------------------------------
    uint64_t result_ready = issueCycle_ + 1 + info.extraLatency;
    for (unsigned m = 0; m < info.numMem; ++m) {
        const ExecInfo::MemAccess &acc = info.mem[m];
        const CacheAccessResult dres = dcache_.access(acc.addr, acc.write);
        ++dmemAccesses_;
        if (extra)
            extra->dataAccess(
                DataAccessEvent{index_, acc.addr, acc.write, dres});
        if (!dres.hit) {
            unsigned penalty = config_.dcacheMissPenalty;
            if (l2_) {
                // Drain the dirty victim before the fill so its data is
                // in the L2 when the fill's own victim selection runs.
                if (dres.writeback)
                    l2_->l1Writeback(tileId_, addrBase_ + dres.victimAddr);
                penalty = afterL2(
                    l2_->accessFill(tileId_, addrBase_ + acc.addr,
                                    acc.write));
            }
            // Blocking cache: the whole pipeline waits.
            result_ready += penalty;
            frontReady_ = std::max(frontReady_, issueCycle_ + penalty);
        } else if (dres.writeUpgrade && l2_) {
            // Write hit on a clean line: the S->M edge. Remote copies
            // are invalidated before this store's data may land.
            const unsigned penalty = afterL2(
                l2_->upgradeForWrite(tileId_, addrBase_ + acc.addr));
            if (penalty != 0) {
                result_ready += penalty;
                frontReady_ = std::max(frontReady_, issueCycle_ + penalty);
            }
        }
    }
    if (info.isLoad)
        result_ready += 1; // load-use bubble

    // --- writeback scoreboard ------------------------------------------------
    if (info.executed) {
        if (uop.op == Op::LDM) {
            for (uint32_t m = uop.regList; m != 0; m &= m - 1)
                regReady_[std::countr_zero(m)] = result_ready;
            if (info.baseWriteback)
                regReady_[uop.rn] =
                    std::max(regReady_[uop.rn], issueCycle_ + 1);
        } else if (uop.op == Op::UMULL || uop.op == Op::SMULL) {
            regReady_[uop.rd] = result_ready;
            regReady_[uop.ra] = result_ready;
        } else if (info.destReg != 0xff) {
            regReady_[info.destReg] = result_ready;
        }
        if (uop.op == Op::STM && info.baseWriteback)
            regReady_[uop.rn] =
                std::max(regReady_[uop.rn], issueCycle_ + 1);
        // Flags come from the same functional unit as the result: a
        // multi-cycle S-form (MULS/MLAS) delivers NZCV at result_ready.
        if (uop.setsFlags)
            regReady_[NUM_REGS] = result_ready;
    }

    // --- commit / control flow ---------------------------------------------
    const bool taken = info.executed && info.branchTaken;
    if (!info.executed && uop.cond != Cond::AL)
        ++annulled_;
    if (taken)
        ++takenBranches_;
    if (extra)
        extra->commit(CommitEvent{index_, &uop, &info, issueCycle_});
    ++retired_;
    if (taken)
        frontReady_ = std::max(frontReady_,
                               issueCycle_ + 1 + config_.branchPenalty);
    index_ = info.nextIndex;
    if (state_.halted)
        done_ = true;
}

} // namespace

std::unique_ptr<Tile>
makeOracleTile(const FrontEnd &fe, const CoreConfig &config, Memory &mem,
               unsigned tileId)
{
    return std::make_unique<OracleTile>(fe, config, mem, tileId);
}

} // namespace pfits
