/**
 * @file
 * The front-end abstraction: a decoded instruction stream.
 *
 * A FrontEnd is what the Machine executes. The fixed ARM decoder
 * (ArmFrontEnd, here) and the programmable FITS decoder (FitsFrontEnd in
 * src/fits/) both pre-decode their binaries into MicroOps once; the
 * Machine then only deals in instruction indices, raw encodings (for
 * fetch-bus toggle counting) and byte addresses (for the I-cache).
 */

#ifndef POWERFITS_SIM_FRONTEND_HH
#define POWERFITS_SIM_FRONTEND_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "isa/isa.hh"
#include "sim/executor.hh"

namespace pfits
{

/** A loaded, decoded instruction stream plus its data image. */
class FrontEnd
{
  public:
    virtual ~FrontEnd() = default;

    virtual const std::string &name() const = 0;
    virtual size_t numInstructions() const = 0;
    virtual const MicroOp &uopAt(size_t index) const = 0;
    /** Raw encoding bits of instruction @p index (low instrBits bits). */
    virtual uint32_t encodingAt(size_t index) const = 0;
    /** Instruction width in bits: 32 for ARM, 16 for FITS. */
    virtual unsigned instrBits() const = 0;
    virtual AddrCodec codec() const = 0;
    virtual const std::vector<DataSegment> &dataSegments() const = 0;
    virtual uint32_t stackTop() const = 0;
    /** Static code footprint in bytes. */
    virtual uint32_t codeBytes() const = 0;

    /**
     * The memo behind hashFrontEnd (exp/simcache.hh): @p compute runs
     * at most once per FrontEnd, even under concurrent callers, and
     * every call returns its value. Sound because a FrontEnd never
     * changes after construction.
     */
    template <class Compute>
    uint64_t
    memoHash(Compute &&compute) const
    {
        std::call_once(hashOnce_, [&] { hash_ = compute(*this); });
        return hash_;
    }

  private:
    mutable std::once_flag hashOnce_;
    mutable uint64_t hash_ = 0;
};

/** The conventional fixed-ISA front-end over a uARM Program. */
class ArmFrontEnd : public FrontEnd
{
  public:
    explicit ArmFrontEnd(Program prog)
        : prog_(std::move(prog)), uops_(prog_.decodeAll())
    {
    }

    const std::string &name() const override { return prog_.name; }
    size_t numInstructions() const override { return prog_.code.size(); }

    const MicroOp &
    uopAt(size_t index) const override
    {
        return uops_[index];
    }

    uint32_t
    encodingAt(size_t index) const override
    {
        return prog_.code[index];
    }

    unsigned instrBits() const override { return 32; }

    AddrCodec
    codec() const override
    {
        return AddrCodec{prog_.codeBase, 2};
    }

    const std::vector<DataSegment> &
    dataSegments() const override
    {
        return prog_.data;
    }

    uint32_t stackTop() const override { return prog_.stackTop; }
    uint32_t codeBytes() const override { return prog_.codeBytes(); }

    const Program &program() const { return prog_; }

  private:
    Program prog_;
    std::vector<MicroOp> uops_;
};

} // namespace pfits

#endif // POWERFITS_SIM_FRONTEND_HH
