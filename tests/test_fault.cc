/**
 * @file
 * Tests for the soft-error injection subsystem: FaultPlan scheduling,
 * the per-target injection sites (I-cache, memory, config text), the
 * Machine's structured fault outcomes, and the experiment Runner's
 * retry-with-reload loop. Everything here is seeded, so every expected
 * value is exactly reproducible.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/fault.hh"
#include "exp/experiment.hh"
#include "mibench/mibench.hh"
#include "sim/frontend.hh"
#include "sim/machine.hh"
#include "sim/memory.hh"

namespace pfits
{
namespace
{

TEST(FaultPlan, DefaultsAreDisarmed)
{
    FaultParams params;
    EXPECT_FALSE(params.enabled());
    FaultPlan plan(params);
    for (uint64_t i = 0; i < 10000; ++i) {
        EXPECT_FALSE(plan.due(FaultTarget::ICACHE, i));
        EXPECT_FALSE(plan.due(FaultTarget::MEMORY, i));
    }
    EXPECT_EQ(plan.totalInjected(), 0u);
}

TEST(FaultPlan, ScheduleIsDeterministic)
{
    FaultParams params;
    params.seed = 0xdecaf;
    params.icacheMeanInterval = 500;
    params.memoryMeanInterval = 1500;
    EXPECT_TRUE(params.enabled());

    FaultPlan a(params), b(params);
    std::vector<uint64_t> hits_a, hits_b;
    for (uint64_t i = 0; i < 200000; ++i) {
        if (a.due(FaultTarget::ICACHE, i))
            hits_a.push_back(i);
        a.due(FaultTarget::MEMORY, i);
        if (b.due(FaultTarget::ICACHE, i))
            hits_b.push_back(i);
        b.due(FaultTarget::MEMORY, i);
    }
    EXPECT_EQ(hits_a, hits_b);
    EXPECT_FALSE(hits_a.empty());
}

TEST(FaultPlan, MeanIntervalIsHonoured)
{
    FaultParams params;
    params.icacheMeanInterval = 1000;
    FaultPlan plan(params);
    uint64_t hits = 0;
    const uint64_t kInstrs = 1000000;
    for (uint64_t i = 0; i < kInstrs; ++i)
        if (plan.due(FaultTarget::ICACHE, i))
            ++hits;
    // Gaps are uniform in [1, 2*mean], so the rate is 1/mean ± noise.
    EXPECT_GT(hits, kInstrs / 1000 / 2);
    EXPECT_LT(hits, kInstrs / 1000 * 2);
}

TEST(FaultPlan, ConfigUpsetsAreNotInstructionTimed)
{
    FaultParams params;
    params.icacheMeanInterval = 10;
    FaultPlan plan(params);
    for (uint64_t i = 0; i < 1000; ++i)
        EXPECT_FALSE(plan.due(FaultTarget::CONFIG, i));
}

TEST(FaultPlan, CorruptTextBitFlipsExactlyOneBit)
{
    FaultPlan plan(FaultParams{});
    std::string original = "slot 0 mov rd imm8\nchecksum 00\n";
    std::string text = original;
    int64_t bit = plan.corruptTextBit(text);
    ASSERT_GE(bit, 0);
    ASSERT_LT(bit, static_cast<int64_t>(original.size()) * 8);
    size_t diffs = 0;
    for (size_t i = 0; i < original.size(); ++i) {
        unsigned delta = static_cast<unsigned char>(original[i]) ^
                         static_cast<unsigned char>(text[i]);
        if (delta) {
            ++diffs;
            EXPECT_EQ(delta & (delta - 1), 0u); // power of two: one bit
            EXPECT_EQ(i, static_cast<size_t>(bit) / 8);
        }
    }
    EXPECT_EQ(diffs, 1u);
    EXPECT_EQ(plan.injected(FaultTarget::CONFIG), 1u);

    std::string empty;
    EXPECT_EQ(plan.corruptTextBit(empty), -1);
    EXPECT_EQ(plan.injected(FaultTarget::CONFIG), 1u);
}

TEST(FaultPlan, StatsRegistration)
{
    FaultPlan plan(FaultParams{});
    plan.recordInjected(FaultTarget::ICACHE);
    plan.recordInjected(FaultTarget::ICACHE);
    plan.recordDetected(FaultTarget::ICACHE);
    plan.recordEscaped(FaultTarget::MEMORY);
    EXPECT_EQ(plan.injected(FaultTarget::ICACHE), 2u);
    EXPECT_EQ(plan.detected(FaultTarget::ICACHE), 1u);
    EXPECT_EQ(plan.escaped(FaultTarget::MEMORY), 1u);
    EXPECT_EQ(plan.injected(FaultTarget::CONFIG), 0u);
    EXPECT_EQ(plan.totalInjected(), 2u);
    EXPECT_STREQ(faultTargetName(FaultTarget::CONFIG), "config");
}

TEST(Memory, BitFlipInjectionIsDeterministic)
{
    Memory a, b;
    for (uint32_t addr = 0; addr < 64; addr += 4) {
        a.write32(addr, 0x01020304 + addr);
        b.write32(addr, 0x01020304 + addr);
        a.write32(0x50000 + addr, addr); // second page
        b.write32(0x50000 + addr, addr);
    }
    Rng ra(99), rb(99);
    auto hit_a = a.injectBitFlip(ra);
    auto hit_b = b.injectBitFlip(rb);
    ASSERT_TRUE(hit_a.has_value());
    EXPECT_EQ(*hit_a, *hit_b);
    EXPECT_EQ(a.read8(*hit_a), b.read8(*hit_b));

    // Exactly one bit changed relative to the untouched twin.
    Memory clean;
    for (uint32_t addr = 0; addr < 64; addr += 4) {
        clean.write32(addr, 0x01020304 + addr);
        clean.write32(0x50000 + addr, addr);
    }
    unsigned delta = a.read8(*hit_a) ^ clean.read8(*hit_a);
    EXPECT_NE(delta, 0u);
    EXPECT_EQ(delta & (delta - 1), 0u);
}

TEST(Memory, BitFlipIntoEmptyMemoryIsNull)
{
    Memory mem;
    Rng rng(1);
    EXPECT_FALSE(mem.injectBitFlip(rng).has_value());
}

/** Run one MiBench kernel under injection with a chosen I-cache setup. */
RunResult
faultyRun(const char *bench, bool parity, FaultPlan &plan)
{
    mibench::Workload w = mibench::findBench(bench).build();
    ArmFrontEnd fe(w.program);
    CoreConfig core;
    core.icache.parity = parity;
    return Machine(fe, core).run(&plan);
}

TEST(Machine, FaultRunsAreReproducible)
{
    FaultParams params;
    params.seed = 0x5eed;
    params.icacheMeanInterval = 200;
    params.memoryMeanInterval = 2000;
    FaultPlan p1(params), p2(params);
    RunResult r1 = faultyRun("crc32", true, p1);
    RunResult r2 = faultyRun("crc32", true, p2);
    EXPECT_EQ(r1.outcome, r2.outcome);
    EXPECT_EQ(r1.instructions, r2.instructions);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.trapReason, r2.trapReason);
    EXPECT_EQ(p1.injected(FaultTarget::ICACHE),
              p2.injected(FaultTarget::ICACHE));
    EXPECT_EQ(p1.detected(FaultTarget::ICACHE),
              p2.detected(FaultTarget::ICACHE));
    EXPECT_GT(p1.totalInjected(), 0u);
}

TEST(Machine, ParityTurnsConsumedFlipsIntoDetections)
{
    FaultParams params;
    params.seed = 0x5eed;
    params.icacheMeanInterval = 100; // aggressive: hit the hot loop
    FaultPlan plan(params);
    RunResult rr = faultyRun("crc32", true, plan);
    // A consumed corrupt line under parity ends the run as a detected
    // fault — never as silent corruption.
    ASSERT_EQ(rr.outcome, RunOutcome::FaultDetected);
    EXPECT_NE(rr.outcome, RunOutcome::Completed);
    EXPECT_NE(rr.trapReason.find("parity"), std::string::npos);
    EXPECT_GE(plan.detected(FaultTarget::ICACHE), 1u);
    EXPECT_EQ(plan.escaped(FaultTarget::ICACHE), 0u);
    EXPECT_GE(rr.icache.parityDetections, 1u);
}

TEST(Machine, WithoutParityConsumedFlipsEscape)
{
    FaultParams params;
    params.seed = 0x5eed;
    params.icacheMeanInterval = 100;
    FaultPlan plan(params);
    RunResult rr = faultyRun("crc32", false, plan);
    // Tags-only cache model: the corruption is accounted (an escape),
    // not acted out, so the run still completes with the right answer.
    EXPECT_EQ(rr.outcome, RunOutcome::Completed);
    EXPECT_GE(plan.escaped(FaultTarget::ICACHE), 1u);
    EXPECT_EQ(plan.detected(FaultTarget::ICACHE), 0u);
    EXPECT_EQ(rr.icache.corruptDeliveries,
              plan.escaped(FaultTarget::ICACHE));
}

TEST(Runner, FaultSweepIsDeterministicAndBounded)
{
    ExperimentParams params;
    params.faults.icacheMeanInterval = 500;
    params.faults.memoryMeanInterval = 50000;
    params.core.icache.parity = true;
    params.faultRetries = 2;

    Runner r1(params), r2(params);
    const BenchResult &a = r1.get("crc32");
    const BenchResult &b = r2.get("crc32");
    for (ConfigId id : kAllConfigs) {
        const ConfigResult &ca = a.of(id);
        const ConfigResult &cb = b.of(id);
        EXPECT_EQ(ca.run.outcome, cb.run.outcome) << configName(id);
        EXPECT_EQ(ca.run.instructions, cb.run.instructions)
            << configName(id);
        EXPECT_EQ(ca.faultRetries, cb.faultRetries) << configName(id);
        EXPECT_EQ(ca.checksumOk, cb.checksumOk) << configName(id);
        EXPECT_LE(ca.faultRetries, params.faultRetries);
    }
}

TEST(Runner, CleanRunStillPassesGoldenChecksum)
{
    // Faults disabled (the default): every config of a kernel completes
    // and matches the golden output, and consumes no retries.
    Runner runner;
    const BenchResult &res = runner.get("crc32");
    for (ConfigId id : kAllConfigs) {
        const ConfigResult &cfg = res.of(id);
        EXPECT_EQ(cfg.run.outcome, RunOutcome::Completed)
            << configName(id);
        EXPECT_TRUE(cfg.checksumOk) << configName(id);
        EXPECT_EQ(cfg.faultRetries, 0u) << configName(id);
    }
}

} // namespace
} // namespace pfits
