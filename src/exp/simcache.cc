#include "exp/simcache.hh"

#include <algorithm>
#include <type_traits>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace pfits
{

namespace
{

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Incremental FNV-1a over explicit field values (padding-free). */
struct Hasher
{
    uint64_t h = kFnvOffset;

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= kFnvPrime;
        }
    }

    void
    bytes(const uint8_t *data, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            h ^= data[i];
            h *= kFnvPrime;
        }
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }

    /** Queue one bool; adjacent bools share a word, first in bit 0. */
    void
    bit(bool b)
    {
        bits |= static_cast<uint64_t>(b) << nbits++;
    }

    void
    flushBits()
    {
        if (nbits != 0)
            u64(bits);
        bits = 0;
        nbits = 0;
    }

    uint64_t bits = 0;
    unsigned nbits = 0;
};

/**
 * The memo-key walker of the field lists: hashes every kKey row in
 * list order. Adjacent bools share one word (bit i = the i-th bool), a
 * double hashes as whole thousandths, a string as length and bytes, a
 * nested list inline, and a late row only when non-zero, as 1 + value.
 * These encodings are frozen (DESIGN.md §10).
 */
template <class M>
void
hashValue(Hasher &h, const M &value)
{
    if constexpr (HasFields<M>) {
        auto row = [&]<class F>(const char *, F M::*member,
                                unsigned flags = 0) {
            if (!(flags & kKey))
                return;
            const F &field = value.*member;
            if constexpr (std::is_same_v<F, bool>) {
                if (!(flags & kLate)) {
                    h.bit(field);
                    return;
                }
            }
            h.flushBits();
            if constexpr (std::is_scalar_v<F>) {
                if (flags & kLate) {
                    if (field != F{})
                        h.u64(static_cast<uint64_t>(field) + 1);
                    return;
                }
            }
            hashValue(h, field);
        };
        M::fields(row);
        h.flushBits();
    } else if constexpr (std::is_same_v<M, std::string>) {
        h.str(value);
    } else if constexpr (std::is_floating_point_v<M>) {
        h.u64(static_cast<uint64_t>(value * 1e3));
    } else {
        static_assert(std::is_integral_v<M> || std::is_enum_v<M>,
                      "no key encoding for M");
        h.u64(static_cast<uint64_t>(value));
    }
}

template <class T>
uint64_t
hashFields(const T &obj)
{
    Hasher h;
    hashValue(h, obj);
    return h.h;
}

void
hashUop(Hasher &h, const MicroOp &uop)
{
    // Field-by-field: hashing the raw struct would pick up padding.
    h.u64(static_cast<uint64_t>(uop.op) |
          (static_cast<uint64_t>(uop.cond) << 8) |
          (static_cast<uint64_t>(uop.setsFlags) << 16) |
          (static_cast<uint64_t>(uop.rd) << 24) |
          (static_cast<uint64_t>(uop.rn) << 32) |
          (static_cast<uint64_t>(uop.rm) << 40) |
          (static_cast<uint64_t>(uop.rs) << 48) |
          (static_cast<uint64_t>(uop.ra) << 56));
    h.u64(static_cast<uint64_t>(uop.op2Kind) |
          (static_cast<uint64_t>(uop.shiftType) << 8) |
          (static_cast<uint64_t>(uop.shiftAmount) << 16) |
          (static_cast<uint64_t>(uop.memKind) << 24) |
          (static_cast<uint64_t>(uop.memAdd) << 32) |
          (static_cast<uint64_t>(uop.ldmIsPop) << 40) |
          (static_cast<uint64_t>(uop.regList) << 48));
    h.u64(uop.imm);
    h.u64(static_cast<uint64_t>(static_cast<uint32_t>(uop.memDisp)));
    h.u64(static_cast<uint64_t>(
        static_cast<uint32_t>(uop.branchOffset)));
}

uint64_t
walkFrontEnd(const FrontEnd &fe)
{
    Hasher h;
    h.str(fe.name());
    h.u64(fe.instrBits());
    h.u64(fe.codec().base);
    h.u64(fe.codec().shift);
    h.u64(fe.stackTop());
    h.u64(fe.codeBytes());
    const size_t n = fe.numInstructions();
    h.u64(n);
    for (size_t i = 0; i < n; ++i) {
        h.u64(fe.encodingAt(i));
        // The decoded stream too: a FITS encoding means nothing
        // without its decoder configuration, and the uops are what the
        // Machine actually executes.
        hashUop(h, fe.uopAt(i));
    }
    h.u64(fe.dataSegments().size());
    for (const DataSegment &seg : fe.dataSegments()) {
        h.u64(seg.base);
        h.u64(seg.bytes.size());
        h.bytes(seg.bytes.data(), seg.bytes.size());
    }
    return h.h;
}

/**
 * The run @p request stands for: its @p key with the config component
 * re-hashed from a copy of the core whose name is blank and, when the
 * program's code fits the I-cache, whose I-cache capacity is the
 * sentinel size 0 (no valid config has it). An I-cache only ever holds
 * lines of the code range; while no set can receive more of them than
 * it has ways, no fetch evicts, so every such geometry with the same
 * line size yields the same run. Fault-armed requests (lines struck by
 * geometry) and trace-armed ones (dumps named after the core) are
 * their own identity.
 */
SimKey
runIdentity(const SimRequest &request, const SimKey &key)
{
    if (request.faults.enabled() || request.spec.traceArmed())
        return key;
    const FrontEnd &fe = *request.fe;
    CoreConfig core = *request.core;
    core.name.clear();
    const uint32_t first = fe.codec().base;
    if (fe.codeBytes() != 0 &&
        core.icache.holdsRange(first, first + fe.codeBytes() - 1)) {
        core.icache.sizeBytes = 0;
        core.icache.assoc = 0;
        core.icache.policy = ReplPolicy::LRU;
    }
    SimKey identity = key;
    identity.config = hashConfigKey(core, request.chip);
    return identity;
}

} // namespace

uint64_t
hashFrontEnd(const FrontEnd &fe)
{
    // The walk is byte-serial over every uop and data byte (~0.1 ms
    // for a suite program), and every request key needs it.
    return fe.memoHash(walkFrontEnd);
}

uint64_t
hashCoreConfig(const CoreConfig &core)
{
    return hashFields(core);
}

uint64_t
hashChipConfig(const ChipConfig &chip)
{
    // The default chip (one tile, no shared L2) is a Machine, so it
    // hashes to 0 and hashConfigKey leaves the core hash untouched —
    // every pre-chip memo key keeps its exact value.
    return chip.isDefault() ? 0 : hashFields(chip);
}

uint64_t
hashConfigKey(const CoreConfig &core, const ChipConfig &chip)
{
    const uint64_t core_hash = hashCoreConfig(core);
    const uint64_t chip_hash = hashChipConfig(chip);
    if (chip_hash == 0)
        return core_hash;
    Hasher h;
    h.u64(core_hash);
    h.u64(chip_hash);
    return h.h;
}

uint64_t
hashFaultParams(const FaultParams &faults, unsigned max_retries)
{
    if (!faults.enabled())
        return 0;
    Hasher h;
    hashValue(h, faults);
    h.u64(max_retries);
    return h.h;
}

uint64_t
hashObserverSpec(const ObserverSpec &spec)
{
    // Instrument-free requests hash to 0 so they share entries with
    // pre-instrumentation callers (and with each other).
    if (!spec.any())
        return 0;
    Hasher h;
    h.u64(spec.intervalInstructions);
    h.u64(spec.traceArmed() ? spec.traceDepth : 0);
    if (spec.traceArmed())
        h.str(spec.traceDir);
    return h.h;
}

SimResult
runSimulation(const SimRequest &request)
{
    const FrontEnd &fe = *request.fe;
    const CoreConfig &core = *request.core;
    const FaultParams &faults = request.faults;
    const ObserverSpec &spec = request.spec;
    const ChipConfig &chip = request.chip;

    MetricRegistry *metrics = MetricRegistry::current();
    uint64_t t0 = metrics ? monotonicNs() : 0;

    // One span per simulation (the cost a memo hit saves).
    TraceSpan sim_span("sim", "simcache",
                       TraceArgs()
                           .add("fe", fe.name())
                           .add("config", core.name)
                           .add("tiles", chip.isDefault()
                                             ? 1u
                                             : chip.tiles));

    std::unique_ptr<FaultPlan> plan;
    if (faults.enabled())
        plan = std::make_unique<FaultPlan>(faults);
    if (!chip.isDefault() && faults.enabled())
        fatal("simcache: fault injection is single-core only — "
              "disable faults or drop the chip config");

    // The trap tracer persists across retries: it clears its ring
    // after every run and appends one bounded dump per qualifying
    // attempt, so the file ends up with one record per
    // machine-check.
    std::unique_ptr<TraceObserver> tracer;
    if (spec.traceArmed()) {
        tracer = std::make_unique<TraceObserver>(spec.traceDepth);
        const std::string dir =
            spec.traceDir.empty() ? "." : spec.traceDir;
        tracer->setPath(dir + "/" + fe.name() + "_" + core.name +
                        ".trace.jsonl");
    }

    SimResult out;
    auto attempt = [&]() -> RunResult {
        // The interval instrument is rebuilt per attempt: a
        // machine-checked run's partial series must not leak into
        // the retry. Only the final attempt's series is reported.
        std::unique_ptr<IntervalStatsObserver> interval;
        if (spec.intervalInstructions)
            interval = std::make_unique<IntervalStatsObserver>(
                spec.intervalInstructions);
        ObserverList list;
        if (interval)
            list.add(interval.get());
        if (tracer)
            list.add(tracer.get());
        RunResult rr;
        if (chip.isDefault()) {
            rr = Machine(fe, core).run(plan.get(),
                                       list.empty() ? nullptr : &list);
        } else {
            // A homogeneous chip: chip.tiles copies of this
            // program, round-robin over the shared L2. The
            // reported run is tile 0's — this benchmark as one
            // tile of an N-tile chip under L2 contention — with
            // the chip-level products (aggregate cycles,
            // L2/coherence activity) riding along in out.chip.
            // Instruments attach to tile 0 so interval series and
            // trap traces mean the same thing they mean
            // single-core.
            std::vector<Chip::TileSpec> tile_specs(
                chip.tiles, Chip::TileSpec{&fe, core});
            Chip chip_sim(tile_specs, chip);
            if (!list.empty())
                chip_sim.setObservers(0, &list);
            ChipResult cres = chip_sim.run();
            rr = cres.tiles.front();
            out.chip.chipCycles = cres.chipCycles;
            out.chip.l2 = cres.l2;
            out.chip.coherence = cres.coherence;
            for (const RunResult &tile : cres.tiles) {
                out.chip.tileCycles.push_back(tile.cycles);
                out.chip.tileInstructions.push_back(tile.instructions);
            }
            if (metrics) {
                const CoherenceStats &coh = cres.coherence;
                metrics->counter("chip.invalidations")
                    .add(coh.invalidations + coh.backInvalidations);
                metrics->counter("chip.writebacks")
                    .add(coh.recallWritebacks + coh.l1Writebacks);
                metrics->counter("l2.accesses")
                    .add(cres.l2.accesses());
                metrics->counter("l2.misses").add(cres.l2.misses());
                metrics->counter("l2.writebacks")
                    .add(coh.l2Writebacks);
            }
        }
        if (interval)
            out.intervals = interval->take();
        return rr;
    };

    // Retry-with-reload (single-core only: chips take no faults): a
    // parity machine-check means the stored program image is still
    // good — a fresh Machine reloads it and the run is retried a
    // bounded number of times.
    out.run = attempt();
    while (out.run.outcome == RunOutcome::FaultDetected &&
           out.faultRetries < request.maxRetries) {
        ++out.faultRetries;
        warn_every_n(64, "%s/%s: parity machine-check, reloading "
                     "(retry %u)", out.run.benchmark.c_str(),
                     out.run.config.c_str(), out.faultRetries);
        out.run = attempt();
    }
    if (tracer)
        out.tracePath = tracer->path();
    if (plan)
        out.faultTally = plan->tally();
    if (metrics) {
        // Per-fresh-sim wall time, retries included — the cost a memo
        // hit saves.
        metrics->histogram("simcache.sim_ms", 0.0, 1000.0, 16)
            .sample(static_cast<double>(monotonicNs() - t0) / 1e6);
    }
    return out;
}

SimCache &
SimCache::instance()
{
    static SimCache cache;
    return cache;
}

size_t
SimCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

std::vector<SimKey>
SimCache::keys() const
{
    std::vector<SimKey> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        out.reserve(map_.size());
        for (const auto &[key, slot] : map_)
            out.push_back(key);
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
SimCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    runs_.clear();
    hits_.store(0);
    misses_.store(0);
    shared_.store(0);
}

std::shared_ptr<SimCache::Slot>
SimCache::acquireSlot(SlotMap &map, const SimKey &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Slot> &slot = map[key];
    if (!slot)
        slot = std::make_shared<Slot>();
    return slot;
}

std::optional<SimResult>
SimCache::tryGet(const SimKey &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || !it->second->done.load())
        return std::nullopt;
    return it->second->value;
}

bool
SimCache::seed(const SimKey &key, SimResult result)
{
    std::shared_ptr<Slot> slot = acquireSlot(map_, key);
    bool inserted = false;
    std::call_once(slot->once, [&] {
        slot->value = std::move(result);
        slot->done.store(true);
        inserted = true;
        if (MetricRegistry *metrics = MetricRegistry::current())
            metrics->gauge("simcache.entries")
                .set(static_cast<int64_t>(entries()));
        if (TraceRecorder *trace = TraceRecorder::current())
            trace->instant("simcache.seed", "simcache",
                           TraceArgs()
                               .addHex("program", key.program)
                               .addHex("config", key.config));
    });
    return inserted;
}

SimResult
SimCache::run(const SimRequest &request, const SimKey &key)
{
    std::shared_ptr<Slot> slot =
        acquireSlot(runs_, runIdentity(request, key));
    bool fresh = false;
    std::call_once(slot->once, [&] {
        fresh = true;
        slot->value = runSimulation(request);
        slot->done.store(true);
    });
    MetricRegistry *metrics = MetricRegistry::current();
    // Trap and watchdog messages name the core that ran, so only a
    // completed run answers another request.
    if (fresh || slot->value.run.outcome != RunOutcome::Completed) {
        misses_.fetch_add(1);
        if (metrics)
            metrics->counter("simcache.misses").add();
        return fresh ? slot->value : runSimulation(request);
    }
    shared_.fetch_add(1);
    if (metrics)
        metrics->counter("simcache.shared").add();
    if (TraceRecorder *trace = TraceRecorder::current())
        trace->instant("simcache.shared", "simcache",
                       TraceArgs()
                           .addHex("program", key.program)
                           .add("config", request.core->name));
    SimResult out = slot->value;
    out.run.config = request.core->name;
    return out;
}

SimResult
SimCache::simulate(const SimRequest &request)
{
    // Compute outside the map lock so unrelated keys never serialize;
    // call_once makes concurrent requests for *this* key (and run()
    // for this run identity) compute once and share the result, and
    // makes the hit/miss/shared split deterministic at any job count,
    // which is what lets tests pin the span structure.
    const SimKey key = request.key();
    std::shared_ptr<Slot> slot = acquireSlot(map_, key);
    bool computed = false;
    std::call_once(slot->once, [&] {
        computed = true;
        slot->value = run(request, key);
        slot->done.store(true);
        if (MetricRegistry *metrics = MetricRegistry::current())
            metrics->gauge("simcache.entries")
                .set(static_cast<int64_t>(entries()));
    });
    if (!computed) {
        hits_.fetch_add(1);
        if (MetricRegistry *metrics = MetricRegistry::current())
            metrics->counter("simcache.hits").add();
        if (TraceRecorder *trace = TraceRecorder::current())
            trace->instant("simcache.hit", "simcache",
                           TraceArgs()
                               .add("fe", request.fe->name())
                               .add("config", request.core->name));
    }
    return slot->value;
}

} // namespace pfits
