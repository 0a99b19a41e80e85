/** @file Property tests over the field lists (common/fields.hh): every
 *  member of a listed struct has exactly one row, and every row is
 *  seen by each consumer — perturbing it moves the memo key (config
 *  lists, past their documented gates), survives a wire round trip,
 *  and is reported by name by the differential compare. The byte
 *  values themselves are pinned separately (test_encoding_pins.cc). */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/simcache.hh"
#include "obs/json_fields.hh"
#include "obs/manifest.hh"
#include "sim/chip.hh"
#include "sim/machine.hh"
#include "verify/differential.hh"

namespace pfits
{
namespace
{

// --- row enumeration -------------------------------------------------------

/** Change @p v to a different value of its type. */
template <class M>
void
perturb(M &v)
{
    if constexpr (std::is_enum_v<M>)
        v = static_cast<M>((static_cast<unsigned>(v) + 1) %
                           FieldEnum<M>::kCount);
    else if constexpr (std::is_same_v<M, bool>)
        v = !v;
    else if constexpr (std::is_arithmetic_v<M>)
        v = static_cast<M>(v * 2 + 1);
    else if constexpr (std::is_same_v<M, std::string>)
        v += "x";
    else if constexpr (std::is_array_v<M>)
        perturb(v[0]);
    else
        v.emplace_back(); // a vector of scalars: one more element
}

/** One leaf row reached from a root struct. */
template <class Root>
struct Leaf
{
    std::string path;  //!< "icache.size_bytes", "intervals[0].cycles"
    bool keyed;        //!< kKey on the row and every row above it
    std::function<void(Root &)> perturb;
};

/** A vector whose elements carry a field list (SimResult::intervals). */
template <class M>
concept VectorOfListed = requires { typename M::value_type; } &&
                         HasFields<typename M::value_type>;

template <class Root, class T, class Get>
void collectLeaves(const std::string &prefix, bool keyed, Get get,
                   std::vector<Leaf<Root>> &out);

template <class Root, class T, class Get>
struct LeafRow
{
    const std::string &prefix;
    bool keyed;
    Get get;
    std::vector<Leaf<Root>> &out;

    template <class M>
    void
    operator()(const char *name, M T::*member, unsigned flags = 0)
    {
        const std::string path = prefix + name;
        const bool row_keyed = keyed && (flags & kKey);
        auto sub = [get = get, member](Root &r) -> M & {
            return get(r).*member;
        };
        if constexpr (HasFields<M>) {
            collectLeaves<Root, M>(path + ".", row_keyed, sub, out);
        } else if constexpr (VectorOfListed<M>) {
            using E = typename M::value_type;
            auto first = [sub](Root &r) -> E & { return sub(r).at(0); };
            collectLeaves<Root, E>(path + "[0].", row_keyed, first, out);
        } else {
            out.push_back({path, row_keyed,
                           [sub](Root &r) { perturb(sub(r)); }});
        }
    }
};

/** Every leaf row under @p get(root), recursing into nested lists. */
template <class Root, class T, class Get>
void
collectLeaves(const std::string &prefix, bool keyed, Get get,
              std::vector<Leaf<Root>> &out)
{
    LeafRow<Root, T, Get> row{prefix, keyed, get, out};
    T::fields(row);
}

template <class Root>
std::vector<Leaf<Root>>
leaves()
{
    std::vector<Leaf<Root>> out;
    collectLeaves<Root, Root>("", true, [](Root &r) -> Root & { return r; },
                              out);
    return out;
}

// --- member counting -------------------------------------------------------

/** Converts to any member type; only ever used unevaluated. */
struct AnyMember
{
    template <class U>
    operator U() const;
};

template <class T, size_t... I>
constexpr bool
bracesTake(std::index_sequence<I...>)
{
    return requires { T{(static_cast<void>(I), AnyMember{})...}; };
}

/** Members of aggregate @p T (each array element counts as one). */
template <class T, size_t N = 0>
constexpr size_t
memberCount()
{
    if constexpr (bracesTake<T>(std::make_index_sequence<N + 1>{}))
        return memberCount<T, N + 1>();
    else
        return N;
}

struct RowCounter
{
    std::vector<std::string> names;

    template <class T, class M>
    void
    operator()(const char *name, M T::*, unsigned = 0)
    {
        names.push_back(name);
    }
};

template <class T>
std::vector<std::string>
rowNames()
{
    RowCounter c;
    T::fields(c);
    return c.names;
}

template <class T>
void
expectOneRowPerMember(const char *what, size_t uncounted = 0,
                      size_t extra_slots = 0)
{
    const std::vector<std::string> names = rowNames<T>();
    EXPECT_EQ(names.size() + uncounted + extra_slots, memberCount<T>())
        << what << ": a member has no row (or a row no member)";
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              names.size())
        << what << ": duplicate wire name";
}

TEST(FieldLists, EveryMemberHasExactlyOneRow)
{
    expectOneRowPerMember<CacheConfig>("CacheConfig");
    expectOneRowPerMember<CoreConfig>("CoreConfig");
    expectOneRowPerMember<ChipConfig>("ChipConfig");
    expectOneRowPerMember<FaultParams>("FaultParams");
    expectOneRowPerMember<CacheStats>("CacheStats");
    expectOneRowPerMember<RunResult>("RunResult");
    expectOneRowPerMember<IntervalSample>("IntervalSample");
    expectOneRowPerMember<IoSinks>("IoSinks");
    expectOneRowPerMember<Flags>("Flags");
    expectOneRowPerMember<SimKey>("SimKey");
    // The brace probe counts each of the NUM_REGS register slots.
    expectOneRowPerMember<CpuState>("CpuState", 0, NUM_REGS - 1);
    // SimResult::chip and ::faultTally have no row: pfitsd serves
    // single-core, fault-free runs only.
    expectOneRowPerMember<SimResult>("SimResult", 2);
}

// --- the memo key ----------------------------------------------------------

/**
 * Every leaf of a config list must be key material and must move
 * @p key when perturbed away from @p base.
 */
template <class Root, class Key>
void
expectEveryRowMovesTheKey(const char *what, const Root &base, Key key)
{
    const uint64_t base_key = key(base);
    for (const Leaf<Root> &leaf : leaves<Root>()) {
        EXPECT_TRUE(leaf.keyed)
            << what << "." << leaf.path << " is not key material";
        Root changed = base;
        leaf.perturb(changed);
        EXPECT_NE(key(changed), base_key)
            << what << "." << leaf.path << " does not reach the key";
    }
}

TEST(FieldLists, EveryConfigRowMovesTheMemoKey)
{
    expectEveryRowMovesTheKey("core", CoreConfig{},
                              [](const CoreConfig &core) {
                                  return hashConfigKey(core, {});
                              });

    // The gate: a default chip hashes to 0 (SimCacheChip tests pin
    // that), so chip rows are checked from a non-default chip.
    ChipConfig chip;
    chip.tiles = 2;
    chip.sharedL2 = true;
    expectEveryRowMovesTheKey("chip", chip, [](const ChipConfig &c) {
        return hashConfigKey(CoreConfig{}, c);
    });

    // The gate: a disabled plan hashes to 0, so rows are checked from
    // an armed plan; the retry bound is appended key material too.
    FaultParams faults;
    faults.icacheMeanInterval = 1000;
    faults.memoryMeanInterval = 2000;
    expectEveryRowMovesTheKey("faults", faults, [](const FaultParams &f) {
        return hashFaultParams(f, 3);
    });
    EXPECT_NE(hashFaultParams(faults, 3), hashFaultParams(faults, 4));
}

// --- the wire --------------------------------------------------------------

template <class T>
std::string
toJson(const T &value)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    writeJsonFields(w, value);
    return os.str();
}

/** Every perturbed leaf is on the wire and reads back unchanged. */
template <class Root>
void
expectEveryRowRoundTrips(const char *what, const Root &base)
{
    const std::string base_text = toJson(base);
    for (const Leaf<Root> &leaf : leaves<Root>()) {
        Root changed = base;
        leaf.perturb(changed);
        const std::string text = toJson(changed);
        EXPECT_NE(text, base_text)
            << what << "." << leaf.path << " is not on the wire";
        Root back{};
        ASSERT_TRUE(readJsonFields(JsonValue::parse(text), back))
            << what << "." << leaf.path << ": " << text;
        std::vector<std::string> diffs;
        diffFields(what, back, changed, diffs);
        EXPECT_TRUE(diffs.empty())
            << what << "." << leaf.path << " lost: " << diffs.front();
    }
}

/** A result with every vector populated, so every row has a leaf. */
SimResult
populatedResult()
{
    SimResult r;
    r.run.benchmark = "crc32";
    r.run.config = "ARM16";
    r.run.instructions = 1000;
    r.run.cycles = 900;
    r.run.icache.reads = 1000;
    r.run.io.console = "ok\n";
    r.run.io.emitted = {0xdeadbeefu};
    r.run.finalState.regs[0] = 7;
    r.run.outcome = RunOutcome::Completed;
    r.intervals.push_back({0, 1000, 900, 1000, 3, 250, 32000});
    return r;
}

TEST(FieldLists, EveryRowSurvivesAWireRoundTrip)
{
    expectEveryRowRoundTrips("core", CoreConfig{});
    FaultParams faults;
    faults.icacheMeanInterval = 1000;
    expectEveryRowRoundTrips("faults", faults);
    expectEveryRowRoundTrips("result", populatedResult());
    expectEveryRowRoundTrips("key", SimKey{1, 2, 3, 4});
}

// --- the differential compare ----------------------------------------------

/** Perturbing one leaf yields exactly one diff line, naming it. */
template <class Root>
void
expectDiffNamesEveryRow(const Root &base)
{
    for (const Leaf<Root> &leaf : leaves<Root>()) {
        Root changed = base;
        leaf.perturb(changed);
        std::vector<std::string> diffs;
        diffFields("cmp", base, changed, diffs);
        ASSERT_EQ(diffs.size(), 1u) << leaf.path;
        EXPECT_EQ(diffs[0].rfind("cmp: " + leaf.path, 0), 0u)
            << leaf.path << " reported as: " << diffs[0];
    }
}

TEST(FieldLists, DiffReportsEveryRowByName)
{
    expectDiffNamesEveryRow(populatedResult());
    expectDiffNamesEveryRow(CoreConfig{});
    expectDiffNamesEveryRow(ChipConfig{});
    expectDiffNamesEveryRow(FaultParams{});
    expectDiffNamesEveryRow(SimKey{1, 2, 3, 4});

    std::vector<std::string> none;
    diffFields("cmp", populatedResult(), populatedResult(), none);
    EXPECT_TRUE(none.empty());
}

} // namespace
} // namespace pfits
