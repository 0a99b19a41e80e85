/** @file Byte pins for every persisted or hashed encoding of the
 *  design-point structs: the SimCache/pfitsd memo-key hashes of the
 *  paper's cores, chips, fault plans and instrument specs, the exact
 *  wire text of a core config and a fault plan, and the exact store
 *  entry of one real MiBench run. A memo key or store entry that moves
 *  silently orphans every warm store and every recorded manifest, so
 *  the expected values live in tests/fixtures/encoding_pins.txt and
 *  any drift fails here. On a mismatch the actual text is written next
 *  to gtest's temp dir for review. */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/simcache.hh"
#include "mibench/mibench.hh"
#include "sim/chip.hh"
#include "sim/frontend.hh"
#include "svc/proto.hh"

namespace pfits
{
namespace
{

/** One pinned encoding: its fixture section name and current text. */
struct Pin
{
    std::string name;
    std::string text;
};

std::string
coreJson(const CoreConfig &core)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    writeJsonFields(w, core);
    return os.str();
}

std::string
faultsJson(const FaultParams &faults)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    writeJsonFields(w, faults);
    return os.str();
}

ChipConfig
sharedL2Chip(unsigned tiles)
{
    ChipConfig chip;
    chip.tiles = tiles;
    chip.sharedL2 = true;
    return chip;
}

FaultParams
armedFaults()
{
    FaultParams faults;
    faults.seed = 0x5eedfa017ull ^ 0x1234;
    faults.icacheMeanInterval = 200'000;
    faults.memoryMeanInterval = 350'000;
    return faults;
}

std::vector<Pin>
currentPins()
{
    std::vector<Pin> pins;
    Runner runner;
    for (ConfigId id : kAllConfigs) {
        const CoreConfig core = runner.coreConfig(id);
        pins.push_back({std::string("config_key ") + configName(id),
                        hexString(hashConfigKey(core, ChipConfig{}))});
    }
    const CoreConfig arm16 = runner.coreConfig(ConfigId::ARM16);

    CoreConfig packed = arm16;
    packed.packedFetch = true;
    pins.push_back({"config_key ARM16 packed_fetch",
                    hexString(hashConfigKey(packed, ChipConfig{}))});

    CoreConfig odd = runner.coreConfig(ConfigId::FITS8);
    odd.icache.policy = ReplPolicy::FIFO;
    odd.icache.parity = true;
    odd.dcache.writeBack = false;
    odd.clockHz = 133.3e6;
    odd.maxInstructions = 1'000'000;
    pins.push_back({"config_key FITS8 fifo+parity+write-through+133MHz",
                    hexString(hashConfigKey(odd, ChipConfig{}))});

    pins.push_back({"config_key ARM16 chip 2 tiles shared L2",
                    hexString(hashConfigKey(arm16, sharedL2Chip(2)))});
    pins.push_back({"config_key ARM16 chip 4 tiles shared L2",
                    hexString(hashConfigKey(arm16, sharedL2Chip(4)))});

    pins.push_back({"faults_key disabled",
                    hexString(hashFaultParams(FaultParams{}, 3))});
    pins.push_back({"faults_key armed retries=3",
                    hexString(hashFaultParams(armedFaults(), 3))});

    ObserverSpec interval;
    interval.intervalInstructions = 50'000;
    pins.push_back({"observers_key interval=50000",
                    hexString(hashObserverSpec(interval))});
    ObserverSpec traced;
    traced.traceDepth = 64;
    traced.traceOnTrap = true;
    traced.traceDir = "traces";
    pins.push_back({"observers_key trace depth=64 dir=traces",
                    hexString(hashObserverSpec(traced))});

    pins.push_back({"core_json ARM16", coreJson(arm16)});
    pins.push_back({"faults_json armed", faultsJson(armedFaults())});

    // One real run, instrumented so the interval series is pinned too.
    ArmFrontEnd fe(mibench::findBench("crc32").build().program);
    SimRequest req;
    req.fe = &fe;
    req.core = &arm16;
    req.spec = interval;
    const SimResult result = runSimulation(req);
    pins.push_back(
        {"store_entry crc32 ARM16 interval=50000",
         encodeResultEntry({hashFrontEnd(fe),
                            hashConfigKey(arm16, ChipConfig{}), 0,
                            hashObserverSpec(interval)},
                           result)});
    return pins;
}

/** Render @p pins in the fixture's "== name" section format. */
std::string
renderPins(const std::vector<Pin> &pins)
{
    std::string out;
    for (const Pin &p : pins) {
        out += "== " + p.name + "\n" + p.text;
        if (p.text.empty() || p.text.back() != '\n')
            out += "\n";
    }
    return out;
}

/** Parse the fixture back into name -> text (one trailing \n dropped). */
std::map<std::string, std::string>
parsePins(const std::string &text)
{
    std::map<std::string, std::string> out;
    std::istringstream is(text);
    std::string line, name, body;
    bool open = false;
    auto close = [&] {
        if (!open)
            return;
        if (!body.empty() && body.back() == '\n')
            body.pop_back();
        out[name] = body;
    };
    while (std::getline(is, line)) {
        if (line.rfind("== ", 0) == 0) {
            close();
            name = line.substr(3);
            body.clear();
            open = true;
        } else {
            body += line + "\n";
        }
    }
    close();
    return out;
}

TEST(EncodingPins, KeysWireTextAndStoreEntriesAreByteStable)
{
    const std::string path =
        std::string(PFITS_TESTS_DIR) + "/fixtures/encoding_pins.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing fixture " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::map<std::string, std::string> want = parsePins(ss.str());

    const std::vector<Pin> pins = currentPins();
    const std::string actual = renderPins(pins);
    if (actual != ss.str()) {
        const std::string dump =
            testing::TempDir() + "encoding_pins.actual.txt";
        std::ofstream(dump) << actual;
        ADD_FAILURE() << "encodings drifted from " << path
                      << "; actual text written to " << dump;
    }
    EXPECT_EQ(want.size(), pins.size());
    for (const Pin &p : pins) {
        auto it = want.find(p.name);
        ASSERT_NE(it, want.end()) << "no fixture section '" << p.name
                                  << "'";
        std::string got = p.text;
        if (!got.empty() && got.back() == '\n')
            got.pop_back();
        EXPECT_EQ(it->second, got) << p.name;
    }
}

} // namespace
} // namespace pfits
