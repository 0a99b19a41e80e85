/** @file The pfitsd service stack: wire framing and entry integrity,
 *  the crash-safe result store (recovery, quarantine, eviction), the
 *  embedded server end to end, and the client's degradation ladder —
 *  deadline timeouts answering "watchdog-expired", retry-then-fallback
 *  against a hung daemon, and clean local fallback when no daemon
 *  exists. Results through the daemon must be identical to local ones;
 *  a broken daemon must never break a run. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fileio.hh"
#include "exp/experiment.hh"
#include "exp/simcache.hh"
#include "exp/simservice.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "svc/client.hh"
#include "svc/proto.hh"
#include "svc/server.hh"
#include "svc/store.hh"
#include "verify/differential.hh"

namespace pfits
{
namespace
{

/** A fresh subdirectory under gtest's temp dir. */
std::string
freshDir(const std::string &name)
{
    static int seq = 0;
    std::string dir = testing::TempDir() + "pfits_svc_" + name + "_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(seq++);
    ::mkdir(dir.c_str(), 0777);
    return dir;
}

/** A made-up but fully populated result, for store/proto tests. */
SimResult
sampleResult()
{
    SimResult r;
    r.run.benchmark = "crc32";
    r.run.config = "ARM16";
    r.run.instructions = 123456;
    r.run.annulled = 789;
    r.run.cycles = 98765;
    r.run.clockHz = 2e8;
    r.run.icache = {100, 0, 7, 0, 0, 2, 1, 1};
    r.run.dcache = {50, 25, 3, 2, 4, 0, 0, 0};
    r.run.fetchToggleBits = 4242;
    r.run.fetchBitsTotal = 999999;
    r.run.icacheRefillWords = 56;
    r.run.dmemAccesses = 75;
    r.run.takenBranches = 1200;
    r.run.io.console = "hello\n";
    r.run.io.emitted = {0xdeadbeefu, 7u};
    for (int i = 0; i < 16; ++i)
        r.run.finalState.regs[i] = 0x1000u + i;
    r.run.finalState.flags.z = true;
    r.run.finalState.flags.c = true;
    r.run.finalState.halted = true;
    r.run.outcome = RunOutcome::Completed;
    r.run.trapReason = "";
    r.faultRetries = 2;
    r.intervals.push_back({0, 1000, 900, 800, 5, 321, 32000});
    r.intervals.push_back({1000, 1000, 950, 810, 2, 345, 32000});
    r.tracePath = "";
    return r;
}

SimKey
sampleKey()
{
    return {0x1111222233334444ull, 0x5555666677778888ull,
            0x9999aaaabbbbccccull, 0xddddeeeeffff0001ull};
}

/** Every row of the two results equal (their field lists). */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    std::vector<std::string> diffs;
    diffFields("result", a, b, diffs);
    EXPECT_TRUE(diffs.empty()) << diffs.front();
}

/** Connect to @p path; gtest-asserts on failure. */
int
connectTo(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd,
                        reinterpret_cast<struct sockaddr *>(&addr),
                        sizeof(addr)),
              0)
        << path;
    return fd;
}

/** One raw request/response round trip against a live server. */
std::string
rawRequest(const std::string &socket_path, const std::string &payload,
           int timeout_ms = 10'000)
{
    int fd = connectTo(socket_path);
    std::string response, err;
    EXPECT_TRUE(sendFrame(fd, payload, timeout_ms, &err)) << err;
    EXPECT_TRUE(recvFrame(fd, &response, timeout_ms, &err)) << err;
    ::close(fd);
    return response;
}

// --- proto: hex, keys, entries -------------------------------------------

TEST(SvcProto, HexRoundTripAndRejection)
{
    for (uint64_t v : {0ull, 1ull, 0xdeadbeefull,
                       0xffffffffffffffffull, 0x0123456789abcdefull}) {
        uint64_t back = 1;
        ASSERT_TRUE(parseHexU64(hexString(v), &back));
        EXPECT_EQ(back, v);
    }
    uint64_t out;
    EXPECT_FALSE(parseHexU64("", &out));
    EXPECT_FALSE(parseHexU64("12345", &out));
    EXPECT_FALSE(parseHexU64("0x", &out));
    EXPECT_FALSE(parseHexU64("0xg", &out));
    EXPECT_FALSE(parseHexU64("0x00000000000000001", &out));
}

TEST(SvcProto, KeyJsonRoundTrip)
{
    SimKey key = sampleKey();
    std::ostringstream os;
    JsonWriter w(os, 0);
    writeJsonFields(w, key);
    SimKey back{};
    ASSERT_TRUE(readJsonFields(JsonValue::parse(os.str()), back));
    EXPECT_TRUE(back == key);
    EXPECT_EQ(keyFileName(key),
              "1111222233334444-5555666677778888-"
              "9999aaaabbbbcccc-ddddeeeeffff0001.json");
}

TEST(SvcProto, CoreConfigJsonRoundTripPreservesHash)
{
    CoreConfig core;
    core.name = "FITS8";
    core.issueWidth = 1;
    core.icache.sizeBytes = 8 * 1024;
    core.icache.parity = true;
    core.dcache.policy = ReplPolicy::ROUND_ROBIN;
    core.packedFetch = true;
    core.maxInstructions = 123'456'789;

    std::ostringstream os;
    JsonWriter w(os, 0);
    writeCoreConfigJson(w, core);
    CoreConfig back;
    ASSERT_TRUE(readJsonFields(JsonValue::parse(os.str()), back));
    EXPECT_EQ(back.name, core.name);
    EXPECT_EQ(back.dcache.policy, ReplPolicy::ROUND_ROBIN);
    // The content hash is the contract the daemon checks against.
    EXPECT_EQ(hashCoreConfig(back), hashCoreConfig(core));
}

TEST(SvcProto, FaultParamsJsonRoundTripPreservesHash)
{
    FaultParams fp;
    fp.seed = 0xfeedfacecafebeefull;
    fp.icacheMeanInterval = 50'000;
    fp.memoryMeanInterval = 70'000;

    std::ostringstream os;
    JsonWriter w(os, 0);
    writeJsonFields(w, fp);
    FaultParams back;
    ASSERT_TRUE(
        readJsonFields(JsonValue::parse(os.str()), back));
    EXPECT_EQ(back.seed, fp.seed);
    EXPECT_EQ(hashFaultParams(back, 3), hashFaultParams(fp, 3));
}

TEST(SvcProto, EntryRoundTripIsLossless)
{
    SimKey key = sampleKey();
    SimResult result = sampleResult();
    std::string entry = encodeResultEntry(key, result);

    SimKey back_key{};
    SimResult back;
    std::string err;
    ASSERT_TRUE(decodeResultEntry(entry, &back_key, &back, &err))
        << err;
    EXPECT_TRUE(back_key == key);
    expectSameResult(result, back);
}

TEST(SvcProto, EntryCorruptionIsAlwaysDetected)
{
    std::string entry = encodeResultEntry(sampleKey(), sampleResult());
    SimKey k;
    SimResult r;
    std::string err;

    // Pristine text verifies.
    ASSERT_TRUE(decodeResultEntry(entry, &k, &r, &err)) << err;

    // Any single flipped bit in the JSON line must fail the checksum.
    for (size_t pos : {size_t(10), entry.size() / 2,
                       entry.find('\n') - 2}) {
        std::string bad = entry;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x04);
        EXPECT_FALSE(decodeResultEntry(bad, &k, &r, &err))
            << "flip at " << pos << " accepted";
    }

    // Truncation (a torn write on a non-atomic filesystem).
    EXPECT_FALSE(decodeResultEntry(entry.substr(0, entry.size() / 2),
                                   &k, &r, &err));
    EXPECT_FALSE(decodeResultEntry("", &k, &r, &err));

    // A forged trailer over modified content.
    std::string forged = entry;
    forged.replace(forged.find("123456"), 6, "654321");
    EXPECT_FALSE(decodeResultEntry(forged, &k, &r, &err));
}

// --- framing over a socketpair -------------------------------------------

TEST(SvcProto, FrameRoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::string big(100'000, 'x');
    big += "end";
    std::string err;
    std::thread sender([&] {
        ASSERT_TRUE(sendFrame(fds[0], "first", 5'000, &err)) << err;
        ASSERT_TRUE(sendFrame(fds[0], big, 5'000, &err)) << err;
    });
    std::string got;
    ASSERT_TRUE(recvFrame(fds[1], &got, 5'000, &err)) << err;
    EXPECT_EQ(got, "first");
    ASSERT_TRUE(recvFrame(fds[1], &got, 5'000, &err)) << err;
    EXPECT_EQ(got, big);
    sender.join();

    // Deadline: nothing arriving must time out, not hang.
    EXPECT_FALSE(recvFrame(fds[1], &got, 100, &err));
    EXPECT_EQ(err, "timeout");

    // A closed peer is a clean EOF.
    ::close(fds[0]);
    EXPECT_FALSE(recvFrame(fds[1], &got, 1'000, &err));
    EXPECT_EQ(err, "eof");
    ::close(fds[1]);
}

// --- the result store ----------------------------------------------------

TEST(SvcStore, PutGetRoundTripAndStats)
{
    ResultStore store(freshDir("putget"));
    ASSERT_TRUE(store.open());

    SimKey key = sampleKey();
    std::string entry = encodeResultEntry(key, sampleResult());
    std::string err;
    ASSERT_TRUE(store.put(key, entry, &err)) << err;
    EXPECT_TRUE(store.contains(key));

    std::string got;
    ASSERT_TRUE(store.get(key, &got));
    EXPECT_EQ(got, entry) << "stored text must be served verbatim";

    SimKey other = key;
    other.program ^= 1;
    EXPECT_FALSE(store.get(other, &got));

    StoreStats s = store.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.bytes, entry.size());
}

TEST(SvcStore, PutRejectsCorruptOrMisKeyedEntries)
{
    ResultStore store(freshDir("putbad"));
    ASSERT_TRUE(store.open());

    SimKey key = sampleKey();
    std::string entry = encodeResultEntry(key, sampleResult());

    std::string bad = entry;
    bad[20] ^= 0x10;
    std::string err;
    EXPECT_FALSE(store.put(key, bad, &err));

    SimKey wrong = key;
    wrong.config ^= 0xff;
    EXPECT_FALSE(store.put(wrong, entry, &err));
    EXPECT_EQ(store.stats().entries, 0u);
}

TEST(SvcStore, RecoveryScanQuarantinesTornAndCorruptEntries)
{
    std::string dir = freshDir("recover");
    SimKey good_key = sampleKey();
    std::string good = encodeResultEntry(good_key, sampleResult());
    {
        ResultStore store(dir);
        ASSERT_TRUE(store.open());
        ASSERT_TRUE(store.put(good_key, good));
    }

    // A second valid entry, then corrupt it on disk (bit rot).
    SimKey rot_key = good_key;
    rot_key.faults ^= 0x42;
    SimResult rot_result = sampleResult();
    rot_result.run.cycles += 1;
    std::string rot = encodeResultEntry(rot_key, rot_result);
    rot[rot.size() / 3] ^= 0x01;
    ASSERT_TRUE(writeFileAtomic(dir + "/" + keyFileName(rot_key), rot));

    // A truncated entry (torn write on a weak filesystem).
    SimKey torn_key = good_key;
    torn_key.observers ^= 0x99;
    std::string torn = encodeResultEntry(torn_key, sampleResult());
    ASSERT_TRUE(writeFileAtomic(dir + "/" + keyFileName(torn_key),
                                torn.substr(0, torn.size() / 2)));

    // A stale temp file from an interrupted atomic write.
    std::string stale = dir + "/" + keyFileName(good_key) +
                        ".tmp.999.0";
    ASSERT_TRUE(writeFileAtomic(stale, "garbage"));

    // An entry whose filename does not match its embedded key.
    std::string misnamed = dir + "/" +
                           keyFileName({1, 2, 3, 4});
    ASSERT_TRUE(writeFileAtomic(misnamed, good));

    ResultStore store(dir);
    ASSERT_TRUE(store.open());
    StoreStats s = store.stats();
    EXPECT_EQ(s.entries, 1u) << "only the pristine entry survives";
    EXPECT_EQ(s.quarantined, 3u);

    std::string got;
    EXPECT_TRUE(store.get(good_key, &got));
    EXPECT_EQ(got, good);
    EXPECT_FALSE(store.get(rot_key, &got));
    EXPECT_FALSE(store.get(torn_key, &got));

    // Quarantined entries were moved aside, not destroyed.
    std::ifstream qf(store.quarantineDir() + "/" +
                     keyFileName(rot_key));
    EXPECT_TRUE(qf.good());
    // The stale temp was deleted outright.
    struct stat st;
    EXPECT_NE(::stat(stale.c_str(), &st), 0);
}

TEST(SvcStore, OversizedEntryIsRefusedWithAnError)
{
    // A checksum-valid entry whose JSON line is over the parser's own
    // size cap (kJsonMaxBytes) is refused with an error — by the
    // decoder, and by a store recovering it from disk — instead of
    // being built into a DOM many times its size.
    const SimKey key = sampleKey();
    SimResult big = sampleResult();
    big.run.io.console.assign(kJsonMaxBytes, 'x');
    const std::string entry = encodeResultEntry(key, big);
    SimKey k;
    SimResult r;
    std::string err;
    EXPECT_FALSE(decodeResultEntry(entry, &k, &r, &err));
    EXPECT_NE(err.find("limit"), std::string::npos) << err;

    const std::string dir = freshDir("oversized");
    ASSERT_TRUE(writeFileAtomic(dir + "/" + keyFileName(key), entry));
    ResultStore store(dir);
    ASSERT_TRUE(store.open());
    EXPECT_EQ(store.stats().entries, 0u);
    EXPECT_EQ(store.stats().quarantined, 1u);
}

TEST(SvcStore, CorruptionUnderneathALiveStoreIsQuarantinedOnGet)
{
    std::string dir = freshDir("liverot");
    ResultStore store(dir);
    ASSERT_TRUE(store.open());

    SimKey key = sampleKey();
    std::string entry = encodeResultEntry(key, sampleResult());
    ASSERT_TRUE(store.put(key, entry));

    // Rot the file behind the store's back.
    std::string rotten = entry;
    rotten[30] ^= 0x08;
    std::ofstream(dir + "/" + keyFileName(key)) << rotten;

    std::string got;
    EXPECT_FALSE(store.get(key, &got)) << "rot must not be served";
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_FALSE(store.contains(key));
}

TEST(SvcStore, ByteBudgetEvictsLeastRecentlyUsed)
{
    SimKey k1 = sampleKey();
    SimKey k2 = k1, k3 = k1;
    k2.program ^= 2;
    k3.program ^= 3;
    std::string e1 = encodeResultEntry(k1, sampleResult());
    std::string e2 = encodeResultEntry(k2, sampleResult());
    std::string e3 = encodeResultEntry(k3, sampleResult());

    // Budget fits two entries but not three.
    ResultStore store(freshDir("evict"), 2 * e1.size() + e1.size() / 2);
    ASSERT_TRUE(store.open());
    ASSERT_TRUE(store.put(k1, e1));
    ASSERT_TRUE(store.put(k2, e2));
    EXPECT_EQ(store.stats().entries, 2u);

    // Touch k1 so k2 is cold, then overflow with k3.
    std::string got;
    ASSERT_TRUE(store.get(k1, &got));
    ASSERT_TRUE(store.put(k3, e3));

    StoreStats s = store.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_TRUE(store.contains(k1));
    EXPECT_FALSE(store.contains(k2)) << "LRU victim must be k2";
    EXPECT_TRUE(store.contains(k3));
}

/** @p text with its first @p from replaced by @p to (which must exist). */
std::string
replaceFirst(std::string text, const std::string &from,
             const std::string &to)
{
    size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

TEST(SvcProto, DecodeRejectsNumbersOutsideTheFieldRange)
{
    std::ostringstream core_os;
    JsonWriter core_w(core_os, 0);
    writeCoreConfigJson(core_w, CoreConfig{});
    const std::string core_text = core_os.str();
    CoreConfig core;
    ASSERT_TRUE(readJsonFields(JsonValue::parse(core_text), core));
    EXPECT_FALSE(readJsonFields(
        JsonValue::parse(replaceFirst(core_text, "\"assoc\":32",
                                      "\"assoc\":-1")),
        core));
    EXPECT_FALSE(readJsonFields(
        JsonValue::parse(replaceFirst(core_text, "\"size_bytes\":16384",
                                      "\"size_bytes\":1e300")),
        core));

    std::ostringstream result_os;
    JsonWriter result_w(result_os, 0);
    writeJsonFields(result_w, sampleResult());
    const std::string result_text = result_os.str();
    SimResult result;
    ASSERT_TRUE(
        readJsonFields(JsonValue::parse(result_text), result));
    EXPECT_FALSE(readJsonFields(
        JsonValue::parse(replaceFirst(result_text, "\"reads\":100",
                                      "\"reads\":100.5")),
        result));
}

// --- server + client end to end ------------------------------------------

/** Spin up an embedded server in a fresh dir. */
struct TestServer
{
    explicit TestServer(SvcServerConfig cfg = {})
    {
        std::string dir = freshDir("srv");
        cfg.socketPath = dir + "/d.sock";
        cfg.storeDir = dir + "/store";
        config = cfg;
        server = std::make_unique<SvcServer>(cfg);
        std::string err;
        EXPECT_TRUE(server->start(&err)) << err;
    }

    SvcServerConfig config;
    std::unique_ptr<SvcServer> server;
};

SvcClientConfig
clientConfigFor(const TestServer &ts)
{
    SvcClientConfig cfg;
    cfg.socketPath = ts.config.socketPath;
    cfg.requestTimeoutMs = 60'000;
    cfg.maxRetries = 1;
    cfg.backoffBaseMs = 5;
    cfg.backoffMaxMs = 20;
    return cfg;
}

/** Build the Runner-shaped request for a suite benchmark. */
struct SuiteRequest
{
    explicit SuiteRequest(const std::string &bench)
        : prep(prepareBenchmark(bench, ExperimentParams{}))
    {
        req.fe = prep.armFe.get();
        req.core = &core;
        req.bench = bench;
        req.isFits = false;
    }

    PreparedBench prep;
    CoreConfig core;
    SimRequest req;
};

TEST(SvcService, DaemonComputesSuiteBenchmarkIdenticallyToLocal)
{
    TestServer ts;
    SuiteRequest sr("crc32");

    // The reference: a purely local simulation of the same request.
    SimCache::instance().clear();
    SimResult local = localSimService().simulate(sr.req);

    MetricRegistry reg;
    MetricRegistry *prev = MetricRegistry::install(&reg);
    SvcClient client(clientConfigFor(ts));
    EXPECT_TRUE(client.ping());

    // Cold local cache: the client must take the socket path, have
    // the daemon simulate, and return a byte-equal result.
    SimCache::instance().clear();
    SimResult remote = client.simulate(sr.req);
    expectSameResult(local, remote);
    EXPECT_EQ(reg.counter("svc.requests").value(), 1u);
    EXPECT_EQ(reg.counter("svc.store.hits").value(), 1u);
    EXPECT_EQ(reg.counter("svc.fallbacks").value(), 0u);

    // The hit was seeded into the local SimCache: a repeat is free
    // (no new request), and the manifest provenance sees the key.
    SimResult repeat = client.simulate(sr.req);
    expectSameResult(local, repeat);
    EXPECT_EQ(reg.counter("svc.requests").value(), 1u);

    // Warm store, cold caches: served from disk without simulating.
    SimCache::instance().clear();
    uint64_t store_hits_before = ts.server->store().stats().hits;
    SimResult warmed = client.simulate(sr.req);
    expectSameResult(local, warmed);
    EXPECT_GT(ts.server->store().stats().hits, store_hits_before);
    EXPECT_EQ(reg.counter("svc.store.hits").value(), 2u);

    client.recordServerStats();
    EXPECT_EQ(reg.gauge("svc.store.quarantined").value(), 0);

    MetricRegistry::install(prev);
    SimCache::instance().clear();
}

TEST(SvcService, WarmStoreSurvivesDaemonRestart)
{
    std::string dir = freshDir("restart");
    SvcServerConfig cfg;
    cfg.socketPath = dir + "/d.sock";
    cfg.storeDir = dir + "/store";

    SuiteRequest sr("sha");
    {
        SvcServer first(cfg);
        std::string err;
        ASSERT_TRUE(first.start(&err)) << err;
        SvcClientConfig ccfg;
        ccfg.socketPath = cfg.socketPath;
        SvcClient client(ccfg);
        SimCache::instance().clear();
        client.simulate(sr.req);
        first.stop();
    }

    // A new daemon over the same store dir recovers the entry and
    // serves it without a single fresh simulation.
    SvcServer second(cfg);
    std::string err;
    ASSERT_TRUE(second.start(&err)) << err;
    EXPECT_EQ(second.store().stats().entries, 1u);

    SimCache::instance().clear();
    SvcClientConfig ccfg;
    ccfg.socketPath = cfg.socketPath;
    SvcClient client(ccfg);
    SimResult served = client.simulate(sr.req);
    EXPECT_EQ(SimCache::instance().misses(), 0u)
        << "a warm store must avoid local simulation entirely";
    EXPECT_EQ(served.run.outcome, RunOutcome::Completed);
    EXPECT_EQ(second.store().stats().hits, 1u);
    second.stop();
    SimCache::instance().clear();
}

TEST(SvcService, OneClientSurvivesDaemonRestart)
{
    // The daemon restarts under a live client: the client's idle
    // connection now leads nowhere, and the next request must notice
    // the closed peer and reconnect, without a retry or a fallback.
    std::string dir = freshDir("live_restart");
    SvcServerConfig cfg;
    cfg.socketPath = dir + "/d.sock";
    cfg.storeDir = dir + "/store";
    SuiteRequest sr("crc32");

    MetricRegistry reg;
    // Uninstalled before reg dies, on the ASSERT exits too.
    struct Restore
    {
        MetricRegistry *prev;
        ~Restore() { MetricRegistry::install(prev); }
    } restore{MetricRegistry::install(&reg)};
    SvcClientConfig ccfg;
    ccfg.socketPath = cfg.socketPath;
    SvcClient client(ccfg);
    std::string err;
    {
        SvcServer first(cfg);
        ASSERT_TRUE(first.start(&err)) << err;
        SimCache::instance().clear();
        client.simulate(sr.req); // populates the store
        first.stop();
    }
    SvcServer second(cfg);
    ASSERT_TRUE(second.start(&err)) << err;

    SimCache::instance().clear();
    SimResult served = client.simulate(sr.req);
    EXPECT_EQ(served.run.outcome, RunOutcome::Completed);
    EXPECT_EQ(second.store().stats().hits, 1u);
    EXPECT_EQ(SimCache::instance().misses(), 0u);
    EXPECT_EQ(reg.counter("svc.store.hits").value(), 2u);
    EXPECT_EQ(reg.counter("svc.retries").value(), 0u);
    EXPECT_EQ(reg.counter("svc.fallbacks").value(), 0u);
    EXPECT_EQ(reg.counter("svc.connects").value(), 2u);

    second.stop();
    SimCache::instance().clear();
}

TEST(SvcService, ConcurrentRequestsShareBoundedConnections)
{
    // Connections outlive requests: four threads making fifty round
    // trips each need no more connections than they have requests in
    // flight at once.
    TestServer ts;
    MetricRegistry reg;
    MetricRegistry *prev = MetricRegistry::install(&reg);
    SvcClient client(clientConfigFor(ts));
    constexpr int kThreads = 4, kRequests = 50;
    std::atomic<int> answered{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kRequests; ++i)
                answered += client.ping();
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(answered.load(), kThreads * kRequests);
    EXPECT_GE(reg.counter("svc.connects").value(), 1u);
    EXPECT_LE(reg.counter("svc.connects").value(),
              static_cast<uint64_t>(kThreads));
    EXPECT_LE(ts.server->connectionThreads(),
              static_cast<size_t>(kThreads));
    MetricRegistry::install(prev);
}

TEST(SvcService, DeadlineExpiryAnswersWatchdogExpiredAndClientFallsBack)
{
    SvcServerConfig cfg;
    cfg.testComputeDelayMs = 2'000; // every compute stalls 2 s
    TestServer ts(cfg);
    SuiteRequest sr("crc32");

    // Raw protocol check: a sim request with a short deadline gets a
    // structured timeout carrying the WatchdogExpired vocabulary.
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject();
        w.field("schema", kSvcSchema);
        w.field("op", "sim");
        w.field("bench", "crc32");
        w.field("isa", "arm");
        w.key("core");
        writeCoreConfigJson(w, sr.core);
        w.key("observers");
        w.beginObject();
        w.field("interval_instructions", static_cast<uint64_t>(0));
        w.endObject();
        w.key("key");
        writeJsonFields(w, sr.req.key());
        w.field("deadline_ms", static_cast<int64_t>(200));
        w.endObject();

        JsonValue resp =
            JsonValue::parse(rawRequest(ts.config.socketPath, os.str()));
        ASSERT_TRUE(resp.get("ok").asBool());
        EXPECT_EQ(resp.get("status").asString(), "timeout");
        EXPECT_EQ(resp.get("outcome").asString(),
                  runOutcomeName(RunOutcome::WatchdogExpired));
        EXPECT_EQ(resp.get("outcome").asString(), "watchdog-expired");
    }

    // Client check: the same expiry degrades to local simulation —
    // the run still completes, and the hop is counted.
    MetricRegistry reg;
    MetricRegistry *prev = MetricRegistry::install(&reg);
    SvcClientConfig ccfg = clientConfigFor(ts);
    ccfg.requestTimeoutMs = 300;
    SvcClient client(ccfg);

    SimCache::instance().clear();
    SimResult result = client.simulate(sr.req);
    EXPECT_EQ(result.run.outcome, RunOutcome::Completed);
    EXPECT_EQ(reg.counter("svc.timeouts").value(), 1u);
    EXPECT_EQ(reg.counter("svc.fallbacks").value(), 1u);

    MetricRegistry::install(prev);
    ts.server->stop();
    SimCache::instance().clear();
}

TEST(SvcService, HungServerRetriesWithBackoffThenFallsBack)
{
    // A listener that accepts nothing: connects land in the backlog,
    // the request is written into the socket buffer, and no response
    // ever comes — the worst kind of peer.
    std::string dir = freshDir("hung");
    std::string sock = dir + "/hung.sock";
    int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<struct sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 8), 0);

    MetricRegistry reg;
    MetricRegistry *prev = MetricRegistry::install(&reg);
    SvcClientConfig ccfg;
    ccfg.socketPath = sock;
    ccfg.requestTimeoutMs = 100;
    ccfg.maxRetries = 2;
    ccfg.backoffBaseMs = 5;
    ccfg.backoffMaxMs = 20;
    SvcClient client(ccfg);

    SuiteRequest sr("crc32");
    SimCache::instance().clear();
    const auto start = std::chrono::steady_clock::now();
    SimResult result = client.simulate(sr.req);
    const auto transport_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(result.run.outcome, RunOutcome::Completed)
        << "a hung daemon must never fail the run";
    // requestTimeoutMs bounds the WHOLE retry loop: the hung receive
    // eats the 100 ms budget (plus the fixed 500 ms deadline grace)
    // once, leaving nothing for the retry ladder — not once per
    // configured attempt with full backoffs in between. The bound
    // includes the local crc32 fallback simulation; generous slack for
    // a loaded host.
    EXPECT_LT(transport_ms, 1'500)
        << "retry loop must respect the total transport budget";
    EXPECT_LE(reg.counter("svc.retries").value(), 2u);
    EXPECT_EQ(reg.counter("svc.fallbacks").value(), 1u);
    EXPECT_EQ(reg.counter("svc.store.hits").value(), 0u);

    MetricRegistry::install(prev);
    ::close(lfd);
    SimCache::instance().clear();
}

TEST(SvcService, BackoffSleepsAreClampedToTheRemainingBudget)
{
    // Connects to a never-created socket fail instantly, so the whole
    // budget is available for backoff sleeps — which must still be
    // clipped to it. With a 10 s backoff base and five retries the
    // un-clamped ladder would sleep the better part of a minute.
    MetricRegistry reg;
    MetricRegistry *prev = MetricRegistry::install(&reg);
    SvcClientConfig ccfg;
    ccfg.socketPath = freshDir("clamp") + "/never-created.sock";
    ccfg.requestTimeoutMs = 200;
    ccfg.maxRetries = 5;
    ccfg.backoffBaseMs = 10'000;
    ccfg.backoffMaxMs = 60'000;
    SvcClient client(ccfg);

    SuiteRequest sr("crc32");
    SimCache::instance().clear();
    const auto start = std::chrono::steady_clock::now();
    SimResult result = client.simulate(sr.req);
    const auto transport_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(result.run.outcome, RunOutcome::Completed);
    EXPECT_LT(transport_ms, 2'000)
        << "backoff sleeps must not cross the caller's deadline";
    // The first backoff is clamped to the remaining budget, so at
    // least one retry fires before the budget runs out.
    EXPECT_GE(reg.counter("svc.retries").value(), 1u);
    EXPECT_EQ(reg.counter("svc.fallbacks").value(), 1u);

    MetricRegistry::install(prev);
    SimCache::instance().clear();
}

TEST(SvcService, FailedAttemptsDoNotLeakDescriptors)
{
    // A failed attempt keeps no connection; repeated failures must
    // return each fd on every exit path.
    SvcClientConfig ccfg;
    ccfg.socketPath = freshDir("fds") + "/never-created.sock";
    ccfg.requestTimeoutMs = 50;
    ccfg.maxRetries = 0;
    SvcClient client(ccfg);
    ASSERT_FALSE(client.ping()); // warm up lazy fds (logging, etc.)

    const auto countFds = [] {
        size_t n = 0;
        DIR *d = ::opendir("/proc/self/fd");
        if (d == nullptr)
            return n;
        while (::readdir(d) != nullptr)
            ++n;
        ::closedir(d);
        return n;
    };
    const size_t before = countFds();
    for (int i = 0; i < 32; ++i)
        EXPECT_FALSE(client.ping());
    EXPECT_EQ(countFds(), before);
}

TEST(SvcService, SequentialRequestsDoNotAccumulateConnectionThreads)
{
    // One raw connection per request, so every request spawns a
    // server-side connection thread; finished ones must be joined as
    // the server goes, not only at stop(). (SvcClient reuses its
    // connections, so it would not exercise the reaping.)
    const auto countThreads = [] {
        size_t n = 0;
        DIR *d = ::opendir("/proc/self/task");
        if (d == nullptr)
            return n;
        while (const struct dirent *e = ::readdir(d))
            if (e->d_name[0] != '.')
                ++n;
        ::closedir(d);
        return n;
    };
    const size_t baseline = countThreads();
    TestServer ts;
    const std::string hello =
        std::string("{\"schema\":\"") + kSvcSchema +
        "\",\"op\":\"hello\"}";
    // Workers + the accept thread + a few connection threads that have
    // answered but not yet been joined (they are reaped on the next
    // accept, so only scheduling lag keeps more than one around).
    const size_t kSlack = 8;
    const size_t bound = baseline + ts.config.computeThreads + 1 + kSlack;
    // An exited but unjoined thread drops out of /proc/self/task while
    // its stack stays mapped, so the server's own tally of unjoined
    // threads is what catches a missing join.
    size_t peak_tasks = 0, peak_unjoined = 0;
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(JsonValue::parse(
                        rawRequest(ts.config.socketPath, hello))
                        .get("ok")
                        .asBool())
            << i;
        peak_tasks = std::max(peak_tasks, countThreads());
        peak_unjoined =
            std::max(peak_unjoined, ts.server->connectionThreads());
    }
    EXPECT_GT(baseline, 0u);
    EXPECT_LE(peak_tasks, bound);
    EXPECT_LE(peak_unjoined, kSlack);
    ts.server->stop();
    EXPECT_EQ(ts.server->connectionThreads(), 0u);
}

TEST(SvcService, AbsentDaemonFallsBackCleanly)
{
    MetricRegistry reg;
    MetricRegistry *prev = MetricRegistry::install(&reg);
    SvcClientConfig ccfg;
    ccfg.socketPath = freshDir("absent") + "/never-created.sock";
    ccfg.maxRetries = 2;
    ccfg.backoffBaseMs = 1;
    ccfg.backoffMaxMs = 5;
    SvcClient client(ccfg);
    EXPECT_FALSE(client.ping());

    SuiteRequest sr("crc32");
    SimCache::instance().clear();
    SimResult result = client.simulate(sr.req);
    EXPECT_EQ(result.run.outcome, RunOutcome::Completed);
    EXPECT_GT(reg.counter("svc.fallbacks").value(), 0u);

    MetricRegistry::install(prev);
    SimCache::instance().clear();
}

TEST(SvcService, EachBenchPreparesOnceAndAFailedPrepareIsRetried)
{
    TestServer ts;
    SuiteRequest crc("crc32");
    SuiteRequest sha("sha");

    // A bench the daemon cannot build answers "unsupported", and so
    // does the next request for it: the failed prepare left nothing
    // behind to wait on or to refuse from.
    for (int i = 0; i < 2; ++i) {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject();
        w.field("schema", kSvcSchema);
        w.field("op", "sim");
        w.field("bench", "no.such.bench");
        w.field("isa", "arm");
        w.key("core");
        writeCoreConfigJson(w, crc.core);
        w.key("key");
        writeJsonFields(w, crc.req.key());
        w.endObject();
        JsonValue resp =
            JsonValue::parse(rawRequest(ts.config.socketPath, os.str()));
        ASSERT_TRUE(resp.get("ok").asBool()) << i;
        EXPECT_EQ(resp.get("status").asString(), "unsupported") << i;
        EXPECT_NE(resp.get("reason").asString().find(
                      "cannot prepare 'no.such.bench'"),
                  std::string::npos)
            << i;
    }

    // Concurrent first requests for two benches, each ISA of each:
    // every bench is prepared exactly once (each prepareBenchmark
    // call samples runner.prepare_ms), and every answer is the local
    // run.
    std::vector<SimRequest> reqs;
    for (SuiteRequest *sr : {&crc, &sha}) {
        reqs.push_back(sr->req);
        SimRequest fits = sr->req;
        fits.fe = sr->prep.fitsFe.get();
        fits.isFits = true;
        reqs.push_back(fits);
    }
    SimCache::instance().clear();
    std::vector<SimResult> local;
    for (const SimRequest &req : reqs)
        local.push_back(runSimulation(req));

    MetricRegistry reg;
    MetricRegistry *prev = MetricRegistry::install(&reg);
    SvcClient client(clientConfigFor(ts));
    std::vector<SimResult> remote(reqs.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < reqs.size(); ++i)
        threads.emplace_back(
            [&, i] { remote[i] = client.simulate(reqs[i]); });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(reg.histogram("runner.prepare_ms", 0.0, 500.0, 16).count(),
              2u);
    EXPECT_EQ(reg.counter("svc.requests").value(), reqs.size());
    EXPECT_EQ(reg.counter("svc.fallbacks").value(), 0u);
    for (size_t i = 0; i < reqs.size(); ++i)
        expectSameResult(local[i], remote[i]);

    MetricRegistry::install(prev);
    SimCache::instance().clear();
}

TEST(SvcService, FaultArmedRequestStaysInProcessAndTalliesEveryAttempt)
{
    // A store entry has no row for the fault tally, so a fault-armed
    // request must never reach the daemon, live or not.
    TestServer ts;
    SuiteRequest sr("crc32");
    sr.core.icache.parity = true;
    sr.req.faults.seed = 0x5eed;
    sr.req.faults.icacheMeanInterval = 1'000;
    sr.req.maxRetries = 3;

    MetricRegistry reg;
    MetricRegistry *prev = MetricRegistry::install(&reg);
    SvcClient client(clientConfigFor(ts));
    ASSERT_TRUE(client.ping());
    SimCache::instance().clear();
    const SimResult sim = client.simulate(sr.req);
    EXPECT_EQ(reg.counter("svc.requests").value(), 0u);
    EXPECT_EQ(reg.counter("svc.fallbacks").value(), 0u);
    EXPECT_EQ(SimCache::instance().misses(), 1u);
    const StoreStats store = ts.server->store().stats();
    EXPECT_EQ(store.hits + store.misses + store.entries, 0u);

    // The tally is the plan's counters summed over every attempt:
    // replay the reload-and-retry loop by hand on one plan.
    FaultPlan plan(sr.req.faults);
    RunResult rr = Machine(*sr.req.fe, sr.core).run(&plan);
    const uint64_t first_attempt = plan.injected(FaultTarget::ICACHE);
    unsigned retries = 0;
    while (rr.outcome == RunOutcome::FaultDetected &&
           retries < sr.req.maxRetries) {
        ++retries;
        rr = Machine(*sr.req.fe, sr.core).run(&plan);
    }
    ASSERT_GE(retries, 1u);
    EXPECT_EQ(sim.faultRetries, retries);
    EXPECT_EQ(sim.run.outcome, rr.outcome);
    for (size_t t = 0; t < sim.faultTally.size(); ++t) {
        const auto target = static_cast<FaultTarget>(t);
        EXPECT_EQ(sim.faultTally[t].injected, plan.injected(target));
        EXPECT_EQ(sim.faultTally[t].detected, plan.detected(target));
        EXPECT_EQ(sim.faultTally[t].escaped, plan.escaped(target));
    }
    EXPECT_GT(sim.faultTally[static_cast<size_t>(FaultTarget::ICACHE)]
                  .injected,
              first_attempt);

    MetricRegistry::install(prev);
    SimCache::instance().clear();
}

TEST(SvcService, GetPutLeaseProtocolForNonSuitePrograms)
{
    TestServer ts;
    SimKey key = sampleKey();
    std::string entry = encodeResultEntry(key, sampleResult());

    auto getReq = [&](bool lease) {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject();
        w.field("schema", kSvcSchema);
        w.field("op", "get");
        w.key("key");
        writeJsonFields(w, key);
        w.field("wait", false);
        w.field("lease", lease);
        w.field("deadline_ms", static_cast<int64_t>(2'000));
        w.endObject();
        return os.str();
    };

    // Miss, with a compute lease granted to us.
    JsonValue r1 =
        JsonValue::parse(rawRequest(ts.config.socketPath, getReq(true)));
    ASSERT_TRUE(r1.get("ok").asBool());
    EXPECT_EQ(r1.get("status").asString(), "miss");
    EXPECT_TRUE(r1.get("lease").asBool());

    // We "computed"; publish the entry.
    std::ostringstream put;
    JsonWriter w(put, 0);
    w.beginObject();
    w.field("schema", kSvcSchema);
    w.field("op", "put");
    w.field("entry", entry);
    w.endObject();
    JsonValue r2 =
        JsonValue::parse(rawRequest(ts.config.socketPath, put.str()));
    ASSERT_TRUE(r2.get("ok").asBool());
    EXPECT_EQ(r2.get("status").asString(), "stored");

    // Everyone now hits, byte-for-byte.
    JsonValue r3 = JsonValue::parse(
        rawRequest(ts.config.socketPath, getReq(false)));
    ASSERT_TRUE(r3.get("ok").asBool());
    EXPECT_EQ(r3.get("status").asString(), "hit");
    EXPECT_EQ(r3.get("entry").asString(), entry);
}

TEST(SvcService, StatsOpReturnsLiveStoreAndMetricSnapshot)
{
    TestServer ts;
    MetricRegistry reg;
    MetricRegistry *prev = MetricRegistry::install(&reg);
    reg.counter("unit.test.counter").add(3);

    // Seed one entry so the store section has something to count.
    SimKey key = sampleKey();
    std::string entry = encodeResultEntry(key, sampleResult());
    std::ostringstream put;
    JsonWriter w(put, 0);
    w.beginObject();
    w.field("schema", kSvcSchema);
    w.field("op", "put");
    w.field("entry", entry);
    w.endObject();
    ASSERT_TRUE(
        JsonValue::parse(rawRequest(ts.config.socketPath, put.str()))
            .get("ok")
            .asBool());

    JsonValue resp = JsonValue::parse(rawRequest(
        ts.config.socketPath,
        "{\"schema\":\"pfits-svc-v1\",\"op\":\"stats\"}"));
    ASSERT_TRUE(resp.get("ok").asBool());
    EXPECT_EQ(resp.get("schema").asString(), kSvcSchema);
    EXPECT_TRUE(resp.get("uptime_ms").isNumber());
    EXPECT_GE(resp.get("uptime_ms").asNumber(), 0.0);
    EXPECT_TRUE(resp.get("inflight").isNumber());

    const JsonValue &store = resp.get("store");
    ASSERT_TRUE(store.isObject());
    EXPECT_DOUBLE_EQ(store.get("entries").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(store.get("bytes").asNumber(),
                     static_cast<double>(entry.size()));
    for (const char *field :
         {"hits", "misses", "evictions", "quarantined"})
        EXPECT_TRUE(store.get(field).isNumber()) << field;

    // The connection thread serves stats from the process-wide
    // registry — the same one this test installed.
    const JsonValue &metrics = resp.get("metrics");
    ASSERT_TRUE(metrics.isObject());
    EXPECT_DOUBLE_EQ(metrics.get("unit.test.counter").asNumber(), 3.0);

    MetricRegistry::install(prev);
}

TEST(SvcService, MalformedRequestsGetStructuredErrorsNotCrashes)
{
    TestServer ts;
    std::vector<std::string> requests = {
        "not json at all", "{}", "{\"op\":\"frobnicate\"}",
        "{\"op\":\"sim\"}", "{\"op\":\"put\",\"entry\":\"garbage\"}",
        "{\"op\":\"get\",\"key\":{\"program\":17}}"};

    // Well-formed get/sim requests except for one integer field that
    // is negative, fractional or far out of range.
    const std::string key = "{\"program\":\"0x1\",\"config\":\"0x2\","
                            "\"faults\":\"0x0\",\"observers\":\"0x0\"}";
    std::ostringstream core;
    JsonWriter core_w(core, 0);
    writeCoreConfigJson(core_w, CoreConfig{});
    const std::string get = "{\"op\":\"get\",\"key\":" + key;
    const std::string sim_head = "{\"op\":\"sim\",\"bench\":\"crc32\","
                                 "\"isa\":\"arm\",\"key\":" +
                                 key + ",\"core\":";
    const std::string sim = sim_head + core.str();
    for (const std::string number : {"-1", "0.5", "1e300"}) {
        requests.push_back(get + ",\"deadline_ms\":" + number + "}");
        requests.push_back(sim + ",\"deadline_ms\":" + number + "}");
        requests.push_back(sim + ",\"observers\":{"
                                 "\"interval_instructions\":" +
                           number + "}}");
    }
    // Clocks the memo-key hash cannot take in whole thousandths.
    for (const std::string clock : {"-1", "1e300"})
        requests.push_back(sim_head +
                           replaceFirst(core.str(),
                                        "\"clock_hz\":200000000",
                                        "\"clock_hz\":" + clock) +
                           "}");
    for (const std::string &bad : requests) {
        JsonValue resp =
            JsonValue::parse(rawRequest(ts.config.socketPath, bad));
        ASSERT_TRUE(resp.isObject()) << bad;
        EXPECT_FALSE(resp.get("ok").asBool()) << bad;
        EXPECT_TRUE(resp.get("error").isString()) << bad;
    }

    // An absent or zero deadline still means the server default.
    for (const std::string &good :
         {get + "}", get + ",\"deadline_ms\":0}"}) {
        JsonValue resp =
            JsonValue::parse(rawRequest(ts.config.socketPath, good));
        EXPECT_TRUE(resp.get("ok").asBool()) << good;
        EXPECT_EQ(resp.get("status").asString(), "miss") << good;
    }
    // The server is still healthy afterwards.
    SvcClientConfig ccfg;
    ccfg.socketPath = ts.config.socketPath;
    SvcClient client(ccfg);
    EXPECT_TRUE(client.ping());
}

TEST(SvcService, DeeplyNestedFrameIsRejectedAndServerStaysUp)
{
    TestServer ts;
    // ~200 KB, far under kMaxFrameBytes: small enough to be accepted
    // as a frame, deep enough to overflow an unbounded recursive parse.
    int fd = connectTo(ts.config.socketPath);
    std::string response, err;
    ASSERT_TRUE(
        sendFrame(fd, std::string(100'000, '['), 10'000, &err))
        << err;
    // Either a structured error or a dropped connection is fine; a
    // crash takes the whole test binary down.
    if (recvFrame(fd, &response, 10'000, &err)) {
        JsonValue resp = JsonValue::parse(response);
        ASSERT_TRUE(resp.isObject());
        EXPECT_FALSE(resp.get("ok").asBool());
    }
    ::close(fd);

    SvcClientConfig ccfg;
    ccfg.socketPath = ts.config.socketPath;
    SvcClient client(ccfg);
    EXPECT_TRUE(client.ping());
}

/** A frame header announcing @p len payload bytes. */
std::string
frameHeader(uint32_t len)
{
    return {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
            static_cast<char>(len >> 8), static_cast<char>(len)};
}

void
sendRaw(int fd, const std::string &bytes)
{
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
}

TEST(SvcService, OversizedTruncatedAndStalledFramesNeitherWedgeNorCrash)
{
    TestServer ts;
    const std::string &path = ts.config.socketPath;

    // A header above the frame limit, one promising 1 KiB and then
    // closing, and half a frame left stalled with the connection open.
    int oversized = connectTo(path);
    sendRaw(oversized, frameHeader(kMaxFrameBytes + 1));
    int truncated = connectTo(path);
    sendRaw(truncated, frameHeader(1024) + std::string(100, 'x'));
    ::close(truncated);
    int stalled = connectTo(path);
    sendRaw(stalled, frameHeader(1024) + std::string(512, '{'));

    // The oversized frame is refused by hanging up, not by reading on.
    std::string response, err;
    EXPECT_FALSE(recvFrame(oversized, &response, 5'000, &err));
    EXPECT_NE(err, "timeout");
    ::close(oversized);

    // Another client is served while the stalled frame is pending.
    SvcClientConfig ccfg;
    ccfg.socketPath = path;
    SvcClient client(ccfg);
    EXPECT_TRUE(client.ping());

    // And shutdown does not wait on the stalled peer.
    const auto t0 = std::chrono::steady_clock::now();
    ts.server->stop();
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(5));
    EXPECT_FALSE(recvFrame(stalled, &response, 5'000, &err));
    EXPECT_NE(err, "timeout");
    ::close(stalled);
}

} // namespace
} // namespace pfits
