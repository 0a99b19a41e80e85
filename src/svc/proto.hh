/**
 * @file
 * The pfitsd wire protocol and store-entry format.
 *
 * Transport framing (common/frame.hh) is a 4-byte big-endian length
 * prefix followed by one compact JSON document ("pfits-svc-v1"),
 * exchanged over an AF_UNIX stream socket. Every frame read or write
 * takes an absolute deadline so a hung peer costs a bounded wait,
 * never a wedged thread.
 *
 * A *store entry* ("pfits-store-v1") is the unit of persistence and of
 * end-to-end integrity: one compact JSON line carrying the
 * content-addressed key and the full SimResult, terminated by a
 * "checksum 0x<fnv64>" trailer over the line — the same FNV-1a
 * checksum (fits/serialize.hh) that guards decoder configurations.
 * Whoever simulates encodes the entry once; the daemon stores and
 * serves the text verbatim, and every consumer re-verifies the trailer
 * before trusting a byte, so disk corruption and wire truncation are
 * indistinguishable from — and handled exactly like — a miss.
 */

#ifndef POWERFITS_SVC_PROTO_HH
#define POWERFITS_SVC_PROTO_HH

#include <cstdint>
#include <string>

#include "common/frame.hh"
#include "exp/simcache.hh"
#include "obs/json_fields.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"

namespace pfits
{

/** Wire-protocol schema tag carried in every request. */
inline constexpr const char *kSvcSchema = "pfits-svc-v1";

/** Store-entry schema tag carried in every persisted entry. */
inline constexpr const char *kStoreSchema = "pfits-store-v1";

// --- keys, configs and results ------------------------------------------
//
// Keys and results travel as their field lists
// (obs/json_fields.hh): writeJsonFields/readJsonFields.

/** The store-relative filename an entry for @p key lives under. */
std::string keyFileName(const SimKey &key);

// --- store entries -------------------------------------------------------

/**
 * Encode a complete store entry: one compact JSON line
 * {"schema","key","result"} followed by "\nchecksum 0x<fnv64>\n" over
 * that line. This text is the canonical persisted and wire form.
 */
std::string encodeResultEntry(const SimKey &key,
                              const SimResult &result);

/**
 * Decode and fully verify a store entry: checksum trailer, schema tag,
 * JSON shape. @return false with a diagnostic in @p err on any defect;
 * on success fills @p key and @p result (which may be null).
 */
bool decodeResultEntry(const std::string &text, SimKey *key,
                       SimResult *result, std::string *err);

/**
 * Verify the checksum trailer and extract the embedded key without
 * parsing the result body — the store's cheap integrity scan.
 */
bool verifyResultEntry(const std::string &text, SimKey *key,
                       std::string *err);

} // namespace pfits

#endif // POWERFITS_SVC_PROTO_HH
