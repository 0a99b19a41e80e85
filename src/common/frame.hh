/**
 * @file
 * Length-prefixed frames over a stream socket, under a deadline: the
 * transport of the pfitsd wire protocol (svc/proto.hh), shared by the
 * daemon, its client library and `pfits_report stats`.
 *
 * A frame is a 4-byte big-endian length followed by that many payload
 * bytes. Every read or write polls for readiness against an absolute
 * deadline, so a stalled peer costs a bounded wait, never a wedged
 * thread or process.
 */

#ifndef POWERFITS_COMMON_FRAME_HH
#define POWERFITS_COMMON_FRAME_HH

#include <cstdint>
#include <string>

namespace pfits
{

/** Frames larger than this are rejected as malformed (64 MiB). */
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/**
 * Write one length-prefixed frame to @p fd, finishing before
 * @p deadline_ms milliseconds elapse (0 = no deadline).
 * @return false (with @p err set) on error, timeout or closed peer.
 */
bool sendFrame(int fd, const std::string &payload, int deadline_ms,
               std::string *err);

/**
 * Read one length-prefixed frame from @p fd into @p payload under the
 * same deadline contract. A clean EOF before any byte sets @p err to
 * "eof".
 */
bool recvFrame(int fd, std::string *payload, int deadline_ms,
               std::string *err);

} // namespace pfits

#endif // POWERFITS_COMMON_FRAME_HH
