/**
 * @file
 * A pfitsd child process on a private store, for the store_warm
 * workload.
 */

#ifndef PFITS_PERF_DAEMON_HH
#define PFITS_PERF_DAEMON_HH

#include <string>

#include <sys/types.h>

namespace perf
{

/**
 * Spawns pfitsd (--jobs 2) listening on @p dir/pfitsd.sock with its
 * store in @p dir/store and its output in @p dir/pfitsd.log. The
 * destructor stops it and waits for it to exit; the child also gets
 * SIGTERM if this process dies first.
 */
class Daemon
{
  public:
    explicit Daemon(std::string dir);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Block until a hello round trip succeeds; false + *err if not. */
    bool waitReady(int timeout_ms, std::string *err);

    /** SIGTERM, then wait (SIGKILL after 10 s). Idempotent. */
    void stop();

    const std::string &socketPath() const { return socket_; }
    const std::string &storeDir() const { return store_; }

    /** User+system seconds the daemon has used so far. */
    double cpuSeconds() const;

    /** The largest peak resident set of any daemon stop() ended, MB. */
    static double largestPeakRssMb();

  private:
    std::string dir_;
    std::string socket_;
    std::string store_;
    pid_t pid_ = -1;
};

/**
 * Peak resident set (VmHWM) of process @p pid, or of this process for
 * "self", in MB; 0 when unreadable. Unlike ru_maxrss it starts afresh
 * at exec, so it never reports a process the caller replaced.
 */
double peakRssMb(const std::string &pid);

/** Total bytes of the regular files under @p dir (0 when absent). */
unsigned long long treeBytes(const std::string &dir);

} // namespace perf

#endif // PFITS_PERF_DAEMON_HH
