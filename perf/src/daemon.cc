#include "daemon.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "svc/client.hh"

namespace perf
{

namespace
{

double largestDaemonPeakMb = 0;

} // namespace

Daemon::Daemon(std::string dir)
    : dir_(std::move(dir)), socket_(dir_ + "/pfitsd.sock"),
      store_(dir_ + "/store")
{
    std::filesystem::create_directories(dir_);
    const std::string log = dir_ + "/pfitsd.log";
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0)
        throw std::runtime_error("fork pfitsd failed");
    if (pid_ == 0) {
        // Child: never outlive the benchmark, keep stdout clean.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != parent)
            ::_exit(1);
        int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        int in = ::open("/dev/null", O_RDONLY);
        if (out < 0 || in < 0)
            ::_exit(126);
        ::dup2(in, 0);
        ::dup2(out, 1);
        ::dup2(out, 2);
        ::execl(PFITSD_PATH, PFITSD_PATH, "--socket", socket_.c_str(),
                "--store", store_.c_str(), "--jobs", "2",
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
}

Daemon::~Daemon()
{
    stop();
}

bool
Daemon::waitReady(int timeout_ms, std::string *err)
{
    pfits::SvcClientConfig cfg;
    cfg.socketPath = socket_;
    cfg.requestTimeoutMs = 1'000;
    pfits::SvcClient probe(cfg);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            *err = "pfitsd exited during start-up (see " + dir_ +
                   "/pfitsd.log)";
            return false;
        }
        if (probe.ping())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    *err = "pfitsd did not answer within " + std::to_string(timeout_ms) +
           " ms";
    return false;
}

void
Daemon::stop()
{
    if (pid_ <= 0)
        return;
    largestDaemonPeakMb =
        std::max(largestDaemonPeakMb, peakRssMb(std::to_string(pid_)));
    ::kill(pid_, SIGTERM);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
}

double
Daemon::cpuSeconds() const
{
    if (pid_ <= 0)
        return 0;
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string line;
    if (!std::getline(in, line))
        return 0;
    // Fields after "(comm)": state is field 3, utime 14, stime 15.
    std::istringstream rest(line.substr(line.rfind(')') + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14)
            utime = std::stoull(field);
        else if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
Daemon::largestPeakRssMb()
{
    return largestDaemonPeakMb;
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

unsigned long long
treeBytes(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    unsigned long long total = 0;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    }
    return total;
}

} // namespace perf
