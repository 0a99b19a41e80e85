#include "common/frame.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace pfits
{

namespace
{

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Move @p len bytes through @p fd before @p deadline_at (absolute ms,
 * 0 = none), polling for readiness so a stalled peer turns into a
 * clean timeout instead of a blocked thread.
 */
bool
pumpBytes(int fd, char *buf, size_t len, bool writing,
          int64_t deadline_at, std::string *err)
{
    size_t done = 0;
    while (done < len) {
        int wait_ms = -1;
        if (deadline_at != 0) {
            int64_t left = deadline_at - nowMs();
            if (left <= 0) {
                if (err)
                    *err = "timeout";
                return false;
            }
            wait_ms = static_cast<int>(left);
        }

        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = writing ? POLLOUT : POLLIN;
        pfd.revents = 0;
        int pr = ::poll(&pfd, 1, wait_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = std::string("poll: ") + std::strerror(errno);
            return false;
        }
        if (pr == 0) {
            if (err)
                *err = "timeout";
            return false;
        }

        ssize_t n;
        if (writing) {
            n = ::send(fd, buf + done, len - done, MSG_NOSIGNAL);
        } else {
            n = ::recv(fd, buf + done, len - done, 0);
        }
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            if (err)
                *err = std::string(writing ? "send: " : "recv: ") +
                       std::strerror(errno);
            return false;
        }
        if (n == 0) {
            if (err)
                *err = done == 0 && !writing ? "eof" : "peer closed";
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

bool
sendFrame(int fd, const std::string &payload, int deadline_ms,
          std::string *err)
{
    if (payload.size() > kMaxFrameBytes) {
        if (err)
            *err = "frame too large";
        return false;
    }
    int64_t deadline_at = deadline_ms > 0 ? nowMs() + deadline_ms : 0;
    uint32_t len = static_cast<uint32_t>(payload.size());
    char hdr[4] = {static_cast<char>(len >> 24),
                   static_cast<char>(len >> 16),
                   static_cast<char>(len >> 8), static_cast<char>(len)};
    if (!pumpBytes(fd, hdr, sizeof(hdr), true, deadline_at, err))
        return false;
    std::string body = payload; // pumpBytes wants mutable storage
    return pumpBytes(fd, body.data(), body.size(), true, deadline_at,
                     err);
}

bool
recvFrame(int fd, std::string *payload, int deadline_ms,
          std::string *err)
{
    int64_t deadline_at = deadline_ms > 0 ? nowMs() + deadline_ms : 0;
    char hdr[4];
    if (!pumpBytes(fd, hdr, sizeof(hdr), false, deadline_at, err))
        return false;
    uint32_t len = (static_cast<uint32_t>(static_cast<uint8_t>(hdr[0]))
                    << 24) |
                   (static_cast<uint32_t>(static_cast<uint8_t>(hdr[1]))
                    << 16) |
                   (static_cast<uint32_t>(static_cast<uint8_t>(hdr[2]))
                    << 8) |
                   static_cast<uint32_t>(static_cast<uint8_t>(hdr[3]));
    if (len > kMaxFrameBytes) {
        if (err)
            *err = "frame too large";
        return false;
    }
    payload->assign(len, '\0');
    if (len == 0)
        return true;
    return pumpBytes(fd, payload->data(), len, false, deadline_at, err);
}

} // namespace pfits
