#include "peer.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "host.h"
#include "trace.h"

namespace e2e {

namespace {

constexpr std::size_t kInitialBuffer = 16 * 1024;
constexpr std::size_t kHeader = 8;

void make_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  make_nonblocking(fd);
  return fd;
}

Peer::Peer(dfi::net::EventLoop& loop, int fd, FrameFn on_frame, BatchEndFn on_batch_end)
    : loop_(loop),
      fd_(fd),
      on_frame_(std::move(on_frame)),
      on_batch_end_(std::move(on_batch_end)),
      in_(kInitialBuffer) {
  out_.reserve(kInitialBuffer);
  ok_ = loop_.add_fd(fd_, /*want_read=*/true, /*want_write=*/false,
                     [this](bool readable, bool, bool error) { on_io(readable, error); });
}

Peer::~Peer() {
  loop_.remove_fd(fd_);
  ::close(fd_);
}

bool Peer::write_all(const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size && ok_) {
    const ssize_t n = ::send(fd_, data + written, size - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      ok_ = false;
    }
  }
  return ok_;
}

void Peer::queue(const std::uint8_t* data, std::size_t size) {
  out_.insert(out_.end(), data, data + size);
}

bool Peer::flush_queued() {
  if (out_.empty()) return ok_;
  const bool written = write_all(out_.data(), out_.size());
  out_.clear();
  return written;
}

void Peer::on_io(bool readable, bool error) {
  if (!readable && !error) return;
  ScopedSpan span(SpanName::kEmuRecv);
  bool got = false;
  for (;;) {
    if (in_len_ == in_.size()) in_.resize(in_.size() * 2);
    const ssize_t n = ::read(fd_, in_.data() + in_len_, in_.size() - in_len_);
    if (n > 0) {
      got = true;
      const std::int64_t t = wall_ns();
      in_len_ += static_cast<std::size_t>(n);
      std::size_t pos = 0;
      while (in_len_ - pos >= kHeader) {
        const std::size_t length =
            (static_cast<std::size_t>(in_[pos + 2]) << 8) | in_[pos + 3];
        if (length < kHeader) {
          ok_ = false;  // framing destroyed
          return;
        }
        if (in_len_ - pos < length) break;
        on_frame_(in_.data() + pos, length, t);
        pos += length;
      }
      if (pos > 0) {
        std::memmove(in_.data(), in_.data() + pos, in_len_ - pos);
        in_len_ -= pos;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    ok_ = false;  // EOF or hard error: the frontend dropped us
    break;
  }
  if (got && on_batch_end_) on_batch_end_();
}

Listener::Listener(dfi::net::EventLoop& loop, AcceptFn on_accept)
    : loop_(loop), on_accept_(std::move(on_accept)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd_ < 0) return;
  sockaddr_in addr = loopback(0);
  socklen_t len = sizeof(addr);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 16) != 0 ||
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return;
  }
  if (!loop_.add_fd(fd_, true, false, [this](bool readable, bool, bool) {
        if (!readable) return;
        for (;;) {
          const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
          if (fd < 0) {
            if (errno == EINTR) continue;
            return;
          }
          make_nonblocking(fd);
          on_accept_(fd);
        }
      })) {
    return;
  }
  port_ = ntohs(addr.sin_port);
}

Listener::~Listener() {
  if (fd_ < 0) return;
  if (port_ != 0) loop_.remove_fd(fd_);
  ::close(fd_);
}

}  // namespace e2e
