// Raw loopback TCP endpoints for the switch and controller emulators.
//
// The emulators deliberately use plain nonblocking sockets and their own
// framing rather than the program's Connection/FrameDecoder, so their cost
// does not move when the program's transport changes. They are registered
// on the program's EventLoop, which the benchmark drives from one thread.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/asyncio/event_loop.h"

namespace e2e {

// Blocking connect to 127.0.0.1:port, then nonblocking with TCP_NODELAY.
// Returns the fd or -1.
int connect_loopback(std::uint16_t port);

class Peer {
 public:
  // One complete OpenFlow frame, stamped with the wall time its read returned.
  using FrameFn = std::function<void(const std::uint8_t* frame, std::size_t size,
                                     std::int64_t t_ns)>;
  using BatchEndFn = std::function<void()>;

  Peer(dfi::net::EventLoop& loop, int fd, FrameFn on_frame, BatchEndFn on_batch_end);
  ~Peer();
  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  // Write everything now. Loopback buffers dwarf one burst, so a short
  // write is a transport failure, never a wait.
  bool write_all(const std::uint8_t* data, std::size_t size);
  // Queue bytes and write them at the end of the current read batch.
  void queue(const std::uint8_t* data, std::size_t size);
  bool flush_queued();

  bool ok() const { return ok_; }

 private:
  void on_io(bool readable, bool error);

  dfi::net::EventLoop& loop_;
  int fd_;
  FrameFn on_frame_;
  BatchEndFn on_batch_end_;
  std::vector<std::uint8_t> in_;
  std::size_t in_len_ = 0;
  std::vector<std::uint8_t> out_;
  bool ok_ = true;
};

// Listening socket on 127.0.0.1 (ephemeral port) handing accepted,
// nonblocking, TCP_NODELAY fds to `on_accept`.
class Listener {
 public:
  using AcceptFn = std::function<void(int fd)>;

  Listener(dfi::net::EventLoop& loop, AcceptFn on_accept);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // The bound port, or 0 when binding failed.
  std::uint16_t port() const { return port_; }

 private:
  dfi::net::EventLoop& loop_;
  AcceptFn on_accept_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace e2e
