// Minimal blocking TCP transport with length-framed messages.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace tiera {

// A connected socket carrying [u32 length][payload] frames.
//
// Shutdown discipline (this is what keeps the type race-free under TSan):
// any thread may call shutdown() to disable I/O — a peer blocked in
// recv_frame()/send_frame() returns with kUnavailable, but the fd number
// stays reserved so no concurrent reader can race a close/reuse. close()
// actually releases the fd and must only run when no other thread is inside
// an I/O call (the destructor, or the single owning thread).
class TcpConnection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  static Result<std::unique_ptr<TcpConnection>> connect(
      const std::string& host, std::uint16_t port);

  // Sends one frame whose payload is `head` followed by `tail`, length
  // prefix included, in one sendmsg() call (more only on a short write):
  // under TCP_NODELAY a separate header write would go out as its own
  // segment and could wake the peer for 4 bytes. The split lets RPC
  // clients send their request header and body without joining them.
  Status send_frame(ByteView head, ByteView tail = {});
  // Blocks until a full frame arrives. kUnavailable on clean peer close.
  Result<Bytes> recv_frame();

  // Cross-thread-safe: unblocks in-flight I/O without releasing the fd.
  void shutdown();
  void close();
  bool closed() const {
    return fd_.load(std::memory_order_acquire) < 0 ||
           shut_down_.load(std::memory_order_acquire);
  }

  // Frames larger than this are rejected (corrupt length guard).
  static constexpr std::uint32_t kMaxFrame = 64u << 20;

 private:
  std::atomic<int> fd_;
  std::atomic<bool> shut_down_{false};
};

class TcpListener {
 public:
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds 127.0.0.1:port (port 0 = ephemeral).
  static Result<std::unique_ptr<TcpListener>> listen(std::uint16_t port);

  std::uint16_t port() const { return port_; }

  // Blocks for the next connection; kUnavailable after shutdown().
  Result<std::unique_ptr<TcpConnection>> accept();

  // Unblocks accept() (Linux: shutdown() on a listening socket makes a
  // blocked accept return). The fd itself is released by the destructor,
  // after the accept loop has been joined, so accept() never races a
  // close/reuse of the fd number.
  void shutdown();

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  std::atomic<int> fd_;
  std::uint16_t port_;
};

}  // namespace tiera
