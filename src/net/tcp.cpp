#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tiera {

namespace {

Status errno_status(const char* op) {
  return Status::Internal(std::string("tcp ") + op + ": " +
                          std::strerror(errno));
}

// Writes every byte of iov[0, count), resuming after short writes.
bool send_all(int fd, iovec* iov, std::size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto left = static_cast<std::size_t>(n);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
}

// Returns 1 on success, 0 on clean close, -1 on error.
int recv_all(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) return 0;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return 1;
}

}  // namespace

TcpConnection::~TcpConnection() { close(); }

void TcpConnection::shutdown() {
  shut_down_.store(true, std::memory_order_release);
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void TcpConnection::close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

Result<std::unique_ptr<TcpConnection>> TcpConnection::connect(
    const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable("connect to " + host + ":" +
                               std::to_string(port) + " failed: " +
                               std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpConnection>(fd);
}

Status TcpConnection::send_frame(ByteView head, ByteView tail) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0 || closed()) return Status::Unavailable("connection closed");
  const std::size_t size = head.size() + tail.size();
  if (size > kMaxFrame) {
    return Status::InvalidArgument("frame too large");
  }
  std::uint8_t header[4];
  const auto n = static_cast<std::uint32_t>(size);
  std::memcpy(header, &n, 4);
  iovec iov[3] = {
      {header, 4},
      {const_cast<std::uint8_t*>(head.data()), head.size()},
      {const_cast<std::uint8_t*>(tail.data()), tail.size()}};
  if (!send_all(fd, iov, 3)) {
    // Error paths only half-close: another thread may still be blocked in
    // recv_frame() on this fd, and releasing the number under it would let
    // the kernel recycle it. The destructor (or the owner) closes for real.
    shutdown();
    return Status::Unavailable("peer went away during send");
  }
  return Status::Ok();
}

Result<Bytes> TcpConnection::recv_frame() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0 || closed()) return Status::Unavailable("connection closed");
  std::uint8_t header[4];
  const int rc = recv_all(fd, header, 4);
  if (rc <= 0) {
    shutdown();
    return Status::Unavailable(rc == 0 ? "peer closed connection"
                                       : "recv failed");
  }
  std::uint32_t n;
  std::memcpy(&n, header, 4);
  if (n > kMaxFrame) {
    shutdown();
    return Status::Corruption("oversized frame");
  }
  Bytes payload(n);
  if (n > 0 && recv_all(fd, payload.data(), n) <= 0) {
    shutdown();
    return Status::Unavailable("peer closed mid-frame");
  }
  return payload;
}

TcpListener::~TcpListener() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

Result<std::unique_ptr<TcpListener>> TcpListener::listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return errno_status("bind");
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return errno_status("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return errno_status("getsockname");
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

Result<std::unique_ptr<TcpConnection>> TcpListener::accept() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return Status::Unavailable("listener shut down");
  for (;;) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("listener shut down");
    }
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::make_unique<TcpConnection>(client);
  }
}

void TcpListener::shutdown() {
  // Half-close only: wakes a blocked accept() without releasing the fd
  // number, so the accept loop can never race a close/reuse. The destructor
  // releases the fd once the loop has been joined.
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace tiera
