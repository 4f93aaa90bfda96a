#include "net/async_client.h"

#include <utility>
#include <vector>

#include "net/reactor.h"
#include "net/wire.h"

namespace tiera {

Result<std::unique_ptr<AsyncRpcClient>> AsyncRpcClient::connect(
    const std::string& host, std::uint16_t port) {
  auto conn = TcpConnection::connect(host, port);
  if (!conn.ok()) return conn.status();
  return std::unique_ptr<AsyncRpcClient>(
      new AsyncRpcClient(std::move(conn).value()));
}

AsyncRpcClient::AsyncRpcClient(std::unique_ptr<TcpConnection> conn)
    : conn_(std::move(conn)) {
  reader_ = std::thread([this] { reader_loop(); });
}

AsyncRpcClient::~AsyncRpcClient() {
  // shutdown() unblocks the reader's recv_frame; fail_all drains callbacks.
  conn_->shutdown();
  if (reader_.joinable()) reader_.join();
}

Status AsyncRpcClient::call_async(std::uint8_t method, ByteView body,
                                  Callback done) {
  std::uint64_t id;
  {
    // Register before sending: a response cannot race its own registration.
    std::lock_guard send_lock(send_mu_);
    id = next_id_++;
    {
      std::lock_guard lock(pending_mu_);
      if (dead_) return dead_status_;
      pending_.emplace(id, std::move(done));
    }
    WireWriter request;
    request.u64(id);
    std::uint8_t wire_method = method & kRpcMethodMask;
    if (!tenant_.empty()) wire_method |= kRpcTenantFlag;
    if (background_) wire_method |= kRpcBackgroundFlag;
    request.u8(wire_method);
    if (!tenant_.empty()) request.str(tenant_);
    const Status sent = conn_->send_frame(as_view(request.data()), body);
    if (!sent.ok()) {
      std::lock_guard lock(pending_mu_);
      pending_.erase(id);
      return sent;
    }
  }
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void AsyncRpcClient::reader_loop() {
  for (;;) {
    Result<Bytes> reply = conn_->recv_frame();
    if (!reply.ok()) {
      fail_all(reply.status());
      return;
    }
    WireReader reader(as_view(*reply));
    std::uint64_t reply_id = 0;
    std::uint8_t code = 0;
    std::string message;
    Bytes payload;
    if (!reader.u64(reply_id).ok() || !reader.u8(code).ok() ||
        !reader.str(message).ok() || !reader.bytes(payload).ok()) {
      fail_all(Status::Corruption("async rpc: malformed response frame"));
      return;
    }
    Callback done;
    {
      std::lock_guard lock(pending_mu_);
      auto it = pending_.find(reply_id);
      if (it == pending_.end()) continue;  // duplicate/unknown id: drop
      done = std::move(it->second);
      pending_.erase(it);
    }
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    Status status = code == static_cast<std::uint8_t>(StatusCode::kOk)
                        ? Status::Ok()
                        : Status(static_cast<StatusCode>(code),
                                 std::move(message));
    done(std::move(status), std::move(payload));
  }
}

void AsyncRpcClient::fail_all(const Status& status) {
  std::vector<Callback> callbacks;
  {
    std::lock_guard lock(pending_mu_);
    dead_ = true;
    dead_status_ = status;
    callbacks.reserve(pending_.size());
    for (auto& [id, cb] : pending_) callbacks.push_back(std::move(cb));
    pending_.clear();
  }
  for (Callback& cb : callbacks) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    cb(status, {});
  }
}

}  // namespace tiera
