// Event-driven RPC core: N epoll loops own the sockets; a request that
// cannot wait runs to completion on the loop that decoded it, and the rest
// run on per-object worker shards.
//
// Wire format is unchanged from the blocking transport (net/tcp.h):
// [u32 length][u64 request_id | u8 method | body] in,
// [u32 length][u64 request_id | u8 status | string message | body] out.
//
// Threading model:
//   - loop threads ("rpc-loop-<i>"): epoll_wait, non-blocking reads, frame
//     decode, and response writes. Every accepted connection is handed to
//     one loop (round-robin) and stays pinned to it for life, so its decode
//     state machine — partial frames, write queue, in-flight count — is
//     touched by exactly one thread and needs no locks.
//   - inline execution: when the shard key carries kInlineBit (the request
//     cannot sleep or block: no modelled delay, no fsync wait) and the
//     connection has nothing pending on a shard, the loop runs the handler
//     itself on a view into its read buffer and queues the response; the
//     queue is flushed once the decode pass ends. No hand-off, no copy of
//     the body. The in-flight condition keeps a pipelining client's
//     responses in request order: an inline request never overtakes an
//     earlier one from its own connection.
//   - shard threads ("rpc-shard-<i>"): every other data request. Requests
//     hash by the caller-provided shard key (the object id for Tiera's data
//     verbs) to a single-threaded worker, so one object's requests run FIFO
//     on one core and a request that waits (a group-commit fsync, a
//     modelled tier delay) never stalls a loop. Handlers that block for a
//     long time (profiler captures) can be routed to a separate admin pool
//     by returning kAdminKey.
//   - shard responses post back to the owning loop's mailbox (eventfd
//     wakeup) and are written on the loop thread, with EPOLLOUT-driven
//     retry when the client reads slowly.
//
// Backpressure: each loop caps decoded-but-unanswered requests
// (max_inflight_per_loop). At the cap it unsubscribes EPOLLIN on every
// connection it owns — the kernel socket buffers and TCP flow control push
// back on clients — and resubscribes once in-flight work drains below half
// the cap. tiera_rpc_backpressure_pauses_total counts the transitions.
// Inline requests are answered before the loop reads on, so they never
// count against the cap.
//
// Connection teardown is immediate: EOF (or a socket error) reaps the
// connection on the loop thread as soon as its last response is flushed —
// nothing waits for a future accept() the way the old thread-per-connection
// server did.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/pool_metrics.h"

namespace tiera {

class Watchdog;

using RpcHandler = std::function<Result<Bytes>(ByteView body)>;

// Admission decision, run on the loop thread the moment a frame is decoded
// — before the request costs a shard dispatch or counts against the
// in-flight cap. `method` is the low 6 bits of the wire method byte;
// `tenant` comes from the optional tenant header (empty when absent);
// `background` is the client-declared background-priority bit. Returning a
// non-OK status fast-fails the request with that status (kOverloaded from
// the admission controller). Must be cheap and thread-safe: every loop
// thread calls it concurrently.
using AdmissionFn = std::function<Status(
    std::uint8_t method, std::string_view tenant, bool background)>;

// Request-header flag bits carried in the top bits of the wire method byte.
// Old clients never set them (methods are small), so a flag-free frame is
// byte-identical to the pre-header wire format.
inline constexpr std::uint8_t kRpcTenantFlag = 0x80;      // body starts with
                                                          // a tenant string
inline constexpr std::uint8_t kRpcBackgroundFlag = 0x40;  // background prio
inline constexpr std::uint8_t kRpcMethodMask = 0x3f;

// Maps a decoded request to an execution shard before the body is parsed.
// Runs on the loop thread, so it must stay cheap (Tiera's extracts the
// leading object-id string and hashes it). Return kAdminKey to run the
// request on the admin pool instead of a shard. Set
// ReactorServer::kInlineBit on a key when the handler cannot wait (sleep or
// block on I/O another thread completes): the loop then runs it inline
// whenever the connection has nothing pending on a shard. Keys are compared
// with the bit cleared, so the same object maps to the same shard either
// way.
using ShardKeyFn =
    std::function<std::uint64_t(std::uint8_t method, ByteView body)>;

struct ReactorOptions {
  std::size_t loops = 0;   // epoll event loops; 0 = hardware_concurrency
  std::size_t shards = 0;  // worker shards; 0 = hardware_concurrency
  // Per-loop cap on decoded-but-unanswered requests before the loop stops
  // reading its sockets.
  std::size_t max_inflight_per_loop = 1024;
};

class ReactorServer {
 public:
  // Requests whose shard key is kAdminKey run on a small shared pool
  // instead of a shard — for slow administrative verbs (e.g. a blocking
  // profiler capture) that must not stall an execution shard.
  static constexpr std::uint64_t kAdminKey = ~0ull;
  // Shard-key flag: the request may run inline on its loop (see ShardKeyFn).
  static constexpr std::uint64_t kInlineBit = 1ull << 63;

  ReactorServer(std::uint16_t port, ReactorOptions options = {});
  ~ReactorServer();

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  // All must be called before start().
  void register_handler(std::uint8_t method, RpcHandler handler);
  void set_shard_key(ShardKeyFn fn);
  // Optional overload front door (see AdmissionFn above). Rejected requests
  // are answered from the loop thread and never reach a shard; they count
  // in tiera_admission_* series, not tiera_rpc_errors_total.
  void set_admission(AdmissionFn fn);

  // Liveness heartbeats: start() registers every loop (progress = epoll
  // iterations, queue = mailbox depth) and every shard/admin pool
  // (progress = completed tasks, queue = queue depth) with the watchdog;
  // stop() unregisters them. Must be called before start().
  void attach_watchdog(Watchdog* watchdog);

  // Bind + spin up the loops and shards.
  Status start();
  void stop();

  std::uint16_t port() const;
  std::uint64_t requests_served() const { return requests_served_.load(); }
  std::size_t loop_count() const { return loops_.size(); }
  std::size_t shard_count() const { return shards_.size(); }

  // Live connections across all loops. Drops to zero as soon as every
  // client has disconnected — EOF reaps connections directly on the loop.
  std::size_t tracked_connections() const;
  // Decoded requests not yet answered, across all loops.
  std::size_t inflight() const;
  // Aggregate in-flight budget (loops x max_inflight_per_loop); the
  // admission controller's saturation signal is inflight()/capacity.
  std::size_t inflight_capacity() const;
  // Times any loop hit its in-flight cap and paused socket reads.
  std::uint64_t backpressure_pauses() const;

 private:
  class Loop;
  friend class Loop;

  // A request bound for a shard. It owns copies of its tenant and body:
  // the loop's read buffer moves on while it waits in the queue.
  struct Request {
    std::size_t loop;
    std::uint64_t conn_id;
    std::uint64_t request_id;
    std::uint8_t method;
    // Tenant header value (empty when absent); serve() publishes it as the
    // flight-recorder tenant context around the handler. Usually short
    // enough for SSO, so no extra allocation on the hot path.
    std::string tenant;
    Bytes body;
  };

  // Called from loop threads: hand a decoded request to the pool `key`
  // names.
  void dispatch(std::uint64_t key, Request request);
  // Runs the handler and returns the framed response. Called on a
  // shard/admin thread for dispatched requests, and on the loop thread for
  // inline ones.
  Bytes serve(std::uint64_t request_id, std::uint8_t method,
              std::string_view tenant, ByteView body);

  const std::uint16_t requested_port_;
  const ReactorOptions options_;
  std::map<std::uint8_t, RpcHandler> handlers_;  // immutable after start()
  ShardKeyFn shard_key_;
  AdmissionFn admission_;  // immutable after start()

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> next_conn_{0};  // round-robin loop assignment

  std::vector<std::unique_ptr<Loop>> loops_;
  // One single-threaded pool per shard: reuses the pool's trace-context
  // propagation, sojourn accounting and tiera_pool_* gauges.
  std::vector<std::unique_ptr<ThreadPool>> shards_;
  std::vector<std::unique_ptr<PoolMetrics>> shard_metrics_;
  std::unique_ptr<ThreadPool> admin_pool_;

  Watchdog* watchdog_ = nullptr;
  std::vector<std::uint64_t> watchdog_ids_;

  // Registry series (`tiera_rpc_*`).
  struct Metrics {
    Counter* requests;
    Counter* inline_requests;
    Counter* errors;
    Counter* backpressure_pauses;
    Gauge* connections;
    Gauge* inflight;
    LatencyHistogram* request_latency;
  };
  Metrics metrics_;
};

}  // namespace tiera
