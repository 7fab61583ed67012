#ifndef ITAG_PERFBENCH_ASYNC_CONN_H_
#define ITAG_PERFBENCH_ASYNC_CONN_H_

// A pipelined wire connection for open-loop load. net::Client::Await blocks
// the calling thread until one reply arrives, so a slow reply would hold
// back every later due send on that thread. AsyncConn separates the two
// directions instead: any thread may Send() (frames are written under a
// mutex), and a dedicated receiver thread decodes replies and runs each
// request's completion callback. A callback may itself Send() the next step
// of a dependent chain (accept -> submit -> decide).

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "api/requests.h"
#include "common/result.h"
#include "common/socket.h"
#include "common/status.h"

namespace itag::perfbench {

class AsyncConn {
 public:
  /// Runs on the receiver thread with the decoded reply, or with the typed
  /// error a server error frame carried.
  using Callback = std::function<void(Result<api::AnyResponse>)>;

  AsyncConn() = default;
  ~AsyncConn();
  AsyncConn(const AsyncConn&) = delete;
  AsyncConn& operator=(const AsyncConn&) = delete;

  /// Connects and starts the receiver thread.
  Status Connect(const std::string& host, uint16_t port);

  /// Registers `done` and writes the request frame. Thread-safe. Fails only
  /// on a transport error, in which case `done` is never called.
  Status Send(const api::AnyRequest& request, Callback done);

  /// Requests sent whose reply has not been handled yet.
  size_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

  /// False once the receiver saw a transport or framing failure.
  bool healthy() const { return healthy_.load(std::memory_order_acquire); }

  /// Shuts the socket down and joins the receiver. Idempotent.
  void Close();

 private:
  void ReceiveLoop();

  Socket sock_;
  std::mutex write_mu_;  ///< serializes frame writes and correlation ids
  uint64_t next_correlation_ = 1;
  std::mutex pending_mu_;
  std::unordered_map<uint64_t, Callback> pending_;
  std::atomic<size_t> outstanding_{0};
  std::atomic<bool> healthy_{true};
  std::thread receiver_;
};

}  // namespace itag::perfbench

#endif  // ITAG_PERFBENCH_ASYNC_CONN_H_
