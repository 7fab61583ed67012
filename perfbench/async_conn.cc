#include "async_conn.h"

#include <sys/socket.h>

#include <string_view>
#include <utility>

#include "net/wire.h"

namespace itag::perfbench {

AsyncConn::~AsyncConn() { Close(); }

Status AsyncConn::Connect(const std::string& host, uint16_t port) {
  Result<Socket> sock = Socket::Connect(host, port);
  if (!sock.ok()) return sock.status();
  sock_ = std::move(sock).value();
  Status nd = sock_.SetNoDelay(true);
  if (!nd.ok()) return nd;
  receiver_ = std::thread([this] { ReceiveLoop(); });
  return Status::OK();
}

Status AsyncConn::Send(const api::AnyRequest& request, Callback done) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const uint64_t correlation = next_correlation_++;
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    pending_.emplace(correlation, std::move(done));
  }
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  const std::string frame = net::EncodeRequestFrame(correlation, request);
  Status st = sock_.WriteAll(frame.data(), frame.size());
  if (!st.ok()) {
    std::lock_guard<std::mutex> pl(pending_mu_);
    pending_.erase(correlation);
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    healthy_.store(false, std::memory_order_release);
  }
  return st;
}

void AsyncConn::Close() {
  if (receiver_.joinable()) {
    ::shutdown(sock_.fd(), SHUT_RDWR);
    receiver_.join();
  }
  sock_.Close();
}

namespace {

Result<api::AnyResponse> Interpret(const net::Frame& frame) {
  if (frame.kind == net::FrameKind::kError) {
    net::WireReader r(frame.payload);
    Status error;
    if (!net::DecodeStatus(r, &error) || !r.AtEnd() || error.ok()) {
      return Status::Corruption("malformed error reply");
    }
    return error;
  }
  if (frame.kind != net::FrameKind::kResponse) {
    return Status::Corruption("unexpected frame kind");
  }
  api::AnyResponse response;
  Status st = net::DecodeResponsePayload(frame.type, frame.payload, &response);
  if (!st.ok()) return st;
  return response;
}

}  // namespace

void AsyncConn::ReceiveLoop() {
  std::string inbuf;
  char buf[65536];
  for (;;) {
    net::Frame frame;
    size_t consumed = 0;
    Status st = net::TryDecodeFrame(inbuf, &frame, &consumed);
    if (!st.ok()) break;
    if (consumed == 0) {
      Result<size_t> got = sock_.ReadSome(buf, sizeof(buf));
      if (!got.ok()) break;
      inbuf.append(buf, got.value());
      continue;
    }
    inbuf.erase(0, consumed);
    Callback done;
    {
      std::lock_guard<std::mutex> pl(pending_mu_);
      auto it = pending_.find(frame.correlation);
      if (it == pending_.end()) continue;
      done = std::move(it->second);
      pending_.erase(it);
    }
    done(Interpret(frame));
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  }
  healthy_.store(false, std::memory_order_release);
}

}  // namespace itag::perfbench
