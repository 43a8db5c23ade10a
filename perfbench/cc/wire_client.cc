#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace perfbench {

using ideval::Result;
using ideval::Status;

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<WireClient>> WireClient::Connect(int port) {
  std::unique_ptr<WireClient> c(new WireClient);
  c->fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (c->fd_ < 0) return Errno("socket");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(c->fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("connect");
  }
  const int one = 1;
  setsockopt(c->fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return c;
}

WireClient::~WireClient() {
  if (fd_ >= 0) close(fd_);
}

Status WireClient::Send(
    ideval::Opcode op, uint64_t session_id, uint64_t request_id,
    const std::function<void(ideval::WireWriter*)>& payload) {
  wbuf_.clear();
  ideval::WireWriter w(&wbuf_);
  const size_t f = w.BeginFrame(op, session_id, request_id);
  if (payload) payload(&w);
  w.EndFrame(f);
  size_t pos = 0;
  while (pos < wbuf_.size()) {
    const ssize_t n =
        send(fd_, wbuf_.data() + pos, wbuf_.size() - pos, MSG_NOSIGNAL);
    if (n > 0) {
      pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  bytes_sent_ += static_cast<int64_t>(wbuf_.size());
  ++frames_sent_;
  return Status::OK();
}

Status WireClient::ReadSome(Clock::time_point until, const FrameFn& on_frame) {
  const auto now = Clock::now();
  const int64_t wait_ns =
      until > now ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                        until - now).count()
                  : 0;
  timespec ts{static_cast<time_t>(wait_ns / 1000000000),
              static_cast<long>(wait_ns % 1000000000)};
  pollfd pfd{fd_, POLLIN, 0};
  const int r = ppoll(&pfd, 1, &ts, nullptr);
  if (r < 0) return errno == EINTR ? Status::OK() : Errno("ppoll");
  if (r == 0) return Status::OK();
  uint8_t chunk[64 * 1024];
  const ssize_t n = recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
  if (n == 0) return Status::Internal("connection closed by server");
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::OK();
    }
    return Errno("recv");
  }
  bytes_received_ += n;
  rbuf_.insert(rbuf_.end(), chunk, chunk + n);
  const auto at = Clock::now();
  while (rbuf_.size() - rpos_ >= ideval::kWireHeaderBytes) {
    ideval::FrameHeader h;
    if (!ideval::DecodeFrameHeader(rbuf_.data() + rpos_,
                                   rbuf_.size() - rpos_, &h)) {
      return Status::Internal("malformed frame header from server");
    }
    if (rbuf_.size() - rpos_ < ideval::kWireHeaderBytes + h.payload_len) break;
    ++frames_received_;
    on_frame(h, rbuf_.data() + rpos_ + ideval::kWireHeaderBytes, at);
    rpos_ += ideval::kWireHeaderBytes + h.payload_len;
  }
  if (rpos_ == rbuf_.size()) {
    rbuf_.clear();
    rpos_ = 0;
  } else if (rpos_ > (1u << 20)) {
    rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<long>(rpos_));
    rpos_ = 0;
  }
  return Status::OK();
}

Status WireClient::PumpUntil(Clock::time_point until, const FrameFn& on_frame) {
  while (Clock::now() < until) {
    IDEVAL_RETURN_NOT_OK(ReadSome(until, on_frame));
  }
  return Status::OK();
}

Result<bool> WireClient::PumpWhile(const std::function<bool()>& done,
                                   Clock::time_point until,
                                   const FrameFn& on_frame) {
  while (!done()) {
    if (Clock::now() >= until) return false;
    IDEVAL_RETURN_NOT_OK(ReadSome(until, on_frame));
  }
  return true;
}

}  // namespace perfbench
