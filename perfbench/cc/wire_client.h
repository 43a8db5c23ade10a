// A single-threaded, event-driven client for the `NetServer` wire
// protocol, built only on the public `net/wire.h` and `net/codec.h`
// functions. Unlike the blocking `NetClient`, it reads frames the moment
// they arrive while it waits for the next scheduled send, so a completion
// is timestamped when it reaches the client, not when the client next
// happens to call in.
#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "engine/query.h"
#include "net/wire.h"

namespace perfbench {

class WireClient {
 public:
  using Clock = std::chrono::steady_clock;
  /// Called for every frame received, with the time it was decoded.
  using FrameFn = std::function<void(const ideval::FrameHeader&,
                                     const uint8_t* payload, Clock::time_point)>;

  /// Connects to 127.0.0.1:`port`.
  static ideval::Result<std::unique_ptr<WireClient>> Connect(int port);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Sends one frame of `op` for `session_id`; `payload` appends the
  /// payload (may be null).
  ideval::Status Send(ideval::Opcode op, uint64_t session_id,
                      uint64_t request_id,
                      const std::function<void(ideval::WireWriter*)>& payload);

  /// Reads and dispatches frames until `until`.
  ideval::Status PumpUntil(Clock::time_point until, const FrameFn& on_frame);

  /// Reads and dispatches frames until `done()` holds or `until` passes;
  /// false on timeout.
  ideval::Result<bool> PumpWhile(const std::function<bool()>& done,
                                 Clock::time_point until,
                                 const FrameFn& on_frame);

  int64_t bytes_sent() const { return bytes_sent_; }
  int64_t bytes_received() const { return bytes_received_; }
  int64_t frames_sent() const { return frames_sent_; }
  int64_t frames_received() const { return frames_received_; }

 private:
  WireClient() = default;
  /// Waits up to `until` for data, reads what is there, dispatches every
  /// complete frame.
  ideval::Status ReadSome(Clock::time_point until, const FrameFn& on_frame);

  int fd_ = -1;
  std::vector<uint8_t> wbuf_;
  std::vector<uint8_t> rbuf_;
  size_t rpos_ = 0;
  int64_t bytes_sent_ = 0;
  int64_t bytes_received_ = 0;
  int64_t frames_sent_ = 0;
  int64_t frames_received_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_
