// The load generator's side of the TCP protocol, built from the public
// framing (net/frame.h) and codec (api/codec.h) pieces rather than
// net::Client, so the generator can multiplex connections with poll(),
// see every response frame's exact size and time DecodeResponse itself.
#ifndef OSUM_E2EBENCH_WIRE_H_
#define OSUM_E2EBENCH_WIRE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "api/query.h"
#include "net/frame.h"

namespace osum::e2e {

class WireConnection {
 public:
  /// Blocking loopback connect with TCP_NODELAY; receives time out after
  /// 30 s so a lost response fails the run instead of hanging it. Throws
  /// std::runtime_error on failure.
  static std::unique_ptr<WireConnection> Connect(uint16_t port);

  ~WireConnection();
  WireConnection(const WireConnection&) = delete;
  WireConnection& operator=(const WireConnection&) = delete;

  int fd() const { return fd_; }

  /// Frames and writes one request completely. Throws on a socket error.
  void Send(const api::QueryRequest& request);

  /// One recv() into the reassembler (blocks until bytes arrive). Returns
  /// false on EOF, timeout, error or a framing violation.
  bool ReadSome();

  /// The next complete response payload already buffered, if any.
  std::optional<std::string> NextFrame() { return frames_.Next(); }

  /// Blocks until one complete payload is buffered and returns it.
  std::optional<std::string> ReadFrame();

 private:
  explicit WireConnection(int fd) : fd_(fd) {}

  int fd_ = -1;
  net::FrameReassembler frames_;
};

/// Bytes of one response on the wire: the u32 length prefix plus payload.
inline size_t FrameBytes(std::string_view payload) {
  return payload.size() + 4;
}

}  // namespace osum::e2e

#endif  // OSUM_E2EBENCH_WIRE_H_
