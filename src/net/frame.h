// Length-prefixed framing for api::codec documents on a TCP stream.
//
// One frame is a u32 little-endian payload length followed by exactly that
// many payload bytes; the payload is one api::codec binary document
// (request or response — the codec header inside the payload carries the
// magic, version and kind). The prefix itself has no magic, so there is no
// way to resynchronize a stream after a framing violation: the only safe
// reaction to an impossible length is dropping the connection. A
// *well-framed* payload that fails to decode is different — framing is
// intact, so the server answers it in-band with kCodecError and the stream
// continues.
#ifndef OSUM_NET_FRAME_H_
#define OSUM_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace osum::net {

/// Default ceiling for one frame payload. Requests are tiny; responses
/// carry result trees, so the ceiling is generous — anything larger is a
/// corrupt or hostile length prefix, not a real document.
inline constexpr size_t kDefaultMaxFrameBytes = 16 * 1024 * 1024;

/// u32 LE length prefix + payload bytes.
std::string EncodeFrame(std::string_view payload);

/// Incremental per-connection frame reassembly. Feed() accepts arbitrary
/// chunks — any split the kernel produces, down to one byte at a time,
/// including inside the length prefix — and Next() yields complete
/// payloads in arrival order. A length prefix above max_frame_bytes
/// poisons the reassembler permanently (Feed returns false, Next returns
/// nothing): the connection must be dropped.
class FrameReassembler {
 public:
  explicit FrameReassembler(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends stream bytes. Returns false once poisoned (the bytes are
  /// discarded — nothing after a framing violation is trustworthy).
  bool Feed(std::string_view bytes);

  /// Pops the next complete frame payload, or nullopt when more bytes are
  /// needed (or the stream is poisoned).
  std::optional<std::string> Next();

  /// True when Next() would make progress: a complete frame is buffered,
  /// or the pending prefix is a framing violation Next() must surface.
  /// Lets a scheduler keep per-connection backlogs queued here and take
  /// one frame at a time without the pop-and-push-back dance.
  bool HasCompleteFrame() const;

  bool poisoned() const { return poisoned_; }

  /// Bytes buffered but not yet returned by Next() — bounded by one
  /// maximum frame plus one read chunk as long as the caller drains
  /// Next() after every Feed.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  const size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // compaction offset into buffer_
  bool poisoned_ = false;
};

}  // namespace osum::net

#endif  // OSUM_NET_FRAME_H_
