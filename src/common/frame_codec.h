#ifndef CQMS_COMMON_FRAME_CODEC_H_
#define CQMS_COMMON_FRAME_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace cqms {

/// Byte stream framing shared by the network protocol (docs/server.md)
/// and the write-ahead log's records (docs/persistence.md). One frame is
///
///   fixed32 payload length (little-endian)
///   fixed32 CRC-32 of the payload
///   payload bytes
///
/// so torn or corrupted bytes are detected before a single payload byte
/// is decoded.
constexpr size_t kFrameHeaderBytes = 8;

/// Frames larger than this are refused by default on both ends; the
/// server's --max-frame-bytes lowers it further.
constexpr size_t kDefaultMaxFrameBytes = 8u << 20;

/// Appends one encoded frame carrying `payload` to `out`.
void AppendFrame(std::string* out, std::string_view payload);

enum class FrameParse {
  kFrame,     ///< `*payload` views the first frame's payload.
  kNeedMore,  ///< `bytes` holds only a prefix of the first frame.
  kTooLarge,  ///< The length field exceeds `max_payload_bytes`.
  kBadCrc,    ///< The payload fails its CRC.
};

/// Parses the frame at the front of `bytes` without copying; the frame
/// spans kFrameHeaderBytes + payload->size() bytes. Each caller keeps
/// its own policy for a bad frame: the wire drops the connection, the
/// WAL treats it as the torn end of the committed prefix.
FrameParse ParseFrame(std::string_view bytes, size_t max_payload_bytes,
                      std::string_view* payload);

/// Incremental frame extractor over an arbitrarily chunked byte stream
/// (socket reads). Feed() buffers bytes; Next() yields complete payloads
/// in order. Any framing violation — a length beyond the limit or a CRC
/// mismatch — latches a permanent error: stream synchronization is lost,
/// so the connection must be dropped (after an optional typed error
/// frame; the bytes already buffered cannot be trusted).
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Buffers `n` more stream bytes. No-op once failed.
  void Feed(const char* data, size_t n);

  enum class Next {
    kFrame,     ///< `*payload` holds the next complete payload.
    kNeedMore,  ///< No complete frame buffered; Feed() more bytes.
    kError,     ///< Framing violated; error() says how. Terminal.
  };

  /// Extracts the next complete frame's payload into `*payload`.
  Next Poll(std::string* payload);

  const Status& error() const { return error_; }
  bool failed() const { return !error_.ok(); }

  /// Bytes currently buffered and not yet returned (backpressure metric).
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  size_t max_frame_bytes_;
  std::string buf_;
  size_t pos_ = 0;
  Status error_;
};

}  // namespace cqms

#endif  // CQMS_COMMON_FRAME_CODEC_H_
