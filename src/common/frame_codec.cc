#include "common/frame_codec.h"

#include <cstring>

#include "common/binary_codec.h"

namespace cqms {

namespace {

uint32_t LoadFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian hosts only, like the WAL's framing.
}

void StoreFixed32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace

void AppendFrame(std::string* out, std::string_view payload) {
  char header[kFrameHeaderBytes];
  StoreFixed32(header, static_cast<uint32_t>(payload.size()));
  StoreFixed32(header + 4, Crc32(payload));
  out->append(header, kFrameHeaderBytes);
  out->append(payload.data(), payload.size());
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (failed()) return;
  // Reclaim consumed prefix before growing; keeps the buffer bounded by
  // one partial frame plus whatever one Feed delivered.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameParse ParseFrame(std::string_view bytes, size_t max_payload_bytes,
                      std::string_view* payload) {
  if (bytes.size() < kFrameHeaderBytes) return FrameParse::kNeedMore;
  uint32_t len = LoadFixed32(bytes.data());
  if (len > max_payload_bytes) return FrameParse::kTooLarge;
  if (bytes.size() - kFrameHeaderBytes < len) return FrameParse::kNeedMore;
  std::string_view body = bytes.substr(kFrameHeaderBytes, len);
  if (Crc32(body) != LoadFixed32(bytes.data() + 4)) return FrameParse::kBadCrc;
  *payload = body;
  return FrameParse::kFrame;
}

FrameDecoder::Next FrameDecoder::Poll(std::string* payload) {
  if (failed()) return Next::kError;
  std::string_view body;
  switch (ParseFrame(std::string_view(buf_).substr(pos_), max_frame_bytes_,
                     &body)) {
    case FrameParse::kFrame:
      break;
    case FrameParse::kNeedMore:
      return Next::kNeedMore;
    case FrameParse::kTooLarge:
      error_ = Status::InvalidArgument(
          "frame length " + std::to_string(LoadFixed32(buf_.data() + pos_)) +
          " exceeds limit " + std::to_string(max_frame_bytes_));
      return Next::kError;
    case FrameParse::kBadCrc:
      error_ = Status::Corruption("frame CRC mismatch");
      return Next::kError;
  }
  payload->assign(body.data(), body.size());
  pos_ += kFrameHeaderBytes + body.size();
  return Next::kFrame;
}

}  // namespace cqms
