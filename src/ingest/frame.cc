#include "ingest/frame.h"

#include <cstddef>
#include <cstring>
#include <span>

#include "core/hash.h"

namespace tokyonet::ingest {
namespace {

constexpr std::uint64_t kFrameHashSeed = 0x746B796F696E6731ull;

[[nodiscard]] std::uint64_t payload_crc(const std::uint8_t* data,
                                        std::size_t n) noexcept {
  return core::hash_bytes_striped(data, n, kFrameHashSeed);
}

void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                  std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + n);
}

/// Appends one frame to `out`; `write_payload()` appends its payload.
template <typename WritePayload>
void append_frame(FrameType type, std::uint32_t device,
                  std::uint32_t n_samples, std::uint32_t n_app,
                  std::vector<std::uint8_t>& out,
                  WritePayload&& write_payload) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(FrameHeader));
  write_payload();
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(type);
  h.device = device;
  h.n_samples = n_samples;
  h.n_app = n_app;
  h.payload_bytes = static_cast<std::uint32_t>(out.size() - at - sizeof(h));
  h.payload_crc = payload_crc(out.data() + at + sizeof(h), h.payload_bytes);
  std::memcpy(out.data() + at, &h, sizeof(h));
}

/// Bytes of one row across every column of `Columns`.
template <typename Columns>
[[nodiscard]] std::uint32_t row_bytes() {
  std::uint32_t n = 0;
  const Columns cols;
  Columns::for_each([&](const auto& c) { n += sizeof(c[0]); }, cols);
  return n;
}

/// Appends records [begin, end) of every column of `cols`, each column
/// contiguous, in for_each order.
template <typename Columns>
void append_columns(std::vector<std::uint8_t>& out, const Columns& cols,
                    std::size_t begin, std::size_t end) {
  Columns::for_each(
      [&](const auto& c) {
        append_bytes(out, c.data() + begin, (end - begin) * sizeof(c[0]));
      },
      cols);
}

/// Reads `n` records of every column of `out` from `payload`, in the
/// order append_columns writes them, and advances `payload`. Empty
/// columns may hold no storage at all: zero-length copies, whose null
/// pointers memcpy must not receive, are skipped.
template <typename Columns>
void take_columns(Columns& out, std::size_t n, const std::uint8_t*& payload) {
  Columns::for_each(
      [&](auto& c) {
        c.resize_for_overwrite(n);
        const std::size_t bytes = n * sizeof(c[0]);
        if (bytes > 0) std::memcpy(c.data(), payload, bytes);
        payload += bytes;
      },
      out);
}

}  // namespace

std::uint32_t sample_row_bytes() {
  static const std::uint32_t bytes = row_bytes<SampleColumns>();
  return bytes;
}

std::uint32_t app_row_bytes() {
  static const std::uint32_t bytes = row_bytes<AppColumns>();
  return bytes;
}

void encode_begin(const BeginPayload& info, std::vector<std::uint8_t>& out) {
  append_frame(FrameType::Begin, 0, 0, 0, out,
               [&] { append_bytes(out, &info, sizeof(info)); });
}

void encode_records(DeviceId device, const SampleColumns& cols,
                    std::size_t begin, std::size_t end, const AppColumns& app,
                    std::size_t app_begin, std::size_t app_end,
                    std::vector<std::uint8_t>& out) {
  append_frame(FrameType::Records, value(device),
               static_cast<std::uint32_t>(end - begin),
               static_cast<std::uint32_t>(app_end - app_begin), out, [&] {
                 append_columns(out, cols, begin, end);
                 append_columns(out, app, app_begin, app_end);
               });
}

void encode_end(std::vector<std::uint8_t>& out) {
  append_frame(FrameType::End, 0, 0, 0, out, [] {});
}

// --- FrameParser --------------------------------------------------------

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  if (failed()) return;
  // Compact the consumed prefix before growing, so a long stream never
  // accumulates more than one frame of slack.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

FrameParser::Status FrameParser::fail(std::string what) {
  error_ = std::move(what);
  buf_.clear();
  pos_ = 0;
  return Status::Error;
}

FrameParser::Status FrameParser::next(Frame& out) {
  if (failed()) return Status::Error;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < sizeof(FrameHeader)) return Status::NeedMore;

  FrameHeader h;
  std::memcpy(&h, buf_.data() + pos_, sizeof(h));
  if (h.magic != kFrameMagic) {
    return fail("bad frame magic (not a tokyonet ingest stream)");
  }
  if (h.version != kIngestVersion) {
    return fail("unsupported ingest frame version " +
                std::to_string(h.version) + " (this build speaks " +
                std::to_string(kIngestVersion) + ")");
  }
  if (h.payload_bytes > kMaxFramePayload) {
    return fail("frame payload of " + std::to_string(h.payload_bytes) +
                " bytes exceeds the " + std::to_string(kMaxFramePayload) +
                "-byte limit");
  }

  // Per-type length arithmetic, before waiting for the payload, so a
  // nonsense header fails immediately rather than after a long read.
  const auto type = static_cast<FrameType>(h.type);
  switch (type) {
    case FrameType::Begin:
      if (h.payload_bytes != sizeof(BeginPayload) || h.n_samples != 0 ||
          h.n_app != 0 || h.device != 0) {
        return fail("malformed Begin frame header");
      }
      break;
    case FrameType::Records: {
      const std::uint64_t want =
          std::uint64_t{h.n_samples} * sample_row_bytes() +
          std::uint64_t{h.n_app} * app_row_bytes();
      if (want != h.payload_bytes) {
        return fail("Records frame length mismatch: header claims " +
                    std::to_string(h.n_samples) + " samples + " +
                    std::to_string(h.n_app) + " app records but " +
                    std::to_string(h.payload_bytes) + " payload bytes");
      }
      break;
    }
    case FrameType::End:
      if (h.payload_bytes != 0 || h.n_samples != 0 || h.n_app != 0 ||
          h.device != 0) {
        return fail("malformed End frame header");
      }
      break;
    default:
      return fail("unknown frame type " + std::to_string(h.type));
  }

  if (avail < sizeof(FrameHeader) + h.payload_bytes) return Status::NeedMore;
  const std::uint8_t* payload = buf_.data() + pos_ + sizeof(FrameHeader);
  if (payload_crc(payload, h.payload_bytes) != h.payload_crc) {
    return fail("frame CRC mismatch (corrupted payload)");
  }

  out = Frame{};
  out.type = type;
  out.device = DeviceId{h.device};
  if (type == FrameType::Begin) {
    std::memcpy(&out.begin, payload, sizeof(BeginPayload));
    if (out.begin.sample_size != sample_row_bytes() ||
        out.begin.app_size != app_row_bytes()) {
      return fail("record size mismatch (incompatible producer layout)");
    }
  } else if (type == FrameType::Records) {
    take_columns(out.samples, h.n_samples, payload);
    take_columns(out.app, h.n_app, payload);
  }

  pos_ += sizeof(FrameHeader) + h.payload_bytes;
  return Status::Frame;
}

}  // namespace tokyonet::ingest
