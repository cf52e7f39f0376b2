// Wire format of the streaming ingest path (DESIGN.md §5e).
//
// A connection carries a sequence of length-prefixed, CRC-checked binary
// frames:
//
//   [ FrameHeader (32 B) | payload (header.payload_bytes) ]
//
// Three frame types:
//   Begin   — campaign metadata (calendar, device/AP universe sizes and
//             the native record widths, so a layout-skewed peer is
//             rejected exactly like an incompatible snapshot).
//   Records — one device's rows, time-ordered, as the 17 sample columns
//             (each contiguous, in SampleColumns::for_each order, at its
//             native width: the snapshot v3 section encoding), followed
//             by the rows' n_app app records as the 3 AppColumns columns
//             in the same encoding (9 bytes a record), in row order — a
//             row's app records are the next app_count records.
//   End     — clean end of stream (an EOF without End is an error).
//
// The payload CRC is core::hash_bytes_striped: the 64-bit word hash
// snapshot sections use, run as four independent stripes so a frame is
// checksummed at multiplier throughput rather than at one serial
// chain's. The parser enforces the framing (magic, version, type,
// length arithmetic, CRC); the server checks the rows themselves
// with core::check_device_run, the validator snapshots and shards go
// through. Either failure is a clean per-connection error — a
// malformed frame can never take the server down (ingest/server.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/records.h"

namespace tokyonet::ingest {

inline constexpr std::uint32_t kFrameMagic = 0x464B4954;  // "TIKF" LE
/// Bump on any change to the header, payload layouts, or CRC.
inline constexpr std::uint16_t kIngestVersion = 4;
/// Upper bound on a frame payload; a header announcing more is
/// malformed (it would otherwise let one bad length allocate GBs).
inline constexpr std::uint32_t kMaxFramePayload = 8u << 20;

enum class FrameType : std::uint16_t { Begin = 0, Records = 1, End = 2 };

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint16_t version = kIngestVersion;
  std::uint16_t type = 0;
  std::uint32_t device = 0;  // Records: device id; otherwise 0
  std::uint32_t n_samples = 0;
  std::uint32_t n_app = 0;
  std::uint32_t payload_bytes = 0;
  std::uint64_t payload_crc = 0;  // core::hash_bytes_striped of the payload
};
static_assert(sizeof(FrameHeader) == 32);

/// Bytes of one sample row across the 17 columns.
[[nodiscard]] std::uint32_t sample_row_bytes();
/// Bytes of one app record across the 3 columns.
[[nodiscard]] std::uint32_t app_row_bytes();

/// Begin payload: everything the server needs to size its per-device
/// state and validate later records.
struct BeginPayload {
  std::uint32_t year = 0;  // calendar year, 2013..2015
  std::int32_t start_year = 0;
  std::uint32_t start_month = 0;
  std::uint32_t start_day = 0;
  std::uint32_t num_days = 0;
  std::uint32_t n_devices = 0;
  std::uint32_t n_aps = 0;
  /// Native record widths of the producer; a disagreeing consumer
  /// rejects the session instead of misreading the stream.
  std::uint32_t sample_size = sample_row_bytes();
  std::uint32_t app_size = app_row_bytes();
  std::uint32_t reserved[3] = {};
};
static_assert(sizeof(BeginPayload) == 48);

/// One decoded frame; Records frames own their decoded columns.
struct Frame {
  FrameType type = FrameType::End;
  DeviceId device{};
  BeginPayload begin;  // Begin frames only
  SampleColumns samples;
  AppColumns app;
};

// --- Encoding -----------------------------------------------------------

/// Appends a Begin frame for `info` to `out`.
void encode_begin(const BeginPayload& info, std::vector<std::uint8_t>& out);

/// Appends a Records frame carrying rows [begin, end) of `cols` for one
/// device, with records [app_begin, app_end) of `app`: the rows' app
/// records, in row order.
void encode_records(DeviceId device, const SampleColumns& cols,
                    std::size_t begin, std::size_t end, const AppColumns& app,
                    std::size_t app_begin, std::size_t app_end,
                    std::vector<std::uint8_t>& out);

/// Appends an End frame to `out`.
void encode_end(std::vector<std::uint8_t>& out);

// --- Decoding -----------------------------------------------------------

/// Incremental frame parser over an arbitrary byte stream (TCP reads,
/// loopback chunks). Feed bytes, then drain frames:
///
///   parser.feed(bytes);
///   Frame f;
///   while (parser.next(f) == FrameParser::Status::Frame) { ... }
///
/// The first malformed byte poisons the parser: every later call
/// returns Error with a stable message. This mirrors a connection
/// teardown — there is no way to resynchronize a corrupt binary stream.
class FrameParser {
 public:
  enum class Status { Frame, NeedMore, Error };

  void feed(std::span<const std::uint8_t> bytes);

  /// Parses the next complete frame out of the buffered bytes.
  [[nodiscard]] Status next(Frame& out);

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  /// Bytes buffered but not yet consumed by a complete frame.
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  Status fail(std::string what);

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::string error_;
};

}  // namespace tokyonet::ingest
