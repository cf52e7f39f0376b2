// Sharded streaming ingest server (DESIGN.md §5e).
//
// Sessions (one per connection, any thread) parse ingest frames
// (ingest/frame.h), check each Records frame's rows with
// core::check_device_run, and route each device batch to the shard
// owning the device (`device % shards`). Each shard has one worker
// thread of its own. It drains a bounded FIFO queue — blocking
// producers when it falls behind (backpressure), or dropping batches
// with a counter in shed mode — and commits each batch by moving it into
// its device's list of batches, with no copy, or, while the device's last
// batch is small, by appending it there. result() runs the ordinary
// batch kernels over the committed batches, mid-stream or after it.
//
// Error discipline: every malformed input — truncated frame, bad CRC,
// wrong version, a row the validator rejects, bins that do not ascend
// across a device's frames — fails only the session that sent it
// (counted in `sessions_failed`/`frames_rejected`) and never the
// server; committed data from other sessions is unaffected. This
// mirrors the snapshot loader's corruption handling.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/incremental.h"
#include "core/column.h"
#include "core/cow_vector.h"
#include "ingest/frame.h"
#include "ingest/queue.h"

namespace tokyonet::ingest {

struct IngestConfig {
  /// Worker shards; devices map to shards by `device % shards`.
  int shards = 1;
  /// Records frames buffered per shard queue before the overflow
  /// discipline kicks in.
  std::size_t queue_capacity = 64;
  /// false: producers block until the worker catches up (lossless
  /// backpressure). true: full queues drop batches, counted in
  /// `batches_shed`/`records_shed`.
  bool shed_on_overflow = false;
};

/// Monotonic counters, snapshot via IngestServer::counters().
struct IngestCounters {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;  // clean End + finish()
  std::uint64_t sessions_failed = 0;  // malformed frame or protocol error
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t batches_committed = 0;
  std::uint64_t records_committed = 0;
  std::uint64_t app_records_committed = 0;
  std::uint64_t batches_shed = 0;
  std::uint64_t records_shed = 0;
};

class IngestServer {
 public:
  explicit IngestServer(IngestConfig config = {});
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// One connection's receive state. feed() accepts arbitrary byte
  /// chunks (a TCP read, a whole encoded stream); the first malformed
  /// byte fails the session permanently. Not thread-safe: a session
  /// belongs to the one thread driving its connection.
  class Session {
   public:
    ~Session();

    /// Parses and routes every complete frame in `bytes`. Returns false
    /// once the session has failed; error() says why.
    [[nodiscard]] bool feed(std::span<const std::uint8_t> bytes);

    /// Call at end of input. True only for a clean stream: Begin seen,
    /// End seen, no trailing bytes.
    [[nodiscard]] bool finish();

    [[nodiscard]] const std::string& error() const noexcept {
      return error_;
    }

   private:
    friend class IngestServer;
    explicit Session(IngestServer& server) : server_(&server) {}
    bool fail(std::string what);
    bool on_frame(Frame& f);
    void settle(bool clean);

    IngestServer* server_;
    FrameParser parser_;
    BeginPayload campaign_;  // valid once begun_
    std::string error_;
    bool begun_ = false;
    bool ended_ = false;
    bool failed_ = false;
    bool settled_ = false;
  };

  /// Opens a new session. The server must outlive it.
  [[nodiscard]] std::unique_ptr<Session> connect();

  /// Closes the shard queues, drains what is already enqueued, and
  /// stops the workers. Call after all sessions are finished; sessions
  /// still feeding fail cleanly. Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] IngestCounters counters() const;

  /// Campaign announced by the first Begin frame (nullopt before).
  [[nodiscard]] std::optional<BeginPayload> campaign() const;

  /// batch_stream_result over everything committed so far, safe
  /// mid-stream: holds every shard's commit lock while the kernels scan
  /// one block per shard (a contiguous device range gathered from the
  /// shards' batches, one block resident at a time). Empty before the
  /// first Begin frame.
  [[nodiscard]] analysis::StreamResult result() const;

  /// Everything committed so far as one Dataset, devices in id order:
  /// the producer's columns, layout and app records, byte for byte,
  /// when nothing was shed (a device without app records gets an empty
  /// range where the previous device's ended). Devices carry only their
  /// ids and APs only their count: frames carry neither table. Empty
  /// before Begin.
  [[nodiscard]] Dataset collect() const;

  /// Pauses shard `shard`'s worker before its next commit for as long
  /// as the lock is held; result() and collect() still run. Used by
  /// tests (deterministic backpressure, a fixed mid-stream point).
  [[nodiscard]] std::unique_lock<std::mutex> freeze_shard(int shard);

  [[nodiscard]] const IngestConfig& config() const noexcept {
    return config_;
  }

 private:
  /// One device batch in flight between a session and a shard worker.
  struct Batch {
    DeviceId device{};
    SampleColumns samples;
    AppColumns app;
  };

  /// One shard: its queue, its worker and its committed batches.
  struct Shard {
    explicit Shard(std::size_t queue_capacity) : queue(queue_capacity) {}

    BoundedQueue<Batch> queue;
    std::thread worker;
    /// Orders route()'s bin check and queue push per device. Guards
    /// next_bin: per owned device (local index = device / shards), the
    /// lowest bin its next frame may start at.
    std::mutex route_mu;
    std::vector<std::uint32_t> next_bin;
    /// Held by the worker while it commits, and by freeze_shard().
    std::mutex gate;
    /// Guards the committed data below.
    mutable std::mutex mu;
    /// Per owned device: its committed batches, in arrival (= bin) order;
    /// all but the last hold at least kMinBatchRows rows (server.cc).
    std::vector<std::vector<Batch>> batches;
  };

  class CommittedSource;

  [[nodiscard]] bool handle_begin(const BeginPayload& info,
                                  std::string* error);
  [[nodiscard]] bool route(Batch batch, std::string* error);
  void worker_loop(Shard& shard);
  void commit(Shard& shard, std::size_t local_device, Batch batch);
  /// Devices [first, last) as a block Dataset with local device ids.
  /// Callers hold every shard's `mu`.
  [[nodiscard]] Dataset gather(const BeginPayload& info, std::size_t first,
                               std::size_t last) const;
  [[nodiscard]] std::vector<std::unique_lock<std::mutex>> lock_shards() const;

  IngestConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex init_mu_;  // guards begin_, aps_ and shut_down_
  std::optional<BeginPayload> begin_;
  core::CowVector<ApInfo> aps_;  // the announced AP universe (ids only)
  bool shut_down_ = false;

  // Counters (relaxed: monotonic statistics, no ordering needed).
  std::atomic<std::uint64_t> sessions_opened_{0}, sessions_closed_{0},
      sessions_failed_{0}, frames_accepted_{0}, frames_rejected_{0},
      bytes_received_{0}, batches_committed_{0}, records_committed_{0},
      app_records_committed_{0}, batches_shed_{0}, records_shed_{0};
};

}  // namespace tokyonet::ingest
