// Sharded streaming ingest server (DESIGN.md §5e).
//
// Sessions (one per connection, any thread) parse ingest frames
// (ingest/frame.h), check each Records frame's rows with
// core::check_device_run, and commit each device batch, on the
// session's own thread, to the shard owning the device
// (`device % shards`): one critical section under the shard's lock
// checks that the device's bins ascend across frames and moves the
// batch into the device's list of batches, with no copy, or, while the
// device's last batch is small, appends it there. A paused shard
// (freeze_shard(), or a result()/collect() scan) makes a commit wait
// (lossless) or drop the batch with a counter (shed mode). result()
// runs the ordinary batch kernels over the committed batches,
// mid-stream or after it.
//
// Error discipline: every malformed input — truncated frame, bad CRC,
// wrong version, a row the validator rejects, bins that do not ascend
// across a device's frames — fails only the session that sent it
// (counted in `sessions_failed`/`frames_rejected`) and never the
// server; committed data from other sessions is unaffected. This
// mirrors the snapshot loader's corruption handling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/incremental.h"
#include "core/column.h"
#include "core/cow_vector.h"
#include "ingest/frame.h"

namespace tokyonet::ingest {

struct IngestConfig {
  /// Commit shards; devices map to shards by `device % shards`.
  int shards = 1;
  /// false: a commit to a paused shard waits until it resumes
  /// (lossless). true: it drops the batch, counted in
  /// `batches_shed`/`records_shed`. Sessions appending to the same
  /// shard only take turns; neither sheds for the other.
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
  struct Shard;

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

    /// Parses and commits every complete frame in `bytes`: when it
    /// returns true, every complete Records frame fed so far is
    /// committed (or shed). Returns false once the session has failed;
    /// error() says why.
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

  /// Stops committing: a Records frame after this, or one waiting on a
  /// paused shard, fails its session cleanly. Call after all sessions
  /// are finished. Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] IngestCounters counters() const;

  /// Campaign announced by the first Begin frame (nullopt before).
  [[nodiscard]] std::optional<BeginPayload> campaign() const;

  /// batch_stream_result over everything committed so far, safe
  /// mid-stream: pauses every shard while the kernels scan one block
  /// per shard (a contiguous device range gathered from the shards'
  /// batches, one block resident at a time). Empty before the first
  /// Begin frame.
  [[nodiscard]] analysis::StreamResult result() const;

  /// Everything committed so far as one Dataset, devices in id order:
  /// the producer's columns, layout and app records, byte for byte,
  /// when nothing was shed (a device without app records gets an empty
  /// range where the previous device's ended). Devices carry only their
  /// ids and APs only their count: frames carry neither table. Empty
  /// before Begin.
  [[nodiscard]] Dataset collect() const;

  /// Resumes a paused shard when destroyed.
  struct Resume {
    void operator()(Shard* shard) const;
  };
  using ShardPause = std::unique_ptr<Shard, Resume>;

  /// Pauses shard `shard`'s commits for as long as the handle lives;
  /// result() and collect() still run. Used by tests (deterministic
  /// backpressure and shedding, a fixed mid-stream point).
  [[nodiscard]] ShardPause freeze_shard(int shard) const;

  [[nodiscard]] const IngestConfig& config() const noexcept {
    return config_;
  }

 private:
  /// One committed batch of a device's rows.
  struct Batch {
    SampleColumns samples;
    AppColumns app;
  };

  /// One shard: its owned devices' bin cursors and committed batches.
  /// Devices map to local index `device / shards`.
  struct Shard {
    /// Guards everything below; a commit is one critical section.
    std::mutex mu;
    /// Signalled when `pauses` drops to 0 and on shutdown.
    std::condition_variable resumed;
    /// Live freeze_shard() handles and result()/collect() scans. While
    /// above 0, nothing below changes but `next_bin` (shed mode).
    int pauses = 0;
    /// Per owned device, the lowest bin its next frame may start at.
    std::vector<std::uint32_t> next_bin;
    /// Per owned device: its committed batches, in arrival (= bin) order;
    /// all but the last hold at least kMinBatchRows rows (server.cc).
    std::vector<std::vector<Batch>> batches;
  };

  class CommittedSource;

  [[nodiscard]] bool handle_begin(const BeginPayload& info,
                                  std::string* error);
  /// Checks a Records frame's bins against its device's last committed
  /// bin and commits it; false fails the session.
  [[nodiscard]] bool route(Frame& frame, std::string* error);
  /// Devices [first, last) as a block Dataset with local device ids.
  /// Callers hold every shard paused.
  [[nodiscard]] Dataset gather(const BeginPayload& info, std::size_t first,
                               std::size_t last) const;
  [[nodiscard]] std::vector<ShardPause> pause_shards() const;

  IngestConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex init_mu_;  // guards begin_ and aps_
  std::optional<BeginPayload> begin_;
  core::CowVector<ApInfo> aps_;  // the announced AP universe (ids only)
  /// Written under every shard's `mu`; atomic for handle_begin().
  std::atomic<bool> shut_down_{false};

  // Counters (relaxed: monotonic statistics, no ordering needed).
  std::atomic<std::uint64_t> sessions_opened_{0}, sessions_closed_{0},
      sessions_failed_{0}, frames_accepted_{0}, frames_rejected_{0},
      bytes_received_{0}, batches_committed_{0}, records_committed_{0},
      app_records_committed_{0}, batches_shed_{0}, records_shed_{0};
};

}  // namespace tokyonet::ingest
