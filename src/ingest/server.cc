#include "ingest/server.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "analysis/query/source.h"
#include "core/dataset_index.h"

namespace tokyonet::ingest {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Universe-size ceiling for Begin frames; a header announcing more
/// devices or APs than this is treated as malformed rather than letting
/// one frame allocate per-entity state for billions of ids.
constexpr std::uint32_t kMaxUniverse = 1u << 24;

/// A committed batch with fewer rows takes the device's next batch into
/// its own columns. Every committed batch but a device's last then holds
/// at least this many rows, so a Batch's ~1 KB of column handles costs a
/// few bytes per row whatever size of frame the peer sends; frames of
/// this size or more are committed with no copy.
constexpr std::size_t kMinBatchRows = 256;

[[nodiscard]] bool validate_begin(const BeginPayload& info,
                                  std::string* error) {
  if (info.year < 2013 || info.year > 2015) {
    *error = "Begin frame announces an unknown campaign year " +
             std::to_string(info.year);
    return false;
  }
  if (info.num_days < 1 ||
      info.num_days > 0xFFFFu / static_cast<std::uint32_t>(kBinsPerDay)) {
    *error = "Begin frame announces an invalid campaign length of " +
             std::to_string(info.num_days) + " days";
    return false;
  }
  if (info.start_month < 1 || info.start_month > 12 || info.start_day < 1 ||
      info.start_day > 31) {
    *error = "Begin frame announces an invalid start date";
    return false;
  }
  if (info.n_devices > kMaxUniverse || info.n_aps > kMaxUniverse) {
    *error = "Begin frame announces an implausibly large universe";
    return false;
  }
  return true;
}

}  // namespace

/// The committed stream as a DataSource: one block per server shard,
/// each a contiguous device range gathered from the shards' batches
/// when the scan reaches it. Callers hold every shard paused.
class IngestServer::CommittedSource final : public analysis::query::DataSource {
 public:
  CommittedSource(const IngestServer& server, const BeginPayload& info)
      : server_(&server), info_(info), frame_(server.gather(info, 0, 0)) {
    for (const std::unique_ptr<Shard>& shard : server.shards_) {
      for (const std::vector<Batch>& device : shard->batches) {
        for (const Batch& batch : device) n_samples_ += batch.samples.size();
      }
    }
  }

  [[nodiscard]] Year year() const noexcept override { return frame_.year; }
  [[nodiscard]] const CampaignCalendar& calendar() const noexcept override {
    return frame_.calendar;
  }
  [[nodiscard]] std::size_t n_devices() const noexcept override {
    return info_.n_devices;
  }
  [[nodiscard]] std::size_t n_samples() const noexcept override {
    return n_samples_;
  }
  [[nodiscard]] const std::vector<ApInfo>& aps() const noexcept override {
    return frame_.aps;
  }
  [[nodiscard]] const Dataset* dataset_or_null() const noexcept override {
    return nullptr;
  }
  void fold_blocks(const ScanFn& scan, const FoldFn& fold) const override {
    const std::size_t n = info_.n_devices;
    const std::size_t blocks = server_->shards_.size();
    const std::size_t per_block = (n + blocks - 1) / blocks;
    for (std::size_t first = 0; first < n; first += per_block) {
      const Dataset block =
          server_->gather(info_, first, std::min(first + per_block, n));
      fold(scan(block, first), first);
    }
  }

 private:
  const IngestServer* server_;
  BeginPayload info_;
  Dataset frame_;  // no devices: the year, calendar and AP universe
  std::size_t n_samples_ = 0;
};

IngestServer::IngestServer(IngestConfig config) : config_(config) {
  if (config_.shards < 1) config_.shards = 1;
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

IngestServer::~IngestServer() { shutdown(); }

std::unique_ptr<IngestServer::Session> IngestServer::connect() {
  sessions_opened_.fetch_add(1, kRelaxed);
  return std::unique_ptr<Session>(new Session(*this));
}

void IngestServer::shutdown() {
  {
    // Set under every shard's lock, since commits read the flag under
    // their shard's; a commit already under way finishes first.
    std::vector<std::unique_lock<std::mutex>> locks;
    for (std::unique_ptr<Shard>& shard : shards_) locks.emplace_back(shard->mu);
    if (shut_down_.exchange(true)) return;
  }
  for (std::unique_ptr<Shard>& shard : shards_) shard->resumed.notify_all();
}

bool IngestServer::handle_begin(const BeginPayload& info,
                                std::string* error) {
  if (!validate_begin(info, error)) return false;

  std::lock_guard<std::mutex> lk(init_mu_);
  if (shut_down_.load()) {
    *error = "server is shut down";
    return false;
  }
  if (begin_.has_value()) {
    if (std::memcmp(&*begin_, &info, sizeof(BeginPayload)) != 0) {
      *error =
          "Begin frame announces a different campaign than the stream "
          "in progress";
      return false;
    }
    return true;  // another session joining the same campaign
  }

  const std::size_t per_shard =
      (info.n_devices + static_cast<std::uint32_t>(config_.shards) - 1) /
      static_cast<std::uint32_t>(config_.shards);
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->batches.assign(per_shard, {});
    shard->next_bin.assign(per_shard, 0);
  }
  aps_.mut().resize(info.n_aps);
  begin_ = info;
  return true;
}

bool IngestServer::route(Frame& frame, std::string* error) {
  const auto shards = static_cast<std::uint32_t>(config_.shards);
  const std::uint32_t device = value(frame.device);
  Shard& shard = *shards_[device % shards];
  const std::size_t n_records = frame.samples.size();
  // The bin check and the commit are one critical section, so a device's
  // batches commit in the order their bins were checked in. The counters
  // move under the lock too, so a reader holding every shard paused sees
  // counters that match the committed data.
  std::unique_lock<std::mutex> lk(shard.mu);
  if (!config_.shed_on_overflow) {
    shard.resumed.wait(lk,
                       [&] { return shard.pauses == 0 || shut_down_.load(); });
  }
  if (shut_down_.load()) {
    *error = "server shut down while the stream was in flight";
    return false;
  }
  if (n_records > 0) {
    std::uint32_t& next = shard.next_bin[device / shards];
    if (frame.samples.bin.front() < next) {
      frames_rejected_.fetch_add(1, kRelaxed);
      *error = "Records frame for device " + std::to_string(device) +
               " starts at bin " + std::to_string(frame.samples.bin.front()) +
               ", not after the device's last routed bin " +
               std::to_string(next - 1);
      return false;
    }
    next = std::uint32_t{frame.samples.bin.back()} + 1;
  }
  if (shard.pauses > 0) {  // shed mode: dropping is not a session error
    batches_shed_.fetch_add(1, kRelaxed);
    records_shed_.fetch_add(n_records, kRelaxed);
    return true;
  }
  batches_committed_.fetch_add(1, kRelaxed);
  records_committed_.fetch_add(n_records, kRelaxed);
  app_records_committed_.fetch_add(frame.app.size(), kRelaxed);
  std::vector<Batch>& batches = shard.batches[device / shards];
  if (batches.empty() || batches.back().samples.size() >= kMinBatchRows) {
    batches.push_back({std::move(frame.samples), std::move(frame.app)});
    return true;
  }
  // Reserving the floor first lets a run of small frames fill the last
  // batch with one reallocation.
  Batch& last = batches.back();
  const std::size_t rows =
      std::max(kMinBatchRows, last.samples.size() + n_records);
  SampleColumns::for_each(
      [rows](auto& to, const auto& from) {
        to.reserve(rows);
        to.insert(to.cend(), from.begin(), from.end());
      },
      last.samples, frame.samples);
  last.app.append(frame.app);
  return true;
}

Dataset IngestServer::gather(const BeginPayload& info, std::size_t first,
                             std::size_t last) const {
  const auto shards = static_cast<std::size_t>(config_.shards);
  Dataset block;
  block.year = static_cast<Year>(info.year - 2013);
  block.calendar = CampaignCalendar(
      Date{info.start_year, static_cast<int>(info.start_month),
           static_cast<int>(info.start_day)},
      static_cast<int>(info.num_days));
  {
    std::lock_guard<std::mutex> lk(init_mu_);
    block.aps = aps_;
  }
  block.devices.resize(last - first);
  for (std::size_t d = 0; d < block.devices.size(); ++d) {
    block.devices[d].id = DeviceId{static_cast<std::uint32_t>(d)};
  }

  std::size_t rows = 0, apps = 0;
  for (std::size_t d = first; d < last; ++d) {
    for (const Batch& b : shards_[d % shards]->batches[d / shards]) {
      rows += b.samples.size();
      apps += b.app.size();
    }
  }
  block.samples.resize_for_overwrite(rows);
  block.app_traffic.resize_for_overwrite(apps);
  core::SampleLayout layout;
  layout.device_offset.resize(block.devices.size() + 1);
  layout.app_range.resize(2 * block.devices.size());
  std::size_t row = 0, app = 0;
  for (std::size_t d = first; d < last; ++d) {
    layout.device_offset[d - first] = row;
    layout.app_range[2 * (d - first)] = app;
    for (const Batch& b : shards_[d % shards]->batches[d / shards]) {
      SampleColumns::for_each(
          [&](auto& to, const auto& from) {
            std::copy(from.begin(), from.end(), to.data() + row);
          },
          block.samples, b.samples);
      AppColumns::for_each(
          [&](auto& to, const auto& from) {
            std::copy(from.begin(), from.end(), to.data() + app);
          },
          block.app_traffic, b.app);
      row += b.samples.size();
      app += b.app.size();
    }
    layout.app_range[2 * (d - first) + 1] = app;
  }
  layout.device_offset.back() = row;
  // Every committed batch passed check_device_run, and route() kept each
  // device's bins ascending across batches, so the block is valid.
  if (std::string error = block.index_samples(std::move(layout));
      !error.empty()) {
    throw std::logic_error("ingest: committed rows fail validation: " + error);
  }
  return block;
}

void IngestServer::Resume::operator()(Shard* shard) const {
  {
    const std::lock_guard<std::mutex> lk(shard->mu);
    --shard->pauses;
  }
  shard->resumed.notify_all();
}

IngestServer::ShardPause IngestServer::freeze_shard(int shard) const {
  Shard& paused = *shards_[static_cast<std::size_t>(shard)];
  const std::lock_guard<std::mutex> lk(paused.mu);
  ++paused.pauses;
  return ShardPause(&paused);
}

std::vector<IngestServer::ShardPause> IngestServer::pause_shards() const {
  std::vector<ShardPause> pauses;
  pauses.reserve(shards_.size());
  for (int s = 0; s < config_.shards; ++s) pauses.push_back(freeze_shard(s));
  return pauses;
}

IngestCounters IngestServer::counters() const {
  IngestCounters c;
  c.sessions_opened = sessions_opened_.load(kRelaxed);
  c.sessions_closed = sessions_closed_.load(kRelaxed);
  c.sessions_failed = sessions_failed_.load(kRelaxed);
  c.frames_accepted = frames_accepted_.load(kRelaxed);
  c.frames_rejected = frames_rejected_.load(kRelaxed);
  c.bytes_received = bytes_received_.load(kRelaxed);
  c.batches_committed = batches_committed_.load(kRelaxed);
  c.records_committed = records_committed_.load(kRelaxed);
  c.app_records_committed = app_records_committed_.load(kRelaxed);
  c.batches_shed = batches_shed_.load(kRelaxed);
  c.records_shed = records_shed_.load(kRelaxed);
  return c;
}

std::optional<BeginPayload> IngestServer::campaign() const {
  std::lock_guard<std::mutex> lk(init_mu_);
  return begin_;
}

analysis::StreamResult IngestServer::result() const {
  const std::optional<BeginPayload> info = campaign();
  if (!info.has_value()) return {};
  const auto paused = pause_shards();
  return analysis::batch_stream_result(CommittedSource(*this, *info));
}

Dataset IngestServer::collect() const {
  const std::optional<BeginPayload> info = campaign();
  if (!info.has_value()) return {};
  const auto paused = pause_shards();
  return gather(*info, 0, info->n_devices);
}

// --- Session ------------------------------------------------------------

// A session destroyed without finish() counts as failed.
IngestServer::Session::~Session() { settle(/*clean=*/false); }

void IngestServer::Session::settle(bool clean) {
  if (settled_) return;
  settled_ = true;
  if (clean) {
    server_->sessions_closed_.fetch_add(1, kRelaxed);
  } else {
    server_->sessions_failed_.fetch_add(1, kRelaxed);
  }
}

bool IngestServer::Session::fail(std::string what) {
  if (!failed_) {
    failed_ = true;
    error_ = std::move(what);
    settle(/*clean=*/false);
  }
  return false;
}

bool IngestServer::Session::feed(std::span<const std::uint8_t> bytes) {
  if (failed_) return false;
  server_->bytes_received_.fetch_add(bytes.size(), kRelaxed);
  parser_.feed(bytes);
  for (;;) {
    Frame frame;
    switch (parser_.next(frame)) {
      case FrameParser::Status::Frame:
        if (!on_frame(frame)) return false;
        break;
      case FrameParser::Status::NeedMore:
        return true;
      case FrameParser::Status::Error:
        server_->frames_rejected_.fetch_add(1, kRelaxed);
        return fail(parser_.error());
    }
  }
}

bool IngestServer::Session::on_frame(Frame& frame) {
  // Any rule violation from here on is a *session* error: the frame
  // decoded, but breaks the stream protocol or the announced universe.
  const auto reject = [&](std::string what) {
    server_->frames_rejected_.fetch_add(1, kRelaxed);
    return fail(std::move(what));
  };

  if (ended_) return reject("frame after End");
  switch (frame.type) {
    case FrameType::Begin: {
      if (begun_) return reject("duplicate Begin frame");
      std::string error;
      if (!server_->handle_begin(frame.begin, &error)) {
        return reject(std::move(error));
      }
      campaign_ = frame.begin;
      begun_ = true;
      break;
    }
    case FrameType::Records: {
      if (!begun_) return reject("Records frame before Begin");
      const std::uint32_t device = value(frame.device);
      if (device >= campaign_.n_devices) {
        return reject("Records frame for device " + std::to_string(device) +
                      " outside the announced universe of " +
                      std::to_string(campaign_.n_devices));
      }
      const core::RunCheck check = core::check_device_run(
          frame.samples, frame.app.category.span(),
          {device, 0, frame.samples.size(), 0, frame.app.size()},
          {std::size_t{campaign_.num_days} * kBinsPerDay, campaign_.n_aps});
      if (!check.error.empty()) {
        return reject("Records frame for device " + std::to_string(device) +
                      ": " + check.error);
      }
      if (check.repeated_bins) {
        return reject("Records frame for device " + std::to_string(device) +
                      " repeats a bin");
      }
      std::string error;
      if (!server_->route(frame, &error)) return fail(std::move(error));
      break;
    }
    case FrameType::End:
      if (!begun_) return reject("End frame before Begin");
      ended_ = true;
      break;
  }
  server_->frames_accepted_.fetch_add(1, kRelaxed);
  return true;
}

bool IngestServer::Session::finish() {
  if (failed_) return false;
  if (!begun_) return fail("connection closed before Begin");
  if (!ended_) return fail("connection closed before End");
  if (parser_.pending_bytes() > 0) {
    return fail("trailing bytes after the last complete frame");
  }
  settle(/*clean=*/true);
  return true;
}

}  // namespace tokyonet::ingest
