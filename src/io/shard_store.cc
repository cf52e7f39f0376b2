#include "io/shard_store.h"

#include <cerrno>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <span>
#include <system_error>
#include <thread>

#include "core/env.h"
#include "core/hash.h"

namespace tokyonet::io {
namespace {

namespace fs = std::filesystem;

/// Seed for the whole-manifest trailing checksum ("tkshard1").
constexpr std::uint64_t kManifestHashSeed = 0x746B736861726431ull;

[[nodiscard]] std::string dir_err(const fs::path& dir,
                                  const std::string& what) {
  return dir.string() + ": " + what;
}

void append_line(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += buf;
  out += '\n';
}

/// Renders the manifest body — everything the trailing checksum covers.
[[nodiscard]] std::string render_body(const ShardManifest& m) {
  std::string out;
  append_line(out, "tokyonet-shards %u", m.version);
  append_line(out, "snapshot_version %u", m.snapshot_version);
  append_line(out, "year %d", m.year);
  append_line(out, "start %04d-%02d-%02d", m.start.year, m.start.month,
              m.start.day);
  append_line(out, "num_days %d", m.num_days);
  append_line(out, "scenario_hash %016" PRIx64, m.scenario_hash);
  append_line(out, "devices %" PRIu64, m.n_devices);
  append_line(out, "aps %" PRIu64, m.n_aps);
  append_line(out, "samples %" PRIu64, m.n_samples);
  append_line(out, "app_traffic %" PRIu64, m.n_app_traffic);
  append_line(out, "universe %s %" PRIu64 " %016" PRIx64,
              m.universe_file.c_str(), m.universe_bytes, m.universe_checksum);
  append_line(out, "shards %zu", m.shards.size());
  for (const ShardEntry& s : m.shards) {
    append_line(out,
                "shard %u %s %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %016" PRIx64,
                s.index, s.file.c_str(), s.device_begin, s.device_count,
                s.n_samples, s.n_app_traffic, s.file_bytes, s.header_checksum);
  }
  return out;
}

/// Structural validation shared by read (always) — the writer is left
/// unchecked on purpose, so tests can produce malformed manifests.
[[nodiscard]] std::string check_manifest(const ShardManifest& m) {
  if (m.version != kShardStoreVersion) {
    return "unsupported shard-store version " + std::to_string(m.version) +
           " (this build reads " + std::to_string(kShardStoreVersion) + ")";
  }
  if (m.snapshot_version != kSnapshotVersion) {
    return "unsupported snapshot version " +
           std::to_string(m.snapshot_version) + " in manifest";
  }
  if (m.year < 2013 || m.year > 2015) {
    return "campaign year " + std::to_string(m.year) + " out of range";
  }
  if (m.num_days < 1) return "implausible calendar";
  if (m.universe_file.empty()) return "manifest names no universe file";
  if (m.shards.empty()) return "manifest lists no shards";

  std::uint64_t next_begin = 0, samples = 0, apps = 0;
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    const ShardEntry& s = m.shards[i];
    if (s.index != i) {
      return "shard entries out of order (entry " + std::to_string(i) +
             " has index " + std::to_string(s.index) + ")";
    }
    if (s.file.empty()) {
      return "shard " + std::to_string(i) + " names no file";
    }
    if (s.device_count == 0) {
      return "shard " + std::to_string(i) + " covers no devices";
    }
    if (s.device_begin != next_begin) {
      return "shard device ranges must be contiguous and non-overlapping: "
             "shard " +
             std::to_string(i) + " begins at " +
             std::to_string(s.device_begin) + ", expected " +
             std::to_string(next_begin);
    }
    next_begin += s.device_count;
    samples += s.n_samples;
    apps += s.n_app_traffic;
  }
  if (next_begin != m.n_devices) {
    return "shard device ranges cover " + std::to_string(next_begin) +
           " of " + std::to_string(m.n_devices) + " devices";
  }
  if (samples != m.n_samples) {
    return "shard sample counts sum to " + std::to_string(samples) +
           ", manifest says " + std::to_string(m.n_samples);
  }
  if (apps != m.n_app_traffic) {
    return "shard app-traffic counts sum to " + std::to_string(apps) +
           ", manifest says " + std::to_string(m.n_app_traffic);
  }
  return {};
}

}  // namespace

bool is_shard_dir(const fs::path& dir) {
  std::error_code ec;
  return fs::is_regular_file(dir / kShardManifestName, ec);
}

std::size_t resident_shards_from_env(std::size_t fallback) noexcept {
  return static_cast<std::size_t>(core::env_integer(
      "TOKYONET_RESIDENT_SHARDS", 0, 4096, static_cast<long>(fallback)));
}

SnapshotResult write_shard_manifest(const ShardManifest& m,
                                    const fs::path& dir) {
  SnapshotResult result;
  std::string text = render_body(m);
  const std::uint64_t checksum =
      core::hash_bytes(text.data(), text.size(), kManifestHashSeed);
  append_line(text, "checksum %016" PRIx64, checksum);

  const fs::path path = dir / kShardManifestName;
  const fs::path tmp = path.string() + ".tmp";
  std::FILE* f = std::fopen(tmp.string().c_str(), "wb");
  if (f == nullptr) {
    result.error = dir_err(tmp, std::strerror(errno));
    return result;
  }
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  std::error_code ec;
  if (!ok) {
    result.error = dir_err(tmp, "write failed");
    fs::remove(tmp, ec);
    return result;
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    result.error = dir_err(path, "rename failed: " + ec.message());
    fs::remove(tmp, ec);
  }
  return result;
}

SnapshotResult read_shard_manifest(const fs::path& dir, ShardManifest& out) {
  SnapshotResult result;
  out = ShardManifest{};
  out.version = 0;
  out.snapshot_version = 0;

  const fs::path path = dir / kShardManifestName;
  std::error_code ec;
  if (!fs::is_regular_file(path, ec)) {
    // The manifest is the directory's commit record: a streaming writer
    // killed mid-campaign leaves shard files but no manifest.
    result.error =
        dir_err(dir, "not a shard directory (no MANIFEST.tks; partial or "
                     "foreign directory)");
    return result;
  }

  std::string text;
  {
    std::FILE* f = std::fopen(path.string().c_str(), "rb");
    if (f == nullptr) {
      result.error = dir_err(path, std::strerror(errno));
      return result;
    }
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    const bool ok = std::feof(f) != 0;
    std::fclose(f);
    if (!ok || text.size() > (std::size_t{64} << 20)) {
      result.error = dir_err(path, "unreadable or implausibly large");
      return result;
    }
  }

  // Split off the trailing "checksum <hex>" line and verify the body.
  if (text.size() < 2 || text.back() != '\n') {
    result.error = dir_err(path, "missing trailing checksum line");
    return result;
  }
  const std::size_t last_nl = text.find_last_of('\n', text.size() - 2);
  const std::size_t body_end =
      last_nl == std::string::npos ? 0 : last_nl + 1;
  std::uint64_t stored = 0;
  if (std::sscanf(text.c_str() + body_end, "checksum %" SCNx64, &stored) != 1) {
    result.error = dir_err(path, "missing trailing checksum line");
    return result;
  }
  if (core::hash_bytes(text.data(), body_end, kManifestHashSeed) != stored) {
    result.error = dir_err(path, "manifest checksum mismatch (corrupted?)");
    return result;
  }

  // Line-by-line parse of the body.
  std::size_t pos = 0;
  std::uint64_t declared_shards = 0;
  bool have_shards_count = false;
  while (pos < body_end) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos || eol >= body_end) eol = body_end - 1;
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const char* c = line.c_str();
    char name[128];
    ShardEntry e;
    if (std::sscanf(c, "tokyonet-shards %u", &out.version) == 1 ||
        std::sscanf(c, "snapshot_version %u", &out.snapshot_version) == 1 ||
        std::sscanf(c, "year %d", &out.year) == 1 ||
        std::sscanf(c, "start %d-%d-%d", &out.start.year, &out.start.month,
                    &out.start.day) == 3 ||
        std::sscanf(c, "num_days %d", &out.num_days) == 1 ||
        std::sscanf(c, "scenario_hash %" SCNx64, &out.scenario_hash) == 1 ||
        std::sscanf(c, "devices %" SCNu64, &out.n_devices) == 1 ||
        std::sscanf(c, "aps %" SCNu64, &out.n_aps) == 1 ||
        std::sscanf(c, "samples %" SCNu64, &out.n_samples) == 1 ||
        std::sscanf(c, "app_traffic %" SCNu64, &out.n_app_traffic) == 1) {
      continue;
    }
    if (std::sscanf(c, "universe %127s %" SCNu64 " %" SCNx64, name,
                    &out.universe_bytes, &out.universe_checksum) == 3) {
      out.universe_file = name;
      continue;
    }
    if (std::sscanf(c, "shards %" SCNu64, &declared_shards) == 1) {
      have_shards_count = true;
      continue;
    }
    if (std::sscanf(c,
                    "shard %u %127s %" SCNu64 " %" SCNu64 " %" SCNu64
                    " %" SCNu64 " %" SCNu64 " %" SCNx64,
                    &e.index, name, &e.device_begin, &e.device_count,
                    &e.n_samples, &e.n_app_traffic, &e.file_bytes,
                    &e.header_checksum) == 8) {
      e.file = name;
      out.shards.push_back(std::move(e));
      continue;
    }
    result.error = dir_err(path, "unrecognized manifest line: " + line);
    return result;
  }

  if (!have_shards_count || declared_shards != out.shards.size()) {
    result.error = dir_err(
        path, "manifest declares " + std::to_string(declared_shards) +
                  " shards but lists " + std::to_string(out.shards.size()));
    return result;
  }
  const std::string invalid = check_manifest(out);
  if (!invalid.empty()) {
    result.error = dir_err(path, invalid);
    return result;
  }
  return result;
}

namespace {

/// Header-level identity check of one referenced snapshot file against
/// what the manifest recorded for it.
[[nodiscard]] std::string check_file(const fs::path& path,
                                     const ShardManifest& m,
                                     std::uint64_t expect_bytes,
                                     std::uint64_t expect_checksum,
                                     std::uint64_t expect_devices,
                                     bool is_universe, SnapshotInfo& info) {
  std::error_code ec;
  if (!fs::is_regular_file(path, ec)) return "missing file";
  const std::uint64_t actual = fs::file_size(path, ec);
  if (ec) return "cannot stat: " + ec.message();
  if (actual != expect_bytes) {
    return "size mismatch: " + std::to_string(actual) + " bytes on disk, " +
           std::to_string(expect_bytes) + " in the manifest (truncated?)";
  }
  const SnapshotResult r = read_snapshot_info(path, info);
  if (!r.ok()) return r.error;
  if (info.scenario_hash != m.scenario_hash) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "scenario hash mismatch: file %016" PRIx64
                  ", manifest %016" PRIx64,
                  info.scenario_hash, m.scenario_hash);
    return buf;
  }
  if (info.header_checksum != expect_checksum) {
    return "snapshot header checksum does not match the manifest "
           "(swapped or regenerated file?)";
  }
  if (info.n_devices != expect_devices) {
    return "device count mismatch: file has " +
           std::to_string(info.n_devices) + ", manifest says " +
           std::to_string(expect_devices);
  }
  if (info.year != m.year || info.num_days != m.num_days ||
      info.start.year != m.start.year || info.start.month != m.start.month ||
      info.start.day != m.start.day) {
    return "campaign frame does not match the manifest";
  }
  if (is_universe && info.n_aps != m.n_aps) {
    return "universe AP count mismatch";
  }
  return {};
}

}  // namespace

SnapshotResult verify_shard_store(const fs::path& dir,
                                  const ShardManifest& m) {
  SnapshotResult result;
  SnapshotInfo info;
  {
    const fs::path p = dir / m.universe_file;
    const std::string err = check_file(p, m, m.universe_bytes,
                                       m.universe_checksum, 0, true, info);
    if (!err.empty()) {
      result.error = p.string() + ": " + err;
      return result;
    }
  }
  for (const ShardEntry& s : m.shards) {
    const fs::path p = dir / s.file;
    const std::string err = check_file(p, m, s.file_bytes, s.header_checksum,
                                       s.device_count, false, info);
    if (!err.empty()) {
      result.error = p.string() + ": shard " + std::to_string(s.index) +
                     ": " + err;
      return result;
    }
    if (info.n_samples != s.n_samples ||
        info.n_app_traffic != s.n_app_traffic) {
      result.error = p.string() + ": shard " + std::to_string(s.index) +
                     ": sample/app-traffic counts do not match the manifest";
      return result;
    }
  }
  return result;
}

SnapshotResult ShardedDataset::open(const fs::path& dir, ShardedDataset& out,
                                    const SnapshotLoadOptions& opts) {
  out = ShardedDataset{};
  SnapshotResult result = read_shard_manifest(dir, out.manifest_);
  if (!result.ok()) return result;
  result = verify_shard_store(dir, out.manifest_);
  if (!result.ok()) return result;

  // The universe stays resident: every shard shares it, and it is tiny
  // next to one shard's samples.
  result = load_snapshot(dir / out.manifest_.universe_file, out.universe_, opts);
  if (!result.ok()) return result;
  out.dir_ = dir;

  // Once-per-open payload verification state: cleared flags here, set
  // by the first successful load of each shard.
  const std::size_t n_shards = out.manifest_.shards.size();
  out.payload_verified_ =
      std::shared_ptr<std::atomic<bool>[]>(new std::atomic<bool>[n_shards]);
  for (std::size_t i = 0; i < n_shards; ++i) {
    out.payload_verified_.get()[i].store(false, std::memory_order_relaxed);
  }
  return result;
}

SnapshotResult ShardedDataset::load_shard(std::size_t i, Dataset& out,
                                          const SnapshotLoadOptions& opts) {
  SnapshotResult result;
  if (i >= manifest_.shards.size()) {
    result.error = dir_err(dir_, "shard index " + std::to_string(i) +
                                     " out of range");
    return result;
  }
  const ShardEntry& entry = manifest_.shards[i];
  const fs::path path = dir_ / entry.file;

  // Every load re-reads the file's size and header: a file whose size
  // differs from what its section table implies, or whose header is not
  // the one the manifest recorded, is rejected before it is mapped or
  // hashed. Payload checksums are rehashed only on the shard's first
  // load this open. The file carries no AP universe, so the shared one
  // is installed before the columns are validated against it — on
  // every load. The universe's own checks ran once, when open() loaded
  // it.
  SnapshotLoadOptions sopts = opts;
  sopts.universe = &universe_;
  sopts.expect_header_checksum = entry.header_checksum;
  const bool verified =
      payload_verified_ != nullptr &&
      payload_verified_.get()[i].load(std::memory_order_acquire);
  if (verified) sopts.verify_payload = false;
  result = load_snapshot(path, out, sopts);
  if (!result.ok()) return result;
  if (payload_verified_ != nullptr && sopts.verify_payload) {
    payload_verified_.get()[i].store(true, std::memory_order_release);
  }
  return result;
}

// --- ShardPrefetcher ---------------------------------------------------

struct ShardPrefetcher::Impl {
  /// State shared between the loader thread, the consumer, and any
  /// still-alive residency tokens (tokens co-own it so a token dropped
  /// after the prefetcher's destruction stays harmless).
  struct Shared {
    std::mutex mu;
    std::condition_variable token_cv;  // loader waits for a free token
    std::condition_variable ready_cv;  // consumer waits for a delivery
    std::size_t free_tokens = 0;
    bool cancelled = false;
    bool done = false;
    std::deque<Loaded> ready;  // in shard order (single loader)
  };
  std::shared_ptr<Shared> sh;
  std::thread loader;

  [[nodiscard]] static std::shared_ptr<void> make_token(
      std::shared_ptr<Shared> s) {
    // Store a non-null pointer so the token tests truthy; the deleter
    // alone carries the semantics (return one residency slot).
    void* mark = s.get();
    return std::shared_ptr<void>(mark, [s = std::move(s)](void*) {
      std::lock_guard<std::mutex> lk(s->mu);
      ++s->free_tokens;
      s->token_cv.notify_one();
    });
  }
};

ShardPrefetcher::ShardPrefetcher(ShardedDataset& store,
                                 std::size_t max_resident,
                                 const SnapshotLoadOptions& opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->sh = std::make_shared<Impl::Shared>();
  impl_->sh->free_tokens = max_resident < 1 ? 1 : max_resident;
  impl_->loader = std::thread([sh = impl_->sh, &store, opts] {
    const std::size_t n = store.num_shards();
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lk(sh->mu);
        sh->token_cv.wait(
            lk, [&] { return sh->free_tokens > 0 || sh->cancelled; });
        if (sh->cancelled) break;
        --sh->free_tokens;
      }
      Loaded item;
      item.index = i;
      try {
        item.token = Impl::make_token(sh);
        item.result = store.load_shard(i, item.dataset, opts);
      } catch (...) {
        item.dataset = Dataset{};
        item.exception = std::current_exception();
      }
      const bool failed = !item.result.ok() || item.exception;
      {
        std::lock_guard<std::mutex> lk(sh->mu);
        sh->ready.push_back(std::move(item));
        sh->ready_cv.notify_all();
      }
      // An errored load is delivered at its position, then the loader
      // stops: the consumer sees the failure in order with nothing
      // queued behind it.
      if (failed) break;
    }
    std::lock_guard<std::mutex> lk(sh->mu);
    sh->done = true;
    sh->ready_cv.notify_all();
  });
}

ShardPrefetcher::~ShardPrefetcher() {
  cancel();
  if (impl_->loader.joinable()) impl_->loader.join();
  // Drain undelivered items outside the lock: each holds a token whose
  // deleter both locks sh->mu and keeps Shared alive (a reference
  // cycle through the ready queue if left in place).
  std::deque<Loaded> undelivered;
  {
    std::lock_guard<std::mutex> lk(impl_->sh->mu);
    undelivered.swap(impl_->sh->ready);
  }
}

bool ShardPrefetcher::next(Loaded& out) {
  Impl::Shared& sh = *impl_->sh;
  Loaded item;
  {
    std::unique_lock<std::mutex> lk(sh.mu);
    sh.ready_cv.wait(lk, [&] { return !sh.ready.empty() || sh.done; });
    if (sh.ready.empty()) return false;
    item = std::move(sh.ready.front());
    sh.ready.pop_front();
  }
  // Assign outside the lock: dropping the caller's *previous* Loaded
  // releases its residency token, whose deleter locks sh.mu.
  out = std::move(item);
  return true;
}

void ShardPrefetcher::cancel() {
  Impl::Shared& sh = *impl_->sh;
  std::lock_guard<std::mutex> lk(sh.mu);
  sh.cancelled = true;
  sh.token_cv.notify_all();
}

}  // namespace tokyonet::io
