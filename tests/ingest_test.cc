// Tests for the streaming ingest subsystem (src/ingest): frame
// encode/decode round-trips, malformed-frame handling, commit
// backpressure and shedding, concurrent sessions, the sharded server's
// error discipline, and the headline invariant — the kernels' result
// over a campaign replayed through ingest is byte-identical to their
// result over the campaign itself, at any shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "analysis/incremental.h"
#include "core/dataset_index.h"
#include "ingest/frame.h"
#include "ingest/replay.h"
#include "ingest/server.h"
#include "ingest/tcp.h"
#include "testutil.h"

namespace tokyonet::ingest {
namespace {

using analysis::batch_stream_result;
using analysis::compare_stream_results;
using analysis::StreamResult;

/// A 3-device, 2-day dataset with app records, an AP association and a
/// tethering sample — enough to touch every stream kernel.
Dataset tiny_dataset() {
  Dataset ds = test::empty_dataset(3, 2);
  const ApId ap = test::add_ap(ds, "home-net");
  std::vector<test::Row> rows;

  test::add_sample(rows, 0, 0, 5'000'000, 0).app_count = 2;
  ds.app_traffic.push_back(
      {.category = AppCategory::Video, .rx_bytes = 4'000'000,
       .tx_bytes = 100'000});
  ds.app_traffic.push_back(
      {.category = AppCategory::Social, .rx_bytes = 900'000,
       .tx_bytes = 50'000});
  test::add_sample(rows, 0, 150, 0, 2'000'000, WifiState::Associated, ap);
  test::add_sample(rows, 1, 3, 1'000'000, 0).tethering = true;
  test::add_sample(rows, 1, 200, 0, 7'000'000, WifiState::Associated, ap)
      .app_count = 1;
  ds.app_traffic.push_back(
      {.category = AppCategory::Browser, .rx_bytes = 6'000'000,
       .tx_bytes = 10'000});
  test::add_sample(rows, 2, 100, 300'000, 0);

  test::set_rows(ds, rows);
  return ds;
}

/// True when rows [a0, a0 + n) of `a` equal rows [b0, b0 + n) of `b`,
/// column by column.
bool same_rows(const SampleColumns& a, std::size_t a0, const SampleColumns& b,
               std::size_t b0, std::size_t n) {
  bool equal = true;
  SampleColumns::for_each(
      [&](const auto& x, const auto& y) {
        equal = equal && x.size() >= a0 + n && y.size() >= b0 + n &&
                std::equal(x.begin() + a0, x.begin() + a0 + n, y.begin() + b0);
      },
      a, b);
  return equal;
}

/// Begin for `ds`, then `records` (encoded Records frames), fed to a
/// fresh session of `server`. Returns what feed() returned.
bool feed_after_begin(IngestServer& server, const Dataset& ds,
                      const std::vector<std::uint8_t>& records,
                      std::unique_ptr<IngestServer::Session>& session) {
  session = server.connect();
  std::vector<std::uint8_t> bytes;
  encode_begin(begin_payload_for(ds), bytes);
  bytes.insert(bytes.end(), records.begin(), records.end());
  return session->feed(bytes);
}

/// Encodes ds as Begin + one Records frame per sample + End.
std::vector<std::uint8_t> encode_stream(const Dataset& ds,
                                        std::size_t batch_records = 1) {
  struct VectorSink final : FrameSink {
    bool write(std::span<const std::uint8_t> b) override {
      bytes.insert(bytes.end(), b.begin(), b.end());
      return true;
    }
    std::vector<std::uint8_t> bytes;
  } sink;
  ReplayOptions opts;
  opts.batch_records = batch_records;
  EXPECT_TRUE(replay_dataset(ds, opts, sink));
  return sink.bytes;
}

/// Begin, Records frames of up to `batch_records` rows for devices
/// [first, last), then End.
std::vector<std::uint8_t> encode_devices(const Dataset& ds,
                                         std::uint32_t first,
                                         std::uint32_t last,
                                         std::size_t batch_records) {
  std::vector<std::uint8_t> bytes;
  encode_begin(begin_payload_for(ds), bytes);
  const core::DatasetIndex& idx = ds.index();
  for (std::uint32_t d = first; d < last; ++d) {
    std::size_t app = idx.device_app_begin(d);
    for (std::size_t i = idx.device_begin(d); i < idx.device_end(d);
         i += batch_records) {
      const std::size_t end = std::min(i + batch_records, idx.device_end(d));
      std::size_t n_app = 0;
      for (std::size_t r = i; r < end; ++r) n_app += ds.samples.app_count[r];
      encode_records(DeviceId{d}, ds.samples, i, end, ds.app_traffic, app,
                     app + n_app, bytes);
      app += n_app;
    }
  }
  encode_end(bytes);
  return bytes;
}

/// Rows in the complete Records frames of `bytes`.
std::uint64_t complete_frame_rows(std::span<const std::uint8_t> bytes) {
  FrameParser parser;
  parser.feed(bytes);
  std::uint64_t rows = 0;
  Frame frame;
  while (parser.next(frame) == FrameParser::Status::Frame) {
    if (frame.type == FrameType::Records) rows += frame.samples.size();
  }
  return rows;
}

void wait_for(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for ingest progress";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- Frame format -------------------------------------------------------

TEST(IngestFrameTest, RoundTripInArbitraryChunks) {
  const Dataset ds = tiny_dataset();
  BeginPayload info = begin_payload_for(ds);

  std::vector<std::uint8_t> bytes;
  encode_begin(info, bytes);
  // One frame for device 0's two rows and their two app records.
  encode_records(DeviceId{0}, ds.samples, 0, 2, ds.app_traffic, 0, 2, bytes);
  encode_end(bytes);

  // Feed in deliberately awkward 7-byte chunks.
  FrameParser parser;
  std::vector<Frame> frames;
  for (std::size_t at = 0; at < bytes.size(); at += 7) {
    const std::size_t n = std::min<std::size_t>(7, bytes.size() - at);
    parser.feed({bytes.data() + at, n});
    Frame f;
    while (parser.next(f) == FrameParser::Status::Frame) {
      frames.push_back(f);
      if (f.type == FrameType::Records) {
        ASSERT_EQ(f.samples.size(), 2u);
        EXPECT_TRUE(same_rows(f.samples, 0, ds.samples, 0, 2));
        ASSERT_EQ(f.app.size(), 2u);
        AppColumns::for_each(
            [](const auto& got, const auto& sent) {
              EXPECT_EQ(std::memcmp(got.data(), sent.data(), 2 * sizeof(got[0])),
                        0);
            },
            f.app, ds.app_traffic);
      }
    }
    ASSERT_FALSE(parser.failed()) << parser.error();
  }

  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::Begin);
  EXPECT_EQ(std::memcmp(&frames[0].begin, &info, sizeof(info)), 0);
  EXPECT_EQ(frames[1].type, FrameType::Records);
  EXPECT_EQ(frames[1].device, DeviceId{0});
  EXPECT_EQ(frames[2].type, FrameType::End);
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(IngestFrameTest, TruncatedFrameIsNeedMoreNotError) {
  std::vector<std::uint8_t> bytes;
  encode_begin(BeginPayload{}, bytes);
  FrameParser parser;
  parser.feed({bytes.data(), bytes.size() - 1});
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::NeedMore);
  EXPECT_FALSE(parser.failed());
  EXPECT_GT(parser.pending_bytes(), 0u);
  // The missing byte completes the frame.
  parser.feed({bytes.data() + bytes.size() - 1, 1});
  EXPECT_EQ(parser.next(f), FrameParser::Status::Frame);
}

TEST(IngestFrameTest, BadMagicPoisonsParser) {
  std::vector<std::uint8_t> bytes;
  encode_end(bytes);
  bytes[0] ^= 0xFF;
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("magic"), std::string::npos);
  // Poisoned: even a well-formed follow-up frame is rejected.
  std::vector<std::uint8_t> good;
  encode_end(good);
  parser.feed(good);
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
}

TEST(IngestFrameTest, WrongVersionRejected) {
  // Version 1 (the row-struct frames), version 2 (column frames under
  // the serial checksum), version 3 (12-byte app-record structs) and a
  // future version alike fail the session with the version error.
  for (const std::uint16_t version : {1, 2, 3, 99}) {
    std::vector<std::uint8_t> bytes;
    encode_begin(begin_payload_for(tiny_dataset()), bytes);
    FrameHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    h.version = version;
    std::memcpy(bytes.data(), &h, sizeof(h));
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("unsupported ingest frame version " +
                              std::to_string(version)),
              std::string::npos)
        << s->error();
    EXPECT_EQ(server.counters().frames_rejected, 1u);
  }
}

TEST(IngestFrameTest, CorruptPayloadFailsCrc) {
  std::vector<std::uint8_t> bytes;
  encode_begin(BeginPayload{}, bytes);
  bytes[sizeof(FrameHeader) + 4] ^= 0x01;  // flip one payload bit
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("CRC"), std::string::npos);
}

TEST(IngestFrameTest, OversizePayloadRejectedFromHeaderAlone) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(FrameType::Records);
  h.n_samples = kMaxFramePayload;  // implies a payload far past the cap
  h.payload_bytes = 0xFFFFFFFFu;
  std::vector<std::uint8_t> bytes(sizeof(h));
  std::memcpy(bytes.data(), &h, sizeof(h));
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  // No payload was ever sent: the header alone is enough to reject.
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("limit"), std::string::npos);
}

TEST(IngestFrameTest, NonBooleanTetheringRejected) {
  // The flags column's only bit is tethering; any other bit fails the
  // session, like an unknown flag bit in a snapshot.
  Dataset ds = tiny_dataset();
  ds.samples.flags[4] = 5;
  std::vector<std::uint8_t> records;
  encode_records(DeviceId{2}, ds.samples, 4, 5, AppColumns{}, 0, 0, records);
  IngestServer server(IngestConfig{});
  std::unique_ptr<IngestServer::Session> s;
  EXPECT_FALSE(feed_after_begin(server, ds, records, s));
  EXPECT_NE(s->error().find("unknown flag bits"), std::string::npos)
      << s->error();
}

TEST(IngestFrameTest, HeaderLengthArithmeticChecked) {
  const Dataset ds = tiny_dataset();
  std::vector<std::uint8_t> bytes;
  encode_records(DeviceId{2}, ds.samples, 4, 5, AppColumns{}, 0, 0, bytes);
  FrameHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  h.n_samples = 2;  // claims more records than the payload carries
  std::memcpy(bytes.data(), &h, sizeof(h));
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("length mismatch"), std::string::npos);
}

TEST(IngestFrameTest, AppReferencePastFrameRejected) {
  // Row 4 claims three app records; the frame carries one.
  Dataset ds = tiny_dataset();
  ds.samples.app_count[4] = 3;
  std::vector<std::uint8_t> records;
  encode_records(DeviceId{2}, ds.samples, 4, 5, ds.app_traffic, 0, 1, records);
  IngestServer server(IngestConfig{});
  std::unique_ptr<IngestServer::Session> s;
  EXPECT_FALSE(feed_after_begin(server, ds, records, s));
  EXPECT_NE(s->error().find("3 of 1 app records"), std::string::npos)
      << s->error();
}

// Each Records frame is checked by core::check_device_run, and each
// device's bins must keep ascending across its frames. A frame that
// breaks either fails its session and commits nothing.
TEST(IngestFrameTest, RowRulesFailTheSessionAndCommitNothing) {
  const Dataset base = tiny_dataset();
  struct Case {
    const char* what;
    std::function<void(Dataset&)> corrupt;
    std::size_t good_rows;  // rows of device 0 sent first, in their own frame
    const char* error;
  };
  const Case cases[] = {
      {"unknown app category",
       [](Dataset& ds) {
         ds.app_traffic.category[0] = static_cast<AppCategory>(250);
       },
       0, "unknown category"},
      {"unknown cell technology",
       [](Dataset& ds) { ds.samples.tech[1] = static_cast<CellTech>(200); },
       0, "unknown WiFi state or cell technology"},
      {"unknown WiFi state",
       [](Dataset& ds) {
         ds.samples.wifi_state[1] = static_cast<WifiState>(9);
       },
       0, "unknown WiFi state or cell technology"},
      {"descending bins",
       [](Dataset& ds) {
         ds.samples.bin[0] = 5;
         ds.samples.bin[1] = 0;
       },
       0, "ordering"},
      {"repeated bin", [](Dataset& ds) { ds.samples.bin[1] = 0; }, 0,
       "repeats a bin"},
      {"first bin repeats the last routed bin",
       [](Dataset& ds) { ds.samples.bin[1] = 0; }, 1,
       "not after the device's last routed bin 0"},
  };
  for (const Case& c : cases) {
    Dataset ds = base;
    c.corrupt(ds);
    // Device 0 owns rows [0, 2) and app records [0, 2), both on row 0.
    std::vector<std::uint8_t> records;
    if (c.good_rows > 0) {
      encode_records(DeviceId{0}, base.samples, 0, c.good_rows, ds.app_traffic,
                     0, 2, records);
    }
    encode_records(DeviceId{0}, ds.samples, c.good_rows, 2, ds.app_traffic,
                   c.good_rows > 0 ? 2 : 0, 2, records);
    IngestServer server({.shards = 2});
    std::unique_ptr<IngestServer::Session> s;
    EXPECT_FALSE(feed_after_begin(server, ds, records, s)) << c.what;
    EXPECT_NE(s->error().find(c.error), std::string::npos)
        << c.what << ": " << s->error();
    server.shutdown();
    const IngestCounters counters = server.counters();
    EXPECT_EQ(counters.frames_rejected, 1u) << c.what;
    EXPECT_EQ(counters.sessions_failed, 1u) << c.what;
    EXPECT_EQ(counters.records_committed, c.good_rows) << c.what;
    EXPECT_EQ(server.collect().samples.size(), c.good_rows) << c.what;
  }
}

// --- Server: protocol and error discipline ------------------------------

TEST(IngestServerTest, LoopbackStreamCommitsAndMatchesBatch) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2});
  auto session = server.connect();
  SessionSink sink(*session);
  ReplayOptions opts;
  opts.batch_records = 2;
  ASSERT_TRUE(replay_dataset(ds, opts, sink));
  ASSERT_TRUE(session->finish()) << session->error();
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_EQ(c.sessions_closed, 1u);
  EXPECT_EQ(c.sessions_failed, 0u);
  EXPECT_EQ(c.frames_rejected, 0u);
  EXPECT_EQ(c.records_committed, ds.samples.size());
  EXPECT_EQ(c.app_records_committed, ds.app_traffic.size());
  EXPECT_EQ(compare_stream_results(server.result(), batch_stream_result(ds)),
            "");

  // The committed batches reassemble to the producer's exact records.
  EXPECT_TRUE(test::same_records(server.collect(), ds));
}

TEST(IngestServerTest, MalformedSessionNeverTakesDownTheServer) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2});

  {  // A connection feeding garbage fails alone, with a counter.
    auto bad = server.connect();
    const std::uint8_t garbage[64] = {0xDE, 0xAD, 0xBE, 0xEF};
    EXPECT_FALSE(bad->feed(garbage));
    EXPECT_FALSE(bad->error().empty());
    EXPECT_FALSE(bad->finish());
  }
  {  // Stream cut inside its first Records frame: clean EOF error on
     // finish(), and nothing routed (a later replay of the same rows
     // would otherwise break the devices' ascending bins).
    auto truncated = server.connect();
    const std::vector<std::uint8_t> bytes = encode_stream(ds, 2);
    const std::size_t cut = 2 * sizeof(FrameHeader) + sizeof(BeginPayload) + 10;
    EXPECT_TRUE(truncated->feed({bytes.data(), cut}));
    EXPECT_FALSE(truncated->finish());
    EXPECT_NE(truncated->error().find("before End"), std::string::npos);
  }

  // The server is still fully functional for a well-behaved session.
  auto good = server.connect();
  ASSERT_TRUE(good->feed(encode_stream(ds, 2)));
  ASSERT_TRUE(good->finish()) << good->error();
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_EQ(c.sessions_opened, 3u);
  EXPECT_EQ(c.sessions_closed, 1u);
  EXPECT_EQ(c.sessions_failed, 2u);
  EXPECT_GE(c.frames_rejected, 1u);
  EXPECT_EQ(c.records_committed, ds.samples.size());
}

TEST(IngestServerTest, ProtocolViolationsFailTheSession) {
  const Dataset ds = tiny_dataset();

  {  // Records before Begin
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    std::vector<std::uint8_t> bytes;
    encode_records(DeviceId{2}, ds.samples, 4, 5, AppColumns{}, 0, 0, bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("before Begin"), std::string::npos);
  }
  {  // Duplicate Begin
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    std::vector<std::uint8_t> bytes;
    encode_begin(begin_payload_for(ds), bytes);
    encode_begin(begin_payload_for(ds), bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("duplicate Begin"), std::string::npos);
  }
  {  // Frame after End
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    std::vector<std::uint8_t> bytes;
    encode_begin(begin_payload_for(ds), bytes);
    encode_end(bytes);
    encode_end(bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("after End"), std::string::npos);
  }
  {  // Device outside the announced universe
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    std::vector<std::uint8_t> bytes;
    encode_begin(begin_payload_for(ds), bytes);
    encode_records(DeviceId{99}, ds.samples, 4, 5, AppColumns{}, 0, 0, bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("outside the announced universe"),
              std::string::npos);
  }
  {  // Bin outside the announced campaign
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    std::vector<std::uint8_t> bytes;
    encode_begin(begin_payload_for(ds), bytes);
    Dataset late = ds;
    late.samples.bin[4] = 2000;  // campaign has 2 * 144 bins
    encode_records(DeviceId{2}, late.samples, 4, 5, AppColumns{}, 0, 0, bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("outside the 288-bin campaign"),
              std::string::npos)
        << s->error();
  }
}

TEST(IngestServerTest, SecondSessionMustAnnounceTheSameCampaign) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2});
  auto first = server.connect();
  std::vector<std::uint8_t> begin1;
  encode_begin(begin_payload_for(ds), begin1);
  ASSERT_TRUE(first->feed(begin1));

  auto second = server.connect();
  BeginPayload other = begin_payload_for(ds);
  other.n_devices += 7;
  std::vector<std::uint8_t> begin2;
  encode_begin(other, begin2);
  EXPECT_FALSE(second->feed(begin2));
  EXPECT_NE(second->error().find("different campaign"), std::string::npos);

  // The first session is unaffected.
  std::vector<std::uint8_t> rest;
  encode_end(rest);
  EXPECT_TRUE(first->feed(rest));
  EXPECT_TRUE(first->finish()) << first->error();
  server.shutdown();
}

TEST(IngestServerTest, ShedModeDropsWithCountersInsteadOfBlocking) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 1, .shed_on_overflow = true});
  auto session = server.connect();

  {
    // Freeze the shard: every commit finds it paused and sheds, and
    // shedding is not a session error.
    const auto frozen = server.freeze_shard(0);
    ASSERT_TRUE(session->feed(encode_stream(ds)));  // 1-row frames
  }
  ASSERT_TRUE(session->finish()) << session->error();
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_GE(c.batches_shed, 1u);
  EXPECT_EQ(c.records_committed + c.records_shed, ds.samples.size());
  EXPECT_EQ(server.result().totals.n_samples, c.records_committed);
  EXPECT_EQ(c.sessions_closed, 1u);

  // Nothing paused: a shed-mode server commits every record.
  IngestServer unpaused({.shards = 2, .shed_on_overflow = true});
  auto whole = unpaused.connect();
  ASSERT_TRUE(whole->feed(encode_stream(ds)));
  ASSERT_TRUE(whole->finish()) << whole->error();
  const IngestCounters u = unpaused.counters();
  EXPECT_EQ(u.batches_shed, 0u);
  EXPECT_EQ(u.records_shed, 0u);
  EXPECT_EQ(u.records_committed, ds.samples.size());
  EXPECT_TRUE(test::same_records(unpaused.collect(), ds));
}

TEST(IngestServerTest, ShedModeCommitsAgainOnceTheShardResumes) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 1, .shed_on_overflow = true});
  auto session = server.connect();

  // Begin + device 0's 1-row frames, then devices 1 and 2 + End.
  std::vector<std::uint8_t> end_frame;
  encode_end(end_frame);
  std::vector<std::uint8_t> head = encode_devices(ds, 0, 1, 1);
  head.resize(head.size() - end_frame.size());
  std::vector<std::uint8_t> begin_frame;
  encode_begin(begin_payload_for(ds), begin_frame);
  const std::vector<std::uint8_t> rest = encode_devices(ds, 1, 3, 1);
  const std::span<const std::uint8_t> tail =
      std::span(rest).subspan(begin_frame.size());

  std::atomic<bool> returned{false};
  bool fed = false;
  std::thread producer;
  {
    // Shedding never parks the producer: feed() returns with the shard
    // still paused.
    const auto frozen = server.freeze_shard(0);
    producer = std::thread([&] {
      fed = session->feed(head);
      returned = true;
    });
    wait_for([&] { return returned.load(); });
  }
  producer.join();
  ASSERT_TRUE(fed) << session->error();
  const IngestCounters shed = server.counters();
  EXPECT_EQ(shed.batches_shed, 2u);  // device 0's two frames
  EXPECT_EQ(shed.records_shed, 2u);
  EXPECT_EQ(shed.records_committed, 0u);

  // Once the pause ends, the same session's frames commit again.
  ASSERT_TRUE(session->feed(tail)) << session->error();
  ASSERT_TRUE(session->finish()) << session->error();
  server.shutdown();
  const IngestCounters c = server.counters();
  EXPECT_EQ(c.batches_shed, 2u);
  EXPECT_EQ(c.records_shed, 2u);
  EXPECT_EQ(c.records_committed, ds.samples.size() - 2);
  EXPECT_EQ(server.collect().samples.size(), ds.samples.size() - 2);
}

TEST(IngestServerTest, FrozenShardBlocksLosslessProducer) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2});
  const std::vector<std::uint8_t> bytes = encode_stream(ds, 2);
  auto session = server.connect();

  std::atomic<bool> returned{false};
  bool fed = false;
  std::thread producer;
  {
    // Device 0's first frame goes to shard 0 and parks its session.
    const auto frozen = server.freeze_shard(0);
    producer = std::thread([&] {
      fed = session->feed(bytes);
      returned = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(returned.load());  // still parked in feed()
    const IngestCounters parked = server.counters();
    EXPECT_EQ(parked.frames_accepted, 1u);  // Begin only
    EXPECT_EQ(parked.records_committed, 0u);
  }
  producer.join();
  ASSERT_TRUE(fed) << session->error();
  ASSERT_TRUE(session->finish()) << session->error();
  EXPECT_EQ(server.counters().batches_shed, 0u);
  EXPECT_TRUE(test::same_records(server.collect(), ds));
}

TEST(IngestServerTest, ShutdownFailsAParkedProducer) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2});
  const std::vector<std::uint8_t> bytes = encode_stream(ds, 2);
  auto session = server.connect();

  bool fed = true;
  {
    const auto frozen = server.freeze_shard(0);
    std::thread producer([&] { fed = session->feed(bytes); });
    // Begin is accepted, then the first Records frame parks on shard 0.
    wait_for([&] { return server.counters().frames_accepted >= 1; });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.shutdown();
    // shutdown() wakes the parked commit, which fails its session
    // without waiting for the freeze to end.
    producer.join();
  }
  EXPECT_FALSE(fed);
  EXPECT_NE(session->error().find("server shut down"), std::string::npos)
      << session->error();
  const IngestCounters c = server.counters();
  EXPECT_EQ(c.records_committed, 0u);
  EXPECT_EQ(c.batches_shed, 0u);
  EXPECT_EQ(c.sessions_failed, 1u);
  EXPECT_EQ(server.collect().samples.size(), 0u);
}

TEST(IngestServerTest, ConcurrentSessionsCommitDisjointDevices) {
  const Dataset& ds = test::campaign(Year::Y2013);
  const auto n = static_cast<std::uint32_t>(ds.devices.size());
  IngestServer server({.shards = 2});

  // Each session owns half of the devices; both halves span both shards.
  const std::vector<std::uint8_t> halves[2] = {
      encode_devices(ds, 0, n / 2, 64), encode_devices(ds, n / 2, n, 64)};
  bool clean[2] = {false, false};
  std::vector<std::thread> producers;
  for (int h = 0; h < 2; ++h) {
    producers.emplace_back([&, h] {
      auto session = server.connect();
      const std::vector<std::uint8_t>& bytes = halves[h];
      constexpr std::size_t kChunk = 4096;
      bool ok = true;
      for (std::size_t at = 0; ok && at < bytes.size(); at += kChunk) {
        ok = session->feed(
            {bytes.data() + at, std::min(kChunk, bytes.size() - at)});
      }
      clean[h] = ok && session->finish();
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(clean[0]);
  ASSERT_TRUE(clean[1]);
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_EQ(c.sessions_closed, 2u);
  EXPECT_EQ(c.batches_shed, 0u);
  EXPECT_EQ(c.records_committed, ds.samples.size());
  EXPECT_TRUE(test::same_records(server.collect(), ds));
  EXPECT_EQ(compare_stream_results(server.result(), batch_stream_result(ds)),
            "");
}

TEST(IngestServerTest, ResultIsQueryableMidStream) {
  const Dataset ds = test::campaign(Year::Y2013);
  IngestServer server({.shards = 2});
  auto session = server.connect();

  const std::vector<std::uint8_t> bytes = encode_stream(ds, 512);
  const std::size_t half = bytes.size() / 2;
  ASSERT_TRUE(session->feed({bytes.data(), half}));

  // feed() commits before it returns: every complete frame fed so far
  // is queryable while the stream is still open.
  const std::uint64_t fed_rows = complete_frame_rows({bytes.data(), half});
  EXPECT_EQ(server.counters().records_committed, fed_rows);
  const StreamResult partial = server.result();
  EXPECT_EQ(partial.totals.n_samples, fed_rows);
  EXPECT_GT(partial.totals.n_samples, 0u);
  EXPECT_LT(partial.totals.n_samples, ds.samples.size());

  ASSERT_TRUE(session->feed({bytes.data() + half, bytes.size() - half}));
  ASSERT_TRUE(session->finish()) << session->error();
  server.shutdown();
  EXPECT_EQ(server.result().totals.n_samples, ds.samples.size());
}

TEST(IngestServerTest, FrozenMidStreamResultMatchesCollect) {
  const Dataset& ds = test::campaign(Year::Y2013);
  IngestServer server({.shards = 2});
  auto session = server.connect();

  const std::vector<std::uint8_t> bytes = encode_stream(ds, 512);
  const std::size_t half = bytes.size() / 2;
  ASSERT_TRUE(session->feed({bytes.data(), half}));
  ASSERT_GT(server.counters().records_committed, 0u);
  {
    // With both shards paused, result() and collect() read the same
    // committed prefix of the stream.
    const auto frozen0 = server.freeze_shard(0);
    const auto frozen1 = server.freeze_shard(1);
    const std::uint64_t committed = server.counters().records_committed;
    const StreamResult partial = server.result();
    const Dataset prefix = server.collect();
    EXPECT_EQ(server.counters().records_committed, committed);
    EXPECT_EQ(prefix.samples.size(), committed);
    EXPECT_EQ(partial.totals.n_samples, committed);
    EXPECT_LT(committed, ds.samples.size());
    EXPECT_EQ(compare_stream_results(partial, batch_stream_result(prefix)), "");
  }

  ASSERT_TRUE(session->feed({bytes.data() + half, bytes.size() - half}));
  ASSERT_TRUE(session->finish()) << session->error();
  server.shutdown();
  EXPECT_EQ(compare_stream_results(server.result(), batch_stream_result(ds)),
            "");
}

TEST(IngestServerTest, SmallFramesMergeIntoTheProducersRecords) {
  // 8-row frames fill a device's last batch exactly to the row floor;
  // 100-row frames cross it (100, 200, then 300 rows in one batch).
  const Dataset& ds = test::campaign(Year::Y2013);
  for (const std::size_t batch_records : {std::size_t{8}, std::size_t{100}}) {
    IngestServer server({.shards = 2});
    auto session = server.connect();
    ASSERT_TRUE(session->feed(encode_stream(ds, batch_records)))
        << session->error();
    ASSERT_TRUE(session->finish()) << session->error();
    server.shutdown();
    EXPECT_EQ(compare_stream_results(server.result(), batch_stream_result(ds)),
              "")
        << batch_records << "-row frames";
    EXPECT_TRUE(test::same_records(server.collect(), ds))
        << batch_records << "-row frames";
  }
}

// --- The headline invariant: ingest == batch, byte for byte -------------

class ReplayEquivalenceTest : public ::testing::TestWithParam<Year> {};

TEST_P(ReplayEquivalenceTest, IncrementalMatchesBatchAtOneAndFourShards) {
  const Year year = GetParam();
  const Dataset& ds = test::campaign(year);
  const StreamResult batch = batch_stream_result(ds);

  for (const int shards : {1, 4}) {
    IngestServer server({.shards = shards});
    auto session = server.connect();
    SessionSink sink(*session);
    ReplayOptions opts;
    opts.batch_records = 256;
    ASSERT_TRUE(replay_dataset(ds, opts, sink));
    ASSERT_TRUE(session->finish()) << session->error();
    server.shutdown();

    EXPECT_EQ(compare_stream_results(server.result(), batch), "")
        << "year " << year_number(year) << ", " << shards << " shards";

    EXPECT_TRUE(test::same_records(server.collect(), ds))
        << "committed records diverge from the producer's";
  }
}

INSTANTIATE_TEST_SUITE_P(AllYears, ReplayEquivalenceTest,
                         ::testing::Values(Year::Y2013, Year::Y2014,
                                           Year::Y2015),
                         [](const auto& info) {
                           return std::string("Y") + std::to_string(
                                      year_number(info.param));
                         });

// --- TCP transport ------------------------------------------------------

TEST(IngestTcpTest, ReplayOverLoopbackSocketMatchesBatch) {
  if (!tcp_supported()) {
    GTEST_SKIP() << "no POSIX socket support on this platform";
  }
  const Dataset& ds = test::campaign(Year::Y2013);

  IngestServer server({.shards = 2});
  TcpIngestListener listener(server);
  std::string error;
  ASSERT_TRUE(listener.start("127.0.0.1", 0, &error)) << error;
  ASSERT_NE(listener.port(), 0);

  TcpClientSink sink;
  ASSERT_TRUE(sink.connect("127.0.0.1", listener.port(), &error)) << error;
  ReplayOptions opts;
  opts.batch_records = 512;
  ReplayStats stats;
  ASSERT_TRUE(replay_dataset(ds, opts, sink, &stats));
  sink.close();  // half-close; waits for the server to finish the session

  wait_for([&] { return server.counters().sessions_closed >= 1; });
  listener.stop();
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_EQ(c.sessions_failed, 0u);
  EXPECT_EQ(c.bytes_received, stats.bytes);
  EXPECT_EQ(c.records_committed, ds.samples.size());
  EXPECT_EQ(compare_stream_results(server.result(), batch_stream_result(ds)),
            "");
}

TEST(IngestTcpTest, GarbageConnectionFailsAloneServerSurvives) {
  if (!tcp_supported()) {
    GTEST_SKIP() << "no POSIX socket support on this platform";
  }
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2});
  TcpIngestListener listener(server);
  std::string error;
  ASSERT_TRUE(listener.start("127.0.0.1", 0, &error)) << error;

  {  // A client speaking nonsense gets dropped, counted as failed.
    TcpClientSink bad;
    ASSERT_TRUE(bad.connect("127.0.0.1", listener.port(), &error)) << error;
    const std::uint8_t junk[32] = {0x00, 0x11, 0x22};
    (void)bad.write(junk);
    bad.close();
    wait_for([&] { return server.counters().sessions_failed >= 1; });
  }

  // A well-formed stream on a fresh connection still lands.
  TcpClientSink good;
  ASSERT_TRUE(good.connect("127.0.0.1", listener.port(), &error)) << error;
  ASSERT_TRUE(replay_dataset(ds, {}, good));
  good.close();
  wait_for([&] { return server.counters().sessions_closed >= 1; });
  listener.stop();
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_EQ(c.sessions_failed, 1u);
  EXPECT_EQ(c.sessions_closed, 1u);
  EXPECT_EQ(c.records_committed, ds.samples.size());
}

}  // namespace
}  // namespace tokyonet::ingest
