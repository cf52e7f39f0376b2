// Tests for io: table rendering and CSV dataset round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis/classify.h"
#include "analysis/volumes.h"
#include "io/csv.h"
#include "io/table.h"
#include "testutil.h"

namespace tokyonet::io {
namespace {

namespace fs = std::filesystem;

TEST(TextTable, FormatsNumbers) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(3.0, 0), "3");
  EXPECT_EQ(TextTable::pct(0.123, 1), "12.3%");
  EXPECT_EQ(TextTable::pct(1.0, 0), "100%");
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "long-header"});
  t.add_row({"wide-cell-value", "x"});
  char buf[256] = {};
  std::FILE* mem = fmemopen(buf, sizeof buf, "w");
  ASSERT_NE(mem, nullptr);
  t.print(mem);
  std::fclose(mem);
  const std::string out(buf);
  EXPECT_NE(out.find("a                long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell-value  x"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, ToStringMatchesPrintedBytes) {
  TextTable t({"id", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("id     value"), std::string::npos);
  EXPECT_NE(out.find("alpha  1"), std::string::npos);
  EXPECT_NE(out.find("b      22"), std::string::npos);
  char buf[256] = {};
  std::FILE* mem = fmemopen(buf, sizeof buf, "w");
  ASSERT_NE(mem, nullptr);
  t.print(mem);
  std::fclose(mem);
  EXPECT_EQ(std::string(buf), out);
}

TEST(TextTable, EmptyTableRendersHeaderAndRuleOnly) {
  TextTable t({"a", "bb"});
  const std::string out = t.to_string();
  int lines = 0;
  for (const char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 2);  // header + rule, no data rows
  EXPECT_EQ(out.rfind("a  bb\n", 0), 0u);
}

TEST(TextTable, NumHandlesNegativeAndWholeValues) {
  EXPECT_EQ(TextTable::num(-2.5, 1), "-2.5");
  EXPECT_EQ(TextTable::num(1234567.0, 0), "1234567");
  EXPECT_EQ(TextTable::pct(0.0, 1), "0.0%");
}

TEST(PrintSeries, SubsamplesLongSeries) {
  std::vector<double> y(1000, 1.0);
  char buf[8192] = {};
  std::FILE* mem = fmemopen(buf, sizeof buf, "w");
  ASSERT_NE(mem, nullptr);
  print_series("caption", y, mem, 10);
  std::fclose(mem);
  int lines = 0;
  for (char c : std::string(buf)) lines += c == '\n';
  EXPECT_LE(lines, 12);
}

class CsvRoundTrip : public ::testing::Test {
 protected:
  test::ScratchDir scratch_;
  const fs::path& dir_ = scratch_.path;
};

TEST_F(CsvRoundTrip, PreservesObservableData) {
  const Dataset& original = test::campaign(Year::Y2013);
  ASSERT_TRUE(save_dataset_csv(original, dir_).ok());

  Dataset loaded;
  const CsvResult r = load_dataset_csv(dir_, loaded);
  ASSERT_TRUE(r.ok()) << r.error;

  EXPECT_EQ(loaded.year, original.year);
  EXPECT_EQ(loaded.num_days(), original.num_days());
  EXPECT_EQ(loaded.calendar.start_date(), original.calendar.start_date());
  ASSERT_EQ(loaded.devices.size(), original.devices.size());
  ASSERT_EQ(loaded.aps.size(), original.aps.size());
  ASSERT_EQ(loaded.samples.size(), original.samples.size());
  ASSERT_EQ(loaded.app_traffic.size(), original.app_traffic.size());

  for (std::size_t i = 0; i < original.devices.size(); i += 7) {
    EXPECT_EQ(loaded.devices[i].os, original.devices[i].os);
    EXPECT_EQ(loaded.devices[i].carrier, original.devices[i].carrier);
  }
  for (std::size_t i = 0; i < original.aps.size(); i += 13) {
    EXPECT_EQ(loaded.aps[i].bssid, original.aps[i].bssid);
    EXPECT_EQ(loaded.aps[i].essid, original.aps[i].essid);
    EXPECT_EQ(loaded.aps[i].channel, original.aps[i].channel);
  }
  const std::vector<test::Row> original_rows = test::rows_of(original);
  const std::vector<test::Row> loaded_rows = test::rows_of(loaded);
  for (std::size_t i = 0; i < original_rows.size(); i += 997) {
    const test::Row& a = original_rows[i];
    const test::Row& b = loaded_rows[i];
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.bin, b.bin);
    EXPECT_EQ(a.cell_rx, b.cell_rx);
    EXPECT_EQ(a.wifi_rx, b.wifi_rx);
    EXPECT_EQ(a.ap, b.ap);
    EXPECT_EQ(a.wifi_state, b.wifi_state);
    EXPECT_EQ(a.rssi_dbm, b.rssi_dbm);
    EXPECT_EQ(a.scan_pub24_strong, b.scan_pub24_strong);
  }
  for (std::size_t i = 0; i < original.survey.size(); i += 11) {
    EXPECT_EQ(loaded.survey[i].occupation, original.survey[i].occupation);
    EXPECT_EQ(loaded.survey[i].reasons[2], original.survey[i].reasons[2]);
  }
}

TEST_F(CsvRoundTrip, GroundTruthIsNotSerialized) {
  const Dataset& original = test::campaign(Year::Y2013);
  ASSERT_TRUE(save_dataset_csv(original, dir_).ok());
  Dataset loaded;
  ASSERT_TRUE(load_dataset_csv(dir_, loaded).ok());
  // Truth arrays exist (parallel sizing) but carry defaults only.
  ASSERT_EQ(loaded.truth.devices.size(), loaded.devices.size());
  for (const DeviceTruth& t : loaded.truth.devices) {
    EXPECT_FALSE(t.has_home_ap);
    EXPECT_EQ(t.home_ap, kNoAp);
  }
}

TEST_F(CsvRoundTrip, AnalysisIdenticalOnLoadedDataset) {
  // The entire analysis pipeline must produce identical results from the
  // round-tripped (observable-only) dataset.
  const Dataset& original = test::campaign(Year::Y2013);
  ASSERT_TRUE(save_dataset_csv(original, dir_).ok());
  Dataset loaded;
  ASSERT_TRUE(load_dataset_csv(dir_, loaded).ok());

  const auto days_a = analysis::user_days(original);
  const auto days_b = analysis::user_days(loaded);
  const auto stats_a = analysis::daily_volume_stats(days_a);
  const auto stats_b = analysis::daily_volume_stats(days_b);
  EXPECT_DOUBLE_EQ(stats_a.median_all, stats_b.median_all);
  EXPECT_DOUBLE_EQ(stats_a.mean_wifi, stats_b.mean_wifi);

  const auto cls_a =
      analysis::classify_aps(analysis::query::InMemorySource(original));
  const auto cls_b =
      analysis::classify_aps(analysis::query::InMemorySource(loaded));
  EXPECT_EQ(cls_a.counts().home, cls_b.counts().home);
  EXPECT_EQ(cls_a.counts().publik, cls_b.counts().publik);
  EXPECT_EQ(cls_a.home_ap_of_device, cls_b.home_ap_of_device);
}

TEST_F(CsvRoundTrip, MissingDirectoryFails) {
  Dataset loaded;
  const CsvResult r = load_dataset_csv(dir_ / "nonexistent", loaded);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("meta.csv"), std::string::npos);
}

TEST_F(CsvRoundTrip, CorruptMetaFails) {
  fs::create_directories(dir_);
  std::FILE* f = std::fopen((dir_ / "meta.csv").string().c_str(), "w");
  std::fprintf(f, "year,start_year,start_month,start_day,num_days\n");
  std::fprintf(f, "not-a-year,1,1,1,1\n");
  std::fclose(f);
  Dataset loaded;
  EXPECT_FALSE(load_dataset_csv(dir_, loaded).ok());
}

TEST_F(CsvRoundTrip, DanglingApReferenceFails) {
  const Dataset& original = test::campaign(Year::Y2013);
  ASSERT_TRUE(save_dataset_csv(original, dir_).ok());
  // Truncate the AP file to orphan sample references.
  std::FILE* f = std::fopen((dir_ / "aps.csv").string().c_str(), "w");
  std::fprintf(f, "id,bssid,essid,band,channel\n");
  std::fclose(f);
  Dataset loaded;
  const CsvResult r = load_dataset_csv(dir_, loaded);
  EXPECT_FALSE(r.ok());
}

TEST_F(CsvRoundTrip, OutOfRangeSampleFieldIsMalformed) {
  // Each field parses at its column's own width: a value the column
  // cannot hold is a malformed row, never a narrowed one.
  Dataset ds = test::empty_dataset(1, 1);
  std::vector<test::Row> rows;
  test::add_sample(rows, 0, 0, 1000);
  test::add_sample(rows, 0, 1, 2000);
  test::set_rows(ds, rows);
  ASSERT_TRUE(save_dataset_csv(ds, dir_).ok());
  const fs::path samples = dir_ / "samples.csv";
  std::string text;
  {
    std::FILE* f = std::fopen(samples.string().c_str(), "r");
    ASSERT_NE(f, nullptr);
    for (int c; (c = std::fgetc(f)) != EOF;) {
      text.push_back(static_cast<char>(c));
    }
    std::fclose(f);
  }
  const std::size_t row = text.find('\n') + 1;  // the first data row
  const std::size_t row_end = text.find('\n', row);

  // samples.csv columns: 8 tech, 9 wifi_state, 10 rssi, 11 battery,
  // 12 tether, 13 s24a, 18 app_count.
  const std::pair<int, const char*> cases[] = {
      {8, "258"}, {9, "256"}, {10, "-200"}, {11, "356"},
      {12, "2"},  {13, "256"}, {18, "256"}};
  for (const auto& [field, bad] : cases) {
    std::vector<std::string> fields;
    std::size_t at = row;
    while (at <= row_end) {
      const std::size_t comma = std::min(text.find(',', at), row_end);
      fields.push_back(text.substr(at, comma - at));
      at = comma + 1;
    }
    fields[static_cast<std::size_t>(field)] = bad;
    std::string edited = text.substr(0, row);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      edited += (i > 0 ? "," : "") + fields[i];
    }
    edited += text.substr(row_end);
    std::FILE* f = std::fopen(samples.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(edited.c_str(), f);
    std::fclose(f);

    Dataset loaded;
    const CsvResult r = load_dataset_csv(dir_, loaded);
    EXPECT_NE(r.error.find("malformed row"), std::string::npos)
        << "field " << field << " = " << bad << ": " << r.error;
  }
}

}  // namespace
}  // namespace tokyonet::io
