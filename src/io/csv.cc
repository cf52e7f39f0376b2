#include "io/csv.h"

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/sample_rows.h"

namespace tokyonet::io {
namespace {

namespace fs = std::filesystem;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

[[nodiscard]] File open_for(const fs::path& path, const char* mode,
                            CsvResult& result) {
  File f(std::fopen(path.string().c_str(), mode));
  if (!f) {
    result.error = "cannot open " + path.string() + ": " + std::strerror(errno);
  }
  return f;
}

/// Splits one CSV line (no quoting needed: ESSIDs are the only free
/// text and are written with commas stripped).
void split(const std::string& line, std::vector<std::string>& out) {
  out.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(line.substr(start));
      return;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

[[nodiscard]] bool read_line(std::FILE* f, std::string& line) {
  line.clear();
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') return true;
    if (c != '\r') line.push_back(static_cast<char>(c));
  }
  return !line.empty();
}

template <typename T>
[[nodiscard]] bool parse_int(const std::string& s, T& out, int base = 10) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out, base);
  return ec == std::errc{} && ptr == end;
}

[[nodiscard]] std::string sanitize_essid(std::string_view essid) {
  std::string out;
  out.reserve(essid.size());
  for (char c : essid) {
    if (c != ',' && c != '\n' && c != '\r') out.push_back(c);
  }
  return out;
}

}  // namespace

CsvResult save_dataset_csv(const Dataset& ds, const fs::path& dir) {
  CsvResult result;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    result.error = "cannot create " + dir.string() + ": " + ec.message();
    return result;
  }

  {
    File f = open_for(dir / "meta.csv", "w", result);
    if (!result.ok()) return result;
    std::fprintf(f.get(), "year,start_year,start_month,start_day,num_days\n");
    const Date d = ds.calendar.start_date();
    std::fprintf(f.get(), "%d,%d,%d,%d,%d\n", year_number(ds.year), d.year,
                 d.month, d.day, ds.num_days());
  }
  {
    File f = open_for(dir / "devices.csv", "w", result);
    if (!result.ok()) return result;
    std::fprintf(f.get(), "id,os,carrier,recruited\n");
    for (const DeviceInfo& dev : ds.devices) {
      std::fprintf(f.get(), "%u,%d,%d,%d\n", value(dev.id),
                   static_cast<int>(dev.os), static_cast<int>(dev.carrier),
                   dev.recruited ? 1 : 0);
    }
  }
  {
    File f = open_for(dir / "aps.csv", "w", result);
    if (!result.ok()) return result;
    std::fprintf(f.get(), "id,bssid,essid,band,channel\n");
    for (std::size_t i = 0; i < ds.aps.size(); ++i) {
      const ApInfo& ap = ds.aps[i];
      std::fprintf(f.get(), "%zu,%" PRIx64 ",%s,%d,%d\n", i, ap.bssid,
                   sanitize_essid(ap.essid).c_str(),
                   static_cast<int>(ap.band), ap.channel);
    }
  }
  {
    File f = open_for(dir / "samples.csv", "w", result);
    if (!result.ok()) return result;
    std::fprintf(f.get(),
                 "device,bin,geo_cell,cell_rx,cell_tx,wifi_rx,wifi_tx,ap,"
                 "tech,wifi_state,rssi,battery,tether,s24a,s24s,s5a,s5s,"
                 "app_begin,app_count\n");
    for_each_row(ds, [&](const Sample& s) {
      std::fprintf(f.get(),
                   "%u,%u,%u,%u,%u,%u,%u,%d,%d,%d,%d,%u,%d,%u,%u,%u,%u,%u,"
                   "%u\n",
                   value(s.device), s.bin, s.geo_cell, s.cell_rx, s.cell_tx,
                   s.wifi_rx, s.wifi_tx,
                   s.ap == kNoAp ? -1 : static_cast<int>(value(s.ap)),
                   static_cast<int>(s.tech), static_cast<int>(s.wifi_state),
                   s.rssi_dbm, s.battery_pct, s.tethering ? 1 : 0,
                   s.scan_pub24_all, s.scan_pub24_strong, s.scan_pub5_all,
                   s.scan_pub5_strong, s.app_begin, s.app_count);
    });
  }
  {
    File f = open_for(dir / "apps.csv", "w", result);
    if (!result.ok()) return result;
    std::fprintf(f.get(), "category,rx,tx\n");
    for (const AppTraffic& at : ds.app_traffic) {
      std::fprintf(f.get(), "%d,%u,%u\n", static_cast<int>(at.category),
                   at.rx_bytes, at.tx_bytes);
    }
  }
  {
    File f = open_for(dir / "survey.csv", "w", result);
    if (!result.ok()) return result;
    std::fprintf(f.get(),
                 "device,occupation,home,office,public,reasons_home,"
                 "reasons_office,reasons_public\n");
    for (std::size_t i = 0; i < ds.survey.size(); ++i) {
      const SurveyResponse& r = ds.survey[i];
      std::fprintf(f.get(), "%zu,%d,%d,%d,%d,%u,%u,%u\n", i,
                   static_cast<int>(r.occupation),
                   static_cast<int>(r.connected[0]),
                   static_cast<int>(r.connected[1]),
                   static_cast<int>(r.connected[2]), r.reasons[0],
                   r.reasons[1], r.reasons[2]);
    }
  }
  return result;
}

CsvResult load_dataset_csv(const fs::path& dir, Dataset& out) {
  CsvResult result;
  out = Dataset{};
  std::string line;
  std::vector<std::string> cols;

  {
    File f = open_for(dir / "meta.csv", "r", result);
    if (!result.ok()) return result;
    (void)read_line(f.get(), line);  // header
    if (!read_line(f.get(), line)) {
      result.error = "meta.csv: missing data row";
      return result;
    }
    split(line, cols);
    int year = 0, num_days = 0;
    Date start;
    if (cols.size() != 5 || !parse_int(cols[0], year) ||
        !parse_int(cols[1], start.year) || !parse_int(cols[2], start.month) ||
        !parse_int(cols[3], start.day) || !parse_int(cols[4], num_days) ||
        year < 2013 || year > 2015 || num_days < 1) {
      result.error = "meta.csv: malformed row: " + line;
      return result;
    }
    out.year = static_cast<Year>(year - 2013);
    out.calendar = CampaignCalendar(start, num_days);
  }
  {
    File f = open_for(dir / "devices.csv", "r", result);
    if (!result.ok()) return result;
    (void)read_line(f.get(), line);
    while (read_line(f.get(), line)) {
      split(line, cols);
      std::uint32_t id = 0;
      int os = 0, carrier = 0, recruited = 0;
      if (cols.size() != 4 || !parse_int(cols[0], id) ||
          !parse_int(cols[1], os) || !parse_int(cols[2], carrier) ||
          !parse_int(cols[3], recruited) || id != out.devices.size()) {
        result.error = "devices.csv: malformed row: " + line;
        return result;
      }
      DeviceInfo dev;
      dev.id = DeviceId{id};
      dev.os = static_cast<Os>(os);
      dev.carrier = static_cast<Carrier>(carrier);
      dev.recruited = recruited != 0;
      out.devices.push_back(dev);
    }
  }
  {
    File f = open_for(dir / "aps.csv", "r", result);
    if (!result.ok()) return result;
    (void)read_line(f.get(), line);
    while (read_line(f.get(), line)) {
      split(line, cols);
      std::size_t id = 0;
      std::uint64_t bssid = 0;
      int band = 0, channel = 0;
      if (cols.size() != 5 || !parse_int(cols[0], id) ||
          !parse_int(cols[1], bssid, 16) || !parse_int(cols[3], band) ||
          !parse_int(cols[4], channel) || id != out.aps.size()) {
        result.error = "aps.csv: malformed row: " + line;
        return result;
      }
      ApInfo ap;
      ap.bssid = bssid;
      ap.essid = cols[2];
      ap.band = static_cast<Band>(band);
      ap.channel = static_cast<std::uint8_t>(channel);
      out.aps.mut().push_back(std::move(ap));
    }
  }
  {
    File f = open_for(dir / "apps.csv", "r", result);
    if (!result.ok()) return result;
    (void)read_line(f.get(), line);
    while (read_line(f.get(), line)) {
      split(line, cols);
      int category = 0;
      AppTraffic at;
      if (cols.size() != 3 || !parse_int(cols[0], category) ||
          !parse_int(cols[1], at.rx_bytes) || !parse_int(cols[2], at.tx_bytes) ||
          category < 0 || category >= kNumAppCategories) {
        result.error = "apps.csv: malformed row: " + line;
        return result;
      }
      at.category = static_cast<AppCategory>(category);
      out.app_traffic.push_back(at);
    }
  }
  std::vector<Sample> rows;
  {
    File f = open_for(dir / "samples.csv", "r", result);
    if (!result.ok()) return result;
    (void)read_line(f.get(), line);
    while (read_line(f.get(), line)) {
      split(line, cols);
      Sample s;
      std::uint32_t device = 0;
      int ap = 0, tech = 0, state = 0, rssi = 0, battery = 0, tether = 0;
      unsigned u8tmp[5];
      if (cols.size() != 19 || !parse_int(cols[0], device) ||
          !parse_int(cols[1], s.bin) || !parse_int(cols[2], s.geo_cell) ||
          !parse_int(cols[3], s.cell_rx) || !parse_int(cols[4], s.cell_tx) ||
          !parse_int(cols[5], s.wifi_rx) || !parse_int(cols[6], s.wifi_tx) ||
          !parse_int(cols[7], ap) || !parse_int(cols[8], tech) ||
          !parse_int(cols[9], state) || !parse_int(cols[10], rssi) ||
          !parse_int(cols[11], battery) || !parse_int(cols[12], tether) ||
          !parse_int(cols[13], u8tmp[0]) || !parse_int(cols[14], u8tmp[1]) ||
          !parse_int(cols[15], u8tmp[2]) || !parse_int(cols[16], u8tmp[3]) ||
          !parse_int(cols[17], s.app_begin) || !parse_int(cols[18], u8tmp[4])) {
        result.error = "samples.csv: malformed row: " + line;
        return result;
      }
      s.battery_pct = static_cast<std::uint8_t>(battery);
      s.tethering = tether != 0;
      s.device = DeviceId{device};
      s.ap = ap < 0 ? kNoAp : ApId{static_cast<std::uint32_t>(ap)};
      s.tech = static_cast<CellTech>(tech);
      s.wifi_state = static_cast<WifiState>(state);
      s.rssi_dbm = static_cast<std::int8_t>(rssi);
      s.scan_pub24_all = static_cast<std::uint8_t>(u8tmp[0]);
      s.scan_pub24_strong = static_cast<std::uint8_t>(u8tmp[1]);
      s.scan_pub5_all = static_cast<std::uint8_t>(u8tmp[2]);
      s.scan_pub5_strong = static_cast<std::uint8_t>(u8tmp[3]);
      s.app_count = static_cast<std::uint8_t>(u8tmp[4]);
      rows.push_back(s);
    }
  }
  {
    File f = open_for(dir / "survey.csv", "r", result);
    if (!result.ok()) return result;
    out.survey.assign(out.devices.size(), SurveyResponse{});
    (void)read_line(f.get(), line);
    while (read_line(f.get(), line)) {
      split(line, cols);
      std::size_t id = 0;
      int occupation = 0, c0 = 0, c1 = 0, c2 = 0;
      SurveyResponse r;
      if (cols.size() != 8 || !parse_int(cols[0], id) ||
          !parse_int(cols[1], occupation) || !parse_int(cols[2], c0) ||
          !parse_int(cols[3], c1) || !parse_int(cols[4], c2) ||
          !parse_int(cols[5], r.reasons[0]) ||
          !parse_int(cols[6], r.reasons[1]) ||
          !parse_int(cols[7], r.reasons[2]) || id >= out.devices.size()) {
        result.error = "survey.csv: malformed row: " + line;
        return result;
      }
      r.occupation = static_cast<Occupation>(occupation);
      r.connected[0] = static_cast<SurveyYesNo>(c0);
      r.connected[1] = static_cast<SurveyYesNo>(c1);
      r.connected[2] = static_cast<SurveyYesNo>(c2);
      out.survey[id] = r;
    }
  }

  // Ground truth is intentionally absent; keep parallel arrays sized so
  // the analysis layer (which never reads them) stays safe to call.
  out.truth.devices.resize(out.devices.size());
  out.truth.aps.mut().resize(out.aps.size());
  // One validation covers every sample reference and the row order.
  if (std::string err = assign_rows(out, rows); !err.empty()) {
    result.error = "samples.csv: " + err;
  }
  return result;
}

}  // namespace tokyonet::io
