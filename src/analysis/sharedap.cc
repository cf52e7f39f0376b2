#include "analysis/sharedap.h"

#include <algorithm>

#include "analysis/query/source.h"

namespace tokyonet::analysis {
namespace {

constexpr std::uint64_t kOuiMask = 0xFFFFFFull << 24;

}  // namespace

SharedApAnalysis detect_shared_aps(const query::DataSource& src,
                                   const ApClassification& cls,
                                   const SharedApOptions& opt) {
  const std::vector<ApInfo>& aps = src.aps();
  SharedApAnalysis out;

  // Collect associated public networks, sorted by BSSID.
  std::vector<ApId> publics;
  for (std::size_t i = 0; i < aps.size(); ++i) {
    if (cls.associated[i] && cls.ap_class[i] == ApClass::Public) {
      publics.push_back(ApId{static_cast<std::uint32_t>(i)});
    }
  }
  out.public_aps = static_cast<int>(publics.size());
  std::sort(publics.begin(), publics.end(), [&](ApId a, ApId b) {
    return aps[value(a)].bssid < aps[value(b)].bssid;
  });

  // Walk adjacent BSSIDs: same OUI, serials within the gap, different
  // provider names -> one shared physical box.
  std::size_t shared_members = 0;
  std::vector<ApId> group;
  auto flush = [&] {
    if (group.size() >= 2) {
      shared_members += group.size();
      out.groups.push_back(group);
    }
    group.clear();
  };
  for (const ApId id : publics) {
    const ApInfo& ap = aps[value(id)];
    if (!group.empty()) {
      const ApInfo& prev = aps[value(group.back())];
      const bool same_oui = (prev.bssid & kOuiMask) == (ap.bssid & kOuiMask);
      const bool adjacent =
          ap.bssid - prev.bssid <= opt.max_serial_gap;  // sorted ascending
      const bool different_provider = prev.essid != ap.essid;
      if (!(same_oui && adjacent && different_provider)) flush();
    }
    group.push_back(id);
  }
  flush();

  if (out.public_aps > 0) {
    out.shared_share =
        static_cast<double>(shared_members) / out.public_aps;
  }
  return out;
}

}  // namespace tokyonet::analysis
