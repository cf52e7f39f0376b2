// FigureRegistry: every paper figure/table reproduction, defined once.
//
// A FigureSpec names a reproduction (id, title, paper reference), the
// campaign years the paper shows it for, and a pure function from an
// analysis context to a report::Table. The CLI (`tokyonet fig`), the
// benchmark driver and the golden-file regression harness all execute
// figures through this one catalog — there is no second wiring.
//
// Registration is explicit (report/figures.h) and happens on first use
// of FigureRegistry::instance(); no static-initializer tricks, so the
// catalog is identical no matter which binary links it.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/query/fwd.h"
#include "core/types.h"
#include "report/table.h"

namespace tokyonet::analysis {
class AnalysisContext;
}  // namespace tokyonet::analysis

namespace tokyonet::report {

class Runner;

/// What a figure function sees: the target year (nullopt for
/// longitudinal figures) plus memoized access to any campaign year
/// through the owning Runner.
class FigureContext {
 public:
  FigureContext(Runner& runner, std::optional<Year> year)
      : runner_(&runner), year_(year) {}

  /// The year this rendering is for; only meaningful for per-year
  /// figures (the runner never calls a per-year figure without one).
  [[nodiscard]] Year year() const { return *year_; }

  /// Memoized analysis context for any campaign year, and its
  /// campaign as a query::DataSource — the only way a figure reads
  /// records, so it renders the same bytes in memory and out of core.
  [[nodiscard]] const analysis::AnalysisContext& analysis(Year y) const;
  [[nodiscard]] const analysis::query::DataSource& source(Year y) const;
  /// Shorthands for the target year.
  [[nodiscard]] const analysis::AnalysisContext& analysis() const {
    return analysis(year());
  }
  [[nodiscard]] const analysis::query::DataSource& source() const {
    return source(year());
  }

 private:
  Runner* runner_;
  std::optional<Year> year_;
};

using FigureFn = Table (*)(const FigureContext&);

struct FigureSpec {
  std::string id;         // registry id, e.g. "fig06", "table04"
  std::string title;      // one-line description
  std::string paper_ref;  // e.g. "Fig 6", "Table 4 (§3.4.1)"
  /// Campaign years the paper presents this figure for. Empty means
  /// longitudinal: the figure is rendered once and may itself consume
  /// several years (e.g. Table 3's growth rates).
  std::vector<Year> years;
  FigureFn fn = nullptr;
  /// Whether the figure renders over a sharded store, scanned shard by
  /// shard (`fig run --shard-dir`). Every figure
  /// reads only FigureContext::source() and the context intermediates,
  /// so FigureRegistry::add sets this to per_year(): only the
  /// longitudinal figures, which span several campaigns, are false.
  /// The program tests per_year() directly; the field stays for the
  /// benchmark driver's pinned-id check (perfbench/driver.cc).
  bool out_of_core = false;

  [[nodiscard]] bool per_year() const noexcept { return !years.empty(); }
  [[nodiscard]] bool applies_to(Year y) const noexcept {
    for (Year candidate : years) {
      if (candidate == y) return true;
    }
    return false;
  }
};

class FigureRegistry {
 public:
  /// The process-wide catalog; built (and sorted by id) on first use.
  [[nodiscard]] static const FigureRegistry& instance();

  [[nodiscard]] const FigureSpec* find(std::string_view id) const;
  /// All figures, sorted by id.
  [[nodiscard]] const std::vector<FigureSpec>& figures() const noexcept {
    return figures_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return figures_.size(); }

  /// Used by the register_*_figures() functions during construction;
  /// derives spec.out_of_core.
  void add(FigureSpec spec);

 private:
  FigureRegistry();

  std::vector<FigureSpec> figures_;
};

}  // namespace tokyonet::report
