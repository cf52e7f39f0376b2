#include "report/registry.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "report/figures.h"
#include "report/runner.h"

namespace tokyonet::report {

const analysis::AnalysisContext& FigureContext::analysis(Year y) const {
  return runner_->analysis(y);
}

const analysis::query::DataSource& FigureContext::source(Year y) const {
  return runner_->analysis(y).source();
}

FigureRegistry::FigureRegistry() {
  register_macro_figures(*this);
  register_overview_figures(*this);
  register_volume_figures(*this);
  register_ratio_figures(*this);
  register_wifi_figures(*this);
  register_quality_figures(*this);
  register_app_figures(*this);
  register_event_figures(*this);
  register_section_figures(*this);
  register_ablation_figures(*this);

  std::sort(figures_.begin(), figures_.end(),
            [](const FigureSpec& a, const FigureSpec& b) { return a.id < b.id; });
  for (std::size_t i = 1; i < figures_.size(); ++i) {
    if (figures_[i - 1].id == figures_[i].id) {
      throw std::logic_error("duplicate figure id: " + figures_[i].id);
    }
  }
}

const FigureRegistry& FigureRegistry::instance() {
  static const FigureRegistry registry;
  return registry;
}

void FigureRegistry::add(FigureSpec spec) {
  assert(spec.fn != nullptr && !spec.id.empty());
  spec.out_of_core = spec.per_year();
  figures_.push_back(std::move(spec));
}

const FigureSpec* FigureRegistry::find(std::string_view id) const {
  for (const FigureSpec& spec : figures_) {
    if (spec.id == id) return &spec;
  }
  return nullptr;
}

}  // namespace tokyonet::report
