// Plain-text table/series printers behind report::to_text() and the
// CLI's listings.
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace tokyonet::io {

/// Fixed-layout text table: set headers, append rows of strings, print
/// with aligned columns.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience formatters.
  [[nodiscard]] static std::string num(double v, int decimals = 1);
  [[nodiscard]] static std::string pct(double fraction, int decimals = 1);

  /// Renders to `out` (defaults to stdout).
  void print(std::FILE* out = stdout) const;

  /// The same rendering as print(), as a string (used by the report
  /// layer and by tests).
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints an (x, y) series as two aligned columns with a caption.
void print_series(std::string_view caption, std::span<const double> x,
                  std::span<const double> y, std::FILE* out = stdout,
                  int max_rows = 40);

/// Prints y-values against an implicit 0..n-1 x axis.
void print_series(std::string_view caption, std::span<const double> y,
                  std::FILE* out = stdout, int max_rows = 40);

}  // namespace tokyonet::io
