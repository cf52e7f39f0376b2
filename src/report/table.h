// Typed result model for the figure registry (DESIGN.md §5g).
//
// Every paper figure/table reproduction produces a report::Table: named
// columns, typed cells (text / integer / real / percent), and metadata
// (registry id, title, paper reference, campaign year, free-form
// notes). One model, three emitters:
//   - to_text():  the aligned console rendering (io::TextTable) the
//                 CLI prints;
//   - to_csv():   machine-readable rows;
//   - to_canonical_json(): byte-stable JSON — keys in sorted order,
//                 floats in shortest round-trip form — used by the
//                 golden-file regression harness. Because every
//                 analysis kernel is byte-identical at any thread
//                 count (DESIGN.md §5c/§5f), the canonical JSON of a
//                 figure is too.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tokyonet::report {

/// One typed cell. Real cells carry the display precision used by the
/// text renderer; JSON/CSV always emit the full double so goldens pin
/// the exact kernel output, not a rounded shadow of it.
class Value {
 public:
  enum class Kind : std::uint8_t { Null, Text, Int, Real };

  Value() = default;

  [[nodiscard]] static Value text(std::string s);
  [[nodiscard]] static Value integer(long long v);
  /// Plain real; rendered as %.<decimals>f in text output.
  [[nodiscard]] static Value real(double v, int decimals = 2);
  /// A fraction rendered as a percentage ("42.0%") in text output; the
  /// raw fraction is what CSV/JSON emit.
  [[nodiscard]] static Value pct(double fraction, int decimals = 1);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& str() const noexcept { return text_; }
  [[nodiscard]] long long as_int() const noexcept { return int_; }
  [[nodiscard]] double as_real() const noexcept { return real_; }

  /// Rendering for the aligned text table.
  [[nodiscard]] std::string render_text() const;
  /// Canonical scalar: JSON literal (quoted/escaped string, integer, or
  /// shortest round-trip double; null for Null/non-finite reals).
  void append_json(std::string& out) const;
  /// CSV cell (numbers canonical, strings quoted when needed).
  void append_csv(std::string& out) const;

 private:
  Kind kind_ = Kind::Null;
  std::string text_;
  long long int_ = 0;
  double real_ = 0;
  int decimals_ = 2;
  bool percent_ = false;
};

/// printf-style formatting into a std::string; used for figure notes.
[[nodiscard]] std::string strf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Shortest round-trip decimal representation of `v` (std::to_chars):
/// strtod(format_double(v)) == v, and the bytes are a pure function of
/// the double — the property the golden files rely on.
[[nodiscard]] std::string format_double(double v);

/// JSON string escaping (control chars, quotes, backslash).
void append_json_string(std::string& out, std::string_view s);

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Appends a row; the cell count must match the column count.
  void add_row(std::vector<Value> cells);
  /// Appends every row of `other` (columns must match; used by the
  /// runner to stack per-year tables).
  void append_rows(const Table& other);

  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const Value& at(std::size_t row, std::size_t col) const {
    return rows_[row][col];
  }
  [[nodiscard]] const std::vector<std::vector<Value>>& rows() const noexcept {
    return rows_;
  }

  // Metadata, stamped by the runner from the registered FigureSpec.
  std::string id;
  std::string title;
  std::string paper_ref;
  /// Calendar year (2013..2015) for per-year renderings; nullopt for
  /// longitudinal figures and stacked multi-year tables.
  std::optional<int> year;
  /// Headline facts / paper anchors printed under the table.
  std::vector<std::string> notes;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<Value>> rows_;
};

/// Console rendering: title/paper-ref caption, aligned columns, notes.
[[nodiscard]] std::string to_text(const Table& t);

/// CSV: header row + data rows; RFC-4180-style quoting.
[[nodiscard]] std::string to_csv(const Table& t);

/// Canonical JSON: object keys in sorted order, one row per line,
/// floats in shortest round-trip form. Byte-stable for a given
/// analysis result; this is the golden-file format.
[[nodiscard]] std::string to_canonical_json(const Table& t);

}  // namespace tokyonet::report
