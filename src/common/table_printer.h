#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace freshsel {

/// Renders aligned plain-text tables for the benchmark harness, mimicking the
/// row/column structure of the paper's tables.
class TablePrinter {
 public:
  /// `title` is printed above the table; `columns` are the header cells.
  TablePrinter(std::string title, std::vector<std::string> columns);

  /// Appends one row; missing cells render empty, extra cells are dropped.
  void AddRow(std::vector<std::string> cells);

  /// Writes the title, header, separator and all rows to `out`.
  void Print(std::ostream& out) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Emits an (x, series...) line chart as aligned columns — the textual
/// equivalent of one paper figure panel. Also usable as a CSV payload.
class SeriesPrinter {
 public:
  SeriesPrinter(std::string title, std::string x_label,
                std::vector<std::string> series_labels);

  /// Appends one x position with one value per series.
  void AddPoint(double x, const std::vector<double>& values);

  void Print(std::ostream& out) const;

  /// Writes "x,series1,series2,..." CSV to `path`. Returns false on I/O
  /// failure.
  bool WriteCsv(const std::string& path) const;

 private:
  std::string title_;
  std::string x_label_;
  std::vector<std::string> series_labels_;
  std::vector<std::pair<double, std::vector<double>>> points_;
};

}  // namespace freshsel
