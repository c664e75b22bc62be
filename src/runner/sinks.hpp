#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mltcp::runner {

/// Thread-safe CSV aggregation for a campaign. Worker threads append rows
/// tagged with their run index in whatever order they finish; the sink
/// stores them keyed by (run_index, insertion order within that run) and
/// serializes in key order, so the emitted file is byte-identical to a
/// serial execution no matter how the campaign was scheduled.
class CsvSink {
 public:
  explicit CsvSink(std::vector<std::string> header);

  /// Thread-safe. Rows of the same run keep their append order; rows of
  /// different runs are ordered by run index at write time.
  void append(std::size_t run_index, std::vector<std::string> row);
  void append(std::size_t run_index, const std::vector<double>& row);

  /// Header plus all rows in deterministic order, as CSV text.
  std::string serialize() const;

  /// serialize() to `path`. Throws std::runtime_error if the file cannot
  /// be opened.
  void write(const std::string& path) const;

  std::size_t row_count() const;

 private:
  std::vector<std::string> header_;
  mutable std::mutex mu_;
  std::map<std::size_t, std::vector<std::vector<std::string>>> rows_by_run_;
};

}  // namespace mltcp::runner
