#include "runner/sinks.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "sim/trace.hpp"

namespace mltcp::runner {

namespace {

std::string format_double(double value) {
  char buf[64];
  // Same format as sim::CsvWriter so runner-produced CSVs match the
  // hand-written ones byte for byte.
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

// ------------------------------------------------------------------ CsvSink

CsvSink::CsvSink(std::vector<std::string> header)
    : header_(std::move(header)) {}

void CsvSink::append(std::size_t run_index, std::vector<std::string> row) {
  std::lock_guard<std::mutex> lock(mu_);
  rows_by_run_[run_index].push_back(std::move(row));
}

void CsvSink::append(std::size_t run_index, const std::vector<double>& row) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (double v : row) cells.push_back(format_double(v));
  append(run_index, std::move(cells));
}

std::string CsvSink::serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    out += sim::csv_escape(header_[i]);
    out += i + 1 < header_.size() ? "," : "\n";
  }
  for (const auto& [run, rows] : rows_by_run_) {
    for (const auto& row : rows) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        out += sim::csv_escape(row[i]);
        out += i + 1 < row.size() ? "," : "\n";
      }
      if (row.empty()) out += "\n";
    }
  }
  return out;
}

void CsvSink::write(const std::string& path) const {
  const std::string text = serialize();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("CsvSink: cannot open " + path);
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

std::size_t CsvSink::row_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [run, rows] : rows_by_run_) n += rows.size();
  return n;
}

}  // namespace mltcp::runner
