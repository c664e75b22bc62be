#include "runner/campaign.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>

namespace mltcp::runner {

CampaignOptions options_from_env() {
  CampaignOptions opts;
  opts.threads = int_from_env("MLTCP_THREADS", 0, 0);
  return opts;
}

int int_from_env(const char* name, int fallback, int min) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  int value = 0;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, value);
  if (ec != std::errc() || ptr != end || value < min) {
    std::fprintf(stderr, "%s wants an integer >= %d, got '%s'\n", name, min,
                 env);
    std::exit(2);
  }
  return value;
}

void Report::addf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed > 0) {
    std::string chunk(static_cast<std::size_t>(needed) + 1, '\0');
    std::vsnprintf(chunk.data(), chunk.size(), fmt, args_copy);
    chunk.resize(static_cast<std::size_t>(needed));
    text_ += chunk;
  }
  va_end(args_copy);
}

std::vector<Report> run_and_print(const std::vector<SimSpec>& specs,
                                  const CampaignOptions& opts) {
  std::vector<Report> reports = run_campaign<SimSpec, Report>(
      specs, [](const SimSpec& spec, std::size_t) { return spec.run(spec); },
      opts);
  for (const Report& report : reports) {
    std::fputs(report.text().c_str(), stdout);
  }
  return reports;
}

}  // namespace mltcp::runner
