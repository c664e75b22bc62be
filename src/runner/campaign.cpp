#include "runner/campaign.hpp"

#include <cstdlib>

namespace mltcp::runner {

CampaignOptions options_from_env() {
  CampaignOptions opts;
  if (const char* env = std::getenv("MLTCP_THREADS")) {
    opts.threads = std::atoi(env);
    if (opts.threads < 0) opts.threads = 0;
  }
  return opts;
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
