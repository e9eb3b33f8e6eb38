#include "harness.h"

#include <algorithm>
#include <cstdio>

#include "common/strings.h"

namespace falcon {
namespace bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "true";
    }
  }
}

double Flags::GetDouble(const std::string& key, double def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  double v;
  return ParseDouble(it->second, &v) ? v : def;
}

int64_t Flags::GetInt(const std::string& key, int64_t def) const {
  return static_cast<int64_t>(GetDouble(key, static_cast<double>(def)));
}

bool Flags::GetBool(const std::string& key, bool def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string Flags::GetString(const std::string& key,
                             const std::string& def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

WorkloadOptions DatasetOptions(const std::string& name, double scale,
                               uint64_t seed) {
  WorkloadOptions opt;
  opt.seed = seed;
  if (name == "products") {
    // Paper: 2,554 x 22,074 — small enough to keep at (near) full scale.
    opt.size_a = static_cast<size_t>(500 * scale);
    opt.size_b = static_cast<size_t>(2500 * scale);
    opt.dirtiness = 0.50;
    opt.missing_rate = 0.05;
    opt.match_fraction = 0.45;
  } else if (name == "songs") {
    // Paper: 1M x 1M (square) — scaled down ~300x.
    opt.size_a = static_cast<size_t>(1200 * scale);
    opt.size_b = static_cast<size_t>(1200 * scale);
    opt.dirtiness = 0.30;
    opt.match_fraction = 0.60;
    opt.duplicate_rate = 0.30;  // >1 match per tuple, as in Songs
  } else if (name == "citations") {
    // Paper: 1.8M x 2.5M — the largest pair, scaled keeping the ratio.
    opt.size_a = static_cast<size_t>(1200 * scale);
    opt.size_b = static_cast<size_t>(1700 * scale);
    opt.dirtiness = 0.35;
    opt.match_fraction = 0.35;
  } else if (name == "drugs") {
    // Paper deployment: 453K x 451K.
    opt.size_a = static_cast<size_t>(1000 * scale);
    opt.size_b = static_cast<size_t>(1000 * scale);
    opt.dirtiness = 0.30;
    opt.match_fraction = 0.55;
  }
  return opt;
}

ClusterConfig BenchClusterConfig(int local_threads) {
  ClusterConfig c;
  // 10 nodes x 8 cores, as in the paper's testbed.
  c.num_nodes = 10;
  c.map_slots_per_node = 8;
  c.reduce_slots_per_node = 8;
  c.job_startup = VDuration::Seconds(2.0);
  c.task_overhead = VDuration::Seconds(0.05);
  // Mapper memory scaled with the ~300x data scale-down: the paper's 2 GB
  // becomes 8 MB so the memory-pressure experiments exercise the same
  // regimes.
  c.mapper_memory_bytes = size_t{8} * 1024 * 1024;
  c.reducer_memory_bytes = size_t{8} * 1024 * 1024;
  c.local_threads = local_threads;
  return c;
}

FalconConfig BenchFalconConfig(double scale, uint64_t seed) {
  FalconConfig cfg;
  cfg.seed = seed;
  cfg.sample_size = static_cast<size_t>(6000 * scale);
  cfg.sample_y = 50;
  cfg.al_max_iterations = 15;
  cfg.max_rules_to_eval = 15;
  cfg.max_rules_exhaustive = 10;
  cfg.pair_selection_mask_threshold = 30000;
  // Force the blocking plan at bench scale (the matcher-only plan is for
  // genuinely tiny inputs).
  cfg.matcher_only_max_bytes = size_t{8} * 1024 * 1024;
  return cfg;
}

SimulatedCrowdConfig BenchCrowdConfig(double error_rate, uint64_t seed) {
  SimulatedCrowdConfig c;
  c.error_rate = error_rate;
  c.seed = seed;
  // 1.5 minutes per 10-question HIT: the paper's own simulated-crowd
  // setting (Section 11.4).
  c.hit_latency_mean = VDuration::Minutes(1.5);
  c.latency_sigma = 0.25;
  return c;
}

Result<PipelineRun> RunPipeline(const GeneratedDataset& data,
                                const FalconConfig& config,
                                const SimulatedCrowdConfig& crowd_config,
                                const ClusterConfig& cluster_config) {
  Cluster cluster(cluster_config);
  SimulatedCrowd crowd(crowd_config, data.truth.MakeOracle());
  FalconPipeline pipeline(&data.a, &data.b, &crowd, &cluster, config);
  FALCON_ASSIGN_OR_RETURN(MatchResult res, pipeline.Run());
  PipelineRun out;
  out.quality = EvaluateMatches(res.matches, data.truth);
  out.metrics = res.metrics;
  out.load = RollupTaskLoad(cluster.JobHistorySnapshot());
  out.blocking_recall = BlockingRecall(res.candidates, data.truth);
  out.sequence = res.sequence;
  out.matches = res.matches.size();
  return out;
}

void AddLoadMetrics(BenchReport* report, const std::string& prefix,
                    const TaskLoadStats& load) {
  report->Add(prefix + "/mr_tasks", static_cast<int64_t>(load.tasks));
  report->Add(prefix + "/task_vtime_max_s", load.max_seconds);
  report->Add(prefix + "/task_vtime_mean_s", load.mean_seconds);
  report->Add(prefix + "/task_vtime_p99_s", load.p99_seconds);
  report->Add(prefix + "/straggler_ratio", load.straggler_ratio);
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      std::printf(" %-*s |", static_cast<int>(width[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t c = 0; c < headers_.size(); ++c) {
    std::printf("%s|", std::string(width[c] + 2, '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string Pct(double v, int digits) {
  return FormatDouble(v * 100.0, digits);
}

std::string Money(double v) { return "$" + FormatDouble(v, 2); }

// --- BenchReport -------------------------------------------------------------

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

void BenchReport::Add(const std::string& key, double value) {
  entries_.emplace_back(key, JsonNumber(value));
}

void BenchReport::Add(const std::string& key, int64_t value) {
  entries_.emplace_back(key, std::to_string(value));
}

void BenchReport::Add(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

std::string BenchReport::Write() {
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  std::string path = "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
    return path;
  }
  std::fprintf(f, "{\n  \"name\": \"%s\",\n  \"wall_clock_ms\": %s",
               JsonEscape(name_).c_str(), JsonNumber(wall_ms).c_str());
  for (const auto& [key, value] : entries_) {
    std::fprintf(f, ",\n  \"%s\": %s", JsonEscape(key).c_str(),
                 value.c_str());
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("[bench] wrote %s (wall_clock_ms=%s)\n", path.c_str(),
              JsonNumber(wall_ms).c_str());
  return path;
}

}  // namespace bench
}  // namespace falcon
