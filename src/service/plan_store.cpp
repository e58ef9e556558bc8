#include "service/plan_store.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "service/request.h"

namespace dpipe {

namespace fs = std::filesystem;

namespace {

/// A finite `<key><number>` field.
double field(std::istream& in, const std::string& key) {
  std::string token;
  DPIPE_REQUIRE(static_cast<bool>(in >> token) && token.size() > key.size() &&
                    token.compare(0, key.size(), key) == 0,
                "malformed plan field, expected " + key);
  const char* end = token.data() + token.size();
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data() + key.size(), end, value);
  DPIPE_REQUIRE(ec == std::errc() && ptr == end && std::isfinite(value),
                "malformed plan field " + key);
  return value;
}

/// A `<key><number>` field that must fit an int.
int int_field(std::istream& in, const std::string& key) {
  const double value = field(in, key);
  DPIPE_REQUIRE(value >= std::numeric_limits<int>::min() &&
                    value <= std::numeric_limits<int>::max(),
                "plan field out of range: " + key);
  return static_cast<int>(value);
}

void expect_keyword(std::istream& in, const std::string& keyword) {
  std::string token;
  DPIPE_REQUIRE(static_cast<bool>(in >> token) && token == keyword,
                "expected keyword " + keyword);
}

Fingerprint read_fingerprint_line(std::istream& in,
                                  const std::string& keyword) {
  expect_keyword(in, keyword);
  std::string hex;
  DPIPE_REQUIRE(static_cast<bool>(in >> hex), "truncated " + keyword);
  return Fingerprint::from_hex(hex);
}

/// Reads a `<keyword> <n>\n` header then exactly n raw bytes.
std::string read_sized_block(std::istream& in, const std::string& keyword) {
  expect_keyword(in, keyword);
  std::size_t bytes = 0;
  DPIPE_REQUIRE(static_cast<bool>(in >> bytes),
                "malformed " + keyword + " size");
  std::string line;
  std::getline(in, line);  // Consume the header's newline.
  // Grow with the bytes actually read, never with the claimed size: a
  // hostile header must not buy an allocation its payload does not back.
  std::string block;
  char chunk[4096];
  while (block.size() < bytes && in) {
    in.read(chunk, static_cast<std::streamsize>(
                       std::min(sizeof chunk, bytes - block.size())));
    block.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  DPIPE_REQUIRE(block.size() == bytes, "truncated " + keyword + " block");
  return block;
}

void write_partition_opts(std::ostream& out, const PartitionOptions& opts) {
  out << "popts s=" << opts.num_stages << " m=" << opts.num_microbatches
      << " d=" << opts.group_size << " dp=" << opts.data_parallel_degree
      << " mb=" << opts.microbatch_size
      << " sc=" << (opts.self_conditioning ? 1 : 0)
      << " scp=" << opts.self_cond_prob
      << " fur=" << (opts.force_uniform_replicas ? 1 : 0)
      << " ccf=" << opts.comm_competition_factor
      << " sds=" << (opts.scalarize_dp_states ? 1 : 0)
      << " stride=" << opts.dp_rank_stride
      << " ranks=" << opts.device_ranks.size();
  for (const int rank : opts.device_ranks) {
    out << ' ' << rank;
  }
  out << '\n';
}

PartitionOptions read_partition_opts(std::istream& in) {
  expect_keyword(in, "popts");
  PartitionOptions opts;
  opts.num_stages = int_field(in, "s=");
  opts.num_microbatches = int_field(in, "m=");
  opts.group_size = int_field(in, "d=");
  opts.data_parallel_degree = int_field(in, "dp=");
  opts.microbatch_size = field(in, "mb=");
  opts.self_conditioning = field(in, "sc=") != 0.0;
  opts.self_cond_prob = field(in, "scp=");
  opts.force_uniform_replicas = field(in, "fur=") != 0.0;
  opts.comm_competition_factor = field(in, "ccf=");
  opts.scalarize_dp_states = field(in, "sds=") != 0.0;
  opts.dp_rank_stride = int_field(in, "stride=");
  const int num_ranks = int_field(in, "ranks=");
  DPIPE_REQUIRE(num_ranks >= 0, "negative device_ranks count");
  for (int i = 0; i < num_ranks; ++i) {
    int rank = 0;
    DPIPE_REQUIRE(static_cast<bool>(in >> rank), "truncated device_ranks");
    opts.device_ranks.push_back(rank);
  }
  return opts;
}

}  // namespace

void write_plan_config(std::ostream& out, const PlanConfig& config) {
  out << "config s=" << config.num_stages << " m=" << config.num_microbatches
      << " d=" << config.group_size
      << " dp=" << config.data_parallel_degree
      << " t=" << config.predicted_iteration_ms
      << " br=" << config.planned_bubble_ratio
      << " mem=" << (config.memory_feasible ? 1 : 0)
      << " v=" << config.vstages << '\n';
}

PlanConfig read_plan_config(std::istream& in) {
  expect_keyword(in, "config");
  PlanConfig config;
  config.num_stages = int_field(in, "s=");
  config.num_microbatches = int_field(in, "m=");
  config.group_size = int_field(in, "d=");
  config.data_parallel_degree = int_field(in, "dp=");
  config.predicted_iteration_ms = field(in, "t=");
  config.planned_bubble_ratio = field(in, "br=");
  config.memory_feasible = field(in, "mem=") != 0.0;
  config.vstages = int_field(in, "v=");
  return config;
}

void save_plan_entry(const CachedPlan& entry, std::ostream& out) {
  const auto flags = out.flags();
  const auto precision = out.precision(17);
  out << "dpipe-plan v1\n";
  out << "fingerprint " << entry.fingerprint.hex() << '\n';
  out << "model_fingerprint " << entry.model_fp.hex() << '\n';
  out << "cluster_fingerprint " << entry.cluster_fp.hex() << '\n';
  out << "request_bytes " << entry.request_text.size() << '\n';
  out << entry.request_text;
  write_plan_config(out, entry.config);
  write_partition_opts(out, entry.partition_opts);
  out << "explored " << entry.explored.size() << '\n';
  for (const PlanConfig& config : entry.explored) {
    write_plan_config(out, config);
  }
  out << "program_bytes " << entry.program_text.size() << '\n';
  out << entry.program_text;
  out << "end\n";
  out.precision(precision);
  out.flags(flags);
}

CachedPlan load_plan_entry(std::istream& in) {
  std::string line;
  DPIPE_REQUIRE(std::getline(in, line) && line == "dpipe-plan v1",
                "not a dpipe-plan v1 file");
  CachedPlan entry;
  entry.fingerprint = read_fingerprint_line(in, "fingerprint");
  entry.model_fp = read_fingerprint_line(in, "model_fingerprint");
  entry.cluster_fp = read_fingerprint_line(in, "cluster_fingerprint");
  entry.request_text = read_sized_block(in, "request_bytes");
  entry.config = read_plan_config(in);
  entry.partition_opts = read_partition_opts(in);
  expect_keyword(in, "explored");
  std::size_t explored_count = 0;
  DPIPE_REQUIRE(static_cast<bool>(in >> explored_count), "malformed explored");
  for (std::size_t i = 0; i < explored_count; ++i) {
    entry.explored.push_back(read_plan_config(in));
  }
  std::getline(in, line);  // Position after the last config line.
  entry.program_text = read_sized_block(in, "program_bytes");
  expect_keyword(in, "end");

  // Verification: the stored fingerprints must re-derive from the stored
  // request bytes, and the program must parse. A stale or bit-rotted entry
  // fails here instead of being served.
  DPIPE_REQUIRE(fingerprint_bytes(entry.request_text) == entry.fingerprint,
                "plan entry fingerprint does not match its request bytes");
  const PlanRequest request = parse_request_text(entry.request_text);
  DPIPE_REQUIRE(model_fingerprint(request.model) == entry.model_fp,
                "plan entry model fingerprint mismatch");
  DPIPE_REQUIRE(cluster_fingerprint(request.cluster) == entry.cluster_fp,
                "plan entry cluster fingerprint mismatch");
  (void)program_from_string(entry.program_text);
  return entry;
}

PlanStore::PlanStore(std::string dir) : dir_(std::move(dir)) {
  DPIPE_REQUIRE(!dir_.empty(), "plan store directory must be non-empty");
  fs::create_directories(dir_);
}

std::string PlanStore::path_for(const Fingerprint& fingerprint) const {
  return (fs::path(dir_) / (fingerprint.hex() + ".plan")).string();
}

PlanStore::LoadReport PlanStore::load_all() {
  LoadReport report;
  std::vector<fs::path> files;
  for (const auto& dir_entry : fs::directory_iterator(dir_)) {
    if (dir_entry.is_regular_file() &&
        dir_entry.path().extension() == ".plan") {
      files.push_back(dir_entry.path());
    }
  }
  // Deterministic load order (directory iteration order is not specified).
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    try {
      std::ifstream in(path, std::ios::binary);
      DPIPE_REQUIRE(static_cast<bool>(in), "cannot open plan file");
      auto entry = std::make_shared<CachedPlan>(load_plan_entry(in));
      DPIPE_REQUIRE(
          path.filename().string() == entry->fingerprint.hex() + ".plan",
          "plan file name does not match its fingerprint");
      report.plans.push_back(std::move(entry));
    } catch (const std::exception&) {
      // Corrupt or stale-format entry: drop it from disk so it is
      // re-planned (and re-persisted) on next request.
      std::error_code ec;
      fs::remove(path, ec);
      ++report.corrupt_dropped;
    }
  }
  return report;
}

void PlanStore::put(const CachedPlan& entry) {
  const std::string final_path = path_for(entry.fingerprint);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    DPIPE_REQUIRE(static_cast<bool>(out),
                  "cannot open plan store file for writing: " + tmp_path);
    save_plan_entry(entry, out);
    DPIPE_REQUIRE(static_cast<bool>(out),
                  "plan store write failed: " + tmp_path);
  }
  fs::rename(tmp_path, final_path);
}

std::size_t PlanStore::invalidate_cluster(const Fingerprint& cluster_fp) {
  std::size_t removed = 0;
  for (const auto& plan : load_all().plans) {
    if (plan->cluster_fp == cluster_fp) {
      std::error_code ec;
      if (fs::remove(path_for(plan->fingerprint), ec)) {
        ++removed;
      }
    }
  }
  return removed;
}

std::size_t PlanStore::erase(const Fingerprint& fingerprint) {
  std::error_code ec;
  return fs::remove(path_for(fingerprint), ec) ? 1 : 0;
}

void PlanStore::clear() {
  for (const auto& dir_entry : fs::directory_iterator(dir_)) {
    if (dir_entry.is_regular_file() &&
        dir_entry.path().extension() == ".plan") {
      std::error_code ec;
      fs::remove(dir_entry.path(), ec);
    }
  }
}

std::size_t PlanStore::size() const {
  std::size_t count = 0;
  for (const auto& dir_entry : fs::directory_iterator(dir_)) {
    if (dir_entry.is_regular_file() &&
        dir_entry.path().extension() == ".plan") {
      ++count;
    }
  }
  return count;
}

}  // namespace dpipe
