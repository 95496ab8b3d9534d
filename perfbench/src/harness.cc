#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/column_store.h"
#include "ds/evidence_set.h"

namespace perfbench {

using evident::ExtendedRelation;
using evident::Status;
using evident::Value;

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

std::vector<uint64_t> StealMeter::Read() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::vector<uint64_t> fields;
  in >> cpu;
  for (uint64_t v = 0; cpu == "cpu" && fields.size() < 8 && in >> v;) {
    fields.push_back(v);
  }
  return fields;
}

std::string StealMeter::Describe() const {
  const std::vector<uint64_t> now = Read();
  if (now.size() < 8 || start_.size() < 8) return "host steal: unknown";
  uint64_t total = 0;
  for (size_t i = 0; i < 8; ++i) total += now[i] - start_[i];
  const uint64_t steal = now[7] - start_[7];  // user nice system idle iowait irq softirq steal
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "host steal during the window: %.1f %% of CPU time",
                total ? 100.0 * static_cast<double>(steal) /
                            static_cast<double>(total)
                      : 0.0);
  return buf;
}

Samples Samples::Between(double from_s, double to_s) const {
  Samples out;
  for (size_t i = 0; i < at_s_.size(); ++i) {
    if (at_s_[i] >= from_s && at_s_[i] < to_s) out.Add(values_[i]);
  }
  return out;
}

double Samples::TailPercent() const {
  const size_t n = values_.size();
  if (n <= 10) return 0;
  // Nearest rank r leaves n - r samples above it; keep at least ten.
  const double p = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return std::min(99.0, std::floor(p));
}

std::string TracePath(const Options& options) {
  std::filesystem::create_directories(options.trace_dir);
  return options.trace_dir + "/" + options.workload + "-seed" +
         std::to_string(options.seed) + ".jsonl";
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ------------------------------------------------------------- checks

void Verdicts::Fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (messages_.size() < 5) messages_.push_back(what);
}

void Verdicts::Record(const Status& status) {
  if (status.ok()) {
    Pass();
  } else {
    Fail(status.ToString());
  }
}

void Verdicts::Merge(const Verdicts& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() < 5) messages_.push_back(m);
  }
}

namespace {

uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

uint64_t HashText(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix(h);
}

uint64_t HashValue(const Value& v) {
  if (v.is_int()) return Mix(static_cast<uint64_t>(v.int_value()) ^ 0x1111);
  if (v.is_real()) {
    uint64_t bits = 0;
    const double x = v.real_value();
    std::memcpy(&bits, &x, sizeof(bits));
    return Mix(bits ^ 0x2222);
  }
  return HashText(v.string_value()) ^ 0x3333;
}

/// A weight in [0.5, 1.5) derived from a hash.
double Weight(uint64_t h) {
  return 0.5 + static_cast<double>(Mix(h) >> 11) * 0x1.0p-53;
}

/// Row r's key fingerprint, read from the column image.
uint64_t RowKey(const evident::ColumnStore& cs,
                const std::vector<size_t>& key_attrs, size_t r) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t a : key_attrs) h = Mix(h ^ HashValue(cs.value_column(a).values[r]));
  return h;
}

/// Row r's key as text, for messages.
std::string RowKeyText(const evident::ColumnStore& cs,
                       const std::vector<size_t>& key_attrs, size_t r) {
  std::string out;
  for (size_t a : key_attrs) {
    if (!out.empty()) out += '|';
    out += cs.value_column(a).values[r].ToString();
  }
  return out;
}

/// Calls fn(word_hash, mass) for every focal element of row r of
/// attribute a (inline or boxed evidence).
template <typename Fn>
void ForEachFocal(const evident::ColumnStore& cs, size_t a, size_t r, Fn fn) {
  using Kind = evident::ColumnStore::ColumnKind;
  if (cs.kind(a) == Kind::kEvidence) {
    const auto& col = cs.evidence_column(a);
    for (uint32_t i = col.offsets[r]; i < col.offsets[r + 1]; ++i) {
      fn(col.words[i] == 0, Mix(col.words[i]), col.masses[i]);
    }
    return;
  }
  for (const auto& [set, mass] : cs.boxed_column(a).sets[r].mass().focals()) {
    uint64_t h = 0;
    for (size_t i : set.Indices()) h = Mix(h ^ (i + 1));
    fn(set.IsEmpty(), h, mass);
  }
}

}  // namespace

uint64_t KeyFingerprint(const std::vector<Value>& key) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : key) h = Mix(h ^ HashValue(v));
  return h;
}

KeySet MakeKeySet(std::vector<uint64_t> fingerprints) {
  std::sort(fingerprints.begin(), fingerprints.end());
  return fingerprints;
}

KeySet KeysOf(const ExtendedRelation& rel) {
  const evident::ColumnStore& cs = rel.columns();
  const auto& key_attrs = rel.schema()->key_indices();
  std::vector<uint64_t> keys(cs.rows());
  for (size_t r = 0; r < keys.size(); ++r) keys[r] = RowKey(cs, key_attrs, r);
  return MakeKeySet(std::move(keys));
}

Status CheckInvariants(const ExtendedRelation& rel) {
  using Kind = evident::ColumnStore::ColumnKind;
  constexpr double kSlack = 1e-12;
  const evident::ColumnStore& cs = rel.columns();
  const auto& key_attrs = rel.schema()->key_indices();
  const size_t attrs = rel.schema()->size();
  for (size_t r = 0; r < cs.rows(); ++r) {
    const double sn = cs.sn()[r], sp = cs.sp()[r];
    if (!(sn > 0) || sn > sp + kSlack || sp > 1 + kSlack) {
      return Status::InvalidArgument(
          "row " + RowKeyText(cs, key_attrs, r) +
          " breaks 0 < sn <= sp <= 1 (sn=" + std::to_string(sn) +
          ", sp=" + std::to_string(sp) + ")");
    }
    for (size_t a = 0; a < attrs; ++a) {
      if (cs.kind(a) == Kind::kValue) continue;
      double total = 0;
      bool bad_focal = false;
      ForEachFocal(cs, a, r, [&](bool empty, uint64_t, double mass) {
        bad_focal |= empty || !(mass > 0);
        total += mass;
      });
      if (bad_focal || std::fabs(total - 1.0) > 1e-9) {
        return Status::InvalidArgument(
            "row " + RowKeyText(cs, key_attrs, r) + " attribute " +
            rel.schema()->attribute(a).name +
            " is not a mass function (sum " + std::to_string(total) + ")");
      }
    }
  }
  return Status::OK();
}

Status CheckKeysEqual(const ExtendedRelation& rel, const KeySet& expected,
                      const std::string& what) {
  const KeySet got = KeysOf(rel);
  if (got != expected) {
    return Status::InvalidArgument(what + ": " + std::to_string(got.size()) +
                                   " keys, expected " +
                                   std::to_string(expected.size()) +
                                   " (or a different key set)");
  }
  return Status::OK();
}

Status CheckKeysWithin(const ExtendedRelation& rel, const KeySet& allowed,
                       const std::string& what) {
  const evident::ColumnStore& cs = rel.columns();
  const auto& key_attrs = rel.schema()->key_indices();
  for (size_t r = 0; r < cs.rows(); ++r) {
    if (!std::binary_search(allowed.begin(), allowed.end(),
                            RowKey(cs, key_attrs, r))) {
      return Status::InvalidArgument(what + ": unexpected key " +
                                     RowKeyText(cs, key_attrs, r));
    }
  }
  return Status::OK();
}

Digest DigestOf(const ExtendedRelation& rel) {
  using Kind = evident::ColumnStore::ColumnKind;
  const evident::ColumnStore& cs = rel.columns();
  const auto& schema = *rel.schema();
  std::vector<uint64_t> attr_hash;
  for (const auto& attr : schema.attributes()) attr_hash.push_back(HashText(attr.name));
  Digest d;
  d.rows = cs.rows();
  for (size_t r = 0; r < cs.rows(); ++r) {
    const double w = Weight(RowKey(cs, schema.key_indices(), r));
    d.sn += w * cs.sn()[r];
    d.sp += w * cs.sp()[r];
    for (size_t a = 0; a < schema.size(); ++a) {
      if (cs.kind(a) == Kind::kValue) {
        d.values +=
            w * Weight(attr_hash[a] ^ HashValue(cs.value_column(a).values[r]));
        continue;
      }
      ForEachFocal(cs, a, r, [&](bool, uint64_t h, double mass) {
        d.evidence += w * mass * Weight(attr_hash[a] ^ h);
      });
    }
  }
  return d;
}

std::string Digest::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%llu %.17g %.17g %.17g %.17g",
                static_cast<unsigned long long>(rows), sn, sp, evidence,
                values);
  return buf;
}

bool Digest::Parse(const std::string& text, Digest* out) {
  std::istringstream in(text);
  unsigned long long rows = 0;
  if (!(in >> rows >> out->sn >> out->sp >> out->evidence >> out->values)) {
    return false;
  }
  out->rows = rows;
  return true;
}

bool Digest::Matches(const Digest& other, double tolerance) const {
  auto close = [&](double a, double b) {
    return std::fabs(a - b) <= tolerance * std::max(1.0, std::fabs(b));
  };
  return rows == other.rows && close(sn, other.sn) && close(sp, other.sp) &&
         close(evidence, other.evidence) && close(values, other.values);
}

void DigestBook::Load(const std::string& path) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    Digest d;
    if (Digest::Parse(line.substr(space + 1), &d)) {
      committed_[line.substr(0, space)] = d;
    }
  }
}

Status DigestBook::Check(const std::string& id, const Digest& digest) {
  if (recording_) {
    recorded_[id] = digest;
    return Status::OK();
  }
  auto it = committed_.find(id);
  if (it == committed_.end()) {
    return Status::NotFound("no committed digest for " + id);
  }
  if (!digest.Matches(it->second)) {
    return Status::InvalidArgument("digest of " + id + " is " +
                                   digest.ToString() + ", committed " +
                                   it->second.ToString());
  }
  return Status::OK();
}

Status DigestBook::Save(const std::string& path) const {
  // Merge with what is already committed so that recording one workload
  // keeps the others' digests.
  std::map<std::string, Digest> all = committed_;
  for (const auto& [id, d] : recorded_) all[id] = d;
  std::ofstream out(path);
  out << "# Order-independent result digests at seed " << kDefaultSeed
      << " (perfbench/src/harness.cc, DigestOf).\n"
      << "# Regenerate with: .bench_build/evident_bench --workload <w> "
         "--seed 1 --seconds 1 --record-digests\n";
  for (const auto& [id, d] : all) out << id << ' ' << d.ToString() << '\n';
  if (!out) return Status::InvalidArgument("cannot write " + path);
  return Status::OK();
}

// ------------------------------------------------------------- tracing

int SpanRecorder::Begin(const std::string& name, uint64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[static_cast<size_t>(index)].end = Clock::now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

Samples SpanRecorder::RootUnattributedFraction(const std::string& root) const {
  // Time covered by each span's direct children (children of one span are
  // sequential here: every layer call blocks its caller).
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] += MsBetween(s.start, s.end);
    }
  }
  Samples out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0 || spans_[i].name != root) continue;
    const double total = MsBetween(spans_[i].start, spans_[i].end);
    if (total > 0) out.Add((total - child[i]) / total);
  }
  return out;
}

void SpanRecorder::Write(const std::string& path) const {
  std::ofstream out(path);
  if (spans_.empty()) return;
  const Clock::time_point origin = spans_.front().start;
  for (const Span& s : spans_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"op\":%llu,\"parent\":%d,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.op),
                  s.parent, MsBetween(origin, s.start) * 1e3,
                  MsBetween(origin, s.end) * 1e3);
    out << buf;
  }
}

// ------------------------------------------------------------- reporting

void AddLatencyMetrics(const Samples& ops, double window_s, Report* report) {
  constexpr int kEpochs = 5;
  std::vector<double> rates, tails;
  std::string epochs;
  for (int e = 0; e < kEpochs; ++e) {
    const double from = window_s * e / kEpochs;
    const double to = e + 1 == kEpochs ? HUGE_VAL : window_s * (e + 1) / kEpochs;
    const Samples epoch = ops.Between(from, to);
    rates.push_back(static_cast<double>(epoch.size()) * kEpochs / window_s);
    tails.push_back(epoch.Quantile(0.99));
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.3f", tails.back());
    epochs += buf;
  }
  report->Add("ops_per_s", MedianOf(rates), "ops/s");
  report->Add("op_p50_ms", ops.Median(), "ms");
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "op_p99_ms %.4f ms (median of the epoch p99s:%s ms; "
                "all-sample p99 %.4f ms over %zu samples, highest percentile "
                "with >=10 samples above: p%.0f)",
                MedianOf(tails), epochs.c_str(), ops.Quantile(0.99),
                ops.size(), ops.TailPercent());
  report->Note(buf);
}

void AddClassNotes(const std::map<std::string, Samples>& by_class,
                   Report* report) {
  size_t total = 0;
  for (const auto& [name, samples] : by_class) total += samples.size();
  for (const auto& [name, samples] : by_class) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  %-24s share=%.3f  n=%zu  p50=%.4f ms  p99=%.4f ms",
                  name.c_str(),
                  static_cast<double>(samples.size()) /
                      static_cast<double>(std::max<size_t>(1, total)),
                  samples.size(), samples.Median(), samples.Quantile(0.99));
    report->Note(buf);
  }
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"ops_per_s", "ops/s"},
      {"op_p50_ms", "ms"},
      {"refresh_p50_ms", "ms"},
      {"peak_rss_mb", "MiB"},
      {"image_bytes_per_input_byte", "ratio"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"integration.preprocess_ms", "ms"},
      {"integration.identify_ms", "ms"},
      {"integration.merge_ms", "ms"},
      {"catalog.publish_ms", "ms"},
      {"storage.save_ms", "ms"},
      {"storage.image_bytes", "bytes"},
      {"storage.open_ms", "ms"},
      {"storage.first_touch_ms", "ms"},
      {"storage.partitions_pruned_frac", "ratio"},
      {"query.rows_examined_per_result", "ratio"},
      {"query.parse_us", "us"},
      {"query.plan_us", "us"},
      {"query.optimize_us", "us"},
      {"query.execute_ms", "ms"},
      {"query.root_qerror", "ratio"},
      {"core.union_ms", "ms"},
      {"core.rows_materialized", "count"},
      {"ds.combine_pairs", "count"},
      {"ds.combine_ns_per_pair", "ns"},
      {"server.plan_cache_hit_frac", "ratio"},
      {"server.overhead_us", "us"},
      {"trace.unattributed_frac", "ratio"},
      {"trace.overhead_ms", "ms"},
  };
  return kMetrics;
}

ExplainFacts ParseExplain(const std::string& text) {
  ExplainFacts facts;
  std::istringstream lines(text);
  // Indent and pruned fraction of the innermost fused pipeline whose
  // subtree we are in; -1 when none.
  int fused_indent = -1;
  double kept_fraction = 1.0;
  for (std::string line; std::getline(lines, line);) {
    const size_t first = line.find_first_not_of(' ');
    if (first == std::string::npos) continue;
    const int indent = static_cast<int>(first);
    const std::string body = line.substr(first);
    if (fused_indent >= 0 && indent <= fused_indent) {
      fused_indent = -1;
      kept_fraction = 1.0;
    }
    // The topmost node with an estimate stands for the result: only
    // joins and products print one, and nothing above them but
    // projection (or LIMIT, which callers account for) changes the count.
    const size_t tilde = body.find("~");
    if (facts.root_estimate == 0 && tilde != std::string::npos) {
      facts.root_estimate = std::strtod(body.c_str() + tilde + 1, nullptr);
    }
    if (body.rfind("fused pipeline[", 0) == 0) {
      const size_t p = body.find("partitions=");
      if (p != std::string::npos) {
        unsigned long pruned = 0, total = 0;
        std::sscanf(body.c_str() + p, "partitions=%lu/%lu", &pruned, &total);
        facts.partitions_pruned += static_cast<double>(pruned);
        facts.partitions_total += static_cast<double>(total);
        fused_indent = indent;
        kept_fraction = total > 0 ? 1.0 - static_cast<double>(pruned) /
                                              static_cast<double>(total)
                                  : 1.0;
      }
    } else if (body.rfind("scan[", 0) == 0) {
      const size_t comma = body.find(", ");
      if (comma != std::string::npos) {
        const double rows = std::strtod(body.c_str() + comma + 2, nullptr);
        facts.rows_scanned += rows * kept_fraction;
        const size_t parts = body.find(" partition(s)");
        if (parts != std::string::npos && fused_indent < 0) {
          // An unfiltered scan of a partitioned relation prunes nothing.
          const size_t start = body.rfind(", ", parts);
          facts.partitions_total +=
              std::strtod(body.c_str() + start + 2, nullptr);
        }
      }
    }
  }
  return facts;
}

}  // namespace perfbench
