// Shared pieces of the repository benchmark: seeded input generation,
// timing and latency statistics, output checks, the span recorder of the
// traced run, and the result line the benchmark prints.
#ifndef EVIDENT_PERFBENCH_HARNESS_H_
#define EVIDENT_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/extended_relation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: the benchmark's own generator, so its inputs depend only on
/// the seed and this file, never on the library's generators.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Uniform() < p; }

 private:
  uint64_t state_;
};

/// Parsed command line of the benchmark binary.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for saved images.
  std::string workdir = ".bench_work";
  /// Directory (inside the checkout) the traced run writes its spans to.
  std::string trace_dir = ".bench_trace";
  /// File of committed digests, checked at the default seed.
  std::string digest_file = "perfbench/digests.txt";
  /// Writes the digests of this run to `digest_file` instead of checking.
  bool record_digests = false;
};

/// Placeholder for a Result declared before the call that fills it.
inline const evident::Status kUnset = evident::Status::Internal("not run");

/// The seed whose statement digests are committed.
inline constexpr uint64_t kDefaultSeed = 1;

/// Peak resident set of this process, MiB (getrusage).
double PeakRssMb();

/// Share of the machine's CPU time the hypervisor gave to other guests
/// ("steal" in /proc/stat) since construction: on a shared virtual
/// machine it explains runs that are slow for reasons outside the program.
class StealMeter {
 public:
  StealMeter() : start_(Read()) {}
  /// A note line with the steal share, or that it is unknown.
  std::string Describe() const;

 private:
  static std::vector<uint64_t> Read();
  std::vector<uint64_t> start_;
};

/// Latency samples in milliseconds, optionally with each operation's
/// completion time (seconds into the measured window).
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  void Add(double ms, double at_s) {
    values_.push_back(ms);
    at_s_.push_back(at_s);
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    at_s_.insert(at_s_.end(), other.at_s_.begin(), other.at_s_.end());
  }
  /// The timed samples that completed in [from_s, to_s).
  Samples Between(double from_s, double to_s) const;
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The highest percentile that still has at least ten samples above
  /// it, capped at 99 (so it is the p99 once there are 1100 samples).
  double TailPercent() const;

 private:
  std::vector<double> values_;
  std::vector<double> at_s_;  // empty, or parallel to values_
};

// ------------------------------------------------------------- checks

/// Counts operations and the ones whose output failed a check, and keeps
/// the first few failure messages for the report.
class Verdicts {
 public:
  void Pass() { ++attempted_; }
  void Fail(const std::string& what);
  /// Records a check outcome: ok -> Pass, otherwise Fail(message).
  void Record(const evident::Status& status);
  void Merge(const Verdicts& other);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// The checks read results through their column image
// (ExtendedRelation::columns()), which every operator result already is,
// so checking costs a fraction of the operation. Call them only on the
// thread that produced the relation.

/// 64-bit fingerprint of a key: its key cells in schema order. Key sets
/// are compared as sorted fingerprints.
uint64_t KeyFingerprint(const std::vector<evident::Value>& key);
inline uint64_t KeyFingerprint(int64_t key) {
  return KeyFingerprint({evident::Value(key)});
}

/// A sorted set of key fingerprints.
using KeySet = std::vector<uint64_t>;
KeySet MakeKeySet(std::vector<uint64_t> fingerprints);

/// The keys of every row of `rel`.
KeySet KeysOf(const evident::ExtendedRelation& rel);

/// Checks the algebra's invariants on every row: CWA_ER sn > 0,
/// sn <= sp <= 1, and every evidence cell's masses positive, on non-empty
/// focal sets, summing to 1 within 1e-9.
evident::Status CheckInvariants(const evident::ExtendedRelation& rel);

/// Checks that `rel`'s keys are exactly `expected`.
evident::Status CheckKeysEqual(const evident::ExtendedRelation& rel,
                               const KeySet& expected,
                               const std::string& what);

/// Checks that `rel`'s keys all lie in `allowed`.
evident::Status CheckKeysWithin(const evident::ExtendedRelation& rel,
                                const KeySet& allowed,
                                const std::string& what);

/// An order-independent digest of a relation: the row count plus
/// key-weighted sums of membership, evidence masses and definite values.
/// Equal relations give equal digests up to floating-point summation
/// order, so digests compare with a relative tolerance.
struct Digest {
  uint64_t rows = 0;
  double sn = 0, sp = 0, evidence = 0, values = 0;

  std::string ToString() const;
  static bool Parse(const std::string& text, Digest* out);
  bool Matches(const Digest& other, double tolerance = 1e-7) const;
};

Digest DigestOf(const evident::ExtendedRelation& rel);

/// The committed digests of the default seed, keyed "<workload>/<id>".
class DigestBook {
 public:
  /// Loads `path`; a missing file leaves the book empty.
  void Load(const std::string& path);
  /// Compares against the committed digest, or records it when
  /// `recording`. A statement with no committed digest fails the check
  /// (the committed file must cover every statement it is asked about).
  evident::Status Check(const std::string& id, const Digest& digest);
  void set_recording(bool recording) { recording_ = recording; }
  /// The committed digests, to compare every later result against.
  const std::map<std::string, Digest>& committed() const { return committed_; }
  evident::Status Save(const std::string& path) const;

 private:
  bool recording_ = false;
  std::map<std::string, Digest> committed_;
  std::map<std::string, Digest> recorded_;
};

// ------------------------------------------------------------- tracing

/// One timed call into a layer: name, start and end, the span that
/// caused it, and the operation it belongs to.
struct Span {
  std::string name;
  Clock::time_point start, end;
  int parent = -1;  // index into the recorder, -1 for an operation root
  uint64_t op = 0;
};

/// Keeps spans in memory; written out when the run ends.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name, uint64_t op);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }
  /// For each root span named `root`: its own self time over its
  /// duration — the part of the operation no layer span covers.
  Samples RootUnattributedFraction(const std::string& root) const;
  /// Writes the spans as JSON lines.
  void Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, uint64_t op)
      : recorder_(recorder), index_(recorder->Begin(name, op)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced.
struct Report {
  Verdicts verdicts;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Adds the latency metrics shared by every workload from timed samples:
/// op_p50_ms over all of them and ops_per_s as the median over five equal
/// epochs of the window, so a stall of the machine confined to one epoch
/// does not move it. The tail, op_p99_ms (the median of the epochs'
/// p99s), is a note: on a shared host its run-to-run spread is wider than
/// any bound the benchmark may set, so it is reported but not bounded.
/// The note also gives the sample count, the all-sample p99 and the
/// highest percentile the samples support.
void AddLatencyMetrics(const Samples& ops, double window_s, Report* report);

/// A note per statement class: its share of the operations and its
/// median latency.
void AddClassNotes(const std::map<std::string, Samples>& by_class,
                   Report* report);

/// Per-layer metrics reported by every traced run; workloads that do not
/// reach a layer report it as 0 (see perfbench/README.md).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// The end-to-end metrics every untraced run reports.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// Workload entry points.
Report RunIntegrate(const Options& options);
Report RunFuse(const Options& options);
Report RunServe(const Options& options);

/// Where a traced run writes its spans: <trace_dir>/<workload>-seed<N>.jsonl.
std::string TracePath(const Options& options);

/// Median of a few values (setup repetitions).
double MedianOf(std::vector<double> values);

/// Parses EXPLAIN text: the root's `~N rows` estimate (0 when the root
/// line carries none), and rows scanned after zone-map pruning together
/// with partitions pruned / considered.
struct ExplainFacts {
  double root_estimate = 0;
  double rows_scanned = 0;
  double partitions_pruned = 0;
  double partitions_total = 0;
};
ExplainFacts ParseExplain(const std::string& text);

}  // namespace perfbench

#endif  // EVIDENT_PERFBENCH_HARNESS_H_
