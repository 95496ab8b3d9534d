// Workload `fuse`: one session runs EQL UNION / INTERSECT ... WHERE ...
// WITH over a mapped catalog, morsel pool capped at one thread.
//
// The catalog holds a sparse survey-like pair (SA, SB: 22000 rows each,
// 60 % shared, so 30800 entities; three uncertain attributes on a
// 12-value frame, at most 6 focal elements) and a smaller dense pair
// (DA, DB: 2000 rows each, 60 % shared; two uncertain attributes on a
// 10-value frame, up to 64 focal elements), so the combination kernel runs
// on both sides of its pairwise / fast-Möbius cost model. Every evidence
// set keeps some mass on the whole frame, so no pair totally conflicts.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/operations.h"
#include "core/parallel.h"
#include "core/schema.h"
#include "ds/combination.h"
#include "queries.h"

namespace perfbench {

using namespace evident;

namespace {

// 22000 rows a side (30800 entities) keeps an operation short enough for
// a 30 s run to collect the 1000 samples a p99 needs, even when a shared
// 4-core host runs slow.
constexpr size_t kSparseRows = 22000;
constexpr size_t kSparseShared = 13200;
constexpr size_t kDenseRows = 2000;
constexpr size_t kDenseShared = 1200;
constexpr size_t kSetupRepetitions = 9;
constexpr size_t kRefreshes = 41;
constexpr size_t kRefreshRows = 1000;

/// One generated source pair: the relations the program receives, plus
/// what the checks need to know about them.
struct Pair {
  std::string left, right;  // relation names
  ExtendedRelation a, b;
  KeySet union_keys, shared_keys, a_keys;
  std::vector<int64_t> shared_ids;
  size_t uncertain = 0;
  // Definite value of each entity id (shared entities agree on it).
  std::vector<int64_t> definite;
  DomainPtr frame;
  size_t focals_max = 0, width = 0;
};

void Require(const Status& s, const char* what) {
  if (!s.ok()) throw std::runtime_error(std::string(what) + ": " + s.ToString());
}

ExtendedTuple MakeRow(int64_t id, const Pair& pair, Rng& rng) {
  ExtendedTuple t;
  t.cells.emplace_back(Value(id));
  t.cells.emplace_back(Value(pair.definite[static_cast<size_t>(id)]));
  for (size_t u = 0; u < pair.uncertain; ++u) {
    const size_t focals = 1 + rng.Below(pair.focals_max);
    t.cells.emplace_back(
        RandomEvidence(pair.frame, focals, pair.width, true, rng));
  }
  t.membership = RandomMembership(rng);
  return t;
}

Pair MakePair(const std::string& p, size_t rows, size_t shared,
              size_t uncertain, size_t frame_size, size_t focals_max,
              size_t width, Rng& rng) {
  Pair pair;
  pair.left = p + "A";
  pair.right = p + "B";
  pair.uncertain = uncertain;
  pair.frame = Frame(p + "frame", p == "S" ? "f" : "g", frame_size);
  pair.focals_max = focals_max;
  pair.width = width;
  const std::string k = p == "S" ? "sk" : "dk";
  std::vector<AttributeDef> attrs = {AttributeDef::Key(k),
                                     AttributeDef::Definite(p == "S" ? "sd" : "dd")};
  for (size_t u = 0; u < uncertain; ++u) {
    attrs.push_back(AttributeDef::Uncertain(
        (p == "S" ? "u" : "w") + std::to_string(u), pair.frame));
  }
  SchemaPtr schema = RelationSchema::Make(attrs).value();
  const size_t total = 2 * rows - shared;
  for (size_t i = 0; i < total; ++i) {
    pair.definite.push_back(static_cast<int64_t>(rng.Below(1000)));
  }
  // Ids [0, rows) are in A, [total - rows, total) in B; each source
  // inserts its rows in its own random order.
  auto fill = [&](const std::string& name, size_t from, size_t to) {
    std::vector<int64_t> ids;
    for (size_t i = from; i < to; ++i) ids.push_back(static_cast<int64_t>(i));
    for (size_t i = ids.size(); i > 1; --i) std::swap(ids[i - 1], ids[rng.Below(i)]);
    ExtendedRelation rel(name, schema);
    for (int64_t id : ids) Require(rel.Insert(MakeRow(id, pair, rng)), "insert");
    return rel;
  };
  pair.a = fill(pair.left, 0, rows);
  pair.b = fill(pair.right, total - rows, total);
  std::vector<uint64_t> all, shared_keys, a_keys;
  for (size_t i = 0; i < total; ++i) {
    const uint64_t key = KeyFingerprint(static_cast<int64_t>(i));
    all.push_back(key);
    if (i < rows) a_keys.push_back(key);
    if (i >= total - rows && i < rows) {
      shared_keys.push_back(key);
      pair.shared_ids.push_back(static_cast<int64_t>(i));
    }
  }
  pair.union_keys = MakeKeySet(std::move(all));
  pair.shared_keys = MakeKeySet(std::move(shared_keys));
  pair.a_keys = MakeKeySet(std::move(a_keys));
  return pair;
}

/// One statement of the mix and how its output is checked.
struct Statement {
  std::string id, text;
  const Pair* pair = nullptr;
  bool intersect = false;
  double weight = 0;
};

std::string IsList(const std::string& prefix, std::initializer_list<int> v) {
  std::string out = "{";
  for (int i : v) {
    if (out.size() > 1) out += ", ";
    out += prefix + std::to_string(i);
  }
  return out + "}";
}

/// The statement mix. Weights put the median well inside one statement
/// class: the sparse INTERSECT takes 70 % of the operations, so whatever
/// the order of the class latencies (on a 4-core shared virtual machine
/// it changed between fast and slow spells: the dense classes slow down
/// more), the median lies inside that class at least 20 points from
/// either edge.
std::vector<Statement> MakeStatements(const Pair& sparse, const Pair& dense) {
  std::vector<Statement> out;
  out.push_back({"fuse/sparse_union", "SELECT * FROM SA UNION SB", &sparse,
                 false, 0.12});
  const std::initializer_list<int> sparse_sets[] = {{0, 1, 2, 3, 4, 5},
                                                    {3, 4, 5, 6, 7, 8, 9},
                                                    {6, 7, 8, 9, 10, 11, 0}};
  for (size_t i = 0; i < 3; ++i) {
    out.push_back({"fuse/sparse_intersect" + std::to_string(i),
                   "SELECT * FROM SA INTERSECT SB WHERE u0 IS " +
                       IsList("f", sparse_sets[i]) + " WITH sn >= 0.1",
                   &sparse, true, 0.70 / 3});
  }
  out.push_back({"fuse/dense_union", "SELECT * FROM DA UNION DB", &dense,
                 false, 0.06});
  const std::initializer_list<int> dense_sets[] = {{0, 1, 2, 3, 4},
                                                   {5, 6, 7, 8, 9}};
  for (size_t i = 0; i < 2; ++i) {
    out.push_back({"fuse/dense_intersect" + std::to_string(i),
                   "SELECT * FROM DA INTERSECT DB WHERE w0 IS " +
                       IsList("g", dense_sets[i]) + " WITH sn >= 0.05",
                   &dense, true, 0.12 / 2});
  }
  return out;
}

Status CheckStatement(const Statement& st, const ExtendedRelation& rel) {
  if (st.intersect) {
    EVIDENT_RETURN_NOT_OK(CheckKeysWithin(rel, st.pair->shared_keys, st.id));
  } else {
    EVIDENT_RETURN_NOT_OK(CheckKeysEqual(rel, st.pair->union_keys, st.id));
  }
  return CheckInvariants(rel);
}

/// Checks a result against the generator's key sets, the invariants, and
/// the first digest of the same statement in this process (committed at
/// the default seed).
Status CheckResult(const Statement& st, const ExtendedRelation& rel,
                   DigestBook* book, std::map<std::string, Digest>* first) {
  EVIDENT_RETURN_NOT_OK(CheckStatement(st, rel));
  const Digest d = DigestOf(rel);
  auto [it, inserted] = first->emplace(st.id, d);
  if (!inserted && !d.Matches(it->second)) {
    return Status::InvalidArgument(st.id + " does not match its digest");
  }
  if (book != nullptr && inserted) return book->Check(st.id, d);
  return Status::OK();
}

/// A delta of fresh evidence on `rows` random existing keys of `pair.a`,
/// definite attributes copied, merged with Union and republished.
Status Refresh(Catalog* catalog, const Pair& pair, Rng& rng,
               double* refresh_ms, double* publish_ms) {
  ExtendedRelation delta(pair.left, pair.a.schema());
  std::vector<int64_t> ids;
  const size_t rows = pair.a.size();
  while (ids.size() < kRefreshRows) {
    const int64_t id = static_cast<int64_t>(rng.Below(rows));
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  for (int64_t id : ids) EVIDENT_RETURN_NOT_OK(delta.Insert(MakeRow(id, pair, rng)));
  auto snapshot = catalog->Snapshot();
  EVIDENT_ASSIGN_OR_RETURN(auto current, snapshot->GetRelationShared(pair.left));
  UnionOptions options;
  options.on_total_conflict = TotalConflictPolicy::kVacuous;
  const Clock::time_point t0 = Clock::now();
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation merged,
                           Union(*current, delta, options));
  merged.set_name(pair.left);
  ExtendedRelation check = merged;  // shares the column image
  const Clock::time_point t1 = Clock::now();
  EVIDENT_RETURN_NOT_OK(catalog->RegisterRelation(std::move(merged), true));
  *refresh_ms = MsSince(t0);
  *publish_ms = MsSince(t1);
  EVIDENT_RETURN_NOT_OK(CheckKeysEqual(check, pair.a_keys, "refresh"));
  return CheckInvariants(check);
}

}  // namespace

Report RunFuse(const Options& options) {
  Report report;
  // One thread: a morsel pool as wide as a shared host's few cores is at
  // the mercy of any one stolen core (the 4-thread pool's ops_per_s spread
  // 0.27 of its median across ten seeds; one thread, 0.04).
  SetParallelMaxThreads(1);
  std::filesystem::create_directories(options.workdir);
  const std::string image = options.workdir + "/fuse.erel";

  // Inputs, generated from the seed and saved as the image the program
  // opens. Not part of set-up.
  Rng rng(options.seed * 7919 + 3);
  const Pair sparse = MakePair("S", kSparseRows, kSparseShared, 3, 12, 5, 3, rng);
  const Pair dense = MakePair("D", kDenseRows, kDenseShared, 2, 10, 63, 5, rng);
  SavedImage saved;
  {
    Catalog catalog;
    for (const Pair* p : {&sparse, &dense}) {
      Require(catalog.RegisterRelation(p->a), "register");
      Require(catalog.RegisterRelation(p->b), "register");
    }
    saved = SaveImage(catalog, image, PartitionSpec());
  }
  const std::vector<Statement> statements = MakeStatements(sparse, dense);

  DigestBook book;
  book.Load(options.digest_file);
  book.set_recording(options.record_digests);
  DigestBook* checked_book =
      options.seed == kDefaultSeed || options.record_digests ? &book : nullptr;
  // Each statement's results must match its first result in the run — at
  // the default seed, its committed digest.
  std::map<std::string, Digest> first_digest;
  if (checked_book != nullptr && !options.record_digests) {
    first_digest = book.committed();
  }

  // Set-up: open the image, start the session manager, and run each
  // statement once cold (deferred first-touch verification lands here).
  std::vector<double> setup_s, open_ms, first_touch_ms;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<server::SessionManager> manager;
  std::unique_ptr<server::Session> session;
  for (size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    session.reset();
    manager.reset();
    catalog.reset();
    std::vector<Result<ExtendedRelation>> cold;
    std::vector<double> cold_ms;
    const Clock::time_point start = Clock::now();
    catalog = OpenImage(image);
    const double opened = MsSince(start);
    manager = std::make_unique<server::SessionManager>(catalog.get());
    session = manager->OpenSession();
    for (const Statement& st : statements) {
      const Clock::time_point t0 = Clock::now();
      cold.push_back(session->Execute(st.text));
      cold_ms.push_back(MsSince(t0));
    }
    setup_s.push_back(MsSince(start) / 1e3);
    open_ms.push_back(opened);
    // Cold minus warm: the second execution finds every partition
    // verified and the plan cached.
    double touch = 0;
    for (size_t i = 0; i < statements.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      auto warm = session->Execute(statements[i].text);
      touch += cold_ms[i] - MsSince(t0);
      report.verdicts.Record(warm.status());
    }
    first_touch_ms.push_back(touch);
    for (size_t i = 0; i < statements.size(); ++i) {
      if (!cold[i].ok()) {
        report.verdicts.Record(cold[i].status());
        continue;
      }
      report.verdicts.Record(CheckResult(statements[i], *cold[i],
                                         rep == 0 ? checked_book : nullptr,
                                         &first_digest));
    }
  }
  report.Add("setup_s", MedianOf(setup_s), "s");

  // The operation sequence is drawn from the seed.
  Rng mix(options.seed * 31 + 7);
  auto pick = [&]() -> const Statement& {
    double roll = mix.Uniform();
    for (const Statement& st : statements) {
      if ((roll -= st.weight) < 0) return st;
    }
    return statements.back();
  };
  std::map<std::string, Samples> by_class;
  auto run_untraced = [&](Samples* ops, Clock::time_point start) {
    const Statement& st = pick();
    const Clock::time_point t0 = Clock::now();
    auto result = session->Execute(st.text);
    const Clock::time_point t1 = Clock::now();
    const double ms = MsBetween(t0, t1);
    if (!result.ok()) {
      report.verdicts.Record(result.status());
      return;
    }
    const Status s = CheckResult(st, *result, nullptr, &first_digest);
    report.verdicts.Record(s);
    if (s.ok()) {
      ops->Add(ms, MsBetween(start, t1) / 1e3);
      by_class[st.id.substr(0, st.id.find_last_not_of("0123456789") + 1)].Add(ms);
    }
  };

  if (!options.trace) {
    Samples ops;
    const StealMeter steal;
    const Clock::time_point start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(options.seconds);
    while (Clock::now() < deadline) run_untraced(&ops, start);
    const double window_s = MsSince(start) / 1e3;
    AddLatencyMetrics(ops, window_s, &report);
    report.Note(steal.Describe());
    AddClassNotes(by_class, &report);
    report.Add("image_bytes_per_input_byte",
               saved.image_bytes / saved.text_bytes, "ratio");
  } else {
    Samples untraced;
    const auto half = std::chrono::duration<double>(options.seconds / 2);
    const Clock::time_point start = Clock::now();
    while (Clock::now() < start + half) run_untraced(&untraced, start);

    SpanRecorder spans;
    QueryLayers layers;
    std::map<std::string, ExplainFacts> explain;
    Samples served, union_ms;
    const uint64_t hits0 = manager->plan_cache_hits();
    const uint64_t misses0 = manager->plan_cache_misses();
    const auto snapshot = catalog->Snapshot();
    uint64_t op = 0;
    const Clock::time_point traced_start = Clock::now();
    while (Clock::now() < traced_start + half) {
      const Statement& st = pick();
      ++op;
      const size_t first_span = spans.spans().size();
      auto result = TracedStatement(session.get(), *catalog, st.text, false,
                                    true, &spans, op, &layers, &explain);
      if (!result.ok()) {
        report.verdicts.Record(result.status());
        continue;
      }
      report.verdicts.Record(CheckResult(st, *result, nullptr, &first_digest));
      served.Add(MsBetween(spans.spans()[first_span].start,
                           spans.spans()[first_span].end));
      if (st.pair == &sparse) {
        // The operator alone, on the mapped sources.
        const ExtendedRelation* a = snapshot->GetRelation(sparse.left).value();
        const ExtendedRelation* b = snapshot->GetRelation(sparse.right).value();
        const Clock::time_point t0 = Clock::now();
        Result<ExtendedRelation> u = kUnset;
        {
          ScopedSpan s(&spans, "core.union", op);
          u = Union(*a, *b);
        }
        union_ms.Add(MsSince(t0));
        report.verdicts.Record(u.status());
      }
    }
    const double hits = static_cast<double>(manager->plan_cache_hits() - hits0);
    const double misses =
        static_cast<double>(manager->plan_cache_misses() - misses0);

    // The kernel's public entry over every matched pair of both sources.
    std::vector<std::pair<const EvidenceSet*, const EvidenceSet*>> matched;
    for (const Pair* p : {&sparse, &dense}) {
      for (int64_t id : p->shared_ids) {
        const auto& ra = p->a.row(p->a.FindByKey({Value(id)}).value());
        const auto& rb = p->b.row(p->b.FindByKey({Value(id)}).value());
        for (size_t u = 0; u < p->uncertain; ++u) {
          matched.emplace_back(&std::get<EvidenceSet>(ra.cells[2 + u]),
                               &std::get<EvidenceSet>(rb.cells[2 + u]));
        }
      }
    }
    std::vector<double> ns_per_pair;
    for (int pass = 0; pass < 3; ++pass) {
      size_t failures = 0;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan s(&spans, "ds.combine", ++op);
        for (const auto& [ea, eb] : matched) {
          failures += CombineEvidence(*ea, *eb).ok() ? 0 : 1;
        }
      }
      ns_per_pair.push_back(MsSince(t0) * 1e6 /
                            static_cast<double>(matched.size()));
      report.verdicts.Record(
          failures == 0 ? Status::OK()
                        : Status::InvalidArgument("kernel rejected a pair"));
    }
    spans.Write(TracePath(options));
    layers.Report(&report);
    report.Add("core.union_ms", union_ms.Median(), "ms");
    report.Add("ds.combine_pairs", static_cast<double>(matched.size()),
               "count");
    report.Add("ds.combine_ns_per_pair", MedianOf(ns_per_pair), "ns");
    report.Add("server.plan_cache_hit_frac",
               hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
    report.Add("storage.open_ms", MedianOf(open_ms), "ms");
    report.Add("storage.first_touch_ms", MedianOf(first_touch_ms), "ms");
    report.Add("trace.unattributed_frac",
               spans.RootUnattributedFraction("engine").Median(), "ratio");
    report.Add("trace.overhead_ms", served.Median() - untraced.Median(), "ms");
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "traced ops=%zu server.execute p50=%.4f ms; untraced "
                  "ops=%zu p50=%.4f ms",
                  served.size(), served.Median(), untraced.size(),
                  untraced.Median());
    report.Note(buf);
  }
  // The writer side of this catalog, after the read window: merge a
  // 1000-key delta of fresh evidence onto SA and republish, on the same
  // one-thread pool as the reads.
  Samples refresh, publish;
  Rng writer(options.seed * 131 + 5);
  for (size_t i = 0; i < kRefreshes; ++i) {
    double refresh_ms = 0, publish_ms = 0;
    const Status s =
        Refresh(catalog.get(), sparse, writer, &refresh_ms, &publish_ms);
    report.verdicts.Record(s);
    if (s.ok()) {
      refresh.Add(refresh_ms);
      publish.Add(publish_ms);
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "refreshes=%zu  p25=%.4f  p50=%.4f  p75=%.4f ms  (publish p50 "
                "%.4f ms)",
                refresh.size(), refresh.Quantile(0.25), refresh.Median(),
                refresh.Quantile(0.75), publish.Median());
  report.Note(buf);
  if (options.trace) {
    report.Add("catalog.publish_ms", publish.Median(), "ms");
  } else {
    report.Add("refresh_p50_ms", refresh.Median(), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  }
  if (options.record_digests) Require(book.Save(options.digest_file), "digests");
  session.reset();
  manager.reset();
  SetParallelMaxThreads(0);
  return report;
}

}  // namespace perfbench
