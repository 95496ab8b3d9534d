// Workload `serve`: two reader sessions run short statements over a
// mapped, 16-way key-range-partitioned catalog while one writer refreshes
// a relation at a fixed cadence. Morsel pool capped at 1, so the
// concurrency measured is session concurrency. Two readers, not three,
// leave a core of a 4-core shared host free: with three, ten seeds spread
// op_p50_ms 0.11 and refresh_p50_ms 0.17 of their medians; with two,
// 0.07 and 0.06.
//
// Catalog: F (80000 facts: key fid, definite cust / item / qty, uncertain
// grade on a 12-value frame), C (4000 customers: key cid, definite region,
// uncertain seg), I (1000 items: key iid, definite cat, uncertain quality)
// and P (20000 profiles: key pid, definite city, uncertain tier and risk).
// Readers draw point lookups, zone-map-pruned filtered scans, a pushdown
// equi-join, a 3-way star join and ORDER BY ... LIMIT; each class has 16
// literal variants, so statements miss the plan cache after every
// republish. A quarter of the reads hit P, the relation the writer
// refreshes every 250 ms: it merges a 1000-key delta of fresh evidence
// (definite attributes copied) onto the base P with Union and publishes
// the result, so P's key set and size never change.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/operations.h"
#include "core/parallel.h"
#include "core/schema.h"
#include "queries.h"

namespace perfbench {

using namespace evident;

namespace {

constexpr size_t kFacts = 80000;
constexpr size_t kCustomers = 4000;
constexpr size_t kItems = 1000;
constexpr size_t kProfiles = 20000;
constexpr size_t kReaders = 2;
constexpr size_t kVariants = 16;
constexpr size_t kSetupRepetitions = 7;
constexpr size_t kRefreshRows = 1000;
constexpr auto kRefreshPeriod = std::chrono::milliseconds(250);

void Require(const Status& s, const char* what) {
  if (!s.ok()) throw std::runtime_error(std::string(what) + ": " + s.ToString());
}

/// The generated catalog and the facts the checks need.
struct Data {
  DomainPtr grade, seg, quality, tier, risk;
  std::vector<int64_t> cust, item, qty;         // per fact
  std::vector<std::vector<uint64_t>> grade_focals;  // per fact, focal words
  std::vector<int64_t> region;                  // per customer
  std::vector<int64_t> cat;                     // per item
  std::vector<int64_t> city;                    // per profile
  KeySet profile_keys;
  Catalog catalog;
};

uint64_t Word(const ValueSet& s) {
  uint64_t w = 0;
  for (size_t i : s.Indices()) w |= uint64_t{1} << i;
  return w;
}

ExtendedTuple Row(std::vector<Cell> cells, Rng& rng) {
  ExtendedTuple t;
  t.cells = std::move(cells);
  t.membership = RandomMembership(rng);
  return t;
}

std::unique_ptr<Data> MakeData(uint64_t seed) {
  auto d = std::make_unique<Data>();
  Rng rng(seed * 104729 + 11);
  d->grade = Frame("grade", "q", 12);
  d->seg = Frame("seg", "s", 8);
  d->quality = Frame("quality", "t", 6);
  d->tier = Frame("tier", "p", 8);
  d->risk = Frame("risk", "r", 8);
  auto schema = [](std::vector<AttributeDef> attrs) {
    return RelationSchema::Make(std::move(attrs)).value();
  };
  ExtendedRelation f("F", schema({AttributeDef::Key("fid"),
                                  AttributeDef::Definite("cust"),
                                  AttributeDef::Definite("item"),
                                  AttributeDef::Definite("qty"),
                                  AttributeDef::Uncertain("grade", d->grade)}));
  for (size_t i = 0; i < kFacts; ++i) {
    d->cust.push_back(static_cast<int64_t>(rng.Below(kCustomers)));
    d->item.push_back(static_cast<int64_t>(rng.Below(kItems)));
    d->qty.push_back(static_cast<int64_t>(rng.Below(100)));
    EvidenceSet g = RandomEvidence(d->grade, 1 + rng.Below(3), 3,
                                   rng.Chance(0.5), rng);
    std::vector<uint64_t> words;
    for (const auto& [set, mass] : g.mass().focals()) words.push_back(Word(set));
    d->grade_focals.push_back(std::move(words));
    Require(f.Insert(Row({Value(static_cast<int64_t>(i)), Value(d->cust[i]),
                          Value(d->item[i]), Value(d->qty[i]), std::move(g)},
                         rng)),
            "insert F");
  }
  ExtendedRelation c("C", schema({AttributeDef::Key("cid"),
                                  AttributeDef::Definite("region"),
                                  AttributeDef::Uncertain("seg", d->seg)}));
  for (size_t i = 0; i < kCustomers; ++i) {
    d->region.push_back(static_cast<int64_t>(rng.Below(16)));
    Require(c.Insert(Row({Value(static_cast<int64_t>(i)), Value(d->region[i]),
                          RandomEvidence(d->seg, 1 + rng.Below(3), 3, true, rng)},
                         rng)),
            "insert C");
  }
  ExtendedRelation it("I", schema({AttributeDef::Key("iid"),
                                   AttributeDef::Definite("cat"),
                                   AttributeDef::Uncertain("quality", d->quality)}));
  for (size_t i = 0; i < kItems; ++i) {
    d->cat.push_back(static_cast<int64_t>(rng.Below(32)));
    Require(it.Insert(Row({Value(static_cast<int64_t>(i)), Value(d->cat[i]),
                           RandomEvidence(d->quality, 1 + rng.Below(2), 2, true,
                                          rng)},
                          rng)),
            "insert I");
  }
  ExtendedRelation p("P", schema({AttributeDef::Key("pid"),
                                  AttributeDef::Definite("city"),
                                  AttributeDef::Uncertain("tier", d->tier),
                                  AttributeDef::Uncertain("risk", d->risk)}));
  for (size_t i = 0; i < kProfiles; ++i) {
    d->city.push_back(static_cast<int64_t>(rng.Below(100)));
    Require(p.Insert(Row({Value(static_cast<int64_t>(i)), Value(d->city[i]),
                          RandomEvidence(d->tier, 1 + rng.Below(3), 3, true, rng),
                          RandomEvidence(d->risk, 1 + rng.Below(3), 3, true, rng)},
                         rng)),
            "insert P");
    d->profile_keys.push_back(KeyFingerprint(static_cast<int64_t>(i)));
  }
  d->profile_keys = MakeKeySet(std::move(d->profile_keys));
  for (ExtendedRelation* rel : {&f, &c, &it, &p}) {
    Require(d->catalog.RegisterRelation(std::move(*rel)), "register");
  }
  return d;
}

/// One statement instance with the keys its result must have.
struct Statement {
  std::string id, text;
  KeySet keys;
  bool on_refreshed = false;      // reads P
  bool limit = false;             // keys ⊆ `keys`, size min(10, |keys|)
};

struct Class {
  std::string name;
  double weight;
  std::vector<Statement> variants;
};

/// The seven statement classes with their literal pools; weights sum to
/// 1 and put a quarter of the reads on P. Literals vary in position, not
/// in selectivity (fixed range widths, IS sets of exactly 6 of 12 grades,
/// a fixed category bound), so a class costs about the same at every seed.
std::vector<Class> MakeClasses(const Data& d, uint64_t seed) {
  Rng rng(seed * 613 + 29);
  std::vector<Class> classes = {
      {"point_f", 0.25, {}}, {"point_p", 0.15, {}}, {"scan_p", 0.10, {}},
      {"range_f", 0.20, {}}, {"join_fc", 0.12, {}}, {"star_fci", 0.10, {}},
      {"topk_f", 0.08, {}}};
  auto grade_set = [&](uint64_t* word) {
    *word = 0;
    while (__builtin_popcountll(*word) < 6) *word |= uint64_t{1} << rng.Below(12);
    std::string list = "{";
    for (size_t i = 0; i < 12; ++i) {
      if (!(*word >> i & 1)) continue;
      if (list.size() > 1) list += ", ";
      list += "q" + std::to_string(i);
    }
    return list + "}";
  };
  // Bel(grade ⊆ S) > 0 iff some focal element lies inside S.
  auto grade_in = [&](size_t row, uint64_t s) {
    for (uint64_t w : d.grade_focals[row]) {
      if ((w & ~s) == 0) return true;
    }
    return false;
  };
  for (size_t v = 0; v < kVariants; ++v) {
    const std::string suffix = "/" + std::to_string(v);
    {
      const int64_t k = static_cast<int64_t>(rng.Below(kFacts));
      classes[0].variants.push_back(
          {"serve/point_f" + suffix,
           "SELECT * FROM F WHERE fid = " + std::to_string(k),
           {KeyFingerprint(k)}, false, false});
    }
    {
      const int64_t k = static_cast<int64_t>(rng.Below(kProfiles));
      classes[1].variants.push_back(
          {"serve/point_p" + suffix,
           "SELECT * FROM P WHERE pid = " + std::to_string(k),
           {KeyFingerprint(k)}, true, false});
    }
    {
      const int64_t c = static_cast<int64_t>(rng.Below(100));
      Statement st{"serve/scan_p" + suffix,
                   "SELECT pid, city FROM P WHERE city = " + std::to_string(c),
                   {}, true, false};
      for (size_t i = 0; i < kProfiles; ++i) {
        if (d.city[i] == c) st.keys.push_back(KeyFingerprint(int64_t(i)));
      }
      classes[2].variants.push_back(std::move(st));
    }
    {
      const size_t a = rng.Below(kFacts - 400);
      uint64_t s = 0;
      const std::string set = grade_set(&s);
      Statement st{"serve/range_f" + suffix,
                   "SELECT fid, qty, grade FROM F WHERE fid >= " +
                       std::to_string(a) + " AND fid < " +
                       std::to_string(a + 400) + " AND qty < 50 AND grade IS " +
                       set,
                   {}, false, false};
      for (size_t i = a; i < a + 400; ++i) {
        if (d.qty[i] < 50 && grade_in(i, s)) {
          st.keys.push_back(KeyFingerprint(int64_t(i)));
        }
      }
      classes[3].variants.push_back(std::move(st));
    }
    {
      const size_t a = rng.Below(kFacts - 300);
      const int64_t r = static_cast<int64_t>(rng.Below(16));
      Statement st{"serve/join_fc" + suffix,
                   "SELECT * FROM F JOIN C WHERE cust = cid AND fid >= " +
                       std::to_string(a) + " AND fid < " +
                       std::to_string(a + 300) + " AND region = " +
                       std::to_string(r),
                   {}, false, false};
      for (size_t i = a; i < a + 300; ++i) {
        if (d.region[static_cast<size_t>(d.cust[i])] == r) {
          st.keys.push_back(KeyFingerprint(
              {Value(static_cast<int64_t>(i)), Value(d.cust[i])}));
        }
      }
      classes[4].variants.push_back(std::move(st));
    }
    {
      const size_t a = rng.Below(kFacts - 300);
      const int64_t c = 8;  // a quarter of the items
      Statement st{"serve/star_fci" + suffix,
                   "SELECT * FROM F, C, I WHERE cust = cid AND item = iid AND "
                   "fid >= " + std::to_string(a) + " AND fid < " +
                       std::to_string(a + 300) + " AND cat < " +
                       std::to_string(c),
                   {}, false, false};
      for (size_t i = a; i < a + 300; ++i) {
        if (d.cat[static_cast<size_t>(d.item[i])] < c) {
          st.keys.push_back(KeyFingerprint({Value(static_cast<int64_t>(i)),
                                            Value(d.cust[i]), Value(d.item[i])}));
        }
      }
      classes[5].variants.push_back(std::move(st));
    }
    {
      const size_t a = rng.Below(kFacts - 2000);
      uint64_t s = 0;
      const std::string set = grade_set(&s);
      Statement st{"serve/topk_f" + suffix,
                   "SELECT fid, grade FROM F WHERE fid >= " + std::to_string(a) +
                       " AND fid < " + std::to_string(a + 2000) +
                       " AND grade IS " + set + " ORDER BY sn DESC LIMIT 10",
                   {}, false, true};
      for (size_t i = a; i < a + 2000; ++i) {
        if (grade_in(i, s)) st.keys.push_back(KeyFingerprint(int64_t(i)));
      }
      classes[6].variants.push_back(std::move(st));
    }
  }
  for (Class& c : classes) {
    for (Statement& st : c.variants) std::sort(st.keys.begin(), st.keys.end());
  }
  return classes;
}

Status CheckStatement(const Statement& st, const ExtendedRelation& rel) {
  if (st.limit) {
    const size_t want = std::min<size_t>(10, st.keys.size());
    if (rel.size() != want) {
      return Status::InvalidArgument(st.id + ": " + std::to_string(rel.size()) +
                                     " rows, expected " + std::to_string(want));
    }
    EVIDENT_RETURN_NOT_OK(CheckKeysWithin(rel, st.keys, st.id));
  } else {
    EVIDENT_RETURN_NOT_OK(CheckKeysEqual(rel, st.keys, st.id));
  }
  return CheckInvariants(rel);
}

/// What one reader thread measured; touched by that thread only.
struct Reader {
  Samples ops;
  std::map<std::string, Samples> by_class;
  Verdicts verdicts;
  SpanRecorder spans;
  QueryLayers layers;
  std::map<std::string, ExplainFacts> explain;
  Samples served;  // traced Session::Execute spans
};

}  // namespace

Report RunServe(const Options& options) {
  Report report;
  SetParallelMaxThreads(1);
  std::filesystem::create_directories(options.workdir);
  const std::string image = options.workdir + "/serve.erel";

  // Inputs, generated from the seed and saved as the image the program
  // opens. Not part of set-up.
  std::unique_ptr<Data> data = MakeData(options.seed);
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 16;
  const SavedImage saved = SaveImage(data->catalog, image, spec);
  data->catalog = Catalog();  // the program reads the image only
  const std::vector<Class> classes = MakeClasses(*data, options.seed);

  DigestBook book;
  book.Load(options.digest_file);
  book.set_recording(options.record_digests);
  const bool check_committed =
      options.seed == kDefaultSeed || options.record_digests;
  // Each statement's results on the unrefreshed catalog must match its
  // first set-up result — at the default seed, its committed digest.
  std::map<std::string, Digest> setup_digest;
  if (check_committed && !options.record_digests) {
    setup_digest = book.committed();
  }

  // Set-up: open the image mapped, start the session manager and the
  // reader sessions, and run every statement once cold.
  std::vector<double> setup_s, open_ms, first_touch_ms;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<server::SessionManager> manager;
  std::vector<std::unique_ptr<server::Session>> sessions;
  for (size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    sessions.clear();
    manager.reset();
    catalog.reset();
    std::vector<std::pair<const Statement*, Result<ExtendedRelation>>> cold;
    std::vector<double> cold_ms;
    const Clock::time_point start = Clock::now();
    catalog = OpenImage(image);
    const double opened = MsSince(start);
    manager = std::make_unique<server::SessionManager>(catalog.get());
    for (size_t r = 0; r < kReaders; ++r) sessions.push_back(manager->OpenSession());
    for (const Class& c : classes) {
      for (const Statement& st : c.variants) {
        const Clock::time_point t0 = Clock::now();
        cold.emplace_back(&st, sessions[0]->Execute(st.text));
        cold_ms.push_back(MsSince(t0));
      }
    }
    setup_s.push_back(MsSince(start) / 1e3);
    open_ms.push_back(opened);
    double touch = 0;
    for (size_t i = 0; i < cold.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      auto warm = sessions[0]->Execute(cold[i].first->text);
      touch += cold_ms[i] - MsSince(t0);
      report.verdicts.Record(warm.status());
    }
    first_touch_ms.push_back(touch);
    for (auto& [st, result] : cold) {
      if (!result.ok()) {
        report.verdicts.Record(result.status());
        continue;
      }
      Status s = CheckStatement(*st, *result);
      if (s.ok()) {
        const Digest d = DigestOf(*result);
        auto [it, inserted] = setup_digest.emplace(st->id, d);
        if (!inserted && !d.Matches(it->second)) {
          s = Status::InvalidArgument(st->id + " does not match its digest");
        } else if (inserted && check_committed) {
          s = book.Check(st->id, d);
        }
      }
      report.verdicts.Record(s);
    }
  }
  report.Add("setup_s", MedianOf(setup_s), "s");

  // The writer merges onto its own copy of the base P (opened from the
  // same image), so no relation object is shared with the readers except
  // through the catalog's published snapshots.
  std::unique_ptr<Catalog> writer_catalog = OpenImage(image);
  const std::shared_ptr<const ExtendedRelation> base =
      writer_catalog->Snapshot()->GetRelationShared("P").value();
  Rng writer_rng(options.seed * 271 + 13);
  Samples refresh, publish;
  Verdicts writer_verdicts;
  auto refresh_once = [&]() {
    ExtendedRelation delta("P", base->schema());
    std::vector<bool> picked(kProfiles, false);
    for (size_t n = 0; n < kRefreshRows;) {
      const size_t id = writer_rng.Below(kProfiles);
      if (picked[id]) continue;
      picked[id] = true;
      ++n;
      Status s = delta.Insert(
          Row({Value(static_cast<int64_t>(id)), Value(data->city[id]),
               RandomEvidence(data->tier, 1 + writer_rng.Below(3), 3, true,
                              writer_rng),
               RandomEvidence(data->risk, 1 + writer_rng.Below(3), 3, true,
                              writer_rng)},
              writer_rng));
      if (!s.ok()) return writer_verdicts.Record(s);
    }
    UnionOptions merge;
    merge.on_total_conflict = TotalConflictPolicy::kVacuous;
    const Clock::time_point t0 = Clock::now();
    auto merged = Union(*base, delta, merge);
    const double merge_ms = MsSince(t0);
    if (!merged.ok()) return writer_verdicts.Record(merged.status());
    // Checked before publication, while no reader can see it.
    ExtendedRelation check = *merged;
    Status s = CheckKeysEqual(check, data->profile_keys, "refresh");
    if (s.ok()) s = CheckInvariants(check);
    if (!s.ok()) return writer_verdicts.Record(s);
    const Clock::time_point t1 = Clock::now();
    s = catalog->RegisterRelation(std::move(*merged), true);
    const double publish_ms = MsSince(t1);
    writer_verdicts.Record(s);
    if (s.ok()) {
      refresh.Add(merge_ms + publish_ms);
      publish.Add(publish_ms);
    }
  };
  // One refresh before measuring, so the window sees P in its steady
  // (refreshed) form from the start.
  refresh_once();

  Clock::time_point start;  // of the measured window
  std::atomic<bool> stop{false};
  std::atomic<bool> traced_phase{false};
  std::vector<Reader> readers(kReaders);
  auto reader_loop = [&](size_t r) {
    Reader& me = readers[r];
    server::Session* session = sessions[r].get();
    Rng rng(options.seed * 977 + r * 131 + 1);
    uint64_t op = 0;
    bool traced = false;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!traced && traced_phase.load(std::memory_order_relaxed)) traced = true;
      double roll = rng.Uniform();
      const Class* cls = &classes.back();
      for (const Class& c : classes) {
        if ((roll -= c.weight) < 0) {
          cls = &c;
          break;
        }
      }
      const Statement& st = cls->variants[rng.Below(cls->variants.size())];
      Result<ExtendedRelation> result = kUnset;
      if (traced) {
        const size_t first_span = me.spans.spans().size();
        result = TracedStatement(session, *catalog, st.text, st.limit,
                                 !st.on_refreshed, &me.spans, ++op, &me.layers,
                                 &me.explain);
        if (result.ok()) {
          me.served.Add(MsBetween(me.spans.spans()[first_span].start,
                                  me.spans.spans()[first_span].end));
        }
      } else {
        const Clock::time_point t0 = Clock::now();
        result = session->Execute(st.text);
        const Clock::time_point t1 = Clock::now();
        const double ms = MsBetween(t0, t1);
        if (result.ok()) {
          me.ops.Add(ms, MsBetween(start, t1) / 1e3);
          me.by_class[cls->name].Add(ms);
        }
      }
      if (!result.ok()) {
        me.verdicts.Record(result.status());
        continue;
      }
      Status s = CheckStatement(st, *result);
      if (s.ok() && !st.on_refreshed) {
        auto it = setup_digest.find(st.id);
        if (it != setup_digest.end() && !DigestOf(*result).Matches(it->second)) {
          s = Status::InvalidArgument(st.id + " does not match its digest");
        }
      }
      me.verdicts.Record(s);
    }
  };

  // Plan-cache counters at the start of the measured (or traced) phase.
  uint64_t hits0 = manager->plan_cache_hits();
  uint64_t misses0 = manager->plan_cache_misses();
  const StealMeter steal;
  start = Clock::now();  // before the readers start, so they see it
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) threads.emplace_back(reader_loop, r);
  // The writer runs on this thread at a fixed cadence.
  const double measure_s = options.trace ? options.seconds / 2 : options.seconds;
  auto run_writer_until = [&](Clock::time_point until) {
    Clock::time_point next = Clock::now();
    while (Clock::now() < until) {
      std::this_thread::sleep_until(std::min(next, until));
      if (Clock::now() >= until) break;
      refresh_once();
      next += kRefreshPeriod;
    }
  };
  const Clock::time_point untraced_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(measure_s));
  run_writer_until(untraced_end);
  if (options.trace) {
    hits0 = manager->plan_cache_hits();
    misses0 = manager->plan_cache_misses();
    traced_phase.store(true);
    run_writer_until(untraced_end + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(measure_s)));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double window_s = MsSince(start) / 1e3;
  const double hits = static_cast<double>(manager->plan_cache_hits() - hits0);
  const double misses =
      static_cast<double>(manager->plan_cache_misses() - misses0);
  const double hit_frac = hits / std::max(1.0, hits + misses);

  Samples ops, served;
  std::map<std::string, Samples> by_class;
  QueryLayers layers;
  Samples unattributed;
  for (size_t r = 0; r < kReaders; ++r) {
    ops.Append(readers[r].ops);
    for (const auto& [name, s] : readers[r].by_class) by_class[name].Append(s);
    served.Append(readers[r].served);
    report.verdicts.Merge(readers[r].verdicts);
    layers.Merge(readers[r].layers);
    unattributed.Append(readers[r].spans.RootUnattributedFraction("engine"));
  }
  report.verdicts.Merge(writer_verdicts);

  if (!options.trace) {
    AddLatencyMetrics(ops, window_s, &report);
    report.Note(steal.Describe());
    AddClassNotes(by_class, &report);
    report.Add("refresh_p50_ms", refresh.Median(), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.Add("image_bytes_per_input_byte",
               saved.image_bytes / saved.text_bytes, "ratio");
    char buf[160];
    std::snprintf(buf, sizeof(buf), "refreshes=%zu  plan cache hit rate %.3f",
                  refresh.size(), hit_frac);
    report.Note(buf);
  } else {
    for (size_t r = 0; r < kReaders; ++r) {
      readers[r].spans.Write(TracePath(options) + "." + std::to_string(r));
    }
    layers.Report(&report);
    report.Add("server.plan_cache_hit_frac", hit_frac, "ratio");
    report.Add("catalog.publish_ms", publish.Median(), "ms");
    report.Add("storage.open_ms", MedianOf(open_ms), "ms");
    report.Add("storage.first_touch_ms", MedianOf(first_touch_ms), "ms");
    report.Add("trace.unattributed_frac", unattributed.Median(), "ratio");
    report.Add("trace.overhead_ms", served.Median() - ops.Median(), "ms");
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "traced reads=%zu server.execute p50=%.4f ms; untraced "
                  "reads=%zu p50=%.4f ms; refreshes=%zu",
                  served.size(), served.Median(), ops.size(), ops.Median(),
                  refresh.size());
    report.Note(buf);
  }
  if (options.record_digests) Require(book.Save(options.digest_file), "digests");
  sessions.clear();
  manager.reset();
  SetParallelMaxThreads(0);
  return report;
}

}  // namespace perfbench
