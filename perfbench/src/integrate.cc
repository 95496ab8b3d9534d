// Workload `integrate`: the paper's Figure-1 pipeline on raw survey
// exports, then publish + checkpoint of the integrated relation.
//
// One client, closed loop. Each operation takes the next of a few
// pre-generated batch pairs (two raw exports of 1000 rows each, 60 %
// entity overlap, 10 % of shared entities with conflicting evidence), runs
// IntegrationPipeline::Run, publishes the result (Catalog::RegisterRelation,
// replace) and saves it (SaveErelFile, v3, 4 key-range partitions; the
// library's flush policy: fsync + atomic rename).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "common/domain.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "core/schema.h"
#include "harness.h"
#include "integration/entity_identifier.h"
#include "integration/menu_classifier.h"
#include "integration/pipeline.h"
#include "integration/preprocessor.h"
#include "integration/raw_table.h"
#include "integration/tuple_merger.h"
#include "storage/catalog.h"
#include "storage/erel_format.h"

namespace perfbench {

using namespace evident;

namespace {

constexpr size_t kBatches = 4;
// 1000 rows a side keeps an operation short enough for a 30 s run to
// collect the 1000 samples a p99 needs, even when a shared 4-core host
// runs slow.
constexpr size_t kRowsPerSide = 1000;
constexpr size_t kShared = 600;  // 60 % of each side
constexpr double kConflictRate = 0.10;
constexpr size_t kCategories = 12;
constexpr size_t kDishes = 12;
constexpr double kUncertainAttributes = 3;  // speciality, dish, rating
constexpr size_t kSetupRepetitions = 9;
const char* const kRatingCodes[] = {"ex", "gd", "avg", "pr"};
const char* const kRatingWords[] = {"excellent", "good", "average", "poor"};

std::string Sym(const char* prefix, size_t i) {
  return prefix + std::to_string(i);
}

/// The global schema, taxonomy and derivation rules: what schema
/// integration hands the pipeline.
struct Integration {
  DomainPtr speciality, dish, rating;
  std::unique_ptr<MenuClassifier> classifier;
  PipelineConfig config;
};

std::unique_ptr<Integration> MakeIntegration() {
  auto in = std::make_unique<Integration>();
  std::vector<std::string> cats, dishes;
  for (size_t i = 0; i < kCategories; ++i) cats.push_back(Sym("c", i));
  for (size_t i = 0; i < kDishes; ++i) dishes.push_back(Sym("d", i));
  in->speciality = Domain::MakeSymbolic("speciality", cats).value();
  in->dish = Domain::MakeSymbolic("dish", dishes).value();
  in->rating =
      Domain::MakeSymbolic("rating", {"ex", "gd", "avg", "pr"}).value();
  // Taxonomy: per category c, items m<c>_0 and m<c>_1 mean exactly c,
  // m<c>_2 is ambiguous between c and c+1, m<c>_3 between c and c+5.
  // Items u0..u7 are unknown and carry no classification (mass on Θ).
  in->classifier = std::make_unique<MenuClassifier>(in->speciality);
  for (size_t c = 0; c < kCategories; ++c) {
    const Value cv(Sym("c", c));
    const Value next(Sym("c", (c + 1) % kCategories));
    const Value far(Sym("c", (c + 5) % kCategories));
    const std::string base = "m" + std::to_string(c) + "_";
    auto check = [](const Status& s) {
      if (!s.ok()) throw std::runtime_error(s.ToString());
    };
    check(in->classifier->AddItem(base + "0", {cv}));
    check(in->classifier->AddItem(base + "1", {cv}));
    check(in->classifier->AddItem(base + "2", {cv, next}));
    check(in->classifier->AddItem(base + "3", {cv, far}));
  }
  PipelineConfig& config = in->config;
  config.global_schema =
      RelationSchema::Make({AttributeDef::Key("rid"),
                            AttributeDef::Definite("street"),
                            AttributeDef::Definite("phone"),
                            AttributeDef::Definite("seats"),
                            AttributeDef::Uncertain("speciality",
                                                    in->speciality),
                            AttributeDef::Uncertain("dish", in->dish),
                            AttributeDef::Uncertain("rating", in->rating)})
          .value();
  auto derive = [&](const std::vector<std::string>& cols,
                    bool rating_words) {
    std::vector<AttributeDerivation> d(7);
    const char* targets[] = {"rid",        "street", "phone", "seats",
                             "speciality", "dish",   "rating"};
    for (size_t i = 0; i < 7; ++i) {
      d[i].target = targets[i];
      d[i].source_column = cols[i];
    }
    d[4].kind = DerivationKind::kClassify;
    d[4].classifier = in->classifier.get();
    d[5].kind = DerivationKind::kVotes;
    d[6].kind = DerivationKind::kVotes;
    if (rating_words) {
      for (size_t i = 0; i < 4; ++i) {
        d[6].value_map[kRatingWords[i]] = kRatingCodes[i];
      }
    }
    return d;
  };
  config.derivations_a = derive({"rid", "street", "phone", "seats", "menu",
                                 "dish_votes", "rating_votes"},
                                false);
  config.derivations_b = derive({"id", "addr", "tel", "capacity",
                                 "menu_items", "best_dish", "rating"},
                                true);
  config.membership_a = MembershipDerivation{"sn", "sp", 1.0, 1.0};
  config.membership_b = MembershipDerivation{"conf_lo", "conf_hi", 1.0, 1.0};
  config.identification = EntityIdentification::kByKey;
  // Totally conflicting evidence becomes ignorance, the user-facing
  // policy; definite attributes agree by construction, so their policy
  // stays kError and a disagreement would fail the operation.
  config.merge_options.on_total_conflict = TotalConflictPolicy::kVacuous;
  return in;
}

/// One real-world restaurant: the definite facts both sources agree on
/// and the true values their surveys observe.
struct Entity {
  std::string rid, street, phone, seats;
  size_t category = 0, dish = 0, rating = 0;
  bool conflicting = false;
};

std::string Fmt(double x, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, x);
  return buf;
}

/// A menu observed by one source. Conflicting entities get menus of
/// unambiguous items only, naming different categories in the two
/// sources, so Dempster's rule meets total conflict.
std::string Menu(const Entity& e, bool second_source, Rng& rng) {
  std::string menu;
  auto add = [&](const std::string& item) {
    if (!menu.empty()) menu += "|";
    menu += item;
  };
  if (e.conflicting) {
    const size_t c = second_source ? (e.category + 6) % kCategories
                                   : e.category;
    const size_t n = 2 + rng.Below(3);
    for (size_t i = 0; i < n; ++i) {
      add("m" + std::to_string(c) + "_" + std::to_string(rng.Below(2)));
    }
    return menu;
  }
  const size_t n = 3 + rng.Below(4);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t roll = rng.Below(10);
    if (roll < 6) {
      add("m" + std::to_string(e.category) + "_" +
          std::to_string(rng.Below(4)));
    } else if (roll < 8) {
      add("m" + std::to_string(rng.Below(kCategories)) + "_" +
          std::to_string(rng.Below(4)));
    } else {
      add("u" + std::to_string(rng.Below(8)));
    }
  }
  return menu;
}

/// Survey votes over `size` values named `names[i]`, centred on `truth`;
/// conflicting entities vote for one value only (a different one in each
/// source) and never abstain.
std::string Votes(size_t truth, size_t size,
                  const std::function<std::string(size_t)>& name,
                  bool conflicting, bool second_source, Rng& rng) {
  if (conflicting) {
    const size_t v = second_source ? (truth + size / 2) % size : truth;
    return name(v) + ":" + std::to_string(2 + rng.Below(4));
  }
  std::string out = name(truth) + ":" + std::to_string(1 + rng.Below(5));
  if (rng.Chance(0.6)) {
    const size_t other = (truth + 1 + rng.Below(size - 1)) % size;
    out += "; " + name(other) + ":" + std::to_string(1 + rng.Below(3));
  }
  if (rng.Chance(0.4)) {
    out += "; {" + name(truth) + "," + name((truth + 1) % size) +
           "}:" + std::to_string(1 + rng.Below(2));
  }
  if (rng.Chance(0.5)) out += "; *:1";
  return out;
}

std::vector<std::string> ExportRow(const Entity& e, bool second_source,
                                   Rng& rng) {
  const double sn = 0.5 + 0.5 * rng.Uniform();
  const double sp = sn + (1.0 - sn) * rng.Uniform();
  auto dish = [](size_t i) { return Sym("d", i); };
  auto rating = [&](size_t i) {
    return std::string(second_source ? kRatingWords[i] : kRatingCodes[i]);
  };
  return {e.rid,
          e.street,
          e.phone,
          e.seats,
          Menu(e, second_source, rng),
          Votes(e.dish, kDishes, dish, e.conflicting, second_source, rng),
          Votes(e.rating, 4, rating, e.conflicting, second_source, rng),
          Fmt(sn, 3),
          Fmt(std::min(1.0, sp), 3)};
}

struct Batch {
  RawTable a, b;
  KeySet keys;  // the integrated relation's keys: A's and B's entities
  double input_bytes = 0;
};

double CsvBytes(const RawTable& t) {
  double bytes = 0;
  auto line = [&](const std::vector<std::string>& fields) {
    for (const std::string& f : fields) bytes += static_cast<double>(f.size()) + 1;
  };
  line(t.columns);
  for (const auto& row : t.rows) line(row);
  return bytes;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
}

std::vector<Batch> MakeBatches(uint64_t seed) {
  Rng rng(seed * 1000003 + 17);
  std::vector<Batch> batches(kBatches);
  for (size_t b = 0; b < kBatches; ++b) {
    const size_t total = 2 * kRowsPerSide - kShared;
    std::vector<Entity> entities(total);
    for (size_t i = 0; i < total; ++i) {
      Entity& e = entities[i];
      char rid[16];
      std::snprintf(rid, sizeof(rid), "r%06zu", b * 10000 + i);
      e.rid = rid;
      e.street = "st" + std::to_string(rng.Below(400)) + " ave";
      e.phone = "555-" + std::to_string(1000 + rng.Below(9000));
      e.seats = std::to_string(10 + rng.Below(190));
      e.category = rng.Below(kCategories);
      e.dish = rng.Below(kDishes);
      e.rating = rng.Below(4);
    }
    // Entities [0, kRowsPerSide) are in A, [total - kRowsPerSide, total)
    // in B; the middle kShared are in both.
    const size_t b_start = total - kRowsPerSide;
    for (size_t i = b_start; i < kRowsPerSide; ++i) {
      entities[i].conflicting = rng.Chance(kConflictRate);
    }
    Batch& batch = batches[b];
    batch.a.name = "A";
    batch.a.columns = {"rid",        "street", "phone", "seats", "menu",
                       "dish_votes", "rating_votes", "sn", "sp"};
    batch.b.name = "B";
    batch.b.columns = {"id",        "addr",   "tel",     "capacity",
                       "menu_items", "best_dish", "rating", "conf_lo",
                       "conf_hi"};
    for (size_t i = 0; i < kRowsPerSide; ++i) {
      batch.a.rows.push_back(ExportRow(entities[i], false, rng));
    }
    for (size_t i = b_start; i < total; ++i) {
      batch.b.rows.push_back(ExportRow(entities[i], true, rng));
    }
    Shuffle(&batch.a.rows, rng);
    Shuffle(&batch.b.rows, rng);
    std::vector<uint64_t> keys;
    for (const Entity& e : entities) keys.push_back(KeyFingerprint({Value(e.rid)}));
    batch.keys = MakeKeySet(std::move(keys));
    batch.input_bytes = CsvBytes(batch.a) + CsvBytes(batch.b);
  }
  return batches;
}

PartitionSpec SaveSpec() {
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 4;
  return spec;
}

void Require(const Status& s, const char* what) {
  if (!s.ok()) throw std::runtime_error(std::string(what) + ": " + s.ToString());
}

/// The integrated relation as published: checked there, after the timed
/// operation, so the check reads the column image publication built.
std::shared_ptr<const ExtendedRelation> Published(const Catalog& catalog) {
  return catalog.Snapshot()->GetRelationShared("integrated").value();
}

/// Checks one integrated result against what the generator knows.
Status CheckResult(const ExtendedRelation& rel, const Batch& batch,
                   const std::string& digest_id, DigestBook* book,
                   std::map<std::string, Digest>* first_digest) {
  EVIDENT_RETURN_NOT_OK(CheckKeysEqual(rel, batch.keys, digest_id));
  EVIDENT_RETURN_NOT_OK(CheckInvariants(rel));
  const Digest d = DigestOf(rel);
  auto [it, inserted] = first_digest->emplace(digest_id, d);
  if (!inserted && !d.Matches(it->second)) {
    return Status::InvalidArgument(digest_id + " does not match its digest");
  }
  if (book != nullptr && inserted) return book->Check(digest_id, d);
  return Status::OK();
}

/// One untraced operation's timings.
struct OpTimes {
  Clock::time_point end;
  double op_ms = 0, refresh_ms = 0, image_bytes = 0;
};

}  // namespace

Report RunIntegrate(const Options& options) {
  Report report;
  // One thread, as in fuse: the pipeline gains nothing measurable from a
  // wider pool, and a wider one spreads wider on a shared host.
  SetParallelMaxThreads(1);
  std::filesystem::create_directories(options.workdir);
  const std::string image = options.workdir + "/integrated.erel";

  const std::vector<Batch> batches = MakeBatches(options.seed);
  DigestBook book;
  book.Load(options.digest_file);
  book.set_recording(options.record_digests);
  DigestBook* checked_book =
      options.seed == kDefaultSeed || options.record_digests ? &book : nullptr;
  // Each batch's results must match its first result in the run — at the
  // default seed, its committed digest.
  std::map<std::string, Digest> first_digest;
  if (checked_book != nullptr && !options.record_digests) {
    first_digest = book.committed();
  }
  auto digest_id = [](size_t b) { return "integrate/batch" + std::to_string(b); };

  // Set-up: from the raw exports to the first timed operation — the
  // integration configuration, the catalog, and one cold operation per
  // batch pair. Repeated; the median is reported.
  std::vector<double> setup_s;
  std::unique_ptr<Integration> integration;
  std::unique_ptr<Catalog> catalog;
  for (size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    std::vector<std::shared_ptr<const ExtendedRelation>> cold;
    const Clock::time_point start = Clock::now();
    integration = MakeIntegration();
    catalog = std::make_unique<Catalog>();
    IntegrationPipeline pipeline(integration->config);
    for (const Batch& batch : batches) {
      auto run = pipeline.Run(batch.a, batch.b);
      Require(run.status(), "integration pipeline");
      Require(catalog->RegisterRelation(std::move(run->integrated), true),
              "publish");
      cold.push_back(Published(*catalog));
      Require(SaveErelFile(*catalog, image, SaveSpec()), "save");
    }
    setup_s.push_back(MsSince(start) / 1e3);
    for (size_t b = 0; b < batches.size(); ++b) {
      report.verdicts.Record(CheckResult(*cold[b], batches[b], digest_id(b),
                                         rep == 0 ? checked_book : nullptr,
                                         &first_digest));
    }
  }
  report.Add("setup_s", MedianOf(setup_s), "s");

  IntegrationPipeline pipeline(integration->config);
  std::vector<double> image_bytes(batches.size(), 0);
  size_t next = 0;
  auto run_op = [&](OpTimes* times) -> Status {
    const size_t b = next++ % batches.size();
    const Clock::time_point t0 = Clock::now();
    auto run = pipeline.Run(batches[b].a, batches[b].b);
    if (!run.ok()) return run.status();
    const Clock::time_point t1 = Clock::now();
    EVIDENT_RETURN_NOT_OK(
        catalog->RegisterRelation(std::move(run->integrated), true));
    EVIDENT_RETURN_NOT_OK(SaveErelFile(*catalog, image, SaveSpec()));
    const Clock::time_point t2 = Clock::now();
    times->end = t2;
    times->op_ms = MsBetween(t0, t2);
    times->refresh_ms = MsBetween(t1, t2);
    times->image_bytes =
        static_cast<double>(std::filesystem::file_size(image));
    image_bytes[b] = times->image_bytes;
    return CheckResult(*Published(*catalog), batches[b], digest_id(b), nullptr,
                       &first_digest);
  };

  if (!options.trace) {
    Samples ops, refresh;
    const StealMeter steal;
    const Clock::time_point start = Clock::now();
    const auto deadline =
        start + std::chrono::duration<double>(options.seconds);
    while (Clock::now() < deadline) {
      OpTimes t;
      const Status s = run_op(&t);
      report.verdicts.Record(s);
      if (s.ok()) {
        ops.Add(t.op_ms, MsBetween(start, t.end) / 1e3);
        refresh.Add(t.refresh_ms);
      }
    }
    const double window_s = MsSince(start) / 1e3;
    AddLatencyMetrics(ops, window_s, &report);
    report.Note(steal.Describe());
    report.Add("refresh_p50_ms", refresh.Median(), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    double image_total = 0, input_total = 0;
    for (size_t b = 0; b < batches.size(); ++b) {
      image_total += image_bytes[b];
      input_total += batches[b].input_bytes;
    }
    report.Add("image_bytes_per_input_byte", image_total / input_total,
               "ratio");
  } else {
    // Traced run: half the window untraced (the overhead baseline), half
    // composing the pipeline's steps through their public functions with
    // a span around each call.
    Samples untraced, traced, preprocess, identify, merge, publish, save,
        bytes;
    const auto half = std::chrono::duration<double>(options.seconds / 2);
    const Clock::time_point start = Clock::now();
    while (Clock::now() < start + half) {
      OpTimes t;
      const Status s = run_op(&t);
      report.verdicts.Record(s);
      if (s.ok()) untraced.Add(t.op_ms);
    }
    const PipelineConfig& config = integration->config;
    const AttributePreprocessor pre_a(config.global_schema,
                                      config.derivations_a,
                                      config.membership_a);
    const AttributePreprocessor pre_b(config.global_schema,
                                      config.derivations_b,
                                      config.membership_b);
    SpanRecorder spans;
    uint64_t op = 0;
    double combine_pairs = 0, rows_materialized = 0;
    const Clock::time_point traced_start = Clock::now();
    while (Clock::now() < traced_start + half) {
      const size_t b = next++ % batches.size();
      ++op;
      const size_t first = spans.spans().size();
      Status status;
      {
        ScopedSpan root(&spans, "op", op);
        auto step = [&]() -> Status {
          Result<ExtendedRelation> a = kUnset, bb = kUnset;
          {
            ScopedSpan s(&spans, "integration.preprocess", op);
            a = pre_a.Run(batches[b].a);
          }
          if (!a.ok()) return a.status();
          {
            ScopedSpan s(&spans, "integration.preprocess", op);
            bb = pre_b.Run(batches[b].b);
          }
          if (!bb.ok()) return bb.status();
          Result<MatchingInfo> matching = kUnset;
          {
            ScopedSpan s(&spans, "integration.identify", op);
            matching = MatchByKey(*a, *bb);
          }
          if (!matching.ok()) return matching.status();
          combine_pairs = static_cast<double>(matching->matches.size()) *
                          kUncertainAttributes;
          Result<ExtendedRelation> merged = kUnset;
          {
            ScopedSpan s(&spans, "integration.merge", op);
            merged = MergeTuples(*a, *bb, *matching, config.merge_options);
          }
          if (!merged.ok()) return merged.status();
          merged->set_name("integrated");
          rows_materialized += static_cast<double>(merged->rows_materialized());
          {
            ScopedSpan s(&spans, "catalog.publish", op);
            EVIDENT_RETURN_NOT_OK(
                catalog->RegisterRelation(std::move(*merged), true));
          }
          ScopedSpan s(&spans, "storage.save", op);
          return SaveErelFile(*catalog, image, SaveSpec());
        };
        status = step();
      }
      if (status.ok()) {
        status = CheckResult(*Published(*catalog), batches[b], digest_id(b),
                             nullptr, &first_digest);
      }
      report.verdicts.Record(status);
      if (!status.ok()) continue;
      std::map<std::string, double> per_op;
      const auto& all = spans.spans();
      for (size_t i = first; i < all.size(); ++i) {
        per_op[all[i].name] += MsBetween(all[i].start, all[i].end);
      }
      traced.Add(per_op["op"]);
      preprocess.Add(per_op["integration.preprocess"]);
      identify.Add(per_op["integration.identify"]);
      merge.Add(per_op["integration.merge"]);
      publish.Add(per_op["catalog.publish"]);
      save.Add(per_op["storage.save"]);
      bytes.Add(static_cast<double>(std::filesystem::file_size(image)));
    }
    spans.Write(TracePath(options));
    report.Add("integration.preprocess_ms", preprocess.Median(), "ms");
    report.Add("integration.identify_ms", identify.Median(), "ms");
    report.Add("integration.merge_ms", merge.Median(), "ms");
    report.Add("catalog.publish_ms", publish.Median(), "ms");
    report.Add("storage.save_ms", save.Median(), "ms");
    report.Add("storage.image_bytes", bytes.Median(), "bytes");
    report.Add("ds.combine_pairs", combine_pairs, "count");
    report.Add("core.rows_materialized", rows_materialized, "count");
    report.Add("trace.unattributed_frac",
               spans.RootUnattributedFraction("op").Median(), "ratio");
    report.Add("trace.overhead_ms", traced.Median() - untraced.Median(), "ms");
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "traced ops=%zu p50=%.4f ms; untraced ops=%zu p50=%.4f ms",
                  traced.size(), traced.Median(), untraced.size(),
                  untraced.Median());
    report.Note(buf);
  }
  if (options.record_digests) Require(book.Save(options.digest_file), "digests");
  SetParallelMaxThreads(0);
  return report;
}

}  // namespace perfbench
