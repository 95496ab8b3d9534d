#ifndef EVIDENT_INTEGRATION_PIPELINE_H_
#define EVIDENT_INTEGRATION_PIPELINE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/extended_relation.h"
#include "integration/entity_identifier.h"
#include "integration/preprocessor.h"
#include "integration/tuple_merger.h"

namespace evident {

/// \brief How the pipeline identifies matching entities.
enum class EntityIdentification {
  /// Exact common-key equality (the paper's operating assumption).
  kByKey,
  /// Similarity over definite attributes (the [10] substrate).
  kBySimilarity,
};

/// \brief End-to-end configuration of the paper's Figure 1 framework for
/// two sources.
struct PipelineConfig {
  /// Global schema shared by both preprocessed relations.
  SchemaPtr global_schema;
  /// Per-source derivation rules (the schema mapping + attribute domain
  /// information extracted during schema integration).
  std::vector<AttributeDerivation> derivations_a;
  std::vector<AttributeDerivation> derivations_b;
  MembershipDerivation membership_a;
  MembershipDerivation membership_b;
  EntityIdentification identification = EntityIdentification::kByKey;
  SimilarityMatchOptions similarity;
  UnionOptions merge_options;
};

/// \brief Result of a pipeline run, keeping the intermediate artifacts
/// inspectable (useful for the examples and the Figure-1 bench). On the
/// Run path the preprocessed relations are column images with a built
/// key index (see AttributePreprocessor); identification and merging
/// read those images, so none of the three relations builds row objects
/// unless a caller reads rows().
struct PipelineRun {
  ExtendedRelation preprocessed_a;
  ExtendedRelation preprocessed_b;
  MatchingInfo matching;
  ExtendedRelation integrated;
};

/// \brief The paper's integration framework: attribute preprocessing of
/// each source, entity identification, and tuple merging, producing the
/// integrated extended relation that query processing runs against.
/// Every step works on column images: preprocessing writes them
/// directly, MatchByKey probes one operand's key index with the other's
/// encoded-key arena, and MergeTuples splices the rekeyed image into the
/// columnar union.
class IntegrationPipeline {
 public:
  explicit IntegrationPipeline(PipelineConfig config)
      : config_(std::move(config)) {}

  /// \brief Runs the full pipeline on two raw exports.
  Result<PipelineRun> Run(const RawTable& source_a,
                          const RawTable& source_b) const;

  /// \brief Runs identification + merging on already-preprocessed
  /// relations (when sources natively store evidence sets).
  Result<PipelineRun> RunPreprocessed(ExtendedRelation a,
                                      ExtendedRelation b) const;

 private:
  PipelineConfig config_;
};

}  // namespace evident

#endif  // EVIDENT_INTEGRATION_PIPELINE_H_
