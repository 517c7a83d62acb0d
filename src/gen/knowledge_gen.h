#ifndef QGP_GEN_KNOWLEDGE_GEN_H_
#define QGP_GEN_KNOWLEDGE_GEN_H_

#include <cstdint>

#include "common/result.h"
#include "graph/graph.h"

namespace qgp {

/// YAGO2-substitute knowledge graph generator (docs/ARCHITECTURE.md,
/// "Experimental substitutions"): a sparse, label-selective entity
/// graph of scientists, universities, prizes and countries, supporting
/// the paper's Q4/Q5/R7-style queries (professors, PhD degrees, advisor
/// lineages, prize winners, citizenship).
///
/// Node labels: scientist, university, prize, prof_title, phd_degree and
/// one label per country ("country0".."country<k-1>"; country0 plays the
/// role of the paper's UK).
/// Edge labels: advisor (advisor -> student), is_a (scientist ->
/// prof_title), has_degree (scientist -> phd_degree), citizen_of, won,
/// graduated_from, works_at, located_in.
struct KnowledgeConfig {
  size_t num_scientists = 20000;
  size_t num_universities = 200;
  size_t num_prizes = 40;
  size_t num_countries = 10;

  double professor_frac = 0.35;   // P(scientist is a professor)
  double phd_frac_prof = 0.85;    // P(PhD | professor)
  double phd_frac_other = 0.30;   // P(PhD | not professor)
  double avg_students = 3.0;      // advisees per professor (Zipf skewed)
  double prize_winner_frac = 0.05;
  double second_prize_frac = 0.5; // P(second prize | already won one)

  uint64_t seed = 11;
};

/// Generates the knowledge graph. Vertices [0, num_scientists) are
/// scientists.
Result<Graph> GenerateKnowledgeGraph(const KnowledgeConfig& config);

}  // namespace qgp

#endif  // QGP_GEN_KNOWLEDGE_GEN_H_
