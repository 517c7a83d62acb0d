#ifndef QGP_GEN_SOCIAL_GEN_H_
#define QGP_GEN_SOCIAL_GEN_H_

#include <cstdint>

#include "common/result.h"
#include "graph/graph.h"

namespace qgp {

/// Pokec-substitute social graph generator (docs/ARCHITECTURE.md,
/// "Experimental substitutions").
///
/// Node labels: person, product, album, club, hobby, city.
/// Edge labels: follow, like, recom, bad_rating, in, lives_in, has_hobby,
/// buy, post.
///
/// Users belong to communities; follows are mostly intra-community with
/// Zipf-skewed popularity, and each community has favourite products /
/// albums / hobbies that most members recommend or like. Those
/// correlations are what give counting quantifiers ("≥ 80% of followees
/// like album y") non-trivial answer sets, mirroring the homophily that
/// the paper's social-marketing rules exploit in Pokec.
struct SocialConfig {
  size_t num_users = 20000;
  size_t num_products = 200;
  size_t num_albums = 100;
  size_t num_clubs = 50;
  size_t num_hobbies = 30;
  size_t num_cities = 40;
  size_t community_size = 500;

  double avg_follows = 8.0;       // mean follow out-degree (Zipf skewed)
  double intra_community = 0.8;   // fraction of follows inside community
  double recom_favorite = 0.6;    // P(member recommends community product)
  double like_favorite = 0.7;     // P(member likes community album)
  double buy_if_recom = 0.7;      // P(buy | recommended favourite)
  double bad_rating_prob = 0.05;  // P(bad rating on a random product)
  double random_recom = 0.1;      // P(extra recom of a random product)
  double club_member = 0.6;       // P(member joins the community club)
  double post_prob = 0.3;         // P(member posts about the favourite)

  uint64_t seed = 7;
};

/// Generates the social graph. Vertices [0, num_users) are persons.
Result<Graph> GenerateSocialGraph(const SocialConfig& config);

}  // namespace qgp

#endif  // QGP_GEN_SOCIAL_GEN_H_
