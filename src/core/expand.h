#ifndef QGP_CORE_EXPAND_H_
#define QGP_CORE_EXPAND_H_

#include "common/result.h"
#include "core/pattern.h"

namespace qgp {

/// The copy-expansion of Lemma 3's NP-membership proof: for each edge
/// e = (u,u') with numeric quantifier σ(e) >= p, make p copies of u' (and
/// of u''s downstream subtree), all with existential quantifiers.
///
/// LIMITATIONS (provided for study, not used by the matchers):
///  * only defined here for positive patterns with `>=` numeric
///    quantifiers whose stratified form is an out-tree rooted at the
///    focus (returns Unimplemented otherwise);
///  * NOT equivalent to the §2.2 semantics in general — the expansion
///    demands p node-disjoint witnesses, while §2.2 counts children that
///    may share descendants (deviation 2 in docs/ARCHITECTURE.md; a
///    regression test exhibits a graph where the two differ).
Result<Pattern> ExpandNumericCopies(const Pattern& pattern);

}  // namespace qgp

#endif  // QGP_CORE_EXPAND_H_
