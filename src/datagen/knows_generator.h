// Knows-edge generation (spec §2.3.3.2–§2.3.3.3): the correlated,
// homophily-reproducing core of Datagen, rebuilt from scratch without
// MapReduce.
//
// Three passes, one per correlation dimension:
//   1. study   — where/when the person studied,
//   2. interest — the person's main interest tag,
//   3. random  — uniform noise.
// Each pass sorts persons by a similarity key M (the MapReduce shuffle of the
// reference implementation) and scans with a sliding window of W persons;
// edge endpoints are picked at a geometric-distributed ranked distance, so
// the connection probability decays with similarity distance. How *many*
// edges a person gets is fixed by its Facebook-like target degree, split
// across dimensions ≈ 45 % / 45 % / 10 %.

#ifndef SNB_DATAGEN_KNOWS_GENERATOR_H_
#define SNB_DATAGEN_KNOWS_GENERATOR_H_

#include <vector>

#include "datagen/config.h"
#include "datagen/dictionaries.h"
#include "datagen/person_generator.h"

namespace snb::datagen {

/// Generates all knows edges and records them symmetrically into
/// `drafts[i].friends` / `friend_dates`.
void GenerateKnows(const DatagenConfig& config, const Dictionaries& dicts,
                   std::vector<PersonDraft>& drafts);

}  // namespace snb::datagen

#endif  // SNB_DATAGEN_KNOWS_GENERATOR_H_
