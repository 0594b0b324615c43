// Ground distances d_kl between signature centers (paper Section 3.2): the
// per-pair dissimilarity the transportation problem minimizes over.

#ifndef BAGCPD_EMD_GROUND_DISTANCE_H_
#define BAGCPD_EMD_GROUND_DISTANCE_H_

#include <string>
#include <vector>

#include "bagcpd/common/result.h"

namespace bagcpd {

/// \brief The ground distances between signature centers. EMD between
/// normalized signatures is a metric iff the ground distance is (Rubner et
/// al. 2000), so kSquaredEuclidean gives a non-metric EMD. The transport
/// solver's cost fill dispatches on it once per cost block, not per entry.
enum class GroundDistance {
  kEuclidean,
  kSquaredEuclidean,
  kManhattan,
};

/// \brief Short lowercase name ("euclidean", ...).
const char* GroundDistanceName(GroundDistance kind);

/// \brief Every built-in ground distance, in declaration order. Together with
/// GroundDistanceName/ParseGroundDistance this forms the stable name table the
/// api/ registry exposes.
const std::vector<GroundDistance>& AllGroundDistances();

/// \brief Inverse of GroundDistanceName. Accepts the alias "l2" for
/// kEuclidean and "l1" for kManhattan; rejects unknown names with a message
/// listing the known ones.
Result<GroundDistance> ParseGroundDistance(const std::string& name);

}  // namespace bagcpd

#endif  // BAGCPD_EMD_GROUND_DISTANCE_H_
