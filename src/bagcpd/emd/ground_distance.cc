#include "bagcpd/emd/ground_distance.h"

#include "bagcpd/common/enum_names.h"

namespace bagcpd {

const char* GroundDistanceName(GroundDistance kind) {
  switch (kind) {
    case GroundDistance::kEuclidean:
      return "euclidean";
    case GroundDistance::kSquaredEuclidean:
      return "sq_euclidean";
    case GroundDistance::kManhattan:
      return "manhattan";
  }
  return "unknown";
}

const std::vector<GroundDistance>& AllGroundDistances() {
  static const std::vector<GroundDistance> kAll = {
      GroundDistance::kEuclidean, GroundDistance::kSquaredEuclidean,
      GroundDistance::kManhattan};
  return kAll;
}

Result<GroundDistance> ParseGroundDistance(const std::string& name) {
  if (name == "l2") return GroundDistance::kEuclidean;
  if (name == "l1") return GroundDistance::kManhattan;
  return ParseNamedEnum(name, AllGroundDistances(), GroundDistanceName,
                        "ground distance");
}

}  // namespace bagcpd
