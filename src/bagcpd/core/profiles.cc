#include "bagcpd/core/profiles.h"

#include "bagcpd/common/check.h"
#include "bagcpd/common/rng.h"

namespace bagcpd {

std::uint64_t DerivePerStreamSeed(std::uint64_t engine_seed,
                                  const std::string& stream_id,
                                  const std::string& profile) {
  std::uint64_t base = engine_seed ^ Rng::StableHash64(stream_id);
  if (!profile.empty() && profile != kDefaultProfileName) {
    base ^= Rng::MixSeed64(Rng::StableHash64(profile));
  }
  return Rng::MixSeed64(base);
}

Status ValidateProfile(const std::string& name,
                       const DetectorOptions& options) {
  if (name.empty()) {
    return Status::Invalid(
        "a profile name must be non-empty (an empty reference means the "
        "default profile)");
  }
  BAGCPD_RETURN_NOT_OK(ValidateDetectorOptions(options));
  // A nonzero seed used to be silently ignored; reject it so the footgun is
  // loud.
  if (options.seed != 0) {
    return Status::Invalid(
        "profile '" + name +
        "': detector.seed must be 0 (per-key seeds derive from the engine or "
        "batch seed, the key and the profile name; set that seed instead)");
  }
  return Status::OK();
}

Status AddProfile(const std::string& name, const DetectorOptions& options,
                  ProfileMap* profiles) {
  if (name == kDefaultProfileName) {
    return Status::Invalid(
        "profile name '" + name +
        "' is reserved (the default profile is the runner's own detector "
        "options)");
  }
  if (profiles->count(name) > 0) {
    return Status::Invalid("profile '" + name + "' is already registered");
  }
  BAGCPD_RETURN_NOT_OK(ValidateProfile(name, options));
  profiles->emplace(name, options);
  return Status::OK();
}

Result<std::string> CanonicalProfile(const ProfileMap& profiles,
                                     const std::string& profile) {
  if (profile.empty() || profile == kDefaultProfileName) {
    return std::string(kDefaultProfileName);
  }
  if (profiles.count(profile) == 0) {
    return Status::Invalid("unknown detector profile '" + profile + "'");
  }
  return profile;
}

Result<std::unique_ptr<BagStreamDetector>> NewProfileDetector(
    const DetectorOptions& default_options, const ProfileMap& profiles,
    std::uint64_t seed, const std::string& key, const std::string& profile,
    BufferArena* arena) {
  const DetectorOptions* options = &default_options;
  if (profile != kDefaultProfileName) {
    auto it = profiles.find(profile);
    BAGCPD_CHECK_MSG(it != profiles.end(), "unresolved profile '%s'",
                     profile.c_str());
    options = &it->second;
  }
  DetectorOptions per_key = *options;
  per_key.seed = DerivePerStreamSeed(seed, key, profile);
  BAGCPD_ASSIGN_OR_RETURN(std::unique_ptr<BagStreamDetector> detector,
                          BagStreamDetector::Create(per_key));
  detector->set_buffer_arena(arena);
  return detector;
}

}  // namespace bagcpd
