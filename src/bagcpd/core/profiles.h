// Detector profiles: the one set of rules StreamEngine and RunBatchColumnar
// share for naming, validating, resolving and seeding per-key detectors.
//
// A profile set is the default profile (kDefaultProfileName, backed by the
// runner's own `detector` options) plus named profiles. A key's detector
// runs its profile's options with a seed derived from (run seed, key,
// profile name) only — never from shard placement — so any runner built on
// NewProfileDetector scores a key bit for bit like any other.

#ifndef BAGCPD_CORE_PROFILES_H_
#define BAGCPD_CORE_PROFILES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/result.h"
#include "bagcpd/core/detector.h"

namespace bagcpd {

/// \brief Name of the implicit profile backing a runner's default detector
/// options; an empty profile name routes here. The name is reserved: no
/// named profile may take it.
inline constexpr const char kDefaultProfileName[] = "default";

/// \brief Named detector profiles, beyond the default one.
using ProfileMap = std::map<std::string, DetectorOptions>;

/// \brief The per-key detector seed: a pure function of (run seed, key,
/// canonical profile name), with the default profile reproducing the
/// historical (seed, key) derivation bit for bit. An empty `profile` counts
/// as the default.
std::uint64_t DerivePerStreamSeed(std::uint64_t engine_seed,
                                  const std::string& stream_id,
                                  const std::string& profile);

/// \brief Checks a profile definition. `options` must validate and carry
/// seed 0: per-key seeds derive from the run seed, the key and the profile
/// name. `name` is kDefaultProfileName for the default options; any other
/// name must be non-empty (an empty reference means the default).
Status ValidateProfile(const std::string& name, const DetectorOptions& options);

/// \brief Registers a named profile: fails on the reserved
/// kDefaultProfileName, on a name already in `profiles`, or where
/// ValidateProfile does; otherwise inserts it. `profiles` is unchanged on
/// failure.
Status AddProfile(const std::string& name, const DetectorOptions& options,
                  ProfileMap* profiles);

/// \brief Maps a profile reference to its canonical name: empty and
/// kDefaultProfileName mean the default; any other name must be in
/// `profiles` (Invalid otherwise).
Result<std::string> CanonicalProfile(const ProfileMap& profiles,
                                     const std::string& profile);

/// \brief The detector for `key` under the canonical `profile`: that
/// profile's options (`default_options` for kDefaultProfileName), seeded by
/// DerivePerStreamSeed(seed, key, profile), its buffers recycled through
/// `arena` (may be null).
Result<std::unique_ptr<BagStreamDetector>> NewProfileDetector(
    const DetectorOptions& default_options, const ProfileMap& profiles,
    std::uint64_t seed, const std::string& key, const std::string& profile,
    BufferArena* arena);

}  // namespace bagcpd

#endif  // BAGCPD_CORE_PROFILES_H_
