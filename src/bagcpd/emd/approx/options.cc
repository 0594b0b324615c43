#include "bagcpd/emd/approx/options.h"

#include <cmath>
#include <cstdint>

#include "bagcpd/common/enum_names.h"
#include "bagcpd/common/number_text.h"

namespace bagcpd {

namespace {

Result<double> ParsePositiveDouble(const std::string& what,
                                   const std::string& text) {
  double v = 0.0;
  if (ParseDouble(text, &v) != NumberParse::kOk || !std::isfinite(v) ||
      v <= 0.0) {
    return Status::Invalid("emd solver spec: '" + text +
                           "' is not a positive number for " + what);
  }
  return v;
}

Result<double> ParseNonNegativeDouble(const std::string& what,
                                      const std::string& text) {
  double v = 0.0;
  if (ParseDouble(text, &v) != NumberParse::kOk || !std::isfinite(v) ||
      v < 0.0) {
    return Status::Invalid("emd solver spec: '" + text +
                           "' is not a non-negative number for " + what);
  }
  return v;
}

Result<std::size_t> ParsePositiveSize(const std::string& what,
                                      const std::string& text) {
  std::uint64_t v = 0;
  if (ParseUint64(text, &v) != NumberParse::kOk || v == 0 ||
      static_cast<std::size_t>(v) != v) {
    return Status::Invalid("emd solver spec: '" + text +
                           "' is not a positive integer for " + what);
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

const char* EmdSolverKindName(EmdSolverKind kind) {
  switch (kind) {
    case EmdSolverKind::kExact:
      return "exact";
    case EmdSolverKind::kSinkhorn:
      return "sinkhorn";
    case EmdSolverKind::kSliced:
      return "sliced";
  }
  return "unknown";
}

const std::vector<EmdSolverKind>& AllEmdSolverKinds() {
  static const std::vector<EmdSolverKind> kAll = {EmdSolverKind::kExact,
                                                  EmdSolverKind::kSinkhorn,
                                                  EmdSolverKind::kSliced};
  return kAll;
}

Result<EmdSolverKind> ParseEmdSolverKind(const std::string& name) {
  return ParseNamedEnum(name, AllEmdSolverKinds(), EmdSolverKindName,
                        "emd solver");
}

Status ValidateEmdSolverOptions(const EmdSolverOptions& options) {
  if (!(options.sinkhorn_eps > 0.0) || !std::isfinite(options.sinkhorn_eps)) {
    return Status::Invalid("sinkhorn_eps must be a positive finite number");
  }
  if (options.sinkhorn_max_iters == 0) {
    return Status::Invalid("sinkhorn_max_iters must be at least 1");
  }
  if (!(options.sinkhorn_tolerance >= 0.0) ||
      !std::isfinite(options.sinkhorn_tolerance)) {
    return Status::Invalid(
        "sinkhorn_tolerance must be a non-negative finite number");
  }
  if (options.sliced_projections == 0) {
    return Status::Invalid("sliced_projections must be at least 1");
  }
  return Status::OK();
}

Result<EmdSolverOptions> ParseEmdSolverSpec(const std::string& spec) {
  // Split on ':' — the first token names the kind, the rest are its knobs.
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t colon = spec.find(':', begin);
    if (colon == std::string::npos) {
      parts.push_back(spec.substr(begin));
      break;
    }
    parts.push_back(spec.substr(begin, colon - begin));
    begin = colon + 1;
  }

  EmdSolverOptions options;
  BAGCPD_ASSIGN_OR_RETURN(options.kind, ParseEmdSolverKind(parts[0]));
  switch (options.kind) {
    case EmdSolverKind::kExact:
      if (parts.size() > 1) {
        return Status::Invalid(
            "emd solver spec: 'exact' takes no parameters, got '" + spec +
            "'");
      }
      break;
    case EmdSolverKind::kSinkhorn:
      if (parts.size() > 4) {
        return Status::Invalid(
            "emd solver spec: expected 'sinkhorn[:eps[:iters[:tol]]]', got '" +
            spec + "'");
      }
      if (parts.size() > 1) {
        BAGCPD_ASSIGN_OR_RETURN(
            options.sinkhorn_eps,
            ParsePositiveDouble("sinkhorn eps", parts[1]));
      }
      if (parts.size() > 2) {
        BAGCPD_ASSIGN_OR_RETURN(
            options.sinkhorn_max_iters,
            ParsePositiveSize("sinkhorn iteration cap", parts[2]));
      }
      if (parts.size() > 3) {
        BAGCPD_ASSIGN_OR_RETURN(
            options.sinkhorn_tolerance,
            ParseNonNegativeDouble("sinkhorn tolerance", parts[3]));
      }
      break;
    case EmdSolverKind::kSliced:
      if (parts.size() > 2) {
        return Status::Invalid(
            "emd solver spec: expected 'sliced[:n]', got '" + spec + "'");
      }
      if (parts.size() > 1) {
        BAGCPD_ASSIGN_OR_RETURN(
            options.sliced_projections,
            ParsePositiveSize("sliced projection count", parts[1]));
      }
      break;
  }
  BAGCPD_RETURN_NOT_OK(ValidateEmdSolverOptions(options));
  return options;
}

std::string EmdSolverSpecString(const EmdSolverOptions& options) {
  const EmdSolverOptions defaults;
  switch (options.kind) {
    case EmdSolverKind::kExact:
      return "exact";
    case EmdSolverKind::kSinkhorn: {
      std::string out = "sinkhorn:" + FormatDoubleShortest(options.sinkhorn_eps);
      if (options.sinkhorn_max_iters != defaults.sinkhorn_max_iters ||
          options.sinkhorn_tolerance != defaults.sinkhorn_tolerance) {
        out += ":" + std::to_string(options.sinkhorn_max_iters);
        out += ":" + FormatDoubleShortest(options.sinkhorn_tolerance);
      }
      return out;
    }
    case EmdSolverKind::kSliced:
      return "sliced:" + std::to_string(options.sliced_projections);
  }
  return "exact";
}

}  // namespace bagcpd
