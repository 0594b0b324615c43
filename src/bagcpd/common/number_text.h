// Numbers as text: the one parser and formatter behind every number bagcpd
// reads from or writes into a string — detector, engine and batch spec
// values, the `emd=` solver spec, the fault grammar (`fault=`,
// BAGCPD_FAULT) and batch CSV cells.
//
// The number rule: a token is the whole text, in decimal or exponent form
// with an optional leading '-'. There is no leading '+', no hex and no
// whitespace anywhere in a token, and a value outside the target type's
// range is rejected, never wrapped or clamped. The C locale plays no part,
// so a host application calling setlocale() cannot change what a spec string
// or a data file means.
//
// ParseDouble also reads the tokens "inf" and "nan" (as <charconv> does);
// every caller that needs a finite value checks for it and names the
// offending token in its own error.

#ifndef BAGCPD_COMMON_NUMBER_TEXT_H_
#define BAGCPD_COMMON_NUMBER_TEXT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace bagcpd {

/// \brief Outcome of parsing one number token.
enum class NumberParse {
  kOk,
  /// Not a number under the rule above (empty, trailing text, '+', hex,
  /// whitespace, a '-' on an unsigned value, ...).
  kMalformed,
  /// Well-formed but outside the range of the target type.
  kOutOfRange,
};

/// \brief Parses all of `text` as a double. `*out` is written only on kOk.
NumberParse ParseDouble(std::string_view text, double* out);

/// \brief Parses all of `text` as a base-10 signed 64-bit integer. `*out` is
/// written only on kOk.
NumberParse ParseInt64(std::string_view text, std::int64_t* out);

/// \brief Parses all of `text` as a base-10 unsigned 64-bit integer (no
/// sign at all). `*out` is written only on kOk.
NumberParse ParseUint64(std::string_view text, std::uint64_t* out);

/// \brief The shortest decimal form that ParseDouble reads back to exactly
/// `v`, so echoed specs and written files round-trip bitwise. (io/csv.h's
/// FormatDouble is the fixed-precision form for display tables.)
std::string FormatDoubleShortest(double v);

namespace internal {
/// \brief FormatDoubleShortest without floating-point <charconv>: what
/// std::to_chars writes, through the classic locale. Built everywhere so
/// that tests can hold it to to_chars.
std::string FormatDoubleShortestClassic(double v);
}  // namespace internal

}  // namespace bagcpd

#endif  // BAGCPD_COMMON_NUMBER_TEXT_H_
