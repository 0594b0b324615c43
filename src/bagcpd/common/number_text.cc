#include "bagcpd/common/number_text.h"

#include <charconv>
#include <system_error>

// Floating-point from_chars/to_chars is missing on older standard libraries
// (notably libc++ before LLVM 20); there doubles stream through the classic
// locale instead, which is just as locale-independent, only slower.
// Integer <charconv> is always available.
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
#define BAGCPD_HAS_FP_CHARCONV 1
#else
#define BAGCPD_HAS_FP_CHARCONV 0
#include <cctype>
#include <cmath>
#include <iomanip>
#include <limits>
#include <locale>
#include <sstream>
#endif

namespace bagcpd {
namespace {

// from_chars never skips whitespace or accepts a leading '+' (nor, in its
// default formats, a "0x" prefix), so a whole-token match is the rule.
template <typename T>
NumberParse FromChars(std::string_view text, T* out) {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec == std::errc::invalid_argument || ptr != end) {
    return NumberParse::kMalformed;
  }
  if (ec == std::errc::result_out_of_range) return NumberParse::kOutOfRange;
  *out = parsed;
  return NumberParse::kOk;
}

}  // namespace

NumberParse ParseDouble(std::string_view text, double* out) {
#if BAGCPD_HAS_FP_CHARCONV
  return FromChars(text, out);
#else
  // operator>> would skip leading whitespace and take a leading '+'.
  if (text.empty() || text[0] == '+' ||
      std::isspace(static_cast<unsigned char>(text[0]))) {
    return NumberParse::kMalformed;
  }
  // operator>> reads no "inf" or "nan"; from_chars does.
  const bool negative = text[0] == '-';
  std::string word(text.substr(negative ? 1 : 0));
  for (char& c : word) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (word == "inf" || word == "infinity" || word == "nan") {
    const double special = word == "nan"
                               ? std::numeric_limits<double>::quiet_NaN()
                               : std::numeric_limits<double>::infinity();
    *out = negative ? -special : special;
    return NumberParse::kOk;
  }
  std::istringstream stream{std::string(text)};
  stream.imbue(std::locale::classic());
  double parsed = 0.0;
  stream >> parsed;
  if (stream.fail()) {
    // On overflow operator>> stores the largest finite value and fails.
    return std::abs(parsed) == std::numeric_limits<double>::max()
               ? NumberParse::kOutOfRange
               : NumberParse::kMalformed;
  }
  if (!stream.eof()) return NumberParse::kMalformed;
  *out = parsed;
  return NumberParse::kOk;
#endif
}

NumberParse ParseInt64(std::string_view text, std::int64_t* out) {
  return FromChars(text, out);
}

NumberParse ParseUint64(std::string_view text, std::uint64_t* out) {
  return FromChars(text, out);
}

std::string FormatDoubleShortest(double v) {
#if BAGCPD_HAS_FP_CHARCONV
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ec == std::errc() ? ptr : buf);
#else
  // The fewest classic-locale digits that survive a parse-back.
  for (int precision = 1;; ++precision) {
    std::ostringstream stream;
    stream.imbue(std::locale::classic());
    stream << std::setprecision(precision) << v;
    double back = 0.0;
    if (precision == 17 ||
        (ParseDouble(stream.str(), &back) == NumberParse::kOk && back == v)) {
      return stream.str();
    }
  }
#endif
}

}  // namespace bagcpd
