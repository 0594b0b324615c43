#include "bagcpd/common/number_text.h"

#include <charconv>
#include <cmath>
#include <iomanip>
#include <locale>
#include <sstream>
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
#include <limits>
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
  return internal::FormatDoubleShortestClassic(v);
#endif
}

namespace internal {

// to_chars' rule: the fewest significant digits that read back to `v`, in
// fixed or exponent form, whichever is shorter (fixed on a tie), with an
// exponent of at least two digits.
std::string FormatDoubleShortestClassic(double v) {
  if (std::isnan(v)) return std::signbit(v) ? "-nan" : "nan";
  const std::string sign = std::signbit(v) ? "-" : "";
  const double magnitude = std::fabs(v);
  if (std::isinf(v)) return sign + "inf";
  if (magnitude == 0.0) return sign + "0";
  const auto print = [magnitude](std::ios_base::fmtflags format,
                                 int precision) {
    std::ostringstream stream;
    stream.imbue(std::locale::classic());
    stream.setf(format, std::ios_base::floatfield);
    stream << std::setprecision(precision) << magnitude;
    return stream.str();
  };
  // The exponent form with the fewest digits that read back: d.ddde+XX.
  std::string scientific;
  double back = 0.0;
  for (int precision = 0; precision < 17; ++precision) {
    scientific = print(std::ios_base::scientific, precision);
    if (ParseDouble(scientific, &back) == NumberParse::kOk &&
        back == magnitude) {
      break;
    }
  }
  const std::size_t e = scientific.find('e');
  std::string digits =
      scientific.substr(0, 1) + (e > 1 ? scientific.substr(2, e - 2) : "");
  std::int64_t exponent = 0;  // ParseInt64 takes no '+'.
  ParseInt64(scientific.substr(e + (scientific[e + 1] == '+' ? 2 : 1)),
             &exponent);
  std::string fixed;
  if (exponent >= static_cast<std::int64_t>(digits.size()) - 1) {
    // A whole number: every integer digit, exactly, as printf's %.0f.
    fixed = print(std::ios_base::fixed, 0);
  } else if (exponent >= 0) {
    fixed = digits.insert(static_cast<std::size_t>(exponent) + 1, ".");
  } else {
    fixed = "0." + std::string(static_cast<std::size_t>(-exponent - 1), '0') +
            digits;
  }
  return sign + (fixed.size() <= scientific.size() ? fixed : scientific);
}

}  // namespace internal

}  // namespace bagcpd
