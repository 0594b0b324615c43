#include "bagcpd/analysis/ascii_plot.h"

#include <algorithm>
#include <cmath>

#include "bagcpd/common/check.h"

namespace bagcpd {

namespace {

// Maps v in [lo, hi] to a row in [0, rows).
int RowOf(double v, double lo, double hi, int rows) {
  if (hi <= lo) return rows / 2;
  const double unit = (v - lo) / (hi - lo);
  int row = static_cast<int>(std::lround(unit * (rows - 1)));
  return std::clamp(row, 0, rows - 1);
}

}  // namespace

std::string RenderLineChart(const std::vector<double>& series,
                            const std::vector<double>& lo,
                            const std::vector<double>& up,
                            const std::vector<std::uint64_t>& marks,
                            const std::vector<std::size_t>& vlines,
                            const PlotOptions& options) {
  if (series.empty()) return "(empty series)\n";
  const int w = std::max(8, options.width);
  const int h = std::max(4, options.height);
  const bool has_band = lo.size() == series.size() && up.size() == series.size();

  double vmin = series[0];
  double vmax = series[0];
  for (double v : series) {
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
  }
  if (has_band) {
    for (double v : lo) vmin = std::min(vmin, v);
    for (double v : up) vmax = std::max(vmax, v);
  }
  if (vmax <= vmin) vmax = vmin + 1.0;

  std::vector<std::string> grid(static_cast<std::size_t>(h),
                                std::string(static_cast<std::size_t>(w), ' '));
  const std::size_t n = series.size();
  auto col_of = [&](std::size_t t) {
    return static_cast<int>(t * static_cast<std::size_t>(w - 1) /
                            std::max<std::size_t>(1, n - 1));
  };

  // True change-point vlines first (underneath everything).
  for (std::size_t cp : vlines) {
    if (cp >= n) continue;
    const int col = col_of(cp);
    for (int r = 0; r < h; ++r) {
      grid[static_cast<std::size_t>(r)][static_cast<std::size_t>(col)] = ':';
    }
  }
  // Confidence band.
  if (has_band) {
    for (std::size_t t = 0; t < n; ++t) {
      const int col = col_of(t);
      const int r_lo = RowOf(lo[t], vmin, vmax, h);
      const int r_up = RowOf(up[t], vmin, vmax, h);
      for (int r = std::min(r_lo, r_up); r <= std::max(r_lo, r_up); ++r) {
        char& cell = grid[static_cast<std::size_t>(h - 1 - r)]
                         [static_cast<std::size_t>(col)];
        if (cell == ' ' || cell == ':') cell = '.';
      }
    }
  }
  // The score line.
  for (std::size_t t = 0; t < n; ++t) {
    const int col = col_of(t);
    const int row = RowOf(series[t], vmin, vmax, h);
    grid[static_cast<std::size_t>(h - 1 - row)][static_cast<std::size_t>(col)] =
        '*';
  }
  // Alarm marks on top.
  for (std::uint64_t mark : marks) {
    if (mark >= n) continue;
    const int col = col_of(static_cast<std::size_t>(mark));
    const int row = RowOf(series[static_cast<std::size_t>(mark)], vmin, vmax, h);
    grid[static_cast<std::size_t>(h - 1 - row)][static_cast<std::size_t>(col)] =
        'X';
  }

  std::string out;
  char label[64];
  std::snprintf(label, sizeof(label), "%10.3f ", vmax);
  out += label;
  out += "+";
  out += std::string(static_cast<std::size_t>(w), '-');
  out += "+\n";
  for (int r = 0; r < h; ++r) {
    out += "           |";
    out += grid[static_cast<std::size_t>(r)];
    out += "|\n";
  }
  std::snprintf(label, sizeof(label), "%10.3f ", vmin);
  out += label;
  out += "+";
  out += std::string(static_cast<std::size_t>(w), '-');
  out += "+\n";
  out +=
      "            legend: * score, . CI band, X alarm, : true change point\n";
  return out;
}

std::string RenderHeatMap(const Matrix& m, const PlotOptions& options) {
  if (m.empty()) return "(empty matrix)\n";
  static const char kShades[] = " .:-=+*#%@";
  const int levels = 9;
  double vmin = m(0, 0);
  double vmax = m(0, 0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      vmin = std::min(vmin, m(i, j));
      vmax = std::max(vmax, m(i, j));
    }
  }
  const double range = vmax > vmin ? vmax - vmin : 1.0;
  // Downsample to at most options.width columns / height*2 rows.
  const std::size_t max_cols =
      static_cast<std::size_t>(std::max(8, options.width));
  const std::size_t max_rows =
      static_cast<std::size_t>(std::max(8, options.height * 2));
  const std::size_t rstep = std::max<std::size_t>(1, m.rows() / max_rows);
  const std::size_t cstep = std::max<std::size_t>(1, m.cols() / max_cols);

  std::string out;
  for (std::size_t i = 0; i < m.rows(); i += rstep) {
    out += "  ";
    for (std::size_t j = 0; j < m.cols(); j += cstep) {
      const int level = static_cast<int>(
          std::lround((m(i, j) - vmin) / range * levels));
      out += kShades[std::clamp(level, 0, levels)];
      out += kShades[std::clamp(level, 0, levels)];  // Square-ish aspect.
    }
    out += "\n";
  }
  char label[96];
  std::snprintf(label, sizeof(label), "  scale: ' '=%.3f .. '@'=%.3f\n", vmin,
                vmax);
  out += label;
  return out;
}

std::string RenderScatter2d(const Matrix& coordinates,
                            const PlotOptions& options) {
  if (coordinates.empty() || coordinates.cols() < 2) {
    return "(no 2-d coordinates)\n";
  }
  const int w = std::max(16, options.width);
  const int h = std::max(8, options.height);
  double xmin = coordinates(0, 0), xmax = coordinates(0, 0);
  double ymin = coordinates(0, 1), ymax = coordinates(0, 1);
  for (std::size_t i = 0; i < coordinates.rows(); ++i) {
    xmin = std::min(xmin, coordinates(i, 0));
    xmax = std::max(xmax, coordinates(i, 0));
    ymin = std::min(ymin, coordinates(i, 1));
    ymax = std::max(ymax, coordinates(i, 1));
  }
  if (xmax <= xmin) xmax = xmin + 1.0;
  if (ymax <= ymin) ymax = ymin + 1.0;

  std::vector<std::string> grid(static_cast<std::size_t>(h),
                                std::string(static_cast<std::size_t>(w), ' '));
  const std::size_t n = coordinates.rows();
  for (std::size_t i = 0; i < n; ++i) {
    const int col = RowOf(coordinates(i, 0), xmin, xmax, w);
    const int row = RowOf(coordinates(i, 1), ymin, ymax, h);
    // First half of the sequence plotted as digits, second half as letters
    // (the paper's circles vs triangles).
    char symbol;
    if (i < n / 2) {
      symbol = static_cast<char>('0' + ((i + 1) % 10));
    } else {
      symbol = static_cast<char>('a' + ((i - n / 2) % 26));
    }
    grid[static_cast<std::size_t>(h - 1 - row)][static_cast<std::size_t>(col)] =
        symbol;
  }
  std::string out;
  out += "  +" + std::string(static_cast<std::size_t>(w), '-') + "+\n";
  for (int r = 0; r < h; ++r) {
    out += "  |" + grid[static_cast<std::size_t>(r)] + "|\n";
  }
  out += "  +" + std::string(static_cast<std::size_t>(w), '-') + "+\n";
  out += "  legend: digits = first half of bags (1..n/2), letters = second "
         "half (a = bag n/2+1)\n";
  return out;
}

}  // namespace bagcpd
