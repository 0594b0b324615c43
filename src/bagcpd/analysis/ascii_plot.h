// Terminal rendering of the paper's figures: line charts with confidence
// bands and alarm marks (Fig. 6 right panels, Fig. 7, Fig. 10), distance-
// matrix heat maps (Fig. 6 left panels), and scatter plots of MDS embeddings
// (Fig. 6 center panels). The bench harnesses print these so the figure
// shapes can be inspected without a plotting stack.

#ifndef BAGCPD_ANALYSIS_ASCII_PLOT_H_
#define BAGCPD_ANALYSIS_ASCII_PLOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bagcpd/common/matrix.h"

namespace bagcpd {

/// \brief Options shared by the chart renderers.
struct PlotOptions {
  int width = 72;
  int height = 16;
};

/// \brief Line chart of `series` (x = index). Optional `lo`/`up` draw a
/// confidence band (pass empty vectors to skip); `marks` places an 'X' at the
/// given x positions (alarm times); `vlines` draws '|' columns (true change
/// points).
std::string RenderLineChart(const std::vector<double>& series,
                            const std::vector<double>& lo,
                            const std::vector<double>& up,
                            const std::vector<std::uint64_t>& marks,
                            const std::vector<std::size_t>& vlines,
                            const PlotOptions& options = {});

/// \brief Shade heat map of a matrix (darker = larger).
std::string RenderHeatMap(const Matrix& m, const PlotOptions& options = {});

/// \brief Scatter plot of n x 2 coordinates; points are labeled with the last
/// character of their 1-based index, first half 'o'-family, second half
/// distinguished (Fig. 6 circles vs triangles analogue).
std::string RenderScatter2d(const Matrix& coordinates,
                            const PlotOptions& options = {});

}  // namespace bagcpd

#endif  // BAGCPD_ANALYSIS_ASCII_PLOT_H_
