#include "bagcpd/analysis/ascii_plot.h"

#include <gtest/gtest.h>

namespace bagcpd {
namespace {

TEST(AsciiPlotTest, LineChartContainsMarkers) {
  std::vector<double> series = {0.0, 1.0, 2.0, 5.0, 2.0, 1.0};
  std::vector<double> lo = {-0.5, 0.5, 1.5, 4.0, 1.5, 0.5};
  std::vector<double> up = {0.5, 1.5, 2.5, 6.0, 2.5, 1.5};
  std::string chart = RenderLineChart(series, lo, up, {3}, {2});
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('X'), std::string::npos);
  EXPECT_NE(chart.find('.'), std::string::npos);
  EXPECT_NE(chart.find(':'), std::string::npos);
  EXPECT_NE(chart.find("legend"), std::string::npos);
}

TEST(AsciiPlotTest, LineChartWithoutBand) {
  std::vector<double> series = {1.0, 2.0, 3.0};
  std::string chart = RenderLineChart(series, {}, {}, {}, {});
  EXPECT_NE(chart.find('*'), std::string::npos);
  // No alarm mark inside the plot grid (the legend line mentions 'X').
  const std::string grid = chart.substr(0, chart.find("legend"));
  EXPECT_EQ(grid.find('X'), std::string::npos);
}

TEST(AsciiPlotTest, EmptySeriesIsSafe) {
  EXPECT_EQ(RenderLineChart({}, {}, {}, {}, {}), "(empty series)\n");
}

TEST(AsciiPlotTest, ConstantSeriesIsSafe) {
  std::string chart = RenderLineChart({2.0, 2.0, 2.0}, {}, {}, {}, {});
  EXPECT_NE(chart.find('*'), std::string::npos);
}

TEST(AsciiPlotTest, HeatMapUsesShades) {
  Matrix m(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      m(i, j) = static_cast<double>(i + j);
    }
  }
  std::string map = RenderHeatMap(m);
  EXPECT_NE(map.find('@'), std::string::npos);  // Max shade present.
  EXPECT_NE(map.find("scale"), std::string::npos);
}

TEST(AsciiPlotTest, HeatMapEmptyMatrix) {
  EXPECT_EQ(RenderHeatMap(Matrix()), "(empty matrix)\n");
}

TEST(AsciiPlotTest, ScatterShowsBothHalves) {
  Matrix coords(4, 2, 0.0);
  coords(0, 0) = 0.0;
  coords(1, 0) = 1.0;
  coords(2, 0) = 2.0;
  coords(3, 0) = 3.0;
  for (std::size_t i = 0; i < 4; ++i) coords(i, 1) = static_cast<double>(i);
  std::string plot = RenderScatter2d(coords);
  EXPECT_NE(plot.find('1'), std::string::npos);  // First half digits.
  EXPECT_NE(plot.find('a'), std::string::npos);  // Second half letters.
}

}  // namespace
}  // namespace bagcpd
