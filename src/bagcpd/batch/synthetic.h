// Synthetic grouped-series generator for batch benchmarks and tests — the
// library's analogue of anofox-forecast's generate_10k_series fixture: many
// independent keyed series, a configurable fraction carrying one mid-series
// distribution change, emitted time-major (all keys at t, then all keys at
// t+1, ...) so ingest paths are exercised on realistically interleaved,
// unsorted row order.
//
// Fully deterministic: every series draws from its own fork of the spec
// seed, so the data for key k is independent of how many other keys exist
// and of emission order.

#ifndef BAGCPD_BATCH_SYNTHETIC_H_
#define BAGCPD_BATCH_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bagcpd/batch/batch_table.h"
#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/result.h"

namespace bagcpd {

/// \brief Shape of one synthetic grouped-series corpus.
struct BatchSeriesSpec {
  /// Number of keyed series ("series-000000", "series-000001", ...).
  std::size_t num_groups = 10000;
  /// Time steps per series; timestamps are 0, 1, ..., steps_per_group - 1.
  std::size_t steps_per_group = 16;
  /// Observations (rows) per step — the bag size.
  std::size_t points_per_step = 4;
  /// Point dimension.
  std::size_t dim = 2;
  /// Fraction of series whose generating Gaussian jumps at the midpoint
  /// (every 1/change_fraction-th series changes; 0 = none).
  double change_fraction = 0.5;
  /// Mean shift applied to every coordinate after the change point.
  double drift = 4.0;
  std::uint64_t seed = 0;
};

/// \brief A synthetic corpus in raw row form (pre-BatchTable), time-major:
/// row r is observation (keys[group[r]], timestamp[r], values[r*dim..]).
struct BatchSeriesRows {
  std::vector<std::string> keys;      // one per group
  std::vector<std::uint32_t> group;   // one per row
  std::vector<std::int64_t> timestamp;
  std::vector<double> values;         // row-major, dim values per row
  std::size_t dim = 0;
  std::size_t row_count() const { return group.size(); }
};

/// \brief Checks the spec describes a non-degenerate corpus.
Status ValidateBatchSeriesSpec(const BatchSeriesSpec& spec);

/// \brief Generates the raw interleaved rows.
Result<BatchSeriesRows> GenerateBatchSeriesRows(const BatchSeriesSpec& spec);

/// \brief Appends raw rows to `builder` in one columnar
/// BatchTableBuilder::AddRows call: the group column goes straight through,
/// and each key is looked up once. Fails as AddRows does.
Status AddBatchSeriesRows(const BatchSeriesRows& rows,
                          BatchTableBuilder* builder);

/// \brief Builds a canonical BatchTable from raw rows: AddBatchSeriesRows
/// into a fresh builder, then Build() (the columnar ingest path the
/// micro_batch benchmark times, split into those two calls).
BatchTable BuildBatchTable(const BatchSeriesRows& rows,
                           BufferArena* arena = nullptr);

/// \brief Convenience: GenerateBatchSeriesRows + BuildBatchTable.
Result<BatchTable> GenerateBatchSeries(const BatchSeriesSpec& spec,
                                       BufferArena* arena = nullptr);

}  // namespace bagcpd

#endif  // BAGCPD_BATCH_SYNTHETIC_H_
