// Loaders and writers feeding BatchTable: a columnar CSV form (one
// observation row per line, round-tripping io/csv's quoting) and a compact
// little-endian binary form for large sweeps where CSV parse time dominates.
//
// CSV layout: header `key,timestamp,v0,...,v{D-1}[,profile]`, one line per
// observation row. The whole file shares one point dimension D (CSV has no
// per-row shape), so WriteBatchTableCsv refuses ragged tables; the binary
// form below carries per-row dimensions and round-trips ragged (quarantined)
// groups exactly. Neither layout stores a profile per row, so both writers
// refuse a group quarantined for conflicting profiles.
//
// Binary layout (all integers little-endian, doubles IEEE-754 LE):
//   magic   "BAGCPDBT" (8 bytes)
//   u32     version (currently 1)
//   u64     group count
//   per group:
//     u64 key length, key bytes
//     u64 profile length, profile bytes
//     u64 step count
//     per step:
//       i64 timestamp
//       u64 row count
//       per row: u32 dim, dim * f64 values
//
// Both readers rebuild through BatchTableBuilder, so a loaded table is in
// canonical sorted order regardless of file row order and round-trips
// bitwise (write → read → write is byte-identical).

#ifndef BAGCPD_BATCH_BATCH_IO_H_
#define BAGCPD_BATCH_BATCH_IO_H_

#include <string>

#include "bagcpd/batch/batch_table.h"
#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/result.h"

namespace bagcpd {

/// \brief Writes `table` in the CSV layout above. Fails on a ragged table
/// (groups of differing dimensions — or internally ragged quarantined
/// groups), which CSV cannot represent; use the binary form for those. The
/// profile column is emitted only when some group carries a profile.
Status WriteBatchTableCsv(const std::string& path, const BatchTable& table);

/// \brief Reads the CSV layout above into a canonical table. `arena`
/// (optional) backs the table's value buffer. Column order is fixed; the
/// trailing profile column is optional. Timestamps must parse as integers
/// and values as finite doubles — a NaN/Inf value fails the load with
/// kInvalidArgument naming the offending row.
Result<BatchTable> ReadBatchTableCsv(const std::string& path,
                                     BufferArena* arena = nullptr);

/// \brief Writes `table` in the binary layout above (handles ragged groups
/// and per-group profiles exactly). Fails with kInvalidArgument naming the
/// group on a group quarantined for conflicting profiles: the layout stores
/// one profile per group, so that group would read back healthy.
Status WriteBatchTableBinary(const std::string& path, const BatchTable& table);

/// \brief Reads the binary layout above into a canonical table. Values must
/// be finite — a NaN/Inf fails the load with kInvalidArgument naming the
/// offending group/step/row. A count, length or dim that claims more than the
/// file holds fails with kIoError ("truncated") before anything is sized from
/// it.
Result<BatchTable> ReadBatchTableBinary(const std::string& path,
                                        BufferArena* arena = nullptr);

}  // namespace bagcpd

#endif  // BAGCPD_BATCH_BATCH_IO_H_
