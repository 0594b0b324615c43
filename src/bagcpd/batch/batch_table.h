// BatchTable: the columnar ingest container behind the batch frontend. One
// table holds thousands of grouped series in four contiguous buffers — group
// directory, per-step timestamps, per-step row extents, and one flat
// point-value buffer (arena-backed) — so an offline sweep over 10k+ series
// ("millions of users" worth of keys) is a single allocation-friendly value
// that RunBatchColumnar can walk with zero-copy BagViews.
//
// The table stores its values and nothing per row: a group whose rows share
// one dim keeps the offset of its first value, and its row i starts
// i * dim values past it, so a well-formed group costs dim * 8 bytes per row
// plus 16 per step. Only the rows of a ragged group carry an 8-byte offset,
// in a fifth buffer. row_values() finds a row's group by binary search.
//
// Shape: an input *row* is one observation (key, timestamp, point). Rows
// sharing a (key, timestamp) pair form the bag observed by that key at that
// step — the table-level analogue of the paper's bag-of-data per time step.
// A *group* is all rows of one key: one independent detector stream.
//
// BatchTableBuilder accepts rows in ANY order and Build() sorts them into a
// canonical layout: groups ordered by key, steps ordered by timestamp, and
// rows within a step ordered by their point dimension and value bit
// patterns — a pure function of the row multiset, so shuffled ingest
// produces a bitwise-identical table (and therefore bitwise-identical
// detection results) to pre-sorted ingest.
//
// Rows come in through one append path. AddRow (one row) and AddRows
// (columns with group ids indexing a key list) look a key up once per call
// (AddRows once per distinct id) and append runs of rows that share a group,
// a timestamp and a dimension; a run that continues the previous one extends
// it, so the calls leave identical builders for identical rows. Build()
// then works on runs: a counting sort of the runs by group, a timestamp
// pass per group that sorts only a group whose runs are out of time order
// (a time-major log skips it) and checks once per run that the group's rows
// share one dimension, and a pass over the steps. A step of such a group
// with at most 64 rows is sorted by a branch-free sorting network on one
// word per row (the first value's high bits and the row's index), with rows
// tying on those bits re-sorted on their full values; any other step is
// sorted on (dim, first value's bits) keys that read further values only on
// a tie. The table's buffers are reserved at their final sizes, with no
// up-front zero fill, and written step by step. The cost is linear in the
// rows plus the per-bag sorts.
//
// Malformed groups never fail the table: a group whose rows disagree on the
// point dimension (ragged) or on the profile column is retained but marked
// with a non-OK group_status(); RunBatchColumnar reports it as quarantined
// instead of crashing or silently dropping its rows.

#ifndef BAGCPD_BATCH_BATCH_TABLE_H_
#define BAGCPD_BATCH_BATCH_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/common/status.h"

namespace bagcpd {

/// \brief Immutable columnar container of grouped (key, timestamp, point)
/// rows in canonical sorted order. Built by BatchTableBuilder or the loaders
/// in batch/batch_io.h.
class BatchTable {
 public:
  /// \brief Empty table (no groups, no rows).
  BatchTable() = default;

  /// \brief Number of distinct keys.
  std::size_t group_count() const { return groups_.size(); }
  /// \brief Total input rows (observations) across all groups.
  std::size_t row_count() const {
    return step_row_begin_.empty() ? 0 : step_row_begin_.back();
  }
  /// \brief Total distinct (key, timestamp) steps across all groups.
  std::size_t step_count() const { return step_timestamps_.size(); }
  bool empty() const { return groups_.empty(); }

  /// \brief Key of group `g`; groups are sorted by key.
  const std::string& group_key(std::size_t g) const { return groups_[g].key; }
  /// \brief Detector-profile name carried by group `g`'s rows (empty when the
  /// rows named none; resolution to the default profile happens at run time).
  const std::string& group_profile(std::size_t g) const {
    return groups_[g].profile;
  }
  /// \brief OK iff the group is well-formed (uniform point dimension, one
  /// profile). A non-OK group is carried for reporting: RunBatchColumnar
  /// quarantines it with exactly this status.
  const Status& group_status(std::size_t g) const { return groups_[g].status; }
  /// \brief True when the group's rows named different profiles (its status
  /// then says so, and group_profile() is the first one appended). No file
  /// layout stores a profile per row, so both writers refuse such a group.
  bool group_profile_conflict(std::size_t g) const {
    return groups_[g].profile_conflict;
  }
  /// \brief Point dimension shared by the group's rows; 0 for any non-OK
  /// group, ragged or not.
  std::size_t group_dim(std::size_t g) const {
    return groups_[g].status.ok() ? groups_[g].row_dim : 0;
  }
  std::size_t group_step_count(std::size_t g) const {
    return groups_[g].step_end - groups_[g].step_begin;
  }
  std::size_t group_row_count(std::size_t g) const {
    return groups_[g].row_end - groups_[g].row_begin;
  }

  /// \brief Timestamp of step `s` (0-based, time-ordered) of group `g`.
  std::int64_t step_timestamp(std::size_t g, std::size_t s) const {
    return step_timestamps_[groups_[g].step_begin + s];
  }
  /// \brief Number of rows merged into the step's bag.
  std::size_t step_row_count(std::size_t g, std::size_t s) const {
    const std::size_t gs = groups_[g].step_begin + s;
    return step_row_begin_[gs + 1] - step_row_begin_[gs];
  }
  /// \brief Global index of the step's first row (rows of one step — and of
  /// one group — are contiguous).
  std::size_t step_first_row(std::size_t g, std::size_t s) const {
    return step_row_begin_[groups_[g].step_begin + s];
  }

  /// \brief Zero-copy view of the bag observed at step `s` of group `g`.
  /// Only meaningful when group_status(g).ok() (a ragged group has no
  /// rectangular bag to view).
  BagView step_bag(std::size_t g, std::size_t s) const {
    const Group& group = groups_[g];
    const std::size_t first = step_first_row(g, s);
    return BagView(values_.vec().data() + group.value_begin +
                       (first - group.row_begin) * group.row_dim,
                   step_row_count(g, s), group_dim(g));
  }

  /// \brief Values of one global row (works for ragged groups too; the view's
  /// size is that row's own dimension). Finds the row's group by binary
  /// search.
  PointView row_values(std::size_t row) const;

  /// \brief The flat value buffer (row values back to back in table order).
  const std::vector<double>& values() const { return values_.vec(); }

  /// \brief Bytes held by the table's arrays (by capacity): the values, the
  /// step and group directories, and the offsets of ragged groups' rows.
  /// Key, profile and status strings are not counted.
  std::size_t retained_bytes() const;

 private:
  friend class BatchTableBuilder;

  struct Group {
    std::string key;
    std::string profile;
    Status status = Status::OK();
    bool profile_conflict = false;
    // Half-open ranges into the flat step arrays / global row index space.
    std::size_t step_begin = 0;
    std::size_t step_end = 0;
    std::size_t row_begin = 0;
    std::size_t row_end = 0;
    // Offset of the group's first value in values_.
    std::size_t value_begin = 0;
    // The dim shared by all the group's rows, 0 when they differ (ragged).
    // Unlike group_dim() it is kept for a profile conflict of one dim, whose
    // row row_begin + i still starts at value_begin + i * row_dim.
    std::size_t row_dim = 0;
    // A ragged group's rows are addressed through ragged_value_begin_,
    // from this index on.
    std::size_t ragged_begin = 0;
  };

  std::vector<Group> groups_;
  // One entry per step, concatenated in group order.
  std::vector<std::int64_t> step_timestamps_;
  // step_row_begin_[s] is the global index of step s's first row; one
  // sentinel entry at the end holds row_count(). Empty tables keep it empty.
  std::vector<std::size_t> step_row_begin_;
  // Per-row value offsets for ragged groups only: for each ragged group,
  // in group order, the offset of each of its rows and then of its end.
  std::vector<std::size_t> ragged_value_begin_;
  // All point values back to back; returns to its arena (if any) with the
  // table.
  PooledBuffer values_;
};

/// \brief Accumulates rows in any order; Build() produces the canonical
/// sorted BatchTable. Reusable after Build() (starts a fresh table).
/// AddRow and AddRows share one append path (see the file comment),
/// so the same rows give the same table whichever of them appends them.
class BatchTableBuilder {
 public:
  /// \brief With a non-null `arena` the final value buffer (and the staging
  /// buffer) recycle through it; contents are identical either way.
  explicit BatchTableBuilder(BufferArena* arena = nullptr);

  /// \brief Pre-sizes the staging buffers for `rows` rows of `dim` values.
  void Reserve(std::size_t rows, std::size_t dim);

  /// \brief Appends one observation row. The empty profile means "unnamed" —
  /// such a group resolves to the runner's default or per-key profile.
  /// Rejects empty keys and zero-dimensional points outright (malformed
  /// input, not group raggedness).
  Status AddRow(const std::string& key, std::int64_t timestamp, PointView point,
                const std::string& profile = std::string());

  /// \brief Appends `count` rows given as columns, all of dimension `dim` and
  /// carrying `profile`: row r is (keys[group[r]], timestamp[r], the `dim`
  /// values at values + r * dim). Each key that some row uses is looked up
  /// once. Fails, appending nothing, on a group id past `keys`, a used key
  /// that is empty, or dim == 0.
  Status AddRows(const std::vector<std::string>& keys,
                 const std::uint32_t* group, const std::int64_t* timestamp,
                 const double* values, std::size_t count, std::size_t dim,
                 const std::string& profile = std::string());

  /// \brief Rows appended since construction / the last Build().
  std::size_t row_count() const { return row_count_; }

  /// \brief Sorts, groups, validates per group, and emits the table. Never
  /// fails as a whole: malformed groups are marked via group_status().
  BatchTable Build();

 private:
  // Rows of one group, timestamp and dimension, back to back in staging_.
  struct Run {
    std::uint32_t group = 0;
    std::uint32_t dim = 0;
    std::int64_t timestamp = 0;
    std::size_t value_begin = 0;
    std::size_t rows = 0;
  };

  // The id of `key`'s group, registering it on first use; records a profile
  // conflict on the group's status.
  std::uint32_t Intern(const std::string& key, const std::string& profile);
  // The one append path: `rows` rows of `dim` values of an interned group.
  void Append(std::uint32_t group, std::int64_t timestamp,
              const double* values, std::size_t rows, std::uint32_t dim);

  BufferArena* arena_ = nullptr;
  // Group ids in first-seen order; sorted by key at Build().
  std::unordered_map<std::string, std::uint32_t> group_ids_;
  std::vector<std::string> group_keys_;
  std::vector<std::string> group_profiles_;
  std::vector<Status> group_profile_status_;
  // Group of the previous call: Intern checks it before the hash lookup.
  std::uint32_t last_group_ = 0;
  std::vector<Run> runs_;
  std::size_t row_count_ = 0;
  PooledBuffer staging_;
};

}  // namespace bagcpd

#endif  // BAGCPD_BATCH_BATCH_TABLE_H_
