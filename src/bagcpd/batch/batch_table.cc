#include "bagcpd/batch/batch_table.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

namespace bagcpd {
namespace {

// Total order on two equal-length value rows via their IEEE-754 bit patterns.
// Bit patterns (rather than operator<) keep the comparator a strict weak
// ordering even if a row carries NaN, and any fixed total order suffices: the
// canonical layout only needs to be a pure function of the row multiset.
int CompareValues(const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t ua, ub;
    std::memcpy(&ua, &a[i], sizeof(ua));
    std::memcpy(&ub, &b[i], sizeof(ub));
    if (ua != ub) return ua < ub ? -1 : 1;
  }
  return 0;
}

}  // namespace

BatchTableBuilder::BatchTableBuilder(BufferArena* arena) : arena_(arena) {
  staging_ = PooledBuffer::AcquireFrom(arena_, 0);
}

void BatchTableBuilder::Reserve(std::size_t rows, std::size_t dim) {
  rows_.reserve(rows);
  staging_.vec().reserve(rows * dim);
}

Status BatchTableBuilder::AddRow(const std::string& key, std::int64_t timestamp,
                                 PointView point, const std::string& profile) {
  if (key.empty()) {
    return Status::Invalid("BatchTableBuilder: row key must be non-empty");
  }
  if (point.empty()) {
    return Status::Invalid("BatchTableBuilder: row for key '" + key +
                           "' has a zero-dimensional point");
  }
  // Rows of one key tend to arrive in runs (a bag's points, a per-key file
  // section), so the previous row's group is tried before the hash lookup.
  std::uint32_t group = last_group_;
  if (group >= group_keys_.size() || key != group_keys_[group]) {
    auto it = group_ids_.find(key);
    if (it == group_ids_.end()) {
      group = static_cast<std::uint32_t>(group_keys_.size());
      group_ids_.emplace(key, group);
      group_keys_.push_back(key);
      group_profiles_.push_back(profile);
      group_profile_status_.push_back(Status::OK());
    } else {
      group = it->second;
    }
    last_group_ = group;
  }
  if (group_profile_status_[group].ok() && profile != group_profiles_[group]) {
    group_profile_status_[group] = Status::Invalid(
        "group '" + key + "' carries conflicting profiles '" +
        group_profiles_[group] + "' and '" + profile + "'");
  }
  RowRef row;
  row.group = group;
  row.dim = static_cast<std::uint32_t>(point.size());
  row.timestamp = timestamp;
  row.value_begin = staging_.vec().size();
  rows_.push_back(row);
  staging_.vec().insert(staging_.vec().end(), point.begin(), point.end());
  return Status::OK();
}

BatchTable BatchTableBuilder::Build() {
  BatchTable table;
  const std::size_t num_groups = group_keys_.size();
  const std::size_t num_rows = rows_.size();

  // Canonical group order: by key. rank[old_id] -> position in the table.
  std::vector<std::uint32_t> by_key(num_groups);
  std::iota(by_key.begin(), by_key.end(), 0u);
  std::sort(by_key.begin(), by_key.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return group_keys_[a] < group_keys_[b];
            });
  std::vector<std::uint32_t> rank(num_groups);
  for (std::size_t i = 0; i < num_groups; ++i) rank[by_key[i]] = i;

  // Canonical row order: (group rank, timestamp, dim, value bit patterns).
  // Rows that tie on all four are identical, so the order is a pure function
  // of the multiset of appended rows regardless of append order. It is built
  // in three passes, each touching only what the previous one left unequal.
  //
  // Pass 1: stable counting sort of row indices by group rank.
  // group_begin[g] .. group_begin[g + 1] is group g's run of `order`.
  std::vector<std::size_t> group_begin(num_groups + 1, 0);
  for (const RowRef& row : rows_) ++group_begin[rank[row.group] + 1];
  std::partial_sum(group_begin.begin(), group_begin.end(), group_begin.begin());
  std::vector<std::size_t> order(num_rows);
  {
    std::vector<std::size_t> cursor(group_begin.begin(), group_begin.end() - 1);
    for (std::size_t r = 0; r < num_rows; ++r) {
      order[cursor[rank[rows_[r].group]]++] = r;
    }
  }

  // Pass 2: each group's run into timestamp order. Time-major logs and
  // canonical files already are, so the run is only checked. The sort need
  // not be stable: pass 3 fully orders each step, and rows it leaves tied
  // are byte-identical.
  const auto by_time = [&](std::size_t a, std::size_t b) {
    return rows_[a].timestamp < rows_[b].timestamp;
  };
  std::size_t num_steps = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const auto first = order.begin() + group_begin[g];
    const auto last = order.begin() + group_begin[g + 1];
    if (!std::is_sorted(first, last, by_time)) std::sort(first, last, by_time);
    for (auto it = first; it != last; ++it) {
      num_steps += it == first ||
                   rows_[*it].timestamp != rows_[*(it - 1)].timestamp;
    }
  }

  table.groups_.resize(num_groups);
  if (num_rows > 0) {
    table.step_timestamps_.resize(num_steps);
    table.step_row_begin_.resize(num_steps + 1);
    table.row_value_begin_.resize(num_rows + 1);
  }
  table.values_ = PooledBuffer::AcquireFrom(arena_, staging_.vec().size());
  std::vector<double>& values = table.values_.vec();
  values.resize(staging_.vec().size());

  // Pass 3: each step's bag into (dim, values) order on small contiguous
  // keys — dim and the first value's bits — reading the remaining values
  // only on a tie; then the rows are emitted. Rows that tie on all values
  // are byte-identical, so their relative order does not matter.
  const double* staged = staging_.vec().data();
  struct StepKey {
    std::uint32_t dim;
    std::uint64_t first;
    std::size_t row;
  };
  const auto by_values = [&](const StepKey& a, const StepKey& b) {
    if (a.dim != b.dim) return a.dim < b.dim;
    if (a.first != b.first) return a.first < b.first;
    const int c = CompareValues(staged + rows_[a.row].value_begin + 1,
                                staged + rows_[b.row].value_begin + 1,
                                a.dim - 1);
    return c < 0;
  };
  std::vector<StepKey> keys;
  std::size_t step_out = 0;
  std::size_t row_out = 0;
  std::size_t value_out = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    BatchTable::Group& group = table.groups_[g];
    const std::uint32_t old_id = by_key[g];
    group.key = std::move(group_keys_[old_id]);
    group.profile = std::move(group_profiles_[old_id]);
    group.status = group_profile_status_[old_id];
    group.step_begin = step_out;
    group.row_begin = row_out;
    for (std::size_t s = group_begin[g]; s < group_begin[g + 1];) {
      const std::int64_t timestamp = rows_[order[s]].timestamp;
      std::size_t e = s + 1;
      while (e < group_begin[g + 1] && rows_[order[e]].timestamp == timestamp) {
        ++e;
      }
      if (e - s > 1) {
        keys.clear();
        for (std::size_t i = s; i < e; ++i) {
          const RowRef& row = rows_[order[i]];
          StepKey key;
          key.dim = row.dim;
          std::memcpy(&key.first, staged + row.value_begin, sizeof(key.first));
          key.row = order[i];
          keys.push_back(key);
        }
        std::sort(keys.begin(), keys.end(), by_values);
        for (std::size_t i = s; i < e; ++i) order[i] = keys[i - s].row;
      }
      table.step_timestamps_[step_out] = timestamp;
      table.step_row_begin_[step_out] = row_out;
      ++step_out;
      for (; s < e; ++s) {
        const RowRef& row = rows_[order[s]];
        if (row_out == group.row_begin) group.dim = row.dim;
        if (row.dim != group.dim && group.status.ok()) {
          group.status = Status::Invalid(
              "group '" + group.key + "' has ragged point dimensions (" +
              std::to_string(group.dim) + " vs " + std::to_string(row.dim) +
              ")");
        }
        table.row_value_begin_[row_out++] = value_out;
        std::memcpy(values.data() + value_out, staged + row.value_begin,
                    row.dim * sizeof(double));
        value_out += row.dim;
      }
    }
    group.step_end = step_out;
    group.row_end = row_out;
    // A ragged group has no single dimension; report 0 so callers cannot
    // build a bogus rectangular view from it.
    if (!group.status.ok()) group.dim = 0;
  }
  if (num_rows > 0) {
    table.step_row_begin_[num_steps] = row_out;
    table.row_value_begin_[num_rows] = value_out;
  }

  // Reset for reuse.
  group_ids_.clear();
  group_keys_.clear();
  group_profiles_.clear();
  group_profile_status_.clear();
  last_group_ = 0;
  rows_.clear();
  staging_ = PooledBuffer::AcquireFrom(arena_, 0);
  return table;
}

}  // namespace bagcpd
