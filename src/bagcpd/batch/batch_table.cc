#include "bagcpd/batch/batch_table.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

namespace bagcpd {
namespace {

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Total order on two equal-length value rows via their IEEE-754 bit patterns.
// Bit patterns (rather than operator<) keep the comparator a strict weak
// ordering even if a row carries NaN, and any fixed total order suffices: the
// canonical layout only needs to be a pure function of the row multiset.
int CompareValues(const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ua = Bits(a[i]);
    const std::uint64_t ub = Bits(b[i]);
    if (ua != ub) return ua < ub ? -1 : 1;
  }
  return 0;
}

// A step of at most kNetworkRows rows of one dimension is sorted on one word
// per row: its first value's bits with the low kIndexBits replaced by the
// row's index in the step. Words order rows by their first value's high bits
// and then by index, so only rows whose first values share those high bits
// can come out of order; StepSorter re-sorts exactly such runs.
constexpr unsigned kIndexBits = 6;
constexpr std::size_t kNetworkRows = std::size_t{1} << kIndexBits;
constexpr std::uint64_t kIndexMask = kNetworkRows - 1;

// Batcher's odd-even merge sorting network for the next power of two >= n,
// as (low, high) index pairs, without the comparators that touch an index
// >= n: padding the input with maximal words would leave those idle.
std::vector<std::uint8_t> OddEvenMergeNetwork(std::size_t n) {
  std::size_t size = 1;
  while (size < n) size *= 2;
  std::vector<std::uint8_t> pairs;
  for (std::size_t p = 1; p < size; p *= 2) {
    for (std::size_t k = p; k >= 1; k /= 2) {
      for (std::size_t j = k % p; j + k < size; j += 2 * k) {
        for (std::size_t i = 0; i < k && i + j + k < n; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            pairs.push_back(static_cast<std::uint8_t>(i + j));
            pairs.push_back(static_cast<std::uint8_t>(i + j + k));
          }
        }
      }
    }
  }
  return pairs;
}

// Sorts the rows of steps of one dimension and at most kNetworkRows rows.
// A comparator of the network is a min and a max of two integers, which
// compile to conditional moves: unlike std::sort, the kernel takes no branch
// that depends on the values, so random bags cost no mispredictions.
class StepSorter {
 public:
  // Reorders rows[0, n), each pointing at `dim` values, into value-bit order.
  void Sort(const double** rows, std::size_t n, std::size_t dim) {
    std::uint64_t words[kNetworkRows];
    for (std::size_t i = 0; i < n; ++i) {
      words[i] = (Bits(rows[i][0]) & ~kIndexMask) | i;
    }
    std::vector<std::uint8_t>& network = networks_[n];
    if (network.empty()) network = OddEvenMergeNetwork(n);
    for (std::size_t c = 0; c < network.size(); c += 2) {
      const std::size_t lo = network[c];
      const std::size_t hi = network[c + 1];
      const std::uint64_t a = words[lo];
      const std::uint64_t b = words[hi];
      words[lo] = a < b ? a : b;
      words[hi] = a < b ? b : a;
    }
    // Runs that tie on the high bits are ordered by index so far.
    bool tied = false;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      tied |= ((words[i] ^ words[i + 1]) >> kIndexBits) == 0;
    }
    if (tied) ResolveTies(words, rows, n, dim);
    const double* sorted[kNetworkRows];
    for (std::size_t i = 0; i < n; ++i) sorted[i] = rows[words[i] & kIndexMask];
    std::copy(sorted, sorted + n, rows);
  }

 private:
  // Orders each run of words sharing their high bits by the full values.
  static void ResolveTies(std::uint64_t* words, const double* const* rows,
                          std::size_t n, std::size_t dim) {
    const auto by_values = [&](std::uint64_t a, std::uint64_t b) {
      return CompareValues(rows[a & kIndexMask], rows[b & kIndexMask], dim) <
             0;
    };
    for (std::size_t a = 0; a + 1 < n;) {
      std::size_t b = a + 1;
      while (b < n && (words[b] >> kIndexBits) == (words[a] >> kIndexBits)) {
        ++b;
      }
      if (b - a > 1) std::sort(words + a, words + b, by_values);
      a = b;
    }
  }

  // networks_[n] is built on the first step of n rows.
  std::vector<std::uint8_t> networks_[kNetworkRows + 1];
};

}  // namespace

PointView BatchTable::row_values(std::size_t row) const {
  // The last group starting at or before `row`; every group has a row.
  const Group& group =
      *(std::upper_bound(groups_.begin(), groups_.end(), row,
                         [](std::size_t r, const Group& g) {
                           return r < g.row_begin;
                         }) -
        1);
  const double* values = values_.vec().data();
  const std::size_t i = row - group.row_begin;
  if (group.row_dim != 0) {
    return PointView(values + group.value_begin + i * group.row_dim,
                     group.row_dim);
  }
  const std::size_t* begin =
      ragged_value_begin_.data() + group.ragged_begin + i;
  return PointView(values + begin[0], begin[1] - begin[0]);
}

std::size_t BatchTable::retained_bytes() const {
  return groups_.capacity() * sizeof(Group) +
         step_timestamps_.capacity() * sizeof(std::int64_t) +
         step_row_begin_.capacity() * sizeof(std::size_t) +
         ragged_value_begin_.capacity() * sizeof(std::size_t) +
         values_.vec().capacity() * sizeof(double);
}

BatchTableBuilder::BatchTableBuilder(BufferArena* arena) : arena_(arena) {
  staging_ = PooledBuffer::AcquireFrom(arena_, 0);
}

void BatchTableBuilder::Reserve(std::size_t rows, std::size_t dim) {
  // One run per row at most; a run-structured input touches only a prefix.
  runs_.reserve(rows);
  staging_.vec().reserve(rows * dim);
}

std::uint32_t BatchTableBuilder::Intern(const std::string& key,
                                        const std::string& profile) {
  // Rows of one key tend to arrive in runs (a bag's points, a per-key file
  // section), so the previous call's group is tried before the hash lookup.
  std::uint32_t group = last_group_;
  if (group >= group_keys_.size() || key != group_keys_[group]) {
    const auto inserted = group_ids_.try_emplace(
        key, static_cast<std::uint32_t>(group_keys_.size()));
    group = inserted.first->second;
    if (inserted.second) {
      group_keys_.push_back(key);
      group_profiles_.push_back(profile);
      group_profile_status_.push_back(Status::OK());
    }
    last_group_ = group;
  }
  if (group_profile_status_[group].ok() && profile != group_profiles_[group]) {
    group_profile_status_[group] = Status::Invalid(
        "group '" + key + "' carries conflicting profiles '" +
        group_profiles_[group] + "' and '" + profile + "'");
  }
  return group;
}

void BatchTableBuilder::Append(std::uint32_t group, std::int64_t timestamp,
                               const double* values, std::size_t rows,
                               std::uint32_t dim) {
  std::vector<double>& staged = staging_.vec();
  if (!runs_.empty() && runs_.back().group == group &&
      runs_.back().timestamp == timestamp && runs_.back().dim == dim) {
    runs_.back().rows += rows;
  } else {
    Run run;
    run.group = group;
    run.dim = dim;
    run.timestamp = timestamp;
    run.value_begin = staged.size();
    run.rows = rows;
    runs_.push_back(run);
  }
  staged.insert(staged.end(), values, values + rows * dim);
  row_count_ += rows;
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
  Append(Intern(key, profile), timestamp, point.data(), 1,
         static_cast<std::uint32_t>(point.size()));
  return Status::OK();
}

Status BatchTableBuilder::AddRows(const std::vector<std::string>& keys,
                                  const std::uint32_t* group,
                                  const std::int64_t* timestamp,
                                  const double* values, std::size_t count,
                                  std::size_t dim, const std::string& profile) {
  if (dim == 0) {
    return Status::Invalid("BatchTableBuilder: rows have zero-dimensional "
                           "points");
  }
  // Validate before any row is appended, then look each used key up once.
  constexpr std::uint32_t kUnused = ~std::uint32_t{0};
  std::vector<std::uint32_t> ids(keys.size(), kUnused);
  for (std::size_t r = 0; r < count; ++r) {
    if (group[r] >= keys.size()) {
      return Status::Invalid("BatchTableBuilder: row " + std::to_string(r) +
                             " names group " + std::to_string(group[r]) +
                             " of " + std::to_string(keys.size()));
    }
    ids[group[r]] = 0;
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (ids[k] != kUnused && keys[k].empty()) {
      return Status::Invalid("BatchTableBuilder: row key must be non-empty");
    }
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (ids[k] != kUnused) ids[k] = Intern(keys[k], profile);
  }
  // The runs below append piecewise; size the staging buffer for all of
  // them at once, still growing geometrically over repeated calls.
  std::vector<double>& staged = staging_.vec();
  if (staged.capacity() - staged.size() < count * dim) {
    staged.reserve(std::max(staged.size() + count * dim, 2 * staged.capacity()));
  }
  // One append per run of rows sharing a group and a timestamp.
  for (std::size_t r = 0; r < count;) {
    std::size_t e = r + 1;
    while (e < count && group[e] == group[r] && timestamp[e] == timestamp[r]) {
      ++e;
    }
    Append(ids[group[r]], timestamp[r], values + r * dim, e - r,
           static_cast<std::uint32_t>(dim));
    r = e;
  }
  return Status::OK();
}

BatchTable BatchTableBuilder::Build() {
  BatchTable table;
  const std::size_t num_groups = group_keys_.size();
  const std::size_t num_runs = runs_.size();

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
  // of the multiset of appended rows regardless of append order. The first
  // two keys are settled on runs, each holding rows of one group, timestamp
  // and dim, so a bag appended whole moves as one entry.
  //
  // Pass 1: stable counting sort of run indices by group rank.
  // group_begin[g] .. group_begin[g + 1] is group g's span of `order`.
  std::vector<std::size_t> group_begin(num_groups + 1, 0);
  for (const Run& run : runs_) ++group_begin[rank[run.group] + 1];
  std::partial_sum(group_begin.begin(), group_begin.end(), group_begin.begin());
  std::vector<std::size_t> order(num_runs);
  {
    std::vector<std::size_t> cursor(group_begin.begin(), group_begin.end() - 1);
    for (std::size_t r = 0; r < num_runs; ++r) {
      order[cursor[rank[runs_[r].group]]++] = r;
    }
  }

  // Pass 2: each group's runs into timestamp order. Time-major logs and
  // canonical files already are, so the span is only checked. Runs with one
  // timestamp form a step, whose rows pass 3 fully orders, so the sort need
  // not be stable. The pass also finds the dim the group's rows share, or 0
  // when they differ: only such a ragged group stores per-row offsets.
  const auto by_time = [&](std::size_t a, std::size_t b) {
    return runs_[a].timestamp < runs_[b].timestamp;
  };
  table.groups_.resize(num_groups);
  std::size_t num_steps = 0;
  std::size_t num_ragged_offsets = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const auto first = order.begin() + group_begin[g];
    const auto last = order.begin() + group_begin[g + 1];
    if (!std::is_sorted(first, last, by_time)) std::sort(first, last, by_time);
    std::size_t row_dim = runs_[*first].dim;
    std::size_t rows = 0;
    for (auto it = first; it != last; ++it) {
      num_steps += it == first ||
                   runs_[*it].timestamp != runs_[*(it - 1)].timestamp;
      if (runs_[*it].dim != row_dim) row_dim = 0;
      rows += runs_[*it].rows;
    }
    table.groups_[g].row_dim = row_dim;
    if (row_dim == 0) num_ragged_offsets += rows + 1;
  }

  // The table's buffers are reserved at their final sizes, not zero-filled,
  // and written in order.
  const double* staged = staging_.vec().data();
  if (row_count_ > 0) {
    table.step_timestamps_.reserve(num_steps);
    table.step_row_begin_.reserve(num_steps + 1);
  }
  table.ragged_value_begin_.reserve(num_ragged_offsets);
  table.values_ = PooledBuffer::AcquireFrom(arena_, staging_.vec().size());
  std::vector<double>& values = table.values_.vec();
  std::vector<std::size_t>& ragged_value_begin = table.ragged_value_begin_;

  // Pass 3: each step's bag into (dim, values) order, then its rows are
  // emitted. A step of a group of one dim with at most kNetworkRows rows goes
  // through StepSorter; any other step is sorted on (dim, first value's bits)
  // keys that read the remaining values only on a tie. Rows that tie on all
  // values are byte-identical, so their relative order does not matter.
  struct StepKey {
    std::uint32_t dim;
    std::uint64_t first;
    const double* values;
  };
  const auto by_values = [](const StepKey& a, const StepKey& b) {
    if (a.dim != b.dim) return a.dim < b.dim;
    if (a.first != b.first) return a.first < b.first;
    return CompareValues(a.values + 1, b.values + 1, a.dim - 1) < 0;
  };
  StepSorter sorter;
  std::vector<StepKey> keys;
  const double* rows[kNetworkRows];
  std::size_t row = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    BatchTable::Group& group = table.groups_[g];
    const std::uint32_t old_id = by_key[g];
    group.key = std::move(group_keys_[old_id]);
    group.profile = std::move(group_profiles_[old_id]);
    group.status = group_profile_status_[old_id];
    // Only a profile conflict can have been recorded so far.
    group.profile_conflict = !group.status.ok();
    group.step_begin = table.step_timestamps_.size();
    group.row_begin = row;
    group.value_begin = values.size();
    group.ragged_begin = ragged_value_begin.size();
    const std::size_t row_dim = group.row_dim;
    // Dim of a ragged group's first row, which its message names.
    std::uint32_t first_dim = 0;
    for (std::size_t s = group_begin[g]; s < group_begin[g + 1];) {
      const Run& head = runs_[order[s]];
      std::size_t e = s + 1;
      std::size_t step_rows = head.rows;
      for (; e < group_begin[g + 1] &&
             runs_[order[e]].timestamp == head.timestamp;
           ++e) {
        step_rows += runs_[order[e]].rows;
      }
      table.step_timestamps_.push_back(head.timestamp);
      table.step_row_begin_.push_back(row);
      row += step_rows;
      if (row_dim != 0 && step_rows <= kNetworkRows) {
        std::size_t n = 0;
        for (std::size_t i = s; i < e; ++i) {
          const Run& run = runs_[order[i]];
          const double* p = staged + run.value_begin;
          for (std::size_t r = 0; r < run.rows; ++r, p += row_dim) {
            rows[n++] = p;
          }
        }
        if (n > 1) sorter.Sort(rows, n, row_dim);
        // The step's slice is appended, then overwritten while in cache.
        const std::size_t at = values.size();
        values.resize(at + n * row_dim);
        double* out = values.data() + at;
        for (std::size_t i = 0; i < n; ++i) {
          std::copy_n(rows[i], row_dim, out + i * row_dim);
        }
      } else {
        keys.clear();
        for (std::size_t i = s; i < e; ++i) {
          const Run& run = runs_[order[i]];
          const double* p = staged + run.value_begin;
          for (std::size_t r = 0; r < run.rows; ++r, p += run.dim) {
            keys.push_back(StepKey{run.dim, Bits(p[0]), p});
          }
        }
        std::sort(keys.begin(), keys.end(), by_values);
        for (const StepKey& key : keys) {
          if (row_dim == 0) {
            if (first_dim == 0) first_dim = key.dim;
            if (key.dim != first_dim && group.status.ok()) {
              group.status = Status::Invalid(
                  "group '" + group.key + "' has ragged point dimensions (" +
                  std::to_string(first_dim) + " vs " +
                  std::to_string(key.dim) + ")");
            }
            ragged_value_begin.push_back(values.size());
          }
          values.insert(values.end(), key.values, key.values + key.dim);
        }
      }
      s = e;
    }
    if (row_dim == 0) ragged_value_begin.push_back(values.size());
    group.step_end = table.step_timestamps_.size();
    group.row_end = row;
  }
  if (row_count_ > 0) table.step_row_begin_.push_back(row);

  // Reset for reuse.
  group_ids_.clear();
  group_keys_.clear();
  group_profiles_.clear();
  group_profile_status_.clear();
  last_group_ = 0;
  runs_.clear();
  row_count_ = 0;
  staging_ = PooledBuffer::AcquireFrom(arena_, 0);
  return table;
}

}  // namespace bagcpd
