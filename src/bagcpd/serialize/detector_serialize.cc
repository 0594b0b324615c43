// BagStreamDetector::ExportState / ImportState / CreateFromState — the
// detector half of the checkpoint subsystem. Lives in serialize/ (not core/)
// so the detector's own translation unit stays free of wire-format and
// api-spec concerns; these are ordinary member functions with full access to
// the private window/table/RNG state they freeze.
//
// Bitwise-restore invariants this file relies on (and the serialize/ tests
// pin):
//  * Checkpoints happen between pushes, where every EMD the scores need is
//    already folded into the rolling log table; that table is the detector's
//    only EMD store. A detector whose last step failed is half-advanced and
//    refuses to export.
//  * The rolling log-EMD table is stored in logical (p, q) position order
//    and rebased to table_base_ = 0 on import; the slot rotation is an
//    addressing detail, never observable in scores.
//  * The signature ring stores values only — stride and slot layout are
//    rebuilt by re-pushing, and a stride shrunk by the departure of an
//    outsized signature changes no view contents.
//  * EmdSolver scratch and the signature builder are stateless across pushes
//    (per-bag seeds derive from the bag index), so neither is serialized.

#include <algorithm>
#include <string>
#include <string_view>

#include "bagcpd/api/spec.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/serialize/checkpoint.h"
#include "bagcpd/serialize/wire.h"

namespace bagcpd {

using serialize::BlobKind;
using serialize::WireReader;
using serialize::WireWriter;

Status BagStreamDetector::ExportState(std::string* blob) const {
  BAGCPD_RETURN_NOT_OK(step_failure_);
  blob->clear();
  const std::size_t w = options_.tau + options_.tau_prime;
  WireWriter writer(blob);
  writer.BeginBlob(BlobKind::kDetector);

  writer.BeginSection(serialize::kSecSpec);
  writer.PutString(api::DetectorSpec::FromOptions(options_).ToKeyValues());
  writer.EndSection();

  writer.BeginSection(serialize::kSecRing);
  writer.PutU32(static_cast<std::uint32_t>(window_.dim()));
  writer.PutU32(static_cast<std::uint32_t>(window_.size()));
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const SignatureView sig = window_.view(i);
    writer.PutU32(static_cast<std::uint32_t>(sig.size()));
    writer.PutF64Array(sig.centers().data(), sig.size() * sig.dim());
    writer.PutF64Array(sig.weights().data(), sig.size());
  }
  writer.EndSection();

  writer.BeginSection(serialize::kSecTable);
  writer.PutU32(static_cast<std::uint32_t>(w));
  writer.PutU8(table_primed_ ? 1 : 0);
  // Logical (p, q) order: position p lives in physical slot
  // (table_base_ + p) % w. The import rebuilds the table with base 0.
  for (std::size_t p = 0; p < w; ++p) {
    const std::size_t sp = (table_base_ + p) % w;
    for (std::size_t q = 0; q < w; ++q) {
      writer.PutF64(log_table_[sp * w + (table_base_ + q) % w]);
    }
  }
  writer.EndSection();

  writer.BeginSection(serialize::kSecCounters);
  writer.PutU64(next_index_);
  writer.EndSection();

  writer.BeginSection(serialize::kSecHistory);
  writer.PutU32(static_cast<std::uint32_t>(upper_history_.size()));
  for (double v : upper_history_) writer.PutF64(v);
  writer.EndSection();

  writer.BeginSection(serialize::kSecRng);
  writer.PutString(rng_.SerializeState());
  writer.EndSection();

  writer.EndBlob();
  return Status::OK();
}

Status BagStreamDetector::ImportState(std::string_view blob) {
  BAGCPD_ASSIGN_OR_RETURN(WireReader reader,
                          serialize::OpenBlob(blob, BlobKind::kDetector));
  const std::size_t w = options_.tau + options_.tau_prime;

  // Phase 1 — locate and validate every section before touching any state,
  // so a bad blob can never leave the detector half-restored.
  std::string_view spec, ring, table, counters, history, rng_state;
  bool have_spec = false, have_ring = false, have_table = false;
  bool have_counters = false, have_history = false, have_rng = false;
  while (!reader.AtEnd()) {
    std::uint32_t tag = 0;
    std::string_view payload;
    BAGCPD_RETURN_NOT_OK(reader.NextSection(&tag, &payload));
    switch (tag) {
      case serialize::kSecSpec:
        spec = payload;
        have_spec = true;
        break;
      case serialize::kSecRing:
        ring = payload;
        have_ring = true;
        break;
      case serialize::kSecTable:
        table = payload;
        have_table = true;
        break;
      case serialize::kSecCounters:
        counters = payload;
        have_counters = true;
        break;
      case serialize::kSecHistory:
        history = payload;
        have_history = true;
        break;
      case serialize::kSecRng:
        rng_state = payload;
        have_rng = true;
        break;
      default:
        break;  // Unknown sections are forward-compatible extensions.
    }
  }
  if (!have_spec || !have_ring || !have_table || !have_counters ||
      !have_history || !have_rng) {
    return Status::IoError("detector blob is missing a required section");
  }

  // The spec gate: restoring into a detector with different result keys
  // would not crash, it would quietly produce different scores — exactly the
  // failure mode the bitwise-restore contract exists to prevent. Performance
  // keys (`emd-heap-at`) change speed only, so they may differ.
  std::string_view blob_spec;
  {
    WireReader section(spec);
    BAGCPD_RETURN_NOT_OK(section.ReadString(&blob_spec));
  }
  Result<api::DetectorSpec> exporter =
      api::DetectorSpec::FromKeyValues(std::string(blob_spec));
  if (!exporter.ok()) {
    return Status::Invalid("checkpoint options spec '" +
                           std::string(blob_spec) + "' does not parse: " +
                           exporter.status().message());
  }
  const api::DetectorSpec mine = api::DetectorSpec::FromOptions(options_);
  if (exporter->ResultKeyValues() != mine.ResultKeyValues()) {
    return Status::Invalid(
        "checkpoint options-spec mismatch: blob was exported from a detector "
        "configured as '" +
        std::string(blob_spec) + "' but this detector is '" +
        mine.ToKeyValues() + "'");
  }

  WireReader ring_reader(ring);
  std::uint32_t dim = 0, count = 0;
  BAGCPD_RETURN_NOT_OK(ring_reader.ReadU32(&dim));
  BAGCPD_RETURN_NOT_OK(ring_reader.ReadU32(&count));
  if (count > w) {
    return Status::IoError("detector blob window holds " +
                           std::to_string(count) + " signatures, capacity " +
                           std::to_string(w));
  }
  if (count > 0 && dim == 0) {
    return Status::IoError("detector blob window has dimension 0");
  }

  WireReader table_reader(table);
  std::uint32_t table_w = 0;
  std::uint8_t primed = 0;
  BAGCPD_RETURN_NOT_OK(table_reader.ReadU32(&table_w));
  BAGCPD_RETURN_NOT_OK(table_reader.ReadU8(&primed));
  if (table_w != w) {
    return Status::IoError("detector blob table is " + std::to_string(table_w) +
                           " wide, expected " + std::to_string(w));
  }

  WireReader counters_reader(counters);
  std::uint64_t next_index = 0;
  BAGCPD_RETURN_NOT_OK(counters_reader.ReadU64(&next_index));
  if (next_index < count) {
    return Status::IoError("detector blob counters are inconsistent: " +
                           std::to_string(count) + " buffered signatures but "
                           "only " + std::to_string(next_index) + " pushes");
  }

  WireReader history_reader(history);
  std::uint32_t history_n = 0;
  BAGCPD_RETURN_NOT_OK(history_reader.ReadU32(&history_n));
  if (history_n > options_.tau_prime) {
    return Status::IoError("detector blob alarm history holds " +
                           std::to_string(history_n) + " entries, at most " +
                           std::to_string(options_.tau_prime) + " possible");
  }

  Rng restored_rng(0);
  {
    WireReader section(rng_state);
    std::string_view text;
    BAGCPD_RETURN_NOT_OK(section.ReadString(&text));
    BAGCPD_RETURN_NOT_OK(restored_rng.DeserializeState(std::string(text)));
  }

  // Phase 2 — decode the bulk payloads into temporaries. A CRC-valid blob
  // can still be internally inconsistent (a slot count its ring payload does
  // not actually hold), and those reads must not leave the detector
  // half-restored: nothing below touches members until every read succeeded.
  SignatureRing restored_window(w);
  PooledBuffer staging;  // Slot staging recycles through the arena when set.
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t k = 0;
    BAGCPD_RETURN_NOT_OK(ring_reader.ReadU32(&k));
    if (k == 0) {
      return Status::IoError("detector blob window slot " + std::to_string(i) +
                             " is empty");
    }
    const std::size_t doubles = static_cast<std::size_t>(k) * (dim + 1);
    if (staging.vec().capacity() < doubles) {
      staging = PooledBuffer::AcquireFrom(arena_, doubles);
    }
    staging.vec().resize(doubles);
    double* base = staging.vec().data();
    BAGCPD_RETURN_NOT_OK(
        ring_reader.ReadF64Array(base, static_cast<std::size_t>(k) * dim));
    BAGCPD_RETURN_NOT_OK(
        ring_reader.ReadF64Array(base + static_cast<std::size_t>(k) * dim, k));
    restored_window.PushBack(SignatureView(
        base, base + static_cast<std::size_t>(k) * dim, k, dim));
  }
  std::vector<double> restored_table(w * w);
  BAGCPD_RETURN_NOT_OK(
      table_reader.ReadF64Array(restored_table.data(), w * w));
  std::deque<double> restored_history;
  for (std::uint32_t i = 0; i < history_n; ++i) {
    double v = 0.0;
    BAGCPD_RETURN_NOT_OK(history_reader.ReadF64(&v));
    restored_history.push_back(v);
  }

  // Phase 3 — commit. Reset() first so a failed step is cleared and the
  // solver scratch is back at its ceiling, exactly the between-pushes state
  // every export is taken from.
  Reset();
  window_ = std::move(restored_window);
  log_table_ = std::move(restored_table);
  table_base_ = 0;
  table_primed_ = primed != 0;
  next_index_ = next_index;
  upper_history_ = std::move(restored_history);
  rng_ = restored_rng;
  return Status::OK();
}

Result<std::unique_ptr<BagStreamDetector>> BagStreamDetector::CreateFromState(
    std::string_view blob) {
  BAGCPD_ASSIGN_OR_RETURN(std::string spec,
                          serialize::PeekDetectorSpec(blob));
  BAGCPD_ASSIGN_OR_RETURN(api::DetectorSpec parsed,
                          api::DetectorSpec::FromKeyValues(spec));
  BAGCPD_ASSIGN_OR_RETURN(DetectorOptions options, parsed.Build());
  BAGCPD_ASSIGN_OR_RETURN(std::unique_ptr<BagStreamDetector> detector,
                          Create(options));
  BAGCPD_RETURN_NOT_OK(detector->ImportState(blob));
  return detector;
}

std::size_t BagStreamDetector::EstimatedStateBytes() const {
  // mt19937_64 is 312 64-bit words plus the position; the text encoding the
  // blob actually carries is about 2.5x that, but the estimate tracks the
  // RESIDENT footprint (what spilling frees), not the file size.
  constexpr std::size_t kRngBytes = 313 * sizeof(std::uint64_t);
  return sizeof(*this) + window_.memory_bytes() +
         log_table_.capacity() * sizeof(double) +
         upper_history_.size() * sizeof(double) + kRngBytes;
}

}  // namespace bagcpd
