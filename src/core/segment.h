// SPDX-License-Identifier: MIT
//
// One encoding round ("segment") of the structured Eq. (8) code, shared by
// both protocol engines (sim/fault_tolerant_protocol.h, net/driver.h) and
// the journal restore. The base deployment is segment 0; every recovery,
// guard or hedge round re-encodes data rows of A with FRESH pads and adds
// one more. Def. 2 ITS must then hold for each device's CUMULATIVE view:
// reusing a pad would let (old row − new row) cancel it and expose data.

#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "allocation/device.h"
#include "coding/encoder.h"
#include "coding/encoding_matrix.h"
#include "coding/lcec.h"
#include "coding/security_check.h"
#include "common/error.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "recovery/journal.h"

namespace scec {

// Where the subtraction A_p·x = y[r+p] − y[p mod r] of data position p
// reads its operands: (slot, offset within the slot's block).
struct DecodePath {
  size_t mixed_slot = 0;
  size_t mixed_offset = 0;
  size_t pad_slot = 0;
  size_t pad_offset = 0;
};

// Data rows (`data_rows[p]` is the row of A at position p), code, scheme,
// slot -> fleet device map, and every position's decode path.
class SegmentShape {
 public:
  // The engine's own plan: a malformed shape is a programming error.
  SegmentShape(std::vector<size_t> data_rows, StructuredCode code,
               LcecScheme scheme, std::vector<size_t> phys);

  // A shape read from untrusted bytes (a journal record): any violation,
  // including a device >= fleet_size or a row >= num_data_rows, is a
  // kDecodeFailure, never an abort.
  static Result<SegmentShape> FromRecord(
      const recovery::JournalSegmentRecord& record, size_t fleet_size,
      size_t num_data_rows);

  const std::vector<size_t>& data_rows() const { return data_rows_; }
  const StructuredCode& code() const { return code_; }
  const LcecScheme& scheme() const { return scheme_; }
  const std::vector<size_t>& phys() const { return phys_; }
  size_t num_slots() const { return phys_.size(); }
  const DecodePath& path(size_t p) const { return paths_[p]; }

  // Calls fn(p, A_p·x) for every position whose mixed and pad slots both
  // answered; `answer(slot)` is the slot's verified response or nullptr.
  template <typename AnswerFn, typename Fn>
  void ForEachDecodable(const AnswerFn& answer, const Fn& fn) const {
    for (size_t p = 0; p < paths_.size(); ++p) {
      const DecodePath& path = paths_[p];
      const std::vector<double>* mixed = answer(path.mixed_slot);
      const std::vector<double>* pad = answer(path.pad_slot);
      if (mixed == nullptr || pad == nullptr) continue;
      fn(p, (*mixed)[path.mixed_offset] - (*pad)[path.pad_offset]);
    }
  }

  // Fills each still-missing (*decoded)[data_rows[p]] the answers yield;
  // returns how many it filled.
  template <typename AnswerFn>
  size_t DecodeInto(const AnswerFn& answer,
                    std::vector<std::optional<double>>* decoded) const {
    size_t count = 0;
    ForEachDecodable(answer, [&](size_t p, double value) {
      std::optional<double>& out = (*decoded)[data_rows_[p]];
      if (out.has_value()) return;
      out = value;
      ++count;
    });
    return count;
  }

 private:
  std::vector<size_t> data_rows_;
  StructuredCode code_;
  LcecScheme scheme_;
  std::vector<size_t> phys_;
  std::vector<DecodePath> paths_;
};

// Rows of A that `decoded` does not hold yet, ascending.
std::vector<size_t> MissingRows(
    const std::vector<std::optional<double>>& decoded);

// Every coefficient row each fleet device was sent, over the extended basis
// [A | pads of every segment], for the cumulative Def. 2 check.
class CumulativeViewLedger {
 public:
  CumulativeViewLedger(size_t m, size_t fleet_size);

  // Adds the segment's rows to its devices' views; its r pads take the next
  // r pad columns. Record a segment before shipping any share: if a later
  // slot fails to stage, earlier slots' devices already hold their rows.
  void Record(const SegmentShape& segment);

  // Exact GF(2^61−1) rank check per device; devices[d] is fleet device d.
  SchemeSecurityReport Verify() const;

  size_t rows_held(size_t device) const { return views_[device].size(); }
  size_t pad_columns() const { return pad_columns_; }

 private:
  struct CoefficientRow {
    std::optional<size_t> data_row;  // absent for a pure pad row
    size_t pad_col = 0;
  };
  size_t m_;
  size_t pad_columns_ = 0;
  std::vector<std::vector<CoefficientRow>> views_;  // per fleet device
};

// A freshly encoded segment: its shape plus one share per slot.
struct EncodedSegment {
  SegmentShape shape;
  std::vector<DeviceShare<double>> shares;
  double plan_cost = 0.0;  // Eq. (1) cost of a repair plan
};

// Re-plans `rows` with TA2 over the fleet devices `usable` accepts and
// re-encodes them with fresh pads. kInfeasible below 2 usable devices;
// otherwise the planner's or the scheme check's error, if any.
Result<EncodedSegment> BuildRepairSegment(
    const Matrix<double>& a, const std::vector<size_t>& rows,
    const DeviceFleet& fleet, const std::function<bool(size_t)>& usable,
    ChaCha20Rng& pads);

// Re-encodes the s `rows` with s fresh pads: pad block on `pad_device`,
// mixed block on `mixed_device` (Lemma 1: V = s <= r = s). Two devices,
// because one holding a pad and the row it masks could subtract them.
EncodedSegment BuildPairSegment(const Matrix<double>& a,
                                std::vector<size_t> rows, size_t pad_device,
                                size_t mixed_device, ChaCha20Rng& pads);

}  // namespace scec
