#ifndef ST4ML_SELECTION_SELECT_QUERY_H_
#define ST4ML_SELECTION_SELECT_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "index/stbox.h"

namespace st4ml {

/// The ONE spelling of a selection predicate. Before this type existed the
/// same predicate was threaded positionally through three slightly different
/// shapes — `Selector`'s STBox constructor argument, the CLI tools'
/// --mbr/--time flag pair, and the server's `select` JSON verb — and none of
/// them could ask for a record by id at all. Every entry point now constructs
/// a SelectQuery and every consumer (the Selector's plans, the st4mld
/// verbs) reads the same struct.
///
/// Semantics:
///  - `box` is the closed-interval ST predicate, exactly STBox::Intersects
///    against each record's ComputeSTBox() envelope. EverythingBox() (the
///    FromIds default) matches every record with a valid envelope.
///  - `ids`, when `has_ids` is set, restricts matches to records whose id is
///    in the set (sorted + deduplicated by SetIds, so MatchesId is a binary
///    search). Id and box predicates compose with AND.
///  - `limit` / `count_only` are RESPONSE shaping, not selection predicates:
///    they never change which records match. The Selector applies them per
///    file, on every plan: `count_only` keeps no record, and `limit` >= 0
///    keeps each file's `limit` lowest matches by (id, position), in
///    position order, so the per-file fill stays byte-identical across
///    plans and backends. The match count is in SelectorStats; the entry
///    point orders the kept rows by id and takes the first `limit`.
///    Negative limit means unlimited.
struct SelectQuery {
  STBox box;
  std::vector<int64_t> ids;  // sorted, deduplicated; consulted iff has_ids
  bool has_ids = false;
  int64_t limit = -1;  // < 0: unlimited
  bool count_only = false;

  /// A box every valid record envelope intersects. The time extent stays at
  /// a quarter of the int64 range so code that subtracts interval endpoints
  /// (Duration::Seconds) cannot overflow on a query box.
  static STBox EverythingBox() {
    const double dmax = std::numeric_limits<double>::max();
    const int64_t tmax = std::numeric_limits<int64_t>::max() / 4;
    return STBox(Mbr(-dmax, -dmax, dmax, dmax), Duration(-tmax, tmax));
  }

  static SelectQuery FromBox(const STBox& box) {
    SelectQuery query;
    query.box = box;
    return query;
  }

  /// Id-only lookup: the box defaults to EverythingBox, so the ST predicate
  /// never rejects; callers may still tighten `box` afterwards.
  static SelectQuery FromIds(std::vector<int64_t> ids) {
    SelectQuery query;
    query.box = EverythingBox();
    query.SetIds(std::move(ids));
    return query;
  }

  /// Installs the id set (sorted + deduplicated). An EMPTY set with has_ids
  /// set matches nothing — distinct from no id predicate at all.
  void SetIds(std::vector<int64_t> id_set) {
    std::sort(id_set.begin(), id_set.end());
    id_set.erase(std::unique(id_set.begin(), id_set.end()), id_set.end());
    ids = std::move(id_set);
    has_ids = true;
  }

  bool MatchesId(int64_t id) const {
    if (!has_ids) return true;
    return std::binary_search(ids.begin(), ids.end(), id);
  }
};

}  // namespace st4ml

#endif  // ST4ML_SELECTION_SELECT_QUERY_H_
