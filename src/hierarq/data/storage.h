#ifndef HIERARQ_DATA_STORAGE_H_
#define HIERARQ_DATA_STORAGE_H_

/// \file storage.h
/// \brief The storage-backend selector for `AnnotatedRelation`.
///
/// Two layouts implement the relation interface
/// (`Find`/`FindOrInsert`/`Merge`/`Reset`/`AssignFrom`):
///
///   * `kColumnar` — `ColumnarStore` (data/columnar.h): one value vector
///     per schema position plus a row-id hash index, so Rule 1
///     projections touch only the surviving columns. The default.
///   * `kBaseline` — `std::unordered_map<Tuple, K>`: the reference
///     implementation the differential suites check columnar against;
///     one heap node per fact, pointer-chasing probes.
///
/// The backend is a runtime property of each relation (threaded as an
/// engine option through `Evaluator`, `EvalService` and
/// `IncrementalEvaluator`), so reference runs need no rebuild.

namespace hierarq {

/// Which layout an `AnnotatedRelation` stores its support in.
enum class StorageKind : unsigned char {
  kBaseline,  ///< std::unordered_map reference backend.
  kColumnar,  ///< Column vectors + row-id hash index.
};

/// The backend relations default to.
inline constexpr StorageKind kDefaultStorageKind = StorageKind::kColumnar;

/// "baseline" / "columnar" — the per-step backend
/// in EXPLAIN and trace output, and the per-row storage tag in
/// BENCH_*.json.
const char* StorageKindName(StorageKind kind);

/// All backends, in enum order — the iteration axis of the cross-backend
/// differential tests and the per-backend bench emitters.
inline constexpr StorageKind kAllStorageKinds[] = {StorageKind::kBaseline,
                                                   StorageKind::kColumnar};

}  // namespace hierarq

#endif  // HIERARQ_DATA_STORAGE_H_
