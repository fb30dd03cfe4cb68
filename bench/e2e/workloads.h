#ifndef HIERARQ_BENCH_E2E_WORKLOADS_H_
#define HIERARQ_BENCH_E2E_WORKLOADS_H_

/// \file workloads.h
/// \brief The four benchmark workloads: their inputs, generated from the
/// seed, and the in-process reference answers every response is checked
/// against. README.md records why each workload exists.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hierarq/core/evaluator.h"
#include "hierarq/data/database.h"
#include "hierarq/data/tid_database.h"
#include "hierarq/data/value.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/net/wire.h"
#include "hierarq/query/query.h"
#include "hierarq/util/random.h"
#include "hierarq/util/result.h"

namespace hierarq::bench {

/// Eq. (1) of the paper.
inline constexpr const char* kPaperQuery = "Q() :- R(A,B), S(A,C), T(A,C,D)";

struct WorkloadSpec {
  const char* name;
  /// Measured window when the command line gives no --seconds.
  double default_seconds;
  /// Closed-loop connections, one load thread each.
  size_t closed_clients;
  /// The update_mix shape: one closed-loop writer of delta lines plus
  /// one open-loop reader, against a server with --data-dir.
  bool updates;
};

const std::vector<WorkloadSpec>& AllWorkloads();
/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// One request a load thread sends, with the answer it must get back.
struct QueryCase {
  std::string query;
  net::SolverKind solver = net::SolverKind::kCount;
  uint64_t count = 0;        ///< kCount answer.
  double probability = 0.0;  ///< kPqe answer.
  /// kShapley answer: (rendered fact, exact fraction), sorted.
  std::vector<std::pair<std::string, std::string>> shapley;
};

/// Counts and Shapley fractions must match exactly; probabilities within
/// 1e-9 relative.
bool Matches(const QueryCase& expected, const net::QueryResult& result);
bool SameProbability(double expected, double got);

/// Everything one run of a workload is made of.
struct WorkloadData {
  /// Server flags naming the generated files (--db, --tid, --endo).
  std::vector<std::string> server_args;
  /// The request mix, with reference answers; load threads cycle it.
  std::vector<QueryCase> cases;
  /// The in-process copy of the server's database, loaded from the same
  /// files. `tid` for the TID workloads; `exogenous` + `endogenous` for
  /// shapley_small.
  Dictionary dict;
  TidDatabase tid;
  Database exogenous;
  Database endogenous;
  std::string db_path;
  std::string endo_path;
  /// Seconds the in-process load of the generated files took.
  double load_s = 0.0;
};

/// Generates the workload's database from `seed` into files under
/// `dir`, loads them back in-process, and computes every reference
/// answer.
Result<WorkloadData> PrepareWorkload(const WorkloadSpec& spec, uint64_t seed,
                                     const std::string& dir);

/// The update_mix writer's delta lines: four ops each, insert or delete
/// of an `R` fact with equal odds. Inserts pick a fact not present,
/// deletes a fact present, so every op changes the database.
class DeltaStream {
 public:
  DeltaStream(const TidDatabase& initial, uint64_t seed);
  std::string NextLine();

 private:
  Rng rng_;
  std::vector<std::pair<int64_t, int64_t>> present_;
  std::unordered_map<uint64_t, size_t> index_;  ///< Packed fact → slot.
};

/// A reference copy of the update_mix database that replays acked delta
/// lines in order and answers count and pqe of the paper query at its
/// current generation.
class ReferenceReplay {
 public:
  explicit ReferenceReplay(const std::string& tid_path);
  Status status() const { return status_; }
  uint64_t generation() const { return db_.generation(); }
  /// Applies `lines[generation()]`, one line per generation, until the
  /// reference stands at `generation`.
  Status AdvanceTo(const std::vector<std::string>& lines, uint64_t generation);
  /// The reference answer of `solver` (kCount or kPqe) now.
  Result<QueryCase> Answer(net::SolverKind solver);

 private:
  Status status_;
  Dictionary dict_;
  VersionedDatabase db_;
  ConjunctiveQuery query_;
  Evaluator evaluator_;
};

}  // namespace hierarq::bench

#endif  // HIERARQ_BENCH_E2E_WORKLOADS_H_
