#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "hierarq/algebra/prob_monoid.h"
#include "hierarq/algebra/semirings.h"
#include "hierarq/core/pqe.h"
#include "hierarq/core/shapley.h"
#include "hierarq/data/loader.h"
#include "hierarq/incremental/delta_text.h"
#include "hierarq/query/parser.h"
#include "hierarq/workload/data_gen.h"

namespace hierarq::bench {

namespace {

// Sizes are per relation (R, S, T of the paper query); duplicates drawn
// by the generator are dropped, so relations land slightly smaller.
constexpr size_t kPointSmallTuples = 134;
constexpr size_t kPointSmallDomain = 40;
constexpr size_t kScanLargeTuples = 33334;
constexpr size_t kScanLargeDomain = 8000;
constexpr size_t kUpdateMixTuples = 1667;
constexpr size_t kUpdateMixDomain = 200;
constexpr size_t kShapleyExoDraws = 100;
constexpr int64_t kShapleyDomain = 20;
constexpr size_t kShapleyEndoPerRelation = 4;

/// Four hierarchical queries over R, S, T whose atoms share annotation
/// signatures, so one cached pool per annotator serves all of them.
const char* const kScanQueries[] = {
    kPaperQuery,
    "Q() :- R(A,B), S(A,C)",
    "Q() :- S(A,C), T(A,C,D)",
    "Q() :- R(A,B), T(A,C,D)",
};

std::string RenderFact(const Fact& fact, const Dictionary& dict) {
  std::string out = fact.relation + "(";
  for (size_t i = 0; i < fact.tuple.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += dict.Render(fact.tuple[i]);
  }
  return out + ")";
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) {
    return Status::Internal("cannot write " + path);
  }
  return Status::OK();
}

std::string TidText(const TidDatabase& tid, const Dictionary& dict) {
  std::string text;
  char weight[40];
  for (const auto& [fact, p] : tid.AllFacts()) {
    std::snprintf(weight, sizeof(weight), " @ %.17g\n", p);
    text += RenderFact(fact, dict);
    text += weight;
  }
  return text;
}

std::string FactsText(const Database& db, const Dictionary& dict) {
  std::string text;
  for (const Fact& fact : db.AllFacts()) {
    text += RenderFact(fact, dict);
    text += '\n';
  }
  return text;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Result<QueryCase> TidCase(const std::string& text, net::SolverKind solver,
                          const TidDatabase& tid) {
  HIERARQ_ASSIGN_OR_RETURN(const ConjunctiveQuery query, ParseQuery(text));
  QueryCase c{text, solver, 0, 0.0, {}};
  if (solver == net::SolverKind::kCount) {
    Evaluator evaluator;
    HIERARQ_ASSIGN_OR_RETURN(
        c.count, evaluator.Evaluate(query, CountMonoid(), tid.facts(),
                                    [](const Fact&) -> uint64_t { return 1; }));
  } else {
    HIERARQ_ASSIGN_OR_RETURN(c.probability, EvaluateProbability(query, tid));
  }
  return c;
}

/// A TID workload: generate, write `dir`/db.tid, load it back.
Status PrepareTid(WorkloadData* data, uint64_t seed, size_t tuples,
                  size_t domain, const std::string& dir) {
  Rng rng(seed);
  DataGenOptions gen;
  gen.tuples_per_relation = tuples;
  gen.domain_size = domain;
  const TidDatabase generated =
      RandomTidForQuery(ParseQueryOrDie(kPaperQuery), rng, gen);
  data->db_path = dir + "/db.tid";
  HIERARQ_RETURN_NOT_OK(
      WriteText(data->db_path, TidText(generated, data->dict)));
  const auto start = std::chrono::steady_clock::now();
  HIERARQ_ASSIGN_OR_RETURN(data->tid,
                           LoadTidDatabaseFromFile(data->db_path, &data->dict));
  data->load_s = SecondsSince(start);
  data->server_args = {"--db=" + data->db_path, "--tid"};
  return Status::OK();
}

/// shapley_small: R facts only at A < 10 and T facts only at A >= 10 in
/// the exogenous part, so Q is false on it and the endogenous facts —
/// R at A >= 10, T at A < 10, and S anywhere — decide it. Every Shapley
/// value then depends on the data instead of being zero.
Status PrepareShapley(WorkloadData* data, uint64_t seed,
                      const std::string& dir) {
  Rng rng(seed);
  const auto draw = [&rng](int64_t lo, int64_t hi) {
    return static_cast<Value>(rng.UniformInt(lo, hi - 1));
  };
  const int64_t half = kShapleyDomain / 2;
  Database exo;
  for (size_t i = 0; i < kShapleyExoDraws; ++i) {
    exo.AddFactOrDie("R", MakeTuple({draw(0, half), draw(0, kShapleyDomain)}));
    exo.AddFactOrDie("S", MakeTuple({draw(0, kShapleyDomain),
                                     draw(0, kShapleyDomain)}));
    exo.AddFactOrDie("T", MakeTuple({draw(half, kShapleyDomain),
                                     draw(0, kShapleyDomain),
                                     draw(0, kShapleyDomain)}));
  }
  Database endo;
  const auto add_endo = [&](const std::string& relation, auto make) {
    size_t added = 0;
    while (added < kShapleyEndoPerRelation) {
      const Tuple tuple = make();
      if (!exo.ContainsFact(relation, tuple) &&
          endo.AddFactOrDie(relation, tuple)) {
        ++added;
      }
    }
  };
  add_endo("R", [&] {
    return MakeTuple({draw(half, kShapleyDomain), draw(0, kShapleyDomain)});
  });
  add_endo("S", [&] {
    return MakeTuple({draw(0, kShapleyDomain), draw(0, kShapleyDomain)});
  });
  add_endo("T", [&] {
    return MakeTuple({draw(0, half), draw(0, kShapleyDomain),
                      draw(0, kShapleyDomain)});
  });

  data->db_path = dir + "/exo.facts";
  data->endo_path = dir + "/endo.facts";
  HIERARQ_RETURN_NOT_OK(WriteText(data->db_path, FactsText(exo, data->dict)));
  HIERARQ_RETURN_NOT_OK(
      WriteText(data->endo_path, FactsText(endo, data->dict)));
  const auto start = std::chrono::steady_clock::now();
  HIERARQ_ASSIGN_OR_RETURN(data->exogenous,
                           LoadDatabaseFromFile(data->db_path, &data->dict));
  HIERARQ_ASSIGN_OR_RETURN(data->endogenous,
                           LoadDatabaseFromFile(data->endo_path, &data->dict));
  data->load_s = SecondsSince(start);
  data->server_args = {"--db=" + data->db_path, "--endo=" + data->endo_path};

  QueryCase c{kPaperQuery, net::SolverKind::kShapley, 0, 0.0, {}};
  HIERARQ_ASSIGN_OR_RETURN(
      const auto values,
      AllShapleyValues(ParseQueryOrDie(kPaperQuery), data->exogenous,
                       data->endogenous));
  for (const auto& [fact, fraction] : values) {
    c.shapley.emplace_back(RenderFact(fact, data->dict), fraction.ToString());
  }
  std::sort(c.shapley.begin(), c.shapley.end());
  data->cases.push_back(std::move(c));
  return Status::OK();
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"point_small", 20.0, 2, false},
      {"scan_large", 30.0, 1, false},
      {"update_mix", 20.0, 0, true},
      {"shapley_small", 20.0, 2, false},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

bool SameProbability(double expected, double got) {
  return std::fabs(got - expected) <=
         1e-9 * std::max(std::fabs(expected), 1e-300);
}

bool Matches(const QueryCase& expected, const net::QueryResult& result) {
  if (result.solver != expected.solver) {
    return false;
  }
  switch (expected.solver) {
    case net::SolverKind::kCount:
      return result.count == expected.count;
    case net::SolverKind::kPqe:
      return SameProbability(expected.probability, result.number);
    case net::SolverKind::kShapley: {
      std::vector<std::pair<std::string, std::string>> got;
      got.reserve(result.shapley.size());
      for (const net::ShapleyEntry& entry : result.shapley) {
        got.emplace_back(entry.fact, entry.fraction);
      }
      std::sort(got.begin(), got.end());
      return got == expected.shapley;
    }
    default:
      return false;
  }
}

Result<WorkloadData> PrepareWorkload(const WorkloadSpec& spec, uint64_t seed,
                                     const std::string& dir) {
  WorkloadData data;
  const std::string name = spec.name;
  if (name == "shapley_small") {
    HIERARQ_RETURN_NOT_OK(PrepareShapley(&data, seed, dir));
    return data;
  }
  std::vector<const char*> queries = {kPaperQuery};
  if (name == "point_small") {
    HIERARQ_RETURN_NOT_OK(PrepareTid(&data, seed, kPointSmallTuples,
                                       kPointSmallDomain, dir));
  } else if (name == "scan_large") {
    HIERARQ_RETURN_NOT_OK(
        PrepareTid(&data, seed, kScanLargeTuples, kScanLargeDomain, dir));
    queries.assign(std::begin(kScanQueries), std::end(kScanQueries));
  } else {
    HIERARQ_RETURN_NOT_OK(
        PrepareTid(&data, seed, kUpdateMixTuples, kUpdateMixDomain, dir));
  }
  for (const char* query : queries) {
    for (const net::SolverKind solver :
         {net::SolverKind::kCount, net::SolverKind::kPqe}) {
      HIERARQ_ASSIGN_OR_RETURN(QueryCase c, TidCase(query, solver, data.tid));
      data.cases.push_back(std::move(c));
    }
  }
  return data;
}

// -- update_mix --------------------------------------------------------

namespace {

uint64_t Pack(int64_t a, int64_t b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

}  // namespace

DeltaStream::DeltaStream(const TidDatabase& initial, uint64_t seed)
    : rng_(seed ^ 0x5eed0fde17a5ULL) {
  for (const Fact& fact : initial.facts().AllFacts()) {
    if (fact.relation == "R") {
      index_[Pack(fact.tuple[0], fact.tuple[1])] = present_.size();
      present_.emplace_back(fact.tuple[0], fact.tuple[1]);
    }
  }
}

std::string DeltaStream::NextLine() {
  constexpr int kOpsPerLine = 4;
  std::string line;
  char op[96];
  for (int i = 0; i < kOpsPerLine; ++i) {
    if (i > 0) {
      line += ';';
    }
    if (present_.empty() || rng_.Bernoulli(0.5)) {
      int64_t a = 0;
      int64_t b = 0;
      do {
        a = rng_.UniformInt(0, static_cast<int64_t>(kUpdateMixDomain) - 1);
        b = rng_.UniformInt(0, static_cast<int64_t>(kUpdateMixDomain) - 1);
      } while (index_.count(Pack(a, b)) != 0);
      index_[Pack(a, b)] = present_.size();
      present_.emplace_back(a, b);
      std::snprintf(op, sizeof(op), "+R(%lld,%lld)@0.%02lld",
                    static_cast<long long>(a), static_cast<long long>(b),
                    static_cast<long long>(rng_.UniformInt(5, 95)));
    } else {
      const size_t slot = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(present_.size()) - 1));
      const auto [a, b] = present_[slot];
      index_.erase(Pack(a, b));
      if (slot + 1 != present_.size()) {
        present_[slot] = present_.back();
        index_[Pack(present_[slot].first, present_[slot].second)] = slot;
      }
      present_.pop_back();
      std::snprintf(op, sizeof(op), "-R(%lld,%lld)",
                    static_cast<long long>(a), static_cast<long long>(b));
    }
    line += op;
  }
  return line;
}

ReferenceReplay::ReferenceReplay(const std::string& tid_path)
    : query_(ParseQueryOrDie(kPaperQuery)) {
  Result<TidDatabase> loaded = LoadTidDatabaseFromFile(tid_path, &dict_);
  if (!loaded.ok()) {
    status_ = loaded.status();
    return;
  }
  db_ = VersionedDatabase(*loaded);
}

Status ReferenceReplay::AdvanceTo(const std::vector<std::string>& lines,
                                  uint64_t generation) {
  while (db_.generation() < generation) {
    if (db_.generation() >= lines.size()) {
      return Status::Internal("no delta line for generation " +
                              std::to_string(db_.generation() + 1));
    }
    HIERARQ_ASSIGN_OR_RETURN(
        const DeltaBatch batch,
        ParseDeltaLine(lines[db_.generation()], &dict_, db_, &query_));
    db_.Apply(batch);
    db_.TruncateLog(db_.generation());
  }
  return Status::OK();
}

Result<QueryCase> ReferenceReplay::Answer(net::SolverKind solver) {
  QueryCase c{kPaperQuery, solver, 0, 0.0, {}};
  if (solver == net::SolverKind::kCount) {
    HIERARQ_ASSIGN_OR_RETURN(
        c.count,
        evaluator_.Evaluate(query_, CountMonoid(), db_.facts(),
                            [](const Fact&) -> uint64_t { return 1; }));
  } else {
    HIERARQ_ASSIGN_OR_RETURN(
        c.probability,
        evaluator_.Evaluate(query_, ProbMonoid(), db_.facts(),
                            [this](const Fact& fact) {
                              return std::clamp(db_.WeightOf(fact), 0.0, 1.0);
                            }));
  }
  return c;
}

}  // namespace hierarq::bench
