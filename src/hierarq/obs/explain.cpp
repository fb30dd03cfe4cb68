#include "hierarq/obs/explain.h"

#include <cstdio>
#include <map>

#include "hierarq/util/logging.h"

namespace hierarq::obs {

std::string FormatNs(double ns) {
  char buf[32];
  if (ns < 0) {
    return "?";
  }
  if (ns < 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", ns / 1e9);
  }
  return buf;
}

namespace {

/// The last observed execution of one step, plus how often it ran.
struct StepObservation {
  TraceStepArgs args;
  uint64_t dur_ns = 0;
  size_t runs = 0;
};

std::string AtomString(const EliminationPlan& plan,
                       const VariableTable& variables, size_t atom_id) {
  std::string s = plan.name_of(atom_id) + "(";
  const VarSet& vs = plan.vars_of(atom_id);
  for (size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) {
      s += ",";
    }
    s += variables.Name(vs[i]);
  }
  return s + ")";
}

/// The bracketed measurement suffix of one step line.
std::string StepDetails(const StepObservation* obs) {
  if (obs == nullptr || obs->runs == 0) {
    return "[not executed]";
  }
  const TraceStepArgs& a = obs->args;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "[backend=%s rows %llu -> %llu time=%s simd=%s",
                StorageKindName(a.backend),
                static_cast<unsigned long long>(a.rows_in),
                static_cast<unsigned long long>(a.rows_out),
                FormatNs(static_cast<double>(obs->dur_ns)).c_str(),
                simd::LevelName(a.simd));
  std::string out = buf;
  if (obs->runs > 1) {
    char runs[32];
    std::snprintf(runs, sizeof(runs), " x%zu runs, last shown", obs->runs);
    out += runs;
  }
  return out + "]";
}

/// Renders `atom_id`'s subtree. `prefix` is this node's connector line;
/// `child_prefix` is what its children's connectors hang off.
void RenderAtom(const EliminationPlan& plan, const VariableTable& variables,
                const std::map<uint32_t, StepObservation>& observed,
                size_t atom_id, const std::string& prefix,
                const std::string& child_prefix, std::string* out) {
  *out += prefix;
  if (atom_id < plan.num_base_atoms()) {
    *out += AtomString(plan, variables, atom_id) + "  [base]\n";
    return;
  }
  // Atom ids are minted in step order: this atom is step si's result.
  const size_t si = atom_id - plan.num_base_atoms();
  HIERARQ_CHECK_LT(si, plan.steps().size());
  const EliminationStep& step = plan.steps()[si];

  auto it = observed.find(static_cast<uint32_t>(si));
  const StepObservation* obs = it == observed.end() ? nullptr : &it->second;

  char head[64];
  std::snprintf(head, sizeof(head), "#%zu ", si + 1);
  *out += head;
  *out += AtomString(plan, variables, atom_id);
  std::vector<size_t> children;
  if (step.rule == EliminationRule::kProjectVariable) {
    *out += " <- rule 1: project " + variables.Name(step.variable) +
            " out of " + plan.name_of(step.source_atom);
    children = {step.source_atom};
  } else {
    *out += " <- rule 2: merge " + plan.name_of(step.left_atom) + " * " +
            plan.name_of(step.right_atom);
    children = {step.left_atom, step.right_atom};
  }
  *out += "  " + StepDetails(obs) + "\n";

  for (size_t i = 0; i < children.size(); ++i) {
    const bool last = i + 1 == children.size();
    RenderAtom(plan, variables, observed, children[i],
               child_prefix + (last ? "`- " : "|- "),
               child_prefix + (last ? "   " : "|  "), out);
  }
}

}  // namespace

std::string RenderExplainAnalyze(const EliminationPlan& plan,
                                 const VariableTable& variables,
                                 const std::vector<TraceEvent>& events) {
  // Last execution per step index; events arrive time-sorted from
  // Snapshot, so overwriting keeps the most recent.
  std::map<uint32_t, StepObservation> observed;
  for (const TraceEvent& event : events) {
    if (event.kind != TraceEvent::Kind::kStep) {
      continue;
    }
    StepObservation& obs = observed[event.step.step_index];
    obs.args = event.step;
    obs.dur_ns = event.dur_ns;
    ++obs.runs;
  }

  char head[96];
  std::snprintf(head, sizeof(head),
                "EXPLAIN ANALYZE  (%zu steps, %zu base atoms)\n",
                plan.steps().size(), plan.num_base_atoms());
  std::string out = head;
  RenderAtom(plan, variables, observed, plan.final_atom(), "", "", &out);
  return out;
}

}  // namespace hierarq::obs
