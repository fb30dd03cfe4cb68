#ifndef HIERARQ_OBS_EXPLAIN_H_
#define HIERARQ_OBS_EXPLAIN_H_

/// \file explain.h
/// \brief EXPLAIN ANALYZE: the terminal exporter of a traced evaluation.
///
/// Takes the `EliminationPlan` that ran and the step events a `Tracer`
/// recorded while it ran, and renders the plan as a tree — the final
/// nullary atom at the root, each step's result atom a node over its
/// input atoms, base atoms as leaves — with exactly one line per
/// elimination step carrying what the trace observed: result backend,
/// rows in/out, wall time and SIMD tier. `hierarq_cli --explain` prints
/// this after the command's normal output.
///
/// The tree shape needs no search: plan atom ids are minted in step
/// order, so atom `num_base_atoms() + i` is exactly step i's result and
/// every atom id below `num_base_atoms()` is a base leaf. When the same
/// plan replayed several times inside one trace (service batches,
/// update-mode refolds), each step line shows its *last* execution and
/// flags the run count.

#include <string>
#include <vector>

#include "hierarq/obs/trace.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/query.h"

namespace hierarq::obs {

/// Renders the EXPLAIN ANALYZE tree for `plan` from `events` (typically
/// `Tracer::Snapshot()`). Every plan step appears exactly once; steps
/// with no recorded event render as "(not executed)". `variables` is the
/// query's table, for schema labels.
std::string RenderExplainAnalyze(const EliminationPlan& plan,
                                 const VariableTable& variables,
                                 const std::vector<TraceEvent>& events);

/// "1.5us" / "2.35ms" — shared duration pretty-printer (CLI ack lines
/// use it too).
std::string FormatNs(double ns);

}  // namespace hierarq::obs

#endif  // HIERARQ_OBS_EXPLAIN_H_
