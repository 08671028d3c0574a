#include "taskgraph/coarsen.h"

#include <algorithm>
#include <stdexcept>

#include "blas/tunables.h"
#include "taskgraph/analysis.h"
#include "taskgraph/costs.h"

namespace plu::taskgraph {

long CoarseGraph::num_edges() const {
  long total = 0;
  for (const auto& s : succ) total += static_cast<long>(s.size());
  return total;
}

CoarsenStats CoarseGraph::stats(const TaskGraph& g) const {
  CoarsenStats st;
  st.ran = coarsened;
  st.tasks_before = g.size();
  st.edges_before = g.num_edges();
  st.tasks_after = num_groups;
  st.edges_after = num_edges();
  st.fused_groups = fused_groups;
  st.fused_tasks = fused_tasks;
  st.threshold_flops = threshold_flops;
  st.dag_bound = dag_bound;
  st.tiny_merged_stages = tiny_merged_stages;
  return st;
}

CoarseGraph coarsen_task_graph(const TaskGraph& g,
                               const symbolic::BlockStructure& bs,
                               const CoarsenOptions& opt) {
  CoarseGraph cg;
  const int nb = g.tasks.num_columns();
  const int nt = g.size();
  // Applicability gate (see the header's acyclicity argument): the eforest
  // rules make every cross-stage edge an ancestor edge, and postordered
  // labels make every subtree a contiguous stage interval.  Both are load
  // bearing; without either, contraction could close a cycle.
  if (g.kind != GraphKind::kEforest || nt == 0 ||
      static_cast<int>(g.flops.size()) != nt || bs.beforest.size() != nb ||
      !bs.beforest.is_postordered()) {
    return cg;
  }

  // Task weights: density-effective flops when a blocking plan is present
  // (closure-padded sparse subtrees stop being overweighted), nominal
  // counts otherwise.  SCHEDULE-ONLY either way -- weights shape groups
  // and priorities, and any grouping is bitwise-safe (the writer chains
  // below pin the summation order regardless).
  const bool planned = opt.plan != nullptr && opt.plan->built;
  const std::vector<double> eff =
      planned ? effective_task_flops(g, *opt.plan) : std::vector<double>{};
  const std::vector<double>& fl = planned ? eff : g.flops;

  // Stage weights and subtree sums (children precede parents, so one
  // ascending pass accumulates complete subtrees before adding them up).
  std::vector<double> subtree(nb, 0.0);
  double total = 0.0;
  for (int s = 0; s < nb; ++s) {
    double w = fl[g.tasks.factor_id(s)];
    const auto [b, e] = g.tasks.stage_range(s);
    for (int id = b; id < e; ++id) w += fl[id];
    subtree[s] += w;
    total += w;
    const int p = bs.beforest.parent(s);
    if (p != graph::kNone) subtree[p] += subtree[s];
  }

  double threshold = opt.threshold_flops;
  if (threshold <= 0.0) {
    const std::vector<double> bl = bottom_levels(g, fl);
    double cp = 0.0;
    for (double v : bl) cp = std::max(cp, v);
    const double p = std::max(1, opt.threads);
    const double tpt = std::max(1, opt.target_tasks_per_thread);
    threshold = std::min(total / (p * tpt), 0.5 * cp);
  }
  cg.threshold_flops = threshold;

  // DAG-aware tiny-supernode merging (plan-gated).  When the task count
  // dwarfs what the workers can usefully schedule, per-task overhead -- not
  // flops -- bounds the run; subtrees made ENTIRELY of tiny supernodes
  // (width <= the plan's tiny_width_cap) may then fuse past the flop
  // threshold, up to kTinyMergeFlopFactor times it.  tiny_sub is computed
  // ascending (children precede parents under postorder); clearing is
  // monotone, so each flag is final once its stage is passed.
  const bool dag_bound =
      planned && nt > std::max(1, opt.threads) *
                          std::max(1, opt.target_tasks_per_thread) *
                          blas::tunables::kDagBoundTaskFactor;
  cg.dag_bound = dag_bound;
  std::vector<char> tiny_sub;
  if (dag_bound) {
    tiny_sub.assign(nb, 1);
    const int cap = opt.plan->summary.tiny_width_cap;
    for (int s = 0; s < nb; ++s) {
      if (bs.part.width(s) > cap) tiny_sub[s] = 0;
      const int p = bs.beforest.parent(s);
      if (p != graph::kNone && !tiny_sub[s]) tiny_sub[p] = 0;
    }
  }
  // The fusability predicate is DOWN-CLOSED (a fusable stage's children are
  // fusable: subtree weights shrink downward, and tiny_sub[p] implies
  // tiny_sub[child]), which is what keeps fused subtrees maximal and their
  // stage intervals contiguous -- the acyclicity argument is untouched.
  const auto fusable = [&](int s) {
    if (subtree[s] <= threshold) return true;
    return dag_bound && tiny_sub[s] != 0 &&
           subtree[s] <= blas::tunables::kTinyMergeFlopFactor * threshold;
  };

  // Fused roots: maximal fusable subtrees.  Descending scan so fr[parent]
  // is final before its children inherit it.
  std::vector<int> fr(nb, -1);
  for (int s = nb - 1; s >= 0; --s) {
    const int p = bs.beforest.parent(s);
    if (fusable(s) && (p == graph::kNone || !fusable(p))) {
      fr[s] = s;
    } else if (p != graph::kNone) {
      fr[s] = fr[p];
    }
  }
  if (dag_bound) {
    for (int s = 0; s < nb; ++s) {
      if (fr[s] != -1 && subtree[fr[s]] > threshold) ++cg.tiny_merged_stages;
    }
  }

  // Group assignment, scanning stages ascending: a fused subtree (one
  // contiguous stage interval) becomes one group running its tasks in
  // right-looking order; every other task is its own group.  Group ids are
  // therefore monotone in (stage, within-stage task id) -- the coarse
  // topological order.
  cg.group_of.assign(nt, -1);
  int cur_root = graph::kNone;
  int cur_gid = -1;
  for (int s = 0; s < nb; ++s) {
    const int fid = g.tasks.factor_id(s);
    const auto [b, e] = g.tasks.stage_range(s);
    if (fr[s] != graph::kNone) {
      if (fr[s] != cur_root) {  // interval start: open the fused group
        cur_root = fr[s];
        cur_gid = static_cast<int>(cg.members.size());
        cg.members.emplace_back();
      }
      cg.group_of[fid] = cur_gid;
      cg.members[cur_gid].push_back(fid);
      for (int id = b; id < e; ++id) {
        cg.group_of[id] = cur_gid;
        cg.members[cur_gid].push_back(id);
      }
    } else {
      cg.group_of[fid] = static_cast<int>(cg.members.size());
      cg.members.push_back({fid});
      for (int id = b; id < e; ++id) {
        cg.group_of[id] = static_cast<int>(cg.members.size());
        cg.members.push_back({id});
      }
    }
  }
  const int ng = static_cast<int>(cg.members.size());
  cg.num_groups = ng;

  // Coarse edges: the original edges under contraction.  All must run
  // forward in group id (acyclicity).
  std::vector<long> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()) / 2 + 16);
  const auto add_edge = [&](int a, int b) {
    if (a == b) return;
    if (a > b) {
      throw std::logic_error("coarsen_task_graph: non-monotone coarse edge");
    }
    edges.push_back(static_cast<long>(a) * ng + b);
  };
  for (int u = 0; u < nt; ++u) {
    for (int v : g.succ[u]) add_edge(cg.group_of[u], cg.group_of[v]);
  }

  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  cg.succ.assign(ng, {});
  cg.indegree.assign(ng, 0);
  for (long pe : edges) {
    const int a = static_cast<int>(pe / ng);
    const int b = static_cast<int>(pe % ng);
    cg.succ[a].push_back(b);
    ++cg.indegree[b];
  }

  cg.flops.assign(ng, 0.0);
  for (int id = 0; id < nt; ++id) cg.flops[cg.group_of[id]] += g.flops[id];
  // Bottom levels over the coarse flops; ids are topological, so one
  // descending sweep suffices.
  cg.priorities.assign(ng, 0.0);
  for (int v = ng - 1; v >= 0; --v) {
    double best = 0.0;
    for (int s : cg.succ[v]) best = std::max(best, cg.priorities[s]);
    cg.priorities[v] = best + cg.flops[v];
  }

  for (const auto& m : cg.members) {
    if (m.size() >= 2) {
      ++cg.fused_groups;
      cg.fused_tasks += static_cast<long>(m.size());
    }
  }
  cg.coarsened = true;
  return cg;
}

}  // namespace plu::taskgraph
