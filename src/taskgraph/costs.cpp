#include "taskgraph/costs.h"

#include <cassert>

#include "blas/level3.h"

namespace plu::taskgraph {

int panel_rows(const symbolic::BlockStructure& bs, int k) {
  int rows = bs.part.width(k);
  for (int i : bs.l_blocks(k)) rows += bs.part.width(i);
  return rows;
}

TaskCosts compute_task_costs(const symbolic::BlockStructure& bs,
                             const TaskList& tasks) {
  // Column granularity only: the block-granularity costs ride on the
  // TaskGraph itself (taskgraph/build.cpp fills flops/output_bytes there).
  assert(tasks.granularity() == Granularity::kColumn);
  const int nb = bs.num_blocks();
  TaskCosts c;
  c.flops.assign(tasks.size(), 0.0);
  c.panel_bytes.assign(nb, 0.0);
  c.output_bytes.assign(tasks.size(), 0.0);

  std::vector<int> prows(nb);
  for (int k = 0; k < nb; ++k) {
    prows[k] = panel_rows(bs, k);
    c.panel_bytes[k] = 8.0 * prows[k] * bs.part.width(k);
  }

  for (int id = 0; id < tasks.size(); ++id) {
    const Task& t = tasks.task(id);
    const int wk = bs.part.width(t.k);
    if (t.kind == TaskKind::kFactor) {
      c.flops[id] = blas::getrf_flops(prows[t.k], wk);
      c.output_bytes[id] = c.panel_bytes[t.k];
    } else {
      const int wj = bs.part.width(t.j);
      double f = blas::trsm_flops(blas::Side::Left, wk, wj);
      f += blas::gemm_flops(prows[t.k] - wk, wj, wk);
      c.flops[id] = f;
      // Footprint written into block column j: the panel-k rows times w_j.
      c.output_bytes[id] = 8.0 * prows[t.k] * wj;
    }
    c.total_flops += c.flops[id];
  }
  return c;
}

}  // namespace plu::taskgraph
