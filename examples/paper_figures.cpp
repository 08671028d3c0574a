// Reproduces the paper's worked example (Figures 1-4) on a small
// unsymmetric matrix: prints the original and filled patterns, the extended
// LU eforest with its Section-2 annotations (first L-row nonzeros, U-column
// leaves), the postordered block-upper-triangular form, and both task
// dependence graphs.  DOT renderings are written into the build directory
// by default; pass --out DIR to redirect them.
//
//   $ ./example_paper_figures [--out DIR]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/analysis.h"
#include "graph/dot_export.h"
#include "graph/eforest.h"
#include "graph/postorder.h"
#include "graph/transversal.h"
#include "matrix/coo.h"
#include "symbolic/compact_storage.h"
#include "symbolic/static_symbolic.h"
#include "taskgraph/analysis.h"

namespace {

void print_pattern(const char* title, const plu::Pattern& p) {
  std::printf("%s\n", title);
  for (int i = 0; i < p.rows; ++i) {
    std::printf("  ");
    for (int j = 0; j < p.cols; ++j) {
      std::printf("%c ", p.contains(i, j) ? 'x' : '.');
    }
    std::printf("\n");
  }
}

/// A 7x7 unsymmetric matrix in the spirit of the paper's Figure 1(a): the
/// exact entries of the scanned figure are unreadable, so this instance is
/// chosen to exhibit the same phenomena (fill, a multi-tree eforest, a
/// nontrivial postorder, diverging task graphs).
plu::CscMatrix example_matrix() {
  plu::CooMatrix coo(7, 7);
  for (int i = 0; i < 7; ++i) coo.add(i, i, 4.0 + i);
  coo.add(1, 0, -2.0);  // L entries
  coo.add(3, 1, 0.5);
  coo.add(6, 5, 1.0);
  coo.add(0, 2, 1.0);  // U entries
  coo.add(1, 4, 1.5);
  coo.add(3, 4, -1.0);
  coo.add(5, 6, -0.5);
  return coo.to_csc();
}

std::string artifact_dir(int argc, char** argv) {
#ifdef PLU_ARTIFACT_DIR
  std::string dir = PLU_ARTIFACT_DIR;
#else
  std::string dir = ".";
#endif
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) dir = argv[i + 1];
  }
  return dir;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = artifact_dir(argc, argv);
  plu::CscMatrix a = example_matrix();
  plu::Pattern p = a.pattern();
  print_pattern("Figure 1(a): matrix A", p);

  // Static symbolic factorization (the matrix already has a full diagonal).
  plu::symbolic::SymbolicResult sym = plu::symbolic::static_symbolic_factorization(p);
  print_pattern("\nAbar after static symbolic factorization", sym.abar);

  // Figure 1(b): the extended LU eforest.
  plu::graph::Forest ef = plu::graph::lu_eforest(sym.abar);
  plu::symbolic::CompactStorage cs = plu::symbolic::CompactStorage::build(sym.abar);
  std::printf("\nFigure 1(b): extended LU eforest\n");
  for (int v = 0; v < ef.size(); ++v) {
    std::printf("  node %d: parent=%2d  first-L-nonzero(row)=%d  U-leaves(col)={",
                v, ef.parent(v), cs.row_first()[v]);
    bool first = true;
    for (int leaf : cs.col_leaves(v)) {
      std::printf("%s%d", first ? "" : ",", leaf);
      first = false;
    }
    std::printf("}\n");
  }
  std::printf("  (compact storage: %zu integers vs %d pattern entries)\n",
              cs.storage_entries(), sym.abar.nnz());
  {
    std::string fname = out_dir + "/paper_fig1_eforest.dot";
    std::ofstream dot(fname);
    plu::graph::write_forest_dot(dot, ef);
    std::printf("  written: %s\n", fname.c_str());
  }

  // Figure 3: postorder and the block upper triangular form.
  plu::Permutation post = plu::graph::postorder_permutation(ef);
  plu::Pattern permuted = plu::graph::apply_symmetric_permutation(sym.abar, post);
  print_pattern("\nFigure 3: P^T Abar P after eforest postordering", permuted);
  plu::graph::Forest relabeled = ef.relabeled(post);
  std::printf("  diagonal blocks (tree sizes):");
  for (int s : plu::graph::diagonal_block_sizes(relabeled)) std::printf(" %d", s);
  std::printf("\n  block upper triangular: %s\n",
              plu::graph::is_block_upper_triangular(
                  permuted, plu::graph::diagonal_block_sizes(relabeled))
                  ? "yes"
                  : "no");

  // Figure 4: both task dependence graphs over the analyzed structure.
  plu::Options opt;
  opt.ordering = plu::ordering::Method::kMinimumDegreeAtA;  // the paper's
  for (auto kind : {plu::taskgraph::GraphKind::kSStar,
                    plu::taskgraph::GraphKind::kEforest}) {
    opt.task_graph = kind;
    plu::Analysis an = plu::analyze(a, opt);
    std::printf("\nFigure 4 (%s): %d tasks, %ld edges\n",
                plu::taskgraph::to_string(kind).c_str(), an.graph.size(),
                an.graph.num_edges());
    for (int id = 0; id < an.graph.size(); ++id) {
      for (int s : an.graph.succ[id]) {
        std::printf("  %s -> %s\n",
                    plu::taskgraph::to_string(an.graph.tasks.task(id)).c_str(),
                    plu::taskgraph::to_string(an.graph.tasks.task(s)).c_str());
      }
    }
    std::string fname =
        out_dir + "/paper_fig4_" + plu::taskgraph::to_string(kind) + ".dot";
    std::ofstream dot(fname);
    plu::taskgraph::write_task_graph_dot(dot, an.graph);
    std::printf("  written: %s\n", fname.c_str());
  }
  return 0;
}
