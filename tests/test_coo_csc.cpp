// Sparse containers: COO assembly, CSC invariants, transpose, permutation,
// matvec, pattern set algebra.
#include <gtest/gtest.h>

#include "matrix/coo.h"
#include "matrix/csc.h"
#include "test_helpers.h"

namespace plu {
namespace {

TEST(Coo, SumsDuplicates) {
  CooMatrix coo(3, 3);
  coo.add(1, 2, 1.0);
  coo.add(1, 2, 2.5);
  coo.add(0, 0, 4.0);
  CscMatrix a = coo.to_csc();
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 3.5);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 0.0);
}

TEST(Csc, ValidityChecks) {
  CscMatrix a(2, 2, {0, 1, 2}, {0, 1}, {1.0, 2.0});
  EXPECT_TRUE(a.valid());
  EXPECT_THROW(CscMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(CscMatrix(2, 2, {0, 1, 2}, {0, 5}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Csc, TransposeRoundTrip) {
  CscMatrix a = gen::random_sparse(30, 3.0, 0.3, 0.7, 5);
  CscMatrix att = a.transpose().transpose();
  EXPECT_EQ(att.col_ptr(), a.col_ptr());
  EXPECT_EQ(att.row_ind(), a.row_ind());
  EXPECT_EQ(att.values(), a.values());
}

TEST(Csc, TransposeSwapsEntries) {
  CooMatrix coo(2, 3);
  coo.add(0, 2, 5.0);
  coo.add(1, 0, -1.0);
  CscMatrix t = coo.to_csc().transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), -1.0);
}

TEST(Csc, PermutedMatchesElementwiseDefinition) {
  CscMatrix a = gen::random_sparse(12, 2.0, 0.5, 0.7, 6);
  Permutation rp = Permutation::from_old_positions({5, 3, 8, 0, 1, 2, 4, 11, 10, 9, 7, 6});
  Permutation cp = rp.inverse();
  CscMatrix b = a.permuted(rp, cp);
  for (int j = 0; j < 12; ++j) {
    for (int i = 0; i < 12; ++i) {
      EXPECT_DOUBLE_EQ(b.at(i, j), a.at(rp.old_of(i), cp.old_of(j)));
    }
  }
}

TEST(Csc, MatvecAgainstDense) {
  CscMatrix a = gen::random_sparse(25, 3.0, 0.2, 0.6, 7);
  std::vector<double> x = test::random_vector(25, 8);
  std::vector<double> y;
  a.matvec(x, y);
  std::vector<double> dense = a.to_dense_colmajor();
  for (int i = 0; i < 25; ++i) {
    double s = 0;
    for (int j = 0; j < 25; ++j) s += dense[static_cast<std::size_t>(j) * 25 + i] * x[j];
    EXPECT_NEAR(y[i], s, 1e-12);
  }
  std::vector<double> yt;
  a.matvec_transpose(x, yt);
  for (int j = 0; j < 25; ++j) {
    double s = 0;
    for (int i = 0; i < 25; ++i) s += dense[static_cast<std::size_t>(j) * 25 + i] * x[i];
    EXPECT_NEAR(yt[j], s, 1e-12);
  }
}

TEST(Csc, NormsAgainstDense) {
  CscMatrix a = gen::random_sparse(15, 2.5, 0.4, 0.6, 9);
  std::vector<double> dense = a.to_dense_colmajor();
  double n1 = 0, ninf = 0, nf = 0;
  std::vector<double> rowsum(15, 0.0);
  for (int j = 0; j < 15; ++j) {
    double cs = 0;
    for (int i = 0; i < 15; ++i) {
      double v = std::abs(dense[static_cast<std::size_t>(j) * 15 + i]);
      cs += v;
      rowsum[i] += v;
      nf += v * v;
    }
    n1 = std::max(n1, cs);
  }
  for (double r : rowsum) ninf = std::max(ninf, r);
  EXPECT_NEAR(a.norm1(), n1, 1e-12);
  EXPECT_NEAR(a.norm_inf(), ninf, 1e-12);
  EXPECT_NEAR(a.norm_frobenius(), std::sqrt(nf), 1e-12);
}

TEST(Pattern, SetAlgebra) {
  Pattern a = gen::random_sparse(18, 2.0, 0.5, 0.7, 11).pattern();
  Pattern b = gen::random_sparse(18, 2.0, 0.5, 0.7, 12).pattern();
  Pattern u = a.union_with(b);
  EXPECT_TRUE(a.subset_of(u));
  EXPECT_TRUE(b.subset_of(u));
  EXPECT_TRUE(u.valid());
  EXPECT_FALSE(u.subset_of(a) && u.subset_of(b));
  EXPECT_TRUE(a.union_with(a) == a);
}

TEST(Pattern, AtaMatchesBruteForce) {
  Pattern a = gen::random_sparse(16, 2.0, 0.2, 0.7, 13).pattern();
  Pattern ata = Pattern::ata(a);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      bool share = false;
      for (int r = 0; r < 16 && !share; ++r) {
        share = a.contains(r, i) && a.contains(r, j);
      }
      EXPECT_EQ(ata.contains(i, j), share) << i << "," << j;
    }
  }
}

TEST(Pattern, SymmetrizedIsSymmetric) {
  Pattern a = gen::random_sparse(14, 2.0, 0.0, 0.7, 14).pattern();
  Pattern s = Pattern::symmetrized(a);
  EXPECT_TRUE(s == s.transpose());
  EXPECT_TRUE(a.subset_of(s));
}

TEST(Pattern, PermutedPreservesEntryCountAndMapsEntries) {
  Pattern a = gen::random_sparse(10, 2.0, 0.3, 0.7, 15).pattern();
  std::vector<int> v = {3, 1, 4, 0, 9, 2, 6, 5, 8, 7};
  Permutation p = Permutation::from_old_positions(v);
  Pattern b = a.permuted(p, p);
  EXPECT_EQ(b.nnz(), a.nnz());
  for (int j = 0; j < 10; ++j) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(b.contains(i, j), a.contains(p.old_of(i), p.old_of(j)));
    }
  }
}

}  // namespace
}  // namespace plu
