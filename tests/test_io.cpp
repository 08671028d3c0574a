// Matrix Market I/O: round trips, symmetry expansion, malformed input.
#include <gtest/gtest.h>

#include <sstream>

#include "matrix/io.h"
#include "reader_fixtures.h"
#include "test_helpers.h"

namespace plu {
namespace {

TEST(MatrixMarket, WriteReadRoundTrip) {
  CscMatrix a = gen::random_sparse(20, 3.0, 0.4, 0.7, 21);
  std::ostringstream os;
  write_matrix_market(os, a, "round trip test\nsecond comment line");
  std::istringstream is(os.str());
  CscMatrix b = read_matrix_market(is);
  EXPECT_EQ(b.rows(), a.rows());
  EXPECT_EQ(b.col_ptr(), a.col_ptr());
  EXPECT_EQ(b.row_ind(), a.row_ind());
  for (int k = 0; k < a.nnz(); ++k) EXPECT_DOUBLE_EQ(b.values()[k], a.values()[k]);
}

TEST(MatrixMarket, ReadsSymmetricExpanding) {
  std::istringstream is(test::mm_symmetric_fixture());
  CscMatrix a = read_matrix_market(is);
  EXPECT_EQ(a.nnz(), 4);
  EXPECT_DOUBLE_EQ(a.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 5.0);
}

TEST(MatrixMarket, ReadsSkewSymmetric) {
  std::istringstream is(test::mm_skew_fixture());
  CscMatrix a = read_matrix_market(is);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -3.0);
}

TEST(MatrixMarket, ReadsPatternField) {
  std::istringstream is(test::mm_pattern_fixture());
  CscMatrix a = read_matrix_market(is);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);
}

TEST(MatrixMarket, RejectsMalformedInput) {
  {
    std::istringstream is("not a banner\n1 1 0\n");
    EXPECT_THROW(read_matrix_market(is), std::runtime_error);
  }
  {
    std::istringstream is("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
    EXPECT_THROW(read_matrix_market(is), std::runtime_error);
  }
  {
    std::istringstream is(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n");
    EXPECT_THROW(read_matrix_market(is), std::runtime_error);  // out of range
  }
  {
    std::istringstream is(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
    EXPECT_THROW(read_matrix_market(is), std::runtime_error);  // truncated
  }
}

TEST(MatrixMarket, FileRoundTrip) {
  CscMatrix a = gen::grid2d(4, 4, {});
  std::string path = ::testing::TempDir() + "/plu_io_test.mtx";
  write_matrix_market_file(path, a);
  CscMatrix b = read_matrix_market_file(path);
  EXPECT_EQ(b.col_ptr(), a.col_ptr());
  EXPECT_EQ(b.row_ind(), a.row_ind());
  EXPECT_THROW(read_matrix_market_file("/nonexistent/x.mtx"), std::runtime_error);
}

}  // namespace
}  // namespace plu
