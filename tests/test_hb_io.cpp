// Harwell-Boeing reader: format parsing, a hand-built RUA fixture, the
// symmetric/pattern variants, and error handling.
#include <gtest/gtest.h>

#include <sstream>

#include "core/sparse_lu.h"
#include "matrix/hb_io.h"
#include "reader_fixtures.h"
#include "test_helpers.h"

namespace plu {
namespace {

using hb_detail::parse_fortran_format;

TEST(FortranFormat, ParsesCommonDescriptors) {
  auto f = parse_fortran_format("(13I6)");
  EXPECT_EQ(f.repeat, 13);
  EXPECT_EQ(f.width, 6);
  EXPECT_EQ(f.kind, 'I');
  f = parse_fortran_format("(5E16.8)");
  EXPECT_EQ(f.repeat, 5);
  EXPECT_EQ(f.width, 16);
  EXPECT_EQ(f.kind, 'E');
  f = parse_fortran_format("(1P,4D20.12)");
  EXPECT_EQ(f.repeat, 4);
  EXPECT_EQ(f.width, 20);
  EXPECT_EQ(f.kind, 'D');
  f = parse_fortran_format("(E26.18)");  // implicit repeat 1
  EXPECT_EQ(f.repeat, 1);
  EXPECT_EQ(f.width, 26);
  EXPECT_THROW(parse_fortran_format("13I6"), std::runtime_error);
  EXPECT_THROW(parse_fortran_format("(13X6)"), std::runtime_error);
}

using test::hb_rua_fixture;

TEST(HarwellBoeing, ReadsRealUnsymmetric) {
  std::istringstream in(hb_rua_fixture());
  HarwellBoeingInfo info;
  CscMatrix a = read_harwell_boeing(in, &info);
  EXPECT_EQ(info.key, "TEST0001");
  EXPECT_EQ(info.type, "RUA");
  EXPECT_EQ(info.title.substr(0, 11), "Test matrix");
  EXPECT_EQ(a.rows(), 4);
  EXPECT_EQ(a.nnz(), 7);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(a.at(3, 1), 4.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 6.0);
  EXPECT_DOUBLE_EQ(a.at(3, 3), 7.0);
  EXPECT_DOUBLE_EQ(a.at(2, 0), 0.0);
}

TEST(HarwellBoeing, ReadsSymmetricExpanding) {
  std::istringstream in(test::hb_rsa_fixture());
  CscMatrix a = read_harwell_boeing(in);
  EXPECT_EQ(a.nnz(), 5);  // 4 stored + 1 mirrored off-diagonal
  EXPECT_DOUBLE_EQ(a.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 3.0);
}

TEST(HarwellBoeing, ReadsPatternMatrix) {
  std::istringstream in(test::hb_pua_fixture());
  CscMatrix a = read_harwell_boeing(in);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
}

TEST(HarwellBoeing, ReadMatrixIsSolvable) {
  std::istringstream in(hb_rua_fixture());
  CscMatrix a = read_harwell_boeing(in);
  std::vector<double> b = {1, 2, 3, 4};
  std::vector<double> x = SparseLU::solve_system(a, b);
  EXPECT_LT(relative_residual(a, x, b), 1e-14);
}

TEST(HarwellBoeing, ParsesRunTogetherFixedWidthFields) {
  // Regression: Fortran fixed-width output needs NO delimiter between
  // fields -- with (4D14.7) and all-negative values every 14-character
  // field starts with '-' and the columns run together.  A
  // whitespace-tokenizing reader mis-splits this; the reader must cut on
  // field width.  Same structure as hb_rua_fixture() with negated values.
  std::ostringstream os;
  os << "Run-together fields                                                     "
        "TEST0002\n";
  os << "             5             1             1             2             0\n";
  os << "RUA                        4             4             7             0\n";
  os << "(8I4)           (8I4)           (4D14.7)            \n";
  os << "   1   3   5   7   8\n";
  os << "   1   2   2   4   1   3   4\n";
  os << "-1.0000000D+00-2.0000000D+00-3.0000000D+00-4.0000000D+00\n";
  os << "-5.0000000D+00-6.0000000D+00-7.0000000D+00\n";
  std::istringstream in(os.str());
  CscMatrix a = read_harwell_boeing(in);
  EXPECT_EQ(a.nnz(), 7);
  EXPECT_DOUBLE_EQ(a.at(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), -3.0);
  EXPECT_DOUBLE_EQ(a.at(3, 1), -4.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), -5.0);
  EXPECT_DOUBLE_EQ(a.at(2, 2), -6.0);
  EXPECT_DOUBLE_EQ(a.at(3, 3), -7.0);
}

TEST(HarwellBoeing, ParsesLowercaseFortranExponents) {
  // Regression: some writers emit lowercase 'd' (or 'e') exponents; strtod
  // rejects 'd', so the reader must normalize case before converting.
  std::ostringstream os;
  os << "Lowercase exponents                                                     "
        "TEST0003\n";
  os << "             5             1             1             2             0\n";
  os << "RUA                        4             4             7             0\n";
  os << "(8I4)           (8I4)           (4D14.6)            \n";
  os << "   1   3   5   7   8\n";
  os << "   1   2   2   4   1   3   4\n";
  os << "  1.250000d+00  2.000000d-01  3.000000d+00  4.000000d+00\n";
  os << "  5.000000d+00  6.000000d+00  7.500000d-02\n";
  std::istringstream in(os.str());
  CscMatrix a = read_harwell_boeing(in);
  EXPECT_EQ(a.nnz(), 7);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.25);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 0.2);
  EXPECT_DOUBLE_EQ(a.at(3, 3), 0.075);
}

TEST(HarwellBoeing, RejectsBadInput) {
  {
    std::istringstream in("too\nshort\n");
    EXPECT_THROW(read_harwell_boeing(in), std::runtime_error);
  }
  {
    // Elemental type.
    std::ostringstream os;
    os << "title\n";
    os << "             2             1             1             0             0\n";
    os << "RUE                        2             2             2             0\n";
    os << "(8I4)           (8I4)           (4E12.4)            \n";
    std::istringstream in(os.str());
    EXPECT_THROW(read_harwell_boeing(in), std::runtime_error);
  }
  {
    // Truncated data.
    std::string s = hb_rua_fixture();
    s = s.substr(0, s.size() - 50);
    std::istringstream in(s);
    EXPECT_THROW(read_harwell_boeing(in), std::runtime_error);
  }
  EXPECT_THROW(read_harwell_boeing_file("/nonexistent.rua"), std::runtime_error);
}

}  // namespace
}  // namespace plu
