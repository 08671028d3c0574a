// Reader fixtures shared by the Matrix Market / Harwell-Boeing parser tests
// and the mutation corpus built from them (test_reader_mutation.cpp).
#pragma once

#include <string>

namespace plu::test {

/// 3x3 symmetric; two stored off-diagonal halves expand to four entries.
inline std::string mm_symmetric_fixture() {
  return "%%MatrixMarket matrix coordinate real symmetric\n"
         "% comment\n"
         "3 3 3\n"
         "1 1 2.0\n"
         "3 1 5.0\n"
         "3 3 1.0\n";
}

inline std::string mm_skew_fixture() {
  return "%%MatrixMarket matrix coordinate real skew-symmetric\n"
         "2 2 1\n"
         "2 1 3.0\n";
}

inline std::string mm_pattern_fixture() {
  return "%%MatrixMarket matrix coordinate pattern general\n"
         "2 2 2\n"
         "1 1\n"
         "2 2\n";
}

/// The 4x4 matrix of hb_rua_fixture() in coordinate form.
inline std::string mm_general_fixture() {
  return "%%MatrixMarket matrix coordinate real general\n"
         "% the RUA fixture\n"
         "4 4 7\n"
         "1 1 1.0\n"
         "2 1 2.0\n"
         "2 2 3.0\n"
         "4 2 4.0\n"
         "1 3 5.0\n"
         "3 3 6.0\n"
         "4 4 7.0\n";
}

/// A 4x4 real unsymmetric assembled matrix:
///   [ 1 . 5 . ]
///   [ 2 3 . . ]
///   [ . . 6 . ]
///   [ . 4 . 7 ]
/// CSC: colptr 1 3 5 7 8; rows 1 2 / 2 4 / 1 3 / 4; vals 1 2 3 4 5 6 7.
inline std::string hb_rua_fixture() {
  return "Test matrix for the HB reader                                           "
         "TEST0001\n"
         "             5             1             1             2             0\n"
         "RUA                        4             4             7             0\n"
         "(8I4)           (8I4)           (4D14.6)            \n"
         "   1   3   5   7   8\n"
         "   1   2   2   4   1   3   4\n"
         "  1.000000D+00  2.000000D+00  3.000000D+00  4.000000D+00\n"
         "  5.000000D+00  6.000000D+00  7.000000D+00\n";
}

/// 3x3 real symmetric: lower triangle stored, one off-diagonal entry.
inline std::string hb_rsa_fixture() {
  return "Symmetric test                                                          "
         "SYMM0001\n"
         "             3             1             1             1             0\n"
         "RSA                        3             3             4             0\n"
         "(8I4)           (8I4)           (4E12.4)            \n"
         "   1   3   4   5\n"
         "   1   3   2   3\n"
         "  2.0000E+00  5.0000E+00  3.0000E+00  4.0000E+00\n";
}

/// 2x2 pattern-only matrix with three entries.
inline std::string hb_pua_fixture() {
  return "Pattern test                                                            "
         "PATT0001\n"
         "             2             1             1             0             0\n"
         "PUA                        2             2             3             0\n"
         "(8I4)           (8I4)           \n"
         "   1   2   4\n"
         "   1   1   2\n";
}

}  // namespace plu::test
