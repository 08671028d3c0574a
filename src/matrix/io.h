// Matrix Market I/O (coordinate format, real, general/symmetric/skew).
//
// The paper's matrices come from the Harwell-Boeing collection and Tim
// Davis's ftp site; Matrix Market is the standard interchange format for
// both today.  This environment has no network access, so the benchmark
// suite uses the synthetic stand-ins from named_matrices.h, but a user with
// the original files can load them through these functions.
#pragma once

#include <iosfwd>
#include <string>

#include "matrix/csc.h"

namespace plu {

/// Largest row or column count read_matrix_market accepts.  A coordinate
/// file declares its dimensions on one line with no data behind them, and
/// CSC storage needs 4 bytes per column whatever the entry count, so the
/// limit bounds what a few bytes of header can make the reader allocate
/// (64 MiB of column pointers).  Other memory grows with the entries
/// actually read, never with the declared entry count.
inline constexpr long kMaxMatrixMarketDimension = 1L << 24;

/// Parses a Matrix Market stream; throws std::runtime_error on bad input,
/// including dimensions above kMaxMatrixMarketDimension and a non-square
/// symmetric or skew-symmetric matrix.
CscMatrix read_matrix_market(std::istream& in);

/// Loads a Matrix Market file from disk.
CscMatrix read_matrix_market_file(const std::string& path);

/// Writes `a` in coordinate real general format.
void write_matrix_market(std::ostream& out, const CscMatrix& a,
                         const std::string& comment = "");

void write_matrix_market_file(const std::string& path, const CscMatrix& a,
                              const std::string& comment = "");

}  // namespace plu
