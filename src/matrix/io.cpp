#include "matrix/io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "matrix/coo.h"

namespace plu {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

CscMatrix read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("matrix market: empty stream");
  }
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") {
    throw std::runtime_error("matrix market: missing %%MatrixMarket banner");
  }
  object = lower(object);
  format = lower(format);
  field = lower(field);
  symmetry = lower(symmetry);
  if (object != "matrix" || format != "coordinate") {
    throw std::runtime_error("matrix market: only coordinate matrices supported");
  }
  if (field != "real" && field != "integer" && field != "pattern") {
    throw std::runtime_error("matrix market: unsupported field " + field);
  }
  const bool pattern_only = (field == "pattern");
  const bool symmetric = (symmetry == "symmetric");
  const bool skew = (symmetry == "skew-symmetric");
  if (!symmetric && !skew && symmetry != "general") {
    throw std::runtime_error("matrix market: unsupported symmetry " + symmetry);
  }

  // Skip comments and blank lines up to the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  long rows = 0, cols = 0, nnz = 0;
  if (!(size_line >> rows >> cols >> nnz) || rows < 0 || cols < 0 || nnz < 0) {
    throw std::runtime_error("matrix market: bad size line");
  }
  if (rows > kMaxMatrixMarketDimension || cols > kMaxMatrixMarketDimension) {
    throw std::runtime_error("matrix market: dimensions exceed the reader limit");
  }
  if ((symmetric || skew) && rows != cols) {
    throw std::runtime_error("matrix market: symmetric matrix must be square");
  }

  // The entry list grows with the lines actually read: the declared count
  // only caps the up-front reservation.
  CooMatrix coo(static_cast<int>(rows), static_cast<int>(cols));
  coo.reserve(static_cast<std::size_t>(std::min(nnz, 1L << 16)) *
              (symmetric || skew ? 2 : 1));
  for (long k = 0; k < nnz; ++k) {
    if (!std::getline(in, line)) {
      throw std::runtime_error("matrix market: truncated entry list");
    }
    if (line.empty() || line[0] == '%') {
      --k;
      continue;
    }
    std::istringstream entry(line);
    long i = 0, j = 0;
    double v = 1.0;
    if (!(entry >> i >> j)) {
      throw std::runtime_error("matrix market: bad entry line: " + line);
    }
    if (!pattern_only && !(entry >> v)) {
      throw std::runtime_error("matrix market: missing value: " + line);
    }
    if (i < 1 || i > rows || j < 1 || j > cols) {
      throw std::runtime_error("matrix market: index out of range: " + line);
    }
    coo.add(static_cast<int>(i - 1), static_cast<int>(j - 1), v);
    if ((symmetric || skew) && i != j) {
      coo.add(static_cast<int>(j - 1), static_cast<int>(i - 1), skew ? -v : v);
    }
  }
  return coo.to_csc();
}

CscMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  return read_matrix_market(f);
}

void write_matrix_market(std::ostream& out, const CscMatrix& a,
                         const std::string& comment) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  if (!comment.empty()) {
    std::istringstream lines(comment);
    std::string l;
    while (std::getline(lines, l)) out << "% " << l << '\n';
  }
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  out.precision(17);
  for (int j = 0; j < a.cols(); ++j) {
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      out << a.row_index(k) + 1 << ' ' << j + 1 << ' ' << a.value(k) << '\n';
    }
  }
}

void write_matrix_market_file(const std::string& path, const CscMatrix& a,
                              const std::string& comment) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  write_matrix_market(f, a, comment);
}

}  // namespace plu
