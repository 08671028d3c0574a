#include "matrix/hb_io.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "matrix/coo.h"

namespace plu {

namespace hb_detail {

FortranFormat parse_fortran_format(const std::string& fmt) {
  // Accepts forms like (13I6), (5E16.8), (1P,4D20.12), (4(1X,E12.5)) is NOT
  // supported (nested groups are rare in HB files).
  FortranFormat out;
  std::string s;
  for (char c : fmt) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      s += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  std::size_t start = s.find('(');
  std::size_t end = s.rfind(')');
  if (start == std::string::npos || end == std::string::npos || end <= start) {
    throw std::runtime_error("HB: bad Fortran format: " + fmt);
  }
  s = s.substr(start + 1, end - start - 1);
  // Drop scale-factor prefixes like "1P," or "1P".
  std::size_t p = s.find('P');
  if (p != std::string::npos && p + 1 < s.size() &&
      (s[p + 1] == ',' || std::isdigit(static_cast<unsigned char>(s[p + 1])))) {
    s = s.substr(p + 1);
    if (!s.empty() && s[0] == ',') s = s.substr(1);
  }
  // Now expect [repeat] KIND width [. digits]; counts beyond any real card
  // image are rejected before they can overflow.
  constexpr int kMaxCount = 1 << 20;
  std::size_t i = 0;
  int repeat = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
    repeat = repeat * 10 + (s[i] - '0');
    if (repeat > kMaxCount) throw std::runtime_error("HB: bad Fortran format: " + fmt);
    ++i;
  }
  if (i >= s.size()) throw std::runtime_error("HB: bad Fortran format: " + fmt);
  char kind = s[i++];
  if (kind != 'I' && kind != 'E' && kind != 'D' && kind != 'F' && kind != 'G') {
    throw std::runtime_error("HB: unsupported Fortran kind in: " + fmt);
  }
  int width = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
    width = width * 10 + (s[i] - '0');
    if (width > kMaxCount) throw std::runtime_error("HB: bad field width in: " + fmt);
    ++i;
  }
  if (width <= 0) throw std::runtime_error("HB: bad field width in: " + fmt);
  out.repeat = repeat > 0 ? repeat : 1;
  out.width = width;
  out.kind = kind;
  return out;
}

}  // namespace hb_detail

namespace {

using hb_detail::FortranFormat;

/// Reads `count` fixed-width fields across as many lines as needed.  The
/// caller's storage grows field by field, so a count the data does not back
/// ends in "truncated" having allocated only for what was read.
template <typename Convert>
void read_fields(std::istream& in, const FortranFormat& fmt, long count,
                 const Convert& convert) {
  std::string line;
  long done = 0;
  while (done < count) {
    if (!std::getline(in, line)) {
      throw std::runtime_error("HB: truncated data section");
    }
    for (int f = 0; f < fmt.repeat && done < count; ++f) {
      std::size_t pos = static_cast<std::size_t>(f) * fmt.width;
      if (pos >= line.size()) break;  // short line: rest on the next line
      std::string field = line.substr(pos, fmt.width);
      // Trim whitespace.
      std::size_t b = field.find_first_not_of(" \t\r");
      if (b == std::string::npos) break;
      std::size_t e = field.find_last_not_of(" \t\r");
      convert(field.substr(b, e - b + 1), done);
      ++done;
    }
  }
}

long to_long(const std::string& s, const char* what) {
  char* endp = nullptr;
  long v = std::strtol(s.c_str(), &endp, 10);
  if (endp == s.c_str()) {
    throw std::runtime_error(std::string("HB: bad integer in ") + what + ": " + s);
  }
  return v;
}

double to_double(std::string s) {
  // Fortran floats may use D (or lowercase) exponents.
  for (char& c : s) {
    if (c == 'D' || c == 'd') c = 'E';
  }
  char* endp = nullptr;
  double v = std::strtod(s.c_str(), &endp);
  if (endp == s.c_str()) {
    throw std::runtime_error("HB: bad value: " + s);
  }
  return v;
}

std::string field(const std::string& line, std::size_t pos, std::size_t len) {
  if (pos >= line.size()) return "";
  return line.substr(pos, len);
}

std::string trimmed(std::string s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

CscMatrix read_harwell_boeing(std::istream& in, HarwellBoeingInfo* info) {
  std::string l1, l2, l3, l4;
  if (!std::getline(in, l1) || !std::getline(in, l2) || !std::getline(in, l3) ||
      !std::getline(in, l4)) {
    throw std::runtime_error("HB: truncated header");
  }
  HarwellBoeingInfo hdr;
  hdr.title = trimmed(field(l1, 0, 72));
  hdr.key = trimmed(field(l1, 72, 8));

  const long rhscrd = to_long(trimmed(field(l2, 56, 14)).empty()
                                  ? "0"
                                  : trimmed(field(l2, 56, 14)),
                              "RHSCRD");

  std::string mxtype = trimmed(field(l3, 0, 3));
  std::transform(mxtype.begin(), mxtype.end(), mxtype.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  hdr.type = mxtype;
  if (mxtype.size() != 3) throw std::runtime_error("HB: bad MXTYPE");
  const char value_type = mxtype[0];    // R real, P pattern, C complex
  const char symmetry = mxtype[1];      // U, S, Z (skew), R (rectangular), H
  const char assembled = mxtype[2];     // A assembled, E elemental
  if (assembled != 'A') {
    throw std::runtime_error("HB: elemental matrices not supported");
  }
  if (value_type != 'R' && value_type != 'P') {
    throw std::runtime_error("HB: only real or pattern matrices supported");
  }
  const long nrow = to_long(trimmed(field(l3, 14, 14)), "NROW");
  const long ncol = to_long(trimmed(field(l3, 28, 14)), "NCOL");
  const long nnz = to_long(trimmed(field(l3, 42, 14)), "NNZERO");
  if (nrow <= 0 || ncol <= 0 || nnz < 0 || nrow > INT_MAX || ncol > INT_MAX ||
      nnz >= INT_MAX) {
    throw std::runtime_error("HB: bad dimensions");
  }
  const bool mirrored = symmetry == 'S' || symmetry == 'Z';
  if (mirrored && nrow != ncol) {
    throw std::runtime_error("HB: symmetric matrix must be square");
  }

  FortranFormat ptrfmt = hb_detail::parse_fortran_format(trimmed(field(l4, 0, 16)));
  FortranFormat indfmt = hb_detail::parse_fortran_format(trimmed(field(l4, 16, 16)));
  FortranFormat valfmt;
  if (value_type == 'R') {
    valfmt = hb_detail::parse_fortran_format(trimmed(field(l4, 32, 20)));
  }
  if (rhscrd > 0) {
    std::string l5;
    if (!std::getline(in, l5)) throw std::runtime_error("HB: truncated header");
  }

  // Sections are appended field by field: memory follows the data read, not
  // the counts the header declares.
  std::vector<long> colptr;
  read_fields(in, ptrfmt, ncol + 1, [&](const std::string& s, long) {
    colptr.push_back(to_long(s, "PTR"));
  });
  std::vector<long> rowind;
  read_fields(in, indfmt, nnz, [&](const std::string& s, long) {
    rowind.push_back(to_long(s, "IND"));
  });
  std::vector<double> values;
  if (value_type == 'R') {
    read_fields(in, valfmt, nnz, [&](const std::string& s, long) {
      values.push_back(to_double(s));
    });
  } else {
    values.assign(rowind.size(), 1.0);
  }

  // Validate the 1-based compressed structure, then expand through COO so
  // symmetric/skew variants unfold uniformly.
  if (colptr[0] != 1 || colptr[ncol] != nnz + 1) {
    throw std::runtime_error("HB: inconsistent column pointers");
  }
  CooMatrix coo(static_cast<int>(nrow), static_cast<int>(ncol));
  coo.reserve(rowind.size() * (mirrored ? 2 : 1));
  for (long j = 0; j < ncol; ++j) {
    if (colptr[j + 1] < colptr[j]) {
      throw std::runtime_error("HB: decreasing column pointer");
    }
    for (long k = colptr[j] - 1; k < colptr[j + 1] - 1; ++k) {
      long i = rowind[k] - 1;
      if (i < 0 || i >= nrow) throw std::runtime_error("HB: row index out of range");
      coo.add(static_cast<int>(i), static_cast<int>(j), values[k]);
      if (mirrored && i != j) {
        coo.add(static_cast<int>(j), static_cast<int>(i),
                symmetry == 'Z' ? -values[k] : values[k]);
      }
    }
  }
  if (info) *info = hdr;
  return coo.to_csc();
}

CscMatrix read_harwell_boeing_file(const std::string& path,
                                   HarwellBoeingInfo* info) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  return read_harwell_boeing(f, info);
}

}  // namespace plu
