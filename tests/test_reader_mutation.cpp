// Deterministic mutation corpus for the Matrix Market and Harwell-Boeing
// readers.
//
// Every reader fixture (reader_fixtures.h) is mutated three ways -- every
// truncation length, seeded byte flips (1-3 bytes each), and each size
// field of the header replaced by inflated values -- and every mutant must
// either parse to a valid() matrix or throw a std::exception.  While a
// mutant parses, a replacement global operator new caps the bytes the
// reader holds at kCapBytes: a request beyond it is refused (std::bad_alloc)
// AND counted, so a reader that sizes buffers from an unchecked header field
// fails here without taking the machine's memory.  The cap covers the
// largest column-pointer array the Matrix Market dimension limit admits
// (kMaxMatrixMarketDimension columns) plus the temporaries of a tiny file.
// Carries the `sanitize` ctest label, so ASan+UBSan see every mutant.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "matrix/hb_io.h"
#include "matrix/io.h"
#include "reader_fixtures.h"

namespace {

constexpr long kCapBytes = 96L << 20;

// Live bytes handed out by operator new, the level when the cap was armed,
// and the requests refused since.
std::atomic<long> g_live{0};
std::atomic<bool> g_armed{false};
long g_base = 0;
long g_refused = 0;

// 16-byte header keeps the default new alignment and records the size.
constexpr std::size_t kHeader = 16;

void* counted_new(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    const long above = g_live.load(std::memory_order_relaxed) - g_base;
    if (n > static_cast<std::size_t>(kCapBytes) ||
        above + static_cast<long>(n) > kCapBytes) {
      ++g_refused;
      throw std::bad_alloc();
    }
  }
  void* p = std::malloc(n + kHeader);
  if (p == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(p) = n;
  g_live.fetch_add(static_cast<long>(n), std::memory_order_relaxed);
  return static_cast<char*>(p) + kHeader;
}

void counted_delete(void* q) noexcept {
  if (q == nullptr) return;
  void* p = static_cast<char*>(q) - kHeader;
  g_live.fetch_sub(static_cast<long>(*static_cast<std::size_t*>(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_delete(p);
}

namespace plu {
namespace {

using Reader = CscMatrix (*)(std::istream&);

CscMatrix read_mm(std::istream& in) { return read_matrix_market(in); }
CscMatrix read_hb(std::istream& in) { return read_harwell_boeing(in); }

struct Tally {
  long parsed = 0;
  long threw = 0;
};

/// Parses one mutant under the allocation cap.  Fails the test when the
/// parse yields an invalid matrix, throws something that is not a
/// std::exception, or asks for memory beyond the cap.
void run_mutant(Reader read, const std::string& text, const std::string& what,
                Tally& tally) {
  std::istringstream in(text);
  g_refused = 0;
  g_base = g_live.load();
  g_armed = true;
  bool parsed = false;
  bool valid = true;
  bool foreign = false;
  try {
    const CscMatrix a = read(in);
    valid = a.valid();
    parsed = true;
  } catch (const std::exception&) {
  } catch (...) {
    foreign = true;
  }
  g_armed = false;
  EXPECT_EQ(g_refused, 0) << what << ": allocation beyond " << kCapBytes
                          << " bytes";
  EXPECT_FALSE(foreign) << what << ": threw a non-std::exception";
  EXPECT_TRUE(valid) << what << ": parsed to an invalid matrix";
  (parsed ? tally.parsed : tally.threw) += 1;
}

/// Every proper prefix of the fixture, including the empty one.
void truncations(Reader read, const std::string& fixture,
                 const std::string& name, Tally& tally) {
  for (std::size_t len = 0; len < fixture.size(); ++len) {
    run_mutant(read, fixture.substr(0, len),
               name + " truncated to " + std::to_string(len), tally);
  }
}

/// `count` mutants with 1-3 bytes replaced by seeded random bytes.
void byte_flips(Reader read, const std::string& fixture,
                const std::string& name, std::uint64_t seed, int count,
                Tally& tally) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pos(0, fixture.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> flips(1, 3);
  for (int m = 0; m < count; ++m) {
    std::string s = fixture;
    const int f = flips(rng);
    for (int i = 0; i < f; ++i) s[pos(rng)] = static_cast<char>(byte(rng));
    run_mutant(read, s, name + " flip mutant " + std::to_string(m), tally);
  }
}

/// Replacement values for a size field: inflated versions of the original,
/// values at and past the Matrix Market and int limits, and a negative one.
std::vector<long long> inflated(long long original) {
  return {original * 10,
          original * 1000,
          kMaxMatrixMarketDimension,
          kMaxMatrixMarketDimension + 1,
          2147483647LL,
          2147483648LL,
          99999999999999LL,
          -7};
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& l : lines) text += l + "\n";
  return text;
}

/// Matrix Market: each token of the size line (rows, cols, nnz) inflated.
void inflate_mm(const std::string& fixture, const std::string& name,
                Tally& tally) {
  const std::vector<std::string> lines = split_lines(fixture);
  std::size_t size_line = 1;
  while (size_line < lines.size() && lines[size_line][0] == '%') ++size_line;
  ASSERT_LT(size_line, lines.size()) << name;
  std::istringstream sizes(lines[size_line]);
  long long field[3] = {0, 0, 0};
  sizes >> field[0] >> field[1] >> field[2];
  for (int f = 0; f < 3; ++f) {
    for (long long v : inflated(field[f])) {
      long long out[3] = {field[0], field[1], field[2]};
      out[f] = v;
      std::vector<std::string> m = lines;
      m[size_line] = std::to_string(out[0]) + " " + std::to_string(out[1]) +
                     " " + std::to_string(out[2]);
      run_mutant(read_mm, join_lines(m),
                 name + " size field " + std::to_string(f) + " = " +
                     std::to_string(v),
                 tally);
    }
  }
}

/// Harwell-Boeing: every 14-column count of header lines 2 (card counts)
/// and 3 (NROW, NCOL, NNZERO, NELTVL) inflated in place.
void inflate_hb(const std::string& fixture, const std::string& name,
                Tally& tally) {
  const std::vector<std::string> lines = split_lines(fixture);
  ASSERT_GE(lines.size(), 4u) << name;
  const struct {
    std::size_t line;
    std::size_t begin;
  } fields[] = {{1, 0},  {1, 14}, {1, 28}, {1, 42}, {1, 56},
                {2, 14}, {2, 28}, {2, 42}, {2, 56}};
  for (const auto& fld : fields) {
    const long long original =
        std::atoll(lines[fld.line].substr(fld.begin, 14).c_str());
    for (long long v : inflated(original)) {
      std::string value = std::to_string(v);
      value.insert(0, 14 - value.size(), ' ');
      std::vector<std::string> m = lines;
      m[fld.line].replace(fld.begin, 14, value);
      run_mutant(read_hb, join_lines(m),
                 name + " header line " + std::to_string(fld.line + 1) +
                     " column " + std::to_string(fld.begin) + " = " + value,
                 tally);
    }
  }
}

TEST(ReaderMutation, CapRefusesOversizedRequests) {
  // Negative control: the cap must really be in force while armed (a
  // sanitizer runtime that bypassed the replacement operator new would
  // make every other test here vacuous).
  g_refused = 0;
  g_base = g_live.load();
  g_armed = true;
  bool refused = false;
  try {
    std::vector<char> big(static_cast<std::size_t>(kCapBytes) + 1);
    big[0] = 1;
  } catch (const std::bad_alloc&) {
    refused = true;
  }
  g_armed = false;
  EXPECT_TRUE(refused);
  EXPECT_EQ(g_refused, 1);
}

TEST(ReaderMutation, MatrixMarketCorpus) {
  const std::pair<const char*, std::string> fixtures[] = {
      {"mm general", test::mm_general_fixture()},
      {"mm symmetric", test::mm_symmetric_fixture()},
      {"mm skew", test::mm_skew_fixture()},
      {"mm pattern", test::mm_pattern_fixture()},
  };
  Tally tally;
  std::uint64_t seed = 1;
  for (const auto& [name, text] : fixtures) {
    truncations(read_mm, text, name, tally);
    byte_flips(read_mm, text, name, seed++, 1500, tally);
    inflate_mm(text, name, tally);
  }
  // Both outcomes occur: the corpus is neither all-garbage nor all-benign.
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.threw, 0);
}

TEST(ReaderMutation, HarwellBoeingCorpus) {
  const std::pair<const char*, std::string> fixtures[] = {
      {"hb rua", test::hb_rua_fixture()},
      {"hb rsa", test::hb_rsa_fixture()},
      {"hb pua", test::hb_pua_fixture()},
  };
  Tally tally;
  std::uint64_t seed = 101;
  for (const auto& [name, text] : fixtures) {
    truncations(read_hb, text, name, tally);
    byte_flips(read_hb, text, name, seed++, 1500, tally);
    inflate_hb(text, name, tally);
  }
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.threw, 0);
}

}  // namespace
}  // namespace plu
