#include "core/block_storage.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <new>
#include <stdexcept>
#include <thread>

#include "blas/level1.h"

namespace plu {

namespace {

constexpr std::size_t kAlignBytes = 64;
constexpr std::size_t kAlignDoubles = kAlignBytes / sizeof(double);

std::size_t align_up(std::size_t doubles) {
  return (doubles + kAlignDoubles - 1) & ~(kAlignDoubles - 1);
}

}  // namespace

const char* to_string(StorageMode) { return "arena"; }

void BlockMatrix::SlabUnmap::operator()(double* p) const {
  if (p != nullptr) munmap(reinterpret_cast<char*>(p) - lead, bytes);
}

BlockMatrix::Slab BlockMatrix::allocate_slab(std::size_t doubles) {
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t data = doubles * sizeof(double);
  const std::size_t body = (data + page - 1) / page * page;
  const std::size_t bytes = body + 2 * page;
  void* base =
      mmap(nullptr, bytes, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  char* const first = static_cast<char*>(base);
  if (mprotect(first + page, body, PROT_READ | PROT_WRITE) != 0) {
    munmap(base, bytes);
    throw std::bad_alloc();
  }
  // Flush against the trailing guard page; `data` is a multiple of 64
  // bytes, so the slab stays 64-byte aligned.
  const std::size_t lead = page + (body - data);
  return Slab(reinterpret_cast<double*>(first + lead), SlabUnmap{bytes, lead});
}

std::size_t BlockMatrix::describe_column(int j) {
  const symbolic::BlockStructure& bs = *bs_;
  blocks_[j].assign(bs.bpattern.col_begin(j), bs.bpattern.col_end(j));
  offsets_[j].resize(blocks_[j].size() + 1);
  int off = 0;
  for (std::size_t t = 0; t < blocks_[j].size(); ++t) {
    offsets_[j][t] = off;
    if (blocks_[j][t] == j) diag_pos_[j] = static_cast<int>(t);
    off += bs.part.width(blocks_[j][t]);
  }
  offsets_[j].back() = off;
  if (diag_pos_[j] == -1) {
    throw std::invalid_argument("BlockMatrix: diagonal block missing");
  }
  return static_cast<std::size_t>(off) * bs.part.width(j);
}

BlockMatrix::BlockMatrix(const symbolic::BlockStructure& bs, StorageMode,
                         int init_threads)
    : bs_(&bs) {
  const int nb = bs.num_blocks();
  blocks_.resize(nb);
  offsets_.resize(nb);
  diag_pos_.assign(nb, -1);
  col_ptr_.assign(nb, nullptr);
  col_doubles_.assign(nb, 0);

  // One sizing pass over the symbolic structure, then one aligned slab with
  // every column base on a 64-byte boundary.
  std::vector<std::size_t> base(nb);
  std::size_t total = 0;
  for (int j = 0; j < nb; ++j) {
    const std::size_t len = describe_column(j);
    base[j] = total;
    col_doubles_[j] = len;
    total += align_up(len);
  }
  arena_doubles_ = total;
  arena_ = allocate_slab(std::max(total, kAlignDoubles));
  for (int j = 0; j < nb; ++j) col_ptr_[j] = arena_.get() + base[j];

  // First-touch initialization: each thread zeroes one column range
  // (padding included), so the pages it faults in are the pages its range
  // lives on.
  const int workers = std::min(init_threads, nb);
  if (workers <= 1 || total < kParallelPassDoubles) {
    std::fill(arena_.get(), arena_.get() + total, 0.0);
    return;
  }
  const std::vector<int> ranges = column_ranges(workers);
  std::vector<std::thread> threads;
  threads.reserve(ranges.size() - 1);
  for (std::size_t r = 0; r + 1 < ranges.size(); ++r) {
    threads.emplace_back([this, lo = ranges[r], hi = ranges[r + 1]] {
      std::fill(col_ptr_[lo], range_end(hi), 0.0);
    });
  }
  for (std::thread& t : threads) t.join();
}

double* BlockMatrix::range_end(int end) const {
  return end < num_block_columns() ? col_ptr_[end]
                                   : arena_.get() + arena_doubles_;
}

std::vector<int> BlockMatrix::column_ranges(int parts) const {
  const int nb = num_block_columns();
  std::vector<int> ranges{0};
  if (nb == 0) return ranges;
  parts = std::max(1, std::min(parts, nb));
  // Cut before the first column whose buffer starts at or past each
  // 1/parts share of the slab.
  int j = 0;
  for (int r = 1; r < parts; ++r) {
    const std::size_t limit = arena_doubles_ / parts * r;
    while (j < nb &&
           static_cast<std::size_t>(col_ptr_[j] - arena_.get()) < limit) {
      ++j;
    }
    if (j > ranges.back() && j < nb) ranges.push_back(j);
  }
  ranges.push_back(nb);
  return ranges;
}

void BlockMatrix::load(const CscMatrix& a) {
  const Permutation identity(bs_->part.num_cols());
  const std::vector<std::uint64_t> slots =
      scatter_slots(*bs_, a.col_ptr(), a.row_ind(), identity, identity);
  scatter(a, slots, identity, {}, {}, 0, num_block_columns(), /*zero=*/true);
}

double BlockMatrix::scatter(const CscMatrix& a,
                            const std::vector<std::uint64_t>& slots,
                            const Permutation& col_perm,
                            const std::vector<double>& row_scale,
                            const std::vector<double>& col_scale, int begin,
                            int end, bool zero) {
  if (slots.size() != static_cast<std::size_t>(a.nnz()) ||
      a.cols() != bs_->part.num_cols()) {
    throw std::invalid_argument("BlockMatrix::scatter: slots do not match");
  }
  if (begin >= end) return 0.0;
  if (zero) std::fill(col_ptr_[begin], range_end(end), 0.0);
  const symbolic::SupernodePartition& part = bs_->part;
  const bool scaled = !row_scale.empty();
  const int* row = a.row_ind().data();
  const double* val = a.values().data();
  double scale = 0.0;
  for (int j = begin; j < end; ++j) {
    double* base = col_ptr_[j];
    for (int c = part.first(j); c < part.end(j); ++c) {
      const int col = col_perm.old_of(c);
      const double cs = scaled ? col_scale[col] : 1.0;
      for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
        const double v = scaled ? val[k] * (row_scale[row[k]] * cs) : val[k];
        base[slots[k]] = v;
        scale = std::max(scale, std::abs(v));
      }
    }
  }
  return scale;
}

std::vector<std::uint64_t> scatter_slots(const symbolic::BlockStructure& bs,
                                         const std::vector<int>& col_ptr,
                                         const std::vector<int>& row_ind,
                                         const Permutation& row_perm,
                                         const Permutation& col_perm) {
  const symbolic::SupernodePartition& part = bs.part;
  const int nb = bs.num_blocks();
  const int n = part.num_cols();
  if (col_ptr.size() != static_cast<std::size_t>(n) + 1) {
    throw std::invalid_argument("BlockMatrix: matrix/structure size mismatch");
  }
  std::vector<std::uint64_t> slots(row_ind.size());
  // Row offset of each row block inside the current block column's buffer,
  // valid where owner[bi] == that column.
  std::vector<int> owner(nb, -1);
  std::vector<int> offset(nb, 0);
  for (int j = 0; j < nb; ++j) {
    int height = 0;
    for (const int* b = bs.bpattern.col_begin(j); b != bs.bpattern.col_end(j);
         ++b) {
      owner[*b] = j;
      offset[*b] = height;
      height += part.width(*b);
    }
    for (int c = part.first(j); c < part.end(j); ++c) {
      const int old_col = col_perm.old_of(c);
      const std::uint64_t col_base =
          static_cast<std::uint64_t>(c - part.first(j)) * height;
      for (int k = col_ptr[old_col]; k < col_ptr[old_col + 1]; ++k) {
        if (row_ind[k] < 0 || row_ind[k] >= n) {
          throw std::invalid_argument(
              "BlockMatrix: matrix/structure size mismatch");
        }
        const int r = row_perm.new_of(row_ind[k]);
        const int bi = part.supernode_of(r);
        if (owner[bi] != j) {
          throw std::invalid_argument(
              "BlockMatrix: matrix entry outside the block pattern");
        }
        slots[k] = col_base + offset[bi] + (r - part.first(bi));
      }
    }
  }
  return slots;
}

void BlockMatrix::set_zero() {
  std::fill(arena_.get(), arena_.get() + arena_doubles_, 0.0);
}

std::size_t BlockMatrix::storage_bytes() const {
  return arena_doubles_ * sizeof(double);
}

int BlockMatrix::block_pos(int i, int j) const {
  const auto& bl = blocks_[j];
  auto it = std::lower_bound(bl.begin(), bl.end(), i);
  if (it == bl.end() || *it != i) return -1;
  return static_cast<int>(it - bl.begin());
}

int BlockMatrix::block_offset(int i, int j) const {
  int p = block_pos(i, j);
  return p < 0 ? -1 : offsets_[j][p];
}

blas::MatrixView BlockMatrix::block(int i, int j) {
  int off = block_offset(i, j);
  assert(off >= 0);
  const int height = column_height(j);
  return {col_ptr_[j] + off, bs_->part.width(i), bs_->part.width(j), height};
}

blas::ConstMatrixView BlockMatrix::block(int i, int j) const {
  int off = block_offset(i, j);
  assert(off >= 0);
  const int height = column_height(j);
  return {col_ptr_[j] + off, bs_->part.width(i), bs_->part.width(j), height};
}

blas::MatrixView BlockMatrix::panel(int k) {
  const int height = column_height(k);
  const int off = offsets_[k][diag_pos_[k]];
  return {col_ptr_[k] + off, height - off, bs_->part.width(k), height};
}

blas::ConstMatrixView BlockMatrix::panel(int k) const {
  const int height = column_height(k);
  const int off = offsets_[k][diag_pos_[k]];
  return {col_ptr_[k] + off, height - off, bs_->part.width(k), height};
}

int BlockMatrix::panel_height(int k) const {
  return column_height(k) - offsets_[k][diag_pos_[k]];
}

int BlockMatrix::column_height(int j) const { return offsets_[j].back(); }

int BlockMatrix::panel_row_in_column(int k, int j, int p) const {
  const std::vector<int>& off = offsets_[k];
  const int q = off[diag_pos_[k]] + p;  // row inside column k's buffer
  const int t = static_cast<int>(
      std::upper_bound(off.begin() + diag_pos_[k], off.end() - 1, q) -
      off.begin() - 1);
  const int o = block_offset(blocks_[k][t], j);
  if (o < 0) {
    throw std::logic_error(
        "BlockMatrix::panel_row_in_column: closure violation (block missing "
        "in target column)");
  }
  return o + (q - off[t]);
}

void BlockMatrix::swap_rows(int j, int r1, int r2) {
  if (r1 == r2) return;
  const int height = column_height(j);
  blas::swap(bs_->part.width(j), col_ptr_[j] + r1, height, col_ptr_[j] + r2,
             height);
}

blas::MatrixView BlockMatrix::column(int j) {
  const int height = column_height(j);
  return {col_ptr_[j], height, bs_->part.width(j), height};
}

blas::ConstMatrixView BlockMatrix::column(int j) const {
  const int height = column_height(j);
  return {col_ptr_[j], height, bs_->part.width(j), height};
}

blas::DenseMatrix BlockMatrix::to_dense() const {
  const int n = bs_->part.num_cols();
  blas::DenseMatrix d(n, n);
  for (int j = 0; j < num_block_columns(); ++j) {
    for (std::size_t t = 0; t < blocks_[j].size(); ++t) {
      const int bi = blocks_[j][t];
      blas::ConstMatrixView b = block(bi, j);
      for (int c = 0; c < b.cols; ++c) {
        for (int r = 0; r < b.rows; ++r) {
          d(bs_->part.first(bi) + r, bs_->part.first(j) + c) = b(r, c);
        }
      }
    }
  }
  return d;
}

std::size_t BlockMatrix::stored_doubles() const {
  std::size_t total = 0;
  for (std::size_t len : col_doubles_) total += len;
  return total;
}

}  // namespace plu
