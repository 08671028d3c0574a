// Dense-block storage of the factored matrix (the S+ layout).
//
// Each block column j owns one column-major buffer stacking the dense
// submatrix blocks of its structurally nonzero row blocks in ascending
// order: U blocks (i < j), the diagonal block, then L blocks (i > j).
// Because row blocks are sorted, the Factor(k) panel -- diagonal block plus
// L blocks -- is a contiguous tail of block column k's buffer, directly
// usable as a getrf operand.
//
// Storage backing: ONE contiguous 64-byte-aligned slab sized exactly from
// the symbolic block structure, with every column buffer starting on a
// 64-byte boundary inside it.  The slab is its own anonymous mapping with a
// guard page at each end (BlockMatrix::allocate_slab).  One allocation
// instead of one per block column, and every O(storage) pass -- zeroing,
// loading, scanning -- can work on contiguous column ranges
// (column_ranges()), which Factorization hands to the run's workers.
//
// Explicit zeros inside blocks are stored and computed on, exactly as in
// S*/S+ ("even if some operations will involve zero elements").
//
// Loading values (scatter slots): where an input entry lands depends only
// on the symbolic structure and the analysis permutations, so
// scatter_slots() computes it once per pattern -- one 64-bit offset per
// entry, inside the buffer of the entry's block column -- and
// BlockMatrix::scatter() is then a single pass `column_base[slot[k]] = v`
// with no search and no permuted copy of the matrix.  The analysis keeps
// the slots of its input pattern (Analysis::input_slots), so every
// refactorization of that pattern reuses them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "blas/dense.h"
#include "matrix/csc.h"
#include "matrix/permutation.h"
#include "symbolic/blocks.h"

namespace plu {

/// The block storage backing.  The arena is the only one; the enum stays
/// so the constructor keeps its signature for callers that name it.
enum class StorageMode {
  kArena,  // one contiguous 64-byte-aligned arena
};

const char* to_string(StorageMode m);

/// Slabs of at least this many doubles (8 MiB) have their O(storage) passes
/// -- the constructor's first-touch fill, a factorization's load and scan,
/// the triangular solve's tree tasks -- spread over worker threads; below
/// it a hand-off to the workers costs more than the pass.
inline constexpr std::size_t kParallelPassDoubles = std::size_t(1) << 20;

/// Scatter slots of the pattern (col_ptr, row_ind) over `bs`: for entry k of
/// original column j and row i, the offset of (row_perm.new_of(i),
/// col_perm.new_of(j)) inside the buffer of the block column holding
/// col_perm.new_of(j).  Throws std::invalid_argument when an entry falls
/// outside the block pattern.
std::vector<std::uint64_t> scatter_slots(const symbolic::BlockStructure& bs,
                                         const std::vector<int>& col_ptr,
                                         const std::vector<int>& row_ind,
                                         const Permutation& row_perm,
                                         const Permutation& col_perm);

class BlockMatrix {
 public:
  /// Allocates zeroed storage for the block structure.  `bs` must outlive
  /// the BlockMatrix.  With `init_threads` > 1 and a slab of at least
  /// kParallelPassDoubles, the initial zeroing fans out over that many
  /// std::threads, each touching one column_ranges() range first (NUMA
  /// first-touch placement).  This fill is the only zeroing a fresh slab
  /// needs; the threads stay only for callers that construct a BlockMatrix
  /// without a Factorization (and its workers) around it.
  explicit BlockMatrix(const symbolic::BlockStructure& bs,
                       StorageMode mode = StorageMode::kArena,
                       int init_threads = 1);

  BlockMatrix(BlockMatrix&&) noexcept = default;
  BlockMatrix& operator=(BlockMatrix&&) noexcept = default;
  BlockMatrix(const BlockMatrix&) = delete;
  BlockMatrix& operator=(const BlockMatrix&) = delete;

  const symbolic::BlockStructure& structure() const { return *bs_; }
  int num_block_columns() const { return bs_->num_blocks(); }

  /// Bytes of block storage held (arena capacity incl. alignment
  /// padding) -- the peak numeric footprint surfaced in
  /// FactorizationReport.
  std::size_t storage_bytes() const;

  /// Zeroes the storage, then scatters a CSC matrix (already permuted to
  /// the analysis ordering) into the blocks: scatter() over
  /// scatter_slots() with identity permutations.  Throws
  /// std::invalid_argument if an entry falls outside the block pattern.
  void load(const CscMatrix& a);

  /// Splits the block columns into at most `parts` contiguous ranges of
  /// about equal slab length: returns the bounds, ranges[r] .. ranges[r+1],
  /// with front() == 0 and back() == num_block_columns().  Ranges that would
  /// be empty are dropped.
  std::vector<int> column_ranges(int parts) const;

  /// Loads block columns [begin, end): zeroes their buffers (padding
  /// included) when `zero`, then writes the values of the original columns
  /// col_perm.old_of(c) of `a` for every scalar column c they hold, through
  /// `slots` (scatter_slots() of a's pattern with `col_perm`).  With
  /// non-empty scale vectors (indexed by original row / column) entry
  /// (i, j) is stored as a(i, j) * (row_scale[i] * col_scale[j]).  Other
  /// positions are left as they are, so without `zero` they must be zero
  /// already (a freshly constructed slab).  Returns the largest |stored
  /// value| of the range (NaN never enters the max, as in blas::max_abs),
  /// so the maximum over any split of the columns is bitwise the same.
  /// Distinct ranges touch disjoint memory and may load concurrently.
  double scatter(const CscMatrix& a, const std::vector<std::uint64_t>& slots,
                 const Permutation& col_perm,
                 const std::vector<double>& row_scale,
                 const std::vector<double>& col_scale, int begin, int end,
                 bool zero);

  /// Resets all values to zero: one contiguous fill of the slab.  A
  /// refactorization does not call it -- its load zeroes each column range
  /// just before scattering into it.
  void set_zero();

  /// Dense view of block (i, j); block must be structurally present.
  blas::MatrixView block(int i, int j);
  blas::ConstMatrixView block(int i, int j) const;

  /// Contiguous panel of block column k: rows of all blocks i >= k.
  blas::MatrixView panel(int k);
  blas::ConstMatrixView panel(int k) const;

  /// Number of rows in panel(k) (diagonal width + L row widths).
  int panel_height(int k) const;

  /// Total rows of block column j's buffer.
  int column_height(int j) const;

  /// Sorted structurally-nonzero row blocks of column j.
  const std::vector<int>& column_blocks(int j) const { return blocks_[j]; }

  /// Row offset of block i inside column j's buffer; -1 if absent.
  int block_offset(int i, int j) const;

  /// Buffer row (in column j) of row p of panel k.  The row block holding
  /// it must be present in column j (guaranteed by block-level closure when
  /// Update(k, j) exists); std::logic_error otherwise.  Two binary searches,
  /// no allocation.
  int panel_row_in_column(int k, int j, int p) const;

  /// Swaps buffer rows r1 and r2 of column j (all of its width).
  void swap_rows(int j, int r1, int r2);

  /// Raw column buffer view (rows = column_height(j), ld likewise).
  blas::MatrixView column(int j);
  blas::ConstMatrixView column(int j) const;

  /// Reconstructs the dense matrix this block storage represents (tests on
  /// small problems only).
  blas::DenseMatrix to_dense() const;

  /// Sum of all buffer sizes, in doubles (memory diagnostics; excludes
  /// alignment padding).
  std::size_t stored_doubles() const;

 private:
  /// Unmaps a slab: `bytes` is the whole mapping, guard pages included,
  /// and `lead` the distance from its start to the slab pointer.
  struct SlabUnmap {
    std::size_t bytes;
    std::size_t lead;
    void operator()(double* p) const;
  };
  using Slab = std::unique_ptr<double[], SlabUnmap>;

  /// Maps a slab of `doubles` (a multiple of 8) straight from the kernel,
  /// between two PROT_NONE guard pages and flush against the trailing one,
  /// so an access past either end faults.  Freed slabs go back to the
  /// kernel at once instead of staying resident in a malloc arena.
  static Slab allocate_slab(std::size_t doubles);

  int block_pos(int i, int j) const;  // index of block i in blocks_[j]; -1 absent

  /// End of the slab stretch of block columns [.., end): the next column's
  /// buffer, or the slab's end (padding included).
  double* range_end(int end) const;

  /// Computes blocks_/offsets_/diag_pos_ for column j from the block
  /// pattern and returns its buffer length in doubles.
  std::size_t describe_column(int j);

  const symbolic::BlockStructure* bs_;

  Slab arena_;
  std::size_t arena_doubles_ = 0;

  std::vector<double*> col_ptr_;            // base pointer per block column
  std::vector<std::size_t> col_doubles_;    // buffer length per block column
  std::vector<std::vector<int>> blocks_;    // sorted row-block ids
  std::vector<std::vector<int>> offsets_;   // per column: offset per block + total
  std::vector<int> diag_pos_;               // position of diagonal block in blocks_[j]
};

}  // namespace plu
