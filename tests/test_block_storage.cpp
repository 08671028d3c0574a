// Dense-block storage: allocation, scatter/gather, views, row swaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/block_storage.h"
#include "test_helpers.h"

namespace plu {
namespace {

struct Fixture {
  Analysis an;
  CscMatrix permuted;
  explicit Fixture(const CscMatrix& a) : an(analyze(a)), permuted(an.permute_input(a)) {}
};

TEST(BlockMatrix, LoadThenToDenseRoundTrips) {
  for (const CscMatrix& a : test::small_matrices()) {
    Fixture f(a);
    BlockMatrix bm(f.an.blocks);
    bm.load(f.permuted);
    blas::DenseMatrix d = bm.to_dense();
    for (int j = 0; j < a.cols(); ++j) {
      for (int i = 0; i < a.rows(); ++i) {
        EXPECT_DOUBLE_EQ(d(i, j), f.permuted.at(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(BlockMatrix, ColumnHeightsAndOffsetsConsistent) {
  CscMatrix a = test::small_matrices()[0];
  Fixture f(a);
  BlockMatrix bm(f.an.blocks);
  const auto& part = f.an.blocks.part;
  for (int j = 0; j < bm.num_block_columns(); ++j) {
    int h = 0;
    for (int i : bm.column_blocks(j)) {
      EXPECT_EQ(bm.block_offset(i, j), h);
      h += part.width(i);
    }
    EXPECT_EQ(bm.column_height(j), h);
    EXPECT_EQ(bm.panel_height(j),
              part.width(j) + h - bm.block_offset(j, j) - part.width(j));
  }
}

TEST(BlockMatrix, PanelIsContiguousTail) {
  CscMatrix a = test::small_matrices()[1];
  Fixture f(a);
  BlockMatrix bm(f.an.blocks);
  bm.load(f.permuted);
  const auto& part = f.an.blocks.part;
  for (int k = 0; k < bm.num_block_columns(); ++k) {
    blas::MatrixView p = bm.panel(k);
    EXPECT_EQ(p.cols, part.width(k));
    EXPECT_EQ(p.rows, bm.panel_height(k));
    // Top-left of the panel is the diagonal block.
    blas::MatrixView diag = bm.block(k, k);
    EXPECT_EQ(diag.data, p.data);
  }
}

TEST(BlockMatrix, BlockViewMatchesLoadedValues) {
  CscMatrix a = test::small_matrices()[2];
  Fixture f(a);
  BlockMatrix bm(f.an.blocks);
  bm.load(f.permuted);
  const auto& part = f.an.blocks.part;
  for (int j = 0; j < bm.num_block_columns(); ++j) {
    for (int i : bm.column_blocks(j)) {
      blas::ConstMatrixView b = std::as_const(bm).block(i, j);
      for (int c = 0; c < b.cols; ++c) {
        for (int r = 0; r < b.rows; ++r) {
          EXPECT_DOUBLE_EQ(b(r, c),
                           f.permuted.at(part.first(i) + r, part.first(j) + c));
        }
      }
    }
  }
}

TEST(BlockMatrix, SwapRowsTouchesOnlyThatColumn) {
  CscMatrix a = test::small_matrices()[0];
  Fixture f(a);
  BlockMatrix bm(f.an.blocks);
  bm.load(f.permuted);
  if (bm.column_height(0) < 2) GTEST_SKIP();
  blas::DenseMatrix before = bm.to_dense();
  bm.swap_rows(0, 0, 1);
  bm.swap_rows(0, 0, 1);  // involution
  blas::DenseMatrix after = bm.to_dense();
  EXPECT_LT(blas::max_abs_diff(before.view(), after.view()), 1e-300);
}

TEST(BlockMatrix, PanelRowsInColumnCoverPanel) {
  CscMatrix a = test::small_matrices()[3];
  Fixture f(a);
  BlockMatrix bm(f.an.blocks);
  for (int k = 0; k < bm.num_block_columns(); ++k) {
    for (int j : f.an.blocks.u_blocks(k)) {
      // Every panel row lands inside the column buffer, strictly
      // increasing (row blocks are sorted in both columns).
      int prev = -1;
      for (int p = 0; p < bm.panel_height(k); ++p) {
        const int r = bm.panel_row_in_column(k, j, p);
        EXPECT_GT(r, prev);
        EXPECT_LT(r, bm.column_height(j));
        prev = r;
      }
    }
  }
}

TEST(BlockMatrix, LoadRejectsEntryOutsidePattern) {
  CscMatrix a = test::small_matrices()[0];
  Fixture f(a);
  BlockMatrix bm(f.an.blocks);
  // Dense matrix of the same size has entries everywhere; most fall outside
  // the block pattern of a sparse analysis.
  CooMatrix dense_coo(a.rows(), a.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) dense_coo.add(i, j, 1.0);
  }
  EXPECT_THROW(bm.load(dense_coo.to_csc()), std::invalid_argument);
}

TEST(BlockMatrix, SetZeroClearsEverything) {
  CscMatrix a = test::small_matrices()[4];
  Fixture f(a);
  BlockMatrix bm(f.an.blocks);
  bm.load(f.permuted);
  EXPECT_GT(blas::max_abs(bm.to_dense().view()), 0.0);
  bm.set_zero();
  EXPECT_DOUBLE_EQ(blas::max_abs(bm.to_dense().view()), 0.0);
  EXPECT_GT(bm.stored_doubles(), static_cast<std::size_t>(a.nnz()));
}

// ---------------------------------------------------------------------------
// Arena storage: one aligned slab for all block columns.

TEST(ArenaStorage, ColumnBasesAre64ByteAligned) {
  CscMatrix a = test::small_matrices()[2];
  Fixture f(a);
  BlockMatrix bm(f.an.blocks, StorageMode::kArena);
  for (int j = 0; j < bm.num_block_columns(); ++j) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bm.column(j).data) % 64, 0u)
        << "column " << j;
  }
}

TEST(ArenaStorage, StorageBytesCoversStoredDoubles) {
  CscMatrix a = test::small_matrices()[1];
  Fixture f(a);
  BlockMatrix arena(f.an.blocks, StorageMode::kArena);
  // Capacity (incl. alignment padding) can only exceed the payload.
  EXPECT_GE(arena.storage_bytes(), 8 * arena.stored_doubles());
  // Padding is bounded: < 64 bytes per block column.
  EXPECT_LT(arena.storage_bytes(),
            8 * arena.stored_doubles() +
                64 * static_cast<std::size_t>(arena.num_block_columns()));
}

TEST(ArenaStorage, SetZeroThenReloadRefactorizes) {
  CscMatrix a = test::small_matrices()[3];
  Fixture f(a);
  BlockMatrix bm(f.an.blocks, StorageMode::kArena);
  bm.load(f.permuted);
  blas::DenseMatrix first = bm.to_dense();
  bm.set_zero();  // the contiguous-fill refactorization path
  EXPECT_DOUBLE_EQ(blas::max_abs(bm.to_dense().view()), 0.0);
  bm.load(f.permuted);
  EXPECT_LT(blas::max_abs_diff(first.view(), bm.to_dense().view()), 1e-300);
}

TEST(ArenaStorage, ThreadedFirstTouchInitMatchesSequential) {
  CscMatrix a = test::small_matrices()[0];
  Fixture f(a);
  BlockMatrix seq(f.an.blocks, StorageMode::kArena, 1);
  BlockMatrix par(f.an.blocks, StorageMode::kArena, 8);
  seq.load(f.permuted);
  par.load(f.permuted);
  EXPECT_LT(blas::max_abs_diff(seq.to_dense().view(), par.to_dense().view()),
            1e-300);
}

TEST(ArenaStorage, RangeLoadsMatchOneLoad) {
  // Any split of the columns loads the same bits and the same max as one
  // range, and a zeroing range load clears what an earlier load left.
  for (const CscMatrix& a : test::small_matrices()) {
    Fixture f(a);
    const std::vector<std::uint64_t>& slots = f.an.input_slots;
    BlockMatrix whole(f.an.blocks);
    const double whole_max =
        whole.scatter(a, slots, f.an.col_perm, f.an.row_scale,
                      f.an.col_scale, 0, whole.num_block_columns(), false);
    for (int parts : {1, 2, 3, 7, 1000}) {
      BlockMatrix split(f.an.blocks);
      split.load(f.permuted);  // stale values the zeroing load must clear
      const std::vector<int> ranges = split.column_ranges(parts);
      ASSERT_EQ(ranges.front(), 0);
      ASSERT_EQ(ranges.back(), split.num_block_columns());
      EXPECT_LE(static_cast<int>(ranges.size()) - 1, parts);
      double split_max = 0.0;
      for (std::size_t r = 0; r + 1 < ranges.size(); ++r) {
        ASSERT_LT(ranges[r], ranges[r + 1]) << "parts " << parts;
        split_max = std::max(
            split_max, split.scatter(a, slots, f.an.col_perm, f.an.row_scale,
                                     f.an.col_scale, ranges[r], ranges[r + 1],
                                     true));
      }
      EXPECT_EQ(split_max, whole_max) << "parts " << parts;
      for (int j = 0; j < whole.num_block_columns(); ++j) {
        blas::ConstMatrixView x = whole.column(j);
        blas::ConstMatrixView y = split.column(j);
        ASSERT_EQ(0, std::memcmp(x.data, y.data,
                                 8 * std::size_t(x.rows) * x.cols))
            << "parts " << parts << " column " << j;
      }
    }
  }
}

TEST(ArenaStorage, MoveTransfersOwnership) {
  CscMatrix a = test::small_matrices()[0];
  Fixture f(a);
  BlockMatrix bm(f.an.blocks, StorageMode::kArena);
  bm.load(f.permuted);
  blas::DenseMatrix before = bm.to_dense();
  const double* base = bm.column(0).data;
  BlockMatrix moved = std::move(bm);
  EXPECT_EQ(moved.column(0).data, base);  // no reallocation, no copy
  EXPECT_LT(blas::max_abs_diff(before.view(), moved.to_dense().view()),
            1e-300);
}

TEST(ArenaStorage, ToStringNames) {
  EXPECT_STREQ(to_string(StorageMode::kArena), "arena");
}

}  // namespace
}  // namespace plu
