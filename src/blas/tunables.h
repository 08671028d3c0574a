// Kernel-routing tunables, deduplicated from blas/level3.cpp and
// core/kernels.cpp (where they drifted as independent magic numbers).
// Everything here is a POLICY constant: changing a value moves work
// between engines, but never changes a computed factor bit (the routing
// contract in level3.h guarantees that).
#pragma once

namespace plu::blas::tunables {

// ---- packed GEMM microkernel shape -------------------------------------
// Register tile: kMr x kNr accumulators held across the whole k-loop.  The
// tile must fit the register file or the accumulators spill every
// iteration: 8 x 4 doubles = 8 ymm under AVX (PLU_NATIVE compiles
// -march=native and gets this), but baseline x86-64 has only 16 xmm
// registers, so the portable build uses a 4 x 4 tile (8 xmm, leaving room
// for the A vector and B broadcasts).
#if defined(__AVX__)
inline constexpr int kMr = 8;
#else
inline constexpr int kMr = 4;
#endif
inline constexpr int kNr = 4;

// Cache-blocking parameters (multiples of the register tile).  Modest,
// because the target blocks are small supernodal panels: an A block of
// kMc x kKc doubles is 128 KiB, a B block kKc x kNc the same.
inline constexpr int kMc = 64;
inline constexpr int kKc = 256;
inline constexpr int kNc = 64;

// Column-block width of the blocked right-side trsm (level3.cpp).
inline constexpr int kTrsmNb = 32;

// Panel width of the blocked getrf the factor kernel runs
// (core/kernels.cpp; was a bare literal there).
inline constexpr int kGetrfNb = 32;

// ---- gemm engine routing -----------------------------------------------
// The packed engine routes in only when the operation is big enough to
// amortize packing (m*n*k >= kPackThreshold flops-ish volume) AND op(B)
// carries at most kPackMaxZeroFrac numeric zeros (the direct engine's
// per-column zero skipping wins on sparser operands).  level3.cpp's auto
// router and the row-run updates (core/driver.cpp) consult the
// SAME two constants -- that shared definition is what makes the hinted
// path's decisions provably identical to the unhinted ones.
inline constexpr double kPackThreshold = 32768.0;
inline constexpr double kPackMaxZeroFrac = 1.0 / 16.0;

}  // namespace plu::blas::tunables
