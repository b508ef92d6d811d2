// Principal frames for kd trees (DESIGN.md §17).
//
// KARL's bounds read a query only through ‖q‖², q·a_P and a node
// region's distance or inner-product range, and all but the region are
// unchanged when the points and the query are rotated together. An
// axis-aligned box is exactly what goes wrong on data that lie along
// oblique directions: it covers mostly empty space. A kd tree built in
// the frame of its data's principal axes has boxes aligned with the
// data instead. The frame is applied without translation, x' = Tᵀx, so
// distances and inner products are both kept and every kernel family
// and bound family stays valid.

#ifndef KARL_INDEX_PRINCIPAL_FRAME_H_
#define KARL_INDEX_PRINCIPAL_FRAME_H_

#include <cstddef>
#include <span>
#include <string_view>

#include "data/matrix.h"
#include "index/tree_index.h"

namespace karl::index {

/// Rows FitPrincipalFrame samples, at most.
inline constexpr size_t kFrameSampleRows = 512;

/// Principal axes a fitted frame aligns with: one per kDimsPerFrameAxis
/// dimensions, rounded up, at most kFrameAxes. The frame is the product
/// of that many Householder reflections, so a point or a query enters it
/// in 2·k·d multiply-adds.
inline constexpr size_t kFrameAxes = 4;
inline constexpr size_t kDimsPerFrameAxis = 5;

/// True iff a tree of `kind` over `d` dimensions is built in a fitted
/// frame: kd trees with 2 ≤ d ≤ kMaxFrameDims. Ball trees are
/// rotation-invariant, so a frame buys them nothing; past kMaxFrameDims
/// the fit's d² scatter and d³ eigensolve cost more than the tighter
/// boxes save.
bool TakesPrincipalFrame(IndexKind kind, size_t d);

/// Fits the principal frame of `points` (2 ≤ cols ≤ kMaxFrameDims). Its
/// first k = min(kFrameAxes, ⌈d / kDimsPerFrameAxis⌉) axes are the top
/// eigenvectors of the centred covariance of a strided sample of at most
/// kFrameSampleRows rows, in decreasing variance; the rest complete them
/// to an orthonormal basis. Tᵀ is the product of k Householder
/// reflections, and the result carries their unit vectors
/// (Frame::reflectors). The frame
/// is kept only if the sample's summed per-axis extent shrinks in it;
/// otherwise — isotropic data, data already aligned with the axes, or a
/// non-finite sample value, which the build then reports — the identity
/// comes back, with the ratio that decided it. Deterministic, and the
/// same bits under every SIMD tier.
Frame FitPrincipalFrame(const data::Matrix& points);

/// "principal" for a tree stored in a fitted frame, "identity" otherwise.
std::string_view FrameName(const TreeIndex& tree);

/// |‖v‖² − 1| for one reflector `v` of a frame (NaN if `v` is not
/// finite).
double FrameReflectorNormError(std::span<const double> v);

/// The largest FrameReflectorNormError an attached frame may show at `d`
/// dimensions: a few ulp per term of a d-term sum.
double FrameReflectorNormTolerance(size_t d);

}  // namespace karl::index

#endif  // KARL_INDEX_PRINCIPAL_FRAME_H_
