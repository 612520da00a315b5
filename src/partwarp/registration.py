"""Rigid and non-rigid point-cloud registration.

The non-rigid path is coherent point drift (Myronenko & Song, "Point Set
Registration: Coherent Point Drift", TPAMI 2010): an EM fit of a Gaussian
mixture whose centroids are the source points, regularized by a
motion-coherence kernel so nearby source points move together. Its M-step is
solved in the leading eigenbasis of the kernel's Gram matrix, the paper's
low-rank "fast" CPD, so each iteration solves a small system instead of a
dense one over all source points. Its E-step runs in one (n, m) buffer that
geom.ChamferQuery fills with one GEMM per iteration. Exponents are raised to
a floor before exp and exp of the floor is taken off after, so Gaussians too
small to matter are exact zeros, which keeps exp and every later pass over
the block off float64's slow subnormal paths. The responsibilities are never
formed: a second GEMM, of the block's transpose with the row weights and the
weighted target points, gives both sums the M-step reads. The rigid path is
the SVD orthogonal-Procrustes solve (kabsch), which also gives a defined
result on a point or a line: the least-squares transform with the smallest
rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .geom import ChamferQuery, PointCloud, RigidTransform, rotation_about_axis, sqdist

__all__ = [
    "CpdConfig",
    "DisplacementField",
    "cpd_nonrigid",
    "kabsch",
]

# Eigenpairs of the coherence Gram below this fraction of its largest
# eigenvalue are dropped. The Gaussian kernel's spectrum decays fast: at the
# default beta, 31-68 pairs survive on the three tasks' training clouds of
# 80-880 points (training seed 0, benchmark and default sizing), and a field
# moves by at most about 1e-6 of its largest displacement from the full
# solve's (2e-4 at a cutoff of 1e-10).
_GRAM_EIG_CUTOFF = 1e-12

# E-step exponents -d^2 / (2 sigma^2) are raised to this floor before exp,
# and exp of the floor is subtracted after, so an exponent at or below it
# gives a Gaussian of exactly 0. Late in a fit sigma^2 is small and most of
# the (n, m) block lies below -708. There numpy's exp leaves its fast path:
# about 1 ns an element in range, 19 ns below -746 and 142 ns in the
# subnormal band between. Every later pass over a subnormal Gaussian (the
# row sums, the GEMM for P1 and P^T X) then costs about 15 ns an element
# against 0.3-0.5 ns. exp(-650) is 5e-283: no sum of the E-step can resolve
# it (the outlier term c is about 2e-18 at the default weight and the
# smallest sigma^2). A Gaussian above the floor is at least one ulp of
# exp(-650), 1e-298, far enough above the smallest normal double, 2e-308,
# that it stays normal times 1 / (rowsum + c) and times a coordinate. At a
# floor of -690 that ulp would itself be subnormal.
_EXP_FLOOR = -650.0
_EXP_FLOOR_GAUSSIAN = float(np.exp(_EXP_FLOOR))


@dataclass(frozen=True)
class CpdConfig:
    """Settings for the non-rigid EM registration.

    beta is the width of the motion-coherence kernel and lam the strength
    of that regularizer; both are expressed for clouds rescaled to unit
    bounding-box diagonal, so they carry across object scales unchanged.
    outlier_weight is the uniform-noise mixture weight.
    """

    beta: float = 1.0
    lam: float = 2.0
    max_iterations: int = 60
    tolerance: float = 1e-6
    outlier_weight: float = 0.1

    def __post_init__(self):
        if self.beta <= 0 or self.lam <= 0:
            raise ValueError("beta and lam must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not 0.0 <= self.outlier_weight < 1.0:
            raise ValueError("outlier_weight must be in [0, 1)")


@dataclass(frozen=True)
class DisplacementField:
    """Per-point displacement vectors for a source cloud."""

    displacements: np.ndarray
    converged: bool
    objective_history: tuple[float, ...]

    def __post_init__(self):
        disp = np.asarray(self.displacements, dtype=np.float64)
        if disp.ndim != 2 or disp.shape[1] != 3:
            raise ValueError("displacements must have shape (n, 3)")
        if not np.all(np.isfinite(disp)):
            raise ValueError("displacements must be finite")
        disp.flags.writeable = False
        object.__setattr__(self, "displacements", disp)
        object.__setattr__(self, "objective_history", tuple(self.objective_history))

    def apply(self, cloud: PointCloud) -> PointCloud:
        if len(cloud) != self.displacements.shape[0]:
            raise ValueError("field size does not match cloud size")
        return PointCloud(cloud.points + self.displacements, cloud.labels)


def cpd_nonrigid(source: PointCloud, target: PointCloud, cfg: CpdConfig = CpdConfig()) -> DisplacementField:
    """Warp `source` toward `target` with a coherence-regularized EM fit.

    Returns the displacement field that carries each source point to its
    warped position. On non-convergence the best field seen is returned
    with converged = False.

    The field is G W for the (m, m) Gaussian Gram G of the source points.
    G is eigendecomposed once, and the eigenpairs above _GRAM_EIG_CUTOFF
    of the largest are kept as U = Q sqrt(Lambda), (m, K). Writing
    G W = U y turns the coherence penalty tr(W^T G W) into |y|^2, so each
    M-step solves the (K, K) system
    (U^T diag(P1) U + lam sigma^2 I) y = U^T (P^T X - diag(P1) S),
    the low-rank Gram approximation of Myronenko & Song's fast CPD.

    The E-step keeps one (n, m) block G, filled by a ChamferQuery prepared
    on the fixed target: the squared distances are scaled in place to the
    exponents -d^2 / (2 sigma^2), raised to _EXP_FLOOR, passed through exp
    and lowered by exp(_EXP_FLOOR), which leaves exact zeros at the floor.
    The responsibilities are P = diag(inv) G with inv = 1 / (rowsum + c),
    and one GEMM G^T [inv, diag(inv) X] gives P1 and P^T X together without
    forming P. The row norms of the warped points that the next block needs
    also give sigma^2's diag(P1) term.
    """
    if len(source) == 0 or len(target) == 0:
        raise ValueError("empty cloud")
    span = target.points.max(axis=0) - target.points.min(axis=0)
    if float(np.linalg.norm(span)) < 1e-12:
        raise ValueError("degenerate target")

    # Shared normalization so beta/lam are scale-free and the result maps
    # straight back to world units.
    lo = np.minimum(source.points.min(axis=0), target.points.min(axis=0))
    hi = np.maximum(source.points.max(axis=0), target.points.max(axis=0))
    center = (lo + hi) / 2.0
    scale = float(np.linalg.norm(hi - lo))
    s = (source.points - center) / scale
    x = (target.points - center) / scale

    m, n = s.shape[0], x.shape[0]
    eigval, eigvec = np.linalg.eigh(np.exp(-sqdist(s, s) / (2.0 * cfg.beta**2)))
    keep = eigval > _GRAM_EIG_CUTOFF * eigval[-1]
    u = eigvec[:, keep] * np.sqrt(eigval[keep])  # (m, K)
    ut = np.ascontiguousarray(u.T)
    k = u.shape[1]
    weighted = np.empty_like(ut)  # U^T diag(P1)

    query = ChamferQuery(x)
    xnorm = np.einsum("ij,ij->i", x, x)
    rhs = np.empty((n, 4))  # [inv, inv * x] per target point
    reduced = np.empty((m, 4))  # [P1, P^T X] per source point
    p1, px = reduced[:, 0], reduced[:, 1:]
    y = np.zeros((k, 3))
    block, _ = query.block(s)
    sigma2 = max(float(block.sum()) / (3.0 * m * n), 1e-12)

    history: list[float] = []
    best_obj = np.inf
    best_y = y.copy()
    converged = False
    outlier = cfg.outlier_weight

    # One extra scoring pass past the budget scores the final M-step, so that
    # best-so-far sees it; that pass stops before the convergence test.
    for iteration in range(cfg.max_iterations + 1):
        # Gaussians: exp of the exponents -d^2 / (2 sigma^2), raised to the
        # floor so that exp stays on its fast path; taking exp(floor) off
        # leaves exactly 0 wherever the exponent was at or below the floor.
        block *= -0.5 / sigma2
        np.maximum(block, _EXP_FLOOR, out=block)
        np.exp(block, out=block)
        block -= _EXP_FLOOR_GAUSSIAN
        rowsum = block.sum(axis=1)

        # Negative log-likelihood of the mixture plus the coherence penalty,
        # evaluated at the current parameters. EM never increases this.
        density = (1.0 - outlier) * (2.0 * np.pi * sigma2) ** (-1.5) / m * rowsum
        density += outlier / n + 1e-300
        objective = float(-np.log(density).sum() + 0.5 * cfg.lam * np.einsum("ij,ij->", y, y))
        history.append(objective)
        if objective < best_obj:
            best_obj = objective
            best_y = y.copy()
        if iteration == cfg.max_iterations:
            break
        if len(history) > 1 and abs(history[-2] - objective) <= cfg.tolerance * (abs(history[-2]) + 1.0):
            converged = True
            break

        # The responsibilities are P = diag(inv) G; P1 = G^T inv and
        # P^T X = G^T diag(inv) X come from one GEMM, and P is never formed.
        c = (2.0 * np.pi * sigma2) ** 1.5 * outlier / max(1.0 - outlier, 1e-12) * m / n
        inv = 1.0 / (rowsum + c)
        rhs[:, 0] = inv
        np.multiply(x, inv[:, None], out=rhs[:, 1:])
        np.matmul(block.T, rhs, out=reduced)
        pt1 = rowsum * inv
        np_total = p1.sum()
        if np_total < 1e-12:
            break  # every point explained by the outlier component
        np.multiply(ut, p1, out=weighted)
        lhs = weighted @ u
        lhs.flat[:: k + 1] += cfg.lam * sigma2
        try:
            y = np.linalg.solve(lhs, ut @ (px - p1[:, None] * s))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("coherent registration failed: singular system") from exc
        warped = s + u @ y

        block, wnorm = query.block(warped)
        sigma2 = (
            pt1 @ xnorm - 2.0 * np.einsum("ij,ij->", px, warped) + p1 @ wnorm
        ) / (3.0 * np_total)
        sigma2 = max(float(sigma2), 1e-12)

    return DisplacementField((u @ best_y) * scale, converged, tuple(history))


def _spread_rank(points: np.ndarray, wgt: np.ndarray) -> int:
    """0 for a single point, 1 for a line, 2 otherwise.

    The test is on the singular values of the weighted, centered points:
    the largest below 1e-12 is a point, the second below 1e-9 of the
    largest is a line.
    """
    sv = np.linalg.svd((points - wgt @ points) * np.sqrt(wgt)[:, None], compute_uv=False)
    if sv[0] < 1e-12:
        return 0
    return 1 if sv[1] <= 1e-9 * sv[0] else 2


def _shortest_arc(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest-angle rotation taking unit vector u onto unit vector v."""
    axis = np.cross(u, v)
    sin, cos = float(np.linalg.norm(axis)), float(u @ v)
    if sin < 1e-12:
        if cos > 0:
            return np.eye(3)
        # Antiparallel: every half turn about an axis normal to u is
        # smallest; take the one normal to u's least-aligned coordinate axis.
        axis = np.cross(u, np.eye(3)[np.argmin(np.abs(u))])
    return rotation_about_axis(axis, np.arctan2(sin, cos))


def kabsch(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform taking source points onto target points.

    Solves argmin_T sum_k ||T(source_k) - target_k||^2 with the SVD
    construction, forcing a proper rotation. When either side is a single
    point or a line the minimizer is not unique, and the one with the
    smallest rotation angle is returned: the identity (a pure translation)
    when a side is a point; for a line the cross-covariance has rank one,
    and the rotation is the shortest arc taking its leading left singular
    vector onto its right partner. The translation makes the centroids
    meet. Any non-empty pair of (k, 3) arrays has a result; empty or
    mis-shaped input raises ValueError.
    """
    a = np.asarray(source, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3 or a.shape != b.shape or a.shape[0] == 0:
        raise ValueError("source and target must both have shape (k, 3) with k >= 1")
    wgt = np.full(a.shape[0], 1.0 / a.shape[0])
    rank = min(_spread_rank(a, wgt), _spread_rank(b, wgt))
    ca = wgt @ a
    cb = wgt @ b
    a0 = a - ca
    b0 = b - cb

    h = (a0 * wgt[:, None]).T @ b0
    u, s, vt = np.linalg.svd(h)
    if rank == 2:
        sign = np.sign(np.linalg.det(vt.T @ u.T))
        rot = vt.T @ np.diag([1.0, 1.0, sign]) @ u.T
    elif rank == 1 and s[0] > 1e-9 * np.linalg.norm(a0) * np.linalg.norm(b0) * wgt[0]:
        # A line whose positions are uncorrelated with the other side leaves
        # only rounding noise in the cross-covariance; no turn is called for.
        rot = _shortest_arc(u[:, 0], vt[0])
    else:
        rot = np.eye(3)
    return RigidTransform(rot, cb - rot @ ca)
