"""Per-part statistical shape models and fitting to observed clouds.

Training registers every pose-aligned instance of a part onto a canonical
instance via the non-rigid EM registration, then runs an uncentered PCA of
the flattened displacement fields. Reconstruction at latent zero is the
canonical cloud itself; label arrays travel by point identity, so a label
painted on the canonical cloud is known on every reconstruction.

Fitting minimizes, over the latent vector jointly with a rigid pose, the
label-aware one-sided Chamfer distance from the observation into the posed
reconstruction plus a whitened quadratic latent penalty. The reconstruction
is linear in the latent, so each start alternates, as ICP does, between
matching every observed point to its nearest same-class reconstruction
point and a damped Gauss-Newton step on those correspondences
(Levenberg-Marquardt), whose normal equations are accumulated per
canonical point in one bincount. Each label class's observed points are
one geom.ChamferQuery, prepared once per fit; an evaluation folds the
posed reconstruction once and every class matches against its own columns
of that fold.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geom import (
    ChamferQuery,
    PointCloud,
    RigidTransform,
    cloud_from_dict,
    label_classes,
    rotation_about_axis,
    sqdist,
    symmetric_chamfer,
    to_json,
    transform_from_dict,
    z_label_values,
)
from .registration import CpdConfig, cpd_nonrigid

__all__ = [
    "CanonicalPartModel",
    "InferenceConfig",
    "InferenceResult",
    "InferenceError",
    "select_canonical",
    "train_part_model",
    "reconstruct",
    "infer",
    "warp_point_indices",
    "inference_from_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

Z_KEY = "z"

# Levenberg-Marquardt damping, relative to the diagonal of the normal
# equations: its value at each start, its factor after a kept and after a
# rejected step, and its floor.
_DAMPING_START = 1e-3
_DAMPING_DOWN = 0.3
_DAMPING_UP = 10.0
_DAMPING_MIN = 1e-9


class InferenceError(RuntimeError):
    """Raised when no fit attempt produced a finite objective."""


@dataclass(frozen=True)
class CanonicalPartModel:
    """Low-rank generative model of one part category.

    basis columns are orthonormal directions in the flattened (3n)
    displacement space; latent values are plain coefficients on those
    columns, so latent zero reproduces the canonical cloud exactly.
    """

    part_category: str
    canonical: PointCloud
    basis: np.ndarray
    latent_mean: np.ndarray
    latent_scales: np.ndarray
    training_latents: np.ndarray
    training_residuals: np.ndarray
    explained_variance: np.ndarray
    cpd_config: CpdConfig

    def __post_init__(self):
        for name in ("basis", "latent_mean", "latent_scales", "training_latents",
                     "training_residuals", "explained_variance"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            # A NaN would pass every comparison below and fail only later,
            # inside inference.
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        basis = self.basis
        if basis.ndim != 2 or basis.shape[0] != 3 * len(self.canonical):
            raise ValueError("basis must have shape (3n, d)")
        gram = basis.T @ basis
        if np.abs(gram - np.eye(basis.shape[1])).max() > 1e-8:
            raise ValueError("basis columns must be orthonormal")

    @property
    def point_count(self) -> int:
        return len(self.canonical)

    @property
    def latent_dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class InferenceConfig:
    """Starts and stopping rule of infer.

    infer runs one start per yaw in a grid of yaw_init_count angles crossed
    with restarts latent seeds. max_evals caps the objective evaluations of
    each start; every evaluation re-matches the correspondences, and a
    rejected trial step costs one. A start stops early, converged, when a
    kept step lowers the objective by less than step_tolerance times its
    value, or when the step's linearized model promises no more than that.
    latent_reg_weight weighs the whitened latent prior.
    """

    restarts: int = 3
    yaw_init_count: int = 8
    max_evals: int = 300
    latent_reg_weight: float = 0.01
    step_tolerance: float = 1e-3

    def __post_init__(self):
        if self.restarts < 1 or self.yaw_init_count < 1:
            raise ValueError("restarts and yaw_init_count must be >= 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.latent_reg_weight < 0:
            raise ValueError("latent_reg_weight must be >= 0")
        if self.step_tolerance <= 0:
            raise ValueError("step_tolerance must be positive")


@dataclass(frozen=True)
class InferenceResult:
    """A fit, with how the search got there.

    converged is true when the winning start stopped on the tolerance
    rather than on max_evals. evaluations counts objective calls across all
    starts; start is the ordinal of the winning start (yaw index times
    restarts plus latent seed index). Neither enters a report.
    """

    latent: np.ndarray
    pose: RigidTransform
    objective: float
    converged: bool
    evaluations: int = 0
    start: int = 0

    def __post_init__(self):
        lat = np.asarray(self.latent, dtype=np.float64)
        lat.flags.writeable = False
        object.__setattr__(self, "latent", lat)


def select_canonical(instances: Sequence[PointCloud]) -> int:
    """Index of the instance closest to all others by symmetric Chamfer."""
    if len(instances) < 2:
        raise ValueError("need at least two instances")
    totals = [0.0] * len(instances)
    # symmetric_chamfer is symmetric to the bit, so each unordered pair is
    # scored once; every total still adds its terms in ascending partner order.
    for i, j in itertools.combinations(range(len(instances)), 2):
        score = symmetric_chamfer(instances[i], instances[j])
        totals[i] += score
        totals[j] += score
    return int(np.argmin(totals))  # argmin takes the lowest index on ties


def train_part_model(
    instances: Sequence[PointCloud],
    d: int | None = None,
    cpd: CpdConfig = CpdConfig(),
    part_category: str = "part",
) -> CanonicalPartModel:
    """Fit a canonical shape model to pose-aligned instances of one part.

    Only the canonical instance's label arrays are baked into the model.
    d defaults to min(K - 1, 4).
    """
    k = len(instances)
    if k < 2:
        raise ValueError("need at least two instances")
    if not 5 <= k <= 10:
        warnings.warn(f"{k} training instances is outside the expected 5..10 range")
    if d is None:
        d = min(k - 1, 4)
    if d < 1 or d > k - 1:
        raise ValueError("latent dimension must satisfy 1 <= d <= K - 1")

    canon_idx = select_canonical(instances)
    canon_points = instances[canon_idx].points
    n = canon_points.shape[0]

    canon_labels: dict[str, np.ndarray] = {}
    raw = instances[canon_idx].labels or {}
    for key in sorted(raw):
        arr = raw[key]
        # Keys whose class split collapses on the canonical instance
        # cannot anchor a label-aware distance; drop them up front.
        if 0 < arr.sum() < arr.size:
            canon_labels[key] = arr
        else:
            warnings.warn(f"dropping degenerate label key {key!r}")
    canonical = PointCloud(canon_points, canon_labels or None)

    # The canonical's own field is zero: registered onto itself, CPD only
    # collapses sigma^2 to its floor.
    fields = np.zeros((k, 3 * n))
    for j, inst in enumerate(instances):
        if j == canon_idx:
            continue
        try:
            field = cpd_nonrigid(canonical, inst, cpd)
        except (ValueError, RuntimeError) as exc:
            raise RuntimeError(f"registration failed on instance {j}: {exc}") from exc
        fields[j] = field.displacements.reshape(-1)

    u, s, vt = np.linalg.svd(fields, full_matrices=False)
    basis = vt[:d].T
    latents = fields @ basis
    total_power = float(np.square(s).sum())
    explained = np.square(s[:d]) / total_power if total_power > 0 else np.zeros(d)
    residuals = np.sqrt(
        np.sum((fields - latents @ basis.T) ** 2, axis=1) / n
    )

    scales = latents.std(axis=0)
    return CanonicalPartModel(
        part_category=part_category,
        canonical=canonical,
        basis=basis,
        latent_mean=latents.mean(axis=0),
        latent_scales=scales,
        training_latents=latents,
        training_residuals=residuals,
        explained_variance=explained,
        cpd_config=cpd,
    )


def reconstruct(model: CanonicalPartModel, latent: np.ndarray) -> PointCloud:
    """Canonical cloud displaced along the basis; labels ride along."""
    v = np.asarray(latent, dtype=np.float64).reshape(model.latent_dim)
    offset = (model.basis @ v).reshape(-1, 3)
    return PointCloud(model.canonical.points + offset, model.canonical.labels)


def _azimuth_anchor(cloud: PointCloud, keys: Sequence[str]) -> float:
    """Yaw angle derived from the cloud itself, so it rotates with the data.

    Relational label classes give the most stable anchor: the centroid of a
    key's positive class points from the cloud center toward the labeled
    feature. Clouds without one fall back to the planar covariance axis
    with the sign fixed by the skewness along it. Rotationally symmetric
    clouds have no usable anchor and return 0.
    """
    q = cloud.points - cloud.points.mean(axis=0)
    extent = cloud.extent()
    if extent == 0.0:
        return 0.0
    vec = np.zeros(2)
    for key in keys:
        if key == Z_KEY or cloud.labels is None or key not in cloud.labels:
            continue
        mask = cloud.label(key) == 1
        if 0 < mask.sum() < len(cloud):
            vec += q[mask, :2].mean(axis=0)
    if np.linalg.norm(vec) > 1e-6 * extent:
        return float(np.arctan2(vec[1], vec[0]))
    xy = q[:, :2]
    evals, evecs = np.linalg.eigh(xy.T @ xy / len(xy))
    if evals[1] - evals[0] <= 1e-6 * max(evals[1], 1e-30):
        return 0.0
    v = evecs[:, 1]
    if float(np.sum((xy @ v) ** 3)) < 0.0:
        v = -v
    return float(np.arctan2(v[1], v[0]))


def infer(
    model: CanonicalPartModel,
    observed: PointCloud,
    adjacency_keys: Iterable[str] = (),
    cfg: InferenceConfig = InferenceConfig(),
    seed: int = 0,
) -> InferenceResult:
    """Recover latent shape and rigid pose explaining an observed cloud.

    The objective sums the label-aware one-sided Chamfer distance from the
    observation into the posed reconstruction over every requested
    adjacency key plus the height key, and adds a whitened quadratic
    penalty pulling the latent toward the training mean. Starts cover a
    grid of yaw initializations crossed with latent seeds (zero plus draws
    from the training latent statistics).

    The search runs in a frame anchored to the observation (its centroid
    and azimuth anchor), so a scene that has been shifted or spun about
    the vertical axis is optimized along the same trajectory and the
    returned pose moves with the scene.

    Each start runs a Levenberg-Marquardt loop on the nearest-neighbour
    correspondences, as in ICP: an evaluation folds the posed
    reconstruction once (geom.ChamferQuery.fold) and matches every observed
    point to its nearest same-class point of it (one geom.ChamferQuery per
    (key, class) term, prepared once per fit, reading its class's columns
    of the fold), and each iteration solves one damped normal-equation step
    in latent, body-frame rotation and body-frame translation with the
    whitened prior as extra rows. A step is kept only if the re-matched
    objective falls.
    The Chamfer terms match labeled_chamfer to a few ulps, not bit for bit.
    """
    if len(observed) == 0:
        raise ValueError("empty cloud")
    keys = sorted(set(adjacency_keys) | {Z_KEY})
    canon = model.canonical

    frame = RigidTransform(
        rotation_about_axis(np.array([0.0, 0.0, 1.0]), _azimuth_anchor(observed, keys)),
        observed.points.mean(axis=0),
    )
    observed = observed.transformed(frame.inverse())

    def label_of(cloud: PointCloud, key: str) -> np.ndarray:
        # The height key is a pure function of the cloud, so it can be
        # filled in on demand; every other key must be present.
        if key == Z_KEY and (cloud.labels is None or Z_KEY not in cloud.labels):
            return z_label_values(cloud)
        return cloud.label(key)

    x = observed.points
    d = model.latent_dim
    n = model.point_count
    term_points = []
    term_columns = []
    for key in keys:
        for mx, my in label_classes(label_of(observed, key), label_of(canon, key)):
            term_points.append(x[mx])
            term_columns.append(np.flatnonzero(my))
    # Every observed point of every term, in term order, weighted as its
    # term's mean weighs it. Row 0 of a (4, N) bins array holds each point's
    # matched canonical index and rows 1-3 the same shifted by n, 2n and 3n,
    # so one bincount of weights over bins sums the match weights and the
    # weighted coordinates per canonical point. A start keeps two: one for
    # the point it stands at and one for a trial step.
    w_all = np.concatenate([np.full(len(p), 1.0 / len(p)) for p in term_points])
    weights = np.concatenate([w_all, (w_all[:, None] * np.concatenate(term_points)).T.ravel()])
    bin_shift = (n * np.arange(1, 4))[:, None]
    terms = []
    stop = 0
    for points, columns in zip(term_points, term_columns):
        start, stop = stop, stop + len(points)
        terms.append((ChamferQuery(points), columns, slice(start, stop)))
    folded = np.empty((5, n))

    canon_pts = canon.points
    basis = model.basis
    mean = model.latent_mean
    scales = np.maximum(model.latent_scales, 1e-8)
    prior = cfg.latent_reg_weight / scales**2
    diag = np.arange(d + 6)
    obs_centroid = x.mean(axis=0)

    # Linearized in the body frame, a residual matched to canonical point j
    # has the Jacobian [B_j, -[s_j]x, I] in (latent, rotation, translation),
    # where s_j is j's reconstructed position; only the rotation columns
    # change between iterations. Rows are (point, axis) pairs.
    jac = np.zeros((n, 3, d + 6))
    jac[:, :, :d] = basis.reshape(n, 3, d)
    jac[:, :, d + 3:] = np.eye(3)
    jac_rows = jac.reshape(3 * n, d + 6)

    def evaluate(v, rot, t, bins):
        """Objective and body-frame reconstruction; each observed point's match goes to bins[0].

        The posed reconstruction is folded once, and every term matches
        against its own columns of that fold.
        """
        shape = canon_pts + (basis @ v).reshape(n, 3)
        ChamferQuery.fold(shape @ rot.T + t, out=folded)
        total = float(np.sum(prior * (v - mean) ** 2))
        matches = bins[0]
        for query, columns, span in terms:
            total += query.match_columns(folded, columns, matches[span])
        return total, shape

    def normal_equations(v, rot, t, shape, bins):
        """Gauss-Newton (A, g) of the matched objective, accumulated per canonical point.

        bins is the one evaluate filled at (v, rot, t). With c_j the summed
        weight of the observed points x_i matched to j and X_j their
        weighted sum, the body-frame residual sum is
        c_j s_j - R^T (X_j - c_j t), so A = sum_j c_j J_j^T J_j and
        g = sum_j J_j^T (c_j (s_j + R^T t) - R^T X_j), plus the prior's rows.
        """
        np.add(bins[0], bin_shift, out=bins[1:])
        sums = np.bincount(bins.ravel(), weights, minlength=4 * n).reshape(4, n)
        weight = sums[0]
        pulled = np.ascontiguousarray(sums[1:].T)
        sx, sy, sz = shape.T
        jac[:, 0, d + 1], jac[:, 0, d + 2] = sz, -sy
        jac[:, 1, d], jac[:, 1, d + 2] = -sz, sx
        jac[:, 2, d], jac[:, 2, d + 1] = sy, -sx
        a = jac_rows.T @ (np.repeat(weight, 3)[:, None] * jac_rows)
        g = jac_rows.T @ (weight[:, None] * (shape + t @ rot) - pulled @ rot).ravel()
        a[diag[:d], diag[:d]] += prior
        g[:d] += prior * (v - mean)
        return a, g

    def descend(v, rot, t):
        """One start's Levenberg-Marquardt loop; returns its end and evaluation count."""
        bins, trial_bins = np.empty((2, 4, len(w_all)), dtype=np.intp)
        f, shape = evaluate(v, rot, t, bins)
        evals = 1
        damping = _DAMPING_START
        converged = False
        a = None
        while evals < cfg.max_evals:
            if a is None:
                a, g = normal_equations(v, rot, t, shape, bins)
                scale = np.where(a[diag, diag] > 0.0, a[diag, diag], 1.0)
            damped = a.copy()
            damped[diag, diag] += damping * scale
            step = np.linalg.solve(damped, -g)
            # Decrease the matched objective's quadratic model promises; a
            # step that promises less than the tolerance cannot give more
            # than rounding once the matches settle.
            if -(2.0 * g @ step + step @ a @ step) <= cfg.step_tolerance * f:
                converged = True
                break
            v_t = v + step[:d]
            angle = float(np.linalg.norm(step[d:d + 3]))
            rot_t = rot @ rotation_about_axis(step[d:d + 3], angle) if angle > 0.0 else rot
            t_t = t + rot @ step[d + 3:]
            f_t, shape_t = evaluate(v_t, rot_t, t_t, trial_bins)
            evals += 1
            if f_t < f:
                converged = f - f_t < cfg.step_tolerance * f
                v, rot, t, shape = v_t, rot_t, t_t, shape_t
                bins, trial_bins = trial_bins, bins
                f = f_t
                a = None
                damping = max(damping * _DAMPING_DOWN, _DAMPING_MIN)
                if converged:
                    break
            else:
                damping *= _DAMPING_UP
        return f, v, rot, t, converged, evals

    rng = np.random.default_rng(seed)
    latent_seeds = [np.zeros(d)]
    for _ in range(cfg.restarts - 1):
        latent_seeds.append(mean + scales * rng.standard_normal(d))

    best = None
    ordinal = 0
    evaluations = 0
    for yaw_idx in range(cfg.yaw_init_count):
        yaw = 2.0 * np.pi * yaw_idx / cfg.yaw_init_count
        rot0 = rotation_about_axis(np.array([0.0, 0.0, 1.0]), yaw)
        for v0 in latent_seeds:
            recon_centroid = canon_pts.mean(axis=0) + (basis @ v0).reshape(n, 3).mean(axis=0)
            t0 = obs_centroid - rot0 @ recon_centroid
            fval, v, rot, t, conv, evals = descend(v0, rot0, t0)
            evaluations += evals
            if np.isfinite(fval) and (best is None or fval < best[0]):
                best = (fval, ordinal, v, rot, t, conv)
            ordinal += 1

    if best is None:
        raise InferenceError("inference failed")
    fval, start, v, rot, t, conv = best
    return InferenceResult(
        latent=v.copy(), pose=frame.compose(RigidTransform(rot, t)), objective=fval,
        converged=bool(conv), evaluations=evaluations, start=start,
    )


def warp_point_indices(
    model: CanonicalPartModel, fit: InferenceResult, points: np.ndarray
) -> np.ndarray:
    """Ground world-frame points in canonical point indices.

    Each point maps to the index of the nearest point of the posed
    reconstruction under the fit; exact ties resolve to the lowest index.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    recon = reconstruct(model, fit.latent)
    return sqdist(pts, fit.pose.apply(recon.points)).argmin(axis=1)


def inference_from_dict(payload: Mapping) -> InferenceResult:
    return InferenceResult(
        latent=np.asarray(payload["latent"], dtype=np.float64),
        pose=transform_from_dict(payload["pose"]),
        objective=float(payload["objective"]),
        converged=bool(payload["converged"]),
        evaluations=int(payload["evaluations"]),
        start=int(payload["start"]),
    )


def model_from_dict(payload: Mapping) -> CanonicalPartModel:
    return CanonicalPartModel(
        part_category=payload["part_category"],
        canonical=cloud_from_dict(payload["canonical"]),
        basis=np.asarray(payload["basis"], dtype=np.float64),
        latent_mean=np.asarray(payload["latent_mean"], dtype=np.float64),
        latent_scales=np.asarray(payload["latent_scales"], dtype=np.float64),
        training_latents=np.asarray(payload["training_latents"], dtype=np.float64),
        training_residuals=np.asarray(payload["training_residuals"], dtype=np.float64),
        explained_variance=np.asarray(payload["explained_variance"], dtype=np.float64),
        cpd_config=CpdConfig(**payload["cpd_config"]),
    )


def save_model(path, model: CanonicalPartModel) -> None:
    Path(path).write_text(json.dumps(to_json(model), allow_nan=False))


def load_model(source) -> CanonicalPartModel:
    """Model from a file path, or from the bytes of a model file already read."""
    raw = source if isinstance(source, bytes) else Path(source).read_bytes()
    return model_from_dict(json.loads(raw))
