"""Point clouds, rigid transforms, squared distances, and Chamfer distances.

sqdist is the one pairwise-distance kernel: every nearest-neighbour query
in the library is a min over a dense (n, m) block of it, with no spatial
index, and ChamferQuery is its prepared mode for a loop over one fixed
query set: a fit's objective, or coherent point drift's E-step. A fit
folds its posed reconstruction once per evaluation (ChamferQuery.fold)
and matches each label class's query against its columns of that fold.
The proximity searches between parts (transfer's contact_pairs and
label_parts) first cull with near_box, a padded bounding-box test, and
then walk sqdist_rows, which builds the block in row chunks of at most
CHUNK_ELEMENTS entries. 2**22 float64 entries are 32 MiB, so a chunk and
the one temporary sqdist makes stay near 64 MiB at any cloud size, while
every block at the default sizes (at most 1.3 million pairs, the merged
teapot against the merged mug) is still one chunk and one GEMM.
label_classes is the one rule that pairs the label classes of two clouds.

Everything here except a ChamferQuery, which keeps its (5, m) reference
and (n, m) distance buffers from one call to the next, is immutable after
construction and safe to share between threads. Coordinates are float64
world units (meters in the synthetic scenes). The labeled Chamfer distance
is one-sided: it measures how well the second cloud explains the first,
summed per binary label class.

to_json is the one encoder of every file partwarp writes: records become
their fields in declaration order, mappings are sorted by key, and arrays
become lists. Each reader (*_from_dict) is written out by hand, since it
checks files that may come from elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "PointCloud",
    "RigidTransform",
    "rotation_about_axis",
    "rotation_geodesic",
    "sqdist",
    "CHUNK_ELEMENTS",
    "near_box",
    "sqdist_rows",
    "ChamferQuery",
    "chamfer",
    "symmetric_chamfer",
    "label_classes",
    "labeled_chamfer",
    "adjacency_label_values",
    "z_label_values",
    "to_json",
    "cloud_from_dict",
    "transform_from_dict",
]

_ORTHO_TOL = 1e-9


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1 and pts.size == 3:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    if pts.size and not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _as_label(values, n: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.shape != (n,):
        raise ValueError("label array length must match point count")
    arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ValueError("label values must be 0 or 1")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PointCloud:
    """An (n, 3) array of points with optional binary label arrays."""

    points: np.ndarray
    labels: Mapping[str, np.ndarray] | None = None

    def __post_init__(self):
        pts = _as_points(self.points)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            fixed = {str(k): _as_label(v, len(pts)) for k, v in self.labels.items()}
            object.__setattr__(self, "labels", fixed)

    def __len__(self) -> int:
        return self.points.shape[0]

    def label_keys(self) -> tuple[str, ...]:
        if not self.labels:
            return ()
        return tuple(sorted(self.labels))

    def label(self, key: str) -> np.ndarray:
        if not self.labels or key not in self.labels:
            raise KeyError(f"cloud has no label key {key!r}")
        return self.labels[key]

    def extent(self) -> float:
        """Bounding-box diagonal length."""
        if len(self) == 0:
            raise ValueError("empty cloud")
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.linalg.norm(span))

    def subset(self, indices) -> "PointCloud":
        idx = np.asarray(indices)
        if idx.size == 0:
            idx = idx.astype(np.int64)
        labels = None
        if self.labels:
            labels = {k: v[idx] for k, v in self.labels.items()}
        return PointCloud(self.points[idx], labels)

    def with_labels(self, labels: Mapping[str, np.ndarray]) -> "PointCloud":
        merged = dict(self.labels) if self.labels else {}
        merged.update(labels)
        return PointCloud(self.points, merged)

    def transformed(self, t: "RigidTransform") -> "PointCloud":
        return PointCloud(t.apply(self.points), self.labels)


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion p -> R p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        tr = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if rot.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not np.all(np.isfinite(rot)) or not np.all(np.isfinite(tr)):
            raise ValueError("transform entries must be finite")
        if np.abs(rot @ rot.T - np.eye(3)).max() > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant must be +1")
        rot.flags.writeable = False
        tr.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = pts @ self.rotation.T + self.translation
        return out[0] if single else out

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self.compose(other)).apply(p) == self(other(p))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rot = self.rotation.T
        return RigidTransform(rot, -rot @ self.translation)


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed rotation of `angle` about `axis`."""
    ax = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(ax)
    if norm == 0.0:
        raise ValueError("axis must be nonzero")
    x, y, z = ax / norm
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array(
        [
            [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
            [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
            [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
        ]
    )


def rotation_geodesic(a: RigidTransform | np.ndarray, b: RigidTransform | np.ndarray) -> float:
    """Geodesic angle (radians) between two rotations.

    Computed from the chordal (Frobenius) distance through
    ||Ra - Rb||_F = 2*sqrt(2)*sin(angle/2), which stays accurate down to
    machine precision for near-identical rotations where the trace-based
    arccos formula loses half the significant digits.
    """
    ra = a.rotation if isinstance(a, RigidTransform) else np.asarray(a)
    rb = b.rotation if isinstance(b, RigidTransform) else np.asarray(b)
    chord = np.linalg.norm(ra - rb) / (2.0 * np.sqrt(2.0))
    return float(2.0 * np.arcsin(np.clip(chord, 0.0, 1.0)))


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) block of squared distances between the rows of a and of b.

    Expands |a_i - b_j|^2 = |a_i|^2 + |b_j|^2 - 2 a_i.b_j into one GEMM, so
    no (n, m, 3) difference array is formed. The expansion cancels, so a
    coincident pair leaves a rounding residue of a few ulps of |a_i|^2;
    residues below zero are clamped to 0.
    """
    d2 = np.add.outer(np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b))
    d2 -= (2.0 * a) @ b.T
    np.maximum(d2, 0.0, out=d2)
    return d2


CHUNK_ELEMENTS = 1 << 22


def near_box(points: np.ndarray, other: np.ndarray, radius: float) -> np.ndarray:
    """Increasing indices of the points inside other's bounding box padded by radius.

    A point left out is farther than radius from every point of other
    along some axis, so sqdist never puts it within radius of one. The pad
    is a hair wider than radius, by 1e-6 of it plus 1e-7 of the largest
    coordinate, which covers sqdist's rounding residue of a few ulps of
    the squared norms. An empty other keeps no point.
    """
    if len(points) == 0 or len(other) == 0:
        return np.empty(0, dtype=np.int64)
    lo, hi = other.min(axis=0), other.max(axis=0)
    scale = max(np.abs(lo).max(), np.abs(hi).max(), np.abs(points).max())
    pad = radius * (1.0 + 1e-6) + 1e-7 * scale
    return np.flatnonzero(((points >= lo - pad) & (points <= hi + pad)).all(axis=1))


def sqdist_rows(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """sqdist(a, b) in row chunks: (first row, block) pairs of at most CHUNK_ELEMENTS.

    A block with every row of a is the very sqdist(a, b). Across several
    chunks, BLAS may round a few entries near a chunk's edge differently,
    by an ulp of the squared norms.
    """
    step = max(1, CHUNK_ELEMENTS // max(len(b), 1))
    for start in range(0, len(a), step):
        yield start, sqdist(a[start:start + step], b)


class ChamferQuery:
    """One-sided Chamfer from a fixed query set into reference sets that change.

    The prepared mode of sqdist for a loop that matches one query set
    against many reference sets, such as a fit's objective or coherent
    point drift's E-step. The query side is folded once into the (n, 5)
    matrix [-2 q, 1, |q|^2] and a reference side into the (5, m) matrix
    [r^T; |r|^2; 1] (fold), so an (n, m) block of squared distances is one
    GEMM of the two. block folds a reference set and returns the block;
    match_columns takes some columns of a reference set folded once by the
    caller, so that several queries can share one fold, and adds an argmin
    along the block's contiguous rows, a clamp of the mins at 0, and their
    mean. The (5, m) and (n, m) buffers are kept for the next call with the
    same reference size.

    The mean is that of sqdist(q, r).min(axis=1), but summed in a different
    order, so the two differ by a few ulps of |q_i|^2 + |r_j|^2; where two
    reference points are that close to tied, the index may differ from
    sqdist's argmin too. A call writes the buffers, so an instance must not
    be shared between threads.
    """

    def __init__(self, query):
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if q.shape[0] == 0:
            raise ValueError("empty cloud")
        self._n = q.shape[0]
        self._folded = np.empty((self._n, 5))
        self._folded[:, :3] = -2.0 * q
        self._folded[:, 3] = 1.0
        self._folded[:, 4] = np.einsum("ij,ij->i", q, q)
        self._resize(0)

    @staticmethod
    def fold(ref: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (5, m) reference side [ref^T; |ref|^2; 1], written into out if given."""
        if out is None:
            out = np.empty((5, ref.shape[0]))
        out[:3] = ref.T
        np.einsum("ij,ij->i", ref, ref, out=out[3])
        out[4] = 1.0
        return out

    def _resize(self, m: int) -> None:
        self._ref = np.empty((5, m))
        self._block = np.empty((self._n, m))
        # Flat offset of each row of the block, for reading one entry per row.
        self._row_starts = np.arange(self._n) * m

    def block(self, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (n, m) squared distances into ref, and ref's (m,) squared row norms.

        Both are the query's buffers, overwritten by the next call. The
        block is not clamped: a coincident pair may read a few ulps below 0.
        """
        m = ref.shape[0]
        if m == 0:
            raise ValueError("empty cloud")
        if m != self._ref.shape[1]:
            self._resize(m)
        self.fold(ref, out=self._ref)
        np.matmul(self._folded, self._ref, out=self._block)
        return self._block, self._ref[3]

    def match_columns(self, folded: np.ndarray, columns: np.ndarray, out: np.ndarray) -> float:
        """Mean min squared distance into the given columns of a folded reference set.

        folded is fold's (5, M) matrix of a whole reference set, and columns
        indexes the points of it to match against; each query point's
        nearest point, as an index into the whole set, is written to out,
        an (n,) integer array.
        """
        m = len(columns)
        if m == 0:
            raise ValueError("empty cloud")
        if m != self._ref.shape[1]:
            self._resize(m)
        folded.take(columns, axis=1, out=self._ref)
        np.matmul(self._folded, self._ref, out=self._block)
        nearest = self._block.argmin(axis=1)
        columns.take(nearest, out=out)
        nearest += self._row_starts
        mins = self._block.take(nearest)
        np.maximum(mins, 0.0, out=mins)
        return float(mins.sum()) / self._n


def chamfer(x: PointCloud, y: PointCloud) -> float:
    """One-sided Chamfer: mean squared nearest-neighbor distance from x into y."""
    if len(x) == 0 or len(y) == 0:
        raise ValueError("empty cloud")
    return float(sqdist(x.points, y.points).min(axis=1).mean())


def symmetric_chamfer(x: PointCloud, y: PointCloud) -> float:
    """chamfer(x, y) + chamfer(y, x)."""
    return chamfer(x, y) + chamfer(y, x)


def label_classes(lx: np.ndarray, ly: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(mask_x, mask_y) of each binary label class that a distance from x into y sums.

    A class absent from x contributes nothing and is skipped; a class
    present in x but absent from y cannot be matched and is an error.
    """
    pairs = []
    for value in (0, 1):
        mask_x = lx == value
        if not mask_x.any():
            continue
        mask_y = ly == value
        if not mask_y.any():
            raise ValueError("unmatched label class")
        pairs.append((mask_x, mask_y))
    return pairs


def labeled_chamfer(x: PointCloud, y: PointCloud, key: str) -> float:
    """Label-aware one-sided Chamfer under the binary label `key`.

    For each label value present in x, the mean squared nearest-neighbor
    distance from the x points of that class into the y points of the same
    class is accumulated (the pairing of label_classes).
    """
    if len(x) == 0 or len(y) == 0:
        raise ValueError("empty cloud")
    total = 0.0
    for mask_x, mask_y in label_classes(x.label(key), y.label(key)):
        total += float(sqdist(x.points[mask_x], y.points[mask_y]).min(axis=1).mean())
    return total


def adjacency_label_values(nearest: np.ndarray, ratio: float = 0.4) -> np.ndarray:
    """Binary relational label of a part from its points' nearest squared distances.

    nearest[i] is the squared distance from point i of the part to its
    nearest point of the other part. A point is labeled 1 when that
    distance is below `ratio` times the median of those distances.
    """
    if len(nearest) == 0:
        raise ValueError("empty cloud")
    dist = np.sqrt(nearest)
    return (dist < ratio * np.median(dist)).astype(np.int64)


def z_label_values(part: PointCloud) -> np.ndarray:
    """Binary height label: 1 for points below the part's mean z."""
    if len(part) == 0:
        raise ValueError("empty cloud")
    z = part.points[:, 2]
    return (z < z.mean()).astype(np.int64)


def to_json(value):
    """value as plain Python values for json.dumps, by the rule of every partwarp file.

    A dataclass record becomes a dict of its fields in declaration order; a
    Mapping becomes a dict sorted by key; tuples, lists and arrays become
    lists. A RigidTransform becomes its rotation's 9 entries, row by row,
    and its translation; a PointCloud without labels, its points alone.
    Anything else passes through unchanged. A caller that needs another
    layout builds its payload around these values.
    """
    # Scalars are most of the calls; the checks below would cost each ~1 us.
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, RigidTransform):
        return {
            "rotation": value.rotation.reshape(9).tolist(),
            "translation": value.translation.tolist(),
        }
    if isinstance(value, PointCloud) and not value.labels:
        return {"points": value.points.tolist()}
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        return {k: to_json(value[k]) for k in sorted(value)}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    return value


def cloud_from_dict(payload: Mapping) -> PointCloud:
    labels = payload.get("labels")
    return PointCloud(np.asarray(payload["points"], dtype=np.float64), labels)


def transform_from_dict(payload: Mapping) -> RigidTransform:
    rot = np.asarray(payload["rotation"], dtype=np.float64).reshape(3, 3)
    return RigidTransform(rot, np.asarray(payload["translation"], dtype=np.float64))
