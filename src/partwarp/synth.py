"""Analytic benchmark world: parametric object families with exact geometry.

Four categories of tabletop objects (mugs, peg racks, bowls, teapots) are
built from closed-form primitives. One builder, _geometry, defines each
object once. It returns every part as the boundary surfaces and the signed
distance of one primitive, and the object's named feature points, computed
from the same frames and lengths. generate samples the surfaces and returns
the cloud, the signed distance and the features from one _geometry call.
features returns the landmarks alone, which task goals and success checks
read.

A task (TASKS) names its categories and a skill (hang, rest or pour), whose
goal and success predicate read the objects' features only.

Signed distances are exact on every sampled boundary point and never
overestimate the true distance anywhere, so penetration measured through
them is trustworthy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .geom import PointCloud, RigidTransform, from_json, rotation_about_axis
from .transfer import Demonstration, PartDecomposedObject

__all__ = [
    "ParametricObjectSpec",
    "CameraView",
    "AnalyticSdf",
    "ObjectFeatures",
    "DemoScene",
    "CATEGORY_PARTS",
    "CATEGORY_DEFAULTS",
    "TASKS",
    "default_spec",
    "sample_spec",
    "generate",
    "features",
    "partial_view",
    "goal_transform",
    "task_predicate",
    "generate_demo_scene",
    "penetration_depth",
    "task_categories",
    "PENETRATION_TOLERANCE",
]

# Shared construction constants. Vessel walls are 4 mm, bowls 5 mm; handles
# are capsule arcs spanning 190 degrees whose ring center sits 2 mm outside
# the vessel wall; rack pegs tilt upward by 0.1 rad.
WALL = 0.004
BOWL_WALL = 0.005
HANDLE_ARC = math.radians(95.0)
RING_STANDOFF = 0.002
PEG_TILT = 0.10
BASE_HEIGHT = 0.008
LID_PLATE_HEIGHT = 0.006
LID_KNOB_HEIGHT = 0.012
LID_KNOB_RADIUS = 0.007
SPOUT_ROOT_RADIUS = 0.011
SPOUT_TIP_RADIUS = 0.006

# Hanging construction for mug-on-rack goals: gap between peg surface and
# handle tube at the resting contact, and between peg surface and cup wall.
# Goal configurations keep a few millimetres of air so that a predicted
# placement can miss by a couple of millimetres without clipping.
HANG_TUBE_GAP = 0.0025
HANG_WALL_GAP = 0.005
HANG_FRACTION = 0.60
BOWL_REST_GAP = 0.002
POUR_HEIGHT = 0.006

# Deepest incursion, in metres, that a placement may make into the other
# object and still count as resting on it rather than sunk into it.
PENETRATION_TOLERANCE = 1e-3

CATEGORY_PARTS: dict[str, tuple[str, ...]] = {
    "mug": ("cup", "handle"),
    "rack": ("base", "trunk", "peg"),
    "bowl": ("bowl",),
    "teapot": ("body", "spout", "handle", "lid"),
}

CATEGORY_DEFAULTS: dict[str, dict[str, float]] = {
    "mug": {
        "cup_radius": 0.040,
        "cup_height": 0.090,
        "handle_radius": 0.030,
        "handle_thickness": 0.0045,
        "handle_height": 0.045,
    },
    "rack": {
        "base_radius": 0.055,
        "trunk_radius": 0.010,
        "trunk_height": 0.240,
        "peg_length": 0.075,
        "peg_radius": 0.008,
        "peg_height": 0.160,
        "peg_angle": 0.0,
    },
    "bowl": {
        "bowl_radius": 0.055,
        "bowl_angle": 1.65,
    },
    "teapot": {
        "body_radius": 0.050,
        "body_height": 0.095,
        "spout_length": 0.075,
        "spout_angle": 0.60,
        "handle_radius": 0.026,
        "lid_radius": 0.049,
    },
}


@dataclass(frozen=True)
class Task:
    """A task's placed and reference categories, skill and demo density."""

    categories: tuple[str, str]
    skill: str
    demo_points_per_part: int = 400


TASKS: dict[str, Task] = {
    "mug_on_rack": Task(("mug", "rack"), "hang"),
    # The bowl-rim contact ring is thin, and a sparse demo leaves too few
    # interaction pairs to align.
    "bowl_on_mug": Task(("bowl", "mug"), "rest", 700),
    "teapot_pour_align": Task(("teapot", "mug"), "pour"),
}

_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])


def _validate_mug(p: Mapping[str, float]) -> None:
    r, h = p["cup_radius"], p["cup_height"]
    rr, rt, zh = p["handle_radius"], p["handle_thickness"], p["handle_height"]
    if r < WALL + 0.008:
        raise ValueError(f"cup_radius {r} leaves no interior after the wall")
    if h < 0.04:
        raise ValueError(f"cup_height {h} is too small")
    if rt < 0.002:
        raise ValueError(f"handle_thickness {rt} is too thin to sample")
    if rr - rt < 0.011:
        raise ValueError(f"handle_radius {rr} leaves the handle opening too small")
    if zh - rr - rt < 0.002:
        raise ValueError(f"handle_height {zh} pushes the handle below the cup base")
    if zh + rr + rt > h + 1e-9:
        raise ValueError(f"handle_height {zh} pushes the handle above the rim")


def _validate_rack(p: Mapping[str, float]) -> None:
    br, tr, th = p["base_radius"], p["trunk_radius"], p["trunk_height"]
    pl, pr, ph = p["peg_length"], p["peg_radius"], p["peg_height"]
    if tr < 0.005:
        raise ValueError(f"trunk_radius {tr} is too thin")
    if br < tr + 0.01:
        raise ValueError(f"base_radius {br} does not clear the trunk")
    if th < 0.05:
        raise ValueError(f"trunk_height {th} is too short")
    if pl < 0.03:
        raise ValueError(f"peg_length {pl} is too short to hang anything")
    if not 0.003 <= pr <= 0.0105:
        raise ValueError(f"peg_radius {pr} is outside the usable range")
    if not BASE_HEIGHT + 0.015 <= ph <= BASE_HEIGHT + th - 0.010:
        raise ValueError(f"peg_height {ph} is off the trunk")


def _validate_bowl(p: Mapping[str, float]) -> None:
    rho, alpha = p["bowl_radius"], p["bowl_angle"]
    if rho < 0.03:
        raise ValueError(f"bowl_radius {rho} is too small")
    if not 1.2 <= alpha <= 1.9:
        raise ValueError(f"bowl_angle {alpha} is outside the cap range")


def _validate_teapot(p: Mapping[str, float]) -> None:
    rb, hb = p["body_radius"], p["body_height"]
    ls, sa = p["spout_length"], p["spout_angle"]
    rr, rl = p["handle_radius"], p["lid_radius"]
    if rb < WALL + 0.012:
        raise ValueError(f"body_radius {rb} leaves no interior after the wall")
    if hb < 0.06:
        raise ValueError(f"body_height {hb} is too small")
    if not 0.3 <= sa <= 0.9:
        raise ValueError(f"spout_angle {sa} is outside the usable range")
    if ls < 0.04:
        raise ValueError(f"spout_length {ls} is too short")
    if rr - 0.005 < 0.011:
        raise ValueError(f"handle_radius {rr} leaves the handle opening too small")
    if 0.55 * hb + rr + 0.005 > hb + 1e-9:
        raise ValueError(f"handle_radius {rr} pushes the handle above the rim")
    if rl < rb - WALL + 0.001:
        raise ValueError(f"lid_radius {rl} does not cover the opening")
    if rl > rb + 0.012:
        raise ValueError(f"lid_radius {rl} overhangs the body")


_VALIDATORS = {
    "mug": _validate_mug,
    "rack": _validate_rack,
    "bowl": _validate_bowl,
    "teapot": _validate_teapot,
}


@dataclass(frozen=True)
class ParametricObjectSpec:
    """Immutable description of one family member plus sampling controls."""

    category: str
    params: Mapping[str, float]
    seed: int = 0
    points_per_part: int = 400
    noise: float = 0.0

    def __post_init__(self):
        if self.category not in CATEGORY_PARTS:
            raise ValueError(f"unknown category {self.category!r}")
        defaults = CATEGORY_DEFAULTS[self.category]
        params = {k: float(v) for k, v in dict(self.params).items()}
        missing = sorted(set(defaults) - set(params))
        extra = sorted(set(params) - set(defaults))
        if missing:
            raise ValueError(f"missing parameter {missing[0]!r}")
        if extra:
            raise ValueError(f"unknown parameter {extra[0]!r}")
        if not all(np.isfinite(v) for v in params.values()):
            raise ValueError("parameters must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.points_per_part < 10:
            raise ValueError("points_per_part must be at least 10")
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ValueError("noise must be finite and >= 0")
        _VALIDATORS[self.category](params)
        object.__setattr__(self, "params", params)

    def part_names(self) -> tuple[str, ...]:
        return CATEGORY_PARTS[self.category]


def default_spec(
    category: str,
    seed: int = 0,
    points_per_part: int = 400,
    noise: float = 0.0,
    **overrides: float,
) -> ParametricObjectSpec:
    params = dict(CATEGORY_DEFAULTS[category])
    params.update(overrides)
    return ParametricObjectSpec(category, params, seed, points_per_part, noise)


def _clamp_params(category: str, p: dict[str, float]) -> dict[str, float]:
    """Nudge randomly drawn parameters back into the valid joint region."""
    q = dict(p)
    if category == "mug":
        q["cup_radius"] = max(q["cup_radius"], WALL + 0.009)
        q["handle_thickness"] = min(max(q["handle_thickness"], 0.0025), 0.007)
        q["handle_radius"] = max(q["handle_radius"], q["handle_thickness"] + 0.0115)
        q["cup_height"] = max(q["cup_height"], 0.045)
        rr, rt = q["handle_radius"], q["handle_thickness"]
        rr = min(rr, (q["cup_height"] - 0.003) / 2.0 - rt)
        if rr - rt < 0.011:
            # The cup is too short for the handle's smallest opening: grow
            # the cup to fit the floored handle rather than close the opening.
            rr = q["handle_radius"]
            q["cup_height"] = 2.0 * (rr + rt) + 0.003
        q["handle_radius"] = rr
        lo = rr + rt + 0.003
        hi = q["cup_height"] - rr - rt
        q["handle_height"] = float(np.clip(q["handle_height"], lo, max(hi, lo)))
    elif category == "rack":
        q["trunk_radius"] = max(q["trunk_radius"], 0.006)
        q["base_radius"] = max(q["base_radius"], q["trunk_radius"] + 0.012)
        q["trunk_height"] = max(q["trunk_height"], 0.06)
        q["peg_length"] = max(q["peg_length"], 0.035)
        q["peg_radius"] = float(np.clip(q["peg_radius"], 0.004, 0.0105))
        lo = BASE_HEIGHT + 0.016
        hi = BASE_HEIGHT + q["trunk_height"] - 0.011
        q["peg_height"] = float(np.clip(q["peg_height"], lo, max(hi, lo)))
    elif category == "bowl":
        q["bowl_radius"] = max(q["bowl_radius"], 0.032)
        q["bowl_angle"] = float(np.clip(q["bowl_angle"], 1.25, 1.85))
    elif category == "teapot":
        q["body_radius"] = max(q["body_radius"], WALL + 0.013)
        q["body_height"] = max(q["body_height"], 0.065)
        q["spout_angle"] = float(np.clip(q["spout_angle"], 0.35, 0.85))
        q["spout_length"] = max(q["spout_length"], 0.045)
        q["handle_radius"] = float(
            np.clip(q["handle_radius"], 0.017, 0.45 * q["body_height"] - 0.006)
        )
        q["lid_radius"] = float(
            np.clip(q["lid_radius"], q["body_radius"] - WALL + 0.001, q["body_radius"] + 0.010)
        )
    return q


def sample_spec(
    category: str,
    rng: np.random.Generator,
    widths: float | Mapping[str, float] = 0.10,
    seed: int = 0,
    points_per_part: int = 400,
    noise: float = 0.0,
) -> ParametricObjectSpec:
    """Draw a family member around the category defaults.

    Each parameter is jittered by a uniform fractional amount (widths, a
    scalar or per-parameter map). Draws happen in sorted parameter order
    so a given rng state always yields the same spec.
    """
    defaults = CATEGORY_DEFAULTS[category]
    params: dict[str, float] = {}
    for name in sorted(defaults):
        w = widths.get(name, 0.0) if isinstance(widths, Mapping) else float(widths)
        params[name] = defaults[name] * (1.0 + w * rng.uniform(-1.0, 1.0))
    return ParametricObjectSpec(
        category, _clamp_params(category, params), seed, points_per_part, noise
    )


def spec_from_dict(payload: Mapping) -> ParametricObjectSpec:
    return from_json(ParametricObjectSpec, payload)


# ---------------------------------------------------------------------------
# surfaces and signed distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Surface:
    area: float
    embed: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class _Part:
    """One part's boundary surfaces, in sampling order, and its signed distance."""

    surfaces: list[_Surface]
    sdf: Callable[[np.ndarray], np.ndarray]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _frame(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = _Z if abs(float(d @ _Z)) < 0.9 else _X
    e1 = _unit(np.cross(ref, d))
    return e1, np.cross(d, e1)


def _cyl_lateral(p0, d, e1, e2, radius, length) -> _Surface:
    p0 = np.asarray(p0, dtype=float)

    def embed(u, v, p0=p0, d=d, e1=e1, e2=e2, radius=radius, length=length):
        phi = 2.0 * np.pi * v
        return (
            p0
            + np.outer(u * length, d)
            + radius * (np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2))
        )

    return _Surface(2.0 * np.pi * radius * length, embed)


def _disk(center, e1, e2, radius, inner=0.0) -> _Surface:
    center = np.asarray(center, dtype=float)

    def embed(u, v, center=center, e1=e1, e2=e2, radius=radius, inner=inner):
        r = np.sqrt(inner * inner + u * (radius * radius - inner * inner))
        phi = 2.0 * np.pi * v
        return center + np.outer(r * np.cos(phi), e1) + np.outer(r * np.sin(phi), e2)

    return _Surface(np.pi * (radius * radius - inner * inner), embed)


def _capped(dr: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Signed distance of a capped cylinder from the radial and axial excess."""
    outside = np.hypot(np.maximum(dr, 0.0), np.maximum(dz, 0.0))
    inside = np.minimum(np.maximum(dr, dz), 0.0)
    return outside + inside


def _axial(pts: np.ndarray, origin: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from the axis through origin along d, and height along it."""
    q = pts - origin
    z = q @ d
    return np.sqrt(np.maximum(np.einsum("ij,ij->i", q, q) - z * z, 0.0)), z


def _cyl_sdf_z(radius: float, z0: float, z1: float) -> Callable[[np.ndarray], np.ndarray]:
    def sdf(pts):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        return _capped(rho - radius, np.maximum(z0 - pts[:, 2], pts[:, 2] - z1))

    return sdf


def _z_cylinder(radius: float, z0: float, length: float) -> _Part:
    """Solid cylinder standing on the z axis at height z0."""
    bottom = np.array([0.0, 0.0, z0])
    return _Part(
        [
            _cyl_lateral(bottom, _Z, _X, _Y, radius, length),
            _disk(bottom, _X, _Y, radius),
            _disk(np.array([0.0, 0.0, z0 + length]), _X, _Y, radius),
        ],
        _cyl_sdf_z(radius, z0, z0 + length),
    )


def _vessel(radius: float, height: float, wall: float) -> _Part:
    """Open cylindrical vessel standing on the origin, walls and floor wall thick."""
    inner = radius - wall
    outer = _cyl_sdf_z(radius, 0.0, height)
    cavity = _cyl_sdf_z(inner, wall, height + 0.05)
    return _Part(
        [
            _cyl_lateral(np.zeros(3), _Z, _X, _Y, radius, height),
            _cyl_lateral(np.array([0, 0, wall]), _Z, _X, _Y, inner, height - wall),
            _disk(np.zeros(3), _X, _Y, radius),
            _disk(np.array([0, 0, wall]), _X, _Y, inner),
            _disk(np.array([0, 0, height]), _X, _Y, radius, inner=inner),
        ],
        lambda pts: np.maximum(outer(pts), -cavity(pts)),
    )


def _arc(center, e1, e2, normal, ring, tube, half_angle) -> _Part:
    """Torus arc of the given ring and tube radii, capped by half-spheres."""
    center = np.asarray(center, dtype=float)

    def tube_embed(u, v):
        theta = half_angle * (2.0 * u - 1.0)
        phi = 2.0 * np.pi * v
        radial = np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), e2)
        return (
            center
            + (ring + tube * np.cos(phi))[:, None] * radial
            + np.outer(tube * np.sin(phi), normal)
        )

    surfaces = [_Surface((2.0 * half_angle * ring) * (2.0 * np.pi * tube), tube_embed)]
    for sgn in (1.0, -1.0):
        theta_end = sgn * half_angle
        end = center + ring * (math.cos(theta_end) * e1 + math.sin(theta_end) * e2)
        tangent = sgn * (-math.sin(theta_end) * e1 + math.cos(theta_end) * e2)
        b2 = np.cross(tangent, normal)

        def cap_embed(u, v, end=end, tangent=tangent, b2=b2):
            rad = np.sqrt(np.clip(1.0 - u * u, 0.0, 1.0))
            phi = 2.0 * np.pi * v
            return end + tube * (
                np.outer(u, tangent)
                + np.outer(rad * np.cos(phi), normal)
                + np.outer(rad * np.sin(phi), b2)
            )

        surfaces.append(_Surface(2.0 * np.pi * tube * tube, cap_embed))

    def sdf(pts):
        q = pts - center
        lam = np.clip(np.arctan2(q @ e2, q @ e1), -half_angle, half_angle)
        nearest = center + ring * (np.outer(np.cos(lam), e1) + np.outer(np.sin(lam), e2))
        return np.linalg.norm(pts - nearest, axis=1) - tube

    return _Part(surfaces, sdf)


def _bowl(rho_o: float, rho_i: float, alpha: float) -> _Part:
    """Spherical shell between rho_i and rho_o, cut at polar angle alpha from the bottom."""
    center = np.array([0.0, 0.0, rho_o])
    cos_a = math.cos(alpha)

    def shell_embed(u, v, radius):
        w = 1.0 - u * (1.0 - cos_a)
        sin_t = np.sqrt(np.clip(1.0 - w * w, 0.0, 1.0))
        phi = 2.0 * np.pi * v
        direction = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), -w], axis=1)
        return center + radius * direction

    def rim_embed(u, v):
        r = np.sqrt(rho_i * rho_i + u * (rho_o * rho_o - rho_i * rho_i))
        phi = 2.0 * np.pi * v
        sin_a = math.sin(alpha)
        direction = np.stack(
            [sin_a * np.cos(phi), sin_a * np.sin(phi), np.full_like(phi, -cos_a)], axis=1
        )
        return center + r[:, None] * direction

    def sdf(pts):
        q = pts - center
        r = np.linalg.norm(q, axis=1)
        cos_t = np.clip(-q[:, 2] / np.maximum(r, 1e-15), -1.0, 1.0)
        band = np.maximum(r - rho_o, rho_i - r)
        return np.maximum(band, r * np.sin(np.arccos(cos_t) - alpha))

    return _Part(
        [
            _Surface(
                2.0 * np.pi * rho_o * rho_o * (1.0 - cos_a), lambda u, v: shell_embed(u, v, rho_o)
            ),
            _Surface(
                2.0 * np.pi * rho_i * rho_i * (1.0 - cos_a), lambda u, v: shell_embed(u, v, rho_i)
            ),
            _Surface(np.pi * math.sin(alpha) * (rho_o * rho_o - rho_i * rho_i), rim_embed),
        ],
        sdf,
    )


def _frustum(origin, d, length, r0, r1) -> _Part:
    """Solid truncated cone from radius r0 at origin to r1 at length along d."""
    origin = np.asarray(origin, dtype=float)
    d = np.asarray(d, dtype=float)
    e1, e2 = _frame(d)
    slant = math.hypot(length, r1 - r0)

    def lateral_embed(u, v):
        # Invert the cdf of the radius-weighted axial density so points are
        # uniform by area on the cone.
        total = r0 * length + 0.5 * (r1 - r0) * length
        target = u * total
        a = (r1 - r0) / (2.0 * length)
        if abs(a) < 1e-12:
            z = target / max(r0, 1e-12)
        else:
            z = (-r0 + np.sqrt(np.maximum(r0 * r0 + 4.0 * a * target, 0.0))) / (2.0 * a)
        z = np.clip(z, 0.0, length)
        radius = r0 + (r1 - r0) * z / length
        phi = 2.0 * np.pi * v
        return (
            origin
            + np.outer(z, d)
            + radius[:, None] * (np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2))
        )

    edges = [
        (np.array([0.0, 0.0]), np.array([r0, 0.0])),
        (np.array([r0, 0.0]), np.array([r1, length])),
        (np.array([r1, length]), np.array([0.0, length])),
    ]

    def sdf(pts):
        rho, z = _axial(pts, origin, d)
        pt2 = np.stack([rho, z], axis=1)
        dist = np.full(len(pts), np.inf)
        for a, b in edges:
            ab = b - a
            tt = np.clip(((pt2 - a) @ ab) / float(ab @ ab), 0.0, 1.0)
            proj = a + tt[:, None] * ab
            dist = np.minimum(dist, np.linalg.norm(pt2 - proj, axis=1))
        inside = (z >= 0.0) & (z <= length) & (rho <= r0 + (r1 - r0) * z / length)
        return np.where(inside, -dist, dist)

    return _Part(
        [
            _Surface(np.pi * (r0 + r1) * slant, lateral_embed),
            _disk(origin, e1, e2, r0),
            _disk(origin + length * d, e1, e2, r1),
        ],
        sdf,
    )


# ---------------------------------------------------------------------------
# objects: parts and feature points from one definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectFeatures:
    """Named analytic landmarks of one object, posable like its cloud."""

    points: Mapping[str, np.ndarray]
    directions: Mapping[str, np.ndarray]
    scalars: Mapping[str, float]

    def transformed(self, t: RigidTransform) -> "ObjectFeatures":
        return ObjectFeatures(
            {k: t.apply(v) for k, v in self.points.items()},
            {k: t.rotation @ v for k, v in self.directions.items()},
            dict(self.scalars),
        )


def _geometry(spec: ParametricObjectSpec) -> tuple[dict[str, _Part], ObjectFeatures]:
    """Build every part of spec, keyed in part order, and its feature points.

    Each category's frames and derived lengths are computed once here, so
    the samples, the signed distances and the features describe one solid.
    """
    p = spec.params
    if spec.category == "mug":
        r, h = p["cup_radius"], p["cup_height"]
        ring, tube = p["handle_radius"], p["handle_thickness"]
        loop_center = np.array([r + RING_STANDOFF, 0.0, p["handle_height"]])
        parts = {
            "cup": _vessel(r, h, WALL),
            "handle": _arc(loop_center, _X, _Z, _Y, ring, tube, HANDLE_ARC),
        }
        return parts, ObjectFeatures(
            {"rim_center": np.array([0.0, 0.0, h]), "loop_center": loop_center},
            {"loop_normal": _Y.copy()},
            {
                "rim_radius_outer": r,
                "rim_radius_inner": r - WALL,
                "loop_ring": ring,
                "loop_tube": tube,
                "hole": ring - tube,
            },
        )
    if spec.category == "rack":
        tr, pr = p["trunk_radius"], p["peg_radius"]
        psi = p["peg_angle"]
        d = np.array(
            [
                math.cos(psi) * math.cos(PEG_TILT),
                math.sin(psi) * math.cos(PEG_TILT),
                math.sin(PEG_TILT),
            ]
        )
        # The peg starts on the trunk axis and runs through the trunk wall.
        p0 = np.array([0.0, 0.0, p["peg_height"]])
        total = tr + p["peg_length"]
        e1, e2 = _frame(d)

        def peg_sdf(pts):
            rho, z = _axial(pts, p0, d)
            return _capped(rho - pr, np.maximum(-z, z - total))

        parts = {
            "base": _z_cylinder(p["base_radius"], 0.0, BASE_HEIGHT),
            "trunk": _z_cylinder(tr, BASE_HEIGHT, p["trunk_height"]),
            "peg": _Part(
                [
                    _cyl_lateral(p0, d, e1, e2, pr, total),
                    _disk(p0, e1, e2, pr),
                    _disk(p0 + total * d, e1, e2, pr),
                ],
                peg_sdf,
            ),
        }
        return parts, ObjectFeatures(
            {"peg_base": p0 + tr * d},
            {"peg_dir": d},
            {"peg_length": p["peg_length"], "peg_radius": pr},
        )
    if spec.category == "bowl":
        rho_o = p["bowl_radius"] + BOWL_WALL / 2.0
        rho_i = p["bowl_radius"] - BOWL_WALL / 2.0
        alpha = p["bowl_angle"]
        return {"bowl": _bowl(rho_o, rho_i, alpha)}, ObjectFeatures(
            {"sphere_center": np.array([0.0, 0.0, rho_o])},
            {},
            {"radius_outer": rho_o},
        )
    if spec.category == "teapot":
        rb, hb, rl = p["body_radius"], p["body_height"], p["lid_radius"]
        spout_dir = np.array([math.cos(p["spout_angle"]), 0.0, math.sin(p["spout_angle"])])
        spout_origin = np.array([rb - 0.002, 0.0, 0.45 * hb])
        handle_center = np.array([-(rb + RING_STANDOFF), 0.0, 0.55 * hb])
        z1 = hb + LID_PLATE_HEIGHT
        z2 = z1 + LID_KNOB_HEIGHT
        plate = _cyl_sdf_z(rl, hb, z1)
        knob = _cyl_sdf_z(LID_KNOB_RADIUS, z1, z2)
        parts = {
            "body": _vessel(rb, hb, WALL),
            "spout": _frustum(
                spout_origin, spout_dir, p["spout_length"], SPOUT_ROOT_RADIUS, SPOUT_TIP_RADIUS
            ),
            "handle": _arc(handle_center, -_X, _Z, _Y, p["handle_radius"], 0.005, HANDLE_ARC),
            "lid": _Part(
                [
                    _cyl_lateral(np.array([0, 0, hb]), _Z, _X, _Y, rl, z1 - hb),
                    _disk(np.array([0, 0, hb]), _X, _Y, rl),
                    _disk(np.array([0, 0, z1]), _X, _Y, rl, inner=LID_KNOB_RADIUS),
                    _cyl_lateral(np.array([0, 0, z1]), _Z, _X, _Y, LID_KNOB_RADIUS, z2 - z1),
                    _disk(np.array([0, 0, z2]), _X, _Y, LID_KNOB_RADIUS),
                ],
                lambda pts: np.minimum(plate(pts), knob(pts)),
            ),
        }
        return parts, ObjectFeatures(
            {
                "spout_tip": spout_origin + p["spout_length"] * spout_dir,
                "rim_center": np.array([0.0, 0.0, hb]),
            },
            {"spout_dir": spout_dir},
            {"rim_radius_outer": rb},
        )
    raise ValueError(f"unknown category {spec.category!r}")


def features(spec: ParametricObjectSpec) -> ObjectFeatures:
    return _geometry(spec)[1]


# ---------------------------------------------------------------------------
# sampling: cloud, signed distance and features from one geometry build
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticSdf:
    """Signed distance of an object, posable in the world frame."""

    part_fns: Mapping[str, Callable[[np.ndarray], np.ndarray]]
    pose: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        object.__setattr__(self, "part_fns", dict(self.part_fns))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        local = self.pose.inverse().apply(np.atleast_2d(np.asarray(points, dtype=float)))
        values = [fn(local) for fn in self.part_fns.values()]
        return np.min(np.stack(values, axis=0), axis=0)

    def transformed(self, t: RigidTransform) -> "AnalyticSdf":
        return AnalyticSdf(self.part_fns, t.compose(self.pose))


def penetration_depth(points: np.ndarray, sdf: AnalyticSdf) -> float:
    """Deepest incursion of any point into the solid described by sdf."""
    values = sdf(np.asarray(points, dtype=float))
    return float(max(0.0, -values.min()))


def generate(
    spec: ParametricObjectSpec,
) -> tuple[PartDecomposedObject, AnalyticSdf, ObjectFeatures]:
    """Sample the object boundary; return its cloud, signed distance and features.

    All three come from one _geometry call. Points are allocated to
    surfaces proportionally to area (largest remainder), drawn uniformly in
    each surface's own parameterization, and perturbed by isotropic Gaussian
    noise when the spec asks for it. All randomness is keyed to the spec
    seed plus the part and surface indices, so two specs that differ in one
    parameter share almost all of their surface samples.
    """
    parts, feats = _geometry(spec)
    clouds: dict[str, PointCloud] = {}
    for part_index, part in enumerate(spec.part_names()):
        surfaces = parts[part].surfaces
        areas = np.array([s.area for s in surfaces])
        quota = spec.points_per_part * areas / areas.sum()
        counts = np.floor(quota).astype(int)
        shortfall = spec.points_per_part - counts.sum()
        counts[np.argsort(-(quota - counts), kind="stable")[:shortfall]] += 1
        pts_list = []
        for surf_index, (surf, count) in enumerate(zip(surfaces, counts)):
            if count == 0:
                continue
            # Each surface draws from its own substream, one (u, v) row per
            # point, so a small parameter change that shifts the area-based
            # allocation by a point or two leaves every other sample in
            # place. Nearby specs then produce nearby clouds instead of
            # fully resampled ones.
            rng = np.random.default_rng([spec.seed, part_index, surf_index])
            uv = rng.random((count, 2))
            pts_list.append(surf.embed(uv[:, 0], uv[:, 1]))
        pts = np.concatenate(pts_list)
        if spec.noise > 0:
            noise_rng = np.random.default_rng([spec.seed, part_index, 104729])
            pts = pts + noise_rng.normal(0.0, spec.noise, pts.shape)
        clouds[part] = PointCloud(pts)
    obj = PartDecomposedObject(spec.category, clouds)
    sdf = AnalyticSdf({name: part.sdf for name, part in parts.items()})
    return obj, sdf, feats


# ---------------------------------------------------------------------------
# partial views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CameraView:
    """Pinhole camera for self-occlusion culling of sampled clouds."""

    eye: Sequence[float]
    target: Sequence[float] = (0.0, 0.0, 0.0)
    grid_resolution: int = 128
    depth_band: float = 0.015

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.depth_band <= 0:
            raise ValueError("depth_band must be positive")


def partial_view(obj: PartDecomposedObject, camera: CameraView) -> PartDecomposedObject:
    """Keep only points visible from the camera, part structure preserved.

    Points project onto a pinhole image grid; within each cell only points
    inside a fixed depth band behind the nearest point survive. Parts
    reduced below three points are dropped with a warning; losing every
    part raises.
    """
    eye = np.asarray(camera.eye, dtype=float)
    target = np.asarray(camera.target, dtype=float)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("camera eye and target coincide")
    forward = forward / norm
    up0 = _Z if np.linalg.norm(np.cross(forward, _Z)) > 1e-6 else _X
    right = _unit(np.cross(forward, up0))
    up = np.cross(right, forward)

    parts = obj.part_names()
    sizes = [len(obj.parts[name]) for name in parts]
    stops = np.cumsum([0] + sizes)
    pts = np.concatenate([obj.parts[name].points for name in parts])
    q = pts - eye
    depth = q @ forward
    visible = depth > 1e-9
    if not visible.any():
        raise ValueError("empty view")
    uu = np.zeros(len(pts))
    vv = np.zeros(len(pts))
    uu[visible] = (q[visible] @ right) / depth[visible]
    vv[visible] = (q[visible] @ up) / depth[visible]

    grid = camera.grid_resolution
    umin, umax = uu[visible].min(), uu[visible].max()
    vmin, vmax = vv[visible].min(), vv[visible].max()
    du = max(umax - umin, 1e-12) / grid
    dv = max(vmax - vmin, 1e-12) / grid
    ix = np.clip(((uu - umin) / du).astype(int), 0, grid - 1)
    iy = np.clip(((vv - vmin) / dv).astype(int), 0, grid - 1)
    flat = ix * grid + iy
    nearest = np.full(grid * grid, np.inf)
    np.minimum.at(nearest, flat[visible], depth[visible])
    keep = visible & (depth <= nearest[flat] + camera.depth_band)

    kept: dict[str, PointCloud] = {}
    for name, a, b in zip(parts, stops[:-1], stops[1:]):
        idx = np.nonzero(keep[a:b])[0]
        if len(idx) < 3:
            warnings.warn(f"partial view dropped part {name!r}", stacklevel=2)
            continue
        kept[name] = obj.parts[name].subset(idx)
    if not kept:
        raise ValueError("empty view")
    return PartDecomposedObject(obj.category, kept)


# ---------------------------------------------------------------------------
# tasks and demonstrations
# ---------------------------------------------------------------------------


def task_categories(task: str) -> tuple[str, str]:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    return TASKS[task].categories


# Skills: each is a goal construction, the pose of a placed object a (local
# frame) on a reference b at identity, and a success predicate in the world
# frame, both over the two objects' features.


def _hang_goal(feat_a: ObjectFeatures, feat_b: ObjectFeatures) -> RigidTransform:
    # The loop hangs on the peg with its normal along the peg's heading.
    peg_dir = feat_b.directions["peg_dir"]
    peg_radius = feat_b.scalars["peg_radius"]
    q = feat_b.points["peg_base"] + HANG_FRACTION * feat_b.scalars["peg_length"] * peg_dir
    loop = feat_a.points["loop_center"]
    reach = feat_a.scalars["hole"] - peg_radius - HANG_TUBE_GAP
    if reach <= 0.0005:
        raise ValueError("infeasible pair")
    sin_chi = (peg_radius + HANG_WALL_GAP - RING_STANDOFF) / reach
    if not 0.0 <= sin_chi <= 0.98:
        raise ValueError("infeasible pair")
    chi = math.asin(sin_chi)
    crossing_local = np.array([loop[0] + reach * sin_chi, 0.0, loop[2] - reach * math.cos(chi)])
    rot = rotation_about_axis(_Z, math.atan2(peg_dir[1], peg_dir[0]) - math.pi / 2.0)
    return RigidTransform(rot, q - rot @ crossing_local)


def _hangs(feat_a: ObjectFeatures, feat_b: ObjectFeatures) -> bool:
    center = feat_a.points["loop_center"]
    normal = feat_a.directions["loop_normal"]
    q0 = feat_b.points["peg_base"]
    d = feat_b.directions["peg_dir"]
    dn = float(d @ normal)
    if abs(dn) < 1e-9:
        return False
    s = float((center - q0) @ normal) / dn
    if not 0.0 <= s <= feat_b.scalars["peg_length"]:
        return False
    crossing = q0 + s * d
    return float(np.linalg.norm(crossing - center)) < feat_a.scalars["hole"]


def _rest_goal(feat_a: ObjectFeatures, feat_b: ObjectFeatures) -> RigidTransform:
    rho_o = feat_a.scalars["radius_outer"]
    inner = feat_b.scalars["rim_radius_inner"]
    if rho_o <= inner + 0.003:
        raise ValueError("infeasible pair")
    drop = math.sqrt(rho_o * rho_o - inner * inner)
    center_z = feat_b.points["rim_center"][2] + drop + BOWL_REST_GAP
    return RigidTransform(np.eye(3), np.array([0.0, 0.0, center_z - rho_o]))


def _rests(feat_a: ObjectFeatures, feat_b: ObjectFeatures) -> bool:
    center = feat_a.points["sphere_center"]
    rho_o = feat_a.scalars["radius_outer"]
    rim = feat_b.points["rim_center"]
    inner = feat_b.scalars["rim_radius_inner"]
    if rho_o <= inner + 0.002:
        return False
    rest_z = float(rim[2]) + math.sqrt(rho_o * rho_o - inner * inner)
    lateral = float(np.linalg.norm(center[:2] - rim[:2]))
    return lateral <= 0.4 * inner and abs(float(center[2]) - rest_z) <= 0.008


def _pour_goal(feat_a: ObjectFeatures, feat_b: ObjectFeatures) -> RigidTransform:
    # Pour over the rim point opposite the mug handle so the spout body
    # clears the handle on approach.
    rim = feat_b.points["rim_center"]
    target = np.array([rim[0] - feat_b.scalars["rim_radius_outer"], rim[1], rim[2] + POUR_HEIGHT])
    return RigidTransform(np.eye(3), target - feat_a.points["spout_tip"])


def _pours(feat_a: ObjectFeatures, feat_b: ObjectFeatures) -> bool:
    tip = feat_a.points["spout_tip"]
    rim = feat_b.points["rim_center"]
    lateral = float(np.linalg.norm(tip[:2] - rim[:2]))
    lift = float(tip[2] - rim[2])
    return lateral <= feat_b.scalars["rim_radius_outer"] + 0.003 and 0.001 <= lift <= 0.05


_SKILLS = {
    "hang": (_hang_goal, _hangs),
    "rest": (_rest_goal, _rests),
    "pour": (_pour_goal, _pours),
}


def goal_transform(
    task: str, spec_a: ParametricObjectSpec, spec_b: ParametricObjectSpec
) -> RigidTransform:
    """Pose of object A (local frame) that accomplishes the task on B at identity."""
    cat_a, cat_b = task_categories(task)
    if (spec_a.category, spec_b.category) != (cat_a, cat_b):
        raise ValueError(f"task {task!r} expects categories {cat_a!r}, {cat_b!r}")
    goal, _ = _SKILLS[TASKS[task].skill]
    return goal(features(spec_a), features(spec_b))


def task_predicate(task: str, feat_a: ObjectFeatures, feat_b: ObjectFeatures) -> bool:
    """Geometric success test in the world frame, penetration not included."""
    task_categories(task)
    _, predicate = _SKILLS[TASKS[task].skill]
    return predicate(feat_a, feat_b)


# Where a demonstration's placed object starts, before its recorded motion.
_DEMO_INIT_A = RigidTransform(rotation_about_axis(_Z, 0.3), np.array([0.32, -0.14, 0.0]))


@dataclass(frozen=True)
class DemoScene:
    """A demonstration plus everything needed to audit or evaluate it."""

    demo: Demonstration
    spec_a: ParametricObjectSpec
    spec_b: ParametricObjectSpec
    init_a: RigidTransform
    sdf_b: AnalyticSdf


def generate_demo_scene(task: str) -> DemoScene:
    """The task's one demonstration: its two default objects at the goal."""
    cat_a, cat_b = task_categories(task)
    pp = TASKS[task].demo_points_per_part
    spec_a = default_spec(cat_a, seed=11, points_per_part=pp)
    spec_b = default_spec(cat_b, seed=12, points_per_part=pp)
    obj_a, sdf_a, feat_a = generate(spec_a)
    obj_b, sdf_b, feat_b = generate(spec_b)

    goal, predicate = _SKILLS[TASKS[task].skill]
    t_goal = goal(feat_a, feat_b)
    goal_points = t_goal.apply(obj_a.all_points())
    depth = penetration_depth(goal_points, sdf_b)
    depth = max(depth, penetration_depth(obj_b.all_points(), sdf_a.transformed(t_goal)))
    if depth > PENETRATION_TOLERANCE:
        raise ValueError("infeasible pair")
    if not predicate(feat_a.transformed(t_goal), feat_b):
        raise ValueError("infeasible pair")

    t_ab = t_goal.compose(_DEMO_INIT_A.inverse())
    demo = Demonstration(obj_a.transformed(_DEMO_INIT_A), obj_b, t_ab)
    return DemoScene(demo, spec_a, spec_b, _DEMO_INIT_A, sdf_b)
