"""Planar point patterns (uniform and clustered) and Voronoi-cell geometry.

Everything here operates on a finite rectangular window.  The default toroidal
metric wraps opposite edges so a sampled pattern behaves like a stationary
process on the infinite plane; the plain euclidean metric is kept for
edge-bias sensitivity checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Voronoi, cKDTree

TOROIDAL = "toroidal"
EUCLIDEAN = "euclidean"

PER_USER = "per-user"
PER_CLUSTER = "per-cluster"

_ASSOC_CHUNK = 4096
# a target's two nearest KD-tree distances closer than this fraction of the
# window's size tie up to rounding (~1e-16 of it) and are compared exactly
_TIE_TOL = 1e-9


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class Window:
    """Rectangular observation window with a distance convention."""

    width: float
    height: float
    metric: str = TOROIDAL

    def __post_init__(self):
        _check_positive("width", self.width)
        _check_positive("height", self.height)
        if self.metric not in (TOROIDAL, EUCLIDEAN):
            raise ValueError(f"metric must be {TOROIDAL!r} or {EUCLIDEAN!r}")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> np.ndarray:
        return np.array([0.5 * self.width, 0.5 * self.height])

    def wrap(self, xy: np.ndarray) -> np.ndarray:
        """Fold coordinates into [0, width) x [0, height) (toroidal only)."""
        span = np.array([self.width, self.height])
        folded = np.mod(xy, span)
        # np.mod rounds a tiny negative coordinate up to the span itself
        folded[folded >= span] = 0.0
        return folded

    def contains(self, xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        return (
            (xy[:, 0] >= 0)
            & (xy[:, 0] <= self.width)
            & (xy[:, 1] >= 0)
            & (xy[:, 1] <= self.height)
        )

    def distance_sq(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pairwise squared distances between rows of `a` (n,2) and `b` (m,2)."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        # per axis, every temporary is (n, m), the size of the result
        dx = np.abs(a[:, 0, None] - b[:, 0])
        dy = np.abs(a[:, 1, None] - b[:, 1])
        if self.metric == TOROIDAL:
            np.minimum(dx, self.width - dx, out=dx)
            np.minimum(dy, self.height - dy, out=dy)
        return np.square(dx, out=dx) + np.square(dy, out=dy)


@dataclass(frozen=True)
class PcpParams:
    """Parameters of a parent-daughter cluster process.

    Parents form a uniform Poisson scatter of intensity `lambda_p`; each
    parent carries a Poisson(pi * r_c**2 * lambda_c) number of daughters
    placed uniformly in the disc of radius `r_c` around it.
    """

    lambda_p: float
    lambda_c: float
    r_c: float

    def __post_init__(self):
        # zero intensities are allowed and yield the empty pattern
        _check_nonnegative("lambda_p", self.lambda_p)
        _check_nonnegative("lambda_c", self.lambda_c)
        _check_positive("r_c", self.r_c)

    @property
    def mean_cluster_size(self) -> float:
        return math.pi * self.r_c**2 * self.lambda_c

    @property
    def user_intensity(self) -> float:
        return self.mean_cluster_size * self.lambda_p


@dataclass(frozen=True)
class PointPattern:
    """A finite planar point set, optionally with cluster structure.

    `cluster_of[i]` names the cluster that spawned point i; `parents` holds
    the cluster centers when they are known (they are dropped by the text
    serialization, which stores labels only).
    """

    points: np.ndarray
    window: Window
    parents: np.ndarray | None = None
    cluster_of: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "points", pts)
        if len(pts) and not np.all(self.window.contains(pts)):
            raise ValueError("points must lie inside the window")
        if self.parents is not None and self.cluster_of is None:
            raise ValueError("parents given without cluster_of labels")
        if self.cluster_of is not None:
            lab = np.asarray(self.cluster_of, dtype=int).reshape(-1)
            object.__setattr__(self, "cluster_of", lab)
            if len(lab) != len(pts):
                raise ValueError("cluster_of must label every point")
            if len(lab) and lab.min() < 0:
                raise ValueError("cluster labels must be >= 0")
            if self.parents is not None:
                par = np.asarray(self.parents, dtype=float).reshape(-1, 2)
                object.__setattr__(self, "parents", par)
                if len(lab) and lab.max() >= len(par):
                    raise ValueError("cluster_of refers to a missing parent")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def is_clustered(self) -> bool:
        return self.cluster_of is not None


@dataclass(frozen=True)
class AssociationMap:
    """User-to-station assignment: user i is served by `serving_bs[i]`."""

    serving_bs: np.ndarray

    @classmethod
    def from_serving(cls, serving: np.ndarray, n_bs: int) -> "AssociationMap":
        """Wrap station labels, each of which must lie in [0, n_bs)."""
        serving = np.asarray(serving, dtype=int)
        if len(serving) and not (0 <= serving.min() and serving.max() < n_bs):
            raise ValueError(f"serving station labels must lie in [0, {n_bs})")
        return cls(serving_bs=serving)


def sample_ppp(intensity: float, window: Window, seed: int) -> PointPattern:
    """Sample a homogeneous Poisson scatter of the given intensity."""
    if not (math.isfinite(intensity) and intensity >= 0):
        raise ValueError(f"intensity must be finite and >= 0, got {intensity!r}")
    rng = np.random.default_rng(seed)
    n = rng.poisson(intensity * window.area)
    pts = rng.random((n, 2)) * [window.width, window.height]
    return PointPattern(points=pts, window=window)


def sample_pcp(params: PcpParams, window: Window, seed: int) -> PointPattern:
    """Sample a parent-daughter cluster pattern.

    Daughters near the boundary wrap toroidally when the window metric is
    toroidal, keeping the intensity homogeneous; under the euclidean metric
    they are truncated at the edge instead.
    """
    if 2.0 * params.r_c >= min(window.width, window.height):
        raise ValueError(
            "cluster radius too large for the window: need 2*r_c < min(width, height)"
        )
    rng = np.random.default_rng(seed)
    n_par = rng.poisson(params.lambda_p * window.area)
    parents = rng.random((n_par, 2)) * [window.width, window.height]
    counts = rng.poisson(params.mean_cluster_size, size=n_par)
    total = int(counts.sum())

    # uniform in the disc: radius r_c*sqrt(U), uniform angle
    radii = params.r_c * np.sqrt(rng.random(total))
    angles = 2.0 * math.pi * rng.random(total)
    offsets = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    labels = np.repeat(np.arange(n_par), counts)
    pts = parents[labels] + offsets if total else np.empty((0, 2))

    if window.metric == TOROIDAL:
        pts = window.wrap(pts)
    else:
        keep = window.contains(pts) if total else np.zeros(0, dtype=bool)
        pts = pts[keep]
        labels = labels[keep]
    return PointPattern(points=pts, window=window, parents=parents, cluster_of=labels)


def _station_tree(points: np.ndarray, window: Window) -> cKDTree:
    """KD-tree over station positions in the window's metric.

    A periodic tree needs every coordinate in [0, width) x [0, height), while
    `Window.contains` admits the far edges, so toroidal positions are folded
    first; the fold leaves positions already in range bit for bit unchanged.
    """
    if window.metric != TOROIDAL:
        return cKDTree(points)
    return cKDTree(window.wrap(points), boxsize=[window.width, window.height])


def _argmin_distance(targets: np.ndarray, bss: np.ndarray, window: Window) -> np.ndarray:
    """Brute-force nearest station per target row, in bounded chunks."""
    out = np.empty(len(targets), dtype=int)
    for lo in range(0, len(targets), _ASSOC_CHUNK):
        chunk = targets[lo:lo + _ASSOC_CHUNK]
        out[lo:lo + len(chunk)] = np.argmin(window.distance_sq(chunk, bss), axis=1)
    return out


def _nearest_index(targets: np.ndarray, bss: np.ndarray, window: Window) -> np.ndarray:
    """Index of the nearest station per target row; ties go to the lowest index.

    A KD-tree finds each target's two nearest stations.  Rows whose two
    distances agree to within rounding are settled by `_argmin_distance`
    over all stations, so the result equals `argmin` over `distance_sq`
    however many stations tie, at a cost that grows with the ties only.
    """
    if len(bss) == 1:
        return np.zeros(len(targets), dtype=int)
    dist, idx = _station_tree(bss, window).query(targets, k=2, workers=1)
    out = idx[:, 0]
    slack = _TIE_TOL * (window.width + window.height)
    near_tie = np.flatnonzero(dist[:, 1] - dist[:, 0] <= slack)
    out[near_tie] = _argmin_distance(targets[near_tie], bss, window)
    return out


def associate(users: PointPattern, bss: PointPattern, mode: str = PER_USER) -> AssociationMap:
    """Assign each user to a station.

    `per-user` maps every user to its nearest station under the window
    metric; `per-cluster` maps whole clusters to the station nearest their
    parent and requires a clustered pattern.
    """
    if len(bss) == 0:
        raise ValueError("cannot associate against an empty station pattern")
    if users.window != bss.window:
        raise ValueError("users and stations must share a window")
    if mode == PER_USER:
        serving = _nearest_index(users.points, bss.points, users.window)
    elif mode == PER_CLUSTER:
        if not users.is_clustered or users.parents is None:
            raise ValueError(
                "per-cluster association requires a clustered pattern with parents"
            )
        parent_serving = _nearest_index(users.parents, bss.points, users.window)
        serving = parent_serving[users.cluster_of] if len(users) else np.empty(0, int)
    else:
        raise ValueError(f"unknown association mode {mode!r}")
    return AssociationMap.from_serving(serving, n_bs=len(bss))


def _in_cell(targets: np.ndarray, bss: np.ndarray, station: int, window: Window) -> np.ndarray:
    """Mask of the `targets` rows whose nearest station is `station`.

    Equals `_nearest_index(targets, bss, window) == station`, ties to the
    lowest index included.  A target nearer to any of the station's eight
    nearest neighbours than to the station cannot be in its cell; the few
    rows that pass that exact filter are settled over all stations.
    """
    to_station = window.distance_sq(bss[station], bss)[0]
    # column 0 is the station; the nine nearest may list it again
    near = np.append(station, np.argpartition(to_station, min(8, len(bss) - 1))[:9])
    dist = window.distance_sq(targets, bss[near])
    cand = np.flatnonzero(dist[:, 0] <= dist.min(axis=1))
    mask = np.zeros(len(targets), dtype=bool)
    mask[cand] = _argmin_distance(targets[cand], bss, window) == station
    return mask


def _voronoi_areas(points: np.ndarray, window: Window) -> np.ndarray:
    """Exact area of each point's Voronoi cell in the window, by Qhull.

    The points are tiled with images that leave each point's cell in the
    window unchanged: translates by one window under `TOROIDAL`, and under
    `EUCLIDEAN` mirror images across the edges, two windows out.  Mirroring
    makes a point's cell its cell clipped to the window, and the second
    window closes the cell of a point on an edge, which is its own mirror:
    that cell spans the point's 2^k mirrored windows for k edges, so its area
    is divided by 2^k.  Duplicate images are dropped before Qhull, originals
    first, so a repeated point gets area 0 and the lowest index owns the
    cell, as in `associate`.  Each cell's area is the sum of the triangles
    its ridges span with its point.
    """
    n = len(points)
    span = np.array([window.width, window.height])
    if window.metric == TOROIDAL:
        base = window.wrap(points)
        shifts = np.array([0.0, -1.0, 1.0])[:, None] * span
        axes = [base[:, d] + shifts[:, d, None] for d in (0, 1)]
    else:
        base = points
        axes = [
            np.stack((c, -c, 2 * s - c, c - 2 * s, c + 2 * s))
            for c, s in zip(base.T, span)
        ]
    # every (x image, y image) pair per point; the untouched originals come first
    tiled = np.stack(np.broadcast_arrays(axes[0][:, None], axes[1][None]), axis=-1)
    tiled = tiled.reshape(-1, 2)
    _, first = np.unique(tiled, axis=0, return_index=True)
    kept = np.sort(first)
    originals = kept[kept < n]
    vor = Voronoi(tiled[kept])
    own = (vor.ridge_points < len(originals)).any(axis=1)
    owners = vor.ridge_points[own]
    ends = np.asarray(vor.ridge_vertices)[own]
    if np.any(ends < 0):  # the images bound every original's cell
        raise RuntimeError("an original's Voronoi cell came out unbounded")
    corners = vor.vertices[ends]
    areas = np.zeros(len(kept))
    for side in (0, 1):
        site = vor.points[owners[:, side]]
        edge_a, edge_b = corners[:, 0] - site, corners[:, 1] - site
        cross = edge_a[:, 0] * edge_b[:, 1] - edge_a[:, 1] * edge_b[:, 0]
        areas += np.bincount(owners[:, side], weights=0.5 * np.abs(cross), minlength=len(kept))
    out = np.zeros(n)
    out[originals] = areas[: len(originals)]
    if window.metric != TOROIDAL:
        on_edges = ((base == 0) | (base == span)).sum(axis=1)
        out /= 2.0**on_edges
    return out


def estimate_cell_areas(
    bss: PointPattern, window: Window, probes: int, seed: int
) -> np.ndarray:
    """Voronoi cell areas as `probes` uniform probe points would count them.

    The exact areas come from Qhull (`_voronoi_areas`).  Counting which cell
    each of `probes` uniform points falls in gives multinomial counts with
    cell probabilities area / window area, so one multinomial draw on the
    exact areas has the probe count's law at a cost that grows with the
    cells, not the probes.  The counts partition `probes`, so the estimates
    sum to the window area; per-cell standard error scales like
    area/sqrt(probes).
    """
    if len(bss) == 0:
        raise ValueError("cannot estimate cell areas without stations")
    if window != bss.window:
        raise ValueError("window must be the stations' window")
    if probes < 10_000:
        raise ValueError("probes must be at least 10000 for a usable estimate")
    rng = np.random.default_rng(seed)
    areas = _voronoi_areas(bss.points, window)
    counts = rng.multinomial(probes, areas / window.area)
    return counts * (window.area / probes)


def cell_area_density(x, lambda_b: float):
    """Density of the typical Voronoi cell area (gamma fit, shape 3.5)."""
    _check_positive("lambda_b", lambda_b)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("cell area must be >= 0")
    y = x * lambda_b
    out = (343.0 / 15.0) * math.sqrt(3.5 / math.pi) * y**2.5 * np.exp(-3.5 * y) * lambda_b
    return out if out.ndim else float(out)


def nearest_distance_density(l, lambda_b: float):
    """Density of the distance from a uniform point to its nearest station."""
    _check_positive("lambda_b", lambda_b)
    l = np.asarray(l, dtype=float)
    if np.any(l < 0):
        raise ValueError("distance must be >= 0")
    out = 2.0 * math.pi * lambda_b * l * np.exp(-lambda_b * math.pi * l**2)
    return out if out.ndim else float(out)


def write_pattern(pattern: PointPattern, path) -> None:
    """Write a pattern as a text table: x,y,parent_index (-1 when unclustered).

    Parent coordinates are not part of the table; a pattern read back keeps
    its cluster labels but drops parent positions.
    """
    labels = (
        pattern.cluster_of
        if pattern.is_clustered
        else np.full(len(pattern), -1, dtype=int)
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,parent_index\n")
        for (x, y), lab in zip(pattern.points, labels):
            fh.write(f"{x:.17g},{y:.17g},{int(lab)}\n")


def read_pattern(path, window: Window) -> PointPattern:
    """Read a pattern written by `write_pattern`."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "x,y,parent_index":
            raise ValueError(f"unexpected pattern header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        return PointPattern(points=np.empty((0, 2)), window=window)
    pts = np.array([[float(r[0]), float(r[1])] for r in rows])
    labels = np.array([int(r[2]) for r in rows])
    if np.all(labels < 0):
        return PointPattern(points=pts, window=window)
    if np.any(labels < 0):
        raise ValueError("mixed clustered and unclustered rows")
    return PointPattern(points=pts, window=window, cluster_of=labels)
