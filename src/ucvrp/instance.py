"""Instance model for the unsplittable CVRP.

An instance is a depot (index 0), n customers (indices 1..n) with integer
demands, an integer vehicle capacity, and a symmetric metric cost matrix
over all n+1 points.  Demands stay integers: ``Instance.exceeds`` decides
each threshold d_v/k > p/q as d_v q > p k, so the small / big / large
classifications are exact and tie-free; costs stay 64-bit floats.

Also provided here: instance generators, JSON I/O, the radial
mass and its lower bound on the optimum, and the demand-profile integral

    int_l^r x^t dF(x) = sum_{v: l < d_v/k <= r} 2 (d_v/k)^t c(r,v)
                        / sum_v 2 (d_v/k) c(r,v),   t in {0, 1},

which the ratio analysis of every algorithm in this package is written in
terms of.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Iterable, Optional, Sequence

import numpy as np

METRIC_TOL = 1e-9
HALF = Fraction(1, 2)


class InstanceError(ValueError):
    """Base class for instance validation failures."""


class TriangleViolation(InstanceError):
    def __init__(self, x: int, y: int, z: int, slack: float):
        self.triple = (x, y, z)
        super().__init__(
            f"triangle inequality violated: c({x},{y}) > c({x},{z}) + c({z},{y}) "
            f"by {slack:.3g}"
        )


class AsymmetricCost(InstanceError):
    def __init__(self, x: int, y: int):
        self.pair = (x, y)
        super().__init__(f"cost matrix not symmetric at ({x},{y})")


class DemandOutOfRange(InstanceError):
    def __init__(self, v: int, demand: int, capacity: int):
        self.customer = v
        super().__init__(
            f"demand of customer {v} is {demand}, outside [1, {capacity}]"
        )


class ZeroRadialMass(InstanceError):
    def __init__(self) -> None:
        super().__init__("all customers sit at the depot; dF is undefined")


@dataclass(frozen=True)
class Instance:
    """An unsplittable CVRP instance.

    ``metric`` is an (n+1) x (n+1) array; row/column 0 is the depot.
    ``demands[i]`` is the demand of customer i+1.  ``coords`` is kept when
    the metric was derived from planar points (serialization round-trips
    through the coordinates in that case).
    """

    name: str
    capacity: int
    demands: tuple[int, ...]
    metric: np.ndarray
    coords: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        # A private copy: freezing the caller's array would leave it able to
        # re-enable writes and change a validated instance.
        m = np.array(self.metric, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "metric", m)
        object.__setattr__(self, "demands", tuple(int(d) for d in self.demands))

    @property
    def n(self) -> int:
        return len(self.demands)

    @property
    def customers(self) -> range:
        return range(1, self.n + 1)

    def demand(self, v: int) -> int:
        return self.demands[v - 1]

    def exceeds(self, v: int, t: Fraction) -> bool:
        """d_v/k > t for a Fraction or int t = p/q, decided as d_v q > p k."""
        return self.demands[v - 1] * t.denominator > t.numerator * self.capacity

    def cost(self, x: int, y: int) -> float:
        return float(self.metric[x, y])

    def depot_cost(self, v: int) -> float:
        return float(self.metric[0, v])

    def route_cost(self, vertices: Sequence[int]) -> float:
        return float(
            sum(self.metric[a, b] for a, b in zip(vertices, vertices[1:]))
        )

    def to_json_dict(self) -> dict:
        if self.coords is not None:
            metric = {"type": "euc2d", "coords": [list(p) for p in self.coords]}
        else:
            metric = {"type": "explicit", "matrix": self.metric.tolist()}
        return {
            "name": self.name,
            "capacity": self.capacity,
            "demands": list(self.demands),
            "metric": metric,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def validate_instance(inst: Instance) -> Instance:
    """Check all instance invariants; return the instance unchanged.

    Raises the first violation found: matrix shape/symmetry/reflexivity,
    the triangle inequality over all triples (additive tolerance 1e-9),
    and 1 <= d_v <= k for every customer.

    The triangle inequality needs no check when ``inst.coords`` is set,
    the metric equals ``_euclidean`` of those points bit for bit, and
    4 eps M < tol for M = max|m|, i.e. M < 2^50 tol ~ 1.1e6.  Then no
    computed slack can exceed tol:

    - Let u = eps/2 and D the exact distances between the points, which
      are floats and so exact, with D(x,y) <= D(x,z) + D(z,y).  An entry
      of ``_euclidean`` rounds a subtraction and a square per axis, the
      sum of the two non-negative squares and the square root; the root
      halves the four roundings under it, so m = D (1 + r) with
      (1 - u)^3 <= 1 + r <= (1 + u)^3.
    - Every check computes the slack fl(fl(a - b) - c), a = m(x,y),
      b = m(x,z), c = m(z,y), all in [0, M].  In exact arithmetic
      a - b - c <= D(x,y) ((1 + u)^3 - (1 - u)^3) <= 6u M (1 + O(u)),
      using D(x,z) + D(z,y) >= D(x,y); collinear points come closest.
    - s = fl(a - b) adds at most u |a - b| <= u M.  fl(s - c) is <= 0
      when s - c <= 0, since rounding is monotone, and is otherwise at
      most (s - c)(1 + u).

    So every computed slack is at most 7u M (1 + O(u)) = 3.5 eps M
    (1 + O(eps)), and c = 4 is the smallest integer c with c eps M above
    it.  Underflow in the squares adds at most ~2^-536 to an entry, far
    below the 0.5 eps M to spare whenever a slack, at most 2 M (1 + u)^2,
    could reach tol at all.  4 eps is a power of two, so 4 eps M < tol is
    decided exactly.  Recomputing and comparing the metric is O(n^2).

    Otherwise the triangle inequality is screened on the triples
    (x, y, z) with y >= x only, against the tolerance less a margin that
    covers the mirror triples (y, x, z); see ``_one_sided_triangle_ok``.
    Only when the screen flags a slack does the exhaustive scan run, and
    it alone names the first violation, so the exception and its triple
    are those of a scan over all triples.
    """
    n = inst.n
    m = inst.metric
    if m.shape != (n + 1, n + 1):
        raise InstanceError(
            f"metric shape {m.shape} inconsistent with {n} customers"
        )
    if not np.all(np.isfinite(m)) or np.any(m < -METRIC_TOL):
        raise InstanceError("metric entries must be finite and non-negative")
    if np.any(np.abs(np.diag(m)) > METRIC_TOL):
        raise InstanceError("metric diagonal must be zero")
    skew = np.abs(m - m.T)
    asym = np.argwhere(skew > METRIC_TOL)
    if len(asym):
        x, y = (int(i) for i in asym[0])
        raise AsymmetricCost(x, y)
    if not _coords_prove_triangle(inst):
        # One contiguous transpose and one (n+1) x (n+1) slack buffer serve
        # the screen and the scan, so both run in O(n^2) memory.
        mt = np.ascontiguousarray(m.T)
        slack = np.empty_like(mt)
        if not _one_sided_triangle_ok(m, mt, slack, skew.max()):
            _raise_first_triangle_violation(m, mt, slack)
    for v in inst.customers:
        d = inst.demand(v)
        if not 1 <= d <= inst.capacity:
            raise DemandOutOfRange(v, d, inst.capacity)
    return inst


def _coords_prove_triangle(inst: Instance) -> bool:
    """True when the metric is ``_euclidean(inst.coords)`` bit for bit and
    4 eps max|m| < METRIC_TOL, so that, as ``validate_instance`` derives,
    no computed triangle slack can exceed the tolerance.  Such a metric is
    non-negative, so max|m| is ``m.max()``."""
    if inst.coords is None:
        return False
    m = inst.metric
    if 4 * np.finfo(float).eps * m.max() >= METRIC_TOL:
        return False
    try:
        pts = np.array(inst.coords, dtype=float).reshape(-1, 2)
    except (TypeError, ValueError):
        return False  # not a list of points: they prove nothing
    return np.array_equal(m, _euclidean(pts))


def _one_sided_triangle_ok(m, mt, slack, skew: float) -> bool:
    """True when no triple (x, y, z) violates the triangle inequality.

    Computes the slack (c(x,y) - c(x,z)) - c(z,y) for y >= x only and
    passes when every one is at most METRIC_TOL - margin.  A skipped slack
    (x, y, z), y < x, mirrors the computed (y, x, z): in exact arithmetic
    the two differ by at most 3 * skew, skew = max |m - m^T|, and each
    float slack is within 1.5 eps (max|m| + tol) of its exact value, to
    first order in eps, as every entry lies in [-tol, max|m|].  So

        margin = 4 skew + 4 eps (max|m| + tol)

    bounds the difference of the two float slacks, with room for the
    rounding of the margin and of tol - margin.  False only says that the
    exhaustive scan must decide.
    """
    eps = np.finfo(float).eps
    margin = 4 * skew + 4 * eps * (max(m.max(), -m.min()) + METRIC_TOL)
    bar = METRIC_TOL - margin
    size = len(m)
    for x in range(size):
        rows = slack[: size - x]  # rows[i, z] is the slack of (x, x + i, z)
        np.subtract(m[x, x:, None], m[x], out=rows)
        rows -= mt[x:]
        if rows.max() > bar:
            return False
    return True


def _raise_first_triangle_violation(m, mt, slack) -> None:
    """Exhaustive triangle check, x by x, raising the first violation in
    (x, y, z) order; slack[y, z] = c(x,y) - c(x,z) - c(z,y)."""
    for x in range(len(m)):
        np.subtract(m[x][:, None], m[x][None, :], out=slack)
        slack -= mt
        if slack.max() > METRIC_TOL:
            y, z = (int(i) for i in np.argwhere(slack > METRIC_TOL)[0])
            raise TriangleViolation(x, y, z, float(m[x, y] - m[x, z] - m[z, y]))


def radial_mass(inst: Instance, customers: Iterable[int]) -> float:
    """sum_{v in customers} 2 (d_v/k) c(r,v), added left to right."""
    k = inst.capacity
    terms = (2.0 * (inst.demand(v) / k) * inst.depot_cost(v) for v in customers)
    return float(reduce(add, terms, 0))


def radial_lower_bound(inst: Instance) -> float:
    """sum_v 2 (d_v/k) c(r,v); never exceeds the optimal solution cost."""
    return radial_mass(inst, inst.customers)


def f_integral(inst: Instance, l: Fraction, r: Fraction, t: int) -> float:
    """Demand-profile integral over the half-open interval (l, r].

    Membership of a customer is decided exactly by ``Instance.exceeds``
    against l and r; the returned value is a float ratio of radial masses.
    """
    l, r = Fraction(l), Fraction(r)
    if not 0 <= l <= r <= 1:
        raise ValueError(f"need 0 <= l <= r <= 1, got l={l}, r={r}")
    if t not in (0, 1):
        raise ValueError(f"t must be 0 or 1, got {t}")
    denom = radial_lower_bound(inst)
    if denom == 0.0:
        raise ZeroRadialMass()
    num = 0.0
    for v in inst.customers:
        if inst.exceeds(v, l) and not inst.exceeds(v, r):
            num += 2.0 * (inst.demand(v) / inst.capacity) ** t * inst.depot_cost(v)
    return num / denom


def line3() -> Instance:
    """Canonical worked example: depot at 0 and customers a, b, c at line
    positions 1, 2, 3 with unit demands and capacity 2."""
    positions = [0.0, 1.0, 2.0, 3.0]
    m = np.abs(np.subtract.outer(positions, positions))
    return Instance(name="LINE3", capacity=2, demands=(1, 1, 1), metric=m)


def _draw_demands(rng: np.random.Generator, n: int, k: int, law: str) -> tuple[int, ...]:
    if law == "uniform":
        return tuple(int(d) for d in rng.integers(1, k + 1, size=n))
    if law == "heavy":
        # Mix of light loads and near-capacity loads.
        out = []
        for _ in range(n):
            if rng.random() < 0.5:
                out.append(int(rng.integers(1, max(1, k // 3) + 1)))
            else:
                out.append(int(rng.integers((k + 1) // 2, k + 1)))
        return tuple(out)
    raise ValueError(f"unknown demand law {law!r}")


def gen_instance(
    kind: str,
    n: int,
    k: int,
    demand_law: str = "uniform",
    seed: int = 0,
) -> Instance:
    """Deterministic random instance generator.

    ``euclidean``: points uniform in the unit square, exact-float
    Euclidean distances, depot drawn like any other point.
    ``random_metric``: symmetric edge weights uniform in (0, 1], closed
    under all-pairs shortest paths so the triangle inequality holds.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    rng = np.random.default_rng(seed)
    name = f"{kind}-n{n}-k{k}-{demand_law}-s{seed}"
    if kind == "euclidean":
        pts = rng.random((n + 1, 2))
        m = _euclidean(pts)
        demands = _draw_demands(rng, n, k, demand_law)
        coords = tuple((float(x), float(y)) for x, y in pts)
        return Instance(name, k, demands, m, coords)
    if kind == "random_metric":
        w = 1.0 - rng.random((n + 1, n + 1))
        w = np.minimum(w, w.T)
        np.fill_diagonal(w, 0.0)
        # Floyd-Warshall closure.
        for mid in range(n + 1):
            w = np.minimum(w, w[:, mid, None] + w[None, mid, :])
        demands = _draw_demands(rng, n, k, demand_law)
        return Instance(name, k, demands, w)
    raise ValueError(f"unknown instance kind {kind!r}")


def _euclidean(pts: np.ndarray) -> np.ndarray:
    """Exact-float Euclidean distances between the rows of ``pts``: per
    pair, fl(sqrt(fl(fl(dx^2) + fl(dy^2)))), dx and dy rounded
    differences, in two contiguous (n+1) x (n+1) arrays."""
    x, y = pts[:, 0], pts[:, 1]
    dx = x[:, None] - x
    dy = y[:, None] - y
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _integer(value, what: str) -> int:
    """A JSON number with an integral value, as an int."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise InstanceError(f"{what} must be an integer, got {value!r}")
    return value


def _reals(values, what: str) -> list[float]:
    """A JSON list of numbers, as floats."""
    if not isinstance(values, list) or any(type(x) not in (int, float) for x in values):
        raise InstanceError(f"{what} must be a list of numbers, got {values!r}")
    try:
        return [float(x) for x in values]
    except OverflowError:
        raise InstanceError(f"{what} holds a number beyond the float range") from None


def from_json_dict(data) -> Instance:
    """The instance that ``Instance.to_json_dict`` wrote.

    Raises ``InstanceError`` for anything else: not a JSON object, a
    missing key, a value of the wrong type, or a capacity or demand that
    is not an integer.  Metric properties are ``validate_instance``'s.
    """
    if not isinstance(data, dict):
        raise InstanceError(f"an instance must be a JSON object, got {type(data).__name__}")
    missing = [key for key in ("name", "capacity", "demands", "metric") if key not in data]
    if missing:
        raise InstanceError(f"instance lacks {', '.join(missing)}")
    metric = data["metric"]
    if not isinstance(metric, dict):
        raise InstanceError(f"metric must be a JSON object, got {type(metric).__name__}")
    kind = metric.get("type")
    if kind == "euc2d":
        points = metric.get("coords")
        if not isinstance(points, list):
            raise InstanceError(f"coords must be a list of points, got {type(points).__name__}")
        coords = tuple(tuple(_reals(p, "a point")) for p in points)
        if any(len(p) != 2 for p in coords):
            raise InstanceError("every point must have two coordinates")
        m = _euclidean(np.array(coords).reshape(-1, 2))
    elif kind == "explicit":
        rows = metric.get("matrix")
        if not isinstance(rows, list):
            raise InstanceError(f"matrix must be a list of rows, got {type(rows).__name__}")
        coords = None
        matrix = [_reals(row, "a matrix row") for row in rows]
        if any(len(row) != len(matrix) for row in matrix):
            raise InstanceError("matrix must be square")
        m = np.array(matrix).reshape(len(matrix), len(matrix))
    else:
        raise InstanceError(f"unknown metric type {kind!r}")
    demands = data["demands"]
    if not isinstance(demands, list):
        raise InstanceError(f"demands must be a list, got {type(demands).__name__}")
    return Instance(
        name=str(data["name"]),
        capacity=_integer(data["capacity"], "capacity"),
        demands=tuple(_integer(d, "a demand") for d in demands),
        metric=m,
        coords=coords,
    )


def load_json(path: str) -> Instance:
    with open(path) as fh:
        return from_json_dict(json.load(fh))


def save_json(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(inst.to_json())
        fh.write("\n")
