"""Analytic constants behind the approximation guarantees.

Everything is computed, never hard-coded:

  y0     — unique root in (0, 1) of  ln(2 - y/2) = (3/2) y
  y1     — unique root in (0, 1/2) of
           (1/2) y + 6 (1 - y)(1 - e^{-y/2}) = ln(2 - 2 y)
  y2     — 4 (1 - y1)(1 - e^{-y1/2})
  gamma* — ln(2 - y0/2);  gamma1 — ln(2 - 2 y1 - y2/2);  gamma2 — ln(2 - 2 y1)

Roots come from sign-certified bisection enclosures.  ``f_epsilon``
minimizes the tour-refinement overhead function over its (theta, tau,
rho) box and reports a feasible witness, so the value is a certified
upper bound on the true minimum.  ``appendix_a2`` combines the
epsilon-adjusted roots with f(epsilon) into the final easy/hard-instance
ratio bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

ENCLOSURE_WIDTH = 1e-12


class NoSignChange(RuntimeError):
    pass


class DomainViolation(RuntimeError):
    pass


@dataclass(frozen=True)
class RootEnclosure:
    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def bisect_enclosure(g: Callable[[float], float], lo: float, hi: float) -> RootEnclosure:
    """Shrink [lo, hi] by bisection to ``ENCLOSURE_WIDTH``, keeping a sign
    change."""
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return RootEnclosure(lo, lo)
    if ghi == 0.0:
        return RootEnclosure(hi, hi)
    if glo * ghi > 0:
        raise NoSignChange(f"g({lo})={glo}, g({hi})={ghi}")
    while hi - lo > ENCLOSURE_WIDTH:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return RootEnclosure(mid, mid)
        if glo * gm < 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return RootEnclosure(lo, hi)


def _g_y0(y: float, eps: float = 0.0) -> float:
    e = 1.0 - eps
    return math.log(e * (2.0 - 0.5 * y)) - 1.5 * e * y


def _g_y1(y: float, eps: float = 0.0) -> float:
    e = 1.0 - eps
    grow = 6.0 * e * (1.0 - y) * (1.0 - math.exp(-0.5 * e * y))
    return 0.5 * e * y + grow - math.log(e * (2.0 - 2.0 * y))


def solve_y0() -> RootEnclosure:
    """Root of ln(2 - y/2) = (3/2) y on (0, 1)."""
    return solve_y0_eps(0.0)


def solve_y1() -> tuple[RootEnclosure, RootEnclosure]:
    """Root of (1/2) y + 6 (1-y)(1 - e^{-y/2}) = ln(2 - 2y) plus the
    derived quantity y2 = 4 (1 - y1)(1 - e^{-y1/2}) as an enclosure."""
    enc = solve_y1_eps(0.0)
    y2 = lambda y: 4.0 * (1.0 - y) * (1.0 - math.exp(-0.5 * y))
    vals = sorted((y2(enc.lo), y2(enc.hi)))
    return enc, RootEnclosure(vals[0], vals[1])


def ratio_alg1(alpha: float) -> float:
    """alpha + 1 + ln(2 - y0/2)."""
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    return alpha + 1.0 + math.log(2.0 - 0.5 * solve_y0().mid)


def ratio_alg2(alpha: float, delta: float) -> float:
    """alpha + 1 + y1 + ln(2 - 2 y1) + 2 delta."""
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if not 0 < delta < 1 / 3:
        raise ValueError("delta must lie in (0, 1/3)")
    y1 = solve_y1()[0].mid
    return alpha + 1.0 + y1 + math.log(2.0 - 2.0 * y1) + 2.0 * delta


@dataclass(frozen=True)
class FWitness:
    value: float
    theta: float
    tau: float
    rho: float
    zeta: float


def _zeta(eps: float, tau: float, rho: float) -> float:
    a = (3.0 * rho + tau - 4.0 * tau * rho) / (1.0 - rho)
    return a + eps / (tau * rho) * (1.0 - tau * rho - a)


def _f_objective(eps: float, theta: float, tau: float, rho: float) -> float:
    return (
        (1.0 + _zeta(eps, tau, rho)) / theta
        + (1.0 - tau - theta) / (theta * (1.0 - tau))
        + 3.0 * eps / (1.0 - theta)
        + 3.0 * rho / ((1.0 - rho) * (1.0 - tau))
        - 1.0
    )


def _f_in_box(theta: float, tau: float, rho: float) -> bool:
    return 0 < theta <= 1 - tau and 0 < tau <= 1 / 6 and 0 < rho <= 1 / 6


@lru_cache(maxsize=128)
def f_epsilon(eps: float) -> FWitness:
    """Upper bound on the refinement overhead f(eps) with its witness.

    Multi-start local minimization over the (theta, tau, rho) box; the
    best feasible point found is returned, so the value is a certified
    upper bound (which is the direction every downstream comparison
    needs).  The minimum sits on the theta = 1 - tau face, so the search
    runs there with a free-theta polish at the end.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    # Imported here: scipy.optimize costs ~0.4 s to load, and only the constants report needs it.
    from scipy.optimize import minimize

    def obj3(p: np.ndarray) -> float:
        theta, tau, rho = p
        if not _f_in_box(theta, tau, rho):
            return 1e6
        return _f_objective(eps, theta, tau, rho)

    def obj2(p: np.ndarray) -> float:
        tau, rho = p
        return obj3((1.0 - tau, tau, rho))

    best_val, best_p = math.inf, None
    taus = np.linspace(0.01, 1 / 6, 12)
    rhos = np.linspace(0.005, 1 / 6, 12)
    starts = sorted(
        ((float(obj2(np.array([t, r]))), (t, r)) for t in taus for r in rhos)
    )[:8]
    for _, (t, r) in starts:
        res = minimize(
            obj2, np.array([t, r]), method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 4000},
        )
        if res.fun < best_val:
            best_val, best_p = float(res.fun), res.x

    tau0, rho0 = best_p
    res = minimize(
        obj3, np.array([1.0 - tau0, tau0, rho0]), method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 4000},
    )
    if res.fun < best_val:
        theta, tau, rho = (float(x) for x in res.x)
        best_val = float(res.fun)
    else:
        theta, tau, rho = 1.0 - float(tau0), float(tau0), float(rho0)

    if not _f_in_box(theta, tau, rho):
        raise DomainViolation(f"witness ({theta}, {tau}, {rho}) left the box")
    return FWitness(_f_objective(eps, theta, tau, rho), theta, tau, rho, _zeta(eps, tau, rho))


@dataclass(frozen=True)
class A2Report:
    """Epsilon-adjusted roots and the final ratio bounds at alpha = 1.5."""

    eps_fixed: float
    eps_general: float
    y0_eps: RootEnclosure
    y1_eps: RootEnclosure
    easy_fixed: float
    hard_fixed: float
    final_fixed: float
    easy_general: float
    hard_general: float
    final_general: float
    improvement_fixed: float
    improvement_general: float
    f_fixed: FWitness
    f_general: FWitness


def solve_y0_eps(eps: float) -> RootEnclosure:
    """Root of ln[(1-eps)(2 - y/2)] = (3/2)(1-eps) y."""
    return bisect_enclosure(lambda y: _g_y0(y, eps), 1e-12, 1.0 - 1e-12)


def solve_y1_eps(eps: float) -> RootEnclosure:
    """Root of the (1-eps)-scaled general-capacity balance equation."""
    return bisect_enclosure(lambda y: _g_y1(y, eps), 1e-12, 0.5 - 1e-9)


def appendix_a2(
    eps_fixed: float = 0.000335,
    eps_general: float = 0.000334,
    alpha: float = 1.5,
) -> A2Report:
    y0 = solve_y0().mid
    y1 = solve_y1()[0].mid
    y0e = solve_y0_eps(eps_fixed)
    y1e = solve_y1_eps(eps_general)
    f_fixed = f_epsilon(eps_fixed)
    f_general = f_epsilon(eps_general)

    easy_fixed = alpha + 1.0 + math.log((1.0 - eps_fixed) * (2.0 - 0.5 * y0e.mid))
    hard_fixed = 2.0 + f_fixed.value + math.log(2.0 - 0.5 * y0)
    final_fixed = max(easy_fixed, hard_fixed)

    easy_general = (
        alpha + 1.0 + (1.0 - eps_general) * y1e.mid
        + math.log((1.0 - eps_general) * (2.0 - 2.0 * y1e.mid))
    )
    hard_general = 2.0 + f_general.value + y1 + math.log(2.0 - 2.0 * y1)
    final_general = max(easy_general, hard_general)

    return A2Report(
        eps_fixed=eps_fixed,
        eps_general=eps_general,
        y0_eps=y0e,
        y1_eps=y1e,
        easy_fixed=easy_fixed,
        hard_fixed=hard_fixed,
        final_fixed=final_fixed,
        easy_general=easy_general,
        hard_general=hard_general,
        final_general=final_general,
        improvement_fixed=3.0897 - final_fixed,
        improvement_general=3.1759 - final_general,
        f_fixed=f_fixed,
        f_general=f_general,
    )


@dataclass(frozen=True)
class Gammas:
    gamma_star: float
    gamma1: float
    gamma2: float


@lru_cache(maxsize=1)
def default_gammas() -> Gammas:
    y0 = solve_y0().mid
    y1enc, y2enc = solve_y1()
    y1, y2 = y1enc.mid, y2enc.mid
    return Gammas(
        gamma_star=math.log(2.0 - 0.5 * y0),
        gamma1=math.log(2.0 - 2.0 * y1 - 0.5 * y2),
        gamma2=math.log(2.0 - 2.0 * y1),
    )


def constants_report(
    eps_fixed: float = 0.000335, eps_general: float = 0.000334
) -> dict:
    """Full machine-readable constants report."""
    y0 = solve_y0()
    y1, y2 = solve_y1()
    g = default_gammas()
    a2 = appendix_a2(eps_fixed, eps_general)
    return {
        "y0": {"lo": y0.lo, "hi": y0.hi, "mid": y0.mid},
        "y1": {"lo": y1.lo, "hi": y1.hi, "mid": y1.mid},
        "y2": {"lo": y2.lo, "hi": y2.hi, "mid": y2.mid},
        "gamma_star": g.gamma_star,
        "gamma1": g.gamma1,
        "gamma2": g.gamma2,
        "ratio_alg1_alpha1.5": ratio_alg1(1.5),
        "ratio_alg2_alpha1.5_delta1e-10": ratio_alg2(1.5, 1e-10),
        "f_eps": {
            str(eps_fixed): f_epsilon(eps_fixed).value,
            str(eps_general): f_epsilon(eps_general).value,
        },
        "a2": {
            "y0_eps": a2.y0_eps.mid,
            "y1_eps": a2.y1_eps.mid,
            "easy_fixed": a2.easy_fixed,
            "hard_fixed": a2.hard_fixed,
            "final_fixed": a2.final_fixed,
            "easy_general": a2.easy_general,
            "hard_general": a2.hard_general,
            "final_general": a2.final_general,
            "improvement_fixed": a2.improvement_fixed,
            "improvement_general": a2.improvement_general,
        },
    }
