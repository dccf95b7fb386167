"""Catalog of weights a(x,t) and sources f(s), their composition into
b(x,s,t), and checkable structural-hypothesis predicates.

Hypothesis flags (True / False / None=undetermined):

* lower_power   -- b(x,s,t) >= k * t^gamma * s^q on (0,M]x(0,T]
* lower_power_dist -- same with an extra d_Omega(x)^omega factor
* lower_power_uniform -- lower_power with a single k valid for every M
* one_sided_lipschitz -- b nonnegative, measurable in x and
  b(x,s,t)-b(x,r,t) <= (L/r)(s-r) for 0 < r <= s <= M
* hoelder       -- the one-sided modulus is Hoelder of order >= 1/2
* time_monotone -- b(x,s,.) nondecreasing
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .domains import DiscretizedDomain, DomainSpec, distance_to_boundary
from .errors import NegativeState, Unbounded
from .operators import pair_scan

FLAG_NAMES = ("lower_power", "lower_power_dist", "lower_power_uniform",
              "one_sided_lipschitz", "hoelder", "time_monotone")


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight:
    """Spatial/temporal weight a(x,t).

    kinds:
      constant                 a = c
      separable_power_time     a = c * t^gamma
      distance_power           a = c * t^gamma * d_Omega(x)^omega
      ramp_bump_perturbed      a = 1 + eps * ripple(x)   (nonconcave ripple)
      smoothed_bang_bang       a1 inside the left half, -a2 outside,
                               linearly mollified over a band of width eta
    """

    kind: str = "constant"
    c: float = 1.0
    gamma: float = 0.0
    omega: float = 0.0
    eps: float = 0.0
    a1: float = 1.0
    a2: float = 1.0
    eta: float = 0.0625
    theta: float = math.inf  # claimed concavity exponent of the profile

    @property
    def spatially_constant(self) -> bool:
        """a(x, t) does not depend on x."""
        return self.kind in ("constant", "separable_power_time")

    def spatial_profile(self, dom: DiscretizedDomain) -> np.ndarray:
        """Time-independent factor of a at the interior nodes."""
        p = dom.interior_points
        return self.spatial_at(dom.spec, p)

    def spatial_at(self, spec: DomainSpec, pts) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        x, y = p[..., 0], p[..., 1]
        if self.spatially_constant:
            return np.full_like(x, self.c)
        if self.kind == "distance_power":
            d = np.maximum(distance_to_boundary(spec, p), 0.0)
            return self.c * d ** self.omega
        if self.kind == "ramp_bump_perturbed":
            (x0, x1), (y0, y1) = spec.bounding_box
            xi = (x - x0) / (x1 - x0)
            et = (y - y0) / (y1 - y0)
            ripple = np.cos(2 * np.pi * xi) * np.cos(2 * np.pi * et)
            return 1.0 + self.eps * ripple
        if self.kind == "smoothed_bang_bang":
            (x0, x1), _ = spec.bounding_box
            mid = 0.5 * (x0 + x1)
            s = np.clip((x - mid) / self.eta + 0.5, 0.0, 1.0)
            return self.a1 * (1 - s) + (-self.a2) * s
        raise ValueError(f"unknown weight kind {self.kind!r}")

    def time_factor(self, t) -> float:
        if self.kind in ("separable_power_time", "distance_power") \
                and self.gamma > 0:
            return float(t) ** self.gamma if t > 0 else 0.0
        return 1.0

    def bounds(self, dom: DiscretizedDomain, t_max: float):
        """(m, M) over the interior nodes at the largest audited time."""
        prof = self.spatial_profile(dom) * self.time_factor(t_max)
        return float(prof.min()), float(prof.max())


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceTerm:
    """Nonlinearity f(s); composed with the weight into b = a(x,t) f(s)
    except the logistic and power_sum composites which mix the weight in.

    kinds: one, power_q, identity, log_s, log1p_q, saturable_q,
           saturable, logistic, one_minus_s_p, power_sum
    """

    kind: str = "one"
    q: float = 0.0
    p: float = 0.5

    def f(self, s):
        s = np.asarray(s, dtype=float)
        k = self.kind
        if k == "one":
            return np.ones_like(s)
        if k == "power_q":
            # 0^0 = 1, 0^q = 0 for q > 0
            if self.q == 0.0:
                return np.ones_like(s)
            return np.where(s > 0, s, 0.0) ** self.q
        if k == "identity":
            return s
        if k == "log_s":
            out = np.zeros_like(s)
            pos = s > 0
            out[pos] = s[pos] * np.log(s[pos])
            return out
        if k == "log1p_q":
            return s * np.log1p(np.maximum(s, 0.0)) ** self.q
        if k == "saturable_q":
            sq = np.where(s > 0, s, 0.0) ** self.q
            return s * sq / (1.0 + sq)
        if k == "saturable":
            return s * s / (1.0 + s)
        if k == "one_minus_s_p":
            return np.where(s < 1, (1.0 - np.minimum(s, 1.0)) ** self.p, 0.0)
        raise ValueError(f"source kind {k!r} has no plain f(s)")

    @property
    def composite(self) -> bool:
        return self.kind in ("logistic", "power_sum")

    @property
    def sublinear_exponent(self):
        """The q in the s^q lower-bound hypothesis, when one applies."""
        if self.kind in ("one",):
            return 0.0
        if self.kind == "power_q":
            return self.q
        if self.kind == "one_minus_s_p":
            return 0.0
        if self.kind == "power_sum":
            # b = a s^p + s^q >= m s^p for every s >= 0 (m = min a)
            return self.p
        return None


@dataclass(frozen=True)
class Problem:
    """Parabolic Cauchy-Dirichlet problem u_t - Lap u = b(x,u,t)."""

    domain: DomainSpec
    weight: Weight = Weight()
    source: SourceTerm = SourceTerm()
    u0: str = "zero"  # zero | subsolution_seed | explicit
    u0_values: np.ndarray | None = None
    horizon: float = 2.0
    beta: float = 1.0
    truncate: bool = False

    def effective_time(self, t: float) -> float:
        if self.truncate:
            return min(t, self.horizon)
        return t

    def weight_values(self, dom: DiscretizedDomain, t: float) -> np.ndarray:
        te = self.effective_time(t)
        return self.weight.spatial_profile(dom) * self.weight.time_factor(te)

    def source_values(self, dom: DiscretizedDomain, s, t: float):
        """b at all interior nodes for a state vector s."""
        s = np.asarray(s, dtype=float)
        if np.any(s < -1e-12):
            raise NegativeState(f"state value {s.min()} below -1e-12")
        s = np.maximum(s, 0.0)
        a = self.weight_values(dom, t)
        k = self.source.kind
        if k == "logistic":
            return a * s - s * s
        if k == "power_sum":
            sp_ = np.where(s > 0, s, 0.0)
            base_p = sp_ ** self.source.p if self.source.p > 0 \
                else np.ones_like(s)
            base_q = sp_ ** self.source.q if self.source.q > 0 \
                else np.ones_like(s)
            return a * base_p + base_q
        return a * self.source.f(s)


# ---------------------------------------------------------------------------
# hypothesis predicates
# ---------------------------------------------------------------------------

@dataclass
class HypothesisReport:
    flags: dict
    constants: dict = dc_field(default_factory=dict)

    def require(self, name: str) -> bool:
        return self.flags.get(name) is True


_NONNEG_SOURCES = ("one", "power_q", "identity", "saturable", "saturable_q",
                   "log1p_q", "one_minus_s_p", "power_sum")


def check_hypotheses(problem: Problem, M: float) -> HypothesisReport:
    """Catalog-rule verdicts for the structural hypotheses, with a
    numeric sampled certificate for the fitted Lipschitz constant."""
    if M <= 0:
        raise ValueError("M must be positive")
    w, src = problem.weight, problem.source
    flags = {name: None for name in FLAG_NAMES}
    consts = {"gamma": w.gamma, "omega": w.omega, "T": problem.horizon}

    # weight lower bound m over space (t factor handled separately)
    if w.spatially_constant:
        m = w.c
    elif w.kind == "ramp_bump_perturbed":
        m = 1.0 - w.eps
    elif w.kind == "distance_power":
        m = 0.0  # vanishes at the boundary
    else:
        m = None  # bang-bang: sign-changing

    q = src.sublinear_exponent
    if q is not None and m is not None:
        if m > 0:
            if src.kind == "one_minus_s_p":
                if M < 1:
                    flags["lower_power"] = True
                    consts.update(k=m * (1 - M) ** src.p, q=0.0)
                else:
                    flags["lower_power"] = False
                flags["lower_power_uniform"] = False
            else:
                flags["lower_power"] = True
                flags["lower_power_uniform"] = True
                consts.update(k=m, q=q)
        elif w.kind == "distance_power":
            flags["lower_power"] = False
            flags["lower_power_dist"] = True
            consts.update(k=w.c, q=q)
    elif src.kind == "logistic":
        flags["lower_power"] = False

    if src.kind in _NONNEG_SOURCES and (m is None or m >= 0) \
            and w.kind != "smoothed_bang_bang":
        flags["one_sided_lipschitz"] = True
        hq = 1.0
        if src.kind == "power_q":
            hq = max(src.q, 0.0) if src.q < 1 else 1.0
        elif src.kind == "power_sum":
            hq = min(src.p, src.q)
        flags["hoelder"] = hq >= 0.5
        consts["hoelder_order"] = min(hq, 1.0)
    elif src.kind in ("logistic", "log_s"):
        # takes negative values, so the nonnegativity part fails
        flags["one_sided_lipschitz"] = False
        flags["hoelder"] = False

    # monotone in t: the only time dependence in the catalog is t^gamma
    if w.gamma == 0.0 or w.kind in ("constant", "ramp_bump_perturbed",
                                    "smoothed_bang_bang"):
        flags["time_monotone"] = True  # b constant in t
    elif src.kind in _NONNEG_SOURCES:
        flags["time_monotone"] = True  # t^gamma nondecreasing, f >= 0
    else:
        flags["time_monotone"] = None

    # numerically fitted one-sided Lipschitz constant
    if flags["one_sided_lipschitz"]:
        s = np.geomspace(1e-6, M, 48)
        fs = problem.source.f(s) if not src.composite else None
        if fs is not None:
            r, ss = np.meshgrid(s, s)
            mask = ss > r
            fr, fss = np.meshgrid(fs, fs)
            with np.errstate(divide="ignore", invalid="ignore"):
                slopes = r * (fss - fr) / (ss - r)
            consts["L"] = float(np.max(slopes[mask])) if mask.any() else 0.0
    return HypothesisReport(flags=flags, constants=consts)


def weight_concavity_defect(problem: Problem, dom: DiscretizedDomain,
                            theta: float = 1.0, mask=None) -> float:
    """sup of the negative part of the concavity function of a^theta
    (log a for theta=0, a itself for theta=inf) over all pairs of
    interior nodes (those in mask, when given) times the 15 interior
    lambdas of a 17-point grid, scanned in chunks of bounded memory.
    Nonnegative: 0 for a concave profile, and 0 without a scan for a
    spatially constant weight."""
    w = problem.weight
    if w.spatially_constant:
        return 0.0
    prof = w.spatial_profile(dom)
    pts = dom.interior_points
    if mask is not None:
        prof, pts = prof[mask], pts[mask]
    return max(0.0, -_concavity_min(w, problem.domain, pts, prof, theta))


def _concavity_min(weight: Weight, spec: DomainSpec, pts, prof,
                   theta: float) -> float:
    """Signed min of the concavity function of weight^theta (prof: the
    weight at pts) over node pairs i < j and the 15 interior lambdas of
    a 17-point grid, by pair_scan; inf for < 2 nodes."""
    def transform(a):
        if math.isinf(theta):
            return a
        if theta == 0.0:
            return np.log(np.maximum(a, 1e-300))
        return np.sign(a) * np.abs(a) ** theta

    vals = transform(prof)
    mins, _, _ = pair_scan(
        pts, vals, vals, np.linspace(0.0, 1.0, 17)[1:-1],
        lambda x2, lm: transform(weight.spatial_at(spec, x2)))
    return min([math.inf] + mins.tolist())


# ---------------------------------------------------------------------------
# slope supremum of f(s)/s
# ---------------------------------------------------------------------------

def sup_slope_lambda(source: SourceTerm) -> float:
    """sup_{s>0} s * d/ds [ f(s)/s ], closed form for catalog kinds."""
    k = source.kind
    if k in ("one", "power_q", "identity", "logistic", "one_minus_s_p"):
        # fbar nonincreasing (or constant): the supremum is 0
        return 0.0
    if k == "log_s":
        return 1.0
    if k == "saturable":
        return 0.25
    if k == "saturable_q":
        return source.q / 4.0
    # numeric fallback with a 1% safety margin
    s = np.geomspace(1e-8, 1e8, 20001)

    def fbar(v):
        if k == "power_sum":
            return (v ** source.p + v ** source.q) / v
        return source.f(v) / v

    fb = fbar(s)
    ds = s * 1e-6
    slope = s * (fbar(s + ds) - fbar(np.maximum(s - ds, 1e-12))) \
        / (ds + np.minimum(s - 1e-12, ds))
    tail = slope[-100:]
    if np.all(np.diff(tail) > 0) and tail[-1] > 10 * max(1.0, slope[:100].max()):
        raise Unbounded("s * fbar'(s) appears to diverge as s -> infinity")
    val = float(np.nanmax(slope))
    return val * 1.01 if val > 0 else val * 0.99
