"""Catalog of weights a(x,t) and sources f(s), their composition
b(x,s,t) = a(x,t) f(s) + g(s), and checkable structural-hypothesis
predicates.

Hypothesis flags (True / False / None=undetermined):

* lower_power   -- b(x,s,t) >= k * t^gamma * s^q on (0,1]x(0,T], 0 <= q < 1
* lower_power_dist -- same with an extra d_Omega(x)^omega factor
* lower_power_uniform -- lower_power with a single k valid for every M
* one_sided_lipschitz -- b nonnegative, measurable in x and
  b(x,s,t)-b(x,r,t) <= (L/r)(s-r) for 0 < r <= s <= M
* hoelder       -- the one-sided modulus is Hoelder of order >= 1/2
* time_monotone -- b(x,s,.) nondecreasing
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .domains import (_SCAN_NODES, DiscretizedDomain, DomainSpec,
                      _scan_nodes, distance_to_boundary)
from .errors import NegativeState, Unbounded
from .operators import LAMBDAS, pair_scan

FLAG_NAMES = ("lower_power", "lower_power_dist", "lower_power_uniform",
              "one_sided_lipschitz", "hoelder", "time_monotone")


def _check_fields(obj, what: str):
    """Reject an unknown kind, and a field that obj's kind does not read
    (KINDS) set to other than its default, NaN included."""
    if obj.kind not in obj.KINDS:
        raise ValueError(f"{what} kind must be one of {sorted(obj.KINDS)}, "
                         f"got {obj.kind!r}")
    for f in fields(obj)[1:]:  # the fields after kind
        value = getattr(obj, f.name)
        if f.name not in obj.KINDS[obj.kind] and value != f.default:
            raise ValueError(f"{what} {obj.kind!r} with {f.name} = {value}: "
                             f"the kind does not read {f.name}")


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

    #: the fields each kind reads
    KINDS = {"constant": ("c", "theta"),
             "separable_power_time": ("c", "gamma", "theta"),
             "distance_power": ("c", "gamma", "omega", "theta"),
             "ramp_bump_perturbed": ("eps", "theta"),
             "smoothed_bang_bang": ("a1", "a2", "eta", "theta")}

    def __post_init__(self):
        _check_fields(self, "weight")
        if not self.gamma >= 0:
            raise ValueError(f"weight {self.kind!r} with gamma = "
                             f"{self.gamma}: gamma must be >= 0")

    @property
    def spatially_constant(self) -> bool:
        """a(x, t) does not depend on x."""
        return self.kind in ("constant", "separable_power_time")

    def spatial_profile(self, dom: DiscretizedDomain) -> np.ndarray:
        """Time-independent factor of a at the interior nodes, cached
        per domain and weight (read-only: callers share it)."""
        key = ("profile", self)
        if key not in dom._cache:
            dom._cache[key] = self.spatial_at(dom.spec, dom.interior_points)
            dom._cache[key].flags.writeable = False
        return dom._cache[key]

    def spatial_at(self, spec: DomainSpec, pts) -> np.ndarray:
        """a at the points pts (..., 2), without its time factor."""
        p = np.asarray(pts, dtype=float)
        if self.spatially_constant:
            return np.full_like(p[..., 0], self.c)
        if self.kind == "distance_power":
            d = np.maximum(distance_to_boundary(spec, p), 0.0)
            return self.c * d ** self.omega
        (x0, x1), (y0, y1) = spec.bounding_box
        x, y = p[..., 0], p[..., 1]
        if self.kind == "ramp_bump_perturbed":
            fx = np.cos(2 * np.pi * ((x - x0) / (x1 - x0)))
            fy = np.cos(2 * np.pi * ((y - y0) / (y1 - y0)))
            return 1.0 + self.eps * (fx * fy)
        s = np.clip((x - 0.5 * (x0 + x1)) / self.eta + 0.5, 0.0, 1.0)
        return self.a1 * (1 - s) + (-self.a2) * s  # smoothed_bang_bang

    def time_factor(self, t) -> float:
        """t^gamma, 1 for gamma = 0 and 0 for t <= 0 < gamma."""
        return float(t) ** self.gamma if t > 0 or self.gamma == 0 else 0.0


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def _power(s, e):
    """s^e on s >= 0, with 0^0 = 1 and 0^e = 0 for e > 0."""
    return np.ones_like(s) if e == 0.0 else np.where(s > 0, s, 0.0) ** e


@dataclass(frozen=True)
class SourceTerm:
    """Nonlinearity of b = a(x,t) f(s) + g(s): g is the term without
    the weight, -s^2 for logistic and s^q for power_sum, else None.

    kinds: one, power_q, identity, log_s, log1p_q, saturable_q,
           saturable, logistic, one_minus_s_p, power_sum
    """

    kind: str = "one"
    q: float = 0.0
    p: float = 0.5

    #: the fields each kind reads
    KINDS = {"one": (), "power_q": ("q",), "identity": (), "log_s": (),
             "log1p_q": ("q",), "saturable_q": ("q",), "saturable": (),
             "logistic": (), "one_minus_s_p": ("p",),
             "power_sum": ("q", "p")}

    def __post_init__(self):
        _check_fields(self, "source")

    def f(self, s):
        s = np.asarray(s, dtype=float)
        k = self.kind
        if k in ("one", "power_q"):  # q = 0 for one
            return _power(s, self.q)
        if k == "power_sum":
            return _power(s, self.p)
        if k in ("identity", "logistic"):
            return s
        if k == "log_s":
            return np.where(s > 0, s * np.log(np.where(s > 0, s, 1.0)), 0.0)
        if k == "log1p_q":
            return s * np.log1p(np.maximum(s, 0.0)) ** self.q
        if k == "saturable_q":
            sq = _power(s, self.q)
            return s * sq / (1.0 + sq)
        if k == "one_minus_s_p":
            return np.where(s < 1, (1.0 - np.minimum(s, 1.0)) ** self.p, 0.0)
        return s * s / (1.0 + s)  # saturable

    def g(self, s):
        if not self.composite:
            return None
        return -(s * s) if self.kind == "logistic" else _power(s, self.q)

    @property
    def sign_changing(self) -> bool:
        """b < 0 for some s > 0, where its slope can be stiff."""
        return self.kind in ("logistic", "log_s")

    @property
    def composite(self) -> bool:
        """b has a term g without the weight."""
        return self.kind in ("logistic", "power_sum")

    def compose(self, a, s):
        """b = a f(s) + g(s) on arrays s >= 0; a f(s) alone where g is
        None, so that a negative weight's -0.0 stays -0.0."""
        g = self.g(s)
        return a * self.f(s) if g is None else a * self.f(s) + g

    @property
    def sublinear_exponent(self):
        """The q in the s^q lower-bound hypothesis, when one applies."""
        if self.kind in ("one", "power_q", "one_minus_s_p"):
            return self.q  # 0 unless power_q
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
    u0_values: np.ndarray | None = None  # None: zero initial data
    horizon: float = 2.0
    truncate: bool = False

    def effective_time(self, t: float) -> float:
        return min(t, self.horizon) if self.truncate else t

    def weight_values(self, dom: DiscretizedDomain, t: float) -> np.ndarray:
        te = self.effective_time(t)
        return self.weight.spatial_profile(dom) * self.weight.time_factor(te)

    def source_values(self, dom: DiscretizedDomain, s, t: float):
        """b at all interior nodes for a state vector s."""
        s = np.asarray(s, dtype=float)
        if np.any(s < -1e-12):
            raise NegativeState(f"state value {s.min()} below -1e-12")
        s = np.maximum(s, 0.0)
        return self.source.compose(self.weight_values(dom, t), s)


# ---------------------------------------------------------------------------
# hypothesis predicates
# ---------------------------------------------------------------------------

@dataclass
class HypothesisReport:
    flags: dict
    constants: dict = dc_field(default_factory=dict)

    def require(self, name: str) -> bool:
        return self.flags.get(name) is True


def check_hypotheses(problem: Problem) -> HypothesisReport:
    """Catalog-rule verdicts for the structural hypotheses on states in
    (0, 1], with the constants k, q of a certified power lower bound and
    the weight's gamma."""
    w, src = problem.weight, problem.source
    flags = {name: None for name in FLAG_NAMES}
    consts = {"gamma": w.gamma}

    # weight lower bound m over space (t factor handled separately): 0
    # where it vanishes at the boundary, None where it changes sign
    m = {"ramp_bump_perturbed": 1.0 - w.eps, "distance_power": 0.0,
         "smoothed_bang_bang": None}.get(w.kind, w.c)

    q = src.sublinear_exponent
    if q is not None and 0 <= q < 1 and m is not None:  # s^q sublinear
        if m > 0:
            ok = src.kind != "one_minus_s_p"  # its f(1) = 0
            flags.update(lower_power=ok, lower_power_uniform=ok)
            if ok:
                consts.update(k=m, q=q)
        elif w.kind == "distance_power":
            flags.update(lower_power=False, lower_power_dist=True)
            consts.update(k=w.c, q=q)
    elif src.kind == "logistic":
        flags["lower_power"] = False

    if not src.sign_changing and (m is None or m >= 0) \
            and w.kind != "smoothed_bang_bang":
        flags["one_sided_lipschitz"] = True
        hq = 1.0
        if src.kind == "power_q":
            hq = max(src.q, 0.0) if src.q < 1 else 1.0
        elif src.kind == "power_sum":
            hq = min(src.p, src.q)
        flags["hoelder"] = hq >= 0.5
    elif src.sign_changing:
        # takes negative values, so the nonnegativity part fails
        flags.update(one_sided_lipschitz=False, hoelder=False)

    # monotone in t: the only time dependence in the catalog is t^gamma,
    # so where b is constant in t, or t^gamma nondecreasing and f >= 0
    if w.gamma == 0.0 or not src.sign_changing:
        flags["time_monotone"] = True
    return HypothesisReport(flags=flags, constants=consts)


def weight_concavity_defect(problem: Problem, dom: DiscretizedDomain,
                            theta: float = 1.0, mask=None) -> float:
    """sup of the negative part of the concavity function of a^theta
    (log a for theta=0, a itself for theta=inf) over the pairs of the
    interior nodes (of those in mask) that _scan_nodes keeps and LAMBDAS,
    by _concavity_min: 0 for a concave profile, and without a scan for a
    constant one.  A sampled sup is at most the sup over every node."""
    if problem.weight.spatially_constant:
        return 0.0
    return max(0.0, -_concavity_min(problem.weight, dom, theta, mask))


def _concavity_min(weight: Weight, dom: DiscretizedDomain, theta: float,
                   mask=None) -> float:
    """Signed min of the concavity function of weight^theta over the
    pairs i < j of the interior nodes (of those in mask) that _scan_nodes
    keeps for _SCAN_NODES and LAMBDAS, by one pair_scan with spatial_at
    at every middle point; a lambda whose values hold a NaN is skipped,
    and the min is inf for < 2 nodes."""
    sel, spec = _scan_nodes(dom, _SCAN_NODES, mask), dom.spec
    pts = dom.interior_points[sel]

    def transform(a):
        if math.isinf(theta):
            return a
        if theta == 0.0:
            return np.log(np.maximum(a, 1e-300))
        if theta == 1.0:  # sign(a) * |a| ** 1 bit for bit, -0.0 -> 0.0
            return a + 0.0
        return np.sign(a) * np.abs(a) ** theta

    def block(idx1, idx3):
        p1, p3 = pts[idx1], pts[idx3]
        return ([transform(weight.spatial_at(spec, lam * p3 + (1 - lam)
                                             * p1))] for lam in LAMBDAS)

    vals = transform(weight.spatial_profile(dom)[sel])[None]
    (mins,), _, _ = pair_scan(vals, vals, LAMBDAS, block)
    return min([math.inf] + mins.tolist())  # a NaN never compares less


# ---------------------------------------------------------------------------
# slope supremum of f(s)/s
# ---------------------------------------------------------------------------

def sup_slope_lambda(source: SourceTerm) -> float:
    """sup_{s>0} s * d/ds [ f(s)/s ], closed form for catalog kinds."""
    closed = dict.fromkeys(("one", "power_q", "identity", "logistic",
                            "one_minus_s_p"), 0.0)  # fbar nonincreasing
    if max(source.p, source.q) <= 1.0:
        closed["power_sum"] = 0.0  # fbar = s^(p-1) + s^(q-1) nonincreasing
    closed.update(log_s=1.0, saturable=0.25, saturable_q=source.q / 4.0)
    if source.kind in closed:
        return closed[source.kind]
    # numeric fallback with a 1% safety margin
    s = np.geomspace(1e-8, 1e8, 20001)

    def fbar(v):
        return source.compose(1.0, v) / v

    ds = s * 1e-6
    slope = s * (fbar(s + ds) - fbar(np.maximum(s - ds, 1e-12))) \
        / (ds + np.minimum(s - 1e-12, ds))
    tail = slope[-100:]
    if np.all(np.diff(tail) > 0) and tail[-1] > 10 * max(1.0, slope[:100].max()):
        raise Unbounded("s * fbar'(s) appears to diverge as s -> infinity")
    val = float(np.nanmax(slope))
    return val * 1.01 if val > 0 else val * 0.99
