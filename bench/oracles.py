"""Reference values computed without idcalc.

Every number the benchmark compares the program against comes from this
module, which imports neither idcalc nor anything built on it:

* Mellin multipliers.  Each mapping acts on ``phi(u y)`` through a radial
  weight ``w(u)`` on (0, 1]; on an exponent homogeneous of degree ``s``
  (gaussian: 2, shift: 1) it multiplies by ``M(s) = int u^s w(u) du``:
  ``b/(b+s)`` for J_b, ``1/s`` for I, ``1/s - 1/(b+s)`` for I o J_b.
* Special functions: ``I(gamma(k, lam))(y) = k Li2(i y/lam)`` through
  ``scipy.special.spence``, and ``I(poisson)`` through ``scipy.special.sici``.
* mpmath quadrature for the gamma and poisson single-level maps, for the
  exponent of every generated spec measure (and of its images), and for
  the spectral masses of the cor5 radial test intervals.
* Closed-form kernel moments ``int f^j dtau`` for the Monte Carlo check.

``evaluate`` answers the JSON requests the workloads make; run as a
script, this module reads a JSON list of requests on standard input and
writes the list of answers to standard output.
"""

from __future__ import annotations

import cmath
import json
import math
import sys

import mpmath as mp
from scipy import special

mp.mp.dps = 15
EULER = 0.5772156649015329

BETA_SET = (0.5, 1.0, 2.0)


def as_complex(z) -> complex:
    return complex(float(mp.re(z)), float(mp.im(z)))


# ---------------------------------------------------------------------------
# radial transforms: a mapping as a sum of weight terms
# ---------------------------------------------------------------------------
# A term is (coef, kind, k):
#   ("mono", k): weight u^k on (0, 1], Mellin 1/(s+k+1)
#   ("inv", _):  weight 1/u,             Mellin 1/s
#   ("log", b):  weight b^2 u^(b-1) (-log u), Mellin b^2/(b+s)^2
#   ("delta", _): phi itself,            Mellin 1
#   ("ddelta", _): u d/du phi(u y) at 1, Mellin s


def transform_terms(mapping: str, beta: float = 1.0) -> list:
    """Weight terms of a mapping, by the names the idcalc CLI uses."""
    b = float(beta)
    if mapping == "exponent":
        return [(1.0, "delta", 0)]
    if mapping == "jbeta":
        return [(b, "mono", b - 1.0)]
    if mapping == "imap":
        return [(1.0, "inv", 0)]
    if mapping == "i-of-jbeta":
        return [(1.0, "inv", 0), (-1.0, "mono", b - 1.0)]
    if mapping == "cor1a":
        return [(2.0 * b, "mono", b - 1.0), (-2.0 * b, "mono", 2.0 * b - 1.0)]
    if mapping == "jbeta-inv":
        return [(1.0, "delta", 0), (1.0 / b, "ddelta", 0)]
    if mapping == "jbeta2":
        # J_b applied twice: b^2/(b+s)^2
        return [(1.0, "log", b)]
    raise ValueError(f"unknown mapping {mapping!r}")


def compose_jj(b1: float, b2: float) -> list:
    """Terms of J_{b2} o J_{b1}: partial fractions of b1 b2/((b1+s)(b2+s))."""
    if b1 == b2:
        return transform_terms("jbeta2", b1)
    c = b1 * b2 / (b2 - b1)
    return [(c, "mono", b1 - 1.0), (-c, "mono", b2 - 1.0)]


def mellin(terms, s: float) -> float:
    total = 0.0
    for c, kind, k in terms:
        if kind == "mono":
            total += c / (s + k + 1.0)
        elif kind == "inv":
            total += c / s
        elif kind == "log":
            total += c * k * k / (k + s) ** 2
        elif kind == "delta":
            total += c
        elif kind == "ddelta":
            total += c * s
    return total


def homogeneous_value(terms, degree: float, phi_y: complex) -> complex:
    """Transform of an exponent homogeneous of the given degree."""
    return mellin(terms, degree) * phi_y


def radial_value(terms, phi, y: float) -> complex:
    """``int_0^1 w(u) phi(u y) du`` by mpmath, ``phi`` an mpmath function."""
    total = mp.mpc(0)
    for c, kind, k in terms:
        if kind == "mono":
            total += c * mp.quad(lambda u: u**k * phi(u * y), [0, 1])
        elif kind == "inv":
            total += c * mp.quad(lambda u: phi(u * y) / u, [0, 1])
        elif kind == "log":
            total += c * mp.quad(lambda u: k * k * u ** (k - 1) * -mp.log(u) * phi(u * y), [0, 1])
        elif kind == "delta":
            total += c * phi(mp.mpf(y))
        elif kind == "ddelta":
            total += c * y * mp.diff(phi, y)
    return as_complex(total)


# ---------------------------------------------------------------------------
# closed-form seed families
# ---------------------------------------------------------------------------


def gamma_phi(shape: float, rate: float):
    return lambda y: -shape * mp.log(1 - 1j * y / rate)


def poisson_phi(rate: float, jump: float):
    return lambda y: rate * (mp.expj(y * jump) - 1)


def gamma_imap(shape: float, rate: float, y: float) -> complex:
    """``I(gamma(k, lam))(y) = k Li2(i y/lam)``, with Li2(z) = spence(1 - z)."""
    return shape * complex(special.spence(1.0 - 1j * y / rate))


def poisson_imap(rate: float, jump: float, y: float) -> complex:
    """``rate * int_0^1 (e^{i u x} - 1)/u du = rate (Ci|x| - gamma - log|x| + i Si(x))``."""
    x = y * jump
    if x == 0.0:
        return 0j
    si, ci = special.sici(abs(x))
    return rate * complex(ci - EULER - math.log(abs(x)), math.copysign(si, x))


class FamilyOracle:
    """Transforms of one closed-form seed law at real frequencies.

    Values at ``-y`` are the conjugates of those at ``y``, since every law
    here is real.  Single-level maps come from mpmath quadrature (or the
    special-function forms of ``I``), memoized per ``(terms, |y|)``.
    """

    def __init__(self, family: str, params: dict):
        self.family = family
        self.params = params
        if family == "gaussian":
            self.degree = 2.0
            self._phi = lambda y: complex(-0.5 * params["var"] * y * y)
        elif family == "shift":
            self.degree = 1.0
            self._phi = lambda y: complex(0.0, params["shift"] * y)
        elif family == "gamma":
            self.degree = None
            self._mp_phi = gamma_phi(params["shape"], params["rate"])
        elif family == "poisson":
            self.degree = None
            self._mp_phi = poisson_phi(params["rate"], params["jump"])
        else:
            raise ValueError(family)
        self._memo: dict = {}

    def _term_value(self, term, y: float) -> complex:
        key = (term[1:], y)
        if key not in self._memo:
            c, kind, k = term
            if kind == "inv" and self.family == "gamma":
                v = gamma_imap(self.params["shape"], self.params["rate"], y)
            elif kind == "inv" and self.family == "poisson":
                v = poisson_imap(self.params["rate"], self.params["jump"], y)
            else:
                v = radial_value([(1.0, kind, k)], self._mp_phi, y)
            self._memo[key] = v
        return self._memo[key]

    def value(self, terms, y: float) -> complex:
        if self.degree is not None:
            return homogeneous_value(terms, self.degree, self._phi(y))
        v = sum(term[0] * self._term_value(term, abs(y)) for term in terms)
        return v if y >= 0 else v.conjugate()

    def cf(self, terms, y: float) -> complex:
        return cmath.exp(self.value(terms, y))


# ---------------------------------------------------------------------------
# identity matrix: expected lhs/rhs of every report of verify_identity
# ---------------------------------------------------------------------------


def identity_terms(name: str, beta: float) -> list:
    """Terms of the exponent both sides of each report should equal.

    One entry per report ``verify_identity(name, ..., mc_n=0)`` returns,
    in its order.  Every side of every identity reduces to one radial
    transform of the seed exponent: e.g. the lemma1e sides are
    ``J_2b(J_b rho * rho)`` with multiplier ``2b/(2b+s) (b/(b+s) + 1) =
    2 b/(b+s)``.
    """
    b = beta
    jb = transform_terms("jbeta", b)
    scale = lambda c, terms: [(c * t[0],) + t[1:] for t in terms]
    if name == "lemma1c":
        return [compose_jj(b, b2) for b2 in BETA_SET]
    if name == "lemma1d":
        return [scale(2.0, jb), scale(0.5, jb), scale(2.0, jb)]
    if name in ("lemma1e", "cor1b"):
        return [scale(2.0, jb)]
    if name == "prop1":
        return [jb]
    if name == "cor1a":
        return [transform_terms("cor1a", b)]
    if name == "prop2":
        return [transform_terms("i-of-jbeta", b)]
    raise ValueError(name)


def levyarea_log_sinh(t: float, u: float = 1.0) -> float:
    """``log(x / sinh x)`` at ``x = |t| u``, the mapped background exponent."""
    x = abs(t) * u
    if x == 0.0:
        return 0.0
    return float(mp.log(x / mp.sinh(x)))


# ---------------------------------------------------------------------------
# spec measures (full JSON triplets)
# ---------------------------------------------------------------------------


class Kernel:
    """``K(x) = int_0^1 w(u) (e^{iux} - 1) du`` of a transform, in doubles.

    Below |x| = 1 it sums the series ``sum_n (ix)^n/n! M(n)``, starting at
    n = 2 when compensated (``K - i x M(1)``), so nothing cancels; above,
    it uses the closed form of each weight term.
    """

    SERIES_TERMS = 30

    def __init__(self, terms):
        for _, kind, k in terms:
            if kind == "log" or (kind == "mono" and k != int(k)):
                raise ValueError("spec transforms need integer weight powers (beta in {1, 2})")
        self.terms = terms
        self.m = [mellin(terms, n) if n else 0.0 for n in range(self.SERIES_TERMS + 1)]

    def __call__(self, x: float, compensated: bool) -> complex:
        if abs(x) < 1.0:
            total, term = 0j, 1 + 0j
            for n in range(1, self.SERIES_TERMS + 1):
                term *= 1j * x / n
                if n >= 2 or not compensated:
                    total += term * self.m[n]
            return total
        e = cmath.exp(1j * x)
        total = 0j
        for c, kind, k in self.terms:
            if kind == "mono":
                val = (e - 1) / (1j * x)
                for j in range(1, int(k) + 1):
                    val = (e - j * val) / (1j * x)
                total += c * (val - 1.0 / (k + 1.0))
            elif kind == "inv":
                si, ci = special.sici(abs(x))
                total += c * complex(ci - EULER - math.log(abs(x)), math.copysign(si, x))
            elif kind == "delta":
                total += c * (e - 1)
            elif kind == "ddelta":
                total += c * 1j * x * e
        if compensated:
            total -= 1j * x * self.m[1]
        return total


def _density_fn(d: dict):
    coef = float(d["coef"])
    p = float(d.get("exponent", 0.0))
    if d.get("kind", "power") == "power":
        return lambda r: coef * r**p
    lam = float(d["rate"])
    return lambda r: coef * r**p * math.exp(-lam * r)


def _support(d: dict) -> tuple:
    lo = float(d.get("lo", 0.0))
    hi = d.get("hi")
    hi = math.inf if hi in (None, "inf") else float(hi)
    return lo, hi


def _quad(f, a: float, b: float) -> complex:
    """mpmath tanh-sinh quadrature of a double-precision complex integrand."""
    top = mp.inf if math.isinf(b) else b
    return as_complex(mp.quad(lambda r: f(float(r)), [a, top]))


def spec_transform(spec: dict, terms, y) -> complex:
    """Transform of a spec measure's exponent at ``y`` (a sequence).

    Swapping the u- and r-integrals turns every mapping into one radial
    integral per density against a closed-form kernel; atoms and the
    Gaussian and shift parts are closed forms.  The compensator keeps its
    indicator on the original radius, ``1{r <= 1}``.
    """
    kern = Kernel(terms)
    y = [float(v) for v in y]
    a = spec.get("shift", [0.0] * len(y))
    S = spec.get("cov", [[0.0] * len(y) for _ in y])
    ya = sum(yi * ai for yi, ai in zip(y, a))
    ySy = sum(y[i] * S[i][j] * y[j] for i in range(len(y)) for j in range(len(y)))
    total = 1j * ya * kern.m[1] - 0.5 * ySy * kern.m[2]
    for ray in spec.get("spectral", {}).get("rays", []):
        d = ray["direction"]
        norm = math.sqrt(sum(v * v for v in d))
        c = sum(yi * di / norm for yi, di in zip(y, d))
        if c == 0.0:
            continue
        for at in ray.get("atoms", []):
            r = float(at["r"])
            total += float(at["w"]) * kern(r * c, compensated=r <= 1.0)
        for dens in ray.get("densities", []):
            g = _density_fn(dens)
            lo, hi = _support(dens)
            if lo < 1.0:
                total += _quad(lambda r: g(r) * kern(r * c, True), lo, min(1.0, hi))
            if hi > 1.0:
                total += _quad(lambda r: g(r) * kern(r * c, False), max(1.0, lo), hi)
    return complex(total)


def _interval_mass(ray: dict, a: float, c: float) -> float:
    """Spectral mass of the radii ``(a, c]`` on one ray, in closed form."""
    total = 0.0
    for at in ray.get("atoms", []):
        if a < at["r"] <= c:
            total += at["w"]
    for dens in ray.get("densities", []):
        lo, hi = _support(dens)
        lo_c, hi_c = max(a, lo), min(c, hi)
        if hi_c <= lo_c:
            continue
        coef = float(dens["coef"])
        p = float(dens.get("exponent", 0.0))
        if dens.get("kind", "power") == "power":
            if p == -1.0:
                total += coef * (math.log(hi_c) - math.log(lo_c))
            else:
                total += coef * (hi_c ** (p + 1) - lo_c ** (p + 1)) / (p + 1)
        else:
            lam = float(dens["rate"])
            if p == -1.0:
                upper = lambda r: special.exp1(lam * r) if r < math.inf else 0.0
                total += coef * (upper(lo_c) - upper(hi_c))
            elif p > -1.0:
                q = lambda r: special.gammaincc(p + 1, lam * r) if r < math.inf else 0.0
                total += coef * lam ** (-p - 1) * special.gamma(p + 1) * (q(lo_c) - q(hi_c))
            else:
                raise ValueError("exp density exponent must be >= -1")
    return total


def smeared_interval_mass(ray: dict, beta: float, r1: float, r2: float) -> float:
    """``int_0^1 G((r1, r2] t^{-1/beta}) dt`` on one ray, by mpmath.

    This is the mass the index-beta image of the spectral measure puts on
    the radial interval, the right side of the cor5 check.  The t-axis is
    split where a dilated interval end crosses an atom or a support edge.
    """
    radii = [float(at["r"]) for at in ray.get("atoms", [])]
    for dens in ray.get("densities", []):
        lo, hi = _support(dens)
        radii += [v for v in (lo, hi) if 0.0 < v < math.inf]
    pts = {0.0, 1.0}
    for r0 in radii:
        for r in (r1, r2):
            t = (r / r0) ** beta
            if 0.0 < t < 1.0:
                pts.add(t)
    inv = 1.0 / beta

    def f(t):
        t = float(t)
        if t == 0.0:
            return 0.0
        s = t ** -inv
        return _interval_mass(ray, r1 * s, r2 * s)

    return float(mp.quad(f, sorted(pts)))


# ---------------------------------------------------------------------------
# Monte Carlo: kernel moments of the sampled random integrals
# ---------------------------------------------------------------------------

KERNEL_MAPPING = {"jbeta": "jbeta", "imap": "imap", "clocked": "i-of-jbeta", "cor1a": "cor1a"}


def kernel_moment(kernel: str, beta: float, j: int) -> float:
    """``int f^j dtau`` of a sampled kernel, in closed form.

    jbeta: ``int_0^1 t^{j/b} dt``; imap: ``int_0^inf e^{-js} ds``;
    clocked: ``int e^{-js} (1 - e^{-bs}) ds``; cor1a:
    ``int_0^1 (1 - sqrt t)^{j/b} dt``.  Each is the kernel's Mellin
    multiplier at ``s = j``.
    """
    b = beta
    if kernel == "jbeta":
        return b / (b + j)
    if kernel == "imap":
        return 1.0 / j
    if kernel == "clocked":
        return 1.0 / j - 1.0 / (j + b)
    if kernel == "cor1a":
        q = j / b
        return 2.0 / ((q + 1.0) * (q + 2.0))
    raise ValueError(kernel)


def family_cumulant(family: str, params: dict, j: int) -> float:
    """j-th cumulant of the law at time 1 (j = 1, 2, 4)."""
    if family == "gaussian":
        return {1: 0.0, 2: params["var"], 4: 0.0}[j]
    if family == "gamma":
        k, lam = params["shape"], params["rate"]
        return k * math.factorial(j - 1) / lam**j
    if family == "poisson":
        return params["rate"] * params["jump"] ** j
    raise ValueError(family)


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def _pair(z: complex) -> list:
    return [z.real, z.imag]


_family_memo: dict = {}


def _family(family: str, params: dict) -> FamilyOracle:
    key = (family, json.dumps(params, sort_keys=True))
    if key not in _family_memo:
        _family_memo[key] = FamilyOracle(family, params)
    return _family_memo[key]


def evaluate(request: list):
    """The oracle answer to one request, in JSON form (complex as [re, im]).

    * ``["identity", family, params, name, beta, y]``: the exponent every
      side of each report of ``verify_identity(name)`` should equal at y,
      one per report;
    * ``["cor5", ray, beta, r1, r2]``: the smeared mass of ``(r1, r2]``;
    * ``["levyarea", t]``: ``log(|t| / sinh |t|)``;
    * ``["mc", family, params, kernel, beta, grid]``: the sampled
      integral's ``mean``, ``var`` and ``k4``, and its ``cf`` on the grid;
    * ``["spec", spec, mapping, beta, y]``: the transform of a spec
      measure's exponent at the point y.
    """
    kind, *args = request
    if kind == "identity":
        family, params, name, beta, y = args
        orc = _family(family, params)
        return [_pair(orc.value(terms, y)) for terms in identity_terms(name, beta)]
    if kind == "cor5":
        return smeared_interval_mass(*args)
    if kind == "levyarea":
        return levyarea_log_sinh(*args)
    if kind == "mc":
        family, params, kernel, beta, grid = args
        orc = _family(family, params)
        terms = transform_terms(KERNEL_MAPPING[kernel], beta)
        kj = lambda j: family_cumulant(family, params, j) * kernel_moment(kernel, beta, j)
        return {"mean": kj(1), "var": kj(2), "k4": kj(4),
                "cf": [_pair(orc.cf(terms, y)) for y in grid]}
    if kind == "spec":
        spec, mapping, beta, y = args
        return _pair(spec_transform(spec, transform_terms(mapping, beta), y))
    raise ValueError(f"unknown oracle request {kind!r}")


if __name__ == "__main__":
    json.dump([evaluate(r) for r in json.load(sys.stdin)], sys.stdout)
