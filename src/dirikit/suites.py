"""Seeded verification batteries for the package's quantitative claims.

Each suite checks one identity or inequality over randomized trials (or a
fixed deterministic battery where randomness adds nothing).  Per-trial
randomness comes from a generator seeded with (suite seed, trial index),
so any failure record pins down a reproducible input and trials could be
executed concurrently without changing the report.

Residuals are normalized: equality checks report |lhs - rhs| / scale,
inequality checks report (lhs - rhs) / scale, with scale = max(1, rhs).
A check fails when its residual exceeds the suite tolerance or its own.
"""

from __future__ import annotations

import inspect
import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dirichlet import (
    _exact_values,
    _local_integrals,
    _quadrature_values,
    atomic_decompose,
    dilation_factor,
    dirichlet_kernel_section,
    dirichlet_sigma,
    dirichlet_sigma_inner,
    local_bergman_kernel,
    local_bergman_kernel_series,
    multiplier_norm_upper,
    szego_kernel_energy,
)
from .functions import AnalyticFunction, dilate, multiply, times_linear
from .measures import Atom, CircleMeasure, MeasureTuple
from .operators import _defect_kernel_checks, defect_sequence
from .quadrature import QuadratureSpec

#: Highest degree of the random polynomials, of the monomials checked by
#: ``monomial`` and of the Szego truncations; no order above its degree
#: has a nonzero derivative to check.
_DRAW_DEGREE = 12
_MONOMIAL_DEGREE = 15
_SZEGO_DEGREE = 60
#: Trials whose integrals one batch computes together; a bound keeps the
#: live trials of a batch few.  The routes bound their own arrays by
#: ``quadrature._CELL_BUDGET`` whatever the batch.
_TRIAL_BATCH = 200
#: Most atoms of a random atomic measure, and their least angle apart,
#: which keeps division away from ill-conditioned coinciding atoms.
_MAX_ATOMS = 3
_ATOM_SEPARATION = 0.05


def _json_number(value: float) -> float | str:
    # JSON has no NaN or infinity: name them, so a report still serializes
    return value if math.isfinite(value) else repr(value)


@dataclass(frozen=True)
class Failure:
    """One failed check: the input that produced it and the numbers."""

    record: dict
    observed: float
    expected: float
    gap: float

    def to_json(self) -> dict:
        return {
            "record": self.record,
            "observed": _json_number(self.observed),
            "expected": _json_number(self.expected),
            "gap": _json_number(self.gap),
        }


@dataclass
class VerificationReport:
    """Outcome of one suite run.

    ``elapsed`` is wall-clock seconds and is deliberately left out of the
    serialized form so identical (command, seed) runs serialize to
    identical bytes.
    """

    suite: str
    trials: int
    seed: int
    failures: list[Failure] = field(default_factory=list)
    max_residual: float = 0.0
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "passed": self.passed,
            "max_residual": _json_number(self.max_residual),
            "failures": [f.to_json() for f in self.failures],
        }


def _relative_gap(observed: complex, expected: complex) -> float:
    return abs(observed - expected) / max(1.0, abs(expected))


class _Recorder:
    """Accumulates residuals and failures against a tolerance.

    A check may pass its own tolerance, a constant of the suite code that
    the suite tolerance, overridden or not, leaves alone.  ``overridden``
    says whether the caller chose the suite tolerance.  A yes/no check
    (:meth:`require`) has no residual: it records a failure of gap 1 and
    leaves ``max_residual`` alone.  A residual that is not finite, say
    from a NaN on the computed side, counts as infinite: it fails every
    tolerance and makes ``max_residual`` infinite.
    """

    def __init__(self, tolerance: float, overridden: bool):
        self.tolerance = tolerance
        self.overridden = overridden
        self.failures: list[Failure] = []
        self.max_residual = -math.inf

    def equality(self, record: dict, observed: float, expected: float,
                 tolerance: float | None = None) -> None:
        self._note(record, observed, expected,
                   _relative_gap(observed, expected), tolerance)

    def upper_bound(self, record: dict, observed: float, bound: float,
                    tolerance: float | None = None) -> None:
        residual = (observed - bound) / max(1.0, abs(bound))
        self._note(record, observed, bound, residual, tolerance)

    def require(self, record: dict, holds: bool, observed: float,
                expected: float) -> None:
        if not holds:
            self.failures.append(Failure(record, observed, expected, 1.0))

    def _note(self, record: dict, observed: float, expected: float,
              residual: float, tolerance: float | None) -> None:
        if not math.isfinite(residual):  # NaN fails no test and loses every max
            residual = math.inf
        self.max_residual = max(self.max_residual, residual)
        if residual > (self.tolerance if tolerance is None else tolerance):
            self.failures.append(Failure(record, observed, expected, residual))


#: Every suite runner by name, in definition order; :func:`_suite` fills it.
SUITES: dict = {}
#: Suites that integrate by quadrature and so take a ``spec``.
_QUADRATURE_SUITES: set[str] = set()


def _suite(trials: int, tolerance: float, orders: list[int] | None = None,
           lowest_order: int = 1, highest_order: int | None = None):
    """Turn a suite body into a runner and register it in ``SUITES``.

    The runner takes ``trials``, ``seed``, ``spec``, ``orders`` and
    ``tolerance``; ``None`` means the defaults given here.  A ``None``
    spec reaches the body as it is, and each integral then picks its own
    grid through :meth:`QuadratureSpec.choose`: the smallest exact one
    for a polynomial and the default for a truncation.  Before the first
    trial it raises ``ValueError`` for a negative trial count, for a NaN
    tolerance, which no residual exceeds, for orders or a spec the suite
    does not read (it reads orders when it has default orders, and a spec
    when the body takes ``spec``), and for an order below
    ``lowest_order`` or above ``highest_order``.  That is the highest
    order at which the suite's functions can have a nonzero derivative, so
    a check above it holds trivially; ``None`` means no order is trivial.
    The body receives a :class:`_Recorder`, the (index, generator) pair of
    each trial with the generator seeded by (seed, index), and the orders
    and spec it reads as keywords.  The runner times the body and returns
    its :class:`VerificationReport`; the runner is registered under the
    body's name without ``run_``, in definition order.
    """
    default_trials, default_tolerance, default_orders = trials, tolerance, orders

    def wrap(body):
        name = body.__name__.removeprefix("run_")
        quadrature = "spec" in inspect.signature(body).parameters
        if quadrature:
            _QUADRATURE_SUITES.add(name)

        def run(trials: int | None = None, seed: int = 0,
                spec: QuadratureSpec | None = None,
                orders: list[int] | None = None,
                tolerance: float | None = None) -> VerificationReport:
            trials = default_trials if trials is None else trials
            if trials < 0:
                raise ValueError(f"{name}: trial count must be non-negative")
            if seed < 0:
                raise ValueError(f"{name}: the seed must be non-negative, got {seed}")
            if orders is not None and default_orders is None:
                raise ValueError(f"{name}: this suite takes no orders")
            if orders is not None and min(orders, default=-1) < lowest_order:
                raise ValueError(f"{name}: need orders, each >= {lowest_order}")
            if orders and highest_order is not None and max(orders) > highest_order:
                raise ValueError(
                    f"{name}: order {max(orders)} is above {highest_order}, "
                    "the highest order its functions reach"
                )
            if spec is not None and not quadrature:
                raise ValueError(f"{name}: this suite takes no quadrature spec")
            if tolerance is not None and math.isnan(tolerance):
                raise ValueError(f"{name}: the tolerance must not be NaN")
            start = time.perf_counter()
            chosen = tolerance is not None
            recorder = _Recorder(tolerance if chosen else default_tolerance, chosen)
            draws = ((i, np.random.default_rng([seed, i])) for i in range(trials))
            reads = {}
            if default_orders is not None:
                reads["orders"] = list(orders or default_orders)
            if quadrature:
                reads["spec"] = spec
            body(recorder, draws, **reads)
            worst = recorder.max_residual
            return VerificationReport(
                name, trials, seed, recorder.failures,
                worst if worst > -math.inf else 0.0,
                time.perf_counter() - start,
            )

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        SUITES[name] = run
        return run

    return wrap


def _random_polynomial(
    rng: np.random.Generator,
    max_degree: int = _DRAW_DEGREE,
    min_degree: int = 0,
    zero_below: int = 0,
) -> AnalyticFunction:
    degree = int(rng.integers(max(min_degree, zero_below), max_degree + 1))
    coeffs = np.zeros(degree + 1, dtype=complex)
    count = degree + 1 - zero_below
    coeffs[zero_below:] = rng.uniform(-1, 1, count) + 1j * rng.uniform(
        -1, 1, count
    )
    return AnalyticFunction(coeffs)


def _random_angle(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


def _random_atom_angles(rng: np.random.Generator, count: int) -> list[float]:
    # resample until pairwise separated by _ATOM_SEPARATION
    while True:
        angles = sorted(_random_angle(rng) for _ in range(count))
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2.0 * math.pi - angles[-1] + angles[0] if count > 1 else 1.0)
        if count == 1 or min(gaps) >= _ATOM_SEPARATION:
            return angles


def _random_atomic_measure(rng: np.random.Generator) -> CircleMeasure:
    count = int(rng.integers(1, _MAX_ATOMS + 1))
    angles = _random_atom_angles(rng, count)
    atoms = tuple(Atom(a, float(rng.uniform(0.2, 2.0))) for a in angles)
    return CircleMeasure(atoms, 0.0)


def _random_measure(rng: np.random.Generator) -> CircleMeasure:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return CircleMeasure.arc_length(float(rng.uniform(0.2, 2.0)))
    if kind == 1:
        return _random_atomic_measure(rng)
    atomic = _random_atomic_measure(rng)
    return CircleMeasure(atomic.atoms, float(rng.uniform(0.2, 2.0)))


def _batches(draws):
    """The (index, generator) draws in lists of up to ``_TRIAL_BATCH``."""
    while batch := list(itertools.islice(draws, _TRIAL_BATCH)):
        yield batch


@_suite(trials=50, tolerance=1e-12, orders=[1, 2, 3, 4], highest_order=_MONOMIAL_DEGREE)
def run_monomial(rec: _Recorder, draws, orders) -> None:
    """Local integral of z^k at any atom equals binom(k, n).

    The oracle is the binomial coefficient itself (hockey-stick closed
    form); the computed side goes through boundary division plus the
    order-(n-1) coefficient series, and must also coincide with the plain
    arc-length series for z^k.  Each batch of trials (``_batches``) makes
    one batch of local integrals per order, with every (monomial, trial
    point) column of the batch.
    """
    degrees = range(_MONOMIAL_DEGREE + 1)
    monomials = [AnalyticFunction.monomial(k) for k in degrees]
    sigma = {(n, k): dirichlet_sigma(zk, n).value
             for n in orders for k, zk in enumerate(monomials)}
    for batch in _batches(draws):
        trials = [(i, _random_angle(rng)) for i, rng in batch]
        points = [Atom(angle, 1.0).point for _, angle in trials]
        columns = [zk for zk in monomials for _ in points]
        # local[a][k * len(trials) + c] is the order-orders[a] local
        # integral of z^k at trial c's point
        local = [_local_integrals(columns, points * len(monomials), n) for n in orders]
        for c, (i, angle) in enumerate(trials):
            for values, n in zip(local, orders):
                for k in degrees:
                    record = {"trial": i, "k": k, "n": n, "atom_angle": angle}
                    value = values[k * len(trials) + c]
                    rec.equality(record, value, float(math.comb(k, n)))
                    rec.equality({**record, "check": "sigma-agrees"}, value,
                                 sigma[n, k])


@_suite(trials=200, tolerance=1e-6, orders=[1, 2, 3, 4], highest_order=_DRAW_DEGREE)
def run_douglas(rec: _Recorder, draws, orders, spec) -> None:
    """Quadrature route of the local integral against the quotient series.

    Order 1 keeps a looser tolerance: its weight is genuinely singular at
    the atom and only the angular convolution keeps it integrable.  Each
    trial builds one unit atom, and both routes get the same (f, atom,
    order) triples: the quadrature side integrates f against the atom,
    the series side divides f at the atom's point.  Each batch of trials
    (``_batches``) makes one call per route; each route bounds its own
    arrays.
    """
    for batch in _batches(draws):
        trials, triples = [], []
        for i, rng in batch:
            n = orders[i % len(orders)]
            f = _random_polynomial(rng)
            angle = _random_angle(rng)
            trials.append((i, n, f, angle))
            triples.append((f, CircleMeasure.point_mass(angle), n))
        lhs = _quadrature_values(triples, spec)
        rhs = _exact_values(triples)
        for (i, n, f, angle), (value, *_), (expected, _) in zip(trials, lhs, rhs):
            record = {"trial": i, "n": n, "degree": f.degree, "atom_angle": angle}
            # a chosen tolerance replaces the order-1 one as well
            loose = 1e-3 if n == 1 and not rec.overridden else None
            rec.equality(record, value, expected, loose)


@_suite(trials=100, tolerance=1e-6, orders=[1, 2, 3, 4], highest_order=_DRAW_DEGREE + 1)
def run_tmap(rec: _Recorder, draws, orders, spec) -> None:
    """Isometry of f -> ((z - lam) f)^(n) into the local Bergman space.

    The Bergman-side energy is quadrature over the disc; the source-side
    norm is the order-(n-1) coefficient series of f, drawn from the space
    with vanishing coefficients below n-1.  The root lam of (z - lam) f is
    the point of the unit atom it is integrated against.  Each batch of
    trials (``_batches``) makes one call per route.
    """
    arc = CircleMeasure.arc_length()
    for batch in _batches(draws):
        trials = []
        for i, rng in batch:
            n = orders[i % len(orders)]
            f = _random_polynomial(rng, zero_below=n - 1)
            angle = _random_angle(rng)
            trials.append((i, n, f, angle, CircleMeasure.point_mass(angle)))
        # the quadrature route differentiates (z - lam) f: the lift of f
        lhs = _quadrature_values([
            (times_linear(f, measure.atoms[0].point), measure, n)
            for _, n, f, _, measure in trials
        ], spec)
        rhs = _exact_values([(f, arc, n - 1) for _, n, f, _, _ in trials])
        for (i, n, f, angle, _), (value, *_), (expected, _) in zip(trials, lhs, rhs):
            record = {"trial": i, "n": n, "degree": f.degree, "atom_angle": angle}
            rec.equality(record, value, expected)


def _kernel_series_terms(order: int, r: float) -> int:
    """Terms of the local kernel series, at least 200, after which the tail
    is below 2^-60 of the kernel at |z conj(w)| = r.

    The terms t_k = binom(n+1+k, k) r^k shrink by the ratio
    r (n+2+k) / (k+1), which decreases in k, so once it is below 1 the tail
    from k on is at most t_k / (1 - ratio).  The sum 1 / (1 - x)^(n+2) has
    modulus at least (1 + r)^-(n+2).
    """
    m = order + 2
    bound = 2.0**-60 * (1.0 + r) ** -m
    k = 200
    while True:
        ratio = r * (m + k) / (k + 1)
        if ratio < 1 and math.comb(m - 1 + k, k) * r**k <= bound * (1 - ratio):
            return k
        k += 1


def _kernel_grid() -> list[complex]:
    return [
        0.7 * (i + 1) / 5.0 * np.exp(2j * math.pi * (i + 0.3) / 5.0)
        for i in range(5)
    ]


@_suite(trials=25, tolerance=1e-10, orders=[1, 2, 3])
def run_kernel(rec: _Recorder, draws, orders) -> None:
    """Closed-form local Bergman kernel against its basis expansion.

    A fixed 5x5 point grid compares the rational closed form with the
    orthonormal-basis series, summed over at least 200 terms and as many
    more as its tail needs (``_kernel_series_terms``, which adds terms from
    order 30 on); randomized trials then check the
    reproducing property of arc-length kernel sections against direct
    evaluation.  Both are complex, so each check records their distance
    relative to the expected side, max(1, |closed|) or max(1, |direct|).
    """
    points = _kernel_grid()
    for n in orders:
        for zi, z in enumerate(points):
            for wi, w in enumerate(points):
                lam = np.exp(1j * (0.7 * zi + 1.9 * wi))
                try:
                    closed = local_bergman_kernel(z, w, lam, n)
                    terms = _kernel_series_terms(n, abs(z * w.conjugate()))
                    series = local_bergman_kernel_series(z, w, lam, n, terms)
                    gap = _relative_gap(series, closed)
                except OverflowError as exc:
                    raise OverflowError(
                        f"kernel: the closed-form local Bergman kernel of "
                        f"order {n} exceeds the float range"
                    ) from exc
                record = {"check": "kernel", "n": n, "zi": zi, "wi": wi}
                rec.equality(record, gap, 0.0)
    for i, rng in draws:
        j = int(rng.integers(0, 3))
        cutoff = 15
        f = _random_polynomial(rng, max_degree=20, zero_below=j)
        w = 0.7 * math.sqrt(rng.uniform()) * np.exp(1j * _random_angle(rng))
        section = dirichlet_kernel_section(w, j, cutoff)
        paired = dirichlet_sigma_inner(f, section, j)
        a = f.coeffs.tolist()
        direct = sum(a[k] * w**k for k in range(j, min(cutoff, f.degree) + 1))
        record = {"check": "reproducing", "trial": i, "j": j}
        rec.equality(record, _relative_gap(paired, direct), 0.0)


@_suite(trials=500, tolerance=1e-9, orders=[2, 3], highest_order=_DRAW_DEGREE)
def run_dilation(rec: _Recorder, draws, orders) -> None:
    """Dilation bound: energy of f(rz) against the contraction factor.

    Also sweeps the closed-form factor over a 1000-point radius grid for
    orders up to 6 to confirm it never exceeds 1.  The energies of each
    batch of trials come from one exact-route call.
    """
    radii = [0.1 * k for k in range(1, 10)]
    for batch in _batches(draws):
        trials = []
        for i, rng in batch:
            n = orders[i % len(orders)]
            f = _random_polynomial(rng)
            r = radii[int(rng.integers(0, len(radii)))]
            trials.append((i, n, f, r, _random_measure(rng)))
        values = iter(_exact_values([
            triple for _, n, f, r, measure in trials
            for triple in ((dilate(f, r), measure, n), (f, measure, n))
        ]))
        for i, n, f, r, _ in trials:
            (lhs, _), (energy, _) = next(values), next(values)
            bound = dilation_factor(r, n) * energy
            record = {"trial": i, "n": n, "r": r, "degree": f.degree}
            rec.upper_bound(record, lhs, bound)
    for n in range(1, 7):
        for r in np.linspace(0.0, 1.0, 1000, endpoint=False):
            factor = dilation_factor(float(r), n)
            rec.require({"check": "factor<=1", "n": n, "r": float(r)},
                        factor <= 1.0 + 1e-12, factor, 1.0)


@_suite(trials=500, tolerance=1e-9, orders=[0, 1, 2, 3], lowest_order=0,
        highest_order=_DRAW_DEGREE)
def run_shiftineq(rec: _Recorder, draws, orders) -> None:
    """Seminorm comparison of (z - lam) f against (z - r lam) f.

    Needs the shift to be expansive, which holds on the subspace with
    vanishing coefficients below the seminorm order.  Both seminorms of
    each batch of trials come from one exact-route call.
    """
    radii = [0.0] + [0.1 * k for k in range(1, 10)]
    arc = CircleMeasure.arc_length()
    for batch in _batches(draws):
        trials = []
        for i, rng in batch:
            j = orders[i % len(orders)]
            f = _random_polynomial(rng, zero_below=j)
            lam = np.exp(1j * _random_angle(rng))
            r = radii[int(rng.integers(0, len(radii)))]
            trials.append((i, j, r, f, lam))
        values = iter(value for value, _ in _exact_values([
            (g, arc, j) for _, j, r, f, lam in trials
            for g in (times_linear(f, lam), times_linear(f, r * lam))
        ]))
        for i, j, r, f, _ in trials:
            lhs = math.sqrt(next(values))
            rhs = 2.0 / (1.0 + r) * math.sqrt(next(values))
            record = {"trial": i, "j": j, "r": r, "degree": f.degree}
            rec.upper_bound(record, lhs, rhs)


@_suite(trials=200, tolerance=1e-9, orders=[1, 2, 3, 4], highest_order=_DRAW_DEGREE)
def run_multiplier(rec: _Recorder, draws, orders) -> None:
    """Multiplier inequalities with a certified multiplier-norm upper bound.

    By the local Douglas formula the quotient g_f = (f - f*(lam))/(z - lam)
    has full order-(n-1) norm sum_{k<=n} D_k(f), and the quotient of phi f
    is f*(lam) g_phi + phi g_f.  With U a multiplier-norm bound of phi the
    triangle inequality gives

        D_n(phi f) <= 2 U^2 sum_{k<=n} D_k(f) + 2 |f*(lam)|^2 D_n(phi),
        |f*(lam)|^2 D_n(phi) <= 2 U^2 sum_{k<=n} D_k(f) + 2 D_n(phi f).

    At n = 1 the full norm is the seminorm and this is the classical
    bound.  For n >= 2 the seminorm form, with D_n(f) alone and the
    multiplier seminorm, is false (test_dirichlet.py::
    test_multiplier_inequality_counterexample): g_f can sit in the
    seminorm's kernel, where no seminorm constant controls phi g_f.

    The finite-section norm is only a lower bound, which would make the
    inequalities falsely falsifiable; both are therefore tested with the
    certified upper bound taken at doubled section degree.  The
    inequalities presuppose a non-degenerate local integral of f, so f is
    drawn with degree at least n.  The sum over k is D_1(f) + ... + D_n(f),
    n local integrals of f at lam; they, D_n(phi f), D_n(phi) and the
    order-0 integral |f(lam)|^2 of each batch come from one exact-route call.
    """
    for batch in _batches(draws):
        trials = []
        for i, rng in batch:
            n = orders[i % len(orders)]
            phi = _random_polynomial(rng, max_degree=6)
            f = _random_polynomial(rng, min_degree=n)
            angle = _random_angle(rng)
            trials.append((i, n, phi, f, angle, CircleMeasure.point_mass(angle)))
        triples = []
        for _, n, phi, f, _, measure in trials:
            triples.append((multiply(phi, f, max_degree=phi.degree + f.degree),
                            measure, n))
            triples.append((phi, measure, n))
            # order 0 is |f(lam)|^2, then D_1(f) .. D_n(f)
            triples += [(f, measure, k) for k in range(n + 1)]
        values = iter(value for value, _ in _exact_values(triples))
        for i, n, phi, f, angle, _ in trials:
            d_pf, d_p, fstar = next(values), next(values), next(values)
            d_f = sum(next(values) for _ in range(n))
            section = (n - 1) + phi.degree + 16
            upper = multiplier_norm_upper(phi, n - 1, 2 * section)
            record = {"trial": i, "n": n, "deg_phi": phi.degree,
                      "deg_f": f.degree, "atom_angle": angle}
            rec.upper_bound(
                {**record, "check": "product-bound"},
                d_pf,
                2.0 * upper**2 * d_f + 2.0 * fstar * d_p,
            )
            rec.upper_bound(
                {**record, "check": "boundary-bound"},
                fstar * d_p,
                2.0 * upper**2 * d_f + 2.0 * d_pf,
            )


@_suite(trials=100, tolerance=1e-10)
def run_atomic(rec: _Recorder, draws) -> None:
    """Round-trip of the interpolant-plus-product decomposition."""
    for i, rng in draws:
        f = _random_polynomial(rng)
        count = int(rng.integers(1, 5))
        angles = _random_atom_angles(rng, count)
        split = atomic_decompose(f, angles)
        scale = max(1.0, max(abs(c) for c in f.coeffs.tolist()))
        record = {"trial": i, "degree": f.degree, "atoms": count}
        rec.equality(record, split.residual / scale, 0.0)
        degree = split.interpolant.degree
        rec.require({**record, "check": "interpolant-degree"},
                    degree <= count - 1, float(degree), float(count - 1))


@_suite(trials=1, tolerance=1e-4, orders=[1, 2, 3], highest_order=_SZEGO_DEGREE)
def run_szego(rec: _Recorder, draws, orders, spec) -> None:
    """Closed-form Szego kernel energies against quadrature and series.

    The quadrature side integrates a degree-60 truncation of the kernel;
    for the arc-length measure the exact coefficient series gives a much
    tighter independent oracle, checked at 1e-10.  The nine truncations
    make one quadrature-route call.
    """
    measures = {
        "atom-1": CircleMeasure.point_mass(0.0),
        "arc": CircleMeasure.arc_length(1.0),
        "atom-pair": CircleMeasure(
            (Atom(0.0, 1.0), Atom(math.pi / 2.0, 2.0)), 0.0
        ),
        "arc-plus-atom": CircleMeasure((Atom(0.0, 1.0),), 1.0),
    }
    points = [0.3 + 0.0j, 0.5j, -0.6 + 0.0j]
    # every part of the four measures, integrated once per truncation
    union = CircleMeasure((Atom(0.0, 1.0), Atom(math.pi / 2.0, 1.0)), 1.0)
    keys = [(n, w) for n in orders for w in points]
    results = _quadrature_values([
        (dirichlet_kernel_section(w, 0, _SZEGO_DEGREE), union, n) for n, w in keys
    ], spec)
    # each truncation's unit-mass value of every part, by its unit part
    local = {key: dict(zip(union.parts, parts))
             for key, (_, parts, _, _) in zip(keys, results)}
    for name, measure in measures.items():
        for n in orders:
            for w in points:
                closed = szego_kernel_energy(w, measure, n)
                quad = measure.weigh([local[n, w][replace(part, mass=1.0)]
                                      for part in measure.parts])
                record = {"measure": name, "n": n, "w": [w.real, w.imag]}
                rec.equality(record, quad, closed)
    for n in orders:
        for w in points:
            closed = szego_kernel_energy(w, CircleMeasure.arc_length(), n)
            x = abs(w) ** 2
            total = 0.0
            k = n
            term = math.comb(k, n) * x**k
            while term > 1e-22:
                total += term
                k += 1
                term = math.comb(k, n) * x**k
            record = {"measure": "arc", "n": n, "w": [w.real, w.imag],
                      "check": "series"}
            rec.equality(record, total, closed, 1e-10)


@_suite(trials=100, tolerance=1e-8)
def run_isometry(rec: _Recorder, draws) -> None:
    """Vanishing (m+1)-th defect differences and positivity of the second.

    For a length-m tuple the squared shifted norms are degree-m
    polynomials of the shift power, so the (m+1)-th forward difference
    must vanish; for length-2 tuples with an atomic second entry the
    second difference must additionally be non-negative, checked at 1e-9.
    Each defect sequence reads its norms as quadratic forms on one Gram
    section (:func:`defect_sequence`).
    """
    for i, rng in draws:
        m = int(rng.integers(1, 4))
        entries = []
        for _ in range(m):
            kind = int(rng.integers(0, 4))
            if kind == 0:
                entries.append(CircleMeasure.zero())
            else:
                entries.append(_random_measure(rng))
        measures = MeasureTuple(tuple(entries))
        f = _random_polynomial(rng, max_degree=8)
        pair = MeasureTuple((_random_measure(rng), _random_atomic_measure(rng)))
        report = defect_sequence(f, measures, m + 1)
        record = {"trial": i, "m": m, "degree": f.degree}
        rec.equality(record, report.differences[m + 1][0], 0.0)
        defect = defect_sequence(f, pair, 2).differences[2][0]
        rec.upper_bound({**record, "check": "positivity"}, -defect, 0.0, 1e-9)


@_suite(trials=100, tolerance=1e-9)
def run_vsubspace(rec: _Recorder, draws) -> None:
    """Second defect vanishes exactly when boundary values at atoms do.

    Even trials force the root case by multiplying through the atom
    factors; odd trials use generic polynomials, which almost surely do
    not vanish at the atoms.  The checks of each batch of trials come
    from one ``_defect_kernel_checks`` call: one Gram section per trial
    and one exact-route call for every order-zero integral.
    """
    for batch in _batches(draws):
        trials = []
        for i, rng in batch:
            atomic = _random_atomic_measure(rng)
            base = (_random_measure(rng) if rng.uniform() < 0.5
                    else CircleMeasure.zero())
            f = _random_polynomial(rng, max_degree=6)
            rooted = i % 2 == 0
            if rooted:
                for atom in atomic.atoms:
                    f = times_linear(f, atom.point)
            trials.append((i, rooted, f, base, atomic))
        checks = _defect_kernel_checks(
            [(f, base, atomic) for _, _, f, base, atomic in trials]
        )
        for (i, rooted, f, _, atomic), check in zip(trials, checks):
            record = {"trial": i, "rooted": rooted,
                      "atoms": len(atomic.atoms), "degree": f.degree}
            rec.require({**record, "check": "consistency"}, check.consistent,
                        check.defect2, check.order_zero)
            if rooted:
                rec.equality(
                    {**record, "check": "rooted-defect"}, check.defect2, 0.0
                )
                rec.equality(
                    {**record, "check": "rooted-boundary"}, check.order_zero, 0.0
                )


def run_suite(
    name: str,
    trials: int | None = None,
    seed: int = 0,
    spec: QuadratureSpec | None = None,
    orders: list[int] | None = None,
    tolerance: float | None = None,
) -> VerificationReport:
    """Run one suite by name with optional overrides."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](
        trials=trials, seed=seed, spec=spec, orders=orders, tolerance=tolerance
    )


def run_all(
    seed: int = 0,
    spec: QuadratureSpec | None = None,
    trials: int | None = None,
    tolerance: float | None = None,
) -> list[VerificationReport]:
    """Run every suite in registry order; only quadrature suites get ``spec``."""
    return [
        run_suite(name, trials=trials, seed=seed, tolerance=tolerance,
                  spec=spec if name in _QUADRATURE_SUITES else None)
        for name in SUITES
    ]
