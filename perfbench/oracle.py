"""Exact oracle of the defining integral, made apart from the program.

For f = sum a_k z^k, an order n >= 1 and a circle measure mu, the
weighted Dirichlet-type integral is

    D[mu, n](f) = 1/(n! (n-1)!) * int_D |f^(n)|^2 P_mu (1 - |z|^2)^(n-1) dA.

Expand |f^(n)|^2 and the Poisson kernel of an atom at lam on monomials.
With b the Taylor coefficients of f^(n), the angular integral keeps the
pairs (j, k) with kernel frequency k - j, and the radial integral of
r^(2 max(j, k)) (1 - r^2)^(n-1) against normalized area is the Beta
value B(max(j, k) + 1, n).  So

    D[lam, n](f) = sum_{j,k} b_j conj(b_k) lam^(j-k) B(max(j,k)+1, n) / (n!(n-1)!),

and arc length keeps only the j = k terms.  For z^k this is binom(k, n).
The double sum is regrouped by m = max(j, k) into a prefix sum, and every
term is formed in mpmath at ``DPS`` digits from the stored binary
coefficients, which are exact rationals.
"""

from __future__ import annotations

import math

import mpmath

DPS = 40


def _mp(c) -> mpmath.mpc:
    # exact for Python floats and complexes, and for mpmath numbers
    return mpmath.mpc(c)


def _derivative(coeffs: list, n: int) -> list[mpmath.mpc]:
    # b_j = a_{j+n} (j+n)! / j!, exact integer factors
    return [
        _mp(a) * math.perm(j + n, n)
        for j, a in enumerate(coeffs[n:])
    ]


def _radial_weights(count: int, n: int) -> list[mpmath.mpf]:
    # B(m+1, n) / (n! (n-1)!) = m! / ((m+n)! n!)
    return [
        mpmath.mpf(math.factorial(m))
        / (math.factorial(m + n) * math.factorial(n))
        for m in range(count)
    ]


def integral(coeffs: list, measure: dict, n: int) -> mpmath.mpf:
    """D[mu, n](f) for f given by ``coeffs`` and a plain-data measure."""
    if n < 1:
        raise ValueError("order must be positive")
    with mpmath.workdps(DPS):
        b = _derivative(coeffs, n)
        w = _radial_weights(len(b), n)
        total = mpmath.mpf(0)
        squares = [abs(x) ** 2 for x in b]
        if measure["lebesgue"] > 0:
            total += measure["lebesgue"] * mpmath.fsum(
                wm * s for wm, s in zip(w, squares)
            )
        for angle, mass in measure["atoms"]:
            lam = mpmath.expj(angle)
            lam_bar = mpmath.conj(lam)
            # prefix[m] = sum_{k<m} conj(b_k) conj(lam)^k
            prefix = mpmath.mpc(0)
            power = mpmath.mpc(1)  # lam^m
            power_bar = mpmath.mpc(1)  # conj(lam)^m
            atom = mpmath.mpf(0)
            for m, bm in enumerate(b):
                cross = mpmath.re(bm * power * prefix)
                atom += w[m] * (squares[m] + 2 * cross)
                prefix += mpmath.conj(bm) * power_bar
                power *= lam
                power_bar *= lam_bar
            total += mass * atom
        return total


def hardy(coeffs: list) -> mpmath.mpf:
    """Squared H^2 norm, the order-0 arc-length integral."""
    with mpmath.workdps(DPS):
        return mpmath.fsum(abs(_mp(a)) ** 2 for a in coeffs)


def tuple_norm_sq(coeffs: list, measures: list[dict]) -> mpmath.mpf:
    """||f||^2 = ||f||_H2^2 + sum_j D[mu_j, j](f) for an m-tuple of measures."""
    total = hardy(coeffs)
    for j, measure in enumerate(measures, start=1):
        if measure["lebesgue"] > 0 or measure["atoms"]:
            total += integral(coeffs, measure, j)
    return total


def full_norm_sq(coeffs: list, order: int) -> mpmath.mpf:
    """Full order-j arc-length norm sum_{i<=j} D[sigma, i](f)."""
    arc = {"atoms": [], "lebesgue": 1.0}
    total = hardy(coeffs)
    for i in range(1, order + 1):
        total += integral(coeffs, arc, i)
    return total


def product(f: list, g: list) -> list[mpmath.mpc]:
    """Cauchy product, exact in mpmath."""
    with mpmath.workdps(DPS):
        out = [mpmath.mpc(0)] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += _mp(a) * _mp(b)
        return out


def max_modulus_on_circle(coeffs: list, samples: int = 512) -> mpmath.mpf:
    """Largest |phi| at equally spaced points of the circle.

    A lower bound of sup |phi|, and so of every multiplier norm.
    """
    with mpmath.workdps(DPS):
        descending = [_mp(a) for a in reversed(coeffs)]
        return max(
            abs(mpmath.polyval(descending, mpmath.expjpi(mpmath.mpf(2 * s) / samples)))
            for s in range(samples)
        )


def self_test() -> None:
    """Check the oracle on closed forms before it checks the program.

    The monomial law D[mu, n](z^k) = binom(k, n) per unit mass, and the
    order-1 local Dirichlet integral of z + i z^2 at lam, which is the H^2
    norm |1 + i lam|^2 + 1 of its quotient (1 + i lam) + i z and tells lam
    from conj(lam).
    """
    cases = [
        ([0.0] * k + [1.0], measure, n, math.comb(k, n))
        for k, n in ((5, 2), (9, 4), (3, 1))
        for measure in (
            {"atoms": [(0.7, 1.0)], "lebesgue": 0.0},
            {"atoms": [], "lebesgue": 1.0},
        )
    ]
    cases.append(
        ([0.0, 1.0, 1j], {"atoms": [(0.7, 1.0)], "lebesgue": 0.0}, 1,
         3.0 - 2.0 * math.sin(0.7))
    )
    for coeffs, measure, n, expected in cases:
        value = integral(coeffs, measure, n)
        if abs(value - expected) > 1e-14 * max(1.0, expected):
            raise AssertionError(f"oracle broken on {coeffs}, n={n}: {value}")


def expected_values(workload: str, makeup: dict) -> dict:
    """Oracle values the worker checks every operation's output against."""
    if workload == "quad-atoms":
        return {
            "integrals": [
                float(integral(it["coeffs"], it["measure"], it["order"]))
                for it in makeup["integrals"]
            ]
        }
    if workload == "exact-tuple":
        return {
            "weighted": [
                float(integral(it["coeffs"], it["measure"], it["order"]))
                for it in makeup["weighted"]
            ],
            "gram_norms": [
                [float(tuple_norm_sq(v, g["tuple"])) for v in g["vectors"]]
                for g in makeup["grams"]
            ],
            "defect_betas": [
                [
                    float(tuple_norm_sq([0.0] * k + d["coeffs"], d["tuple"]))
                    for k in range(d["max_order"] + 1)
                ]
                for d in makeup["defects"]
            ],
            "multiplier_lower": [
                float(_multiplier_lower(m["phi"], m["order"], m["samples"]))
                for m in makeup["multipliers"]
            ],
        }
    return {}


def _multiplier_lower(phi: list, order: int, samples: list) -> mpmath.mpf:
    """max(sup |phi| sampled, ||phi f|| / ||f||) in the full order-j norm."""
    with mpmath.workdps(DPS):
        ratios = [
            mpmath.sqrt(full_norm_sq(product(phi, f), order) / full_norm_sq(f, order))
            for f in samples
        ]
        return max([max_modulus_on_circle(phi)] + ratios)
