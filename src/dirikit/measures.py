"""Finite non-negative measures on the unit circle.

Supported measures are a finite sum of point masses plus a multiple of
normalized arc length.  That class is closed under everything the package
computes and admits closed-form Poisson integrals and Szego potentials,
which is what keeps an exact oracle available for every test.  Every
integral against a measure is a list of values, one per part in the order
of :attr:`CircleMeasure.parts`, that :meth:`CircleMeasure.weigh` adds up.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

#: Atom angles closer than this (radians) count as the same point.
ATOM_ANGLE_TOLERANCE = 1e-9


def _json_number(value, field: str) -> float:
    """``value`` as a float if it is a JSON number, not a bool or a str."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"'{field}' must be a number, got {value!r}")
    return float(value)


def _json_object(payload, keys: tuple[str, ...], kind: str) -> dict:
    """``payload`` if it is a JSON object with no key outside ``keys``."""
    if not isinstance(payload, dict):
        raise TypeError(f"{kind} must be a JSON object, got {payload!r}")
    for key in payload:
        if key not in keys:
            expected = ", ".join(repr(k) for k in keys)
            raise ValueError(f"unknown key {key!r} in {kind} (expected {expected})")
    return payload


@dataclass(frozen=True)
class Atom:
    """Point mass on the circle, located at exp(i*angle)."""

    angle: float
    mass: float

    def __post_init__(self):
        if not (math.isfinite(self.angle) and math.isfinite(self.mass)):
            raise ValueError("atom angle and mass must be finite")

    @property
    def point(self) -> complex:
        return cmath.exp(1j * self.angle)


@dataclass(frozen=True)
class Arc:
    """``mass`` times normalized arc length, as a part of a measure."""

    mass: float


@dataclass(frozen=True)
class CircleMeasure:
    """Finitely many atoms plus ``lebesgue`` times normalized arc length."""

    atoms: tuple[Atom, ...] = ()
    lebesgue: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lebesgue) and self.lebesgue >= 0):
            raise ValueError("arc-length component must be finite and non-negative")
        normalized = []
        for atom in self.atoms:
            if atom.mass <= 0:
                raise ValueError("atom masses must be positive")
            angle = atom.angle % (2 * math.pi)
            # a tiny negative angle rounds up to 2*pi itself, which is 0
            normalized.append(Atom(0.0 if angle == 2 * math.pi else angle, atom.mass))
        normalized.sort(key=lambda a: a.angle)
        for left, right in zip(normalized, normalized[1:]):
            if right.angle - left.angle < ATOM_ANGLE_TOLERANCE:
                raise ValueError("atom points must be pairwise distinct")
        # wrap-around pair: 0 and 2*pi are the same point
        if len(normalized) >= 2:
            gap = 2 * math.pi - normalized[-1].angle + normalized[0].angle
            if gap < ATOM_ANGLE_TOLERANCE:
                raise ValueError("atom points must be pairwise distinct")
        object.__setattr__(self, "atoms", tuple(normalized))

    @classmethod
    def point_mass(cls, angle: float, mass: float = 1.0) -> CircleMeasure:
        return cls((Atom(angle, mass),), 0.0)

    @classmethod
    def arc_length(cls, mass: float = 1.0) -> CircleMeasure:
        return cls((), mass)

    @classmethod
    def zero(cls) -> CircleMeasure:
        return cls((), 0.0)

    @property
    def total_mass(self) -> float:
        return self.lebesgue + sum(a.mass for a in self.atoms)

    @property
    def is_atomic(self) -> bool:
        return self.lebesgue == 0.0

    @cached_property
    def parts(self) -> tuple[Arc | Atom, ...]:
        """The parts of the measure: its :class:`Arc` first when arc length
        has mass, then its atoms in angle order.  This is the one place the
        order of the parts is decided."""
        head = (Arc(self.lebesgue),) if self.lebesgue > 0 else ()
        return head + self.atoms

    def weigh(self, values) -> float:
        """Mass-weighted sum of unit-mass part values in part order.

        Integrals against the measure are added up from their parts here
        alone, each part's value times its mass and added left to right.
        """
        total = 0.0
        for part, value in zip(self.parts, values, strict=True):
            total += part.mass * value
        return total

    def to_json(self) -> dict:
        return {
            "atoms": [{"angle": a.angle, "mass": a.mass} for a in self.atoms],
            "lebesgue": self.lebesgue,
        }

    @classmethod
    def from_json(cls, payload: dict) -> CircleMeasure:
        payload = _json_object(payload, ("atoms", "lebesgue"), "a measure")
        atoms = tuple(
            Atom(_json_number(a["angle"], "angle"), _json_number(a["mass"], "mass"))
            for a in (_json_object(a, ("angle", "mass"), "an atom")
                      for a in payload.get("atoms", []))
        )
        return cls(atoms, _json_number(payload.get("lebesgue", 0.0), "lebesgue"))


@dataclass(frozen=True)
class MeasureTuple:
    """Ordered tuple (mu_1, ..., mu_m) weighting the order-j seminorms."""

    entries: tuple[CircleMeasure, ...]

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("measure tuple needs at least one entry")
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {"entries": [m.to_json() for m in self.entries]}

    @classmethod
    def from_json(cls, payload: dict) -> MeasureTuple:
        payload = _json_object(payload, ("entries",), "a measure tuple")
        return cls(tuple(CircleMeasure.from_json(m) for m in payload["entries"]))


def _require_interior(z: complex) -> complex:
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("point must lie in the open unit disc")
    return z


def szego_potential(measure: CircleMeasure, w: complex) -> float:
    """Integral of |1 - point * conj(w)|^-2 against the measure.

    This is the squared Szego kernel integrated in its boundary variable;
    the arc-length part has the closed form mass / (1 - |w|^2).
    """
    w = _require_interior(w)
    total = measure.lebesgue / (1.0 - abs(w) ** 2)
    for atom in measure.atoms:
        total += atom.mass / abs(1.0 - atom.point * w.conjugate()) ** 2
    return total
