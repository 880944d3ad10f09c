"""Core domain types: 1D instances, supply curves, match results, edge parameters."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "Instance1D",
    "SupplyCurve",
    "MatchResult",
    "EdgeParams",
    "build_supply_curve",
]


# counts mu*length and lam*length within this of a whole number are taken as it
_COUNT_ROUNDING_TOL = 1e-6


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only: itself, not copied, if it owns its data, else
    a copy of it, as a write to a view's base would reach the frozen view.
    An earlier view of ``arr`` keeps its own writeable flag and still writes
    to it: only a copy per call, which no sweep needs, would close that.
    Callers pass arrays they have just created, or arrays handed to a
    constructor documented to freeze them in place."""
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _store(obj, **values) -> None:
    """Set fields of a frozen dataclass instance, from its own __post_init__."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


class _RebuiltWhenCopied:
    """Base of the frozen dataclasses whose constructor checks and freezes
    what it is given: a pickled or copied instance is rebuilt through that
    constructor from its init fields, not restored unchecked and writable."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def check_count(name: str, value, least: int = 0) -> int:
    """The one count rule: ``value`` as a Python int, if it is an integer (a
    bool is not one) of at least ``least``; else a ValueError naming it. A
    plain int skips the abstract-base-class test."""
    integral = type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )
    if not integral or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def check_positive(name: str, value) -> float:
    """The one rule for densities and lengths: ``value`` as a Python float, if
    it is a real (a bool is not one) whose float is finite and above 0; else a
    ValueError naming it. The test is on the float, so a real that rounds to
    0.0 or overflows the float range is rejected. A plain float skips the
    abstract-base-class test."""
    real = type(value) is float or (
        not isinstance(value, bool) and isinstance(value, numbers.Real)
    )
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int or Fraction beyond the float range
        number = math.inf
    if not 0 < number < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return number


@dataclass(frozen=True, eq=False)
class Instance1D(_RebuiltWhenCopied):
    """One realized bipartite matching problem on a segment.

    ``demand`` and ``supply`` are coordinate arrays on ``[0, length]``; they
    are sorted ascending at construction and the instance is immutable
    afterwards. The supply side must be at least as large as the demand side.
    Only each side's first and last coordinate are range-checked: sorting
    puts NaN last and every comparison with NaN is False, so this one test
    also rejects NaN and infinite coordinates. A pickled or copied instance
    is rebuilt through the constructor, checked and frozen again.
    """

    demand: np.ndarray
    supply: np.ndarray
    length: float = 1.0

    def __post_init__(self):
        demand = _readonly(np.sort(np.asarray(self.demand, dtype=np.float64).ravel()))
        supply = _readonly(np.sort(np.asarray(self.supply, dtype=np.float64).ravel()))
        length = check_positive("length", self.length)
        for name, coords in (("demand", demand), ("supply", supply)):
            if coords.size and not (coords[0] >= 0.0 and coords[-1] <= length):
                raise ValueError(f"{name} coordinates must be finite and lie in [0, length]")
        if supply.size < demand.size:
            raise ValueError("need at least as many supply points as demand points")
        _store(self, demand=demand, supply=supply, length=length)

    @property
    def m(self) -> int:
        return int(self.demand.size)

    @property
    def n(self) -> int:
        return int(self.supply.size)


@dataclass(frozen=True, eq=False)
class SupplyCurve:
    """Merged event sequence of a 1D instance with running net-supply values.

    ``coords[i]`` is the i-th event position, ``values[i]`` is +1 for a supply
    point and -1 for a demand point, ``prefix[i]`` the running sum of values
    through event i, and ``gaps[i] = coords[i+1] - coords[i]``.
    """

    coords: np.ndarray
    values: np.ndarray
    prefix: np.ndarray
    gaps: np.ndarray

    def __len__(self) -> int:
        return int(self.coords.size)

    @property
    def total_area(self) -> float:
        """Absolute area between the step curve and the axis over all gaps."""
        return float(np.dot(self.gaps, np.abs(self.prefix[:-1])))


def build_supply_curve(inst: Instance1D) -> SupplyCurve:
    """Merge supply (+1) and demand (-1) points into a net supply curve.

    Events are sorted by coordinate; a supply and a demand at the identical
    coordinate are ordered supply-first, which makes the curve deterministic
    (coordinate ties have probability zero under continuous sampling).
    """
    coords = np.concatenate([inst.supply, inst.demand])
    values = np.concatenate(
        [np.ones(inst.n, dtype=np.int64), -np.ones(inst.m, dtype=np.int64)]
    )
    # lexsort is stable: primary key coordinate, secondary key -value puts the
    # +1 supply event ahead of the -1 demand event at equal coordinates.
    order = np.lexsort((-values, coords))
    coords = coords[order]
    values = values[order]
    prefix = np.cumsum(values)
    gaps = np.diff(coords)
    return SupplyCurve(
        coords=_readonly(coords),
        values=_readonly(values),
        prefix=_readonly(prefix),
        gaps=_readonly(gaps),
    )


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Matched pairs with total and mean distance.

    ``pairs`` is a read-only (k, 2) int64 array (an earlier view of an
    array frozen in place still writes to it; see ``_readonly``); row i
    holds the demand and supply index of the i-th pair. A pickled or copied
    result is rebuilt by ``from_pairs``, its total standing for the
    distances, and frozen again.
    """

    pairs: np.ndarray
    total_distance: float
    mean_distance: float

    @classmethod
    def from_pairs(cls, pairs, distances) -> "MatchResult":
        """Result from a k x 2 integer array or an iterable of (demand,
        supply) pairs, and the matched distances. An int64 array it is
        handed that owns its data is frozen in place: marked read-only, not
        copied; a view is copied first."""
        p = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
        if p.shape == (0,):
            p = p.reshape(0, 2)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"pairs must have shape (k, 2), got {p.shape}")
        total = float(np.add.reduce(distances, axis=None))  # np.sum's pairwise sum
        mean = total / len(p) if len(p) else 0.0
        return cls(pairs=_readonly(p), total_distance=total, mean_distance=mean)

    def __reduce__(self):
        return MatchResult.from_pairs, (self.pairs, (self.total_distance,))


@dataclass(frozen=True)
class EdgeParams:
    """Demand density ``mu``, supply density ``lam`` (both per du) on a line of ``length`` du.

    All three are finite positive floats. The counts ``m`` = mu*length and
    ``n`` = lam*length are rounded when built and must be finite, whole and >= 1.
    """

    mu: float
    lam: float
    length: float
    m: int = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("mu", "lam", "length"):
            _store(self, **{name: check_positive(name, getattr(self, name))})
        if self.lam < self.mu:
            raise ValueError("lam must be at least mu")
        m_f = self.mu * self.length
        n_f = self.lam * self.length
        if not (math.isfinite(m_f) and math.isfinite(n_f)):
            raise ValueError(f"mu*length and lam*length must be finite, got {m_f!r} and {n_f!r}")
        m, n = round(m_f), round(n_f)
        if abs(m_f - m) > _COUNT_ROUNDING_TOL or abs(n_f - n) > _COUNT_ROUNDING_TOL:
            raise ValueError("mu*length and lam*length must be integral point counts")
        if m < 1:
            raise ValueError("rounded point counts must be at least 1")
        _store(self, m=m, n=n)
