"""Core domain types: 1D instances, supply curves, match results, edge parameters."""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    arr = np.array(arr, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Instance1D:
    """One realized bipartite matching problem on a segment.

    ``demand`` and ``supply`` are coordinate arrays on ``[0, length]``; they
    are sorted ascending at construction and the instance is immutable
    afterwards. The supply side must be at least as large as the demand side.
    """

    demand: np.ndarray
    supply: np.ndarray
    length: float = 1.0

    def __post_init__(self):
        demand = _readonly(np.sort(np.asarray(self.demand, dtype=np.float64).ravel()))
        supply = _readonly(np.sort(np.asarray(self.supply, dtype=np.float64).ravel()))
        length = float(self.length)
        if not length > 0.0:
            raise ValueError("length must be positive")
        for name, arr in (("demand", demand), ("supply", supply)):
            # sorting puts NaN last, and every comparison with NaN is False,
            # so this one test also rejects NaN and infinite coordinates
            if arr.size and not (arr[0] >= 0.0 and arr[-1] <= length):
                raise ValueError(f"{name} coordinates must be finite and lie in [0, length]")
        if supply.size < demand.size:
            raise ValueError("need at least as many supply points as demand points")
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "length", length)

    @property
    def m(self) -> int:
        return int(self.demand.size)

    @property
    def n(self) -> int:
        return int(self.supply.size)

    @property
    def balanced(self) -> bool:
        return self.m == self.n

    def to_json(self) -> str:
        return json.dumps(
            {
                "length": self.length,
                "demand": self.demand.tolist(),
                "supply": self.supply.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Instance1D":
        obj = json.loads(text)
        return cls(obj["demand"], obj["supply"], obj["length"])


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
        if len(self) < 2:
            return 0.0
        return float(np.dot(self.gaps, np.abs(self.prefix[:-1])))

    def absolute_area(self, x: float) -> float:
        """Absolute area accumulated by gaps whose left event lies at or before x."""
        if len(self) < 2:
            return 0.0
        mask = self.coords[:-1] <= x
        return float(np.dot(self.gaps[mask], np.abs(self.prefix[:-1][mask])))


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


@dataclass(frozen=True)
class MatchResult:
    """Matched (demand_index, supply_index) pairs with total and mean distance."""

    pairs: tuple[tuple[int, int], ...]
    total_distance: float
    mean_distance: float

    @classmethod
    def from_pairs(cls, pairs, distances) -> "MatchResult":
        pairs = tuple((int(i), int(j)) for i, j in pairs)
        total = float(np.sum(distances))
        mean = total / len(pairs) if pairs else 0.0
        return cls(pairs=pairs, total_distance=total, mean_distance=mean)


@dataclass(frozen=True)
class EdgeParams:
    """Demand density ``mu``, supply density ``lam`` (both per du) on a line of ``length`` du."""

    mu: float
    lam: float
    length: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")
        if self.lam < self.mu:
            raise ValueError("lam must be at least mu")
        if not self.length > 0.0:
            raise ValueError("length must be positive")

    def counts(self) -> tuple[int, int]:
        """Point counts (m, n) = (mu*length, lam*length); both must be whole
        numbers of at least 1."""
        m_f = self.mu * self.length
        n_f = self.lam * self.length
        m, n = round(m_f), round(n_f)
        if abs(m_f - m) > _COUNT_ROUNDING_TOL or abs(n_f - n) > _COUNT_ROUNDING_TOL:
            raise ValueError("mu*length and lam*length must be integral point counts")
        if m < 1:
            raise ValueError("rounded point counts must be at least 1")
        return m, n
