"""Closed-form memory-rate tradeoffs and the 3-file/3-user bound regions.

Everything here is exact rational arithmetic; floats appear only when callers
render decimal convenience columns.  Region data for the (3,3) system is
embedded as literal constants and checked, not derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import (
    DemandType,
    SchemeParams,
    UsageError,
    binom,
    require_fully_demanded_type,
)


# ceiling on K of one tradeoff curve: its K rows take time superlinear in K
# (the worst case at N = 3 takes about 0.1 s at K = 1000 and 1.5 s at K = 3000
# on a 2-core VM)
MAX_TRADEOFF_USERS = 1000


@dataclass(frozen=True, order=True)
class RatePoint:
    """Normalized (memory, broadcast rate) pair, in units of files."""

    memory: Fraction
    rate: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "memory", Fraction(self.memory))
        object.__setattr__(self, "rate", Fraction(self.rate))
        if self.memory < 0 or self.rate < 0:
            raise UsageError(f"negative coordinate in ({self.memory}, {self.rate})")


@dataclass(frozen=True)
class Halfspace:
    """Constraint a*M + b*R >= c on the tradeoff plane."""

    m_coef: Fraction
    r_coef: Fraction
    bound: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "m_coef", Fraction(self.m_coef))
        object.__setattr__(self, "r_coef", Fraction(self.r_coef))
        object.__setattr__(self, "bound", Fraction(self.bound))
        if self.m_coef == 0 and self.r_coef == 0:
            raise ValueError("degenerate halfspace")

    def value(self, point: RatePoint) -> Fraction:
        return self.m_coef * point.memory + self.r_coef * point.rate

    def satisfied(self, point: RatePoint) -> bool:
        return self.value(point) >= self.bound

    def label(self) -> str:
        def term(coef: Fraction, symbol: str) -> str:
            return symbol if coef == 1 else f"{coef}{symbol}"

        return f"{term(self.m_coef, 'M')}+{term(self.r_coef, 'R')}>={self.bound}"


@dataclass(frozen=True)
class RegionData33:
    """Outer facets and inner corner points for one (3,3) demand setting."""

    outer_facets: tuple[Halfspace, ...]
    inner_corners: tuple[RatePoint, ...]


_REGIONS_33 = {
    "mixed": RegionData33(
        outer_facets=(
            Halfspace(3, 1, 3),
            Halfspace(6, 3, 8),
            Halfspace(1, 1, 2),
            Halfspace(2, 3, 5),
            Halfspace(1, 3, 3),
        ),
        inner_corners=(
            RatePoint(0, 3),
            RatePoint(Fraction(1, 3), 2),
            RatePoint(Fraction(1, 2), Fraction(5, 3)),
            RatePoint(Fraction(3, 5), Fraction(3, 2)),
            RatePoint(1, 1),
            RatePoint(2, Fraction(1, 3)),
            RatePoint(3, 0),
        ),
    ),
    "300": RegionData33(
        outer_facets=(Halfspace(1, 3, 3),),
        inner_corners=(RatePoint(0, 1), RatePoint(3, 0)),
    ),
    "210": RegionData33(
        outer_facets=(Halfspace(1, 1, 2), Halfspace(2, 3, 5), Halfspace(1, 3, 3)),
        inner_corners=(RatePoint(0, 2), RatePoint(1, 1), RatePoint(2, Fraction(1, 3)), RatePoint(3, 0)),
    ),
    "111": RegionData33(
        outer_facets=(
            Halfspace(3, 1, 3),
            Halfspace(6, 3, 8),
            Halfspace(1, 1, 2),
            Halfspace(12, 18, 29),
            Halfspace(3, 6, 8),
            Halfspace(1, 3, 3),
        ),
        inner_corners=(
            RatePoint(0, 3),
            RatePoint(Fraction(1, 3), 2),
            RatePoint(Fraction(1, 2), Fraction(5, 3)),
            RatePoint(Fraction(3, 5), Fraction(3, 2)),
            RatePoint(1, 1),
            RatePoint(Fraction(5, 3), Fraction(1, 2)),
            RatePoint(2, Fraction(1, 3)),
            RatePoint(3, 0),
        ),
    ),
}

REGION_SETTINGS = tuple(_REGIONS_33)


def region_33(setting: str) -> RegionData33:
    """Stored (3,3) bound region of one `bounds --setting` name (REGION_SETTINGS)."""
    try:
        return _REGIONS_33[setting]
    except KeyError:
        raise UsageError(f"unknown setting {setting!r}, expected one of {REGION_SETTINGS}") from None


# ---------------------------------------------------------------------------
# achievable operating points


def saving_factor(params: SchemeParams, dtype) -> Fraction:
    """Rate saving of a fully demanded type, set by its count p of singly-requested
    files, from skipped delivery symbols: those avoiding all leaders are never sent."""
    return _saving(params, require_fully_demanded_type(params, dtype).p)


def _saving(params: SchemeParams, ones: int) -> Fraction:
    n, k, r = params.n_files, params.n_users, params.r
    numerator = (k - ones) * binom(k - 1 - n, r + 1) + ones * binom(k - n, r + 1)
    return Fraction(numerator, k * binom(k - 1, r))


def memory_point(params: SchemeParams) -> Fraction:
    """Normalized cache size of the construction: r(N-1)/(K-1) + (r+1)/K."""
    n, k, r = params.n_files, params.n_users, params.r
    first = Fraction(r * (n - 1), k - 1) if k > 1 else Fraction(0)  # K=1 forces r=0
    return first + Fraction(r + 1, k)


def base_rate(params: SchemeParams) -> Fraction:
    """Rate before skipping: (K-1-r)/(r+1)."""
    return Fraction(params.n_users - 1 - params.r, params.r + 1)


def type_operating_point(params: SchemeParams, dtype) -> RatePoint:
    """Achievable (M, R) of the construction for one fully demanded type."""
    saving = saving_factor(params, dtype)
    return RatePoint(memory_point(params), base_rate(params) - saving)


def rates_by_ones(params: SchemeParams) -> tuple[Fraction, ...]:
    """Entry p is the rate of type_operating_point for every fully demanded
    type with p singly-requested files, the only part of a type the rate
    reads; entries for a p that no type of (N, K) has are unused."""
    return tuple(base_rate(params) - _saving(params, ones) for ones in range(params.n_files + 1))


def worst_case_ones_count(n_files: int, n_users: int) -> int:
    """Fewest singly-requested files over fully demanded types: max(2N-K, 0)."""
    return max(2 * n_files - n_users, 0)


def worst_case_type(n_files: int, n_users: int) -> DemandType:
    """A witness type attaining the worst-case ones count: its p is
    worst_case_ones_count.  Raises UsageError unless 1 <= N <= K."""
    SchemeParams(n_files, n_users, 0)
    ones = worst_case_ones_count(n_files, n_users)
    counts = [1] * ones + [2] * (n_files - ones)
    counts[-1] += n_users - sum(counts)
    return DemandType.of(counts)


def worst_case_operating_point(params: SchemeParams) -> RatePoint:
    """Achievable (M, R) valid for every fully demanded demand type."""
    return type_operating_point(params, worst_case_type(params.n_files, params.n_users))


def fallback_extra_rate_bound(params: SchemeParams) -> Fraction:
    """Extra rate that always suffices when some file goes unrequested: K/(r+1)
    minus the worst-case saving, which is R_worst + 1 as K/(r+1) = (K-1-r)/(r+1) + 1."""
    return worst_case_operating_point(params).rate + 1


@dataclass(frozen=True)
class TradeoffRow:
    """One emitted curve row; r is None for the trivial zero-memory endpoint."""

    r: int | None
    point: RatePoint
    saving: Fraction | None


def check_curve_system(n_files: int, n_users: int) -> None:
    """Raise UsageError unless 1 <= N <= K and K is at most MAX_TRADEOFF_USERS."""
    SchemeParams(n_files, n_users, 0)
    if n_users > MAX_TRADEOFF_USERS:
        raise UsageError(f"K={n_users} users exceed the tradeoff ceiling of {MAX_TRADEOFF_USERS}")


def tradeoff_curve(n_files: int, n_users: int, dtype, hull: bool = False) -> list[TradeoffRow]:
    """One type's rows (the worst case: worst_case_type(N, K)) for r = 0..K-1
    plus the (0, N) endpoint, sorted by memory; (N, K) is checked first."""
    check_curve_system(n_files, n_users)
    rows = [TradeoffRow(None, RatePoint(Fraction(0), Fraction(n_files)), None)]
    for r in range(n_users):
        params = SchemeParams(n_files, n_users, r)
        saving = saving_factor(params, dtype)
        rows.append(TradeoffRow(r, RatePoint(memory_point(params), base_rate(params) - saving), saving))
    rows.sort(key=lambda row: (row.point.memory, row.point.rate))
    if hull:
        keep = set(lower_convex_hull(row.point for row in rows))
        rows = [row for row in rows if row.point in keep]
    return rows


# ---------------------------------------------------------------------------
# hull and point classification


def lower_convex_hull(points: Iterable[RatePoint]) -> list[RatePoint]:
    """Vertices of the lower convex envelope, sorted by increasing memory.

    Exact-rational monotone chain; at equal memory only the lowest rate
    survives, and collinear interior points are dropped.
    """
    unique = sorted({(p.memory, p.rate) for p in points})
    if not unique:
        raise ValueError("need at least one point")
    filtered = []
    for m, r in unique:
        if filtered and filtered[-1][0] == m:
            continue  # sorted order puts the lowest rate first for each memory
        filtered.append((m, r))
    hull: list[tuple[Fraction, Fraction]] = []
    for point in filtered:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            x3, y3 = point
            if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(point)
    return [RatePoint(m, r) for m, r in hull]


@dataclass(frozen=True)
class FacetCheck:
    facet: Halfspace
    value: Fraction
    satisfied: bool


@dataclass(frozen=True)
class PointCheck:
    point: RatePoint
    facets: tuple[FacetCheck, ...]

    @property
    def satisfied(self) -> bool:
        return all(check.satisfied for check in self.facets)

    @property
    def violated(self) -> tuple[FacetCheck, ...]:
        return tuple(check for check in self.facets if not check.satisfied)


def check_point(point: RatePoint, region: RegionData33) -> PointCheck:
    """Exact per-facet evaluation of a point against a stored region."""
    facets = tuple(
        FacetCheck(facet=f, value=f.value(point), satisfied=f.satisfied(point))
        for f in region.outer_facets
    )
    return PointCheck(point=point, facets=facets)
