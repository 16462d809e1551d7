"""Scheme parameters, demand vectors, demand types, and leader sets.

Users are numbered 1..K and files 1..N on every interface.  All enumerations
are lexicographic so downstream reports are reproducible byte for byte, and
all memory/rate values are exact ``fractions.Fraction`` instances.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Demand = tuple[int, ...]


class UsageError(ValueError):
    """Input from outside the program failed a check; the CLI exits 2 on it
    and on nothing else, so a ValueError raised by a bug is not bad input."""


class NotFullyDemandedError(UsageError):
    """An operation required every file to be requested by at least one user."""


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), zero whenever k < 0 or k > n.

    The zero extension covers negative n as well; rate formulas rely on
    vanishing terms such as C(K-1-N, r+1) when K - 1 - N < r + 1.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class SchemeParams:
    """System dimensions: N files, K users, and the partition parameter r."""

    n_files: int
    n_users: int
    r: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_files <= self.n_users:
            raise UsageError(
                f"need 1 <= n_files <= n_users, got N={self.n_files} K={self.n_users}"
            )
        if not 0 <= self.r <= self.n_users - 1:
            raise UsageError(f"need 0 <= r <= K-1, got r={self.r} K={self.n_users}")

    @property
    def users(self) -> range:
        return range(1, self.n_users + 1)

    @property
    def files(self) -> range:
        return range(1, self.n_files + 1)


@dataclass(frozen=True)
class DemandType:
    """Sorted multiplicity profile of a demand: counts[i] users request the i-th file."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if not self.counts or any(c < 0 for c in self.counts):
            raise UsageError(f"counts must be nonempty and nonnegative: {self.counts}")
        if any(a < b for a, b in zip(self.counts, self.counts[1:])):
            raise UsageError(
                f"counts must be nonincreasing: {self.counts}; use DemandType.of()"
            )

    @classmethod
    def of(cls, counts: Iterable[int]) -> "DemandType":
        """Build a type from multiplicities in any order."""
        return cls(tuple(sorted(counts, reverse=True)))

    @property
    def p(self) -> int:
        """Number of files requested by exactly one user."""
        return sum(1 for c in self.counts if c == 1)

    @property
    def fully_demanded(self) -> bool:
        return self.counts[-1] > 0

    def label(self) -> str:
        return ",".join(str(c) for c in self.counts)


DemandClass = Union[str, DemandType, Sequence[int]]


def validate_demand(params: SchemeParams, d: Sequence[int]) -> Demand:
    """Return d as a tuple after checking length and file-index range."""
    demand = tuple(d)
    if len(demand) != params.n_users:
        raise UsageError(f"demand length {len(demand)} != K={params.n_users}")
    for entry in demand:
        if not 1 <= entry <= params.n_files:
            raise UsageError(f"file index {entry} outside 1..{params.n_files}")
    return demand


def requesters(d: Demand, file: int) -> tuple[int, ...]:
    """Users (ascending) that request the given file."""
    return tuple(k for k, want in enumerate(d, start=1) if want == file)


def demand_type(params: SchemeParams, d: Sequence[int]) -> DemandType:
    demand = validate_demand(params, d)
    return DemandType.of(demand.count(f) for f in params.files)


def is_fully_demanded(params: SchemeParams, d: Sequence[int]) -> bool:
    demand = validate_demand(params, d)
    return set(demand) == set(params.files)


def require_fully_demanded(params: SchemeParams, d: Sequence[int]) -> Demand:
    demand = validate_demand(params, d)
    missing = sorted(set(params.files) - set(demand))
    if missing:
        raise NotFullyDemandedError(
            f"demand {demand} leaves file(s) {missing} unrequested"
        )
    return demand


def as_demand_type(params: SchemeParams, value: DemandClass) -> DemandType:
    """Coerce a type-like value and validate it against (N, K).  Callers
    handle the two class names first, so any string here is bad input."""
    if isinstance(value, str):
        raise UsageError(f"demand class must be 'mixed', 'fully_demanded' or a demand type, got {value!r}")
    dtype = value if isinstance(value, DemandType) else DemandType.of(value)
    if len(dtype.counts) != params.n_files:
        raise UsageError(f"type {dtype.counts} has {len(dtype.counts)} entries, need N={params.n_files}")
    if sum(dtype.counts) != params.n_users:
        raise UsageError(f"type {dtype.counts} entries sum to {sum(dtype.counts)}, need K={params.n_users}")
    return dtype


def require_fully_demanded_type(params: SchemeParams, value: DemandClass) -> DemandType:
    """as_demand_type, refusing a type that leaves some file unrequested."""
    dtype = as_demand_type(params, value)
    if not dtype.fully_demanded:
        raise NotFullyDemandedError(f"type {dtype.counts} leaves some file unrequested")
    return dtype


def enumerate_demands(params: SchemeParams, demand_class: DemandClass) -> list[Demand]:
    """All demand vectors of a class in lexicographic order.

    demand_class is "mixed", "fully_demanded", or a demand type (the
    single-type class).  The two restricted classes are walked prefix by
    prefix, extending only prefixes that can still complete into the class,
    so the walk never visits the N^K vectors outside it.
    """
    if demand_class == "mixed":
        return list(itertools.product(params.files, repeat=params.n_users))
    if demand_class == "fully_demanded":
        def viable(counts: list[int], left: int) -> bool:
            return counts.count(0) <= left  # every unrequested file still fits
    else:
        dtype = as_demand_type(params, demand_class)

        def viable(counts: list[int], left: int) -> bool:
            return all(c <= t for c, t in zip(sorted(counts, reverse=True), dtype.counts))

    out = []
    prefix: list[int] = []
    counts = [0] * params.n_files
    f = 1
    while True:
        if f <= params.n_files:
            counts[f - 1] += 1
            prefix.append(f)
            if viable(counts, params.n_users - len(prefix)):
                if len(prefix) < params.n_users:
                    f = 1
                    continue
                out.append(tuple(prefix))
        elif not prefix:
            return out
        # drop the last entry and try the next file in its place
        f = prefix.pop()
        counts[f - 1] -= 1
        f += 1


def covering_count(n_files: int, missing: int, length: int) -> int:
    """Length-`length` vectors over n_files files that request each of
    `missing` given files at least once, by inclusion-exclusion."""
    return sum((-1) ** i * binom(missing, i) * (n_files - i) ** length for i in range(missing + 1))


def count_demands(params: SchemeParams, demand_class: DemandClass) -> int:
    """Cardinality of enumerate_demands() by closed form (no enumeration)."""
    n, k = params.n_files, params.n_users
    if demand_class == "mixed":
        return n**k
    if demand_class == "fully_demanded":
        return covering_count(n, n, k)
    dtype = as_demand_type(params, demand_class)
    per_assignment = math.factorial(k)
    for c in dtype.counts:
        per_assignment //= math.factorial(c)
    assignments = math.factorial(n)
    for repeat in {c: dtype.counts.count(c) for c in dtype.counts}.values():
        assignments //= math.factorial(repeat)
    return per_assignment * assignments


def enumerate_fully_demanded_types(n_files: int, n_users: int) -> list[DemandType]:
    """All demand types with every file requested, largest counts first."""
    SchemeParams(n_files, n_users, 0)  # UsageError unless 1 <= N <= K

    def parts(total: int, slots: int, cap: int):
        if slots == 1:
            if 1 <= total <= cap:
                yield (total,)
            return
        lo = -(-total // slots)  # ceil: keep nonincreasing order feasible
        for first in range(min(cap, total - slots + 1), lo - 1, -1):
            for rest in parts(total - first, slots - 1, first):
                yield (first,) + rest

    return [DemandType(c) for c in parts(n_users, n_files, n_users)]


def leader_sets(params: SchemeParams, d: Sequence[int]) -> dict[int, frozenset[int]]:
    """The leader set of the users other than s, for every user s: each file
    requested outside s, with its lowest-indexed requester outside s.

    One walk of the demand keeps each file's two lowest-indexed requesters.
    Every user but the lowest requester of its own file sees the lowest
    requester of each file; that one sees its second requester, or none.
    """
    demand = require_fully_demanded(params, d)
    lowest: dict[int, list[int]] = {}
    for u, f in enumerate(demand, start=1):
        two = lowest.setdefault(f, [])
        if len(two) < 2:
            two.append(u)
    common = frozenset(two[0] for two in lowest.values())
    return {s: common if lowest[f][0] != s else common.difference([s]).union(lowest[f][1:])
            for s, f in enumerate(demand, start=1)}


# ceiling on the decimal exponent parse_fraction accepts: "1e400" alone
# builds a 401-digit int, and the int grows with the exponent
MAX_DECIMAL_EXPONENT = 100


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer or decimal) into an exact Fraction.
    Raises UsageError, before building its power of ten, for a decimal
    exponent of magnitude past MAX_DECIMAL_EXPONENT."""
    exponent = re.search(r"[eE]([-+]?[\d_]+)\s*$", text)
    try:
        if exponent is None or abs(int(exponent[1])) <= MAX_DECIMAL_EXPONENT:
            return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a fraction: {text!r}") from exc
    raise UsageError(f"decimal exponent of {text!r} is past the ceiling of {MAX_DECIMAL_EXPONENT}")


def format_fraction(value) -> str:
    """Canonical "p/q" rendering (plain "p" when the denominator is 1)."""
    return str(Fraction(value))
