"""Segment ids, their dense index, payloads, and a rank oracle.

SegmentIndex gives each segment of a system a dense position, so a GF(2)
vector over the file-segment basis is an int mask with bit i set for the
segment at position i.  Every cached parity, broadcast symbol, and
transformed segment in the scheme is such a mask, and XOR of masks is the
vector sum.  SpanBasis implements incremental Gaussian elimination on int
masks and backs the decodability oracle, which shares only the segment index
with the decoder.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import xor
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import SchemeParams, UsageError, binom

CHANNELS = ("I", "Q")


class SegmentId(NamedTuple):
    """One file segment: file index, cached-by subset, excluded user, channel."""

    file: int
    users: tuple[int, ...]
    excluded: int
    channel: str

    def label(self) -> str:
        inside = ",".join(str(u) for u in self.users)
        return f"W^{self.channel}[{self.file};{{{inside}}};{self.excluded}]"


def segment(file: int, users: Iterable[int], excluded: int, channel: str) -> SegmentId:
    """Canonical SegmentId: sorted subset, excluded user outside it."""
    subset = tuple(sorted(users))
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate users in {subset}")
    if excluded in subset:
        raise ValueError(f"excluded user {excluded} inside subset {subset}")
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")
    return SegmentId(file, subset, excluded, channel)


def _random_values(count: int, width: int, seed: str, units: Sequence[int] | None = None) -> list[int]:
    """count seeded segment values of width bytes each, drawn as ints: one
    getrandbits(8 * width) apiece from random.Random(f"payload:{seed}").
    Value v is the bytes v.to_bytes(width, "little"), which is what
    Random.randbytes(width) draws from the same stream.  Given units, value
    i is lifted above units[i] as it is drawn: v << count | units[i]."""
    if width < 1:
        raise ValueError("width must be >= 1")
    bits = 8 * width
    getrandbits = random.Random(f"payload:{seed}").getrandbits
    if units is None:
        return [getrandbits(bits) for _ in range(count)]
    return [getrandbits(bits) << count | unit for unit in units]


@dataclass
class Payload:
    """Concrete byte values for every segment, all of a common width."""

    width: int
    data: dict[SegmentId, bytes]

    @classmethod
    def random(cls, segments: Iterable[SegmentId], width: int = 1, seed: str = "0") -> "Payload":
        ordered = sorted(set(segments))  # fixes the draw order: index order on a full system
        values = _random_values(len(ordered), width, seed)
        return cls(width=width, data={seg: v.to_bytes(width, "little") for seg, v in zip(ordered, values)})

    def int_values(self) -> dict[SegmentId, int]:
        """Each segment's bytes read as a little-endian int, as MaskValues.random draws them."""
        return {seg: int.from_bytes(raw, "little") for seg, raw in self.data.items()}


def bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SegmentIndex:
    """Dense position of every segment of one system, in partition order.

    Positions are a mixed radix over (file, r-subset, excluded user,
    channel): each file owns per_file consecutive positions, each r-subset
    2(K-r) of them in lexicographic subset order, each excluded user outside
    the subset two in ascending order, and Q follows I.
    """

    def __init__(self, params: SchemeParams):
        self.params = params
        width = 2 * (params.n_users - params.r)
        self.per_file = width * binom(params.n_users, params.r)
        self.size = params.n_files * self.per_file
        # (r-subset, excluded user) -> position of the I segment within a file
        self._offsets: dict[tuple[tuple[int, ...], int], int] = {}
        for rank, r_set in enumerate(itertools.combinations(params.users, params.r)):
            outside = (s for s in params.users if s not in r_set)
            for place, s in enumerate(outside):
                self._offsets[(r_set, s)] = rank * width + 2 * place

    def slot(self, file: int, r_set: tuple[int, ...], excluded: int) -> int:
        """Position of W^I[file; r_set; excluded]; W^Q sits at the next one."""
        return (file - 1) * self.per_file + self._offsets[(r_set, excluded)]

    def __getitem__(self, seg: SegmentId) -> int:
        if not 1 <= seg.file <= self.params.n_files or seg.channel not in CHANNELS:
            raise KeyError(f"no position for segment {seg.label()}")
        return self.slot(seg.file, seg.users, seg.excluded) + CHANNELS.index(seg.channel)

    @cached_property
    def segments(self) -> tuple[SegmentId, ...]:
        """The segment at each position."""
        return tuple(
            SegmentId(file, r_set, s, channel)
            for file in self.params.files
            for r_set, s in self._offsets
            for channel in CHANNELS
        )

    @cached_property
    def units(self) -> tuple[int, ...]:
        """The unit mask 1 << i of every position i."""
        return tuple(1 << i for i in range(self.size))


# ceiling on the segments of one system: the unit masks alone take about
# size**2 / 16 bytes, 16 MiB here, and every mask of the scheme is size bits wide
MAX_SEGMENTS = 2**14
# ceiling on broadcast symbols x segments: each of the K C(K-1, r+1) symbols
# is a pair of masks as wide as the index, so one delivery's time and memory
# grow with the product ((2,400,0), at 2.6e8, takes about 20 s and 150 MiB)
MAX_SYMBOL_SEGMENTS = 2**28


@lru_cache(maxsize=None)
def segment_index(params: SchemeParams) -> SegmentIndex:
    """The dense index of one system, built once per parameters.  Raises
    UsageError, before building anything, for a system of more than
    MAX_SEGMENTS segments or more than MAX_SYMBOL_SEGMENTS broadcast symbols
    times segments."""
    system = f"(N, K, r) = ({params.n_files}, {params.n_users}, {params.r})"
    size = params.n_files * 2 * (params.n_users - params.r) * binom(params.n_users, params.r)
    if size > MAX_SEGMENTS:
        raise UsageError(f"{system} has {size} segments, more than the ceiling of {MAX_SEGMENTS}")
    symbols = params.n_users * binom(params.n_users - 1, params.r + 1)
    if symbols * size > MAX_SYMBOL_SEGMENTS:
        raise UsageError(
            f"{system} has {symbols} broadcast symbols over {size} segments,"
            f" more than the ceiling of {MAX_SYMBOL_SEGMENTS} symbols x segments"
        )
    return SegmentIndex(params)


class MaskValues:
    """Payload value of each mask over a segment index: the XOR of the
    segment values on its bits, as the server encodes it.  Nothing is kept
    per mask: lift reads each transmitted mask once per demand.  xor_at
    gives the value of a mask from its support, the positions of its bits."""

    def __init__(self, segment_values: Sequence[int]):
        self.segment_values = segment_values

    @classmethod
    def random(cls, index: SegmentIndex, width: int, seed: str, masks: bool = False) -> "MaskValues":
        """Seeded values of width bytes for every segment, drawn in index
        order, which is sorted segment order: segment i holds the bytes
        Payload.random(index.segments, width, seed) gives it, read as a
        little-endian int.  With masks, segment i holds that value lifted
        above its unit mask, value << index.size | 1 << i; XOR never carries
        across bits, so every item's int then holds its mask in the low
        index.size bits and its value above them.  Each value is lifted as
        it is drawn, so the payload is never held twice."""
        return cls(_random_values(index.size, width, seed, index.units if masks else None))

    def __getitem__(self, mask: int) -> int:
        values = self.segment_values
        acc, rest = 0, mask
        while rest:  # bit_positions, inlined: this runs once per transmitted mask and demand
            low = rest & -rest
            acc ^= values[low.bit_length() - 1]
            rest ^= low
        return acc

    def xor_at(self, support: Sequence[int]) -> int:
        """XOR of the segment values at the positions in support, the value
        of the mask with those bits: one reduce at C speed, with no 0-seeded
        copy of the first value; 0 for an empty support."""
        return reduce(xor, map(self.segment_values.__getitem__, support)) if support else 0


class SpanBasis:
    """Row space over GF(2) built incrementally from int-mask rows.

    Rows are reduced against pivots keyed by leading bit; copy() is cheap so a
    precomputed basis can be extended per query without re-elimination.
    """

    __slots__ = ("pivots",)

    def __init__(self, pivots: dict[int, int] | None = None):
        self.pivots: dict[int, int] = {} if pivots is None else pivots

    def copy(self) -> "SpanBasis":
        return SpanBasis(dict(self.pivots))

    def residual(self, row: int) -> int:
        pivots = self.pivots
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                return row
            row ^= pivot
        return 0

    def insert_row(self, row: int) -> bool:
        row = self.residual(row)
        if row:
            self.pivots[row.bit_length() - 1] = row
            return True
        return False

    def insert_rows(self, rows: Iterable[int]) -> None:
        """insert_row of each row in turn, in one elimination loop."""
        pivots = self.pivots
        for row in rows:
            while row:
                lead = row.bit_length() - 1
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = row
                    break
                row ^= pivot

    def spans(self, rows: Iterable[int]) -> bool:
        """True iff every row lies in the span: each residual is 0."""
        pivots = self.pivots
        for row in rows:
            while row:
                pivot = pivots.get(row.bit_length() - 1)
                if pivot is None:
                    return False
                row ^= pivot
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)
