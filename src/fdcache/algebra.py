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
from functools import cached_property, lru_cache
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
    the subset two in ascending order, and Q follows I.  offsets keys each
    (r-subset, excluded user) pair in that order, the one enumeration of
    segment pairs, and the same walk builds inside and excluded: per user,
    the pairs of file 1 whose subset holds it and those that exclude it.
    Every cache mask and the transformed-sum family of scheme are ANDs of
    them, kept to i_bits where one channel is meant and moved to other files
    by a shift or by in_every_file.
    """

    def __init__(self, params: SchemeParams):
        self.params = params
        width = 2 * (params.n_users - params.r)
        self.per_file = width * binom(params.n_users, params.r)
        self.size = params.n_files * self.per_file
        self.i_bits = ((1 << self.per_file) - 1) // 3  # the I bit of every pair of file 1: 0b0101...01
        self._file_starts = ((1 << self.size) - 1) // ((1 << self.per_file) - 1)  # bit (f - 1) * per_file per file
        # (r-subset, excluded user) -> I position within a file: the one enumeration of segment pairs
        self.offsets: dict[tuple[tuple[int, ...], int], int] = {}
        # inside[u-1] and excluded[u-1] mask the pairs (r_set, s) of file 1 with u in r_set and with
        # s == u, both bits of each pair
        inside, excluded = [0] * params.n_users, [0] * params.n_users
        for rank, r_set in enumerate(itertools.combinations(params.users, params.r)):
            outside = (s for s in params.users if s not in r_set)
            for place, s in enumerate(outside):
                offset = self.offsets[(r_set, s)] = rank * width + 2 * place
                excluded[s - 1] |= 3 << offset
                for u in r_set:
                    inside[u - 1] |= 3 << offset
        self.inside, self.excluded = tuple(inside), tuple(excluded)

    def slot(self, file: int, r_set: tuple[int, ...], excluded: int) -> int:
        """Position of W^I[file; r_set; excluded]; W^Q sits at the next one."""
        return (file - 1) * self.per_file + self.offsets[(r_set, excluded)]

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
            for r_set, s in self.offsets
            for channel in CHANNELS
        )

    @cached_property
    def units(self) -> tuple[int, ...]:
        """The unit mask 1 << i of every position i."""
        return tuple(1 << i for i in range(self.size))

    def in_every_file(self, mask: int) -> int:
        """A file-1 mask placed in every file: the product with one bit per
        file start copies it per_file apart, and the copies never carry."""
        return mask * self._file_starts


# ceiling on the segments of one system: the unit masks alone take about
# size**2 / 16 bytes, 16 MiB here, and every mask of the scheme is size bits wide
MAX_SEGMENTS = 2**14
# ceiling on broadcast symbols x segments: each of the K C(K-1, r+1) symbols
# is a pair of masks as wide as the index, so one delivery's time and memory
# grow with the product ((2,400,0), at 2.6e8, builds and verifies its first
# demand in about 4 s and 270 MiB)
MAX_SYMBOL_SEGMENTS = 2**28
# ceiling on segments x users x (r+1), which per-system set-up grows with:
# every user's decoding equations and row-parity closures take about r steps
# per segment pair, so near r = K-1 set-up grows like N K^3 while the segments
# grow like N K ((1,25,22), at 7.9e6, builds and verifies its first demand in
# about 3-4 s, the slowest system inside the three ceilings).  The oracle keeps
# one pre-eliminated cache basis per user for the process (harness._cache_spans),
# up to about K size^2 / 8 bytes: one symbolic verify with the oracle peaks at
# 505 MiB RSS at (16,23,21) and 420 MiB at (1,25,22), bounded by these ceilings
MAX_SETUP_STEPS = 2**23


@lru_cache(maxsize=None)
def segment_index(params: SchemeParams) -> SegmentIndex:
    """The dense index of one system, built once per parameters.  Raises
    UsageError, before building anything, for a system of more than
    MAX_SEGMENTS segments, more than MAX_SYMBOL_SEGMENTS broadcast symbols
    times segments, or more than MAX_SETUP_STEPS set-up steps."""
    system = f"(N, K, r) = ({params.n_files}, {params.n_users}, {params.r})"
    # size = 2NK C(K-1, r) >= 2NK: refused on that bound first, the binomials
    # below are only taken with K <= MAX_SEGMENTS / 2, so every size prints
    low = 2 * params.n_files * params.n_users
    if low > MAX_SEGMENTS:
        raise UsageError(f"{system} has at least {low} segments, more than the ceiling of {MAX_SEGMENTS}")
    size = params.n_files * 2 * (params.n_users - params.r) * binom(params.n_users, params.r)
    if size > MAX_SEGMENTS:
        raise UsageError(f"{system} has {size} segments, more than the ceiling of {MAX_SEGMENTS}")
    symbols = params.n_users * binom(params.n_users - 1, params.r + 1)
    if symbols * size > MAX_SYMBOL_SEGMENTS:
        raise UsageError(
            f"{system} has {symbols} broadcast symbols over {size} segments,"
            f" more than the ceiling of {MAX_SYMBOL_SEGMENTS} symbols x segments"
        )
    steps = size * params.n_users * (params.r + 1)
    if steps > MAX_SETUP_STEPS:
        raise UsageError(
            f"{system} needs {steps} set-up steps (segments x users x (r+1)),"
            f" more than the ceiling of {MAX_SETUP_STEPS}"
        )
    return SegmentIndex(params)


class MaskValues:
    """Payload value of each mask over a segment index: the XOR of the
    segment values on its bits, as the server encodes it.  Nothing is kept
    per mask: lift reads each transmitted mask once per demand, in the pass
    of the user the symbol excludes."""

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
        """The XOR of the values on mask's bits, started from the value of
        its lowest bit, so no value is copied into a 0; 0 for the empty mask."""
        if not mask:
            return 0
        values = self.segment_values
        low = mask & -mask
        acc, rest = values[low.bit_length() - 1], mask ^ low
        while rest:  # bit_positions, inlined: this runs once per transmitted mask and demand
            low = rest & -rest
            acc ^= values[low.bit_length() - 1]
            rest ^= low
        return acc


def _eliminate(pivots: list[int], rows: Iterable[int]) -> int:
    """Reduce each row against pivots, a list indexed by bit_length, and keep
    what is left as the pivot of its lead; the number of pivots added."""
    added = 0
    for row in rows:
        while pivot := pivots[row.bit_length()]:  # a 0 row stops at slot 0, which stays 0
            row ^= pivot
        if row:
            pivots[row.bit_length()] = row
            added += 1
    return added


def _block_spanned(pivots: list[int], lo: int, hi: int) -> bool:
    """True iff the span of pivots, a list indexed by bit_length, holds every
    unit row e_i with lo <= i < hi (see SpanBasis); it stops at the first
    position that fails."""
    below = (1 << lo) - 1
    for pivot in pivots[lo + 1 : hi + 1]:
        if not pivot:
            return False
        part = pivot & below
        while part:  # the reduction of residual, inlined: it runs per block position and user
            low_pivot = pivots[part.bit_length()]
            if not low_pivot:
                return False
            part ^= low_pivot
    return True


class SpanBasis:
    """Row space over GF(2) of int-mask rows below bit width, built
    incrementally.

    pivots[n] is the inserted row of bit_length n, which leads at bit n - 1,
    or 0 when no pivot leads there; slot 0 stays 0, so a row's bit_length
    indexes its pivot and a 0 row finds none.  rank counts the pivots.
    join_covers(rows, lo, hi), the oracle's kernel, tests whether the join
    with rows spans the unit rows of the block [lo, hi), on a copy of the
    pivot list; with no rows it tests the basis itself.

    The block test reads the unit rows off the pivots.  Pivots have
    distinct leads, so a combination of them leads where its highest pivot
    does: the part of the span below bit hi is spanned by the pivots that
    lead below hi, and likewise below lo.  Every e_i with lo <= i < hi is
    then in the span iff every such i leads a pivot and the part below lo of
    each of those pivots lies in the span.  Only if: e_i leads at i, and a
    pivot leading in the block minus its block bits is a vector of the span
    below lo.  If: going up from lo, the pivot leading at i minus its part
    below lo is e_i plus block bits below i, which are in the span already.
    """

    __slots__ = ("pivots", "rank")

    def __init__(self, width: int):
        self.pivots = [0] * (width + 1)
        self.rank = 0

    def copy(self) -> "SpanBasis":
        """An independent basis with the same pivots.  The oracle copies only
        pivot lists, in join_covers; this stays for the tests' cache-first
        reference, which joins by insert_rows on a copied basis."""
        clone = SpanBasis.__new__(SpanBasis)
        clone.pivots, clone.rank = self.pivots.copy(), self.rank
        return clone

    def residual(self, row: int) -> int:
        pivots = self.pivots
        while pivot := pivots[row.bit_length()]:
            row ^= pivot
        return row

    def insert_row(self, row: int) -> bool:
        """Insert one row by its residual: the reference the tests hold the
        shared elimination loop to."""
        row = self.residual(row)
        if row:
            self.pivots[row.bit_length()] = row
            self.rank += 1
        return bool(row)

    def insert_rows(self, rows: Iterable[int]) -> None:
        """insert_row of each row in turn, in one elimination loop."""
        self.rank += _eliminate(self.pivots, rows)

    def spans(self, rows: Iterable[int]) -> bool:
        """True iff every row lies in the span: each residual is 0."""
        return not any(map(self.residual, rows))

    def join_covers(self, rows: Iterable[int], lo: int, hi: int) -> bool:
        """True iff this basis with rows inserted spans every unit row e_i
        with lo <= i < hi: spans(1 << i for i in range(lo, hi)) of the join,
        read off a copy of the pivot list, so the basis itself is unchanged."""
        pivots = self.pivots.copy()
        _eliminate(pivots, rows)
        return _block_spanned(pivots, lo, hi)
