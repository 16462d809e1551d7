"""Cache-aided broadcast construction for fully demanded systems.

Pipeline, per (N, K, r) system:

1. partition     - each file splits into 2(K-r)C(K,r) segments indexed by an
                   r-subset of users, an excluded user, and an I/Q channel.
2. prefetch      - user k caches an uncoded slice plus product-code parities
                   (column parities across files, a pruned set of row parities
                   along each file).  The pruned row parities are linearly
                   dependent on stored ones and recoverable via the closure.
3. transform     - once demands are known, (I, Q) pairs are mixed by 2x2
                   GF(2) matrices chosen per (requesting user, excluded user)
                   so that even-multiplicity files still cancel in sums.
4. delivery      - broadcast symbols XOR transformed segments over (r+1)-user
                   subsets; symbols whose subset avoids every per-file leader
                   are linearly dependent on the rest and are skipped.
5. decode        - each user recovers its file from the cache (uncoded hits),
                   by per-symbol elimination (s != k), or by aligning parities
                   against broadcast sums (s == k), then inverts the transform.

Delivery and decoding work on int masks over the dense segment index
(algebra.SegmentIndex).  Decoding compiles once per (demand, user) into a
plan that lists, for each segment of the user's file, the held items whose
XOR is its I and its Q value.  The symbolic check evaluates the plan on the
items' masks and compares with the segment's unit mask; the byte-level check
evaluates the same plan on payload values.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Mapping, NamedTuple, Sequence

from .algebra import (
    CHANNELS,
    MaskValues,
    Payload,
    SegmentId,
    SegmentIndex,
    SymbolVec,
    segment,
    segment_index,
)
from .core import (
    Demand,
    LeaderInfo,
    SchemeParams,
    binom,
    leaders,
    require_fully_demanded,
    requesters,
)

Matrix = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Matrix = ((1, 0), (0, 1))
MIX: Matrix = ((1, 1), (1, 0))  # (I, Q) -> (I^Q, I)
MIX_INV: Matrix = ((0, 1), (1, 1))  # (I, Q) -> (Q, I^Q); inverse of MIX

ColumnKey = tuple[tuple[int, ...], str]  # (r_subset, channel)
RowKey = tuple[int, tuple[int, ...], str]  # (file, subset of size r-1, channel)
DeliveryKey = tuple[int, tuple[int, ...], str]  # (excluded user, (r+1)-subset, channel)


# ---------------------------------------------------------------------------
# partition


def file_segments(params: SchemeParams, file: int) -> list[SegmentId]:
    """All 2(K-r)C(K,r) segments of one file, in canonical (sorted) order."""
    out = []
    for r_set in itertools.combinations(params.users, params.r):
        for s in params.users:
            if s in r_set:
                continue
            for channel in CHANNELS:
                out.append(segment(file, r_set, s, channel))
    return out


def partition(params: SchemeParams) -> list[SegmentId]:
    """The full segment basis over all files, canonical order."""
    out = []
    for file in params.files:
        out.extend(file_segments(params, file))
    return out


# ---------------------------------------------------------------------------
# prefetching


def anchor_user(k: int) -> int:
    """Peer whose subsets are omitted from user k's stored row parities.

    Row parities over subsets containing this peer are recoverable from the
    stored ones (see parity_combination), so they are never cached.
    """
    return 2 if k == 1 else 1


def column_parity_vec(params: SchemeParams, k: int, r_set: tuple[int, ...], channel: str) -> SymbolVec:
    """XOR over all files of the segments tagged (r_set, excluded=k)."""
    return SymbolVec(frozenset(segment(f, r_set, k, channel) for f in params.files))


def row_parity_vec(params: SchemeParams, k: int, file: int, r_minus: tuple[int, ...], channel: str) -> SymbolVec:
    """XOR over completions u of the file's segments tagged ({u} | r_minus, k)."""
    blocked = set(r_minus) | {k}
    return SymbolVec(
        frozenset(
            segment(file, tuple(sorted(r_minus + (u,))), k, channel)
            for u in params.users
            if u not in blocked
        )
    )


class CacheMasks(NamedTuple):
    """A cache over the dense segment index: what the decoder reads."""

    uncoded: frozenset[int]  # positions
    column: dict[tuple[int, ...], tuple[int, int]]  # r_set -> (I mask, Q mask)
    row: dict[tuple[int, tuple[int, ...]], tuple[int, int]]  # (file, r_minus) -> (I mask, Q mask)


@dataclass(frozen=True)
class CacheContent:
    """Everything user `owner` prefetches: uncoded segments plus parities."""

    params: SchemeParams
    owner: int
    uncoded: frozenset[SegmentId]
    column_parities: dict[ColumnKey, SymbolVec]
    row_parities: dict[RowKey, SymbolVec]

    @property
    def m1(self) -> int:
        return len(self.uncoded)

    @property
    def m2(self) -> int:
        return len(self.column_parities)

    @property
    def m3(self) -> int:
        return len(self.row_parities)

    @property
    def size(self) -> int:
        return self.m1 + self.m2 + self.m3

    def memory(self) -> Fraction:
        """Cache size normalized by the per-file segment count."""
        p = self.params
        return Fraction(self.size, 2 * p.n_users * binom(p.n_users - 1, p.r))

    @cached_property
    def masks(self) -> CacheMasks:
        index = segment_index(self.params)
        columns, rows = self.column_parities, self.row_parities
        return CacheMasks(
            uncoded=frozenset(index[seg] for seg in self.uncoded),
            column={
                r_set: (index.mask(columns[(r_set, "I")]), index.mask(columns[(r_set, "Q")]))
                for r_set, channel in columns
                if channel == "I"
            },
            row={
                (f, r_minus): (index.mask(rows[(f, r_minus, "I")]), index.mask(rows[(f, r_minus, "Q")]))
                for f, r_minus, channel in rows
                if channel == "I"
            },
        )


def prefetch(params: SchemeParams, k: int) -> CacheContent:
    """Build user k's cache: uncoded slice, column parities, pruned row parities."""
    if k not in params.users:
        raise ValueError(f"user {k} outside 1..{params.n_users}")
    uncoded = set()
    for f in params.files:
        for r_set in itertools.combinations(params.users, params.r):
            if k not in r_set:
                continue
            for s in params.users:
                if s in r_set:
                    continue
                for channel in CHANNELS:
                    uncoded.add(segment(f, r_set, s, channel))

    column_parities: dict[ColumnKey, SymbolVec] = {}
    for r_set in itertools.combinations(params.users, params.r):
        if k in r_set:
            continue
        for channel in CHANNELS:
            column_parities[(r_set, channel)] = column_parity_vec(params, k, r_set, channel)

    # only files >= 2 and subsets avoiding the anchor peer are stored
    row_parities: dict[RowKey, SymbolVec] = {}
    if params.r >= 1:
        others = [u for u in params.users if u not in (k, anchor_user(k))]
        for f in params.files:
            if f == 1:
                continue
            for r_minus in itertools.combinations(others, params.r - 1):
                for channel in CHANNELS:
                    row_parities[(f, r_minus, channel)] = row_parity_vec(params, k, f, r_minus, channel)

    return CacheContent(
        params=params,
        owner=k,
        uncoded=frozenset(uncoded),
        column_parities=column_parities,
        row_parities=row_parities,
    )


@lru_cache(maxsize=None)
def parity_combination(
    params: SchemeParams, k: int, file: int, r_minus: tuple[int, ...]
) -> tuple[frozenset[tuple[int, ...]], frozenset[tuple[int, tuple[int, ...]]]]:
    """Stored parities whose XOR equals row parity (file, r_minus) of user k.

    Returns (column subsets, (file, subset) row keys), channel-independent.
    Two rewrites drive the recursion: a subset containing the anchor peer is
    replaced by the subsets swapping the peer for each outside user, and a
    file-1 parity is replaced by the covering column parities plus the other
    files' row parities on the same subset.  Each rewrite strictly approaches
    the stored set, so recursion depth is at most two.
    """
    if params.r == 0:
        raise ValueError("no row parities exist when r == 0")
    if len(r_minus) != params.r - 1:
        raise ValueError(f"subset {r_minus} must have r-1={params.r - 1} users")
    if k in r_minus:
        raise ValueError(f"subset {r_minus} must not contain user {k}")
    if file not in params.files:
        raise ValueError(f"file {file} outside 1..{params.n_files}")

    anchor = anchor_user(k)
    if file != 1 and anchor not in r_minus:
        return frozenset(), frozenset({(file, r_minus)})

    columns: set[tuple[int, ...]] = set()
    rows: set[tuple[int, tuple[int, ...]]] = set()

    def fold(cols2, rows2):
        nonlocal columns, rows
        columns ^= cols2
        rows ^= rows2

    if anchor in r_minus:
        stripped = tuple(u for u in r_minus if u != anchor)
        for h in params.users:
            if h == k or h in r_minus:
                continue
            fold(*parity_combination(params, k, file, tuple(sorted(stripped + (h,)))))
    else:  # file == 1, anchor outside the subset
        for h in params.users:
            if h == k or h in r_minus:
                continue
            columns ^= {tuple(sorted(r_minus + (h,)))}
        for other in params.files:
            if other == 1:
                continue
            fold(*parity_combination(params, k, other, r_minus))
    return frozenset(columns), frozenset(rows)


def row_parity_pair(index: SegmentIndex, k: int, file: int, r_minus: tuple[int, ...]) -> tuple[int, int]:
    """row_parity_vec of both channels as (I, Q) masks over the index."""
    mask = 0
    for u in index.params.users:
        if u != k and u not in r_minus:
            mask |= 1 << index.slot(file, tuple(sorted((*r_minus, u))), k)
    return mask, mask << 1


def closure_pair(cache: CacheContent, file: int, r_minus: tuple[int, ...]) -> tuple[int, int]:
    """(I, Q) masks of row parity (file, r_minus) of the cache owner, XORed
    together from stored parities only.  Stored inputs come back unchanged."""
    columns, rows = parity_combination(cache.params, cache.owner, file, tuple(r_minus))
    held = cache.masks
    return mix_sum([(*held.column[r_set], 0) for r_set in columns] + [(*held.row[key], 0) for key in rows])


def row_parity_closure(cache: CacheContent, file: int, r_minus: tuple[int, ...], channel: str) -> SymbolVec:
    """closure_pair's channel as a labelled vector."""
    return segment_index(cache.params).vector(closure_pair(cache, file, r_minus)[CHANNELS.index(channel)])


# ---------------------------------------------------------------------------
# pairwise transform


MIX_POWER: tuple[Matrix, ...] = (IDENTITY, MIX, MIX_INV)  # MIX generates a 3-cycle
_MIX_LOG = {IDENTITY: 0, MIX: 1, MIX_INV: 2}


def _transform_log(d: Demand, asking: tuple[int, ...], t: int, s: int) -> int:
    """Exponent e with MIX**e the transform of user t toward s; asking = requesters(d(t))."""
    if len(asking) % 2 == 1:
        return 0
    if d[t - 1] == d[s - 1]:
        special = t == s
    else:
        # s does not request d(t), so min over all requesters is the leader
        # among the users other than s
        special = t == asking[0]
    return 2 if special else 1


@lru_cache(maxsize=None)
def transform_matrix(params: SchemeParams, d: Demand, t: int, s: int) -> Matrix:
    """GF(2) matrix applied to the (I, Q) pair of W_{d(t), ., s}.

    Identity when d(t) has odd multiplicity.  Otherwise one special user gets
    MIX_INV and everyone else MIX: the special user is t == s when t and s
    request the same file, else the lowest-indexed requester of d(t).
    """
    return MIX_POWER[_transform_log(d, requesters(d, d[t - 1]), t, s)]


def transform_exponents(params: SchemeParams, d: Demand) -> tuple[tuple[int, ...], ...]:
    """K x K table whose entry [t-1][s-1] is the e with transform_matrix(t, s) == MIX**e."""
    asking = {f: requesters(d, f) for f in params.files}
    return tuple(
        tuple(_transform_log(d, asking[d[t - 1]], t, s) for s in params.users) for t in params.users
    )


def inverse_matrix(matrix: Matrix) -> Matrix:
    if matrix == IDENTITY:
        return IDENTITY
    if matrix == MIX:
        return MIX_INV
    if matrix == MIX_INV:
        return MIX
    raise ValueError(f"not a transform matrix: {matrix}")


def mix(e: int, i_val, q_val):
    """MIX**e applied to an (I, Q) pair of XORable values."""
    if e == 0:
        return i_val, q_val
    if e == 1:
        return i_val ^ q_val, i_val
    return q_val, i_val ^ q_val


def mix_sum(terms) -> tuple[int, int]:
    """XOR of MIX**e (I, Q) over (I, Q, e) terms."""
    acc_i = acc_q = 0
    for mask_i, mask_q, e in terms:
        add_i, add_q = mix(e, mask_i, mask_q)
        acc_i ^= add_i
        acc_q ^= add_q
    return acc_i, acc_q


def apply_matrix(matrix: Matrix, pair):
    """Apply a transform matrix (a power of MIX) to an (I, Q) pair of XORable values."""
    return mix(_MIX_LOG[matrix], *pair)


def transform_segment_pair(
    params: SchemeParams, d: Demand, t: int, s: int, r_set: tuple[int, ...]
) -> tuple[SymbolVec, SymbolVec]:
    """Transformed (I, Q) pair of W_{d(t), r_set, s} as symbolic vectors."""
    if s in r_set:
        raise ValueError(f"excluded user {s} inside subset {r_set}")
    file = d[t - 1]
    pair = (
        SymbolVec.unit(segment(file, r_set, s, "I")),
        SymbolVec.unit(segment(file, r_set, s, "Q")),
    )
    return apply_matrix(transform_matrix(params, d, t, s), pair)


# ---------------------------------------------------------------------------
# delivery


@dataclass(frozen=True)
class DeliverySet:
    """All broadcast symbols for one demand, with the skipped ones marked.

    pairs maps (excluded user, (r+1)-subset) to the symbol's (I, Q) masks over
    the dense segment index.  exponents[t-1][s-1] is the e with
    transform_matrix(t, s) == MIX**e, and reconstruction maps each skipped
    pair to the transmitted subsets and MIX exponents that rebuild it.
    """

    params: SchemeParams
    demand: Demand
    pairs: dict[tuple[int, tuple[int, ...]], tuple[int, int]]
    skipped: frozenset[tuple[int, tuple[int, ...]]]
    leader_infos: dict[int, LeaderInfo]
    exponents: tuple[tuple[int, ...], ...]
    reconstruction: dict[tuple[int, tuple[int, ...]], tuple[tuple[tuple[int, ...], int], ...]] = field(
        default_factory=dict
    )

    def is_transmitted(self, s: int, r_plus: tuple[int, ...]) -> bool:
        return (s, r_plus) not in self.skipped

    @property
    def transmitted_count(self) -> int:
        """Symbols actually sent, counting both channels."""
        return 2 * (len(self.pairs) - len(self.skipped))

    def rate(self) -> Fraction:
        p = self.params
        return Fraction(self.transmitted_count, 2 * p.n_users * binom(p.n_users - 1, p.r))

    @cached_property
    def symbols(self) -> dict[DeliveryKey, SymbolVec]:
        """Every symbol, skipped ones included, as a labelled vector."""
        index = segment_index(self.params)
        out = {}
        for (s, r_plus), (mask_i, mask_q) in self.pairs.items():
            out[(s, r_plus, "I")] = index.vector(mask_i)
            out[(s, r_plus, "Q")] = index.vector(mask_q)
        return out


@lru_cache(maxsize=None)
def _symbol_layout(params: SchemeParams) -> tuple[tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
    """The demand-independent part of every broadcast symbol, in delivery
    order: (s, r_plus, ((t, position of W^I[1; r_plus - t; s]), ...)).  A
    demand moves each position to file d(t) by adding (d(t) - 1) * per_file."""
    index = segment_index(params)
    return tuple(
        (s, r_plus, tuple((t, index.slot(1, tuple(u for u in r_plus if u != t), s)) for t in r_plus))
        for s in params.users
        for r_plus in itertools.combinations([u for u in params.users if u != s], params.r + 1)
    )


def delivery(params: SchemeParams, d: Sequence[int]) -> DeliverySet:
    """Build every broadcast symbol for a fully demanded vector.

    Symbol (s, r_plus) XORs the transformed segments W_{d(t), r_plus - t, s}
    over t in r_plus; it is skipped when r_plus avoids every leader of s.
    """
    demand = require_fully_demanded(params, d)
    per_file = segment_index(params).per_file
    base = [(f - 1) * per_file for f in demand]
    exponents = transform_exponents(params, demand)
    leader_infos = {s: leaders(params, demand, s) for s in params.users}
    pairs: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
    skipped: set[tuple[int, tuple[int, ...]]] = set()
    for s, r_plus, terms in _symbol_layout(params):
        acc_i = acc_q = 0
        for t, offset in terms:
            unit = 1 << (base[t - 1] + offset)
            add_i, add_q = mix(exponents[t - 1][s - 1], unit, unit << 1)
            acc_i ^= add_i
            acc_q ^= add_q
        pairs[(s, r_plus)] = (acc_i, acc_q)
        if not leader_infos[s].leader_set.intersection(r_plus):
            skipped.add((s, r_plus))
    dset = DeliverySet(
        params=params,
        demand=demand,
        pairs=pairs,
        skipped=frozenset(skipped),
        leader_infos=leader_infos,
        exponents=exponents,
    )
    for s, r_plus in sorted(skipped):
        dset.reconstruction[(s, r_plus)] = tuple(
            (rest, _MIX_LOG[coeff]) for rest, coeff in skip_combination(dset, s, r_plus)
        )
    return dset


def selection_weights(dset: DeliverySet, s: int, block: tuple[int, ...]):
    """One-requester-per-file selections V inside the block, each with the
    MIX-power h(V) = sum of its members' transform logs mod 3.

    For any such block the weighted sum of symbol pairs over all selections,
    sum_V MIX^h(V) (Y^I, Y^Q)_{block - V}, vanishes: the two occurrences of a
    segment across selections swapping one same-file requester carry equal
    total exponents and cancel.  The unweighted per-channel XOR is the equal-
    weight special case (it fails once an even-multiplicity file other than
    d(s) puts its leader inside a selection).
    """
    demand, exponents = dset.demand, dset.exponents
    info = dset.leader_infos[s]
    choices = [[u for u in block if demand[u - 1] == file] for file, _leader in info.per_file_leader]
    out = []
    for pick in itertools.product(*choices):
        weight = sum(exponents[t - 1][s - 1] for t in pick) % 3
        out.append((frozenset(pick), weight))
    return out


def skip_combination(
    dset: DeliverySet, s: int, r_plus: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], Matrix], ...]:
    """Transmitted subsets and 2x2 coefficients reconstructing a skipped symbol.

    With B = leaders(s) | r_plus the skipped symbol is the leader selection's
    term in the vanishing weighted sum over B, so it equals the weighted sum
    of the other selections' (transmitted) symbol pairs.
    """
    if dset.is_transmitted(s, r_plus):
        raise ValueError(f"symbol (s={s}, subset={r_plus}) was transmitted, nothing to reconstruct")
    info = dset.leader_infos[s]
    block = tuple(sorted(info.leader_set.union(r_plus)))
    leader_weight = None
    entries = []
    for chosen, weight in selection_weights(dset, s, block):
        if chosen == info.leader_set:
            leader_weight = weight
            continue
        rest = tuple(u for u in block if u not in chosen)
        if not dset.is_transmitted(s, rest):  # cannot happen: rest meets a leader
            raise RuntimeError(f"reconstruction referenced skipped symbol {rest}")
        entries.append((rest, weight))
    if leader_weight is None:  # cannot happen: the leaders form one selection
        raise RuntimeError(f"leader set {sorted(info.leader_set)} is not a selection of block {block}")
    return tuple(
        (rest, MIX_POWER[(weight - leader_weight) % 3]) for rest, weight in entries
    )


def _broadcast_terms(dset: DeliverySet, s: int, r_plus: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(I mask, Q mask, MIX exponent) terms whose transformed sum is symbol
    (s, r_plus): the symbol itself when transmitted, else its reconstruction
    from transmitted ones."""
    combo = dset.reconstruction.get((s, r_plus))
    if combo is None:
        return [(*dset.pairs[(s, r_plus)], 0)]
    return [(*dset.pairs[(s, rest)], e) for rest, e in combo]


def reconstructed_pair(dset: DeliverySet, s: int, r_plus: tuple[int, ...]) -> tuple[int, int]:
    """(I, Q) masks of a skipped symbol, rebuilt from transmitted ones."""
    if dset.is_transmitted(s, r_plus):
        raise ValueError(f"symbol (s={s}, subset={r_plus}) was transmitted, nothing to reconstruct")
    return mix_sum(_broadcast_terms(dset, s, r_plus))


def reconstruct_skipped(dset: DeliverySet, s: int, r_plus: tuple[int, ...], channel: str) -> SymbolVec:
    """One channel of reconstructed_pair as a labelled vector."""
    pair = reconstructed_pair(dset, s, r_plus)
    return segment_index(dset.params).vector(pair[CHANNELS.index(channel)])


# ---------------------------------------------------------------------------
# decoding: one plan per (demand, user), evaluated on masks or on payloads

Row = tuple[int, tuple[int, ...], tuple[int, ...]]  # (position of the I target, I items, Q items)


def _evaluate(i_items, q_items, value_of=None) -> tuple[int, int]:
    if value_of is not None:
        i_items, q_items = map(value_of, i_items), map(value_of, q_items)
    return reduce(operator.xor, i_items, 0), reduce(operator.xor, q_items, 0)


@dataclass(frozen=True)
class DecodePlan:
    """One user's decoding of its whole file for one demand.

    Row (t, i_items, q_items) says that the segments at positions t (I) and
    t + 1 (Q) of the dense segment index are the XORs of the listed items.
    An item is something the user holds (an uncoded slot, a cached column or
    row parity, or a transmitted symbol), given by its mask.  Rows run in
    partition order.
    """

    rows: tuple[Row, ...]

    def recovers(self, value_of=None) -> bool:
        """True iff every target decodes to its unit mask, or with value_of,
        to value_of of that unit mask (the segment's own payload)."""
        for target, i_items, q_items in self.rows:
            unit_i, unit_q = 1 << target, 2 << target
            if value_of is not None:
                unit_i, unit_q = value_of(unit_i), value_of(unit_q)
            if _evaluate(i_items, q_items, value_of) != (unit_i, unit_q):
                return False
        return True


# The demand-independent part of one target's decoding equation:
# (offset of the target within its file, excluded user s, class, data), with
# data None for an uncoded hit, (r_plus, ((i, offset of W[., r_plus - i, s]), ...))
# for class 1 and (r_set, ((t, r_set - t), ...), (r_set | {h}, ...)) for class 2.
Equation = tuple[int, int, int, tuple | None]


def _equation(index: SegmentIndex, k: int, r_set: tuple[int, ...], s: int) -> Equation:
    """How user k recovers (d(k), r_set, s), whatever the demand.

    Class 1 (s != k, k not in r_set): the broadcast symbol over r_set | {k}
    minus the transformed segments of it that user k caches uncoded.  Class 2
    (s == k): the column parity, the transformed row-parity closures of the
    files requested inside r_set, and every broadcast symbol over r_set | {h}.
    """
    offset = index.slot(1, r_set, s)
    if k in r_set:
        return offset, s, 0, None
    if s != k:
        r_plus = tuple(sorted(r_set + (k,)))
        held = tuple((i, index.slot(1, tuple(u for u in r_plus if u != i), s)) for i in r_set)
        return offset, s, 1, (r_plus, held)
    closures = tuple((t, tuple(u for u in r_set if u != t)) for t in r_set)
    others = (h for h in index.params.users if h != k and h not in r_set)
    return offset, s, 2, (r_set, closures, tuple(tuple(sorted(r_set + (h,))) for h in others))


@lru_cache(maxsize=None)
def _equations(params: SchemeParams, k: int) -> tuple[Equation, ...]:
    """User k's equations for every segment of a file, in partition order."""
    index = segment_index(params)
    return tuple(
        _equation(index, k, r_set, s)
        for r_set in itertools.combinations(params.users, params.r)
        for s in params.users
        if s not in r_set
    )


class _PlanCompiler:
    """Rows of user k's plan: its equations filled in for one demand.

    Filling in an equation gives (I mask, Q mask, e) terms whose
    MIX**e-weighted sum is the transformed target; the row undoes the
    target's transform and spells out which items each channel XORs.
    """

    def __init__(self, dset: DeliverySet, cache: CacheContent, k: int):
        self.dset = dset
        self.k = k
        self.index = segment_index(dset.params)
        self.held = cache.masks
        self.base = (dset.demand[k - 1] - 1) * self.index.per_file

    def _held_slot(self, position: int) -> tuple[int, int]:
        uncoded = self.held.uncoded
        if position not in uncoded or position + 1 not in uncoded:
            raise LookupError(f"user {self.k} did not cache {self.index.segments[position].label()}")
        units = self.index.units
        return units[position], units[position + 1]

    def row(self, equation: Equation) -> Row:
        offset, s, kind, data = equation
        target = self.base + offset
        if kind == 0:
            mask_i, mask_q = self._held_slot(target)
            return target, (mask_i,), (mask_q,)
        dset, k = self.dset, self.k
        demand, exponents = dset.demand, dset.exponents
        if kind == 1:
            r_plus, held = data
            terms = _broadcast_terms(dset, s, r_plus)
            per_file = self.index.per_file
            for i, rest_offset in held:
                slot = self._held_slot((demand[i - 1] - 1) * per_file + rest_offset)
                terms.append((*slot, exponents[i - 1][s - 1]))
        else:
            r_set, closures, symbols = data
            columns, row_parities = self.held.column, self.held.row
            terms = [(*columns[r_set], 0)]
            for t, r_minus in closures:
                cols, rows = parity_combination(dset.params, k, demand[t - 1], r_minus)
                e = exponents[t - 1][k - 1]
                terms += [(*columns[subset], e) for subset in cols]
                terms += [(*row_parities[key], e) for key in rows]
            for r_plus in symbols:
                terms += _broadcast_terms(dset, k, r_plus)
        undo = exponents[k - 1][s - 1]
        i_items: list[int] = []
        q_items: list[int] = []
        for mask_i, mask_q, e in terms:
            e = (e - undo) % 3
            if e == 0:
                i_items.append(mask_i)
                q_items.append(mask_q)
            elif e == 1:
                i_items += (mask_i, mask_q)
                q_items.append(mask_i)
            else:
                i_items.append(mask_q)
                q_items += (mask_i, mask_q)
        return target, tuple(i_items), tuple(q_items)


def decode_plan(dset: DeliverySet, cache: CacheContent, k: int) -> DecodePlan:
    """Compile user k's decoding of its file for this demand.

    Raises LookupError when an equation needs an item the user does not hold.
    """
    compiler = _PlanCompiler(dset, cache, k)
    return DecodePlan(tuple(map(compiler.row, _equations(dset.params, k))))


class PayloadSource:
    """Byte values (as ints) user k holds after prefetch plus the broadcast.

    An item's value is the XOR of the source payload over its mask, encoded
    once on first use as the server would; decoding evaluates the user's plan
    on these values.
    """

    def __init__(self, cache: CacheContent, dset: DeliverySet, payload: Payload,
                 segment_ints: Mapping[SegmentId, int] | None = None):
        ints = payload.int_values() if segment_ints is None else segment_ints
        self.cache = cache
        self.dset = dset
        self.index = segment_index(cache.params)
        self.value = MaskValues(self.index, [ints[seg] for seg in self.index.segments]).__getitem__

    def held_segment(self, seg: SegmentId) -> int:
        if seg not in self.cache.uncoded:
            raise LookupError(f"user {self.cache.owner} did not cache {seg.label()}")
        return self.value(self.index.units[self.index[seg]])

    def delivered(self, s: int, r_plus: tuple[int, ...], channel: str) -> int:
        if not self.dset.is_transmitted(s, r_plus):
            raise KeyError(f"symbol (s={s}, subset={r_plus}) was skipped, never broadcast")
        return self.value(self.dset.pairs[(s, r_plus)][CHANNELS.index(channel)])


def _decoded_pair(dset: DeliverySet, row: Row, source: PayloadSource | None):
    """One row's decoded (I, Q) pair: SymbolVecs, or payload ints with a source."""
    _target, i_items, q_items = row
    if source is not None:
        return _evaluate(i_items, q_items, source.value)
    index = segment_index(dset.params)
    return tuple(index.vector(mask) for mask in _evaluate(i_items, q_items))


def decode_class1(dset: DeliverySet, cache: CacheContent, k: int, r_set: tuple[int, ...], s: int,
                  source: PayloadSource | None = None):
    """Recover (W^I, W^Q) of segment (d(k), r_set, s) when s != k, k not in r_set.

    The broadcast symbol over r_set | {k} is the transformed target XORed with
    transformed segments the user holds uncoded; eliminate those, then invert
    the (k, s) transform.
    """
    if k in r_set or s == k or s in r_set:
        raise ValueError(f"bad elimination indices k={k} r_set={r_set} s={s}")
    equation = _equation(segment_index(dset.params), k, tuple(r_set), s)
    return _decoded_pair(dset, _PlanCompiler(dset, cache, k).row(equation), source)


def decode_class2(dset: DeliverySet, cache: CacheContent, k: int, r_set: tuple[int, ...],
                  source: PayloadSource | None = None):
    """Recover (W^I, W^Q) of segment (d(k), r_set, k) with k not in r_set.

    Align the transformed row parities of the files requested inside r_set
    and every broadcast symbol over a superset of r_set against the column
    parity: all interference cancels, leaving the transformed target.
    """
    if k in r_set:
        raise ValueError(f"user {k} must be outside {r_set}")
    equation = _equation(segment_index(dset.params), k, tuple(r_set), k)
    return _decoded_pair(dset, _PlanCompiler(dset, cache, k).row(equation), source)


def decode_file(dset: DeliverySet, cache: CacheContent, k: int, source: PayloadSource | None = None):
    """Recover every segment of user k's file, in canonical segment order.

    Returns [(SegmentId, value)]: values are SymbolVec expansions (correct iff
    equal to the unit vector) or, with a PayloadSource, payload ints.
    """
    segments = segment_index(dset.params).segments
    out = []
    for row in decode_plan(dset, cache, k).rows:
        i_val, q_val = _decoded_pair(dset, row, source)
        out += [(segments[row[0]], i_val), (segments[row[0] + 1], q_val)]
    return out


# ---------------------------------------------------------------------------
# whole-demand identity


def transformed_sum_residual(index: SegmentIndex, demand: Demand, exponents: Sequence[Sequence[int]],
                             s: int, r_set: tuple[int, ...]) -> tuple[int, int]:
    """(I, Q) masks of the XOR of the transformed (d(t), r_set, s) segments
    over ALL users t and the column parity (r_set, s) over files, with
    exponents[t-1][s-1] the transform of user t toward s.  The identity says
    this is zero: per file, the special/mix split cancels."""
    params = index.params
    unit = {f: 1 << index.slot(f, r_set, s) for f in params.files}
    terms = [(unit[demand[t - 1]], unit[demand[t - 1]] << 1, exponents[t - 1][s - 1]) for t in params.users]
    return mix_sum(terms + [(unit[f], unit[f] << 1, 0) for f in params.files])


def transformed_sum_identity(params: SchemeParams, d: Sequence[int], s: int, r_set: tuple[int, ...], channel: str) -> bool:
    """One channel of the transformed-sum identity for demand d: its
    transformed_sum_residual is zero.  Reads the demand's exponent table, so it
    leaves the per-demand transform_matrix cache alone."""
    demand = require_fully_demanded(params, d)
    idx = CHANNELS.index(channel)
    if s in r_set:
        raise ValueError(f"excluded user {s} inside subset {r_set}")
    exponents = transform_exponents(params, demand)
    return transformed_sum_residual(segment_index(params), demand, exponents, s, tuple(sorted(r_set)))[idx] == 0
