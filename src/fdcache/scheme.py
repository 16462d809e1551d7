"""Cache-aided broadcast construction for fully demanded systems.

Pipeline, per (N, K, r) system:

1. partition     - each file splits into 2(K-r)C(K,r) segments indexed by an
                   r-subset of users, an excluded user, and an I/Q channel.
2. prefetch      - user k caches an uncoded slice plus product-code parities
                   (column parities across files, a pruned set of row parities
                   along each file).  The pruned row parities are linearly
                   dependent on stored ones and recoverable via the closure.
3. transform     - once demands are known, (I, Q) pairs are mixed by powers
                   MIX**e, e in {0, 1, 2}, of the GF(2) map MIX: (I, Q) ->
                   (I^Q, I), chosen per (requesting user, excluded user) so
                   that even-multiplicity files still cancel in sums.
4. delivery      - broadcast symbols XOR transformed segments over (r+1)-user
                   subsets; symbols whose subset avoids the leader set of the
                   excluded user are linearly dependent on the rest and are
                   skipped, and rebuilt from the subsets that swap some of
                   their members for the leaders of their files.
5. decode        - each user recovers its file from the cache (uncoded hits),
                   by per-symbol elimination (s != k), or by aligning parities
                   against broadcast sums (s == k), then inverts the transform.

Delivery and decoding work on int masks over the dense segment index
(algebra.SegmentIndex), as (I mask, Q mask, e) terms whose MIX**e-weighted
sum mix_sum forms.  decode_rows walks a user's equations once per demand.
The segment pairs of the user's file that it caches uncoded (its uncoded
hits) are a membership test on the cache; for each other pair it yields the
terms over held items whose weighted sum is MIX**undo of the pair, read
through the demand's Lift.  The identity lift reads each item as its mask
and encodes nothing.  A lift through drawn values reads it as a payload
value, or as its mask in the low index.size bits with its value above
them: lift encodes each transmitted symbol once per demand, and each user's
parities are lifted from their supports, the bit positions CacheContent
keeps.  XOR never carries across bits, so a verifier checks a row on masks,
payload or both with one plain mix_sum and one comparison with MIX**undo of
the segment's lifted pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import (
    CHANNELS,
    MaskValues,
    Payload,
    SegmentId,
    SegmentIndex,
    bit_positions,
    segment,
    segment_index,
)
from .core import (
    Demand,
    SchemeParams,
    leaders,
    require_fully_demanded,
    requesters,
)

Term = tuple[int, int, int]  # (I mask, Q mask, e): one summand MIX**e (I, Q) of mix_sum


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


@dataclass(frozen=True)
class CacheContent:
    """Everything user `owner` prefetches, over the dense segment index:
    uncoded segment positions plus (I mask, Q mask) pairs of parities.
    supports holds each stored parity's I and Q support, read once per cache
    from its own masks, so a demand's decoding lifts every parity from the
    segment values without scanning its bits again."""

    params: SchemeParams
    owner: int
    uncoded: frozenset[int]
    column: dict[tuple[int, ...], tuple[int, int]]  # r_set -> column parity pair
    row: dict[tuple[int, tuple[int, ...]], tuple[int, int]]  # (file, r_minus) -> row parity pair

    @property
    def m1(self) -> int:
        return len(self.uncoded)

    @property
    def m2(self) -> int:
        return 2 * len(self.column)

    @property
    def m3(self) -> int:
        return 2 * len(self.row)

    @property
    def size(self) -> int:
        return self.m1 + self.m2 + self.m3

    def memory(self) -> Fraction:
        """Cache size normalized by the per-file segment count."""
        return Fraction(self.size, segment_index(self.params).per_file)

    @cached_property
    def supports(self) -> tuple[dict, dict]:
        """(column, row): the positions of the I bits and of the Q bits of
        each stored parity, keyed as column and row key it."""
        return tuple(
            {key: (tuple(bit_positions(i)), tuple(bit_positions(q))) for key, (i, q) in parities.items()}
            for parities in (self.column, self.row)
        )


def prefetch(params: SchemeParams, k: int) -> CacheContent:
    """Build user k's cache: uncoded slice, column parities, pruned row parities.

    Column parity r_set XORs the segments tagged (r_set, excluded=k) over all
    files; row parity (file, r_minus) is row_parity_pair.
    """
    if k not in params.users:
        raise ValueError(f"user {k} outside 1..{params.n_users}")
    index = segment_index(params)
    uncoded = set()
    column = {}
    for r_set in itertools.combinations(params.users, params.r):
        if k in r_set:
            for f in params.files:
                for s in params.users:
                    if s not in r_set:
                        slot = index.slot(f, r_set, s)
                        uncoded.update((slot, slot + 1))  # W^I and W^Q
        else:
            mask = 0
            for f in params.files:
                mask |= 1 << index.slot(f, r_set, k)
            column[r_set] = (mask, mask << 1)

    # only files >= 2 and subsets avoiding the anchor peer are stored
    row = {}
    if params.r >= 1:
        others = [u for u in params.users if u not in (k, anchor_user(k))]
        for f in params.files:
            if f == 1:
                continue
            for r_minus in itertools.combinations(others, params.r - 1):
                row[(f, r_minus)] = row_parity_pair(params, k, f, r_minus)

    return CacheContent(params=params, owner=k, uncoded=frozenset(uncoded), column=column, row=row)


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


@lru_cache(maxsize=None)
def row_parity_pair(params: SchemeParams, k: int, file: int, r_minus: tuple[int, ...]) -> tuple[int, int]:
    """(I, Q) masks of row parity (file, r_minus) of user k: the XOR over
    completions u of the file's segments tagged ({u} | r_minus, k)."""
    index = segment_index(params)
    mask = 0
    for u in params.users:
        if u != k and u not in r_minus:
            mask |= 1 << index.slot(file, tuple(sorted((*r_minus, u))), k)
    return mask, mask << 1


def closure_terms(column: dict, row: dict, combination, e: int = 0) -> list[Term]:
    """(I, Q, e) terms over the stored parities of a parity_combination,
    each weighted by MIX**e; column and row hold the (I, Q) pair of each
    stored parity, as CacheContent.column and CacheContent.row key them."""
    columns, rows = combination
    return [(*column[r_set], e) for r_set in columns] + [(*row[key], e) for key in rows]


def closure_pair(cache: CacheContent, file: int, r_minus: tuple[int, ...]) -> tuple[int, int]:
    """(I, Q) masks of row parity (file, r_minus) of the cache owner, XORed
    together from stored parities only.  Stored inputs come back unchanged."""
    combination = parity_combination(cache.params, cache.owner, file, tuple(r_minus))
    return mix_sum(closure_terms(cache.column, cache.row, combination))


def row_parity_closure(cache: CacheContent, file: int, r_minus: tuple[int, ...], channel: str) -> int:
    """The mask of closure_pair's channel."""
    return closure_pair(cache, file, r_minus)[CHANNELS.index(channel)]


# ---------------------------------------------------------------------------
# pairwise transform


def _transform_log(d: Demand, asking: tuple[int, ...], t: int, s: int) -> int:
    """Exponent e of the transform MIX**e of user t toward s; asking = requesters(d(t)).

    The identity (e = 0) when d(t) has odd multiplicity.  Otherwise one
    special user gets MIX**2 = MIX^-1 and everyone else MIX: the special user
    is t == s when t and s request the same file, else the lowest-indexed
    requester of d(t).
    """
    if len(asking) % 2 == 1:
        return 0
    if d[t - 1] == d[s - 1]:
        special = t == s
    else:
        # s does not request d(t), so min over all requesters is the leader
        # among the users other than s
        special = t == asking[0]
    return 2 if special else 1


def transform_exponents(params: SchemeParams, d: Demand) -> tuple[tuple[int, ...], ...]:
    """K x K table whose entry [t-1][s-1] is the exponent of the transform of user t toward s."""
    asking = {f: requesters(d, f) for f in params.files}
    return tuple(
        tuple(_transform_log(d, asking[d[t - 1]], t, s) for s in params.users) for t in params.users
    )


def mix_sum(terms: Iterable[Term]) -> tuple[int, int]:
    """XOR of MIX**e (I, Q) over (I, Q, e) terms of ints, e in {0, 1, 2}.

    MIX maps (I, Q) to (I^Q, I) and generates a 3-cycle: MIX**2 maps (I, Q)
    to (Q, I^Q) and MIX**3 is the identity.  The ints may be masks, payload
    values or lifted ints carrying both: MIX acts on every bit alike.  This
    loop is the only place the map is written out.
    """
    acc_i = acc_q = 0
    for i_val, q_val, e in terms:
        if e == 0:
            acc_i ^= i_val
            acc_q ^= q_val
        elif e == 1:
            acc_i ^= i_val ^ q_val
            acc_q ^= i_val
        else:
            acc_i ^= q_val
            acc_q ^= i_val ^ q_val
    return acc_i, acc_q


def mix(e: int, i_val: int, q_val: int) -> tuple[int, int]:
    """MIX**e applied to one (I, Q) pair of ints; the pair itself when e is 0."""
    return (i_val, q_val) if e == 0 else mix_sum([(i_val, q_val, e)])


# ---------------------------------------------------------------------------
# delivery


@dataclass(frozen=True)
class DeliverySet:
    """All broadcast symbols for one demand, with the skipped ones marked.

    pairs maps (excluded user, (r+1)-subset) to the symbol's (I, Q) masks over
    the dense segment index.  leaders[s] is the leader set of the users other
    than s (core.leaders).  exponents[t-1][s-1] is the e with MIX**e the
    transform of user t toward s.  Toward s, leader_weights[s] is h(leaders),
    the leaders' exponent sum mod 3, and swaps[s] maps each other user x to
    (l, exponent change of swapping l for x mod 3, 1 << d(x)), l the leader
    of d(x).  subsets maps the user bitmask sum(1 << u) of every
    (r+1)-subset to the subset (_subsets_by_bits), so selection_weights
    grows its selections on bits.  reconstruction, the one skip table, maps
    each skipped pair to (rest, e) references to the transmitted
    pairs[(s, rest)] whose MIX**e-weighted sum rebuilds it.  They are read at
    each rebuild, never copied, so a corrupted pair reaches every rebuild,
    and both skip families of the identity suite read one rebuilt pair.
    """

    params: SchemeParams
    demand: Demand
    pairs: dict[tuple[int, tuple[int, ...]], tuple[int, int]]
    skipped: frozenset[tuple[int, tuple[int, ...]]]
    leaders: dict[int, frozenset[int]]
    exponents: tuple[tuple[int, ...], ...]
    leader_weights: dict[int, int]
    swaps: dict[int, dict[int, tuple[int, int, int]]]
    subsets: dict[int, tuple[int, ...]]
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
        return Fraction(self.transmitted_count, segment_index(self.params).per_file)


# MIX**e of the unit pair (I, Q) = (1, 2): shifted left by a segment pair's
# position p, it is MIX**e of that pair's unit masks (1 << p, 1 << p + 1)
_MIXED_UNIT = tuple(mix(e, 1, 2) for e in range(3))


@lru_cache(maxsize=None)
def _symbol_layout(
    params: SchemeParams,
) -> tuple[tuple[int, tuple[int, ...], int, tuple[tuple[int, int], ...]], ...]:
    """The demand-independent part of every broadcast symbol, in delivery
    order: (s, r_plus, user bits of r_plus, ((t, position of
    W^I[1; r_plus - t; s]), ...)), the user bits sum(1 << u) over u in
    r_plus.  A demand moves each position to file d(t) by adding
    (d(t) - 1) * per_file."""
    index = segment_index(params)
    return tuple(
        (s, r_plus, sum(1 << u for u in r_plus),
         tuple((t, index.slot(1, tuple(u for u in r_plus if u != t), s)) for t in r_plus))
        for s in params.users
        for r_plus in itertools.combinations([u for u in params.users if u != s], params.r + 1)
    )


@lru_cache(maxsize=None)
def _subsets_by_bits(params: SchemeParams) -> dict[int, tuple[int, ...]]:
    """Every (r+1)-subset of users, sorted, keyed by its user bits sum(1 << u)."""
    return {sum(1 << u for u in r_plus): r_plus for r_plus in itertools.combinations(params.users, params.r + 1)}


def delivery(params: SchemeParams, d: Sequence[int]) -> DeliverySet:
    """Build every broadcast symbol for a fully demanded vector.

    Symbol (s, r_plus) XORs the transformed segments W_{d(t), r_plus - t, s}
    over t in r_plus; it is skipped when r_plus avoids the leader set of s.
    The r+1 terms of a symbol lie on distinct segment pairs and MIX acts
    inside each pair, so each term is XORed in as the mixed unit pair
    _MIXED_UNIT[e] shifted to its segment's position, with no mix_sum per
    symbol.  The skip test is one AND of the leader set's user bits with the
    symbol's (_symbol_layout).
    """
    demand = require_fully_demanded(params, d)
    per_file = segment_index(params).per_file
    base = [(f - 1) * per_file for f in demand]
    exponents = transform_exponents(params, demand)
    leader_sets = {s: leaders(params, demand, s) for s in params.users}
    leader_bits = {s: sum(1 << u for u in leader_set) for s, leader_set in leader_sets.items()}
    pairs: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
    skipped: list[tuple[int, tuple[int, ...]]] = []  # in layout order, which is sorted order
    for s, r_plus, bits, layout in _symbol_layout(params):
        acc_i = acc_q = 0
        for t, at in layout:
            unit_i, unit_q = _MIXED_UNIT[exponents[t - 1][s - 1]]
            at += base[t - 1]
            acc_i ^= unit_i << at
            acc_q ^= unit_q << at
        pairs[(s, r_plus)] = acc_i, acc_q
        if not leader_bits[s] & bits:
            skipped.append((s, r_plus))
    leader_weights, swaps = {}, {}
    for s, leader_set in leader_sets.items():
        toward = [row[s - 1] for row in exponents]
        leader_of = {demand[lead - 1]: lead for lead in leader_set}
        leader_weights[s] = sum(toward[lead - 1] for lead in leader_set) % 3
        swaps[s] = {x: (leader_of[f], (toward[x - 1] - toward[leader_of[f] - 1]) % 3, 1 << f)
                    for x, f in enumerate(demand, start=1) if x != s}
    dset = DeliverySet(
        params=params,
        demand=demand,
        pairs=pairs,
        skipped=frozenset(skipped),
        leaders=leader_sets,
        exponents=exponents,
        leader_weights=leader_weights,
        swaps=swaps,
        subsets=_subsets_by_bits(params),
    )
    for s, r_plus in skipped:
        dset.reconstruction[(s, r_plus)] = skip_combination(dset, s, r_plus)
    return dset


def selection_weights(dset: DeliverySet, s: int, extra: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """One-requester-per-file selections V inside the block
    B = leaders[s] | extra, each as (B - V sorted, h(V)), h(V) the sum of its
    members' transform logs toward s mod 3; extra is a sorted (r+1)-subset
    of the users outside s and its leaders, and the leader selection comes
    first.

    For any such block the weighted sum of symbol pairs over all selections,
    sum_V MIX^h(V) (Y^I, Y^Q)_{B - V}, vanishes: the two occurrences of a
    segment across selections swapping one same-file requester carry equal
    total exponents and cancel.  The unweighted per-channel XOR is the equal-
    weight special case (it fails once an even-multiplicity file other than
    d(s) puts its leader inside a selection).

    Every file requested inside B is requested outside s, so its leader is in
    B: each selection swaps some members x of extra, at most one per file,
    into the leader set for the leaders of their files (swaps[s]).  Each
    B - V grows as user bits, one 1 << x or 1 << leader per member of extra,
    and is read back as a sorted subset from dset.subsets at the end.  Its
    one caller is skip_combination, once per skipped pair.
    """
    swaps = dset.swaps[s]
    grown = [(0, dset.leader_weights[s], 0)]  # (user bits left so far, weight, bits of the files swapped)
    for x in extra:
        leader, delta, bit = swaps[x]
        grown = [(rest | 1 << x, weight, used) for rest, weight, used in grown] + [
            (rest | 1 << leader, (weight + delta) % 3, used | bit) for rest, weight, used in grown if not used & bit]
    subsets = dset.subsets
    return [(subsets[rest], weight) for rest, weight, _ in grown]


def skip_combination(
    dset: DeliverySet, s: int, r_plus: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Transmitted subsets and MIX exponents reconstructing a skipped symbol.

    It is the leader selection's term in the vanishing weighted sum of
    selection_weights(dset, s, r_plus), so it is the sum of the other
    (transmitted) terms, each weighted by h(V) - h(leaders).
    """
    if dset.is_transmitted(s, r_plus):
        raise ValueError(f"symbol (s={s}, subset={r_plus}) was transmitted, nothing to reconstruct")
    (_, leader_weight), *others = selection_weights(dset, s, r_plus)
    for rest, _ in others:
        if (s, rest) in dset.skipped:  # cannot happen: rest meets a leader
            raise RuntimeError(f"reconstruction referenced skipped symbol {rest}")
    return tuple((rest, (weight - leader_weight) % 3) for rest, weight in others)


def reconstructed_pair(dset: DeliverySet, s: int, r_plus: tuple[int, ...]) -> tuple[int, int]:
    """(I, Q) masks of a skipped symbol, summed from the transmitted pairs
    that its reconstruction references."""
    if dset.is_transmitted(s, r_plus):
        raise ValueError(f"symbol (s={s}, subset={r_plus}) was transmitted, nothing to reconstruct")
    return mix_sum((*dset.pairs[(s, rest)], e) for rest, e in dset.reconstruction[(s, r_plus)])


def reconstruct_skipped(dset: DeliverySet, s: int, r_plus: tuple[int, ...], channel: str) -> int:
    """The mask of one channel of reconstructed_pair."""
    return reconstructed_pair(dset, s, r_plus)[CHANNELS.index(channel)]


# ---------------------------------------------------------------------------
# decoding: one pass of rows per (demand, user), through the demand's Lift


# The demand-independent part of one coded target's decoding equation:
# (offset of the target within its file, excluded user s, class, data), with
# data (r_plus, ((i, offset of W[., r_plus - i, s]), ...)) for class 1 and
# (r_set, ((t, parity_combination of r_set - t for each file), ...),
# (r_set | {h}, ...)) for class 2.
Equation = tuple[int, int, int, tuple]


def _equation(index: SegmentIndex, k: int, r_set: tuple[int, ...], s: int) -> Equation:
    """How user k recovers (d(k), r_set, s), k not in r_set, whatever the demand.

    Class 1 (s != k): the broadcast symbol over r_set | {k} minus the
    transformed segments of it that user k caches uncoded.  Class 2
    (s == k): the column parity, the transformed row-parity closures of the
    files requested inside r_set, and every broadcast symbol over r_set | {h}.
    """
    offset = index.slot(1, r_set, s)
    if s != k:
        r_plus = tuple(sorted(r_set + (k,)))
        held = tuple((i, index.slot(1, tuple(u for u in r_plus if u != i), s)) for i in r_set)
        return offset, s, 1, (r_plus, held)
    params = index.params
    closures = tuple(
        (t, tuple(parity_combination(params, k, f, tuple(u for u in r_set if u != t)) for f in params.files))
        for t in r_set
    )
    others = (h for h in params.users if h != k and h not in r_set)
    return offset, s, 2, (r_set, closures, tuple(tuple(sorted(r_set + (h,))) for h in others))


@lru_cache(maxsize=None)
def _equations(params: SchemeParams, k: int) -> tuple[tuple[int, ...], tuple[Equation, ...]]:
    """User k's decoding of every segment pair of a file, in partition order,
    as (hits, equations): hits holds the offsets of the pairs (., r_set, s)
    with k in r_set, which user k caches uncoded, and equations the Equation
    of every other pair."""
    index = segment_index(params)
    pairs = [(r_set, s) for r_set in itertools.combinations(params.users, params.r)
             for s in params.users if s not in r_set]
    hits = tuple(index.slot(1, r_set, s) for r_set, s in pairs if k in r_set)
    return hits, tuple(_equation(index, k, r_set, s) for r_set, s in pairs if k not in r_set)


class Lift(NamedTuple):
    """One demand's held items as lifted ints, built once and shared by all
    its users.  units[i] is the lifted int of segment position i, as a user
    holds it uncoded; values maps an item's mask to its lifted int as the
    server encodes it (algebra.MaskValues), or is None for the identity
    lift, under which each item's int is its mask; broadcast maps each symbol
    to its lifted (I, Q, e) terms, a skipped one's rebuilt by reconstruction."""

    units: Sequence[int]
    values: MaskValues | None
    broadcast: dict[tuple[int, tuple[int, ...]], tuple[Term, ...]]


def lift(dset: DeliverySet, values: MaskValues | None = None) -> Lift:
    """The demand's lift through values, in one pass: each transmitted pair
    is encoded once.  With no values it is the identity lift: segment i
    lifts to 1 << i, so the pairs are read as they are."""
    skipped = dset.skipped
    units, pairs = segment_index(dset.params).units, dset.pairs
    if values is not None:
        units = values.segment_values
        pairs = {key: (values[i], values[q]) for key, (i, q) in dset.pairs.items() if key not in skipped}
    broadcast = {key: ((*pair, 0),) for key, pair in pairs.items() if key not in skipped}
    for (s, r_plus), combo in dset.reconstruction.items():
        broadcast[(s, r_plus)] = tuple((*pairs[(s, rest)], e) for rest, e in combo)
    return Lift(units, values, broadcast)


def decode_rows(dset: DeliverySet, cache: CacheContent, k: int,
                lifted: Lift) -> Iterator[tuple[int, int, list[Term]]]:
    """User k's decoding of its file for this demand, one row per coded
    segment pair, in partition order.

    The pairs of the file that user k caches uncoded (its uncoded hits) are
    not rows: they are a membership test against cache.uncoded, made before
    the first row.  Row (target, undo, terms) says that the mix_sum of the
    terms is MIX**undo of the (I, Q) pair of the segments at positions
    target and target + 1 of the dense segment index: the target as user
    k's transform toward the excluded user leaves it, each segment read as
    lifted.units reads it.  Each term is (I, Q, e) over something the user
    holds (an uncoded slot, a cached column or row parity, or a transmitted
    symbol), read through the Lift.  Unless the Lift is the identity, the
    user's parities are lifted once, here, each from its support
    (CacheContent.supports).
    Raises LookupError when an equation needs an item the user does not hold.
    """
    params, demand, exponents = dset.params, dset.demand, dset.exponents
    index = segment_index(params)
    per_file, uncoded = index.per_file, cache.uncoded
    units, values, broadcast = lifted
    if values is None:
        column, row = cache.column, cache.row
    else:
        xor_at = values.xor_at
        column, row = ({key: (xor_at(i), xor_at(q)) for key, (i, q) in supports.items()}
                       for supports in cache.supports)

    def held(position: int, e: int) -> Term:
        if position not in uncoded or position + 1 not in uncoded:
            raise LookupError(f"user {k} did not cache {index.segments[position].label()}")
        return units[position], units[position + 1], e

    base = (demand[k - 1] - 1) * per_file
    hits, equations = _equations(params, k)
    for offset in hits:  # held as they are, so holding them is the whole check
        held(base + offset, 0)
    for offset, s, kind, data in equations:
        target = base + offset
        undo = exponents[k - 1][s - 1]
        if kind == 1:
            r_plus, rests = data
            terms = list(broadcast[(s, r_plus)])
            for i, rest in rests:
                terms.append(held((demand[i - 1] - 1) * per_file + rest, exponents[i - 1][s - 1]))
        else:
            r_set, closures, symbols = data
            terms = [(*column[r_set], 0)]
            for t, combinations in closures:
                terms += closure_terms(column, row, combinations[demand[t - 1] - 1], exponents[t - 1][k - 1])
            for r_plus in symbols:
                terms += broadcast[(k, r_plus)]
        yield target, undo, terms


class PayloadSource:
    """The payload values decode_file lifts through: values (MaskValues)
    maps a mask to the XOR of the source payload over it, as the server
    encodes it.  Only cache.params is read: the arguments stay those that
    perfbench/tracing.py times the class with."""

    def __init__(self, cache: CacheContent, dset: DeliverySet, payload: Payload):
        ints = payload.int_values()
        self.values = MaskValues([ints[seg] for seg in segment_index(cache.params).segments])


def decode_file(dset: DeliverySet, cache: CacheContent, k: int, source: PayloadSource | None = None):
    """decode_rows on the identity lift or on source.values, transforms
    undone, in canonical segment order; each uncoded hit is the held pair.

    Returns [(SegmentId, int)] over every segment of the file: each int is
    the decoded mask, correct iff it is 1 << index[seg], or, with a
    PayloadSource, the decoded payload value.
    """
    index = segment_index(dset.params)
    lifted = lift(dset, None if source is None else source.values)
    rows = {target: (undo, terms) for target, undo, terms in decode_rows(dset, cache, k, lifted)}
    base = (dset.demand[k - 1] - 1) * index.per_file
    out = []
    for target in range(base, base + index.per_file, 2):
        undo, terms = rows.get(target, (0, [(*lifted.units[target : target + 2], 0)]))
        pair = mix(-undo % 3, *mix_sum(terms))
        out += zip(index.segments[target : target + 2], pair)
    return out


# ---------------------------------------------------------------------------
# whole-demand identity


@lru_cache(maxsize=None)
def transformed_sum_layout(
    params: SchemeParams,
) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, tuple[int, ...]], int]]:
    """The demand-independent part of the transformed-sum identity: (columns,
    blocks).  columns[s-1][f-1] holds the I bit of segment (f, r_set, s) for
    every r-subset r_set avoiding s.  blocks maps each such (s, r_set), s
    ascending and r_set in combination order, to the I and Q bits of its
    segments over all files; no two blocks share a bit."""
    index = segment_index(params)
    columns, blocks = [], {}
    for s in params.users:
        column = [0] * params.n_files
        for r_set in itertools.combinations([u for u in params.users if u != s], params.r):
            block = 0
            for f in params.files:
                slot = index.slot(f, r_set, s)
                column[f - 1] |= 1 << slot
                block |= 3 << slot
            blocks[(s, r_set)] = block
        columns.append(tuple(column))
    return tuple(columns), blocks


def transformed_sum_residual(params: SchemeParams, demand: Demand,
                             exponents: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(I, Q) masks of the transformed-sum identity of every (s, r_set) at
    once, with exponents[t-1][s-1] the transform of user t toward s.

    Restricted to the block of (s, r_set) (transformed_sum_layout) it is the
    XOR of the transformed (d(t), r_set, s) segments over ALL users t and the
    column parity (r_set, s) over files, which the identity says is zero: per
    file, the special/mix split cancels.  Each term's bits lie in the I/Q
    pairs of its own blocks, MIX acts inside each pair and blocks never
    overlap, so one mix_sum of K(K+N) wide terms checks every block.
    """
    columns, _ = transformed_sum_layout(params)
    terms = [(mask, mask << 1, 0) for column in columns for mask in column]
    for s, column in enumerate(columns):
        for t, f in enumerate(demand):
            terms.append((column[f - 1], column[f - 1] << 1, exponents[t][s]))
    return mix_sum(terms)


def transformed_sum_identity(params: SchemeParams, d: Sequence[int], s: int, r_set: tuple[int, ...], channel: str) -> bool:
    """One channel of the transformed-sum identity for demand d: the block of
    (s, r_set) in its transformed_sum_residual is zero."""
    demand = require_fully_demanded(params, d)
    idx = CHANNELS.index(channel)
    if s in r_set:
        raise ValueError(f"excluded user {s} inside subset {r_set}")
    block = transformed_sum_layout(params)[1][(s, tuple(sorted(r_set)))]
    return transformed_sum_residual(params, demand, transform_exponents(params, demand))[idx] & block == 0
