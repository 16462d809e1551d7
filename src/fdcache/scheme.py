"""Cache-aided broadcast construction for fully demanded systems.

Pipeline, per (N, K, r) system:

1. partition     - each file splits into 2(K-r)C(K,r) segments indexed by an
                   r-subset of users, an excluded user, and an I/Q channel:
                   algebra.SegmentIndex.segments, in canonical order.
2. prefetch      - user k caches an uncoded slice plus product-code parities
                   (column parities across files, a pruned set of row parities
                   along each file).  The pruned row parities are linearly
                   dependent on stored ones: each cache sums every row
                   parity's closure once (CacheContent), as parity_combination
                   rewrites it into stored column and row parities.
3. transform     - once demands are known, (I, Q) pairs are mixed by powers
                   MIX**e, e in {0, 1, 2}, of the GF(2) map MIX: (I, Q) ->
                   (I^Q, I), chosen per (requesting user, excluded user) so
                   that even-multiplicity files still cancel in sums.
4. delivery      - broadcast symbols XOR transformed segments over (r+1)-user
                   subsets; symbols whose subset avoids the leader set of the
                   excluded user are linearly dependent on the rest: they go
                   to DeliverySet.skipped, not to pairs, the broadcast.  Each
                   is rebuilt from the subsets that swap some of its members,
                   at most one per file, for the leaders of their files, each
                   under MIX to the sum of its swaps' exponent changes.
5. decode        - each user recovers its file from the cache (uncoded hits),
                   by per-symbol elimination (class 1, s != k), or by aligning
                   parities against broadcast sums (class 2, s == k), then
                   inverts the transform.

Delivery and decoding work on int masks over the dense segment index
(algebra.SegmentIndex), summed as (I, Q) pairs under powers MIX**e; a
cache's uncoded segments are one mask too.  The segment layout lives in
SegmentIndex: offsets is the one enumeration of a file's segment pairs,
and every cache mask (prefetch, row_parity_pair), held mask (_equations)
and the transformed-sum residual is built from its per-user pair masks
inside and excluded, with no walk per file.  A verifier works one excluded
user s at a time, through s's Lift, built once per user and demand: every
item a check of user s reads lies on segments that exclude s (its symbols,
the transmitted ones a skipped one of them is rebuilt from, their member
segments, its column parities, closures and class-2 targets), so each pass
lifts, checks and drops about 1/K of the broadcast.  The identity lift
reads each item as its mask and encodes nothing.  A lift through drawn
values reads it as a payload value, or as its mask in the low index.size
bits with its value above them: lift encodes each transmitted symbol of s
once per demand and sums each skipped one of s once from those
(reconstructed_pair), so every symbol is one lifted (I, Q) pair, and each
user's column parities and closures are lifted from the bit positions
CacheContent keeps.  Each symbol (s, r_plus) carries one class-1 row
(s != k) for each member k of r_plus, and moved to one side every such row
is the same identity: the symbol's lifted pair and its r+1 lifted member
segments, each under MIX**e(t, s), sum to zero.  failing_symbols checks
each identity once per demand, in the pass of s, for all its members
(symbol_identities, the one definition of a class-1 row, which yields the
residual).  In the same pass decode_rows ANDs the segments user s reads
uncoded (its uncoded hits, held as they are, and the other members' segments
of its class-1 rows) once with what its cache lacks, and yields the sum of
each of its class-2 rows (k == s) over a column parity, one closure per
member and broadcast symbols, which rows_hold compares with MIX**undo of
the target pair.  user_pass is that whole pass for one user: lift,
failing_symbols, rows_hold, and the users it fails; a verifier
(harness.verify_demand) makes one call per user and writes no decoder sum.
Every check sums its items where it reads them, from its first item, with
no list of terms: XOR never carries across bits, so a verifier checks an
identity or a row on masks, payload or both with one comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .algebra import (
    CHANNELS,
    MaskValues,
    Payload,
    bit_positions,
    segment,  # noqa: F401  re-exported: perfbench/tracing.py wraps it by name
    segment_index,
)
from .core import (
    Demand,
    SchemeParams,
    leader_sets,
    require_fully_demanded,
)

Term = tuple[int, int, int]  # (I mask, Q mask, e): one summand MIX**e (I, Q) of mix_sum


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
    the mask of its uncoded segments plus (I mask, Q mask) pairs of parities.
    Its closure table sums each row parity (file, r_minus) once from its own
    stored masks (closure_pair), so a corrupted copy has its own closures.
    supports keeps the I and Q positions of the column parities and closures,
    which decoding lifts; closures keeps the masks, and closure_mismatches
    the closures that differ from their row parities, compared once per
    cache object and read by the identity suite.  Each is per object, not
    per params, so a copy made with dataclasses.replace computes its own."""

    params: SchemeParams
    owner: int
    uncoded: int  # mask of the segments cached uncoded
    column: dict[tuple[int, ...], tuple[int, int]]  # r_set -> column parity pair
    row: dict[tuple[int, tuple[int, ...]], tuple[int, int]]  # (file, r_minus) -> row parity pair

    @property
    def m1(self) -> int:
        return self.uncoded.bit_count()

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

    def _closure_pairs(self) -> Iterator[tuple[tuple[int, tuple[int, ...]], tuple[int, int]]]:
        """((file, r_minus), closure_pair) per file and (r-1)-subset of the others; none if r == 0."""
        if self.params.r == 0:
            return
        others = [u for u in self.params.users if u != self.owner]
        for f in self.params.files:
            for r_minus in itertools.combinations(others, self.params.r - 1):
                yield (f, r_minus), closure_pair(self, f, r_minus)

    @cached_property
    def closures(self) -> dict[tuple[int, tuple[int, ...]], tuple[int, int]]:
        """(file, r_minus) -> the (I, Q) masks of its closure."""
        return dict(self._closure_pairs())

    @cached_property
    def closure_mismatches(self) -> tuple[tuple[tuple[int, tuple[int, ...]], tuple[int, int], tuple[int, int]], ...]:
        """((file, r_minus), closure, row parity) for each closure that differs
        from row_parity_pair, in closures order; empty for a sound cache."""
        mismatches = []
        for (f, r_minus), got in self.closures.items():
            want = row_parity_pair(self.params, self.owner, f, r_minus)
            if got != want:
                mismatches.append(((f, r_minus), got, want))
        return tuple(mismatches)

    @cached_property
    def supports(self) -> tuple[dict, dict]:
        """(column, closure): the positions of the I bits and of the Q bits
        of each column parity and closure, keyed as column and closures are."""
        return tuple(
            {key: (tuple(bit_positions(i)), tuple(bit_positions(q))) for key, (i, q) in pairs}
            for pairs in (self.column.items(), self._closure_pairs())
        )


def prefetch(params: SchemeParams, k: int) -> CacheContent:
    """Build user k's cache: uncoded slice, column parities, pruned row parities.

    The uncoded slice is every pair whose subset holds k, in every file.
    Column parity r_set XORs the segments tagged (r_set, excluded=k) over all
    files: that pair's I bit in every file.  Row parity (file, r_minus) is
    row_parity_pair.
    """
    if k not in params.users:
        raise ValueError(f"user {k} outside 1..{params.n_users}")
    index = segment_index(params)
    uncoded = index.in_every_file(index.inside[k - 1])
    column = {}
    for (r_set, s), offset in index.offsets.items():
        if s == k:
            mask = index.in_every_file(1 << offset)
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

    return CacheContent(params=params, owner=k, uncoded=uncoded, column=column, row=row)


def parity_combination(
    params: SchemeParams, k: int, file: int, r_minus: tuple[int, ...]
) -> tuple[frozenset[tuple[int, ...]], frozenset[tuple[int, tuple[int, ...]]]]:
    """Stored parities whose XOR equals row parity (file, r_minus) of user k.

    Returns (column subsets, (file, subset) row keys), channel-independent;
    closure_pair calls it once per key of a cache's closure table.
    User k stores every column parity C(S) and the row parities R(f, m)
    (row_parity_pair) with f >= 2 and m avoiding the anchor peer a.  With O
    the users outside r_minus | {k}, two exact rewrites reach that set, and
    column parities are never rewritten.  File 1 first: R(1, m) is the XOR
    of C(m | {u}) over u in O and of R(f, m) over f >= 2, as both sides hold
    every W[f; m | {u}; k] once.  Anchor second, on rows: the R(f, m - a | {h})
    over h outside m - a | {k} XOR to zero, as each r-subset through m - a
    is reached twice; so if a is in m, R(f, m) is their XOR over h in O.
    Every key comes out once.  The other order, anchor first, reaches each
    column key (r_minus - a) | {h, u}, h != u in O, twice; those cancelled,
    the keys through the anchor left are r_minus | {u}, the same set.
    """
    if params.r == 0:
        raise ValueError("no row parities exist when r == 0")
    if len(r_minus) != params.r - 1:
        raise ValueError(f"subset {r_minus} must have r-1={params.r - 1} users")
    if k in r_minus:
        raise ValueError(f"subset {r_minus} must not contain user {k}")
    if file not in params.files:
        raise ValueError(f"file {file} outside 1..{params.n_files}")

    taken = {k, *r_minus}
    outside = [u for u in params.users if u not in taken]
    columns = frozenset(tuple(sorted((*r_minus, u))) for u in outside) if file == 1 else frozenset()
    row_files = params.files[1:] if file == 1 else [file]
    anchor = anchor_user(k)
    subsets = [r_minus]
    if anchor in r_minus and row_files:  # with one file, file 1 leaves no row
        subsets = [tuple(sorted(h if u == anchor else u for u in r_minus)) for h in outside]
    return columns, frozenset((f, m) for f in row_files for m in subsets)


@lru_cache(maxsize=None)
def row_parity_pair(params: SchemeParams, k: int, file: int, r_minus: tuple[int, ...]) -> tuple[int, int]:
    """(I, Q) masks of row parity (file, r_minus) of user k: the XOR over
    completions u of the file's segments tagged ({u} | r_minus, k).  Those
    are the pairs that exclude k and whose subset holds all of r_minus."""
    index = segment_index(params)
    mask = index.excluded[k - 1] & index.i_bits
    for u in r_minus:
        mask &= index.inside[u - 1]
    mask <<= (file - 1) * index.per_file
    return mask, mask << 1


def closure_pair(cache: CacheContent, file: int, r_minus: tuple[int, ...]) -> tuple[int, int]:
    """(I, Q) masks of row parity (file, r_minus) of the cache owner, XORed
    together from stored parities only.  Stored inputs come back unchanged."""
    columns, rows = parity_combination(cache.params, cache.owner, file, tuple(r_minus))
    return mix_sum([(*cache.column[r_set], 0) for r_set in columns] + [(*cache.row[key], 0) for key in rows])


def row_parity_closure(cache: CacheContent, file: int, r_minus: tuple[int, ...], channel: str) -> int:
    """The mask of closure_pair's channel."""
    return closure_pair(cache, file, r_minus)[CHANNELS.index(channel)]


# ---------------------------------------------------------------------------
# pairwise transform


def transform_exponents(params: SchemeParams, d: Demand) -> tuple[tuple[int, ...], ...]:
    """K x K table whose entry [t-1][s-1] is the exponent e of the transform
    MIX**e of user t toward s.

    Row t is all 0 (the identity) when d(t) has odd multiplicity.  Otherwise
    one special user per s gets MIX**2 = MIX^-1 and everyone else MIX: toward
    an s with d(s) = d(t) the special user is s itself, so the entry is 2 at
    s = t and 1 elsewhere; toward every other s it is the lowest requester
    of d(t), so the entry is 2 if t is that requester and 1 if not.
    """
    rows = []
    for t, f in enumerate(d, start=1):
        if d.count(f) % 2:
            rows.append((0,) * params.n_users)
        else:
            other = 2 if d.index(f) == t - 1 else 1  # t is the lowest requester of f
            row = [1 if g == f else other for g in d]
            row[t - 1] = 2
            rows.append(tuple(row))
    return tuple(rows)


def mix_sum(terms: Iterable[Term]) -> tuple[int, int]:
    """XOR of MIX**e (I, Q) over (I, Q, e) terms of ints, e in {0, 1, 2}.

    MIX maps (I, Q) to (I^Q, I) and generates a 3-cycle: MIX**2 maps (I, Q)
    to (Q, I^Q) and MIX**3 is the identity.  The ints may be masks, payload
    values or lifted ints carrying both: MIX acts on every bit alike.  The
    accumulators start from the first term, mixed, so no value is copied
    into a 0 to start a sum; an empty sum is (0, 0).  This is the written
    definition of the map and of a sum under it.  The verifier's sums do
    not build terms: its branches are also written out, in this module
    only, where each sum reads its items, in reconstructed_pair (a skipped
    symbol's pair), symbol_identities (the identity residual) and
    decode_rows (a class-2 row's closures), and rows_hold applies MIX**undo
    to a target pair; tests pin each to this function over the same terms.
    """
    terms = iter(terms)
    acc_i, acc_q, e = next(terms, (0, 0, 0))
    if e == 1:
        acc_i, acc_q = acc_i ^ acc_q, acc_i
    elif e == 2:
        acc_i, acc_q = acc_q, acc_i ^ acc_q
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
    """The broadcast of one demand, and the symbols it leaves out.

    pairs, the broadcast, maps each transmitted symbol (excluded user,
    (r+1)-subset) to its (I, Q) masks over the dense segment index; skipped
    maps each other symbol to the masks it would carry, which only checks
    read.  leader_bits[s-1] is the user bits sum(1 << u) of the leader set
    of the users other than s (core.leader_sets).
    exponents[t-1][s-1] is the e with MIX**e the transform of user t toward
    s.  swaps[s], for each s that skips a symbol, maps each user x other
    than s to (1 << x ^ 1 << l, exponent change toward s of swapping l for
    x mod 3, 1 << d(x)), l the leader of d(x): the first entry is the XOR
    flip that swaps x for l in a subset's user bits.  subsets maps the user
    bits of every (r+1)-subset to the subset and bits maps it back
    (_subsets_by_bits), so skip_combination grows its swap sets on bits.
    These are the skip rule's inputs: each reader of a skipped symbol calls
    skip_combination where it rebuilds it, from the pairs as they stand, so
    a corrupted pair reaches every rebuild.
    """

    params: SchemeParams
    demand: Demand
    pairs: dict[tuple[int, tuple[int, ...]], tuple[int, int]]
    skipped: dict[tuple[int, tuple[int, ...]], tuple[int, int]]
    leader_bits: list[int]
    exponents: tuple[tuple[int, ...], ...]
    swaps: dict[int, dict[int, tuple[int, int, int]]]
    subsets: dict[int, tuple[int, ...]]
    bits: dict[tuple[int, ...], int]

    @property
    def transmitted_count(self) -> int:
        """Symbols actually sent, counting both channels."""
        return 2 * len(self.pairs)

    def rate(self) -> Fraction:
        return Fraction(self.transmitted_count, segment_index(self.params).per_file)


# MIX**e of the unit pair (I, Q) = (1, 2): shifted left by a segment pair's
# position p, it is MIX**e of that pair's unit masks (1 << p, 1 << p + 1);
# delivery packs each pair into one int, Q above the index's size bits
_MIXED_UNIT = tuple(mix(e, 1, 2) for e in range(3))


@lru_cache(maxsize=None)
def _symbol_layout(
    params: SchemeParams,
) -> tuple[tuple[tuple[tuple[int, tuple[int, ...]], int, tuple[tuple[int, int], ...]], ...], ...]:
    """The demand-independent part of every broadcast symbol, grouped by
    excluded user: entry s - 1 holds the symbols of s in delivery order, as
    ((s, r_plus), user bits of r_plus, ((t - 1, position of W^I[1; r_plus -
    t; s]), ...)), the user bits sum(1 << u) over u in r_plus.  The groups
    chained are delivery order.  A demand moves each position to file d(t)
    by adding (d(t) - 1) * per_file."""
    offsets = segment_index(params).offsets
    # the subsets of all users that avoid s are those of the others, in order
    return tuple(
        tuple(((s, r_plus), bits, tuple((t - 1, offsets[(tuple(u for u in r_plus if u != t), s)]) for t in r_plus))
              for bits, r_plus in _subsets_by_bits(params).items() if not bits >> s & 1)
        for s in params.users
    )


@lru_cache(maxsize=None)
def _subsets_by_bits(params: SchemeParams) -> dict[int, tuple[int, ...]]:
    """Every (r+1)-subset of users, sorted, keyed by its user bits sum(1 << u)."""
    return {sum(1 << u for u in r_plus): r_plus for r_plus in itertools.combinations(params.users, params.r + 1)}


@lru_cache(maxsize=None)
def _bits_by_subset(params: SchemeParams) -> dict[tuple[int, ...], int]:
    """The inverse of _subsets_by_bits: each (r+1)-subset's user bits."""
    return {r_plus: bits for bits, r_plus in _subsets_by_bits(params).items()}


def delivery(params: SchemeParams, d: Sequence[int]) -> DeliverySet:
    """Build every broadcast symbol for a fully demanded vector.

    Symbol (s, r_plus) XORs the transformed segments W_{d(t), r_plus - t, s}
    over t in r_plus; it is skipped when r_plus avoids the leader set of s.
    The r+1 terms of a symbol lie on distinct segment pairs and MIX acts
    inside each pair, so each term is the mixed unit pair _MIXED_UNIT[e]
    shifted to its segment's position.  A symbol's pair is summed packed in
    one int, its I mask in the low index.size bits and its Q mask above
    them: the table shifted[t-1][s-1] holds the packed pair units[e] for
    e = e(t, s) already moved to file d(t), once per demand, so each term
    costs one shift and one XOR.  XOR never carries and every position lies
    below index.size, so the halves split once per symbol without mixing.
    The skip test is one AND of the leader set's user bits with the
    symbol's (_symbol_layout).
    """
    demand = require_fully_demanded(params, d)
    index = segment_index(params)
    size = index.size
    exponents = transform_exponents(params, demand)
    units = [unit_i | unit_q << size for unit_i, unit_q in _MIXED_UNIT]
    shifted = [[units[e] << base for e in row]
               for row, base in zip(exponents, [(f - 1) * index.per_file for f in demand])]
    low = (1 << size) - 1
    sets = leader_sets(params, demand)
    leader_bits = [sum(1 << u for u in sets[s]) for s in params.users]
    pairs: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
    skipped: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}  # in layout order, which is sorted order
    for s, group in enumerate(_symbol_layout(params)):  # s and t count from 0 here
        for key, bits, layout in group:
            acc = 0
            for t, at in layout:
                acc ^= shifted[t][s] << at
            (pairs if leader_bits[s] & bits else skipped)[key] = acc & low, acc >> size
    swaps = {}
    for s in dict.fromkeys(s for s, _ in skipped):  # only skip_combination reads them
        toward = [row[s - 1] for row in exponents]
        leader_of = {demand[lead - 1]: lead for lead in sets[s]}
        swaps[s] = {x: (1 << x ^ 1 << leader_of[f], (toward[x - 1] - toward[leader_of[f] - 1]) % 3, 1 << f)
                    for x, f in enumerate(demand, start=1) if x != s}
    return DeliverySet(
        params=params,
        demand=demand,
        pairs=pairs,
        skipped=skipped,
        leader_bits=leader_bits,
        exponents=exponents,
        swaps=swaps,
        subsets=_subsets_by_bits(params),
        bits=_bits_by_subset(params),
    )


def skip_combination(
    dset: DeliverySet, s: int, r_plus: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Transmitted subsets and MIX exponents reconstructing a skipped symbol:
    (rest, e) references to the pairs[(s, rest)] whose MIX**e-weighted sum
    rebuilds it, one rest per set of swaps.  reconstructed_pair, which
    lift and the identity suite call, reads it once per skipped symbol.

    Over the block B = leaders | r_plus, the leaders of s (leader_bits[s-1]),
    the symbol pairs (Y^I, Y^Q)_{B - V} of the one-requester-per-file
    selections V sum to zero once each is weighted by MIX^h(V), h(V) the sum
    of its members' transform logs toward s mod 3: the two occurrences of a
    segment across selections swapping one same-file requester carry equal
    total exponents and cancel.  (Unweighted XOR fails once an
    even-multiplicity file other than d(s) puts its leader inside a
    selection.)  The leader selection leaves r_plus itself, so the skipped
    pair is the sum of the other terms, each weighted by h(V) - h(leaders).
    Every file requested inside B has its leader in B, so each other V swaps
    some members x of r_plus, at most one per file, for the leaders of their
    files (swaps[s]), and that weight is the sum of those swaps' exponent
    changes.  Each B - V grows from r_plus's own user bits (dset.bits) at
    exponent 0: member by member, every entry so far that has not swapped x's
    file appends its XOR with x's flip, and every entry is read back from
    dset.subsets.  The entry with no swap, first, is r_plus and is dropped.
    Raises ValueError when (s, r_plus) is a transmitted symbol or no
    broadcast symbol of the demand.
    """
    if (s, r_plus) not in dset.skipped:
        if (s, r_plus) in dset.pairs:
            raise ValueError(f"symbol (s={s}, subset={r_plus}) was transmitted, nothing to reconstruct")
        raise ValueError(f"(s={s}, subset={r_plus}) is no broadcast symbol of this demand")
    swaps = dset.swaps[s]
    grown = [(dset.bits[r_plus], 0, 0)]  # (user bits of B - V, exponent, bits of the files swapped)
    for x in r_plus:
        flip, delta, bit = swaps[x]
        for rest, e, used in grown[:]:
            if not used & bit:
                grown.append((rest ^ flip, (e + delta) % 3, used | bit))
    lead, subsets = dset.leader_bits[s - 1], dset.subsets
    combination = []
    for rest, e, _ in grown[1:]:
        if not rest & lead:  # cannot happen: each swap brings a leader in
            raise RuntimeError(f"reconstruction of (s={s}, subset={r_plus}) referenced a skipped symbol")
        combination.append((subsets[rest], e))
    return tuple(combination)


def reconstructed_pair(
    dset: DeliverySet,
    s: int,
    r_plus: tuple[int, ...],
    pairs: Mapping[tuple[int, tuple[int, ...]], tuple[int, int]] | None = None,
) -> tuple[int, int]:
    """(I, Q) pair of a skipped symbol, summed from the pairs that
    skip_combination names for it, each under MIX**e: pairs maps
    transmitted symbols as dset.pairs does, and is dset.pairs, the masks,
    when None; lift passes its lifted ints.  The sum starts from the first
    named pair, mixed, and adds the others in place, one skip_combination
    call per rebuild.  Raises ValueError when (s, r_plus) is a transmitted
    symbol or no broadcast symbol of the demand."""
    if pairs is None:
        pairs = dset.pairs
    combination = iter(skip_combination(dset, s, r_plus))
    rest, e = next(combination)  # a skipped symbol swaps at least one member
    acc_i, acc_q = pairs[(s, rest)]
    if e == 1:
        acc_i, acc_q = acc_i ^ acc_q, acc_i
    elif e == 2:
        acc_i, acc_q = acc_q, acc_i ^ acc_q
    for rest, e in combination:
        i_val, q_val = pairs[(s, rest)]
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


def reconstruct_skipped(dset: DeliverySet, s: int, r_plus: tuple[int, ...], channel: str) -> int:
    """The mask of one channel of reconstructed_pair."""
    return reconstructed_pair(dset, s, r_plus)[CHANNELS.index(channel)]


# ---------------------------------------------------------------------------
# decoding: one pass per excluded user s (user_pass), each through s's Lift:
# its symbol identities, then its class-2 rows


@lru_cache(maxsize=None)
def _equations(params: SchemeParams, k: int) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """User k's decoding of a file whatever the demand, as (held, rows), in
    file-1 coordinates: a demand moves a mask or an offset to file f by
    shifting it (f - 1) * per_file.

    held[i-1] masks the segment pairs of file d(i) that user k must cache
    uncoded.  For i == k they are its uncoded hits, the pairs (r_set, s)
    with k in r_set, held as they are.  For i != k they are what its class-1
    rows (s != k, k outside r_set) read as member i's term, W[d(i);
    r_plus - i; s] with r_plus = r_set | {k} and i in r_set: the hits whose
    subset and excluded user both avoid i (index pair masks).  A class-1 row is
    its symbol's identity (failing_symbols), so holding is all it leaves per
    user.  rows holds the class-2 row (s == k) of each r_set avoiding k, in
    partition order, as (offset, r_set, ((t, r_set - t), ...), ((k, r_set |
    {h}), ...)): the column parity, one transformed closure (d(t), r_set - t)
    of the cache's closure table per member t, and the key of every
    broadcast symbol (k, r_set | {h}).
    """
    index = segment_index(params)
    inside, excluded = index.inside, index.excluded
    hits = inside[k - 1]
    held = tuple(hits if i == k else hits & ~(inside[i - 1] | excluded[i - 1]) for i in params.users)
    subsets = _subsets_by_bits(params)
    rows = []
    for (r_set, s), offset in index.offsets.items():
        if s == k:
            members = tuple((t, r_set[:i] + r_set[i + 1:]) for i, t in enumerate(r_set))
            bits = sum(1 << u for u in r_set)
            symbols = tuple((k, subsets[bits | 1 << h]) for h in params.users if h != k and not bits >> h & 1)
            rows.append((offset, r_set, members, symbols))
    return held, tuple(rows)


class Lift(NamedTuple):
    """The items of one demand that the checks of excluded user `user` read,
    as lifted ints: units[i] lifts segment position i as a user holds it
    uncoded, encoded[i] as the server encodes it (the drawn values, or the
    unit masks under the identity lift; lift makes both one sequence), and
    broadcast maps each symbol (user, r_plus) to its one lifted (I, Q) pair,
    a skipped one's summed once by reconstructed_pair.  It holds no other
    user's symbols: a verifier builds one per user and drops it before the
    next."""

    user: int
    units: Sequence[int]
    encoded: Sequence[int]
    broadcast: dict[tuple[int, tuple[int, ...]], tuple[int, int]]


class MissingSegmentError(LookupError):
    """A user does not hold a segment that its decoding reads uncoded."""


def lift(dset: DeliverySet, s: int, values: MaskValues | None = None) -> Lift:
    """The lift through values of excluded user s's symbols, in one pass
    over s's slice of the layout: each transmitted pair (s, r_plus) is
    encoded once, and each skipped one of s is summed from those lifted
    pairs by reconstructed_pair, whose one skip_combination call names only
    transmitted pairs (s, rest).  With no values it is the identity lift:
    segment i lifts to 1 << i, so the pairs are read as they are."""
    params, pairs = dset.params, dset.pairs
    if not 0 < s <= params.n_users:
        raise ValueError(f"user {s} outside 1..{params.n_users}")
    if values is None:
        units = segment_index(params).units
    else:
        units, encode = values.segment_values, values.__getitem__
    broadcast: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
    skipped = []  # the r_plus of each skipped symbol of s
    for key, _bits, _layout in _symbol_layout(params)[s - 1]:
        pair = pairs.get(key)
        if pair is None:
            skipped.append(key[1])
        elif values is None:
            broadcast[key] = pair
        else:
            broadcast[key] = encode(pair[0]), encode(pair[1])
    for r_plus in skipped:
        broadcast[(s, r_plus)] = reconstructed_pair(dset, s, r_plus, broadcast)
    return Lift(s, units, units, broadcast)


def symbol_identities(dset: DeliverySet, lifted: Lift) -> Iterator[tuple[tuple[int, tuple[int, ...]], tuple[int, int]]]:
    """The identity of each broadcast symbol (s, r_plus) of s = lifted.user,
    in delivery order, as (key, residual): the symbol's lifted pair XOR one
    term MIX**e(t, s) W[d(t); r_plus - t; s] per member t of r_plus, in
    order, each segment read as lifted.units reads it, summed in place from
    the pair.  The residual is (0, 0) exactly when every member's class-1
    row of the symbol holds: user t's row says that the other terms sum to
    MIX**e(t, s) of its own segment pair."""
    per_file = segment_index(dset.params).per_file
    base = [(f - 1) * per_file for f in dset.demand]
    s = lifted.user - 1  # s and t count from 0 here
    toward = [row[s] for row in dset.exponents]
    units, broadcast = lifted.units, lifted.broadcast
    for key, _bits, layout in _symbol_layout(dset.params)[s]:
        acc_i, acc_q = broadcast[key]
        for t, at in layout:
            at += base[t]
            i_val, q_val, e = units[at], units[at + 1], toward[t]
            if e == 0:
                acc_i ^= i_val
                acc_q ^= q_val
            elif e == 1:
                acc_i ^= i_val ^ q_val
                acc_q ^= i_val
            else:
                acc_i ^= q_val
                acc_q ^= i_val ^ q_val
        yield key, (acc_i, acc_q)


def failing_symbols(dset: DeliverySet, lifted: Lift) -> list[tuple[int, tuple[int, ...]]]:
    """The keys (s, r_plus) of s = lifted.user whose symbol identity leaves
    a residual other than (0, 0), in delivery order: one check per symbol
    and demand decides the class-1 row of the symbol of every member of
    r_plus."""
    return [key for key, residual in symbol_identities(dset, lifted) if residual != (0, 0)]


def decode_rows(dset: DeliverySet, cache: CacheContent, lifted: Lift) -> Iterator[tuple[int, int, tuple[int, int]]]:
    """The class-2 rows of user k = cache.owner (excluded user k) for this
    demand, in partition order, read through k's own Lift, after one check
    that the user holds every segment it reads uncoded.

    Its uncoded hits and the members its class-1 rows read (_equations'
    held masks, shifted to their files) are ANDed once with what the cache
    lacks: this holding check reads masks only, the one check of user k that
    reads segments of other users' symbols.  A class-1 row itself is its
    symbol's identity, which failing_symbols checks in the pass of the
    symbol's excluded user.  Row (target, undo, (I, Q)) says that the sum
    (I, Q) is MIX**undo of the pair of the segments at positions target and
    target + 1 of the dense segment index: the target as user k's transform
    toward itself leaves it, each segment read as lifted.units reads it.
    The sum starts from the row's cached column parity, adds one closure of
    the cache's table per member t under MIX**e(t, k), and XORs the lifted
    pair of each broadcast symbol (k, .) it reads, all in place.  Columns
    and closures are lifted here, from their positions
    (CacheContent.supports) through the server's per-segment encoding
    (lifted.encoded), never the values the user holds (lifted.units).  Each
    column is lifted by its one row, and each closure once, when a row first
    reads it, so the closures of files no member requests are never lifted.
    Raises ValueError, naming both users, when lifted is another user's
    Lift, and MissingSegmentError, naming the first missing segment, when
    the user does not hold a segment that its decoding reads uncoded.
    """
    params, demand, exponents, k = dset.params, dset.demand, dset.exponents, cache.owner
    if lifted.user != k:
        raise ValueError(f"the rows of user {k} read its own Lift, not the Lift of user {lifted.user}")
    index = segment_index(params)
    per_file = index.per_file
    held, rows = _equations(params, k)
    needed = 0
    for mask, f in zip(held, demand):
        needed |= mask << (f - 1) * per_file
    missing = needed & ~cache.uncoded
    if missing:
        raise MissingSegmentError(f"user {k} did not cache {index.segments[(missing & -missing).bit_length() - 1].label()}")
    encoded, broadcast = lifted.encoded, lifted.broadcast
    columns, closures = cache.supports
    closure = {}  # lifted as a row first reads it: a demand reads only its files' closures
    base = (demand[k - 1] - 1) * per_file
    toward = [row[k - 1] for row in exponents]
    for offset, r_set, members, symbols in rows:
        acc_i, acc_q = _lift_pair(columns[r_set], encoded)  # each column is read by its one row
        for t, r_minus in members:
            key = (demand[t - 1], r_minus)
            pair = closure.get(key)
            if pair is None:
                pair = closure[key] = _lift_pair(closures[key], encoded)
            i_val, q_val = pair
            e = toward[t - 1]
            if e == 0:
                acc_i ^= i_val
                acc_q ^= q_val
            elif e == 1:
                acc_i ^= i_val ^ q_val
                acc_q ^= i_val
            else:
                acc_i ^= q_val
                acc_q ^= i_val ^ q_val
        for key in symbols:
            i_val, q_val = broadcast[key]
            acc_i ^= i_val
            acc_q ^= q_val
        yield base + offset, toward[k - 1], (acc_i, acc_q)


def _lift_pair(positions: tuple[tuple[int, ...], tuple[int, ...]], encoded: Sequence[int]) -> tuple[int, int]:
    """The (I, Q) pair of a support (CacheContent.supports): the XOR of encoded
    over the I positions, then over the Q positions."""
    i_at, q_at = positions
    i_val = q_val = 0
    if i_at:  # the first value starts the XOR, so none is copied into a 0
        i_val = encoded[i_at[0]]
        for position in i_at[1:]:
            i_val ^= encoded[position]
    if q_at:
        q_val = encoded[q_at[0]]
        for position in q_at[1:]:
            q_val ^= encoded[position]
    return i_val, q_val


def rows_hold(dset: DeliverySet, cache: CacheContent, lifted: Lift) -> bool:
    """The row verdict of user k = cache.owner, read through k's own Lift:
    decode_rows checks that it holds every segment it reads uncoded, and
    each class-2 row's sum must be MIX**undo of its target pair, written out
    here as in mix_sum, so one comparison checks whatever the engine lifted.
    Each row is checked as decode_rows makes it, up to the first that fails.
    Its class-1 rows are the identities of symbols of other users, which
    their passes check (user_pass).  Only a MissingSegmentError fails it:
    other errors are bugs."""
    units = lifted.units
    try:
        for target, undo, got in decode_rows(dset, cache, lifted):
            i_val, q_val = units[target], units[target + 1]
            if undo == 1:
                i_val, q_val = i_val ^ q_val, i_val
            elif undo == 2:
                i_val, q_val = q_val, i_val ^ q_val
            if got != (i_val, q_val):
                return False
    except MissingSegmentError:  # the decoding needs an item the user does not hold
        return False
    return True


def user_pass(dset: DeliverySet, cache: CacheContent, values: MaskValues | None) -> set[int]:
    """One excluded user's pass: lift the symbols of k = cache.owner, check
    their identities and k's class-2 rows, and return the users the pass
    fails: every member of a subset whose symbol fails its identity (the
    member's class-1 row), and k when its rows fail (rows_hold).  The Lift
    lives in this call only, so a verifier holds one user's encoded
    broadcast at a time."""
    lifted = lift(dset, cache.owner, values)
    failed = {k for _, r_plus in failing_symbols(dset, lifted) for k in r_plus}
    if not rows_hold(dset, cache, lifted):
        failed.add(cache.owner)
    return failed


class PayloadSource:
    """The payload values decode_file lifts through: values (MaskValues)
    maps a mask to the XOR of the source payload over it, as the server
    encodes it.  Only cache.params is read: the arguments stay those that
    perfbench/tracing.py times the class with."""

    def __init__(self, cache: CacheContent, dset: DeliverySet, payload: Payload):
        ints = payload.int_values()
        self.values = MaskValues([ints[seg] for seg in segment_index(cache.params).segments])


def decode_file(dset: DeliverySet, cache: CacheContent, k: int, source: PayloadSource | None = None):
    """User k's file decoded on the identity lift or on source.values,
    transforms undone, in canonical segment order.  Each uncoded hit is the
    held pair, each class-2 target its decode_rows sum, and each class-1
    target MIX**-e of its symbol's identity residual (symbol_identities)
    with user k's own member term, MIX**e of its segment pair as the Lift's
    units read it, XORed back out, e = e(k, s).  One excluded user's Lift is
    held at a time.

    Returns [(SegmentId, int)] over every segment of the file: each int is
    the decoded mask, correct iff it is 1 << index[seg], or, with a
    PayloadSource, the decoded payload value.
    Raises MissingSegmentError when the user lacks a segment it reads.
    """
    index = segment_index(dset.params)
    values = None if source is None else source.values
    units = index.units if values is None else values.segment_values
    base = (dset.demand[k - 1] - 1) * index.per_file
    pairs = {}
    for s in dset.params.users:
        lifted = lift(dset, s, values)
        if s == cache.owner:
            for target, undo, pair in decode_rows(dset, cache, lifted):
                pairs[target] = mix(-undo % 3, *pair)
        e = dset.exponents[k - 1][s - 1]
        for (_, r_plus), (res_i, res_q) in symbol_identities(dset, lifted):
            if k in r_plus:
                target = base + index.offsets[(tuple(u for u in r_plus if u != k), s)]
                own_i, own_q = mix(e, units[target], units[target + 1])
                pairs[target] = mix(-e % 3, res_i ^ own_i, res_q ^ own_q)
        del lifted  # dropped before the next user's is built
    out = []
    for target in range(base, base + index.per_file, 2):
        out += zip(index.segments[target : target + 2], pairs.get(target, units[target : target + 2]))
    return out


# ---------------------------------------------------------------------------
# whole-demand identity


def transformed_sum_residual(params: SchemeParams, demand: Demand,
                             exponents: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(I, Q) masks of the transformed-sum identity of every (s, r_set) at
    once, with exponents[t-1][s-1] the transform of user t toward s.

    Restricted to the block of (s, r_set), its pair's I and Q bits in every
    file, it is the XOR of the transformed (d(t), r_set, s) segments over
    ALL users t and the column parity (r_set, s) over files, which the
    identity says is zero: per file, the special/mix split cancels.  Blocks
    never overlap and MIX acts inside each pair, so one mix_sum of K*K+1
    wide terms checks every block: every I bit, the column parities of all
    blocks (each pair excludes one user), and per (t, s) the I bits of
    SegmentIndex.excluded[s-1] in file d(t).
    """
    index = segment_index(params)
    every_i = index.in_every_file(index.i_bits)
    terms = [(every_i, every_i << 1, 0)]
    for s, excluded in enumerate(index.excluded):
        column = excluded & index.i_bits
        for t, f in enumerate(demand):
            mask = column << (f - 1) * index.per_file
            terms.append((mask, mask << 1, exponents[t][s]))
    return mix_sum(terms)


def transformed_sum_identity(params: SchemeParams, d: Sequence[int], s: int, r_set: tuple[int, ...], channel: str) -> bool:
    """One channel of the transformed-sum identity for demand d: the block of
    (s, r_set) in its transformed_sum_residual is zero."""
    demand = require_fully_demanded(params, d)
    idx = CHANNELS.index(channel)
    if s in r_set:
        raise ValueError(f"excluded user {s} inside subset {r_set}")
    index = segment_index(params)
    block = index.in_every_file(3 << index.offsets[(tuple(sorted(r_set)), s)])
    return transformed_sum_residual(params, demand, transform_exponents(params, demand))[idx] & block == 0
