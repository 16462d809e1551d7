import hashlib

import pytest
from hypothesis import given, strategies as st

from fdcache.algebra import (
    MaskValues,
    Payload,
    SpanBasis,
    SymbolVec,
    ZERO,
    evaluate,
    segment,
    segment_index,
    span_contains,
    xor,
)
from fdcache.core import SchemeParams
from fdcache.scheme import partition


def seg(file, users, excluded, channel="I"):
    return segment(file, users, excluded, channel)


X = seg(1, (1,), 2)
Y = seg(1, (1,), 3)
Z = seg(2, (2,), 3)


def test_segment_canonicalization():
    assert segment(1, (3, 2), 1, "Q").users == (2, 3)
    with pytest.raises(ValueError):
        segment(1, (2, 2), 1, "I")
    with pytest.raises(ValueError):
        segment(1, (2,), 2, "I")
    with pytest.raises(ValueError):
        segment(1, (2,), 1, "J")


def test_xor_disjoint():
    assert xor(SymbolVec.unit(X), SymbolVec.unit(Y)).support == {X, Y}


def test_xor_cancellation():
    assert xor(SymbolVec.unit(X), SymbolVec.unit(X)) == ZERO
    assert not xor(SymbolVec.unit(X), SymbolVec.unit(X))


def test_xor_overlap():
    a = SymbolVec(frozenset({X, Y}))
    b = SymbolVec(frozenset({Y, Z}))
    assert (a ^ b).support == {X, Z}


def test_of_cancels_duplicates():
    assert SymbolVec.of(X, Y, X) == SymbolVec.unit(Y)


segments_strategy = st.builds(
    seg,
    st.integers(1, 3),
    st.sampled_from([(1,), (2,), (3,)]),
    st.integers(4, 6),
    st.sampled_from(["I", "Q"]),
)
vec_strategy = st.frozensets(segments_strategy, max_size=6).map(SymbolVec)


@given(vec_strategy, vec_strategy, vec_strategy)
def test_xor_group_laws(a, b, c):
    assert a ^ b == b ^ a
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert a ^ ZERO == a
    assert a ^ a == ZERO


def test_evaluate_single():
    payload = Payload(width=1, data={X: b"\xa5"})
    assert evaluate(SymbolVec.unit(X), payload) == b"\xa5"


def test_evaluate_empty_support_is_zero():
    payload = Payload(width=1, data={})
    assert evaluate(ZERO, payload) == b"\x00"


def test_evaluate_xors_bytes():
    payload = Payload(width=1, data={X: b"\xf0", Y: b"\x0f"})
    assert evaluate(SymbolVec(frozenset({X, Y})), payload) == b"\xff"


def test_evaluate_missing_segment():
    payload = Payload(width=1, data={X: b"\x01"})
    with pytest.raises(KeyError):
        evaluate(SymbolVec.unit(Y), payload)


@given(st.frozensets(segments_strategy, min_size=1, max_size=8), st.integers(0, 2**32))
def test_evaluate_is_linear(universe, seed):
    payload = Payload.random(universe, width=2, seed=str(seed))
    pool = sorted(universe)
    a = SymbolVec(frozenset(pool[::2]))
    b = SymbolVec(frozenset(pool[1::3]))
    lhs = evaluate(a ^ b, payload)
    rhs = bytes(x ^ y for x, y in zip(evaluate(a, payload), evaluate(b, payload)))
    assert lhs == rhs


def test_payload_random_is_seed_deterministic():
    universe = [X, Y, Z]
    assert Payload.random(universe, 4, "7").data == Payload.random(universe, 4, "7").data
    assert Payload.random(universe, 4, "7").data != Payload.random(universe, 4, "8").data


def test_span_contains_xor_combination():
    gens = [SymbolVec.unit(X), SymbolVec.unit(Y)]
    assert span_contains(gens, [SymbolVec(frozenset({X, Y}))])


def test_span_cannot_isolate_from_sum():
    gens = [SymbolVec(frozenset({X, Y}))]
    assert not span_contains(gens, [SymbolVec.unit(X)])


def test_span_empty_target_always_contained():
    assert span_contains([], [ZERO])


@given(st.frozensets(segments_strategy, min_size=2, max_size=8), st.randoms(use_true_random=False))
def test_span_contains_random_subset_sums(universe, rng):
    pool = sorted(universe)
    gens = [SymbolVec(frozenset(rng.sample(pool, rng.randint(1, len(pool))))) for _ in range(4)]
    combo = ZERO
    for g in gens:
        if rng.random() < 0.5:
            combo = combo ^ g
    assert span_contains(gens, [combo])


@given(st.frozensets(segments_strategy, min_size=1, max_size=8))
def test_rank_bounds(universe):
    pool = sorted(universe)
    gens = [SymbolVec(frozenset(pool[i::2])) for i in range(2)]
    basis = SpanBasis.over(universe)
    for g in gens:
        basis.insert(g)
    assert basis.rank <= len([g for g in gens if g])
    assert basis.rank <= len(universe)


def test_span_basis_copy_is_independent():
    basis = SpanBasis.over([X, Y])
    basis.insert(SymbolVec.unit(X))
    clone = basis.copy()
    clone.insert(SymbolVec.unit(Y))
    assert clone.rank == 2
    assert basis.rank == 1


def test_span_oracle_running_example_end_to_end():
    # user 1's cache plus the transmitted symbols span all 60 file-1 segments;
    # the cache alone does not
    from fdcache.core import SchemeParams
    from fdcache.scheme import delivery, file_segments, prefetch

    params = SchemeParams(3, 6, 1)
    cache = prefetch(params, 1)
    dset = delivery(params, (1, 1, 1, 1, 2, 3))
    cache_vecs = [SymbolVec.unit(s) for s in sorted(cache.uncoded)]
    cache_vecs += [cache.column_parities[k] for k in sorted(cache.column_parities)]
    cache_vecs += [cache.row_parities[k] for k in sorted(cache.row_parities)]
    received = [
        vec for (s, r_plus, _a), vec in dset.symbols.items() if dset.is_transmitted(s, r_plus)
    ]
    targets = [SymbolVec.unit(s) for s in file_segments(params, 1)]
    assert span_contains(cache_vecs + received, targets)
    assert not span_contains(cache_vecs, targets)


def test_segment_index_is_partition_position():
    for k_users in range(1, 7):
        for n_files in range(1, k_users + 1):
            for r in range(k_users):
                params = SchemeParams(n_files, k_users, r)
                segs = partition(params)
                index = segment_index(params)
                assert index.size == len(segs)
                assert [index[seg] for seg in segs] == list(range(len(segs)))
                assert list(index.segments) == segs


def test_segment_index_rejects_foreign_segments():
    index = segment_index(SchemeParams(2, 3, 1))
    with pytest.raises(KeyError):
        index[seg(3, (1,), 2)]  # file 3 of a two-file system
    with pytest.raises(KeyError):
        index[seg(1, (1, 2), 3)]  # subset of size 2 when r = 1


@given(st.lists(st.integers(0, 35), max_size=6), st.integers(0, 2**32))
def test_mask_values_match_evaluate(positions, seed):
    params = SchemeParams(3, 3, 1)
    index = segment_index(params)
    payload = Payload.random(index.segments, width=2, seed=str(seed))
    ints = payload.int_values()
    values = MaskValues(index, [ints[s] for s in index.segments])
    mask = 0
    for i in positions:
        mask ^= 1 << i
    vec = index.vector(mask)
    assert index.mask(vec) == mask
    assert values[mask].to_bytes(2, "big") == evaluate(vec, payload)


@pytest.mark.parametrize("width", [1, 3, 64])
def test_mask_values_draw_the_payload_stream(width):
    index = segment_index(SchemeParams(3, 6, 1))
    assert list(index.segments) == sorted(index.segments)
    values = MaskValues.random(index, width, "draw")
    payload = Payload.random(index.segments, width, "draw")
    assert [values[unit].to_bytes(width, "little") for unit in index.units] == [
        payload.data[s] for s in index.segments
    ]


def test_payload_random_bytes_pinned():
    # recorded before Payload.random drew its values as ints
    payload = Payload.random(segment_index(SchemeParams(3, 6, 1)).segments, width=5, seed="pin")
    data = b"".join(payload.data[s] for s in sorted(payload.data))
    assert hashlib.sha256(data).hexdigest() == "216f06dc1076f886aa4156d16cb1456e4e642285d39d87b20cd47884fb3a107b"


@pytest.mark.parametrize("width", [0, -1])
def test_payload_draw_rejects_width_below_one(width):
    index = segment_index(SchemeParams(2, 2, 1))
    with pytest.raises(ValueError):
        MaskValues.random(index, width, "0")
    with pytest.raises(ValueError):
        Payload.random(index.segments, width, "0")
