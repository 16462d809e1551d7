import hashlib

import pytest
from hypothesis import given, strategies as st

from fdcache import algebra
from fdcache.algebra import (
    MaskValues,
    Payload,
    SpanBasis,
    bit_positions,
    segment,
    segment_index,
)
from fdcache.core import SchemeParams
from fdcache.scheme import partition


def seg(file, users, excluded, channel="I"):
    return segment(file, users, excluded, channel)


X = seg(1, (1,), 2)
Y = seg(1, (1,), 3)
Z = seg(2, (2,), 3)
INDEX = segment_index(SchemeParams(3, 6, 1))  # holds X, Y, Z and every drawn segment


def mask_of(segments):
    """XOR of the unit masks of the segments; repeated segments cancel."""
    out = 0
    for s in segments:
        out ^= 1 << INDEX[s]
    return out


def support_of(mask):
    """The segments on the bits of a mask."""
    return {INDEX.segments[i] for i in bit_positions(mask)}


def values_of(by_segment):
    """MaskValues over INDEX with the given segment values and every other one 0."""
    values = [0] * INDEX.size
    for s, value in by_segment.items():
        values[INDEX[s]] = value
    return MaskValues(values)


def spans(generators, targets):
    """True iff every target row lies in the GF(2) span of the generator rows."""
    basis = SpanBasis()
    for row in generators:
        basis.insert_row(row)
    return all(basis.residual(row) == 0 for row in targets)


def test_segment_canonicalization():
    assert segment(1, (3, 2), 1, "Q").users == (2, 3)
    with pytest.raises(ValueError):
        segment(1, (2, 2), 1, "I")
    with pytest.raises(ValueError):
        segment(1, (2,), 2, "I")
    with pytest.raises(ValueError):
        segment(1, (2,), 1, "J")


def test_xor_disjoint():
    assert support_of(mask_of([X]) ^ mask_of([Y])) == {X, Y}


def test_xor_cancellation():
    assert mask_of([X]) ^ mask_of([X]) == 0
    assert support_of(0) == set()


def test_xor_overlap():
    assert support_of(mask_of([X, Y]) ^ mask_of([Y, Z])) == {X, Z}


def test_of_cancels_duplicates():
    assert support_of(mask_of([X, Y, X])) == {Y}


segments_strategy = st.builds(
    seg,
    st.integers(1, 3),
    st.sampled_from([(1,), (2,), (3,)]),
    st.integers(4, 6),
    st.sampled_from(["I", "Q"]),
)
support_strategy = st.frozensets(segments_strategy, max_size=6)


@given(support_strategy, support_strategy)
def test_xor_group_laws(a, b):
    # reading a mask's support is a bijection that maps XOR of masks to
    # symmetric difference
    assert support_of(mask_of(a) ^ mask_of(b)) == a ^ b
    assert mask_of(support_of(mask_of(a))) == mask_of(a)


def test_evaluate_single():
    assert values_of({X: 0xA5})[mask_of([X])] == 0xA5


def test_evaluate_empty_support_is_zero():
    assert MaskValues([0xFF] * INDEX.size)[0] == 0


def test_evaluate_xors_bytes():
    assert values_of({X: 0xF0, Y: 0x0F})[mask_of([X, Y])] == 0xFF


def test_evaluate_missing_segment():
    with pytest.raises(IndexError):
        values_of({X: 1})[1 << INDEX.size]  # a position past the index


@given(support_strategy, support_strategy, st.integers(0, 2**32))
def test_evaluate_is_linear(a, b, seed):
    values = MaskValues.random(INDEX, 2, str(seed))
    assert values[mask_of(a) ^ mask_of(b)] == values[mask_of(a)] ^ values[mask_of(b)]


def test_payload_random_is_seed_deterministic():
    universe = [X, Y, Z]
    assert Payload.random(universe, 4, "7").data == Payload.random(universe, 4, "7").data
    assert Payload.random(universe, 4, "7").data != Payload.random(universe, 4, "8").data


def test_span_contains_xor_combination():
    assert spans([mask_of([X]), mask_of([Y])], [mask_of([X, Y])])


def test_span_cannot_isolate_from_sum():
    assert not spans([mask_of([X, Y])], [mask_of([X])])


def test_span_empty_target_always_contained():
    assert spans([], [0])


@given(st.frozensets(segments_strategy, min_size=2, max_size=8), st.randoms(use_true_random=False))
def test_span_contains_random_subset_sums(universe, rng):
    pool = sorted(universe)
    gens = [mask_of(rng.sample(pool, rng.randint(1, len(pool)))) for _ in range(4)]
    combo = 0
    for g in gens:
        if rng.random() < 0.5:
            combo ^= g
    assert spans(gens, [combo])


@given(st.frozensets(segments_strategy, min_size=1, max_size=8))
def test_rank_bounds(universe):
    pool = sorted(universe)
    gens = [mask_of(pool[i::2]) for i in range(2)]
    basis = SpanBasis()
    for g in gens:
        basis.insert_row(g)
    assert basis.rank <= len([g for g in gens if g])
    assert basis.rank <= len(universe)


@given(
    st.lists(st.integers(0, 2**40), max_size=24),
    st.lists(st.integers(0, 2**40), max_size=24),
    st.lists(st.integers(0, 2**40), max_size=8),
)
def test_row_loops_match_row_by_row(base, rows, targets):
    # insert_rows and spans are insert_row and residual over many rows at once
    one_by_one = SpanBasis()
    for row in base + rows:
        one_by_one.insert_row(row)
    at_once = SpanBasis()
    at_once.insert_rows(base)
    at_once.insert_rows(iter(rows))
    assert at_once.pivots == one_by_one.pivots
    assert at_once.spans(targets) == all(one_by_one.residual(row) == 0 for row in targets)
    assert at_once.spans(base + rows)


def test_span_basis_copy_is_independent():
    basis = SpanBasis()
    basis.insert_row(mask_of([X]))
    clone = basis.copy()
    clone.insert_row(mask_of([Y]))
    assert clone.rank == 2
    assert basis.rank == 1


def test_span_oracle_running_example_end_to_end():
    # user 1's cache plus the transmitted symbols span all 60 file-1 segments;
    # the cache alone does not
    from fdcache.scheme import delivery, file_segments, prefetch

    params = SchemeParams(3, 6, 1)
    cache = prefetch(params, 1)
    dset = delivery(params, (1, 1, 1, 1, 2, 3))
    cache_rows = [1 << i for i in sorted(cache.uncoded)]
    for parities in (cache.column, cache.row):
        cache_rows += [mask for key in sorted(parities) for mask in parities[key]]
    received = [mask for key, pair in dset.pairs.items() if dset.is_transmitted(*key) for mask in pair]
    targets = [mask_of([s]) for s in file_segments(params, 1)]
    assert spans(cache_rows + received, targets)
    assert not spans(cache_rows, targets)


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


def test_segment_index_refuses_a_system_past_the_ceiling(monkeypatch):
    def no_build(*args):
        raise AssertionError("built a segment index")

    monkeypatch.setattr(algebra.SegmentIndex, "__init__", no_build)
    with pytest.raises(ValueError, match="411840 segments"):
        segment_index(SchemeParams(2, 16, 8))  # 2 * 2(16 - 8) * C(16, 8)


def test_segment_ceiling_is_inclusive(monkeypatch):
    params = SchemeParams(2, 5, 2)  # 2 * 2(5 - 2) * C(5, 2) = 120 segments
    build = segment_index.__wrapped__  # past the cache, so every call checks
    monkeypatch.setattr(algebra, "MAX_SEGMENTS", 119)
    with pytest.raises(ValueError, match="120 segments"):
        build(params)
    monkeypatch.setattr(algebra, "MAX_SEGMENTS", 120)
    assert build(params).size == 120


@pytest.mark.parametrize("k,symbols", [(500, 249500), (2000, 3998000)])
def test_segment_index_refuses_a_delivery_past_the_ceiling(monkeypatch, k, symbols):
    def no_build(*args):
        raise AssertionError("built a segment index")

    monkeypatch.setattr(algebra.SegmentIndex, "__init__", no_build)
    # (2, K, 0) has only 4K segments, within MAX_SEGMENTS, but K(K-1) symbols
    with pytest.raises(ValueError, match=f"{symbols} broadcast symbols over {4 * k} segments"):
        segment_index(SchemeParams(2, k, 0))


def test_symbol_segment_ceiling_is_inclusive(monkeypatch):
    params = SchemeParams(2, 5, 2)  # 120 segments, 5 * C(4, 3) = 20 symbols
    build = segment_index.__wrapped__  # past the cache, so every call checks
    monkeypatch.setattr(algebra, "MAX_SYMBOL_SEGMENTS", 2399)
    with pytest.raises(ValueError, match="20 broadcast symbols over 120 segments"):
        build(params)
    monkeypatch.setattr(algebra, "MAX_SYMBOL_SEGMENTS", 2400)
    assert build(params).size == 120


def test_segment_index_rejects_foreign_segments():
    index = segment_index(SchemeParams(2, 3, 1))
    with pytest.raises(KeyError):
        index[seg(3, (1,), 2)]  # file 3 of a two-file system
    with pytest.raises(KeyError):
        index[seg(1, (1, 2), 3)]  # subset of size 2 when r = 1


@given(st.lists(st.integers(0, 35), max_size=6), st.integers(0, 2**32))
def test_mask_values_match_evaluate(positions, seed):
    # a mask's value is the XOR of the payload over the segments on its bits
    index = segment_index(SchemeParams(3, 3, 1))
    ints = Payload.random(index.segments, width=2, seed=str(seed)).int_values()
    values = MaskValues([ints[s] for s in index.segments])
    mask = 0
    for i in positions:
        mask ^= 1 << i
    want = 0
    for s in {index.segments[i] for i in bit_positions(mask)}:
        want ^= ints[s]
    assert values[mask] == want


@pytest.mark.parametrize("width", [1, 3, 64])
def test_mask_values_draw_the_payload_stream(width):
    index = segment_index(SchemeParams(3, 6, 1))
    assert list(index.segments) == sorted(index.segments)
    values = MaskValues.random(index, width, "draw")
    payload = Payload.random(index.segments, width, "draw")
    assert [values[unit].to_bytes(width, "little") for unit in index.units] == [
        payload.data[s] for s in index.segments
    ]
    # lifted, each value sits above its unit mask
    lifted = MaskValues.random(index, width, "draw", masks=True)
    assert lifted.segment_values == [values[unit] << index.size | unit for unit in index.units]


@pytest.mark.parametrize("width", [1, 3, 64])
def test_payload_ints_are_the_mask_values_draw(width):
    # one seeded payload is one set of ints on the decode_file and the verify path
    index = segment_index(SchemeParams(3, 6, 1))
    ints = Payload.random(index.segments, width, "draw").int_values()
    assert [ints[s] for s in index.segments] == MaskValues.random(index, width, "draw").segment_values


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
