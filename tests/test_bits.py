import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcover._bits import bits, mask_of, nth_bit

WIDTH = 2600

MASKS = st.one_of(
    # dense, of any width up to WIDTH
    st.integers(1, WIDTH).flatmap(lambda w: st.integers(1 << (w - 1), (1 << w) - 1)),
    # sparse
    st.sets(st.integers(0, WIDTH - 1), min_size=1, max_size=12).map(mask_of),
    # bits only at high offsets
    st.builds(lambda m, shift: m << shift, st.integers(1, (1 << 64) - 1), st.integers(0, WIDTH - 64)),
)


@settings(max_examples=120, deadline=None)
@given(MASKS)
def test_nth_bit_matches_bits(mask):
    positions = list(bits(mask))
    assert [nth_bit(mask, i) for i in range(len(positions))] == positions


@settings(max_examples=60, deadline=None)
@given(MASKS, st.integers(1, 10**6))
def test_nth_bit_rejects_out_of_range(mask, k):
    count = mask.bit_count()
    for idx in (-1, -k, count, count + k):
        with pytest.raises(IndexError):
            nth_bit(mask, idx)


@pytest.mark.parametrize("idx", [-1, 0, 1])
def test_nth_bit_of_empty_mask_raises(idx):
    with pytest.raises(IndexError):
        nth_bit(0, idx)
