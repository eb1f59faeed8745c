"""Packed occupations: the factor product."""

from sculpt import packed

WIDTH = packed.field_width(2)


def _key(counts: dict[int, int]) -> int:
    return sum(n << w * WIDTH for w, n in counts.items())


def test_tensor_multiplies_amplitudes_and_drops_the_negligible():
    a = {_key({0: 1}): 0.6, _key({1: 2}): 1e-7}
    b = {_key({2: 1}): 0.8j, _key({3: 1}): 1e-6}
    assert packed.tensor(a, b) == {_key({0: 1, 2: 1}): 0.6 * 0.8j,
                                   _key({0: 1, 3: 1}): 0.6e-6,
                                   _key({1: 2, 2: 1}): 0.8e-7j}
    assert packed.tensor({0: 1 + 0j}, a) == a
