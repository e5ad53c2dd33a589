"""The test helpers that build permutations reject what is not one."""

import pytest

from perms import from_cycles, from_image


def test_from_image_validates():
    with pytest.raises(ValueError):
        from_image((1, 1, 3))
    with pytest.raises(ValueError):
        from_image((0, 1, 2))
    with pytest.raises(ValueError):
        from_image((2, 3, 4))


def test_from_cycles_validates():
    with pytest.raises(ValueError):
        from_cycles(3, [(1, 2)])  # 3 missing
    with pytest.raises(ValueError):
        from_cycles(3, [(1, 2), (2, 3)])  # overlap
    with pytest.raises(ValueError):
        from_cycles(3, [(1, 2, 3, 4)])  # out of range
