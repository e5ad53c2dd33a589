"""Permutations built from an image or from cycles, for tests.

``Permutation`` stores canonical cycles: each starts at its smallest element
and they are listed with increasing minima.  These helpers bring other
descriptions of a permutation into that form.
"""

from permcycles import Permutation


def trace_cycles(image: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical cycles of a 1-based image tuple.

    Scanning from the smallest unvisited element gives both orders at once.
    """
    n = len(image)
    seen = bytearray(n + 1)
    out = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = 1
        j = image[s - 1]
        while j != s:
            cyc.append(j)
            seen[j] = 1
            j = image[j - 1]
        out.append(tuple(cyc))
    return tuple(out)


def from_image(image) -> Permutation:
    """The permutation with sigma(i) = image[i-1]."""
    img = tuple(int(v) for v in image)
    if sorted(img) != list(range(1, len(img) + 1)):
        raise ValueError("image is not a bijection of 1..n")
    return Permutation(len(img), trace_cycles(img))


def from_cycles(n: int, cycles) -> Permutation:
    """The permutation of 1..n with the given cycles, in any rotation and order."""
    image = [0] * (n + 1)
    for c in cycles:
        tup = tuple(int(v) for v in c)
        for a, b in zip(tup, tup[1:] + (tup[0],)):
            if not 1 <= a <= n or image[a]:
                raise ValueError(f"cycles do not form a partition of 1..{n}")
            image[a] = b
    if 0 in image[1:]:
        raise ValueError(f"cycles do not form a partition of 1..{n}")
    return from_image(image[1:])


def identity(n: int) -> Permutation:
    return Permutation(n, tuple((i,) for i in range(1, n + 1)))
