"""The search kernels against brute-force oracles on seeded random graphs."""

import random
from itertools import combinations

from noetherlab import _kernels, backend_name


def _random_graph(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _is_clique(adj, combo):
    return all(adj[i] >> j & 1 for i, j in combinations(combo, 2))


def _is_proper(adj, colors):
    return all(
        colors[i] != colors[j]
        for i in range(len(adj))
        for j in range(i + 1, len(adj))
        if adj[i] >> j & 1
    )


def _colorable(adj, k):
    """Exhaustive search, in vertex order, for a proper k-colouring."""
    n = len(adj)
    colors = []

    def rec(v, used):
        if v == n:
            return True
        # a fresh colour is only ever the next unused one: the rest are relabelings
        for c in range(min(used + 1, k)):
            if all(colors[w] != c for w in range(v) if adj[v] >> w & 1):
                colors.append(c)
                if rec(v + 1, max(used, c + 1)):
                    return True
                colors.pop()
        return False

    return rec(0, 0)


def test_backend_name_is_constant():
    assert backend_name() == _kernels.backend_name() == "python"


def test_find_clique_matches_first_combination():
    rng = random.Random(100)
    for _ in range(400):
        n = rng.randint(0, 13)
        adj = _random_graph(rng, n, rng.uniform(0.1, 0.9))
        m = rng.randint(1, 6)
        expected = next(
            (c for c in combinations(range(n), m) if _is_clique(adj, c)), None
        )
        assert _kernels.find_clique(adj, m) == expected


def test_chromatic_number_is_optimal():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(0, 11)
        adj = _random_graph(rng, n, rng.uniform(0.1, 0.9))
        chi, colors = _kernels.chromatic_number(adj)
        assert len(colors) == n
        assert set(colors) == set(range(chi))
        assert _is_proper(adj, colors)
        if n:
            assert not _colorable(adj, chi - 1)


def test_min_subfamily_is_first_in_size_lex_order():
    rng = random.Random(102)
    for _ in range(400):
        n = rng.randint(1, 10)
        full = (1 << n) - 1
        masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 7))]
        k = len(masks)
        target = full
        for m in masks:
            target &= m
        subsets = []
        for bits in range(1 << k):
            combo = tuple(i for i in range(k) if bits >> i & 1)
            acc = full
            for i in combo:
                acc &= masks[i]
            if acc == target:
                subsets.append(combo)
        assert _kernels.min_subfamily(masks, full) == (
            min(subsets, key=lambda c: (len(c), c)), True
        )


def test_find_clique_beyond_64_vertices():
    n = 65
    adj = [0] * n
    adj[0] |= 1 << 64
    adj[64] |= 1
    assert _kernels.find_clique(adj, 2) == (0, 64)
