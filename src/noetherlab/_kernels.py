"""Search kernels over bitmask adjacency.

Deterministic, canonical-first answers for any universe size.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import errors


def backend_name() -> str:
    """Name of the kernel implementation, recorded in campaign reports.

    Always ``"python"``: the kernels run in microseconds at campaign sizes,
    where a compiled build changed no suite's time beyond noise, so there is
    only this one implementation.  The name stays in reports and benchmark
    metadata so that their bytes and fields do not change.
    """
    return "python"


def find_clique(adj: Sequence[int], m: int) -> Optional[tuple[int, ...]]:
    """First m-clique in lexicographic vertex order, or None (certified).

    ``adj[i]`` is the open-neighborhood bitmask of vertex i.
    """
    n = len(adj)
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n:
        return None

    def rec(chosen: list[int], candidates: int) -> Optional[tuple[int, ...]]:
        if len(chosen) == m:
            return tuple(chosen)
        need = m - len(chosen)
        if candidates.bit_count() < need:
            return None
        c = candidates
        while c:
            i = (c & -c).bit_length() - 1
            c &= c - 1
            # remaining candidates at or above i must still suffice
            rest = candidates & ~((1 << (i + 1)) - 1)
            if rest.bit_count() + 1 < need:
                return None
            found = rec(chosen + [i], candidates & adj[i] & ~((1 << (i + 1)) - 1))
            if found is not None:
                return found
        return None

    return rec([], (1 << n) - 1)


def _dsatur_colorable(adj: Sequence[int], k: int) -> Optional[list[int]]:
    """Exact k-colorability by branch and bound with saturation ordering."""
    n = len(adj)
    colors = [-1] * n
    forbidden = [0] * n  # bitmask of colors adjacent to each vertex

    def choose() -> int:
        best, best_key = -1, None
        for v in range(n):
            if colors[v] != -1:
                continue
            sat = forbidden[v].bit_count()
            deg = adj[v].bit_count()
            key = (-sat, -deg, v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    def rec(assigned: int, used: int) -> bool:
        if assigned == n:
            return True
        v = choose()
        limit = min(used + 1, k)
        for c in range(limit):
            if forbidden[v] >> c & 1:
                continue
            colors[v] = c
            touched = []
            w_mask = adj[v]
            while w_mask:
                w = (w_mask & -w_mask).bit_length() - 1
                w_mask &= w_mask - 1
                if not (forbidden[w] >> c & 1):
                    forbidden[w] |= 1 << c
                    touched.append(w)
            if rec(assigned + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            for w in touched:
                forbidden[w] &= ~(1 << c)
        return False

    if rec(0, 0):
        return list(colors)
    return None


def chromatic_number(adj: Sequence[int]) -> tuple[int, list[int]]:
    """Exact chromatic number with an optimal proper coloring."""
    n = len(adj)
    if n == 0:
        return 0, []
    for k in range(1, n + 1):
        coloring = _dsatur_colorable(adj, k)
        if coloring is not None:
            return k, coloring
    raise AssertionError("unreachable: n colors always suffice")


def min_subfamily(masks: Sequence[int], full: int) -> tuple[tuple[int, ...], bool]:
    """Smallest index subset whose mask intersection equals the whole family's,
    first in (size, lexicographic) order, and whether the search finished.

    Depth first, dropping each index before keeping it unless the masks kept
    and to come cannot cover the drop.  Of two leaves of one size the later
    is lexicographically smaller, so a branch is cut only when it must keep
    more than the best; once keeping an index finishes, no leaf dropping it
    wins, so the first leaf is at most the one-pass greedy family.  The
    search stops after errors.STATE_LIMIT states.
    """
    n = len(masks)
    suffix = [full] * (n + 1)  # suffix[i]: intersection of masks[i:]
    for i in range(n - 1, -1, -1):
        suffix[i] = masks[i] & suffix[i + 1]
    target, states, limit = suffix[0], 0, errors.STATE_LIMIT
    best = 0 if target == full else (1 << n) - 1  # the kept bits of the best leaf
    stack = [(0, full, 0)] if best else []  # next index, intersection of the kept, kept bits
    while stack and states < limit:
        i, acc, kept = stack.pop()
        while kept.bit_count() < best.bit_count():
            states += 1
            nxt, with_i = acc & masks[i], kept | 1 << i
            if nxt == target:
                best = with_i
                break
            if acc & suffix[i + 1] == target:
                stack.append((i + 1, nxt, with_i))
                i += 1
            else:
                i, acc, kept = i + 1, nxt, with_i
    return tuple(i for i in range(n) if best >> i & 1), not stack
