import random
from fractions import Fraction
from itertools import compress, product
from math import lcm

import pytest

from noetherlab import (
    EpsilonSequence,
    chromatic_number,
    embed_diagonal_into_distance,
    epsilon_matrix,
    geometric_epsilon_sequence,
    make_diagonal_hamming,
    make_uniform_hamming,
    pt,
    sigma_bounded_check,
    verify_embedding,
    verify_vitali_homomorphism,
    vitali_map,
)
from noetherlab.errors import (
    InvalidPointError,
    InvalidSequenceError,
    OracleBoundError,
    PartitionError,
)
from noetherlab import hamming
from noetherlab.graphs import SampleUniverse, distance_graph
from noetherlab.hamming import (
    DEFAULT_SIZE_BOUND,
    EpsilonMatrix,
    _edges,
    derived_distances,
    mixed_radix_coloring,
)


def test_make_diagonal_hamming_sizes():
    assert len(make_diagonal_hamming(1)) == 1
    u3 = make_diagonal_hamming(3)
    assert len(u3) == 6
    from noetherlab import adjacent

    assert adjacent(u3.instance, pt(0, 0, 0), pt(0, 1, 0))
    with pytest.raises(OracleBoundError):
        make_diagonal_hamming(7)  # 5040 words


def test_masks_build_at_the_default_size_bound():
    uniform = make_uniform_hamming(6, 4)
    assert len(uniform) == DEFAULT_SIZE_BOUND
    diagonal = make_diagonal_hamming(6)
    # a^b * b(a-1)/2 and B! * B(B-1)/4 edges
    for u, edges in ((uniform, 4**6 * 6 * 3 // 2), (diagonal, 720 * 6 * 5 // 4)):
        masks = u.closed_masks
        assert (sum(m.bit_count() for m in masks) - len(masks)) // 2 == edges
    report = verify_vitali_homomorphism(uniform, epsilon_matrix(6, 4))
    assert report["passed"] and report["edges_checked"] == 4**6 * 6 * 3 // 2
    assert verify_embedding(6)["edges_checked"] == 720 * 6 * 5 // 4


def test_diagonal_chromatic_matches_breadth():
    for breadth in range(1, 5):
        u = make_diagonal_hamming(breadth)
        chi, _ = chromatic_number(u)
        assert chi == breadth
        from noetherlab.coloring import check_proper

        assert not check_proper(u, mixed_radix_coloring(u))


def test_epsilon_matrix_canonical_values():
    em = epsilon_matrix(2, 2)
    flat = sorted(v for row in em.values for v in row)
    assert flat == [Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]
    assert em.total() == Fraction(15, 16)
    single = epsilon_matrix(1, 1)
    assert single.values == ((Fraction(1, 2),),)
    big = epsilon_matrix(4, 3)
    all_values = [v for row in big.values for v in row]
    assert len(set(all_values)) == len(all_values)
    assert big.total() < 1


def test_vitali_map_values():
    em = epsilon_matrix(2, 2)
    assert vitali_map(pt(0, 1), em) == Fraction(9, 16)
    assert vitali_map(pt(1, 1), em) == Fraction(5, 16)
    assert vitali_map(pt(0, 1), em) - vitali_map(pt(1, 1), em) == Fraction(1, 4)
    with pytest.raises(InvalidPointError):
        vitali_map(pt(0, 5), em)


def test_vitali_homomorphism_all_breadths():
    for breadth in range(1, 7):
        u = make_uniform_hamming(breadth, 2)
        report = verify_vitali_homomorphism(u, epsilon_matrix(breadth, 2))
        assert report["passed"] and report["failures"] == []
    for breadth in range(1, 5):
        u = make_uniform_hamming(breadth, 3)
        report = verify_vitali_homomorphism(u, epsilon_matrix(breadth, 3))
        assert report["passed"]


def test_embedding_edge_image_is_exact():
    eps = geometric_epsilon_sequence(3)
    images, instance, _ = embed_diagonal_into_distance(3, eps)
    x, y = pt(0, 0, 0), pt(0, 0, 2)
    gap = images[x] - images[y]
    assert abs(gap) == Fraction(2, 16) == Fraction(1, 8)
    assert gap * gap in instance.squared_distances


def test_embedding_verification_through_breadth_5():
    for breadth in range(1, 6):
        report = verify_embedding(breadth)
        assert report["passed"], report
        assert report["zero_tolerance"]
    # the documented collision at breadth 5: 1*eps_3 = 4*eps_4 = 1/64
    report5 = verify_embedding(5)
    assert report5["collisions"] == [["1/64", [[1, 3], [4, 4]]]]


def test_embedding_strict_mode_rejects_collisions():
    eps = geometric_epsilon_sequence(5)
    _, _, report = embed_diagonal_into_distance(5, eps)
    assert report["collisions"] == [["1/64", [[1, 3], [4, 4]]]]
    _, _, report = embed_diagonal_into_distance(4, eps)
    assert report["collisions"] == []


def test_epsilon_sequence_weighted_sum_invariant():
    with pytest.raises(InvalidSequenceError):
        EpsilonSequence((Fraction(1),), bound=Fraction(1))
    seq = geometric_epsilon_sequence(6)
    # the per-layer largest jump n * eps_n = n * 4^-n decreases
    sups = [n * v for n, v in enumerate(seq.values)]
    assert all(a > b for a, b in zip(sups[1:], sups[2:]))


def test_derived_distances_provenance():
    table, collisions = derived_distances(geometric_epsilon_sequence(4))
    assert Fraction(1, 4) in table and table[Fraction(1, 4)] == [(1, 1)]
    assert collisions == []


def test_sigma_bounded_check_examples():
    u3 = make_diagonal_hamming(3)
    whole = sigma_bounded_check(u3, [u3.points])
    # one piece at index 0 must satisfy chi <= 2, but chi = 3
    assert not whole["passed"]
    assert whole["pieces"][0]["chromatic_number"] == 3

    # singletons pass trivially
    singles = sigma_bounded_check(u3, [[p] for p in u3.points])
    assert singles["passed"]
    assert all(piece["chromatic_number"] == 1 for piece in singles["pieces"])

    # piece 1 = everything: chi = 3 <= 3 passes
    split = sigma_bounded_check(u3, [[], u3.points])
    assert split["passed"]

    with pytest.raises(PartitionError):
        sigma_bounded_check(u3, [u3.points[:3]])


def test_sigma_bounded_reports_planted_clique():
    u4 = make_diagonal_hamming(4)
    # a 4-clique lives along the last coordinate; putting everything in
    # piece 1 (bound 3) must fail and report max clique 4
    report = sigma_bounded_check(u4, [[], u4.points])
    piece = report["pieces"][1]
    assert not report["passed"]
    assert piece["chromatic_number"] == 4 and piece["max_clique"] == 4


def _fraction_verify_embedding(breadth, eps):
    """verify_embedding on the Fraction images of embed_diagonal_into_distance."""
    images, instance, report = embed_diagonal_into_distance(breadth, eps)
    universe = make_diagonal_hamming(breadth)
    edges = list(_edges(universe))
    failures = []
    for i, j in edges:
        gap = images[universe.points[i]] - images[universe.points[j]]
        if gap * gap not in instance.squared_distances:
            failures.append((i, j, str(gap)))
    report.update(
        {"edges_checked": len(edges), "failures": failures, "passed": not failures,
         "zero_tolerance": True}
    )
    return report


def _fraction_verify_vitali(universe, eps):
    """verify_vitali_homomorphism on the Fraction images of vitali_map."""
    images = [vitali_map(p, eps) for p in universe.points]
    edges = list(_edges(universe))
    failures = [(i, j) for i, j in edges if images[i] - images[j] == 0]
    return {
        "edges_checked": len(edges),
        "failures": failures,
        "passed": not failures,
        "relative_to_universe": True,
    }


MIXED_SEQUENCE = EpsilonSequence(
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(2, 9), Fraction(1, 12),
     Fraction(3, 35)),
    bound=Fraction(10),
)


def _sequences(breadth):
    for ratio in (Fraction(1, 3), Fraction(1, 7), Fraction(2, 9)):
        yield geometric_epsilon_sequence(breadth, ratio)
    yield MIXED_SEQUENCE


def test_integer_embedding_verify_matches_fraction_reference(monkeypatch):
    for breadth in range(1, 7):
        for eps in _sequences(breadth):
            assert verify_embedding(breadth, eps) == _fraction_verify_embedding(breadth, eps)
    # Move the largest squared distance s to s + 1/(2 D^2), which scales to
    # no integer but rounds down to the old target, so the edges at s fail;
    # the failure tuples carry str(gap).
    real = hamming.distance_graph
    for breadth in range(2, 6):
        for eps in _sequences(breadth):
            scale = lcm(*(v.denominator for v in eps.values))

            def moved(dimension, squared, scale=scale):
                top = max(squared)
                return real(dimension, [s for s in squared if s != top]
                            + [top + Fraction(1, 2 * scale**2)])

            monkeypatch.setattr(hamming, "distance_graph", moved)
            report = verify_embedding(breadth, eps)
            assert not report["passed"]
            assert report == _fraction_verify_embedding(breadth, eps)
            assert any(gap.startswith("-") for _, _, gap in report["failures"])


def test_integer_vitali_verify_matches_fraction_reference():
    mixed = EpsilonMatrix(3, 3, (
        (Fraction(1, 3), Fraction(1, 7), Fraction(2, 9)),
        (Fraction(1, 10), Fraction(1, 11), Fraction(1, 13)),
        (Fraction(1, 34), Fraction(1, 38), Fraction(1, 46)),
    ))
    # a repeated entry in a row maps the edges along it to a zero shift
    repeated = EpsilonMatrix(2, 3, (
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 9)),
        (Fraction(1, 7), Fraction(2, 21), Fraction(1, 5)),
    ))
    for breadth in range(1, 4):
        u = make_uniform_hamming(breadth, 3)
        assert verify_vitali_homomorphism(u, mixed) == _fraction_verify_vitali(u, mixed)
    u = make_uniform_hamming(2, 3)
    report = verify_vitali_homomorphism(u, repeated)
    assert report == _fraction_verify_vitali(u, repeated) and report["failures"]
    assert verify_vitali_homomorphism(
        make_uniform_hamming(4, 2), epsilon_matrix(4, 2)
    ) == _fraction_verify_vitali(make_uniform_hamming(4, 2), epsilon_matrix(4, 2))

    plane = distance_graph(2, [1])
    invalid = [
        SampleUniverse(plane, [pt(0, 0), pt("1/2", 0)]),  # not an integer
        make_uniform_hamming(2, 4),  # entry 3 is outside the 3 columns
        make_uniform_hamming(4, 2),  # wider than the 3 rows
    ]
    for u in invalid:
        with pytest.raises(InvalidPointError) as expected:
            _fraction_verify_vitali(u, mixed)
        with pytest.raises(InvalidPointError) as got:
            verify_vitali_homomorphism(u, mixed)
        assert str(got.value) == str(expected.value)


def _diagonal_words(breadth):
    """The diagonal words as int tuples, in the point order of make_diagonal_hamming."""
    return list(product(*(range(n + 1) for n in range(breadth))))


def test_embedding_verify_builds_no_universe(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_embedding built a universe")

    expected = {b: verify_embedding(b) for b in range(1, 7)}
    monkeypatch.setattr(hamming, "SampleUniverse", refuse)
    monkeypatch.setattr(hamming, "make_diagonal_hamming", refuse)
    for breadth in range(1, 7):
        report = verify_embedding(breadth)
        assert report == expected[breadth]
        assert report["vertices"] == len(_diagonal_words(breadth))
    with pytest.raises(AssertionError):
        embed_diagonal_into_distance(3)  # the Fraction reference still builds one


def test_diagonal_blocks_are_the_universe_edges():
    for breadth in range(1, 7):
        universe = make_diagonal_hamming(breadth)
        words = _diagonal_words(breadth)
        assert [tuple(int(c) for c in p.coords) for p in universe.points] == words
        pairs = [
            (i, i + offset)
            for offset, selector in hamming._diagonal_blocks(breadth)
            for i in compress(range(len(words)), selector)
        ]
        assert sorted(pairs) == list(_edges(universe))


def test_embedding_failures_from_several_blocks_come_in_edge_order(monkeypatch):
    # Move the two largest squared distances s to s + 1/(2 D^2), as in
    # test_integer_embedding_verify_matches_fraction_reference, so that the
    # edges of several blocks fail and their failures interleave in (i, j).
    real = hamming.distance_graph
    interleaved = False
    for breadth in range(3, 7):
        for eps in _sequences(breadth):
            scale = lcm(*(v.denominator for v in eps.values))

            def moved(dimension, squared, scale=scale):
                top = sorted(squared)[-2:]
                return real(dimension, [s for s in squared if s not in top]
                            + [s + Fraction(1, 2 * scale**2) for s in top])

            monkeypatch.setattr(hamming, "distance_graph", moved)
            report = verify_embedding(breadth, eps)
            assert report == _fraction_verify_embedding(breadth, eps)
            offsets = [j - i for i, j, _ in report["failures"]]
            assert len(set(offsets)) >= 2
            runs = 1 + sum(a != b for a, b in zip(offsets, offsets[1:]))
            interleaved |= runs > len(set(offsets))
    assert interleaved


def test_vitali_verify_on_shuffled_subsets_matches_fraction_reference():
    uniform = make_uniform_hamming(3, 3)
    # repeated entries in rows 0 and 2 map some edges to a zero shift
    repeated = EpsilonMatrix(3, 3, (
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 9)),
        (Fraction(1, 7), Fraction(2, 21), Fraction(1, 5)),
        (Fraction(1, 11), Fraction(1, 13), Fraction(1, 11)),
    ))
    rng = random.Random(20260811)
    failed = 0
    for _ in range(40):
        points = rng.sample(uniform.points, rng.randint(1, len(uniform)))
        u = SampleUniverse(uniform.instance, points)
        for eps in (epsilon_matrix(3, 3), repeated):
            report = verify_vitali_homomorphism(u, eps)
            assert report == _fraction_verify_vitali(u, eps)
            failed += bool(report["failures"])
    assert failed


def test_embedding_verify_keeps_the_size_bound(capsys):
    from noetherlab.cli import main

    message = f"diagonal truncation exceeds size bound {DEFAULT_SIZE_BOUND}"
    with pytest.raises(OracleBoundError) as got:
        verify_embedding(7)
    assert str(got.value) == message
    with pytest.raises(OracleBoundError) as got:
        make_diagonal_hamming(7)
    assert str(got.value) == message
    assert main(["hamming", "embed", "--breadth", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
