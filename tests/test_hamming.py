from fractions import Fraction

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
from noetherlab.hamming import (
    DEFAULT_SIZE_BOUND,
    derived_distances,
    layer_supremum_distances,
    mixed_radix_coloring,
)


def test_make_diagonal_hamming_sizes():
    assert len(make_diagonal_hamming(1)) == 1
    u3 = make_diagonal_hamming(3)
    assert len(u3) == 6
    from noetherlab import adjacent

    assert adjacent(u3.instance, pt(0, 0, 0), pt(0, 1, 0))
    with pytest.raises(OracleBoundError):
        make_diagonal_hamming(10, size_bound=100)


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
        chi, _ = chromatic_number(u, bound=24)
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
    with pytest.raises(InvalidSequenceError):
        embed_diagonal_into_distance(5, eps, strict_distinct=True)
    _, _, report = embed_diagonal_into_distance(4, eps, strict_distinct=True)
    assert report["collisions"] == []


def test_epsilon_sequence_weighted_sum_invariant():
    with pytest.raises(InvalidSequenceError):
        EpsilonSequence((Fraction(1),), bound=Fraction(1))
    seq = geometric_epsilon_sequence(6)
    sups = layer_supremum_distances(seq)
    assert all(a > b for a, b in zip(sups[1:], sups[2:]))  # n * 4^-n decreases


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
    report = sigma_bounded_check(u4, [[], u4.points], oracle_bound=24)
    piece = report["pieces"][1]
    assert not report["passed"]
    assert piece["chromatic_number"] == 4 and piece["max_clique"] == 4
