import random

import pytest

from heckeverify.root_datum import (
    InvalidCartan,
    WeylElement,
    WeylTooLarge,
    apply,
    build_root_datum,
    cartan_matrix,
    read_cartan_file,
)


def brute_force_order(cartan, max_len):
    """Independent oracle: enumerate all words up to max_len, dedup by matrix."""
    d = build_root_datum(cartan)
    seen = {tuple(map(tuple, d.identity.matrix))}
    frontier = [d.identity.matrix]
    for _ in range(max_len):
        new = []
        for m in frontier:
            for i in range(d.rank):
                prod = tuple(
                    tuple(sum(m[a][k] * d._simple_matrices[i][k][b]
                              for k in range(d.rank))
                          for b in range(d.rank))
                    for a in range(d.rank)
                )
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return len(seen)


def test_a1_basics():
    d = build_root_datum([[2]])
    assert len(d.weyl) == 2
    assert d.positive_roots == ((2,),)
    assert d.rho == (1,)


def test_a2_orders_against_bfs_oracle():
    cartan = cartan_matrix("A", 2)
    d = build_root_datum(cartan)
    assert len(d.weyl) == brute_force_order(cartan, 3) == 6
    assert len(d.positive_roots) == 3


def test_b2_orders_against_bfs_oracle():
    cartan = cartan_matrix("B", 2)
    d = build_root_datum(cartan)
    assert len(d.weyl) == brute_force_order(cartan, 4) == 8
    assert len(d.positive_roots) == 4
    assert d.longest.length == 4


def test_longest_length_equals_number_of_positive_roots():
    for fam, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        d = build_root_datum(cartan_matrix(fam, rank))
        assert d.longest.length == len(d.positive_roots)


def test_apply_examples():
    d1 = build_root_datum([[2]])
    s = d1.simple(0)
    assert apply(s, (1,)) == (-1,)
    assert apply(d1.identity, (5,)) == (5,)
    d2 = build_root_datum(cartan_matrix("A", 2))
    assert apply(d2.simple(0), (-1, 2)) == (1, 1)


def test_simple_reflection_is_involution():
    d = build_root_datum(cartan_matrix("B", 2))
    rng = random.Random(1)
    for _ in range(50):
        x = tuple(rng.randint(-4, 4) for _ in range(2))
        for i in range(2):
            s = d.simple(i)
            assert apply(s, apply(s, x)) == x


def test_length_changes_by_one_under_left_multiplication():
    for fam, rank in [("A", 2), ("B", 2), ("A", 3)]:
        d = build_root_datum(cartan_matrix(fam, rank))
        for w in d.weyl:
            for i in range(d.rank):
                assert abs(d.left_mul(i, w).length - w.length) == 1


def test_stored_words_are_prefix_closed():
    # The generator and Lusztig maps build the image of T_w from that of
    # w s_i, i the last letter of w's word; this is the word they rely on.
    for fam, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        d = build_root_datum(cartan_matrix(fam, rank))
        for w in d.weyl[1:]:
            prefix = d.mul(w, d.simple(w.word[-1]))
            assert prefix.word == w.word[:-1]


def test_inverse_roundtrip():
    d = build_root_datum(cartan_matrix("A", 2))
    rng = random.Random(7)
    for w in d.weyl:
        winv = d.inverse(w)
        for _ in range(100):
            x = tuple(rng.randint(-3, 3) for _ in range(2))
            assert apply(w, apply(winv, x)) == x


def test_braid_relation_on_actions():
    for fam, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        d = build_root_datum(cartan_matrix(fam, rank))
        for i in range(d.rank):
            for j in range(i + 1, d.rank):
                m = d.braid_order(i, j)
                a = d.identity
                b = d.identity
                for k in range(m):
                    a = d.mul(a, d.simple(i if k % 2 == 0 else j))
                    b = d.mul(b, d.simple(j if k % 2 == 0 else i))
                assert a is b


def test_rho_keys_are_distinct():
    d = build_root_datum(cartan_matrix("A", 3))
    assert len({w.key for w in d.weyl}) == len(d.weyl) == 24


def test_weyl_elements_are_equal_and_hash_by_key():
    d = build_root_datum(cartan_matrix("A", 2))
    w = d.longest
    same = WeylElement(w.key, (1, 0, 1), w.matrix)
    assert w.word == (0, 1, 0) and same.word != w.word
    assert same == w and hash(same) == hash(w)
    assert {w: "w"}[same] == "w"
    assert WeylElement(d.rho, (0, 0), d.identity.matrix) == d.identity
    assert w != d.identity and w != w.key


def test_weyl_element_repr_and_length():
    d = build_root_datum(cartan_matrix("A", 2))
    assert repr(d.identity) == "e"
    assert repr(d.mul(d.simple(0), d.simple(1))) == "s1.s2"
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        for w in build_root_datum(cartan_matrix(family, rank)).weyl:
            assert w.length == len(w.word)


def test_weyl_elements_key_dicts_with_their_elements_entry():
    d = build_root_datum(cartan_matrix("B", 2))
    by_element = {w: i for i, w in enumerate(d.weyl)}
    assert len(by_element) == len(d.weyl) == len(d.elements) == 8
    for i, w in enumerate(d.weyl):
        assert d.elements[w.key] is w
        assert by_element[d.elements[w.key]] == i


@pytest.mark.parametrize("bad", [
    [[1]],
    [[2, 1], [1, 2]],
    [[2, -1], [0, 2]],
    [[2, -1]],
])
def test_invalid_cartan_rejected(bad):
    with pytest.raises(InvalidCartan):
        build_root_datum(bad)


def test_weyl_too_large():
    # affine A1 matrix generates an infinite group
    with pytest.raises(WeylTooLarge):
        build_root_datum([[2, -2], [-2, 2]], weyl_bound=100)


def test_cartan_file_roundtrip(tmp_path):
    path = tmp_path / "b2.txt"
    path.write_text("2\n2 -1\n-2 2\n")
    assert read_cartan_file(str(path)) == cartan_matrix("B", 2)
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    with pytest.raises(InvalidCartan):
        read_cartan_file(str(bad))
