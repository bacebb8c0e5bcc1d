import copy
import pickle
import random

import pytest

from heckeverify.root_datum import (
    InvalidCartan,
    WeylElement,
    apply,
    build_root_datum,
    cartan_matrix,
    read_cartan_file,
)

from weyl_group import inverse, mul, weyl_elements


# -- an oracle that shares no code with root_datum ----------------------------
#
# W acts on weights (fundamental-weight coordinates) by the reflection
# matrices S_i[j][k] = delta_jk - delta_ki A[j][i], read off the Cartan
# rows alone.  A right-multiplication search on matrices gives the keys
# M_w rho, the words that datum.element must give and the order that
# weyl_elements must reproduce.

def _matmul(a, b):
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(len(b)))
                       for c in range(len(b[0]))) for r in range(len(a)))


def _matvec(m, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


def _reflection_matrices(cartan):
    n = len(cartan)
    return [tuple(tuple(int(j == k) - (cartan[j][i] if k == i else 0) for k in range(n))
                  for j in range(n)) for i in range(n)]


class Oracle:
    """W of ``cartan`` by matrices: ``matrix`` and ``word`` map each key, in BFS order."""

    def __init__(self, cartan):
        n = len(cartan)
        self.rank = n
        self.cartan = cartan
        self.rho = (1,) * n
        self.simple = _reflection_matrices(cartan)
        ident = tuple(tuple(int(j == k) for k in range(n)) for j in range(n))
        self.identity = ident
        self.matrix = {self.rho: ident}
        self.word = {self.rho: ()}
        frontier = [self.rho]
        while frontier:
            new = []
            for key in frontier:
                for i in range(n):
                    m = _matmul(self.matrix[key], self.simple[i])
                    k = _matvec(m, self.rho)
                    if k not in self.matrix:
                        self.matrix[k] = m
                        self.word[k] = self.word[key] + (i,)
                        new.append(k)
            frontier = new

    def key(self, m):
        return _matvec(m, self.rho)

    def positive_roots(self):
        # w(alpha_i) is positive exactly when l(w s_i) > l(w)
        alphas = [tuple(row[i] for row in self.cartan) for i in range(self.rank)]
        positive = set()
        for key, m in self.matrix.items():
            for i, alpha in enumerate(alphas):
                after = self.key(_matmul(m, self.simple[i]))
                if len(self.word[after]) > len(self.word[key]):
                    positive.add(_matvec(m, alpha))
        return tuple(sorted(positive))

    def braid_order(self, i, j):
        step = _matmul(self.simple[i], self.simple[j])
        m, power = 1, step
        while power != self.identity:
            power, m = _matmul(power, step), m + 1
        return m


ORACLE_TYPES = [("A", 4), ("B", 3), ("C", 3), ("G", 2), ("F", 4), ("D", 5)]
_ORACLES = {}


def oracle_and_datum(family, rank):
    if (family, rank) not in _ORACLES:
        cartan = cartan_matrix(family, rank)
        _ORACLES[family, rank] = Oracle(cartan), build_root_datum(cartan)
    return _ORACLES[family, rank]


def longest(d):
    """w0, whose key is w0(rho) = -rho."""
    return d.element(tuple(-c for c in d.rho))


def brute_force_order(cartan, max_len):
    """Independent oracle: enumerate all words up to max_len, dedup by matrix."""
    simple = _reflection_matrices(cartan)
    n = len(cartan)
    ident = tuple(tuple(int(j == k) for k in range(n)) for j in range(n))
    seen = {ident}
    frontier = [ident]
    for _ in range(max_len):
        new = []
        for m in frontier:
            for s in simple:
                prod = _matmul(m, s)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return len(seen)


@pytest.mark.parametrize("family, rank", ORACLE_TYPES)
def test_weyl_keys_words_and_order_match_the_matrix_oracle(family, rank):
    oracle, d = oracle_and_datum(family, rank)
    fresh = build_root_datum(oracle.cartan)
    for key in reversed(oracle.word):       # longest first, walking down from each key
        assert fresh.element(key).word == oracle.word[key]
    assert [(w.key, w.word) for w in weyl_elements(d)] == list(oracle.word.items())
    assert all(d.element(w.key) is w for w in weyl_elements(d))


@pytest.mark.parametrize("family, rank", ORACLE_TYPES)
def test_group_operations_match_the_matrix_oracle(family, rank):
    oracle, d = oracle_and_datum(family, rank)
    rng = random.Random(3)
    for w in weyl_elements(d):
        m = oracle.matrix[w.key]
        for i in range(rank):
            assert d.left_mul(i, w).key == oracle.key(_matmul(oracle.simple[i], m))
        assert _matmul(m, oracle.matrix[inverse(d, w).key]) == oracle.identity
        x = tuple(rng.randint(-5, 5) for _ in range(rank))
        assert apply(w, x) == _matvec(m, x)
    for _ in range(300):
        u, w = rng.choice(weyl_elements(d)), rng.choice(weyl_elements(d))
        assert mul(d, u, w).key == oracle.key(_matmul(oracle.matrix[u.key], oracle.matrix[w.key]))


@pytest.mark.parametrize("family, rank", ORACLE_TYPES)
def test_positive_roots_and_braid_orders_match_the_matrix_oracle(family, rank):
    oracle, d = oracle_and_datum(family, rank)
    assert d.positive_roots == oracle.positive_roots()
    for i in range(rank):
        assert d.braid_order(i, i) == 1
        for j in range(rank):
            if i != j:
                assert d.braid_order(i, j) == oracle.braid_order(i, j)


def test_e6_sizes():
    d = build_root_datum(cartan_matrix("E", 6))
    assert cartan_matrix("E6", 6) == d.cartan
    assert len(d.positive_roots) == 36
    assert longest(d).length == 36


@pytest.mark.parametrize("rank", [5, 9])
def test_type_e_of_another_rank_is_refused(rank):
    with pytest.raises(InvalidCartan):
        cartan_matrix("E", rank)


@pytest.mark.parametrize("family, rank", [("E7", 5), ("G2", 5), ("F", 9), ("G", 3), ("E8", 6)])
def test_a_rank_against_a_fixed_rank_name_is_refused(family, rank):
    with pytest.raises(InvalidCartan, match="has rank"):
        cartan_matrix(family, rank)


@pytest.mark.parametrize("family, rank", [("G", 2), ("G2", 2), ("F", 4), ("F4", 4),
                                          ("E6", 6), ("E7", 7), ("E8", 8)])
def test_a_fixed_rank_name_takes_its_rank_or_none(family, rank):
    assert cartan_matrix(family, None) == cartan_matrix(family, rank)
    assert len(cartan_matrix(family, rank)) == rank


def test_a1_basics():
    d = build_root_datum([[2]])
    assert len(weyl_elements(d)) == 2
    assert d.positive_roots == ((2,),)
    assert d.rho == (1,)


def test_a2_orders_against_bfs_oracle():
    cartan = cartan_matrix("A", 2)
    d = build_root_datum(cartan)
    assert len(weyl_elements(d)) == brute_force_order(cartan, 3) == 6
    assert len(d.positive_roots) == 3


def test_b2_orders_against_bfs_oracle():
    cartan = cartan_matrix("B", 2)
    d = build_root_datum(cartan)
    assert len(weyl_elements(d)) == brute_force_order(cartan, 4) == 8
    assert len(d.positive_roots) == 4
    assert longest(d).length == 4


def test_longest_length_equals_number_of_positive_roots():
    for fam, rank, positive in [("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("B", 2, 4), ("G", 2, 6),
                                ("E7", 7, 63), ("E8", 8, 120)]:
        d = build_root_datum(cartan_matrix(fam, rank))
        assert longest(d).length == len(d.positive_roots) == positive


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
        for w in weyl_elements(d):
            for i in range(d.rank):
                assert abs(d.left_mul(i, w).length - w.length) == 1


def test_stored_words_are_prefix_closed():
    # The generator and Lusztig maps build the image of T_w from that of
    # w s_i, i the last letter of w's word; this is the word they rely on.
    for fam, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        d = build_root_datum(cartan_matrix(fam, rank))
        for w in weyl_elements(d)[1:]:
            prefix = mul(d, w, d.simple(w.word[-1]))
            assert prefix.word == w.word[:-1]


def test_inverse_roundtrip():
    d = build_root_datum(cartan_matrix("A", 2))
    rng = random.Random(7)
    for w in weyl_elements(d):
        winv = inverse(d, w)
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
                    a = mul(d, a, d.simple(i if k % 2 == 0 else j))
                    b = mul(d, b, d.simple(j if k % 2 == 0 else i))
                assert a is b


def test_rho_keys_are_distinct():
    d = build_root_datum(cartan_matrix("A", 3))
    assert len({w.key for w in weyl_elements(d)}) == len(weyl_elements(d)) == 24


def test_weyl_elements_are_equal_and_hash_by_key():
    d = build_root_datum(cartan_matrix("A", 2))
    w = longest(d)
    same = WeylElement(w.key, (1, 0, 1), d.simple_roots)
    assert w.word == (0, 1, 0) and same.word != w.word
    assert same == w and hash(same) == hash(w)
    assert {w: "w"}[same] == "w"
    assert WeylElement(d.rho, (0, 0), d.simple_roots) == d.identity
    assert w != d.identity and w != w.key


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy,
    lambda w: pickle.loads(pickle.dumps(w, 0)),
    lambda w: pickle.loads(pickle.dumps(w, pickle.HIGHEST_PROTOCOL)),
], ids=["copy", "deepcopy", "pickle-0", "pickle-highest"])
def test_weyl_elements_survive_copy_and_pickle(duplicate):
    d = build_root_datum(cartan_matrix("B", 2))
    for w in weyl_elements(d):
        twin = duplicate(w)
        assert type(twin) is WeylElement and twin == w and hash(twin) == hash(w)
        assert (twin.key, twin.word, twin.roots) == (w.key, w.word, w.roots)


def test_weyl_elements_are_tuples_of_their_key_that_hash_in_c():
    d = build_root_datum(cartan_matrix("G", 2))
    assert WeylElement.__hash__ is tuple.__hash__
    for w in weyl_elements(d):
        assert tuple(w) == w.key and len(w) == d.rank and w.length == len(w.word)


def test_weyl_element_repr_and_length():
    d = build_root_datum(cartan_matrix("A", 2))
    assert repr(d.identity) == "e"
    assert repr(mul(d, d.simple(0), d.simple(1))) == "s1.s2"
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        for w in weyl_elements(build_root_datum(cartan_matrix(family, rank))):
            assert w.length == len(w.word)


def test_weyl_elements_key_dicts_with_their_elements_entry():
    d = build_root_datum(cartan_matrix("B", 2))
    by_element = {w: i for i, w in enumerate(weyl_elements(d))}
    assert len(by_element) == len(weyl_elements(d)) == 8
    for i, w in enumerate(weyl_elements(d)):
        assert d.element(w.key) is w
        assert by_element[d.element(w.key)] == i


def test_element_refuses_a_key_outside_the_orbit_of_rho():
    d = build_root_datum(cartan_matrix("A", 2))
    for key in [(2, 1), (0, 1), (-1, 3)]:
        with pytest.raises(KeyError):
            d.element(key)


@pytest.mark.parametrize("bad", [
    [[1]],
    [[2, 1], [1, 2]],
    [[2, -1], [0, 2]],
    [[2, -1]],
])
def test_invalid_cartan_rejected(bad):
    with pytest.raises(InvalidCartan):
        build_root_datum(bad)


@pytest.mark.parametrize("cartan", [
    [[2, -2], [-2, 2]],
    [[2, -3], [-3, 2]],
    [[2, -1, 0], [-1, 2, -2], [0, -2, 2]],
], ids=["affine-A1", "hyperbolic-rank-2", "indefinite-rank-3"])
def test_matrix_not_of_finite_type_is_rejected(cartan):
    # an infinite W has infinitely many roots: the root orbit outgrows its bound
    with pytest.raises(InvalidCartan, match="not of finite type"):
        build_root_datum(cartan)


def test_finite_type_with_many_roots_in_few_ranks_builds():
    # E8 + A1: 242 roots at rank 9, more than max(2 * 9^2, 240)
    e8 = cartan_matrix("E", 8)
    d = build_root_datum([list(row) + [0] for row in e8] + [[0] * 8 + [2]])
    assert len(d.positive_roots) == 121


def test_cartan_file_roundtrip(tmp_path):
    path = tmp_path / "b2.txt"
    path.write_text("2\n2 -1\n-2 2\n")
    assert read_cartan_file(str(path)) == cartan_matrix("B", 2)
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    with pytest.raises(InvalidCartan):
        read_cartan_file(str(bad))
