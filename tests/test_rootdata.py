from hypothesis import given, strategies as st
import pytest

from oracles import cartan_matrix, positive_roots, reflect, root_data_by_pairs, simple_root
from torusq.quiver import minimal_v_word
from torusq.rootdata import (
    fundamental_weight,
    minuscule_dimension,
    minuscule_orbit_size,
    minuscule_weights,
    root_system,
)
from torusq.weyl import MinusculePoset


def test_type_a_cartan():
    assert cartan_matrix("A", 3) == (
        (2, -1, 0),
        (-1, 2, -1),
        (0, -1, 2),
    )


def test_d4_cartan_fork():
    # nodes 3 and 4 both hang off node 2 and ignore each other
    m = cartan_matrix("D", 4)
    assert m[2][3] == 0 and m[3][2] == 0
    assert m[1][2] == -1 and m[1][3] == -1
    assert m[0][1] == -1 and m[0][2] == 0


def test_e6_e7_shapes():
    m6 = cartan_matrix("E6", 6)
    assert len(m6) == 6
    # node 2 attaches to node 4 only
    assert [j + 1 for j in range(6) if m6[1][j] == -1] == [4]
    m7 = cartan_matrix("E7", 7)
    assert [j + 1 for j in range(7) if m7[1][j] == -1] == [4]
    assert [j + 1 for j in range(7) if m7[5][j] == -1] == [5, 7]


def test_root_data_matches_the_pair_probe():
    # every family at every rank up to 100: the package's neighbour lists
    # are the probe's
    cases = [("A", rank) for rank in range(1, 101)]
    cases += [("D", rank) for rank in range(4, 101)] + [("E6", 6), ("E7", 7)]
    for family, rank in cases:
        assert root_system(family, rank).neighbours == root_data_by_pairs(family, rank)[1]


@pytest.mark.parametrize("family,rank,count,highest", [
    ("A", 5, 15, (1, 1, 1, 1, 1)),
    ("D", 6, 30, (1, 2, 2, 2, 1, 1)),
    ("E6", 6, 36, (1, 2, 2, 3, 2, 1)),
    ("E7", 7, 63, (2, 2, 3, 4, 3, 2, 1)),
])
def test_positive_roots_from_the_cartan_rows(family, rank, count, highest):
    # the root counts n(n+1)/2, n(n-1), 36 and 63, and the highest root
    # of the standard tables as the one largest coefficient tuple
    roots = positive_roots(family, rank)
    assert len(roots) == count
    assert [beta for beta in roots if sum(beta) == max(map(sum, roots))] == [highest]


def test_root_system_is_an_immutable_value():
    built, again = root_system("D", 5), root_system("D", 5)
    assert built is not again and built == again and hash(built) == hash(again)
    assert built == ("D", 5, built.neighbours)
    with pytest.raises(AttributeError):
        built.rank = 6


def test_reflect_simple_example():
    # s_1 applied to omega_1 in A_2 lands at omega_2 - omega_1
    system = root_system("A", 2)
    assert reflect(system, fundamental_weight(system, 1), 1) == (-1, 1)


@given(st.integers(min_value=2, max_value=6), st.data())
def test_reflect_is_an_involution(rank, data):
    system = root_system("A", rank)
    mu = tuple(
        data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(rank)
    )
    i = data.draw(st.integers(min_value=1, max_value=rank))
    assert reflect(system, reflect(system, mu, i), i) == mu


@given(
    st.sampled_from([("A", 1), ("A", 6), ("D", 4), ("D", 7), ("E6", 6), ("E7", 7)]),
    st.integers(min_value=-2, max_value=2),
    st.data(),
)
def test_reflect_short_path_matches_the_formula(system_key, c, data):
    system = root_system(*system_key)
    i = data.draw(st.integers(min_value=1, max_value=system.rank))
    mu = data.draw(
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=system.rank, max_size=system.rank)
    )
    mu[i - 1] = c
    alpha = simple_root(system, i)
    assert reflect(system, tuple(mu), i) == tuple(m - c * a for m, a in zip(mu, alpha))


def test_reflect_rejects_a_wrong_length():
    with pytest.raises(ValueError):
        reflect(root_system("A", 3), (1, 0), 1)


def test_minuscule_weight_table():
    assert minuscule_weights("A", 4) == frozenset({1, 2, 3, 4})
    assert minuscule_weights("D", 5) == frozenset({1, 4, 5})
    assert minuscule_weights("E6", 6) == frozenset({1, 6})
    assert minuscule_weights("E7", 7) == frozenset({7})


@pytest.mark.parametrize("caller", [
    lambda family, rank, w: MinusculePoset(root_system(family, rank), w),
    minimal_v_word,
    minuscule_orbit_size,
    minuscule_dimension,
])
@pytest.mark.parametrize("family,rank,weight,message", [
    ("D", 5, 2, "omega_2 is not minuscule for D5"),
    ("E6", 6, 2, "omega_2 is not minuscule for E6"),
    ("E7", 7, 1, "omega_1 is not minuscule for E7"),
])
def test_every_caller_refuses_a_non_minuscule_weight_alike(caller, family, rank,
                                                           weight, message):
    with pytest.raises(ValueError) as exc:
        caller(family, rank, weight)
    assert str(exc.value) == message


def test_bad_families_rejected():
    with pytest.raises(ValueError):
        root_system("E6", 7)
    with pytest.raises(ValueError):
        root_system("D", 3)
    with pytest.raises(ValueError):
        root_system("B", 3)


def test_fundamental_weight_coordinates():
    system = root_system("A", 3)
    assert fundamental_weight(system, 2) == (0, 1, 0)
