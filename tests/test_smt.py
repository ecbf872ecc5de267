"""Tableaux, standardness, invariant section counts, the three extension
families, and the Grassmannian chain certificates.

Frozen integers come from an independent computation: the rank of the
monomial evaluation matrix at random points of the open cell
(oracles.invariant_dim_geometric), which shares no code with the greedy
chain machinery being tested.
"""

import random
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, gcd

from hypothesis import given, settings, strategies as st
import pytest

from oracles import (
    bruhat_leq_bruteforce,
    chain_fits_from_row_one,
    dimension_table,
    family_element,
    invariant_chain_exhaustive,
    invariant_chain_gr,
    invariant_dim_geometric,
    invariant_witnesses_by_filter,
    is_certified_minimum_gr,
    is_invariant_chain,
    is_standard_exhaustive,
    is_standard_greedy,
    is_young_on,
    max_coset_member_below,
    tableau_rows,
)
from torusq import grassmannian as gr, smt, verify
from torusq.cli import GR_MAX_N
from verify_memos import fresh_verify_memos, run_all_in_one_process


V7 = (5, 1, 2, 3, 6, 7, 4)  # the running SL(7) seed element
W7 = (5, 2, 3, 6, 7, 4, 1)


def test_tableau_shape_and_validation():
    assert tableau_rows((5,), (5,)) == [("short", 5), ("long", 5)]
    with pytest.raises(ValueError):
        smt.is_standard_on((5, 4), (5,), V7)
    with pytest.raises(ValueError):
        smt.is_standard_on((8,), (1,), V7)


def test_is_standard_on_names_a_malformed_row():
    # entries are checked against n = len(w), the two rows against each other
    with pytest.raises(ValueError, match=r"entry 8 out of range 1\.\.7"):
        smt.is_standard_on((8,), (1,), V7)
    with pytest.raises(ValueError, match=r"entry 0 out of range 1\.\.7"):
        smt.is_standard_on((5,), (0,), V7)
    with pytest.raises(ValueError, match=r"entry 5 out of range 1\.\.4"):
        smt.is_standard_on((5, 2), (2, 5), (4, 3, 2, 1))
    with pytest.raises(ValueError, match="need as many single boxes"):
        smt.is_standard_on((5,), (2, 5), V7)


def content_counts(shorts, missings, n):
    """How often each value 1..n appears in the tableau."""
    counts = [0] * n
    for v in shorts:
        counts[v - 1] += 1
    for d in missings:
        for v in range(1, n + 1):
            if v != d:
                counts[v - 1] += 1
    return counts


def is_invariant(shorts, missings):
    """Weight zero: the single-box values match the missing values as
    multisets, which is how the invariant witnesses are enumerated."""
    return sorted(shorts) == sorted(missings)


def test_invariance_is_multiset_equality():
    assert is_invariant((5,), (5,))
    assert not is_invariant((1,), (7,))
    assert is_invariant((2, 3), (3, 2))
    # the multiset test must agree with equal-content-counts
    for shorts in product(range(1, 5), repeat=2):
        for missings in product(range(1, 5), repeat=2):
            equal = len(set(content_counts(shorts, missings, 4))) == 1
            assert is_invariant(shorts, missings) == equal
    # every counted witness has weight zero
    for values in smt.invariant_witnesses((7, 6, 5, 4, 3, 2, 1), 2):
        assert len(set(content_counts(values[::-1], values, 7))) == 1


def test_young_on_the_seed():
    assert is_young_on((5,), (5,), V7)
    # a single box holding 6 exceeds pi_1(v) = (5)
    assert not is_young_on((6,), (6,), V7)
    w0 = (7, 6, 5, 4, 3, 2, 1)
    for val in range(1, 8):
        assert is_young_on((val,), (val,), w0)
    # the Young condition is necessary for standardness
    for w in permutations(range(1, 5)):
        for m in (1, 2):
            for values in smt.invariant_witnesses(w, m):
                assert is_young_on(values[::-1], values, w)


def test_standard_examples():
    assert smt.is_standard_on((4,), (4,), W7)
    assert not smt.is_standard_on((4,), (4,), (5, 2, 1, 3, 6, 7, 4))
    assert smt.is_standard_on((), (), V7)  # empty shape


def test_standardness_needs_n_at_least_2():
    with pytest.raises(ValueError):
        smt.is_standard_on((1,), (1,), (1,))
    with pytest.raises(ValueError):
        smt.invariant_dimension((1,), 1)
    with pytest.raises(ValueError):
        smt.invariant_witnesses((1,), 0)


# the S_n oracle: greedy maximum below a bound inside a pinned coset


def test_max_coset_member_below():
    got = max_coset_member_below((5, 2, 3, 6, 7, 4, 1), last=4)
    assert got == (5, 2, 3, 6, 7, 1, 4)
    assert max_coset_member_below((2, 1, 3, 4), first=4) is None
    assert max_coset_member_below((4, 3, 2, 1), first=2, last=3) == (2, 4, 1, 3)
    # pinning one value into both end slots leaves an empty coset
    assert max_coset_member_below((3, 2, 1), first=2, last=2) is None


def test_max_coset_member_is_the_unique_maximum():
    # brute force: the greedy result dominates every coset member below
    # the bound, for every bound and pin in S_4
    from oracles import bruhat_leq_bruteforce

    for bound in permutations(range(1, 5)):
        for val in range(1, 5):
            for pin in ("first", "last"):
                kw = {pin: val}
                got = max_coset_member_below(bound, **kw)
                pos = 0 if pin == "first" else 3
                others = [
                    c
                    for c in permutations(range(1, 5))
                    if c[pos] == val and bruhat_leq_bruteforce(c, bound)
                ]
                if got is None:
                    assert not others
                else:
                    assert got in others
                    assert all(bruhat_leq_bruteforce(c, got) for c in others)


def test_pair_order_is_bruhat_order_on_lifts():
    # (a, z) <= (a', z') iff a <= a' and z >= z', on the maximal
    # representatives of the cosets with fixed end values
    from torusq.weyl import bruhat_leq

    for n in range(2, 9):
        lifts = smt.parabolic_lifts(n)
        for u in lifts:
            for w in lifts:
                pair = u[0] <= w[0] and u[-1] >= w[-1]
                assert pair == bruhat_leq(u, w), (u, w)


def test_pair_standardness_matches_sn_greedy():
    cases = 0
    for n in range(2, 6):
        tableaux = [
            (values[::-1], values)
            for m in (1, 2, 3)
            for values in combinations_with_replacement(range(1, n + 1), m)
        ]
        for w in permutations(range(1, n + 1)):
            for t in tableaux:
                assert smt.is_standard_on(*t, w) == is_standard_greedy(*t, w), (w, t)
                cases += 1
    assert cases == 7548


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([7, 8]).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.lists(st.integers(1, n), min_size=1, max_size=3),
            st.lists(st.integers(1, n), min_size=3, max_size=3),
        )
    )
)
def test_pair_standardness_spot_n7_n8(case):
    w, shorts, missings = case
    t = tuple(shorts), tuple(missings[: len(shorts)])
    assert smt.is_standard_on(*t, tuple(w)) == is_standard_greedy(*t, tuple(w))


def test_greedy_standardness_matches_exhaustive_search():
    for n, m in [(3, 1), (3, 2), (4, 1), (4, 2)]:
        for w in permutations(range(1, n + 1)):
            for shorts in product(range(1, n + 1), repeat=m):
                for missings in product(range(1, n + 1), repeat=m):
                    assert smt.is_standard_on(shorts, missings, w) == (
                        is_standard_exhaustive(shorts, missings, w)
                    ), (w, shorts, missings)


@settings(max_examples=60, deadline=None)
@given(
    st.permutations(list(range(1, 7))),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=2),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=2),
)
def test_greedy_standardness_spot_n6(w, shorts, missings):
    if len(shorts) != len(missings):
        return
    t = tuple(shorts), tuple(missings)
    assert smt.is_standard_on(*t, tuple(w)) == is_standard_exhaustive(*t, tuple(w))


@settings(max_examples=80, deadline=None)
@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_standardness_lifts_along_bruhat(u, w):
    from torusq.weyl import bruhat_leq

    u, w = tuple(u), tuple(w)
    if not bruhat_leq(u, w):
        return
    for values in product(range(1, 6), repeat=1):
        if smt.is_standard_on(values, values, u):
            assert smt.is_standard_on(values, values, w)


def test_invariant_dimension_landmarks():
    assert smt.invariant_dimension(V7, 1) == 1
    assert smt.invariant_dimension(W7, 1) == 4
    assert smt.invariant_dimension((7, 6, 5, 4, 3, 2, 1), 1) == 6
    assert smt.invariant_dimension((1, 2, 3, 4, 5, 6, 7), 1) == 0
    assert smt.invariant_dimension(tuple(range(1, 8)), 2) == 0


def test_closed_form_and_direct_witnesses_match_the_walk():
    # every w in S_n, 2 <= n <= 7, degrees 0..3 (0..2 at n = 7)
    cases = 0
    for n in range(2, 8):
        for w in permutations(range(1, n + 1)):
            t = smt.invariant_generators(w)
            for m in range(3 if n == 7 else 4):
                walked = smt.invariant_dimension(w, m)
                assert smt.monomial_count(t, m) == walked, (w, m)
                direct = smt.invariant_witnesses(w, m)
                assert direct == invariant_witnesses_by_filter(w, m), (w, m)
                assert len(direct) == walked
                cases += 1
    assert cases == 18608


def test_dimension_matches_geometric_rank_s4():
    for w in permutations(range(1, 5)):
        for m in (1, 2, 3):
            assert smt.invariant_dimension(w, m) == invariant_dim_geometric(w, m)


def test_dimension_matches_geometric_rank_golden_rows():
    for k, j, _pred, tag in smt.family_rows("a", 7, 3):
        if tag == "copy":
            continue
        w = family_element("a", 7, 3, k, j)
        assert smt.invariant_dimension(w, 1) == invariant_dim_geometric(w, 1)


def test_dimension_depends_only_on_the_two_ends():
    # the B-orbit of the base point projects to a pair of coordinate
    # flags, so the ends of the one-line form decide every count
    for n in range(2, 7):
        lifts = {(l[0], l[-1]): l for l in smt.parabolic_lifts(n)}
        for w in permutations(range(1, n + 1)):
            lift = lifts[w[0], w[-1]]
            for m in (1, 2, 3):
                assert smt.invariant_dimension(w, m) == smt.invariant_dimension(lift, m)


def test_section_count_walk_equals_the_tableau_walk():
    # the pair walk on each sorted multiset, read in place, against the
    # checked walk of its rows through is_standard_on
    elements = [w for n in range(2, 7) for w in permutations(range(1, n + 1))]
    elements += [w for n in range(2, 10) for w in smt.parabolic_lifts(n)]
    for w in elements:
        for m in range(4):
            expected = len(invariant_witnesses_by_filter(w, m))
            assert smt.invariant_dimension(w, m) == expected, (w, m)


def test_section_count_walks_the_multisets_of_one_to_w1(monkeypatch):
    # a multiset with a value above w(1) cannot start the walk, so only the
    # C(w(1)+m-1, m) multisets of 1..w(1) are walked, and each of them is
    walks = []
    walk = smt._pair_walk

    def counting(shorts, missings, w, n):
        walks.append(missings)
        return walk(shorts, missings, w, n)

    monkeypatch.setattr(smt, "_pair_walk", counting)
    elements = [(2, 1), (1, 2), (3, 1, 2), (5, 1, 2, 3, 6, 7, 4), (4, 9, 1, 2, 3, 5, 6, 8, 7)]
    elements += [w for w in smt.parabolic_lifts(6) if w[0] == 6]
    for w in elements:
        for m in range(4):
            walks.clear()
            smt.invariant_dimension(w, m)
            assert len(walks) == comb(w[0] + m - 1, m), (w, m)


def test_verify_reads_the_section_counts_through_the_walk(monkeypatch):
    # the suites keep each (w, m) count once; with the cache emptied, a
    # wrong walk must reach every suite that compares section counts
    walk = smt.invariant_dimension

    def one_too_many(w, m):
        return walk(w, m) + 1

    fresh_verify_memos(monkeypatch)
    monkeypatch.setattr(smt, "invariant_dimension", one_too_many)
    for suite in ("golden-sl7", "family-tables", "hilbert"):
        [result] = verify.run_suite(suite)
        assert not result["passed"], suite


def test_verify_walks_each_section_count_once(monkeypatch):
    calls = []
    walk = smt.invariant_dimension

    def counting(w, m):
        calls.append((w, m))
        return walk(w, m)

    fresh_verify_memos(monkeypatch)
    monkeypatch.setattr(smt, "invariant_dimension", counting)
    assert all(result["passed"] for result in run_all_in_one_process())
    assert len(calls) == len(set(calls)) == 324


def test_minimal_borel_closed_form():
    from torusq.weyl import bruhat_leq

    assert smt.minimal_borel_semistable(7)[3] == V7
    got = smt.minimal_borel_semistable(4)
    assert got == [(2, 3, 4, 1), (3, 1, 4, 2), (4, 1, 2, 3)]
    # brute force over S_4: minimal elements carrying a degree-1 invariant
    hits = [
        w
        for w in permutations(range(1, 5))
        if smt.invariant_dimension(w, 1) > 0
    ]
    minimal = {
        w for w in hits if not any(u != w and bruhat_leq(u, w) for u in hits)
    }
    assert minimal == set(got)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bruhat_minima_by_length_match_the_all_pairs_scan(n):
    # the minimal-borel suite's minima of the degree-one hits, against every
    # pair compared on the cover-walk Bruhat order
    hits = [w for w in permutations(range(1, n + 1)) if smt.invariant_dimension(w, 1) > 0]
    expected = [
        w for w in hits if not any(u != w and bruhat_leq_bruteforce(u, w) for u in hits)
    ]
    got = verify._bruhat_minima(hits)
    assert sorted(got) == sorted(expected) == sorted(smt.minimal_borel_semistable(n))
    assert sorted(verify._bruhat_minima(reversed(hits))) == sorted(expected)


def test_family_seeds():
    assert smt.family_minimal("a", 7, 3) == V7
    assert smt.family_minimal("a2", 5) == (5, 1, 2, 3, 4)
    assert smt.family_minimal("b", 5, 2) == (3, 1, 4, 5, 2)
    with pytest.raises(ValueError):
        smt.family_minimal("a", 5, 3)  # i must stay below n-2
    with pytest.raises(ValueError):
        smt.family_minimal("c", 5, 1)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("read", [smt.family_rows, smt.family_minimal, smt.family_walk])
def test_the_second_family_is_refused_below_n_3(read, n):
    # at n = 2 the walk would reach the identity, which has no invariant,
    # with one predicted; at n = 1 there is no s_1 to multiply by
    with pytest.raises(ValueError, match="the second family needs n >= 3"):
        read("a2", n)


def test_family_elements_along_the_golden_chain():
    assert family_element("a", 7, 3, 1, 2) == (5, 2, 1, 3, 6, 7, 4)
    assert family_element("a", 7, 3, 1, 6) == W7
    assert family_element("a", 7, 3, 3, 4) == (5, 6, 7, 4, 3, 2, 1)
    assert family_element("a", 7, 3, 6, 1) == (7, 6, 5, 4, 3, 2, 1)
    with pytest.raises(ValueError):
        family_element("a", 7, 3, 2, 7)  # j beyond n-k
    with pytest.raises(ValueError):
        family_element("a", 7, 3, 9, 1)


def test_family_row_counts():
    rows = smt.family_rows("a", 7, 3)
    assert sum(1 for r in rows if r[3] != "copy") == 16
    assert rows[0] == (0, None, 1, "seed")
    # the B family ends at w0 like the others
    last_k, last_j = 6, 1
    assert family_element("b", 7, 2, last_k, last_j) == (7, 6, 5, 4, 3, 2, 1)


def test_dimension_tables_match():
    # every family of every S_n with 4 <= n <= 10: each predicted count
    # against the walked count of the element rebuilt from the seed
    tables = 0
    for n in range(4, 11):
        plans = [("a2", None)] + [("a", i) for i in range(1, n - 2)]
        plans += [("b", i) for i in range(1, n)]
        for case, i in plans:
            table = dimension_table(case, n, i)
            assert table["all_match"], table
            tables += 1
    assert tables == 77


def test_family_walk_equals_the_elements_rebuilt_from_the_seed():
    # every row of every family with 3 <= n <= 9, one right multiplication
    # per row against O(k*n) from the seed
    rows = 0
    for n in range(3, 10):
        plans = [("a2", None)] + [("a", i) for i in range(1, n - 2)]
        plans += [("b", i) for i in range(1, n)]
        for case, i in plans:
            walked = smt.family_walk(case, n, i)
            assert [row[:4] for row in walked] == smt.family_rows(case, n, i)
            for k, j, _predicted, _tag, elt in walked:
                assert elt == family_element(case, n, i, k, j), (case, n, i, k, j)
            rows += len(walked)
    assert rows == 1127


def test_parabolic_lifts():
    lifts = smt.parabolic_lifts(4)
    assert len(lifts) == 12
    assert (1, 4, 3, 2) in lifts
    assert all(len(set(l)) == 4 for l in lifts)


def test_projective_normality_reports():
    report = smt.projective_normality_check((7, 6, 5, 4, 3, 2, 1), (2,))
    assert report["t"] == 6
    assert report["degrees"][0]["expected"] == 21
    assert report["all_match"]
    report = smt.projective_normality_check((4, 3, 2, 1), (2, 3))
    assert report["t"] == 3
    assert [r["expected"] for r in report["degrees"]] == [6, 10]
    assert report["all_match"]
    # t = 1 keeps dimension 1 in every degree
    report = smt.projective_normality_check(V7, (2, 3))
    assert report["t"] == 1
    assert all(r["computed"] == 1 for r in report["degrees"])
    # t is read off w, and it is the walked degree-one count
    for w in smt.parabolic_lifts(5):
        report = smt.projective_normality_check(w, (2, 3))
        assert report["t"] == smt.invariant_dimension(w, 1), w


# ---------------------------------------------------------------------------
# Grassmannian chain certificates


def test_chain_on_gr25():
    chain = invariant_chain_gr((3, 5), 2, 5, 5)
    assert chain is not None
    assert len(chain) == 5
    counts = [0] * 5
    for entry in chain:
        assert all(a <= b for a, b in zip(entry, (3, 5)))
        for v in entry:
            counts[v - 1] += 1
    assert counts == [2] * 5
    for hi, lo in zip(chain, chain[1:]):
        assert all(b <= a for a, b in zip(hi, lo))
    assert invariant_chain_gr((2, 5), 2, 5, 5) is None
    assert invariant_chain_gr((3, 5), 2, 5, 4) is None  # degree not divisible


def test_chain_on_gr24():
    assert invariant_chain_gr((2, 4), 2, 4, 2) == ((2, 4), (1, 3))
    assert invariant_chain_gr((1, 4), 2, 4, 2) is None


def test_semistable_chain_in_the_least_degree():
    # Gr(2,5): m0 = 5, and the chain below (3, 5) is found there: the
    # top-first filling has rows 11223 / 34455, read last column first
    assert invariant_chain_gr((3, 5), 2, 5, 5) == (
        (3, 5), (2, 5), (2, 4), (1, 4), (1, 3)
    )
    # below v = (3, 5) there is none, in degree 2*m0 either
    assert invariant_chain_gr((2, 5), 2, 5, 5) is None
    assert invariant_chain_gr((2, 5), 2, 5, 10) is None


def test_minimal_sweep_gr24():
    assert smt.minimal_semistable_oracle_gr(2, 4) == [(2, 4)]


def column_sets(r, n):
    return combinations(range(1, n + 1), r)


def certificate_degrees(r, n):
    m0 = n // gcd(r, n)
    return (m0, 2 * m0)


def test_chain_exists_iff_exhaustive_search_finds_one():
    """The filling's chain exists exactly when the depth-first search
    finds one, and is a valid chain (not necessarily the same one)."""
    cases = 0
    for n in range(2, 8):
        for r in range(1, n):
            for w in column_sets(r, n):
                for m in certificate_degrees(r, n):
                    chain = invariant_chain_gr(w, r, n, m)
                    expected = invariant_chain_exhaustive(w, r, n, m)
                    assert (chain is None) == (expected is None), (w, r, n, m)
                    assert chain is None or is_invariant_chain(chain, w, r, n, m), (
                        w, r, n, m, chain
                    )
                    cases += 1
    assert cases == 480


def test_certificate_exists_iff_above_the_minimal_element():
    """In degree m0 and in degree 2*m0 alike: so a 2*m0 chain never
    certifies a column set that m0 misses."""
    for n in range(2, 12):
        for r in range(1, n):
            v = gr.minimal_semistable(r, n)
            needs = [(m * r // n,) * n for m in certificate_degrees(r, n)]
            for w in column_sets(r, n):
                above = gr.indexset_leq(v, w)
                for need in needs:
                    fits = smt._chain_fits(w, need, r) is not None
                    assert fits == above, (w, r, n, need)


def lower_covers(v):
    """Column sets one below v: one entry lowered by one."""
    return [
        v[:i] + (v[i] - 1,) + v[i + 1:]
        for i in range(len(v))
        if v[i] - 1 > (v[i - 1] if i else 0)
    ]


def test_minimal_element_is_certified_and_nothing_below_it():
    """v fits a chain in degree m0 and no lower cover of v does, for every
    box with n <= 60: the r + 1 fits that ``gr analyze`` makes."""
    for n in range(2, 61):
        for r in range(1, n):
            v = gr.minimal_semistable(r, n)
            need = (r // gcd(r, n),) * n
            assert smt._chain_fits(v, need, r) is not None, (r, n)
            assert all(smt._chain_fits(u, need, r) is None for u in lower_covers(v)), (r, n)


def test_least_degree_chain_exists_iff_above_v_up_to_the_limit():
    """Seeded random boxes with n up to the ``gr analyze`` limit: the
    degree-m0 chain exists exactly when v <= w, and is valid.  Each box
    tries a random w, its entrywise max and min with v (both column sets,
    one above v, one below), v and a lower cover of v."""
    rng = random.Random(2012)
    for _ in range(40):
        n = rng.randint(2, GR_MAX_N)
        r = rng.randint(1, n - 1)
        v = gr.minimal_semistable(r, n)
        m0 = n // gcd(r, n)
        w = tuple(sorted(rng.sample(range(1, n + 1), r)))
        for u in (w, tuple(map(max, w, v)), tuple(map(min, w, v)), v, *lower_covers(v)[:1]):
            chain = invariant_chain_gr(u, r, n, m0)
            assert (chain is not None) == gr.indexset_leq(v, u), (u, r, n)
            assert chain is None or is_invariant_chain(chain, u, r, n, m0), (u, r, n)


def test_balanced_chain_attains_the_minimal_element():
    """The chain of ``minimal_semistable``'s docstring, built directly:
    S_k = {ceil((i*n' - k)/r')}, k < m0, is weakly decreasing from v,
    uses every value r' = m0*r/n times, and is what
    ``grassmannian.minimal_invariant_chain`` returns."""
    for n in range(2, 61):
        for r in range(1, n):
            g = gcd(r, n)
            n1, r1 = n // g, r // g
            chain = [
                tuple(-((k - i * n1) // r1) for i in range(1, r + 1))
                for k in range(n1)
            ]
            assert chain[0] == gr.minimal_semistable(r, n)
            for cols in chain:
                assert list(cols) == sorted(set(cols)) and 1 <= cols[0] and cols[-1] <= n
            for hi, lo in zip(chain, chain[1:]):
                assert all(b <= a for a, b in zip(hi, lo))
            uses = [0] * n
            for cols in chain:
                for v in cols:
                    uses[v - 1] += 1
            assert uses == [r1] * n, (r, n)
            assert gr.minimal_invariant_chain(r, n) == tuple(chain), (r, n)


def test_closed_form_chain_is_the_fill_at_every_w_above_v():
    """The strided closed form that ``gr analyze`` prints is the chain the
    top-first fill reads back at every w >= v, on every box with n <= 12,
    and a valid invariant chain below w."""
    cases = 0
    for n in range(2, 13):
        for r in range(1, n):
            v = gr.minimal_semistable(r, n)
            m0 = n // gcd(r, n)
            chain = gr.minimal_invariant_chain(r, n)
            for w in column_sets(r, n):
                if gr.indexset_leq(v, w):
                    assert invariant_chain_gr(w, r, n, m0) == chain, (w, r, n)
                    assert is_invariant_chain(chain, w, r, n, m0), (w, r, n)
                    cases += 1
    assert cases == 886


@pytest.mark.parametrize("r, n", [
    (279, 293), (150, 300), (151, 300), (152, 300), (2, 300), (299, 300),
])
def test_closed_form_chain_is_the_fill_at_the_gr_analyze_limit(r, n):
    """The same at the ``gr analyze`` limit, at the top set and at v."""
    m0 = n // gcd(r, n)
    chain = gr.minimal_invariant_chain(r, n)
    for w in (tuple(range(n - r + 1, n + 1)), gr.minimal_semistable(r, n)):
        assert invariant_chain_gr(w, r, n, m0) == chain, (r, n)
        assert is_invariant_chain(chain, w, r, n, m0), (r, n)


def test_certified_minimum_needs_the_minimal_element():
    assert is_certified_minimum_gr((2, 4), 2, 4)
    assert not is_certified_minimum_gr((3, 4), 2, 4)  # (2, 4) below it fits
    assert not is_certified_minimum_gr((1, 4), 2, 4)  # no chain at all
    assert is_certified_minimum_gr((2, 4, 6), 3, 6)
    assert not is_certified_minimum_gr((2, 5, 6), 3, 6)


def test_chain_fits_hand_cases():
    def fits(bound, need, r):
        return smt._chain_fits(bound, need, r) is not None

    # 2 x 2 tableaux, rows bounded by the flags
    assert fits((2, 4), (1, 1, 1, 1), 2)  # rows 12 / 34
    assert fits((2, 4), (0, 2, 0, 2), 2)  # rows 22 / 44
    assert fits((1, 3), (2, 0, 2, 0), 2)  # rows 11 / 33
    assert not fits((1, 2), (2, 0, 2, 0), 2)  # 3 above its flag 2
    assert not fits((1, 4), (1, 1, 1, 1), 2)  # row 1 needs two 1s
    # the 2 must go on top (rows 12 / 44); below the 1 it would push a 4
    # into row 1, past its flag
    assert fits((2, 4), (1, 1, 0, 2), 2)
    # three copies of one value in two columns cannot be strict
    assert not fits((3, 4), (3, 1, 0, 0), 2)
    # cell count not a multiple of the number of rows
    assert not fits((3, 4), (1, 1, 1, 0), 2)
    # the empty tableau: a filling with no cells, not a failure
    assert fits((1, 2), (0, 0, 0), 2)
    # 3 x 2: rows 12 / 23 / 45
    assert fits((2, 3, 5), (1, 2, 1, 1, 1), 3)
    assert not fits((2, 3, 4), (1, 2, 1, 1, 1), 3)
    # the filling itself, as runs (value, count) per row
    assert smt._chain_fits((2, 4), (1, 1, 0, 2), 2) == [[(1, 1), (2, 1)], [(4, 2)]]
    assert smt._chain_fits((2, 3, 5), (1, 2, 1, 1, 1), 3) == [
        [(1, 1), (2, 1)], [(2, 1), (3, 1)], [(4, 1), (5, 1)]
    ]
    assert smt._chain_fits((1, 2), (0, 0, 0), 2) == [[], []]


def test_chain_fits_against_every_small_chain():
    """All contents and bounds for n <= 6 and chains of up to 3 sets,
    against the chains themselves."""
    for n in range(2, 7):
        for r in range(1, n):
            sets = sorted(column_sets(r, n), reverse=True)
            for width in range(1, 4):
                tops = {}
                for chain in combinations_with_replacement(sets, width):
                    if any(
                        any(b > a for a, b in zip(hi, lo))
                        for hi, lo in zip(chain, chain[1:])
                    ):
                        continue
                    content = tuple(
                        sum(v in c for c in chain) for v in range(1, n + 1)
                    )
                    tops.setdefault(content, []).append(chain[0])
                for need in product(range(width + 1), repeat=n):
                    if sum(need) != width * r:
                        continue
                    for bound in sets:
                        expected = any(
                            all(t <= b for t, b in zip(top, bound))
                            for top in tops.get(need, ())
                        )
                        fits = smt._chain_fits(bound, need, r) is not None
                        assert fits == expected, (
                            bound, need, r
                        )


def test_chain_fits_starts_each_strip_at_the_first_open_row():
    """The same fillings as walking every strip down from row 1: every
    column set with n <= 10 at m0 and 2*m0, then seeded random contents
    (half of them the content of random column sets, so often a chain)
    under random and top bounds with n <= 40."""
    cases = [
        (w, smt._uniform_need(r, n, m), r)
        for n in range(2, 11)
        for r in range(1, n)
        for m in smt._certificate_degrees(r, n)
        for w in combinations(range(1, n + 1), r)
    ]
    rng = random.Random(2021)
    for _ in range(3000):
        n = rng.randint(2, 40)
        r = rng.randint(1, n - 1)
        width = rng.randint(0, 8)
        need = [0] * n
        if rng.random() < 0.5:
            picks = [v for _ in range(width) for v in rng.sample(range(1, n + 1), r)]
        else:
            picks = rng.choices(range(1, n + 1), k=width * r)
        for v in picks:
            need[v - 1] += 1
        if rng.random() < 0.5:
            bound = tuple(range(n - r + 1, n + 1))
        else:
            bound = tuple(sorted(rng.sample(range(1, n + 1), r)))
        cases.append((bound, tuple(need), r))
    chains = 0
    for bound, need, r in cases:
        rows = smt._chain_fits(bound, need, r)
        assert rows == chain_fits_from_row_one(bound, need, r), (bound, need, r)
        chains += rows is not None
    assert len(cases) == 7052 and 0 < chains < len(cases)
