import contextlib
import io
import json
from itertools import combinations_with_replacement, product

from hypothesis import given, strategies as st
import pytest

from torusq import criteria, grassmannian as gr, verify
from torusq.cli import main
from oracles import is_smooth_by_complement_rows, singular_components_by_corners


boxes = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=8)
).filter(lambda rn: rn[0] < rn[1])


@st.composite
def indexsets(draw):
    r, n = draw(boxes)
    entries = draw(
        st.lists(
            st.integers(min_value=1, max_value=n),
            min_size=r,
            max_size=r,
            unique=True,
        )
    )
    return tuple(sorted(entries)), r, n


@given(indexsets())
def test_dictionary_roundtrip(case):
    w, r, n = case
    lam = gr.indexset_to_partition(w, r, n)
    assert gr.check_partition(lam, r, n) == lam
    assert gr.partition_to_indexset(lam, r, n) == w


@given(indexsets(), indexsets())
def test_dictionary_reverses_order(a, b):
    wa, r, n = a
    wb, r2, n2 = b
    if (r, n) != (r2, n2):
        return
    la = gr.indexset_to_partition(wa, r, n)
    lb = gr.indexset_to_partition(wb, r, n)
    assert gr.indexset_leq(wa, wb) == gr.diagram_leq(lb, la)


def test_extremes():
    assert gr.indexset_to_partition((3, 4), 2, 4) == (0, 0)
    assert gr.indexset_to_partition((1, 2), 2, 4) == (2, 2)


def test_corner_detection():
    # (1,0) in the 2x2 box: single corner at (1,1)
    assert gr.corners((1, 0), 2, 4) == [(1, 1)]
    # rows touching the right wall are not corners
    assert gr.corners((2, 0), 2, 4) == []
    assert gr.corners((2, 1), 2, 5) == [(1, 2), (2, 1)]


def test_singular_component_growth():
    assert gr.singular_components((1, 0), 2, 4) == [(2, 2)]
    assert gr.singular_components((2, 1), 2, 4) == []
    # of the two corners only (1,2) grows inside the box
    assert gr.singular_components((2, 1), 2, 5) == [(3, 3)]
    # growth hitting the box edge is discarded
    assert gr.singular_components((3, 0), 2, 5) == []


def test_singular_components_checks_the_partition_once(monkeypatch):
    calls = []
    check = gr.check_partition

    def counting(parts, r, n):
        calls.append(parts)
        return check(parts, r, n)

    monkeypatch.setattr(gr, "check_partition", counting)
    assert gr.singular_components([2, 1], 2, 5) == [(3, 3)]
    assert calls == [(2, 1)]
    monkeypatch.undo()
    for mu, r, n, message in [
        ((1, 0), 4, 4, "need 1 <= r <= n-1, got r=4, n=4"),
        ((1,), 2, 4, "partition (1,) should have 2 parts (pad with 0)"),
        ((3, 0), 2, 4, "partition (3, 0) leaves the 2x2 box"),
        ((0, 1), 2, 4, "partition (0, 1) must be weakly decreasing"),
    ]:
        with pytest.raises(ValueError) as exc:
            gr.singular_components(mu, r, n)
        assert str(exc.value) == message


def _outcome(kernel, mu, r, n):
    """A kernel's answer, or the type and message of what it raises."""
    try:
        return kernel(mu, r, n)
    except ValueError as exc:
        return type(exc), str(exc)


def test_diagram_kernels_match_the_oracles_in_every_box_up_to_7x7():
    # every partition of every r x c box, 1 <= r, c <= 7
    cases = 0
    for r, c in product(range(1, 8), repeat=2):
        for mu in combinations_with_replacement(range(c, -1, -1), r):
            cases += 1
            assert gr.is_smooth(mu, r, r + c) == is_smooth_by_complement_rows(mu, r, r + c)
            assert gr.singular_components(mu, r, r + c) == (
                singular_components_by_corners(mu, r, r + c)
            )
    assert cases == 12854


def test_diagram_kernels_refuse_with_the_oracles_messages():
    # every tuple of parts one past the box, one part short and one too
    # many, in boxes up to 3 x 3 and in boxes that are not boxes
    cases = [(list(mu), r, n) for mu, r, n in [((2, 1), 2, 5), ((), 0, 3), ((1, 0), 4, 4)]]
    for r, c in product(range(1, 4), repeat=2):
        for size in (r - 1, r, r + 1):
            cases += [(mu, r, r + c) for mu in product(range(-1, c + 2), repeat=size)]
    refused = 0
    for mu, r, n in cases:
        for kernel, oracle in [(gr.is_smooth, is_smooth_by_complement_rows),
                               (gr.singular_components, singular_components_by_corners)]:
            got = _outcome(kernel, mu, r, n)
            assert got == _outcome(oracle, mu, r, n), (kernel.__name__, mu, r, n)
            refused += isinstance(got, tuple)
    # all but [2, 1] and the 62 partitions of the boxes up to 3 x 3 are refused
    assert refused == 2 * (len(cases) - 63)
    # out of the box and unsorted: the box is named first
    for kernel in (gr.is_smooth, gr.singular_components):
        assert _outcome(kernel, (1, 3), 2, 4) == (ValueError, "partition (1, 3) leaves the 2x2 box")


def test_smoothness_by_complement():
    assert gr.is_smooth((0, 0), 2, 4)
    assert gr.is_smooth((2, 2), 2, 4)
    assert not gr.is_smooth((1, 0), 2, 4)
    assert gr.is_smooth((2, 2, 0), 3, 5)
    assert not gr.is_smooth((2, 1, 0), 3, 6)


def test_minimal_semistable_values():
    assert gr.minimal_semistable(2, 5) == (3, 5)
    assert gr.minimal_semistable(3, 7) == (3, 5, 7)
    assert gr.minimal_semistable(2, 4) == (2, 4)
    assert gr.minimal_semistable(3, 6) == (2, 4, 6)
    assert gr.minimal_semistable(3, 5) == (2, 4, 5)
    assert gr.minimal_semistable(4, 5) == (2, 3, 4, 5)


def test_formula_variant_overshoots():
    # the two-branch form coincides only when n = 1 mod r
    assert gr.minimal_semistable_formula(2, 5) == (3, 5)
    assert gr.minimal_semistable_formula(2, 4) == (3, 4)
    assert gr.minimal_semistable_formula(3, 5) == (3, 4, 5)
    assert gr.minimal_semistable_formula(3, 6) == (3, 5, 6)


def test_minimal_semistable_against_sweep():
    for r, n in [(1, 3), (2, 4), (2, 5), (3, 5), (2, 6), (3, 6), (4, 6)]:
        assert verify.minimal_semistable_oracle_gr(r, n) == [
            gr.minimal_semistable(r, n)
        ]


def test_semistable_in_smooth():
    def ss_in_smooth(w, r, n):
        return criteria.semistable_meets_singular_gr(w, r, n)[0]["ss_in_smooth"]

    assert ss_in_smooth((3, 5), 2, 5) is True
    assert ss_in_smooth((4, 5), 2, 5) is True
    # smallest failing case: component (2,2,0,0) of w=(5,7,8,9) holds
    # all of X(v) for v=(3,5,7,9)
    assert ss_in_smooth((5, 7, 8, 9), 4, 9) is False
    result, warnings = criteria.semistable_meets_singular_gr((2, 5), 2, 5)
    assert result["ss_in_smooth"] is None
    assert warnings == ["no semistable points below this element"]


def analyze(w, r, n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gr", "analyze", "--n", str(n), "--r", str(r),
                     "--w", ",".join(map(str, w)), "--json"]) == 0
    return json.loads(out.getvalue())["result"]


def test_quotient_report():
    # the quotient is smooth when gcd(r, n) = 1, X_w has semistable
    # points, and they avoid the singular locus
    report = analyze((3, 5), 2, 5)
    assert report["semistable_nonempty"] is True
    assert report["ss_in_smooth"] is True
    assert report["quotient_smooth"] is True
    report = analyze((2, 4), 2, 4)  # gcd 2
    assert report["ss_in_smooth"] is True
    assert report["quotient_smooth"] is False
    report = analyze((1, 2), 2, 5)
    assert report["semistable_nonempty"] is False
    assert report["ss_in_smooth"] is None
    assert report["quotient_smooth"] is False


def test_validation_errors():
    with pytest.raises(ValueError):
        gr.check_indexset((2, 2), 2, 4)
    with pytest.raises(ValueError):
        gr.check_indexset((0, 3), 2, 4)
    with pytest.raises(ValueError):
        gr.check_partition((1, 2), 2, 4)
    with pytest.raises(ValueError):
        gr.check_partition((3, 0), 2, 4)
    with pytest.raises(ValueError):
        gr.check_box(4, 4)


def test_check_partition_messages_come_in_the_rule_order():
    # every tuple of parts one past the box on each side: the box rule is
    # reported first, then the order rule, with the same messages
    for r, n in [(1, 3), (2, 4), (3, 5), (3, 7)]:
        for parts in product(range(-1, n - r + 2), repeat=r):
            if any(p < 0 or p > n - r for p in parts):
                expected = f"partition {parts} leaves the {r}x{n - r} box"
            elif any(parts[k] < parts[k + 1] for k in range(r - 1)):
                expected = f"partition {parts} must be weakly decreasing"
            else:
                assert gr.check_partition(list(parts), r, n) == parts
                continue
            with pytest.raises(ValueError) as exc:
                gr.check_partition(parts, r, n)
            assert str(exc.value) == expected
    with pytest.raises(ValueError, match=r"should have 2 parts"):
        gr.check_partition((1,), 2, 4)
