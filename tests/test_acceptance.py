"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with output visible:  pytest -v -s tests/test_acceptance.py

The cross-strategy matrix (criterion 7) exercises every builtin system under
every strategy, signature order, and signature initialization, with the
queue invariant asserted at every loop head (criterion 8); its results are
shared by the later criteria.
"""

import time

import pytest

from conftest import elem, load_fixture, mono
from sigbasis.algebra import Context, RationalField
from sigbasis.critical import critical_pair_signatures, critical_set
from sigbasis.engine import (
    Strategy,
    export_dot,
    faugere_certificate,
    run,
    tree_signature_consistent,
    validate_sigtree,
)
from sigbasis.monomials import Monomial, ModuleOrder, MonoidSpec, ScalarOrder, divide
from sigbasis.sigcore import (
    SigPair,
    classify_signature,
    make_prebasis_shifted,
    make_prebasis_unshifted,
    regular_normal_form_with_steps,
)
from sigbasis.systems import builtin_problem
from sigbasis.textio import parse_monomial
from sigbasis.verify import (
    bounded_signature_basis_check,
    bounded_syzygy_check,
    lm_ideal_equal,
)

SYSTEMS = ("mora", "katsura4", "katsura5", "katsura6")
STRATEGIES = (
    ("in-order", Strategy.in_order),
    ("min-lm", Strategy.min_lm),
    ("f5", Strategy.f5),
    ("f5-pruned", Strategy.f5_pruned),
    ("f4(4)", lambda: Strategy.f4(4)),
)
SIG_ORDERS = ("top", "pot")
INITS = ("shifted", "unshifted")

KATSURA6_BUDGET_SECONDS = 120.0


def _passed(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


@pytest.fixture(scope="module")
def matrix():
    """All matrix runs, with the queue invariant asserted at every loop head."""
    runs = {}
    for system in SYSTEMS:
        ctx, gens = builtin_problem(system)
        oracle_lms = {
            parse_monomial(t, ctx.variables)
            for t in load_fixture(f"{system}_oracle.json")["lm_set"]
        }
        for sig_order in SIG_ORDERS:
            for init in INITS:
                make = (
                    make_prebasis_shifted if init == "shifted" else make_prebasis_unshifted
                )
                for label, factory in STRATEGIES:
                    start = time.perf_counter()
                    result = run(
                        make(gens, sig_order),
                        factory(),
                        debug_invariant_stride=1,
                    )
                    elapsed = time.perf_counter() - start
                    runs[(system, sig_order, init, label)] = (
                        result,
                        elapsed,
                        oracle_lms,
                        ctx,
                    )
    return runs


@pytest.fixture(scope="module")
def mora_setup():
    ctx, gens = builtin_problem("mora")
    return ctx, gens, make_prebasis_shifted(gens, "top")


@pytest.fixture(scope="module")
def mora_result(matrix):
    return matrix[("mora", "top", "shifted", "in-order")][0]


def test_criterion_1_univariate_replay():
    ctx = Context(
        ("x",), ScalarOrder("degrevlex", ("x",)), MonoidSpec.full(), RationalField()
    )
    g = elem(ctx, "x - 1")
    G = make_prebasis_shifted([g], "top")
    f2 = SigPair(elem(ctx, "x^2"), Monomial((3,)).with_slot(1), 9)
    f1 = SigPair(elem(ctx, "x^2"), Monomial((1,)).with_slot(1), 8)

    best = min(
        _timed(regular_normal_form_with_steps, f2, G)[1] for _ in range(5)
    )
    out, steps = regular_normal_form_with_steps(f2, G)
    assert out.part == elem(ctx, "1")
    assert out.sig == Monomial((3,)).with_slot(1)
    assert steps == 2
    irreducible, steps1 = regular_normal_form_with_steps(f1, G)
    assert irreducible == f1 and steps1 == 0
    assert best < 0.001, f"normal form took {best*1e3:.3f} ms"
    _passed(1, f"two-step reduction to part 1 in {best*1e6:.0f} us; (x^2, x) irreducible")


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def test_criterion_2_mora_trace_replay(mora_setup):
    ctx, gens, G = mora_setup
    cs = critical_set(G)
    assert cs == {mono(ctx, 5, 2, slot=2), mono(ctx, 2, 5, slot=3)}
    t0 = time.perf_counter()
    result = run(make_prebasis_shifted(gens, "top"), Strategy.in_order())
    elapsed = time.perf_counter() - t0
    inserted = [m for m in result.basis.members if m.id > 3][:3]
    assert [(m.part.lm, m.sig) for m in inserted] == [
        (mono(ctx, 1, 4), mono(ctx, 5, 2, slot=2)),
        (mono(ctx, 4, 1), mono(ctx, 2, 5, slot=3)),
        (mono(ctx, 4, 0), mono(ctx, 6, 2, slot=2)),
    ]
    assert inserted[0].part == elem(ctx, "x^4*y - y^3")
    assert inserted[1].part == elem(ctx, "x*y^4 - x^3")
    assert inserted[2].part == elem(ctx, "y^4 - x^2")
    assert elapsed < 1.0
    _passed(2, f"in-order trace matches the published run in {elapsed*1e3:.0f} ms")


def test_criterion_3_critical_set_minimality(mora_setup):
    ctx, gens, G = mora_setup
    g1, g2, g3 = G.members
    spec, order = ctx.monoid, G.sig_order
    # The published account attributes this set to the pairing with g1, but
    # its own witness reduction (y^5 g3 against a multiple of g2) identifies
    # the g2 pairing; that pairing produces the quoted signature.  The g1
    # pairing per the definition gives the smaller x^5y^2*e3 directly.
    target = mono(ctx, 5, 5, slot=3)
    assert critical_pair_signatures(g3, g2, spec, order) == ((target,), ())
    assert critical_pair_signatures(g3, g1, spec, order) == (
        (mono(ctx, 2, 5, slot=3),),
        (),
    )
    attributed = set()
    for other in G.members:
        attributed.update(critical_pair_signatures(g3, other, spec, order)[0])
    assert target in attributed
    cs = critical_set(G)
    assert target not in cs
    smaller = mono(ctx, 2, 5, slot=3)
    assert smaller in cs
    assert divide(smaller, target, spec) is not None
    _passed(3, "x^5y^5*e3 appears pairwise and is eliminated by x^5y^2*e3")


def test_criterion_4_monoid_algebra_critical_set():
    spec = MonoidSpec.degree_truncated(2)
    order = ScalarOrder("degrevlex", ("x", "y"))
    ctx = Context(("x", "y"), order, spec, RationalField())
    sig_order = ModuleOrder(order, "top", 2)
    f = SigPair(elem(ctx, "x^2"), Monomial((2, 0)).with_slot(2), 1)
    g = SigPair(elem(ctx, "x*y"), Monomial((1, 1)).with_slot(1), 2)
    key = sig_order.key
    assert key(f.sig.mul(Monomial((1, 1)))) > key(g.sig.mul(Monomial((2, 0))))
    assert key(f.sig.mul(Monomial((0, 2)))) > key(g.sig.mul(Monomial((1, 1))))
    on_f, on_g = critical_pair_signatures(f, g, spec, sig_order)
    assert set(on_f) == {f.sig.mul(Monomial((1, 1))), f.sig.mul(Monomial((0, 2)))}
    assert on_g == ()
    _passed(4, "restricted multipliers give exactly {xy sig f, y^2 sig f}")


def test_criterion_5_certificate_discrimination(mora_setup, matrix):
    ctx, gens, G = mora_setup
    report = faugere_certificate(G)
    assert not report.ok
    assert mono(ctx, 5, 2, slot=2) in report.failures
    recheck = 0
    for (system, _, _, _), (result, _, _, _) in matrix.items():
        assert result.basis.certified
        if system == "mora":
            assert faugere_certificate(result.basis).ok
            recheck += 1
    assert recheck == 20
    _passed(5, "fails on the input prebasis at x^2y^5*e_2; passes on all outputs")


def test_criterion_6_classification(mora_result, mora_setup):
    ctx = mora_setup[0]
    B = mora_result.basis
    assert classify_signature(mono(ctx, 0, 0, slot=1), B) == "empty"
    assert classify_signature(mono(ctx, 2, 2, slot=1), B) == "regular"
    assert classify_signature(mono(ctx, 5, 5, slot=3), B) == "syzygy"
    _passed(6, "1*e_1 empty, x^2y^2*e_1 regular, x^5y^5*e_3 syzygy")


def test_criterion_7_cross_strategy_matrix(matrix):
    worst = 0.0
    for (system, sig_order, init, label), (result, elapsed, oracle_lms, ctx) in matrix.items():
        assert result.basis.certified, (system, sig_order, init, label)
        assert validate_sigtree(result.tree, result.basis) == [], (
            system, sig_order, init, label,
        )
        part_lms = {m.part.lm for m in result.basis.members if not m.part.is_zero}
        assert lm_ideal_equal(part_lms, oracle_lms, ctx.monoid), (
            system, sig_order, init, label,
        )
        if system == "katsura6":
            worst = max(worst, elapsed)
            assert elapsed < KATSURA6_BUDGET_SECONDS, (sig_order, init, label, elapsed)
    assert len(matrix) == 4 * 5 * 2 * 2
    _passed(
        7,
        f"80 runs terminate, certify, validate, and match the oracle fixtures; "
        f"slowest katsura6 config {worst:.1f}s < {KATSURA6_BUDGET_SECONDS:.0f}s",
    )


def test_criterion_8_invariants_and_zero_reductions(matrix):
    # The matrix ran with debug_invariant_stride=1: the queue invariant
    # (divisor-cover form for f5-pruned) was asserted at every loop head.
    zero_checked = 0
    for (system, _, _, _), (result, _, _, _) in matrix.items():
        for m in result.basis.members:
            if m.part.is_zero:
                assert classify_signature(m.sig, result.basis) == "syzygy"
                zero_checked += 1
    assert zero_checked > 0
    _passed(
        8,
        f"queue invariant held at every loop head of all 80 runs; "
        f"{zero_checked} zero insertions all classify as syzygy",
    )


def test_criterion_9_bounded_oracles(mora_setup, mora_result):
    ctx, gens, G = mora_setup
    good = bounded_signature_basis_check(mora_result.basis, 8)
    assert good.ok
    bad = bounded_signature_basis_check(G, 8)
    assert not bad.ok
    key = G.sig_order.key
    assert any(key(s) <= key(mono(ctx, 5, 2, slot=2)) for s, _ in bad.violations)
    cover = bounded_syzygy_check(gens, mora_result, 12)
    assert cover.ok and cover.details
    _passed(
        9,
        f"signature slices pass to degree 8 on the certified output, "
        f"{len(bad.violations)} violations on the input; "
        f"{len(cover.details)} kernel lms covered to degree 12",
    )


def test_criterion_10_dot_edge_semantics(matrix, mora_result):
    for (_, _, _, _), (result, _, _, _) in matrix.items():
        assert tree_signature_consistent(result.tree)
    text = export_dot(mora_result, highlight=set())
    assert 'n2 -> n4 [label="x^2"];' in text
    # Reproducing any specific published node index is informational only;
    # the binding check is the edge-multiplier identity on every tree.
    _passed(10, "edge-label products reproduce every node signature on all 80 trees")
