"""Oracle completion, lm-ideal comparison, and the bounded checks."""

import random

import pytest

from conftest import dense_pivots_of_elements, elem, load_fixture, mono
from sigbasis.algebra import Context, PrimeField, RationalField
from sigbasis.cli import parse_problem
from sigbasis.engine import Strategy, run
from sigbasis import verify
from sigbasis.errors import ContractError, LimitExceeded
from sigbasis.monomials import Monomial, ModuleOrder, MonoidSpec, ScalarOrder
from sigbasis.sigcore import make_prebasis_shifted, make_prebasis_unshifted
from sigbasis.systems import katsura, mora_context, mora_generators
from sigbasis.textio import parse_element, render_element, render_monomial
from sigbasis.verify import (
    bounded_signature_basis_check,
    bounded_syzygy_check,
    buchberger,
    is_groebner_basis,
    lm_ideal_equal,
)
from test_differential import random_system


class TestBuchberger:
    def test_single_generator(self, univar_ctx):
        gb = buchberger([elem(univar_ctx, "x - 1")], univar_ctx.monoid)
        assert [render_element(g) for g in gb] == ["x - 1"]

    def test_mora_matches_fixture(self, mora_ctx, mora_gens):
        fx = load_fixture("mora_oracle.json")
        gb = buchberger(mora_gens, mora_ctx.monoid)
        assert sorted(render_element(g) for g in gb) == sorted(fx["reduced_basis"])
        assert sorted(
            render_monomial(g.lm, mora_ctx.variables) for g in gb
        ) == fx["lm_set"]

    def test_mora_closure(self, mora_ctx, mora_gens):
        gb = buchberger(mora_gens, mora_ctx.monoid)
        assert is_groebner_basis(list(gb), mora_ctx.monoid)
        # the generators reduce to zero over the basis: same submodule
        from sigbasis.verify import _full_reduce

        for g in mora_gens:
            assert _full_reduce(g, list(gb), mora_ctx.monoid).is_zero

    @pytest.mark.parametrize("name", ["katsura4", "katsura5", "katsura6"])
    def test_katsura_matches_fixture(self, name):
        fx = load_fixture(f"{name}_oracle.json")
        ctx, gens = __import__("sigbasis.systems", fromlist=["katsura"]).katsura(
            int(name[-1])
        )
        gb = buchberger(gens, ctx.monoid)
        assert sorted(render_element(g) for g in gb) == sorted(fx["reduced_basis"])

    def test_reduced_basis_unique_under_permutation(self, mora_ctx, mora_gens):
        rng = random.Random(2)
        reference = [render_element(g) for g in buchberger(mora_gens, mora_ctx.monoid)]
        for _ in range(4):
            shuffled = mora_gens[:]
            rng.shuffle(shuffled)
            again = [render_element(g) for g in buchberger(shuffled, mora_ctx.monoid)]
            assert again == reference

    def test_monoid_algebra_permutation_uniqueness(self):
        spec = MonoidSpec.degree_truncated(2)
        ctx = Context(
            ("x", "y"), ScalarOrder("degrevlex", ("x", "y")), spec, RationalField()
        )
        gens = [elem(ctx, "x^2 - x*y"), elem(ctx, "y^2 - x*y")]
        a = [render_element(g) for g in buchberger(gens, spec)]
        b = [render_element(g) for g in buchberger(gens[::-1], spec)]
        assert a == b
        assert is_groebner_basis(
            list(buchberger(gens, spec)), spec
        )

    def test_module_setting(self, mora_ctx):
        # rank-2 free module over Q[y, x], POT
        order = ModuleOrder(mora_ctx.order, "pot", 2)
        ctx = Context(mora_ctx.variables, order, mora_ctx.monoid, mora_ctx.field)
        v1 = parse_element("x*e_2 + y*e_1", ctx)
        v2 = parse_element("y*e_2 - x*e_1", ctx)
        gb = buchberger([v1, v2], ctx.monoid)
        assert is_groebner_basis(list(gb), ctx.monoid)
        G = make_prebasis_shifted([v1, v2], "top")
        res = run(G, Strategy.in_order())
        lms = {m.part.lm for m in res.basis.members if not m.part.is_zero}
        assert lm_ideal_equal(lms, gb.lm_set(), ctx.monoid)

    def test_display_interreduction_matches_oracle(self, mora_ctx, mora_gens):
        # discarding signatures and inter-reducing the certified parts gives
        # exactly the oracle's reduced basis
        res = run(make_prebasis_shifted(mora_gens, "top"), Strategy.in_order())
        parts = [m.part for m in res.basis.members]
        shown = buchberger(parts, mora_ctx.monoid)
        gb = buchberger(mora_gens, mora_ctx.monoid)
        assert [render_element(g) for g in shown] == [render_element(g) for g in gb]

    def test_prime_field_run_agrees(self):
        gf = PrimeField(32003)
        ctx, gens = katsura(4, gf)
        gb = buchberger(gens, ctx.monoid)
        res = run(make_prebasis_shifted(gens, "top"), Strategy.f5())
        lms = {m.part.lm for m in res.basis.members if not m.part.is_zero}
        assert lm_ideal_equal(lms, gb.lm_set(), ctx.monoid)


    def test_expired_deadline_raises(self, mora_ctx, mora_gens):
        with pytest.raises(LimitExceeded):
            buchberger(mora_gens, mora_ctx.monoid, deadline=0.0)


def _katsura4_generated_monoid():
    # multipliers generated by the degree-2 monomials
    gf_ctx, gf_gens = katsura(4, PrimeField(32003))
    width = gf_ctx.width
    squares = [
        tuple(int(k == i) + int(k == j) for k in range(width))
        for i in range(width)
        for j in range(i, width)
    ]
    spec = MonoidSpec.generated(squares)
    ctx = Context(gf_ctx.variables, gf_ctx.order, spec, gf_ctx.field)
    return ctx, [parse_element(render_element(g), ctx) for g in gf_gens]


def _mora_degmin2():
    base = mora_context(PrimeField(32003))
    spec = MonoidSpec.degree_truncated(2)
    ctx = Context(base.variables, base.order, spec, base.field)
    return ctx, mora_generators(ctx)


class TestPairCriteria:
    """The Gebauer-Moeller pair criteria skip only S-pairs that vanish."""

    def test_no_product_criterion_for_module_elements(self):
        # lm(x*e1 + e2) = x*e1 and y*e1 are coprime, yet their S-pair is y*e2
        variables = ("y", "x")
        order = ModuleOrder(ScalarOrder("degrevlex", variables), "top", 2)
        ctx = Context(variables, order, MonoidSpec.full(), RationalField())
        gens = [parse_element("x*e_1 + e_2", ctx), parse_element("y*e_1", ctx)]
        gb = buchberger(gens, ctx.monoid)
        assert mono(ctx, 1, 0, slot=2) in gb.lm_set()
        assert is_groebner_basis(list(gb), ctx.monoid)

    def test_criteria_skip_pairs_on_katsura6(self, monkeypatch):
        calls = []
        spair = verify._spair

        def counted(*args):
            calls.append(None)
            return spair(*args)

        monkeypatch.setattr(verify, "_spair", counted)
        ctx, gens = katsura(6, PrimeField(32003))
        gb = buchberger(gens, ctx.monoid)
        assert len(gb) == 22
        assert len(calls) <= 80  # 276 S-pairs without the criteria

    @pytest.mark.parametrize(
        "system",
        [f"random-{seed}-{field}" for seed in range(16) for field in ("q", "gf")]
        + ["mora-degmin2", "katsura4-generated"],
    )
    def test_closed_and_order_independent(self, system):
        if system == "mora-degmin2":
            ctx, gens = _mora_degmin2()
        elif system == "katsura4-generated":
            ctx, gens = _katsura4_generated_monoid()
        else:
            _, seed, field = system.split("-")
            fld = RationalField() if field == "q" else PrimeField(32003)
            ctx, gens = random_system(int(seed), fld)
        gb = buchberger(gens, ctx.monoid)
        assert is_groebner_basis(list(gb), ctx.monoid)
        reference = [render_element(g) for g in gb]
        rng = random.Random(7)
        for _ in range(2):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            again = buchberger(shuffled, ctx.monoid)
            assert [render_element(g) for g in again] == reference


class TestLmIdealEqual:
    def test_examples(self, mora_ctx):
        full = mora_ctx.monoid
        x2, x3 = mono(mora_ctx, 0, 2), mono(mora_ctx, 0, 3)
        assert lm_ideal_equal({x2, x3}, {x2}, full)
        assert not lm_ideal_equal({mono(mora_ctx, 2, 2)}, {mono(mora_ctx, 1, 1)}, full)

    def test_equivalence_properties(self, mora_ctx):
        rng = random.Random(4)
        full = mora_ctx.monoid
        sets = []
        for _ in range(30):
            sets.append(
                frozenset(
                    mono(mora_ctx, rng.randrange(4), rng.randrange(4))
                    for _ in range(rng.randrange(1, 4))
                )
            )
        for A in sets:
            assert lm_ideal_equal(A, A, full)
        for A in sets[:10]:
            for B in sets[:10]:
                assert lm_ideal_equal(A, B, full) == lm_ideal_equal(B, A, full)
                for C in sets[:10]:
                    if lm_ideal_equal(A, B, full) and lm_ideal_equal(B, C, full):
                        assert lm_ideal_equal(A, C, full)


MORA_Q = """\
vars: y x
field: Q
setting: ring
gens:
x^2*y^2 - 1
y^5 - x^2*y
x^5 - x*y^2
"""


def reference_violations(G, D):
    """The check's definition, slice by slice: each signature's slice is
    rebuilt from the products and row-reduced by the dense oracle, and its
    pivots that no product's leading monomial reaches are listed in
    descending order."""
    spec, skey, okey = G.monoid, G.sig_order.key, G.ctx.order.key
    sigmas = {
        g.sig.mul(Monomial(a))
        for g in G.members
        for a in spec.elements_up_to(len(g.sig.exps), max(D - g.sig.degree, 0))
    }
    products = [
        (skey(g.sig.mul(Monomial(a))), g.part.mul_monomial(Monomial(a)))
        for g in G.members
        if not g.part.is_zero
        for a in spec.elements_up_to(len(g.sig.exps), D - g.part.degree)
    ]
    out = []
    for sigma in sorted(sigmas, key=skey):
        rows = [row for k, row in products if k <= skey(sigma)]
        unreached = dense_pivots_of_elements(rows, G.ctx) - {row.lm for row in rows}
        out.extend((sigma, p) for p in sorted(unreached, key=okey, reverse=True))
    return out


@pytest.fixture(scope="module")
def mora_run(mora_gens):
    return run(make_prebasis_shifted(mora_gens, "top"), Strategy.in_order())


class TestBoundedSignatureBasisCheck:
    def test_univariate_passes(self, univar_ctx):
        G = make_prebasis_shifted([elem(univar_ctx, "x - 1")], "top")
        report = bounded_signature_basis_check(G, 4)
        assert report.ok

    def test_certified_mora_passes(self, mora_run):
        assert bounded_signature_basis_check(mora_run.basis, 8).ok

    def test_input_prebasis_violates(self, mora_gens, mora_ctx):
        G = make_prebasis_shifted(mora_gens, "top")
        report = bounded_signature_basis_check(G, 8)
        assert not report.ok
        key = G.sig_order.key
        threshold = key(mono(mora_ctx, 5, 2, slot=2))
        assert any(key(sigma) <= threshold for sigma, _ in report.violations)
        # the missing pivot at the first bad signature is x^4*y
        assert (mono(mora_ctx, 5, 2, slot=2), mono(mora_ctx, 1, 4)) in report.violations

    @pytest.mark.parametrize(
        "init, order, monoid",
        [("shifted", "top", None), ("unshifted", "pot", None), ("shifted", "top", "degmin=2")],
    )
    def test_violations_match_dense_slices(self, init, order, monoid):
        text = MORA_Q if monoid is None else MORA_Q.replace("ring", f"monoid {monoid}")
        spec = parse_problem(text)
        gens = spec.build_generators(spec.build_context())
        make = make_prebasis_shifted if init == "shifted" else make_prebasis_unshifted
        G = make(gens, order)
        if monoid is not None:
            G = run(G, Strategy.f5()).basis  # the known wrong answer
        expected = reference_violations(G, 8)
        assert expected
        assert bounded_signature_basis_check(G, 8).violations == expected

    def test_signature_cap_guard(self, mora_gens):
        G = make_prebasis_shifted(mora_gens, "top")
        with pytest.raises(ContractError):
            bounded_signature_basis_check(G, 8, max_signatures=3)


    def test_expired_deadline_raises(self, mora_run):
        with pytest.raises(LimitExceeded):
            bounded_signature_basis_check(mora_run.basis, 8, deadline=0.0)


class TestBoundedSyzygyCheck:
    def test_single_generator_vacuous(self, univar_ctx):
        gens = [elem(univar_ctx, "x - 1")]
        res = run(make_prebasis_shifted(gens, "top"), Strategy.in_order())
        report = bounded_syzygy_check(gens, res, 6)
        assert report.ok and report.details == ()

    def test_no_generators_empty_kernel(self):
        res = run(make_prebasis_shifted([], "top"), Strategy.in_order())
        report = bounded_syzygy_check([], res, 3)
        assert report.ok and report.violations == [] and report.details == ()

    def test_duplicate_generators_forced_syzygy(self, univar_ctx):
        gens = [elem(univar_ctx, "x - 1"), elem(univar_ctx, "x - 1")]
        res = run(make_prebasis_shifted(gens, "top"), Strategy.in_order())
        shift = Monomial((1,)).with_slot(2)
        assert shift in res.syzygies
        report = bounded_syzygy_check(gens, res, 6)
        assert report.ok
        assert shift in report.details

    def test_mora_cover_to_degree_12(self, mora_gens, mora_run, mora_ctx):
        report = bounded_syzygy_check(mora_gens, mora_run, 12)
        assert report.ok
        assert report.details  # the kernel slice is nonempty at this depth
        # a recorded syzygy signature divides x^5y^5*e3
        from sigbasis.monomials import divide

        target = mono(mora_ctx, 5, 5, slot=3)
        assert any(
            divide(s, target, mora_ctx.monoid) is not None for s in mora_run.syzygies
        )

    def test_requires_shifted_run(self, mora_gens):
        res = run(make_prebasis_unshifted(mora_gens, "top"), Strategy.in_order())
        with pytest.raises(ContractError):
            bounded_syzygy_check(mora_gens, res, 8)


    def test_expired_deadline_raises(self, mora_gens, mora_run):
        with pytest.raises(LimitExceeded):
            bounded_syzygy_check(mora_gens, mora_run, 8, deadline=0.0)


