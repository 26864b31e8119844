"""Elements, top reduction, normal forms, and the bounded span oracles."""

import pathlib
import random
from fractions import Fraction

import pytest

from conftest import (
    dense_membership,
    dense_pivots_of_elements,
    elem,
    mono,
)
from sigbasis.algebra import (
    Context,
    Element,
    PrimeField,
    RationalField,
    SpanEchelon,
    bounded_span_pivots,
    normal_form_with_steps,
)
from sigbasis.errors import ContractError, StructureError
from sigbasis.monomials import ModuleOrder, Monomial, MonoidSpec, ScalarOrder, ZERO

# Frozen via the dense Fraction oracle in conftest (see test below that
# re-derives it): pivot monomials of the degree<=7 slice spanned by the
# mora generators' monomial multiples.
MORA_PIVOTS_D7 = {
    "x*y^4", "x*y^5", "x*y^6", "x^2*y^2", "x^2*y^3", "x^2*y^4", "x^2*y^5",
    "x^3*y^2", "x^3*y^3", "x^3*y^4", "x^4*y", "x^4*y^2", "x^4*y^3", "x^5",
    "x^5*y", "x^5*y^2", "x^6", "x^6*y", "x^7", "y^5", "y^6", "y^7",
}


def top_reduce_step(f, e):
    """The plain definition of one top reduction step: f - (lc f / lc e) * e."""
    if f.is_zero or e.is_zero or f.lm != e.lm:
        raise ContractError("top reduction needs matching nonzero leading monomials")
    lam = f.ctx.field.div(f.lc, e.lc)
    return f.sub_scaled(e, lam)


class TestLeadingMonomial:
    def test_mora_g2(self, mora_ctx):
        assert elem(mora_ctx, "y^5 - x^2*y").lm == mono(mora_ctx, 5, 0)

    def test_zero_element(self, mora_ctx):
        assert Element.zero(mora_ctx).lm is ZERO

    def test_mora_g1(self, mora_ctx):
        assert elem(mora_ctx, "x^2*y^2 - 1").lm == mono(mora_ctx, 2, 2)


class TestTopReduceStep:
    def test_example_step(self, mora_ctx):
        f = elem(mora_ctx, "x^2*y^5 - x^4*y")
        e = elem(mora_ctx, "x^2*y^5 - y^3")
        assert top_reduce_step(f, e) == elem(mora_ctx, "-x^4*y + y^3")

    def test_univariate_step(self, univar_ctx):
        f = elem(univar_ctx, "x^2")
        e = elem(univar_ctx, "x^2 - x")
        assert top_reduce_step(f, e) == elem(univar_ctx, "x")

    def test_self_cancellation(self, mora_ctx):
        f = elem(mora_ctx, "x^2*y^2 - 1")
        assert top_reduce_step(f, f).is_zero

    def test_lm_strictly_decreases(self, mora_ctx):
        f = elem(mora_ctx, "x^2*y^5 - x^4*y")
        e = elem(mora_ctx, "2*x^2*y^5 + x*y")
        out = top_reduce_step(f, e)
        assert mora_ctx.order.key(out.lm) < mora_ctx.order.key(f.lm)

    def test_mismatch_rejected(self, mora_ctx):
        with pytest.raises(ContractError):
            top_reduce_step(elem(mora_ctx, "x^2"), elem(mora_ctx, "y^5"))


class TestNormalForm:
    def test_chain_to_constant(self, univar_ctx):
        g = elem(univar_ctx, "x - 1")
        spec = univar_ctx.monoid

        def admit(k, target):
            from sigbasis.monomials import divide

            b = divide(g.lm, target, spec)
            return g.mul_monomial(b) if b is not None else None

        out = normal_form_with_steps(elem(univar_ctx, "x^2"), admit, full=False)[0]
        assert out == elem(univar_ctx, "1")

    def test_irreducible_unchanged(self, mora_ctx):
        f = elem(mora_ctx, "x^2*y^2 - 1")
        assert normal_form_with_steps(f, lambda k, target: None, full=False)[0] == f

    def test_shifted_reducer(self, mora_ctx):
        # y^2 * (x^5 - x y^2) reduced once by x^3 * (x^2 y^2 - 1)
        f = elem(mora_ctx, "x^5 - x*y^2").mul_monomial(mono(mora_ctx, 2, 0))
        reducer = elem(mora_ctx, "x^2*y^2 - 1").mul_monomial(mono(mora_ctx, 0, 3))
        used = []

        def admit(k, target):
            if not used and target == reducer.lm:
                used.append(1)
                return reducer
            return None

        assert normal_form_with_steps(f, admit, full=False)[0] == elem(mora_ctx, "-x*y^4 + x^3")

    def test_coset_preserved(self, mora_ctx, mora_gens):
        # the normal form differs from the input by a span member
        spec = mora_ctx.monoid
        from sigbasis.monomials import divide

        def admit(k, target):
            for g in mora_gens:
                b = divide(g.lm, target, spec)
                if b is not None:
                    return g.mul_monomial(b)
            return None

        f = elem(mora_ctx, "x^2*y^5 + y^2")
        out = normal_form_with_steps(f, admit, full=False)[0]
        rows = monoid_products(mora_gens, 8, spec)
        assert dense_membership(f.sub_scaled(out, mora_ctx.field.one), rows, mora_ctx)

    @pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)], ids=["q", "gf"])
    def test_unshifted_divisor(self, mora_ctx, mora_gens, field):
        # a reducer whose leading monomial only divides the target is shifted
        # by the step itself, exactly as if it came already multiplied
        from sigbasis.monomials import divide
        from sigbasis.textio import render_element

        ctx = Context(mora_ctx.variables, mora_ctx.order, mora_ctx.monoid, field)
        gens = [elem(ctx, render_element(g)) for g in mora_gens]

        def divisor(target):
            for g in gens:
                b = divide(g.lm, target, ctx.monoid)
                if b is not None:
                    return g, b
            return None

        def unshifted(k, target):
            found = divisor(target)
            return found and found[0]

        def shifted(k, target):
            found = divisor(target)
            return found and found[0].mul_monomial(found[1])

        f = elem(ctx, "5/2*x^4*y^5 - 1/3*x^6*y + 7/4*x^2*y^2 + 1/6")
        got, steps = normal_form_with_steps(f, unshifted, full=False)
        want, want_steps = normal_form_with_steps(f, shifted, full=False)
        assert got.terms == want.terms
        assert steps == want_steps == 4


def field_loop_normal_form(f, admit):
    """The reference: plain top reduction in the coefficient field."""
    steps = 0
    while not f.is_zero:
        e = admit(f.terms[0][0], f.lm)
        if e is None:
            break
        f = top_reduce_step(f, e)
        steps += 1
    return f, steps


def by_lm(reducers):
    """An admit that looks the target monomial up in a dict lm -> reducer."""
    return lambda k, m: reducers.get(m)


def random_coefficient(rng, field):
    num = rng.choice([-1, 1]) * rng.randint(1, 30)
    return field.from_ratio(num, rng.choice([1, 2, 3, 4, 6, 9, 10]))


def random_reduction_case(rng, ctx):
    """A random f and a reducer dictionary lm -> element with random tails."""
    key = ctx.order.key
    monomials = [Monomial(a) for a in ctx.monoid.elements_up_to(ctx.width, 3)]
    reducers = {}
    for m in monomials:
        if rng.random() < 0.6:
            lower = [n for n in monomials if key(n) < key(m)]
            tail = rng.sample(lower, min(len(lower), rng.randint(0, 4)))
            pairs = [(n, random_coefficient(rng, ctx.field)) for n in [m] + tail]
            reducers[m] = Element.from_terms(ctx, pairs)
    support = rng.sample(monomials, rng.randint(1, 12))
    f = Element.from_terms(ctx, [(m, random_coefficient(rng, ctx.field)) for m in support])
    return f, reducers


class TestFractionFreeNormalForm:
    """Over Q the normal form runs on integers; it must equal the field loop."""

    @pytest.fixture(scope="class")
    def q3_ctx(self):
        names = ("z", "y", "x")
        return Context(names, ScalarOrder("degrevlex", names), MonoidSpec.full(), RationalField())

    @staticmethod
    def assert_same(got, want):
        (g, g_steps), (w, w_steps) = got, want
        assert [(m, c) for _, m, c in g.terms] == [(m, c) for _, m, c in w.terms]
        assert [k for k, _, _ in g.terms] == [k for k, _, _ in w.terms]
        assert all(type(c) is Fraction for _, _, c in g.terms)
        assert g_steps == w_steps

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_field_loop_on_random_cases(self, q3_ctx, seed):
        rng = random.Random(seed)
        total_steps = 0
        for _ in range(25):
            f, reducers = random_reduction_case(rng, q3_ctx)
            want = field_loop_normal_form(f, by_lm(reducers))
            self.assert_same(normal_form_with_steps(f, by_lm(reducers), full=False), want)
            total_steps += want[1]
        assert total_steps > 10

    def test_shifted_reducers_match_field_loop(self, mora_ctx, mora_gens):
        spec = mora_ctx.monoid
        from sigbasis.monomials import divide

        gens = [g.scale(mora_ctx.field.from_ratio(3, 7)) for g in mora_gens]

        def admit(k, target):
            for g in gens:
                b = divide(g.lm, target, spec)
                if b is not None:
                    return g.mul_monomial(b)
            return None

        f = elem(mora_ctx, "5/2*x^4*y^5 - 1/3*x^6*y + 7/4*x^2*y^2 + 1/6")
        self.assert_same(normal_form_with_steps(f, admit, full=False),
                         field_loop_normal_form(f, admit))

    def test_content_is_stripped_into_the_scale(self, univar_ctx):
        # the row after one step is 2*x + 4, content 2
        f = elem(univar_ctx, "x^2 + 2*x + 4")
        reducers = {mono(univar_ctx, 2): elem(univar_ctx, "x^2")}
        got = normal_form_with_steps(f, by_lm(reducers), full=False)
        self.assert_same(got, field_loop_normal_form(f, by_lm(reducers)))
        assert got == (elem(univar_ctx, "2*x + 4"), 1)

    def test_common_factor_of_leading_coefficients(self, mora_ctx):
        # cleared rows 2*x^2 + y and 2*x^2 + 1: gcd of the leading coefficients is 2
        f = elem(mora_ctx, "x^2 + 1/2*y")
        reducers = {mono(mora_ctx, 0, 2): elem(mora_ctx, "x^2 + 1/2")}
        got = normal_form_with_steps(f, by_lm(reducers), full=False)
        self.assert_same(got, field_loop_normal_form(f, by_lm(reducers)))
        assert got == (elem(mora_ctx, "1/2*y - 1/2"), 1)

    def test_cancels_to_zero(self, mora_ctx):
        f = elem(mora_ctx, "2/3*x^2*y^2 - 2/3")
        reducers = {mono(mora_ctx, 2, 2): elem(mora_ctx, "x^2*y^2 - 1")}
        got = normal_form_with_steps(f, by_lm(reducers), full=False)
        assert got[0].is_zero and got[1] == 1

    def test_empty_admit_returns_input(self, mora_ctx):
        f = elem(mora_ctx, "1/2*x^2*y^2 - 3")
        assert normal_form_with_steps(f, by_lm({}), full=False) == (f, 0)

    def test_zero_element(self, mora_ctx):
        zero = Element.zero(mora_ctx)
        got = normal_form_with_steps(zero, lambda k, m: pytest.fail("admit called"), full=False)
        assert got == (zero, 0)

    def test_lm_mismatch_rejected(self, mora_ctx):
        f = elem(mora_ctx, "1/2*x^2 + y")
        with pytest.raises(ContractError):
            normal_form_with_steps(f, lambda k, m: elem(mora_ctx, "y^5"), full=False)
        with pytest.raises(ContractError):
            normal_form_with_steps(f, lambda k, m: Element.zero(mora_ctx), full=False)


class TestModularNormalForm:
    """Over GF(p) the normal form runs on one keyed accumulator; it must
    equal the field loop term for term."""

    @pytest.fixture(scope="class")
    def gf3_ctx(self):
        names = ("z", "y", "x")
        return Context(names, ScalarOrder("degrevlex", names), MonoidSpec.full(), PrimeField(32003))

    @pytest.fixture(scope="class")
    def gf1_ctx(self):
        return Context(("x",), ScalarOrder("degrevlex", ("x",)), MonoidSpec.full(), PrimeField(32003))

    @staticmethod
    def assert_same(got, want):
        (g, g_steps), (w, w_steps) = got, want
        assert [(m, c) for _, m, c in g.terms] == [(m, c) for _, m, c in w.terms]
        assert [k for k, _, _ in g.terms] == [k for k, _, _ in w.terms]
        assert all(type(c) is int and 0 < c < 32003 for _, _, c in g.terms)
        assert g_steps == w_steps

    @staticmethod
    def divisor_admits(reducers, ctx, shifts):
        """Two admits that pick the same reducer g for a target, the one of
        largest key whose leading monomial divides it: g as it is, and g
        multiplied up to the target for the field loop.  ``shifts`` counts
        the picks whose leading monomial is not the target."""
        from sigbasis.monomials import divide

        ordered = sorted(reducers.values(), key=lambda g: ctx.order.key(g.lm), reverse=True)

        def pick(target):
            for g in ordered:
                b = divide(g.lm, target, ctx.monoid)
                if b is not None:
                    return g, b
            return None

        def unshifted(k, target):
            found = pick(target)
            shifts[0] += found is not None and found[0].lm != target
            return found and found[0]

        def shifted(k, target):
            found = pick(target)
            return found and found[0].mul_monomial(found[1])

        return unshifted, shifted

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_field_loop_on_random_cases(self, gf3_ctx, seed):
        rng = random.Random(seed)
        exact_steps, shifts = 0, [0]
        for _ in range(25):
            f, reducers = random_reduction_case(rng, gf3_ctx)
            want = field_loop_normal_form(f, by_lm(reducers))
            self.assert_same(normal_form_with_steps(f, by_lm(reducers), full=False), want)
            exact_steps += want[1]
            unshifted, shifted = self.divisor_admits(reducers, gf3_ctx, shifts)
            self.assert_same(normal_form_with_steps(f, unshifted, full=False),
                             field_loop_normal_form(f, shifted))
        assert exact_steps > 10 and shifts[0] > 10

    def test_cancelled_key_is_added_to_again(self, gf1_ctx):
        # step 1 cancels x and adds -x^2, step 2 adds x back through x^2 + x,
        # and step 3 reduces that x to a constant
        f = elem(gf1_ctx, "x^3 + x")
        reducers = {
            mono(gf1_ctx, 3): elem(gf1_ctx, "x^3 + x^2 + x"),
            mono(gf1_ctx, 2): elem(gf1_ctx, "x^2 + x"),
            mono(gf1_ctx, 1): elem(gf1_ctx, "x - 1"),
        }
        got = normal_form_with_steps(f, by_lm(reducers), full=False)
        self.assert_same(got, field_loop_normal_form(f, by_lm(reducers)))
        assert got == (elem(gf1_ctx, "1"), 3)

    def test_cancels_to_zero(self, gf1_ctx):
        # step 1 leaves x^2 cancelled below the new lead x; step 2 cancels
        # the last key, so only zero keys are left to pop
        f = elem(gf1_ctx, "2*x^3 + 2*x^2 + 3*x + 1")
        reducers = {
            mono(gf1_ctx, 3): elem(gf1_ctx, "x^3 + x^2 + x"),
            mono(gf1_ctx, 1): elem(gf1_ctx, "x + 1"),
        }
        got = normal_form_with_steps(f, by_lm(reducers), full=False)
        self.assert_same(got, field_loop_normal_form(f, by_lm(reducers)))
        assert got[0].is_zero and got[1] == 2

    def test_shifted_and_unshifted_steps(self, gf1_ctx):
        # x * (x^2 + 1) takes x^3 off with a shift by x; x^2 + 1 then
        # reduces 5*x^2 unshifted
        f = elem(gf1_ctx, "x^3 + 5*x^2")
        reducers = {mono(gf1_ctx, 2): elem(gf1_ctx, "x^2 + 1")}
        shifts = [0]
        unshifted, shifted = self.divisor_admits(reducers, gf1_ctx, shifts)
        got = normal_form_with_steps(f, unshifted, full=False)
        self.assert_same(got, field_loop_normal_form(f, shifted))
        assert got == (elem(gf1_ctx, "-x - 5"), 2) and shifts == [1]


def full_field_loop_normal_form(f, admit):
    """The reference for full reduction: the field loop continued through
    the tail.  An irreducible leading term is set aside and the loop goes on
    with the rest of f."""
    done, steps = [], 0
    while not f.is_zero:
        k, m, _ = f.terms[0]
        e = admit(k, m)
        if e is None:
            done.append(f.terms[0])
            f = Element(f.ctx, f.terms[1:])
        else:
            f = top_reduce_step(f, e)
            steps += 1
    return Element(f.ctx, tuple(done)), steps


@pytest.fixture(scope="module", params=[RationalField(), PrimeField(32003)], ids=["q", "gf"])
def field3_ctx(request):
    names = ("z", "y", "x")
    return Context(names, ScalarOrder("degrevlex", names), MonoidSpec.full(), request.param)


class TestFullNormalForm:
    """With ``full`` both kernels reduce every term, and must equal the field
    loop continued through the tail term for term."""

    @staticmethod
    def assert_same(got, want):
        (g, g_steps), (w, w_steps) = got, want
        assert [(m, c) for _, m, c in g.terms] == [(m, c) for _, m, c in w.terms]
        assert [k for k, _, _ in g.terms] == [k for k, _, _ in w.terms]
        if isinstance(g.ctx.field, RationalField):
            assert all(type(c) is Fraction for _, _, c in g.terms)
        else:
            assert all(type(c) is int and 0 < c < 32003 for _, _, c in g.terms)
        assert g_steps == w_steps

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_field_loop_on_random_cases(self, field3_ctx, seed):
        rng = random.Random(seed)
        tail_steps, shifts = 0, [0]
        for _ in range(25):
            f, reducers = random_reduction_case(rng, field3_ctx)
            want = full_field_loop_normal_form(f, by_lm(reducers))
            self.assert_same(normal_form_with_steps(f, by_lm(reducers), full=True), want)
            tail_steps += want[1] - field_loop_normal_form(f, by_lm(reducers))[1]
            unshifted, shifted = TestModularNormalForm.divisor_admits(
                reducers, field3_ctx, shifts)
            self.assert_same(normal_form_with_steps(f, unshifted, full=True),
                             full_field_loop_normal_form(f, shifted))
        assert tail_steps > 10 and shifts[0] > 10

    def test_irreducible_lead_keeps_its_place(self, field3_ctx):
        # z^3 has no reducer; y^2 below it is reduced, x is not
        f = elem(field3_ctx, "z^3 + 2*y^2 + x")
        reducers = {mono(field3_ctx, 0, 2, 0): elem(field3_ctx, "y^2 - 1/2*x + 3")}
        got = normal_form_with_steps(f, by_lm(reducers), full=True)
        self.assert_same(got, full_field_loop_normal_form(f, by_lm(reducers)))
        assert got == (elem(field3_ctx, "z^3 + 2*x - 6"), 1)
        assert normal_form_with_steps(f, by_lm(reducers), full=False) == (f, 0)

    def test_runs_keep_their_own_scale(self, field3_ctx):
        # irreducible z^4, then 1/3*z^3 reduced (over Q the scale changes),
        # irreducible z^2, then z reduced again, then the constant
        f = elem(field3_ctx, "1/2*z^4 + 1/3*z^3 + 5/7*z^2 + z + 1")
        reducers = {
            mono(field3_ctx, 3, 0, 0): elem(field3_ctx, "6/5*z^3 + 2/3*z^2 + 3/4*z"),
            mono(field3_ctx, 1, 0, 0): elem(field3_ctx, "4/9*z + 2/11"),
        }
        got = normal_form_with_steps(f, by_lm(reducers), full=True)
        self.assert_same(got, full_field_loop_normal_form(f, by_lm(reducers)))
        assert got[1] == 2 and len(got[0].terms) == 3

    def test_tail_cancels_to_the_lead(self, field3_ctx):
        # the only step cancels everything below the irreducible lead
        f = elem(field3_ctx, "z^3 + y^2 + x")
        reducers = {mono(field3_ctx, 0, 2, 0): elem(field3_ctx, "y^2 + x")}
        got = normal_form_with_steps(f, by_lm(reducers), full=True)
        self.assert_same(got, full_field_loop_normal_form(f, by_lm(reducers)))
        assert got == (elem(field3_ctx, "z^3"), 1)


class TestMonicDiscipline:
    def test_scale_then_reduce_commutes(self, mora_ctx):
        f = elem(mora_ctx, "x^2*y^5 - x^4*y")
        e = elem(mora_ctx, "x^2*y^5 - y^3")
        lam = mora_ctx.field.from_ratio(3, 2)
        left = top_reduce_step(f.scale(lam), e).monic()
        right = top_reduce_step(f, e).monic()
        assert left == right

    def test_monic_idempotent(self, mora_ctx):
        f = elem(mora_ctx, "2*x^2*y^2 - 4")
        assert f.monic() == elem(mora_ctx, "x^2*y^2 - 2")
        assert f.monic().monic() == f.monic()


class TestBoundedSpanPivots:
    def test_univariate_staircase(self, univar_ctx):
        gens = [elem(univar_ctx, "x - 1")]
        pivots = bounded_span_pivots(gens, 3, univar_ctx.monoid)
        assert pivots == {Monomial((1,)), Monomial((2,)), Monomial((3,))}

    def test_empty(self):
        assert bounded_span_pivots([], 3, MonoidSpec.full()) == set()

    def test_mora_frozen_fixture(self, mora_ctx, mora_gens):
        from sigbasis.textio import render_monomial

        pivots = bounded_span_pivots(mora_gens, 7, mora_ctx.monoid)
        rendered = {render_monomial(p, mora_ctx.variables) for p in pivots}
        assert rendered == MORA_PIVOTS_D7

    def test_fixture_re_derivable_by_dense_oracle(self, mora_ctx, mora_gens):
        from sigbasis.textio import render_monomial

        rows = []
        for g in mora_gens:
            for a in mora_ctx.monoid.elements_up_to(2, 7 - g.degree):
                rows.append(g.mul_monomial(Monomial(a)))
        pivots = dense_pivots_of_elements(rows, mora_ctx)
        assert {render_monomial(p, mora_ctx.variables) for p in pivots} == MORA_PIVOTS_D7

    def test_bound_below_generators_rejected(self, mora_ctx, mora_gens):
        with pytest.raises(ContractError):
            bounded_span_pivots(mora_gens, 3, mora_ctx.monoid)

    def test_monotone_in_bound_and_closed(self, mora_ctx, mora_gens):
        spec = mora_ctx.monoid
        small = bounded_span_pivots(mora_gens, 6, spec)
        large = bounded_span_pivots(mora_gens, 7, spec)
        assert small <= large
        # reachable multiples of pivots stay pivots within the bound
        for p in small:
            shifted = p.mul(Monomial((0, 1)))
            if shifted.degree <= 6:
                assert shifted in small


def monoid_products(gens, D, spec):
    return [
        g.mul_monomial(Monomial(a))
        for g in gens
        for a in spec.elements_up_to(g.ctx.width, D - g.degree)
    ]


class TestMembershipBounded:
    """Membership in a bounded span: the echelon's residue is zero."""

    def test_zero_always_member(self, mora_ctx):
        assert SpanEchelon().residue_vector(Element.zero(mora_ctx)).is_zero

    def test_simple_multiple(self, univar_ctx):
        rows = monoid_products([elem(univar_ctx, "x - 1")], 2, univar_ctx.monoid)
        assert SpanEchelon(rows).residue_vector(elem(univar_ctx, "x^2 - x")).is_zero

    def test_constant_not_in_span(self, univar_ctx):
        # frozen against the dense oracle below
        rows = monoid_products([elem(univar_ctx, "x - 1")], 5, univar_ctx.monoid)
        assert not SpanEchelon(rows).residue_vector(elem(univar_ctx, "1")).is_zero

    def test_against_dense_oracle(self, univar_ctx):
        gens = [elem(univar_ctx, "x - 1")]
        rows = [gens[0].mul_monomial(Monomial((k,))) for k in range(5)]
        assert dense_membership(elem(univar_ctx, "1"), rows, univar_ctx) is False
        assert dense_membership(elem(univar_ctx, "x^2 - x"), rows, univar_ctx) is True
        # f is in the span exactly when it adds no pivot
        pivots = bounded_span_pivots(gens, 5, univar_ctx.monoid)
        assert pivots == dense_pivots_of_elements(rows, univar_ctx)
        assert dense_pivots_of_elements(rows + [elem(univar_ctx, "1")], univar_ctx) != pivots
        assert dense_pivots_of_elements(rows + [elem(univar_ctx, "x^2 - x")], univar_ctx) == pivots


def _product_cases():
    """(context, element, multiplier): a ring and rank-2 TOP/POT modules."""
    ring = Context(("y", "x"), ScalarOrder("degrevlex", ("y", "x")), MonoidSpec.full(),
                   RationalField())
    yield ring, elem(ring, "x^2*y^2 - 1/3*x*y + 7"), Monomial((2, 1))
    for kind in ("top", "pot"):
        order = ModuleOrder(ScalarOrder("degrevlex", ("y", "x")), kind, 2)
        ctx = Context(("y", "x"), order, MonoidSpec.full(), PrimeField(32003))
        f = elem(ctx, "x^2*e_2 + x*y*e_1 - y^2*e_2 + x*y*e_2 + 5*x*e_1 + 3*e_2 - e_1")
        yield ctx, f, Monomial((1, 2))


class TestProductTable:
    """mul_monomial looks every product term up in its context's table from
    key to Monomial (``Context.products``)."""

    @pytest.mark.parametrize("case", list(_product_cases()), ids=["ring", "top", "pot"])
    def test_matches_plain_product(self, case):
        ctx, f, a = case
        plain = Element.from_terms(
            ctx, [(Monomial(tuple(x + y for x, y in zip(a.exps, m.exps)), m.indices), c)
                  for _, m, c in f.terms]
        )
        for _ in range(2):
            assert f.mul_monomial(a).terms == plain.terms
        assert ctx.products == {k: m for k, m, _ in plain.terms}

    @pytest.mark.parametrize("case", list(_product_cases()), ids=["ring", "top", "pot"])
    def test_repeated_product_shares_monomials(self, case):
        ctx, f, a = case
        first = f.mul_monomial(a)
        again = f.mul_monomial(a)
        assert all(
            k1 == k2 and m1 is m2 for (k1, m1, _), (k2, m2, _) in zip(first.terms, again.terms)
        )
        assert all(ctx.products[k] is m for k, m, _ in first.terms)
        # another factorization of the same products hits the same entries
        b = Monomial(tuple(x - 1 for x in a.exps))
        shared = f.mul_monomial(b).mul_monomial(Monomial((1, 1)))
        assert all(m1 is m2 for (_, m1, _), (_, m2, _) in zip(first.terms, shared.terms))


class TestPrimeField:
    def test_arithmetic(self):
        gf = PrimeField(32003)
        assert gf.div(gf.one, gf.from_int(2)) == 16002
        assert gf.mul(16002, 2) == 1

    def test_invalid_modulus_rejected(self):
        with pytest.raises(StructureError):
            PrimeField(32004)
        with pytest.raises(StructureError):
            PrimeField(2)

    def test_elements_over_gf(self):
        gf = PrimeField(7)
        ctx = Context(("x",), ScalarOrder("degrevlex", ("x",)), MonoidSpec.full(), gf)
        f = Element.from_terms(ctx, [(Monomial((1,)), 3), (Monomial((0,)), 5)])
        g = f.sub_scaled(f, gf.from_int(1))
        assert g.is_zero
        assert f.monic().lc == 1


class TestDeclaredRationalType:
    """The rationals that run are the standard library's, as packaged."""

    def test_field_values_are_fractions(self):
        field = RationalField()
        values = [field.zero, field.one, field.from_int(3), field.from_ratio(4, 6)]
        assert all(type(c) is Fraction for c in values)

    def test_q_run_coefficients_are_fractions(self):
        from sigbasis.engine import Strategy, run
        from sigbasis.sigcore import make_prebasis_shifted
        from sigbasis.systems import katsura

        ctx, gens = katsura(4)
        assert isinstance(ctx.field, RationalField)
        result = run(make_prebasis_shifted(gens, "top"), Strategy.f5())
        coeffs = [c for g in result.basis.members for _, _, c in g.part.terms]
        assert any(c.denominator > 1 for c in coeffs)
        assert all(type(c) is Fraction for c in coeffs)

    def test_pyproject_declares_no_rational_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        root = pathlib.Path(__file__).resolve().parents[1]
        project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
        assert project["dependencies"] == []
        extras = project.get("optional-dependencies", {})
        assert "fast" not in extras
        assert not any("gmpy2" in req for reqs in extras.values() for req in reqs)
