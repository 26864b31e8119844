"""Sigpairs, prebases, regular reduction, domination, classification."""

import random
from collections import Counter

import pytest

from conftest import elem, mono, multiply
from sigbasis.algebra import Context, Element, PrimeField, RationalField
from sigbasis.engine import Strategy, run
from sigbasis.errors import ContractError, StructureError
from sigbasis.monomials import Monomial, ModuleOrder, MonoidSpec, ScalarOrder, divide
from sigbasis.sigcore import (
    SigPair,
    SigSet,
    classify_signature,
    dominated_members,
    dominates,
    find_regular_reducer,
    make_prebasis_shifted,
    make_prebasis_sum,
    make_prebasis_unshifted,
    regular_normal_form_with_steps,
    syzygy_signatures,
)
from sigbasis.systems import katsura, mora_context, mora_generators
from sigbasis.textio import parse_element, render_element, render_monomial, render_sigpair


@pytest.fixture(scope="module")
def mora_prebasis(mora_gens):
    return make_prebasis_shifted(mora_gens, "top")


@pytest.fixture(scope="module")
def mora_run(mora_gens):
    return run(make_prebasis_shifted(mora_gens, "top"), Strategy.in_order())


class TestMultiply:
    def test_identity(self, mora_prebasis, mora_ctx):
        g = mora_prebasis.members[0]
        assert multiply(mora_ctx.identity_monomial(), g) == g

    def test_shift_g2(self, mora_prebasis, mora_ctx):
        g2 = mora_prebasis.members[1]
        out = multiply(mono(mora_ctx, 0, 2), g2)  # a = x^2
        assert out.part == elem(mora_ctx, "x^2*y^5 - x^4*y")
        assert out.sig == mono(mora_ctx, 5, 2, slot=2)
        assert out.id == g2.id

    def test_shift_g1(self, mora_prebasis, mora_ctx):
        g1 = mora_prebasis.members[0]
        out = multiply(mono(mora_ctx, 3, 0), g1)  # a = y^3
        assert out.part == elem(mora_ctx, "x^2*y^5 - y^3")
        assert out.sig == mono(mora_ctx, 5, 2, slot=1)


class TestPrebasisConstructors:
    def test_shifted_mora(self, mora_prebasis, mora_ctx):
        texts = [render_sigpair(g, mora_ctx.variables) for g in mora_prebasis.members]
        assert texts == [
            "x^2*y^2 - 1 @ x^2*y^2*e_1",
            "y^5 - x^2*y @ y^5*e_2",
            "x^5 - x*y^2 @ x^5*e_3",
        ]
        assert mora_prebasis.sig_order.rank == 3

    def test_shifted_empty(self):
        assert len(make_prebasis_shifted([], "top")) == 0

    def test_shifted_katsura6_signatures(self):
        ctx, gens = katsura(6)
        G = make_prebasis_shifted(gens, "top")
        for i, (g, sp) in enumerate(zip(gens, G.members), start=1):
            assert sp.sig == g.lm.with_slot(i)
            assert sp.part.lc == ctx.field.one

    def test_shifted_distinct_slot_condition(self, mora_prebasis, mora_ctx):
        # at most one member signature divides any signature, with a unique
        # quotient: the structural prebasis condition for distinct slots
        rng = random.Random(3)
        spec = mora_ctx.monoid
        for _ in range(500):
            sigma = Monomial(
                (rng.randrange(8), rng.randrange(8))
            ).with_slot(rng.randrange(1, 4))
            dividing = [
                g for g in mora_prebasis.members if divide(g.sig, sigma, spec)
            ]
            assert len(dividing) <= 1

    def test_unshifted_katsura(self):
        ctx, gens = katsura(6)
        G = make_prebasis_unshifted(gens, "top")
        one = ctx.identity_monomial()
        assert [g.sig for g in G.members] == [one.with_slot(i) for i in range(1, 7)]

    def test_unshifted_single(self, univar_ctx):
        G = make_prebasis_unshifted([elem(univar_ctx, "x - 1")], "top")
        assert len(G) == 1
        assert G.members[0].sig == Monomial((0,)).with_slot(1)

    def test_unshifted_mora(self, mora_gens):
        assert len(make_prebasis_unshifted(mora_gens, "top")) == 3

    def test_unshifted_rejects_module_setting(self, mora_ctx, mora_gens):
        from sigbasis.algebra import Context

        mod_ctx = Context(
            mora_ctx.variables,
            ModuleOrder(mora_ctx.order, "pot", 2),
            mora_ctx.monoid,
            mora_ctx.field,
        )
        vec = Element.from_terms(
            mod_ctx, [(Monomial((1, 0)).with_slot(1), mod_ctx.field.one)]
        )
        with pytest.raises(StructureError):
            make_prebasis_unshifted([vec], "top")

    def test_zero_generator_rejected(self, mora_ctx):
        with pytest.raises(StructureError):
            make_prebasis_shifted([Element.zero(mora_ctx)], "top")

    def test_sum_two_singletons(self, mora_ctx):
        G = make_prebasis_sum(
            [elem(mora_ctx, "x - 1")], [elem(mora_ctx, "y - 1")], "top"
        )
        assert [g.sig for g in G.members] == [
            mono(mora_ctx, 0, 1, slot=1),
            mono(mora_ctx, 1, 0, slot=2),
        ]
        assert G.sig_order.rank == 2

    def test_sum_empty_side(self, mora_ctx):
        G = make_prebasis_sum([], [elem(mora_ctx, "y - 1")], "top")
        assert len(G) == 1 and G.members[0].sig.indices[-1] == 2

    def test_sum_with_oracle_check(self, mora_gens):
        # {g1} and {g2, g3} are each Groebner bases, and the engine completes
        # the sum to the same ideal
        from sigbasis.verify import buchberger, is_groebner_basis, lm_ideal_equal

        ctx = mora_gens[0].ctx
        assert is_groebner_basis(mora_gens[:1], ctx.monoid)
        assert is_groebner_basis(mora_gens[1:], ctx.monoid)
        G = make_prebasis_sum(mora_gens[:1], mora_gens[1:], "top")
        assert len(G) == 3 and G.sig_order.rank == 2
        res = run(G, Strategy.f5())
        gb = buchberger(mora_gens, ctx.monoid)
        lms = {m.part.lm for m in res.basis.members if not m.part.is_zero}
        assert lm_ideal_equal(lms, gb.lm_set(), ctx.monoid)


class TestRegularReduction:
    def test_find_reducer_allows_smaller_signature(self, univar_ctx):
        G = make_prebasis_shifted([elem(univar_ctx, "x - 1")], "top")
        target = Monomial((2,))
        g = find_regular_reducer(target, Monomial((3,)).with_slot(1), G)
        assert g is not None
        b = divide(g.part.lm, target, univar_ctx.monoid)
        assert b == Monomial((1,))

    def test_find_reducer_blocks_equal_or_larger(self, univar_ctx):
        G = make_prebasis_shifted([elem(univar_ctx, "x - 1")], "top")
        assert (
            find_regular_reducer(Monomial((2,)), Monomial((1,)).with_slot(1), G)
            is None
        )

    def test_find_reducer_mora(self, mora_prebasis, mora_ctx):
        # target x^2 y^5 at signature x^2y^5*e2: reducer y^3 * g1
        target = mono(mora_ctx, 5, 2)
        g = find_regular_reducer(target, mono(mora_ctx, 5, 2, slot=2), mora_prebasis)
        b = divide(g.part.lm, target, mora_ctx.monoid)
        assert g.id == 1 and b == mono(mora_ctx, 3, 0)

    def test_example15_two_steps(self, univar_ctx):
        G = make_prebasis_shifted([elem(univar_ctx, "x - 1")], "top")
        f2 = SigPair(elem(univar_ctx, "x^2"), Monomial((3,)).with_slot(1), 9)
        out, steps = regular_normal_form_with_steps(f2, G)
        assert out.part == elem(univar_ctx, "1")
        assert out.sig == f2.sig
        assert steps == 2

    def test_example15_irreducible(self, univar_ctx):
        G = make_prebasis_shifted([elem(univar_ctx, "x - 1")], "top")
        f1 = SigPair(elem(univar_ctx, "x^2"), Monomial((1,)).with_slot(1), 8)
        out, steps = regular_normal_form_with_steps(f1, G)
        assert out == f1 and steps == 0

    def test_mora_first_reduction(self, mora_prebasis, mora_ctx):
        g2 = mora_prebasis.members[1]
        out = regular_normal_form_with_steps(multiply(mono(mora_ctx, 0, 2), g2), mora_prebasis)[0]
        assert out.part == elem(mora_ctx, "x^4*y - y^3")  # monic of -x^4y + y^3
        assert out.sig == mono(mora_ctx, 5, 2, slot=2)

    def test_sig_preserved_lm_not_increased_irreducible(self, mora_prebasis, mora_ctx):
        rng = random.Random(11)
        spec = mora_ctx.monoid
        for _ in range(200):
            g = mora_prebasis.members[rng.randrange(3)]
            a = mono(mora_ctx, rng.randrange(4), rng.randrange(4))
            f = multiply(a, g)
            out = regular_normal_form_with_steps(f, mora_prebasis)[0]
            assert out.sig == f.sig
            key = mora_ctx.order.key
            assert key(out.part.lm) <= key(f.part.lm)
            if not out.part.is_zero:
                assert (
                    find_regular_reducer(out.part.lm, out.sig, mora_prebasis) is None
                )

    def test_corollary33_lm_determinism(self, mora_run, mora_ctx):
        # stage G5 of the trace: x^2y^6*e2 is realized by y*g4 and x^2y*g2;
        # both normal forms agree (here even exactly, after monic scaling)
        members = [m for m in mora_run.basis.members if m.id <= 5]
        stage = SigSet(mora_run.basis.ctx, mora_run.basis.sig_order, members)
        by_id = {m.id: m for m in stage.members}
        g2, g4 = by_id[2], by_id[4]
        via_g4 = regular_normal_form_with_steps(multiply(mono(mora_ctx, 1, 0), g4), stage)[0]
        via_g2 = regular_normal_form_with_steps(multiply(mono(mora_ctx, 1, 2), g2), stage)[0]
        assert via_g4.part.lm == via_g2.part.lm == mono(mora_ctx, 4, 0)
        assert via_g4.part == via_g2.part == elem(mora_ctx, "y^4 - x^2")


def _naive_reducer(target_lm, sigma, G):
    """Reference scan for find_regular_reducer: divide against every member;
    returns the winning member or None."""
    spec, skey = G.monoid, G.sig_order.key
    best = None
    candidates = [
        (g, divide(g.part.lm, target_lm, spec)) for g in G.members if not g.part.is_zero
    ]
    for g, b in candidates:
        if b is None:
            continue
        cand = (skey(g.sig.mul(b)), g.id)
        if cand[0] >= skey(sigma):
            continue
        if best is None or cand < best[0]:
            best = (cand, g, b)
    return None if best is None else best[1]


def _katsura4_basis(monoid, strategy):
    ctx, gens = katsura(4, PrimeField(32003))
    ctx = Context(ctx.variables, ctx.order, monoid, ctx.field)
    gens = [parse_element(render_element(g), ctx) for g in gens]
    return run(make_prebasis_shifted(gens, "top"), strategy).basis


def _module_basis():
    order = ModuleOrder(ScalarOrder("degrevlex", ("y", "x")), "pot", 2)
    ctx = Context(("y", "x"), order, MonoidSpec.full(), PrimeField(32003))
    gens = [
        parse_element(text, ctx)
        for text in ("x*e_2 + y*e_1", "y*e_2 - x*e_1", "x^2*e_1 - y^3*e_2")
    ]
    return run(make_prebasis_shifted(gens, "top"), Strategy.in_order()).basis


_QUADRATICS = [
    tuple(int(i == j) + int(i == k) for i in range(4))
    for j in range(4)
    for k in range(j, 4)
]


_BUILDS = pytest.mark.parametrize(
    "build",
    [
        lambda: _katsura4_basis(MonoidSpec.full(), Strategy.f5()),
        lambda: _katsura4_basis(MonoidSpec.degree_truncated(2), Strategy.f5()),
        lambda: _katsura4_basis(MonoidSpec.generated(_QUADRATICS), Strategy.min_lm()),
        _module_basis,
    ],
    ids=["full", "degree_truncated", "generated", "module"],
)


def _sum_basis():
    # {g1} and {g2, g3} of mora are each Groebner bases
    gens = mora_generators(mora_context())
    return run(make_prebasis_sum(gens[:1], gens[1:], "top"), Strategy.f5()).basis


class TestSlotRealizations:
    """``realizations`` scans only the members of sigma's signature slot; it
    must yield what a divide over every member yields, in both orders, each
    with the member's stored sig/lm ratio."""

    @pytest.mark.parametrize(
        "build",
        [lambda: _katsura4_basis(MonoidSpec.full(), Strategy.f5()), _sum_basis, _module_basis],
        ids=["shifted", "sum", "module"],
    )
    def test_matches_divide_scan(self, build):
        G = build()
        spec, width = G.monoid, G.ctx.width
        slots = {g.sig.indices for g in G.members}
        assert any(g.part.is_zero for g in G.members) and len(slots) > 1
        rng = random.Random(2703)
        sigmas = [
            g.sig.mul(Monomial(tuple(rng.randrange(3) for _ in range(width))))
            for g in G.members for _ in range(3)
        ]
        # a slot that no member has
        top = max(slots)
        sigmas.append(Monomial(G.members[0].sig.exps, top[:-1] + (top[-1] + 1,)))
        hits = 0
        for sigma in sigmas:
            for newest_first in (True, False):
                members = zip(G.members, G.ratios)
                if newest_first:
                    members = reversed(list(members))
                expected = [
                    (g, a, r) for g, r in members
                    if (a := divide(g.sig, sigma, spec)) is not None
                ]
                assert list(G.realizations(sigma, newest_first=newest_first)) == expected
                hits += len(expected)
        # every sigma but the last has a realization, and some have several
        assert hits > 2 * (len(sigmas) - 1)
        assert not list(G.realizations(sigmas[-1]))


class TestMaskedReducerLookup:
    """find_regular_reducer skips members by support mask and keeps each
    target's lowest divisor in a memo; it must choose exactly what a plain
    divide over every member chooses."""

    @_BUILDS
    def test_matches_naive_scan(self, build):
        G = build()
        parts = [g for g in G.members if not g.part.is_zero]
        width = G.ctx.width
        rng = random.Random(2012)
        hits = 0
        for _ in range(400):
            lm = rng.choice(parts).part.lm
            if rng.random() < 0.5:
                target = lm.mul(Monomial(tuple(rng.randrange(3) for _ in range(width))))
            else:
                target = Monomial(tuple(rng.randrange(4) for _ in range(width)), lm.indices)
            a = Monomial(tuple(rng.randrange(4) for _ in range(width)))
            sigma = rng.choice(G.members).sig.mul(a)
            expected = _naive_reducer(target, sigma, G)
            assert find_regular_reducer(target, sigma, G) == expected
            hits += expected is not None
        assert 0 < hits < 400

    @_BUILDS
    def test_memo_exact_as_basis_grows(self, build):
        G = build()
        spec, width = G.monoid, G.ctx.width
        parts = [g for g in G.members if not g.part.is_zero]
        rng = random.Random(2026)
        # twins copy a member's part and signature, so they tie with it on
        # every shifted key: one arrives with a larger id, one with a smaller
        top = G.members[-1].id
        early, late = parts[len(parts) // 3], parts[2 * len(parts) // 3]
        targets = [early.part.lm, late.part.lm] + [
            rng.choice(parts).part.lm.mul(
                Monomial(tuple(rng.randrange(3) for _ in range(width)))
            )
            for _ in range(12)
        ]
        twins = {early.id: SigPair(early.part, early.sig, top + 1),
                 late.id: SigPair(late.part, late.sig, 0)}
        grown = SigSet(G.ctx, G.sig_order)
        x = Monomial((1,) + (0,) * (width - 1))
        hits = strict = ties = 0
        for g in G.members:
            grown.add(g)
            if g.id in twins:
                grown.add(twins[g.id])
            for target in targets:
                divisors = [
                    h.sig.mul(b)
                    for h in grown.members
                    if not h.part.is_zero
                    and (b := divide(h.part.lm, target, spec)) is not None
                ]
                # the lowest divisor's own shifted signature admits nothing
                # strictly below it from that divisor; one degree up admits it
                sigmas = [rng.choice(grown.members).sig.mul(x)]
                if divisors:
                    lowest = min(divisors, key=G.sig_order.key)
                    sigmas += [lowest, lowest.mul(x), rng.choice(divisors)]
                for sigma in sigmas:
                    expected = _naive_reducer(target, sigma, grown)
                    assert find_regular_reducer(target, sigma, grown) == expected
                    hits += expected is not None
                if divisors:
                    strict += _naive_reducer(target, lowest, grown) is None
                    found = find_regular_reducer(target, lowest.mul(x), grown)
                    ties += found is not None and found.id in (0, early.id)
        assert hits and strict and ties

    def test_no_pair_tested_twice_on_katsura6_gf(self, monkeypatch):
        from sigbasis import sigcore

        tests = []
        real_quotient = sigcore.quotient_exps

        def counted(m_exps, n_exps, spec):
            tests.append((n_exps, m_exps))
            return real_quotient(m_exps, n_exps, spec)

        monkeypatch.setattr(sigcore, "quotient_exps", counted)
        ctx, gens = katsura(6, PrimeField(32003))
        G = run(make_prebasis_shifted(gens, "top"), Strategy.f5()).basis
        # a ring target is its exponents; members may share a leading
        # monomial, so a (target, lm) pair is tested at most once per member
        # that has it
        per_lm = Counter(g.part.lm.exps for g in G.members if not g.part.is_zero)
        counts = Counter(tests)
        assert tests and all(n <= per_lm[lm] for (_, lm), n in counts.items())


class TestProductTable:
    """Regular reduction looks shifted part monomials up in the context's
    table (``Context.products``), from order key to Monomial."""

    @pytest.mark.parametrize(
        "field, strategy",
        [(RationalField(), Strategy.f4(4)), (PrimeField(32003), Strategy.f5_pruned())],
        ids=["q-f4", "gf-f5-pruned"],
    )
    def test_warm_run_equals_cold_run(self, field, strategy, monkeypatch):
        from sigbasis import algebra

        _, gens = katsura(4, field)
        ctx = gens[0].ctx
        pre = make_prebasis_shifted(gens, "top")
        cleared = []
        plain_cleared = algebra._cleared

        def recording_cleared(terms):
            cleared.append(terms)
            return plain_cleared(terms)

        monkeypatch.setattr(algebra, "_cleared", recording_cleared)

        def one_run():
            cleared.clear()
            rows = []
            result = run(pre, strategy, trace=rows.append)
            members = [(render_element(g.part), render_monomial(g.sig, ctx.variables), g.id)
                       for g in result.basis.members]
            return members, result.stats, rows

        def prebasis_parts_cleared():
            return [t for t in cleared if any(t is g.part.terms for g in pre.members)]

        cold = one_run()
        assert ctx.products
        assert bool(prebasis_parts_cleared()) == isinstance(field, RationalField)
        table = dict(ctx.products)
        warm = one_run()
        assert warm == cold
        assert ctx.products.keys() == table.keys()
        assert all(ctx.products[k] is m for k, m in table.items())
        assert not prebasis_parts_cleared()

    @pytest.mark.parametrize("strategy", [Strategy.f5_pruned(), Strategy.f4(4)],
                             ids=["f5-pruned", "f4"])
    def test_one_entry_per_distinct_product_monomial(self, strategy):
        _, gens = katsura(4, PrimeField(32003))
        G = run(make_prebasis_shifted(gens, "top"), strategy).basis
        key = G.ctx.order.key
        assert G.ctx.products
        # a key names one monomial, so each entry's key being its monomial's
        # key means one entry per distinct product monomial
        assert all(key(m) == k for k, m in G.ctx.products.items())


class TestShiftedStep:
    """A regular reduction step shifts the reducer's keys; it never builds
    the shifted reducer, and over Q it clears each reducer's row once."""

    def test_regular_reduction_never_builds_a_shifted_reducer(self, monkeypatch):
        import sigbasis.engine as engine

        inside = []
        built = []
        plain_mul = Element.mul_monomial
        plain_nf = engine.regular_normal_form_with_steps

        def recording_mul(self, a):
            built.append(bool(inside))
            return plain_mul(self, a)

        def recording_nf(*args):
            inside.append(1)
            try:
                return plain_nf(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(Element, "mul_monomial", recording_mul)
        monkeypatch.setattr(engine, "regular_normal_form_with_steps", recording_nf)
        _, gens = katsura(4, PrimeField(32003))
        for strategy in (Strategy.f5_pruned(), Strategy.f4(4)):
            result = run(make_prebasis_shifted(gens, "top"), strategy)
            assert result.stats.reduction_steps > 0 and result.basis.ctx.products
        assert built and not any(built)

    @pytest.mark.parametrize("strategy", [Strategy.f5(), Strategy.f4(4)], ids=["f5", "f4"])
    def test_rational_rows_cleared_once_per_element(self, strategy, monkeypatch):
        from sigbasis import algebra

        cleared = []  # the cleared term tuples, kept so that no id is reused
        plain_row, plain_cleared = algebra._row, algebra._cleared

        def recording_row(e):
            calls.append(id(e))
            return plain_row(e)

        def recording_cleared(terms):
            cleared.append(terms)
            return plain_cleared(terms)

        monkeypatch.setattr(algebra, "_row", recording_row)
        monkeypatch.setattr(algebra, "_cleared", recording_cleared)
        _, gens = katsura(4, algebra.RationalField())
        pre = make_prebasis_shifted(gens, "top")
        prebasis_terms = {id(g.part.terms) for g in pre.members}
        for _ in range(2):
            calls, before = [], len(cleared)
            run(pre, strategy)
            assert len(calls) > len(cleared) - before > 0
        # no element is cleared twice, across both runs
        assert len({id(t) for t in cleared}) == len(cleared)
        # the prebasis parts are used again in the second run, and their rows,
        # cleared in the first, are not cleared again
        assert {id(g.part) for g in pre.members} <= set(calls)
        assert not prebasis_terms & {id(t) for t in cleared[before:]}


class TestMonomialChecks:
    def test_constructor_rejects_negative_exponent(self):
        with pytest.raises(StructureError):
            Monomial((1, -1))

    def test_constructor_rejects_index_below_one(self):
        with pytest.raises(StructureError):
            Monomial((1, 0), (0,))
        with pytest.raises(StructureError):
            Monomial((1, 0)).with_slot(0)

    def test_monomial_mul_width_mismatch(self):
        with pytest.raises(StructureError):
            Monomial((1, 0)).mul(Monomial((1, 0, 0)))

    def test_mul_monomial_width_mismatch(self, mora_ctx):
        f = elem(mora_ctx, "x^2*y^2 - 1")
        with pytest.raises(StructureError):
            f.mul_monomial(Monomial((1, 0, 0)))
        with pytest.raises(StructureError):
            f.mul_monomial(Monomial((1,)))

    def test_mul_monomial_rejects_indexed_multiplier(self, mora_ctx):
        f = elem(mora_ctx, "x^2*y^2 - 1")
        with pytest.raises(StructureError):
            f.mul_monomial(Monomial((1, 0)).with_slot(1))


class TestDomination:
    def test_reflexive(self, mora_prebasis):
        for g in mora_prebasis.members:
            assert dominates(g, g, mora_prebasis.sig_order)

    def test_d1_shift(self, mora_prebasis, mora_ctx):
        g1 = mora_prebasis.members[0]
        f = multiply(mono(mora_ctx, 0, 2), g1)
        assert dominates(g1, f, mora_prebasis.sig_order)

    def test_unrelated_slots(self, mora_prebasis):
        g2, g3 = mora_prebasis.members[1], mora_prebasis.members[2]
        assert not dominates(g3, g2, mora_prebasis.sig_order)

    def _random_sigpair(self, rng, ctx, order):
        part = Element.from_terms(
            ctx,
            [
                (
                    Monomial((rng.randrange(4), rng.randrange(4))),
                    ctx.field.from_int(rng.choice([1, -1, 2])),
                )
                for _ in range(rng.randrange(1, 3))
            ],
        )
        sig = Monomial((rng.randrange(4), rng.randrange(4))).with_slot(
            rng.randrange(1, 3)
        )
        if part.is_zero:
            part = Element.from_terms(ctx, [(Monomial((1, 1)), ctx.field.one)])
        return SigPair(part.monic(), sig, rng.randrange(1000))

    def test_d1_and_d2_separately_transitive(self, mora_ctx):
        order = ModuleOrder(mora_ctx.order, "top", 2)
        spec = mora_ctx.monoid
        key, skey = mora_ctx.order.key, order.key

        def d1(g, f):
            a = divide(g.sig, f.sig, spec)
            if a is None:
                return False
            glm = g.part.lm
            shifted = glm if glm.is_zero else glm.mul(a)
            return key(shifted) <= key(f.part.lm)

        def d2(g, f):
            if g.part.is_zero or f.part.is_zero:
                return False
            a = divide(g.part.lm, f.part.lm, spec)
            return a is not None and skey(g.sig.mul(a)) < skey(f.sig)

        rng = random.Random(5)
        for _ in range(4000):
            x, y, z = (self._random_sigpair(rng, mora_ctx, order) for _ in range(3))
            for rel in (d1, d2):
                if rel(x, y) and rel(y, z):
                    assert rel(x, z)

    def test_dominated_members_report(self, mora_run):
        # syzygy markers at multiplied signatures are dominated by their parents
        ids = dominated_members(mora_run.basis)
        assert all(isinstance(i, int) for i in ids)


class TestClassification:
    def test_requires_certified(self, mora_prebasis, mora_ctx):
        with pytest.raises(ContractError):
            classify_signature(mono(mora_ctx, 0, 0, slot=1), mora_prebasis)

    def test_mora_classes(self, mora_run, mora_ctx):
        B = mora_run.basis
        assert classify_signature(mono(mora_ctx, 0, 0, slot=1), B) == "empty"
        assert classify_signature(mono(mora_ctx, 2, 2, slot=1), B) == "regular"
        assert classify_signature(mono(mora_ctx, 5, 5, slot=3), B) == "syzygy"

    def test_syzygy_signatures_markers(self, mora_run, mora_ctx):
        syz = syzygy_signatures(mora_run.basis)
        assert syz == mora_run.syzygies
        # the recorded markers cover x^5y^5*e3 by divisibility
        target = mono(mora_ctx, 5, 5, slot=3)
        spec = mora_ctx.monoid
        assert any(divide(s, target, spec) is not None for s in syz)

    def test_trivial_sets(self, mora_prebasis, mora_ctx):
        assert syzygy_signatures(mora_prebasis) == set()
        zero_marker = SigPair(
            Element.zero(mora_ctx), mono(mora_ctx, 0, 1, slot=1), 1
        )
        S = SigSet(mora_ctx, mora_prebasis.sig_order, [zero_marker])
        assert syzygy_signatures(S) == {zero_marker.sig}
