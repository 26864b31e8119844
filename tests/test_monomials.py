"""Orders, divisibility, monoid membership, minimal common multiples."""

import random

import pytest

from sigbasis import monomials
from sigbasis.errors import StructureError
from sigbasis.monomials import (
    Monomial,
    ModuleOrder,
    MonoidSpec,
    ScalarOrder,
    ZERO,
    divide,
    divides_exponentwise,
    minimal_common_multiples,
)

XY = ScalarOrder("degrevlex", ("x", "y"))  # x smallest
YX = ScalarOrder("degrevlex", ("y", "x"))  # y smallest (x dominant)
FULL = MonoidSpec.full()


def m(*exps, slot=None):
    mono = Monomial(tuple(exps))
    return mono.with_slot(slot) if slot is not None else mono


class TestCompare:
    def test_degree_dominates(self):
        # exps in (x, y): x^4 y^2 vs x^2 y^6
        assert XY.key(m(4, 2)) < XY.key(m(2, 6))

    def test_degrevlex_tiebreak(self):
        # equal degree: larger exponent in the smallest variable loses
        assert XY.key(m(5, 2)) < XY.key(m(2, 5))
        assert XY.key(m(2, 5)) > XY.key(m(5, 2))

    def test_top_index_tiebreak(self):
        order = ModuleOrder(XY, "top", 3)
        assert order.key(m(2, 5, slot=1)) < order.key(m(2, 5, slot=2))

    def test_pot_index_dominates(self):
        order = ModuleOrder(XY, "pot", 2)
        assert order.key(m(99, 0, slot=1)) < order.key(m(1, 0, slot=2))

    def test_zero_is_strictly_minimal(self):
        for order in (XY, ModuleOrder(XY, "top", 2)):
            probe = m(0, 0, slot=1) if isinstance(order, ModuleOrder) else m(0, 0)
            assert order.key(ZERO) < order.key(probe)
            assert order.key(ZERO) == order.key(ZERO)

    def test_width_mismatch_rejected(self):
        with pytest.raises(StructureError):
            XY.key(Monomial((1,)))

    def test_rank_out_of_bounds_rejected(self):
        order = ModuleOrder(XY, "top", 2)
        with pytest.raises(StructureError):
            order.key(m(1, 0, slot=3))

    def test_lex(self):
        lex = ScalarOrder("lex", ("x", "y"))  # y most significant
        assert lex.key(m(9, 0)) < lex.key(m(0, 1))
        assert lex.key(m(1, 1)) > lex.key(m(0, 1))


def random_monomial(rng, width=2, max_exp=6, slot_rank=0):
    mono = Monomial(tuple(rng.randrange(max_exp + 1) for _ in range(width)))
    if slot_rank:
        mono = mono.with_slot(rng.randrange(1, slot_rank + 1))
    return mono


@pytest.mark.parametrize(
    "order,rank",
    [
        (XY, 0),
        (YX, 0),
        (ScalarOrder("lex", ("x", "y")), 0),
        (ModuleOrder(XY, "top", 3), 3),
        (ModuleOrder(XY, "pot", 3), 3),
    ],
)
def test_totality_and_multiplicative_compatibility(order, rank):
    # M2: a*m < a*n whenever m < n; M3: a*m >= m.  10^4 sampled triples.
    rng = random.Random(20260810)
    for _ in range(10_000):
        a = random_monomial(rng)
        x = random_monomial(rng, slot_rank=rank)
        y = random_monomial(rng, slot_rank=rank)
        kx, ky = order.key(x), order.key(y)
        assert (kx == ky) == (x == y)
        if kx < ky:
            assert order.key(x.mul(a)) < order.key(y.mul(a))
        assert order.key(x.mul(a)) >= kx


def tuple_key(order, mono):
    """The reference order: nested tuples, compared lexicographically."""
    if mono.is_zero:
        return (0,)
    if isinstance(order, ScalarOrder):
        if order.kind == "degrevlex":
            return (1, sum(mono.exps), tuple(-e for e in mono.exps))
        return (1, tuple(reversed(mono.exps)))
    inner = tuple_key(order.base, Monomial(mono.exps, mono.indices[:-1]))
    i = mono.indices[-1]
    return (1, i, inner) if order.kind == "pot" else (1, inner, i)


def _key_orders():
    """(order, slot ranks from the outermost in): scalar, TOP and POT up to
    rank 5, and a nested module order, over degrevlex and lex."""
    for kind in ("degrevlex", "lex"):
        base = ScalarOrder(kind, ("z", "y", "x"))
        yield base, ()
        for sig in ("top", "pot"):
            for rank in (1, 2, 3, 5):
                yield ModuleOrder(base, sig, rank), (rank,)
            for inner in ("top", "pot"):
                yield ModuleOrder(ModuleOrder(base, inner, 2), sig, 3), (3, 2)


def _random_keyed(rng, ranks, big):
    if big:  # wide fields; a product of two stays within the degree limit
        exps = [rng.randrange(1 << 28) for _ in range(3)]
    else:
        exps = [rng.randrange(4) for _ in range(3)]
    slots = tuple(rng.randint(1, r) for r in reversed(ranks))
    return Monomial(tuple(exps), slots)


class TestIntegerKeys:
    """Keys are one int each: the tuple order exactly, additive under the action."""

    @pytest.mark.parametrize("order,ranks", list(_key_orders()), ids=repr)
    def test_int_order_is_the_tuple_order(self, order, ranks):
        rng = random.Random(20261019)
        monos = {_random_keyed(rng, ranks, big=i % 4 == 0) for i in range(400)}
        monos.add(ZERO)
        by_int = sorted(monos, key=order.key)
        assert by_int == sorted(monos, key=lambda x: tuple_key(order, x))
        assert len({order.key(x) for x in monos}) == len(monos)
        assert order.key(ZERO) == -1

    @pytest.mark.parametrize("order,ranks", list(_key_orders()), ids=repr)
    def test_shift_is_additive(self, order, ranks):
        rng = random.Random(7)
        for _ in range(20):
            b = _random_keyed(rng, (), big=rng.random() < 0.3)
            shifts = {
                order.key(x.mul(b)) - order.key(x)
                for x in (_random_keyed(rng, ranks, big=rng.random() < 0.3) for _ in range(30))
            }
            assert shifts == {order.shift(b)}

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    def test_limit_refused(self, kind):
        base = ScalarOrder(kind, ("y", "x"))
        top = ModuleOrder(base, "top", 2)
        limit = 2**31 - 1
        assert base.key(m(limit, 0)) > base.key(m(0, 0))
        assert top.key(m(limit - 5, 5, slot=2)) > top.key(m(0, 0, slot=2))
        for bad in (m(2**31, 0), m(0, 2**31), m(2**30, 2**30)):
            with pytest.raises(StructureError):
                base.key(bad)
            with pytest.raises(StructureError):
                top.key(bad.with_slot(1))

    def test_product_past_the_limit_refused(self, mora_ctx):
        from sigbasis.algebra import Element

        f = Element.from_terms(mora_ctx, [(m(0, 2**30), 1), (m(0, 0), 1)])
        a = m(0, 2**30 - 1)
        assert f.mul_monomial(a).lm == m(0, 2**31 - 1)
        with pytest.raises(StructureError):
            f.mul_monomial(m(0, 2**30))


class TestDivide:
    def test_full_monoid(self):
        q = divide(m(2, 2), m(2, 5), FULL)
        assert q == m(0, 3)
        assert m(2, 2).mul(q) == m(2, 5)

    def test_index_mismatch(self):
        assert divide(m(1, 0, slot=1), m(1, 0, slot=2), FULL) is None

    def test_monoid_membership_constrains_quotient(self):
        A = MonoidSpec.degree_truncated(2)
        assert divide(m(2, 0), m(3, 0), A) is None  # quotient of degree 1
        assert divide(m(2, 0), m(3, 1), A) == m(1, 1)

    def test_divide_consistent_with_order_and_action(self):
        rng = random.Random(7)
        for _ in range(2000):
            x = random_monomial(rng)
            y = random_monomial(rng)
            a = divide(x, y, FULL)
            if a is not None:
                assert x.mul(a) == y
                assert XY.key(x) <= XY.key(y)


class TestMonoidMember:
    def test_full(self):
        assert FULL.member((3, 7))

    def test_degree_truncated(self):
        A = MonoidSpec.degree_truncated(2)
        assert not A.member((1, 0))
        assert A.member((1, 1))
        assert A.member((0, 0))

    def test_generated_even_degree(self):
        A = MonoidSpec.generated([(2, 0), (1, 1), (0, 2)])
        assert A.member((3, 1))  # x^2 * xy
        assert not A.member((3, 0))  # odd total degree

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_generated_member_is_the_degree_test(self, width, d):
        # every monomial of degree d generates exactly the degrees divisible by d
        gens = list(_vectors(width, d))
        A = MonoidSpec.generated(gens)
        closure = _closure(gens, width, 9)
        for k in range(10):
            for v in _vectors(width, k):
                assert A.member(v) == (v in closure), v

    @pytest.mark.parametrize("width, d", [(1, 3), (2, 2), (3, 2)])
    def test_generated_specs_are_values(self, width, d):
        # the spec is the generators' degree: order and repetition do not matter
        gens = list(_vectors(width, d))
        specs = [
            MonoidSpec.generated(gens),
            MonoidSpec.generated(gens[::-1]),
            MonoidSpec.generated(gens + gens[:1]),
            MonoidSpec.generated(random.Random(d).sample(gens, len(gens))),
        ]
        assert all(s == specs[0] and hash(s) == hash(specs[0]) for s in specs)
        assert specs[0] == MonoidSpec("generated", generator_degree=d)
        assert MonoidSpec.generated(list(_vectors(width, d + 1))) != specs[0]
        assert len({*specs, MonoidSpec.full(), MonoidSpec.degree_truncated(d)}) == 3

    def test_truncated_specs_are_values(self):
        a = MonoidSpec.degree_truncated(2, [(0, 3), (1, 1)])
        b = MonoidSpec.degree_truncated(2, [[1, 1], [0, 3], (0, 3)])
        assert a == b and hash(a) == hash(b)
        assert a != MonoidSpec.degree_truncated(2)

    def test_full_monoid_has_one_spec(self):
        # every declaration of the full monoid gives the value full()
        for spec in (
            MonoidSpec.degree_truncated(0),
            MonoidSpec.degree_truncated(1),
            MonoidSpec("degree_truncated", 1),
            MonoidSpec.generated(list(_vectors(3, 1))),
            MonoidSpec("generated", generator_degree=1),
        ):
            assert spec == FULL and hash(spec) == hash(FULL)
        # exclusions or a higher degree keep the restriction
        assert MonoidSpec.degree_truncated(0, [(1, 0)]).kind == "degree_truncated"
        assert MonoidSpec.degree_truncated(2).kind == "degree_truncated"
        assert MonoidSpec.generated(list(_vectors(2, 2))).kind == "generated"

    def test_fields_outside_the_kind_refused(self):
        # a spec holds only what defines its kind, so equal monoids compare equal
        for kwargs in ({"min_degree": 7}, {"exclusions": [(1, 1)]}, {"generator_degree": 2}):
            with pytest.raises(StructureError):
                MonoidSpec("full", **kwargs)
        with pytest.raises(StructureError):
            MonoidSpec("generated")
        with pytest.raises(StructureError):
            MonoidSpec("degree_truncated", 2, generator_degree=2)

    def test_truncated_closure_validation(self):
        # excluding x^2*y^2 breaks closure: xy * xy lands on it
        with pytest.raises(StructureError):
            MonoidSpec.degree_truncated(2, exclusions=[(2, 2)])


class TestMinimalCommonMultiples:
    def test_polynomial_lcm(self, mora_ctx):
        # lm g1 = x^2 y^2, lm g2 = y^5 in slots (y, x): common multiple x^2 y^5
        a = Monomial((2, 2))  # y^2 x^2
        b = Monomial((5, 0))  # y^5
        ((mult, cof),) = minimal_common_multiples(b, a, FULL)
        assert b.mul(mult) == Monomial((5, 2)) == a.mul(cof)

    def test_index_mismatch_empty(self):
        assert minimal_common_multiples(m(1, 0, slot=1), m(1, 0, slot=2), FULL) == ()

    def test_degree_truncated_two_multipliers(self):
        # A = {deg >= 2} + identity, m = x^2, n = x*y (exps in (x, y))
        A = MonoidSpec.degree_truncated(2)
        res = minimal_common_multiples(m(2, 0), m(1, 1), A)
        assert {a for a, _ in res} == {m(1, 1), m(0, 2)}

    def test_generated_monoid_matches_deeper_search(self):
        # Every monomial of degree d generates the monoid: the search finds
        # the same exponentwise-minimal multipliers as a brute-force search
        # 16 degrees deeper than m.degree + n.degree + d, with membership
        # taken from the generator closure rather than from descent.
        rng = random.Random(20261018)
        for _ in range(120):
            width, d = rng.randint(1, 3), rng.randint(1, 3)
            gens = list(_vectors(width, d))
            A = MonoidSpec.generated(gens)
            lhs = Monomial(tuple(rng.randint(0, 4) for _ in range(width)))
            rhs = Monomial(tuple(rng.randint(0, 4) for _ in range(width)))
            top = lhs.degree + rhs.degree + d + 16
            closure = _closure(gens, width, top)
            deeper = []
            for k in range(top + 1):
                for a in _vectors(width, k):
                    cof = tuple(x + y - z for x, y, z in zip(a, lhs.exps, rhs.exps))
                    if a not in closure or cof not in closure:
                        continue
                    if not any(all(p <= q for p, q in zip(prev, a)) for prev in deeper):
                        deeper.append(a)
            res = minimal_common_multiples(lhs, rhs, A)
            assert sorted(a.exps for a, _ in res) == sorted(deeper), (d, lhs, rhs)
            for a, b in res:
                assert lhs.mul(a) == rhs.mul(b)

    @pytest.mark.parametrize(
        "gens, lhs, rhs, multiplier",
        [
            ([(1, 2), (4, 1), (2, 0)], (0, 3), (4, 0), (16, 0)),
            ([(0, 3, 0), (0, 2, 1), (1, 0, 2)], (0, 3, 3), (3, 1, 2), (3, 12, 6)),
        ],
        ids=["mixed-degrees", "one-degree-not-all"],
    )
    def test_generated_monoid_without_bound_refused(self, gens, lhs, rhs, multiplier):
        # Exps in (x, y[, z]).  Each monoid has a minimal common multiplier
        # (x^16; x^3 y^12 z^6) beyond degree m.degree + n.degree + max
        # generator degree, so no fixed search box is known to hold them.
        cof = tuple(x + y - z for x, y, z in zip(multiplier, lhs, rhs))
        closure = _closure(gens, len(lhs), max(sum(multiplier), sum(cof)))
        assert multiplier in closure and cof in closure
        assert sum(multiplier) > sum(lhs) + sum(rhs) + max(map(sum, gens))
        with pytest.raises(StructureError, match="one total degree"):
            MonoidSpec.generated(gens)

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind", ["full", "degmin2", "degmin2-excl", "degmin3", "degmin3-excl", "generated2"]
    )
    def test_swapped_arguments_swap_the_pairs(self, kind, width):
        # The critical layer searches each unordered pair once and reads the
        # other orientation off the swapped pairs (a - a' = b - b').  This
        # fails if one orientation's search box misses a minimal multiple
        # that the other finds.
        A = _orientation_spec(kind, width)
        rng = random.Random(1013 * width)
        for _ in range(40):
            lhs = Monomial(tuple(rng.randint(0, 4) for _ in range(width)))
            rhs = Monomial(tuple(rng.randint(0, 4) for _ in range(width)))
            fwd = minimal_common_multiples(lhs, rhs, A)
            bwd = minimal_common_multiples(rhs, lhs, A)
            assert set(fwd) == {(b, a) for a, b in bwd}, (lhs, rhs)

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind", ["degmin2", "degmin2-excl", "degmin3", "degmin3-excl", "generated2",
                 "generated3"]
    )
    def test_layer_stop_matches_exhaustive_search(self, kind, width):
        # Without exclusions the search stops after its first degree with a
        # solution; it must return what the whole search box returns.
        A = _orientation_spec(kind, width)
        rng = random.Random(2026 + width)
        found = 0
        for _ in range(40):
            lhs = Monomial(tuple(rng.randint(0, 4) for _ in range(width)))
            rhs = Monomial(tuple(rng.randint(0, 4) for _ in range(width)))
            res = minimal_common_multiples(lhs, rhs, A)
            assert res == _exhaustive_mcm(lhs, rhs, A), (lhs, rhs)
            found += bool(res)
        assert found

    def test_output_pairwise_incomparable_and_covering(self):
        # Every solution in a bounded enumeration sits above some output.
        A = MonoidSpec.degree_truncated(2)
        lhs, rhs = m(2, 0), m(1, 1)
        res = minimal_common_multiples(lhs, rhs, A)
        outs = [a for a, _ in res]
        for i, a in enumerate(outs):
            for j, b in enumerate(outs):
                if i != j:
                    assert not divides_exponentwise(a, b)
        for ex in range(7):
            for ey in range(7):
                cand = Monomial((ex, ey))
                if not A.member(cand.exps):
                    continue
                prod = lhs.mul(cand)
                cof = tuple(p - r for p, r in zip(prod.exps, rhs.exps))
                if any(e < 0 for e in cof) or not A.member(cof):
                    continue
                assert any(divides_exponentwise(a, cand) for a in outs)


def _exhaustive_mcm(lhs, rhs, spec):
    """Every degree of ``minimal_common_multiples``' search box, with no
    stop after the first degree that has a solution."""
    a0 = tuple(max(x, y) - x for x, y in zip(lhs.exps, rhs.exps))
    if spec.kind == "degree_truncated":
        extra = monomials._truncated_search_bound(lhs, rhs, a0, spec) - sum(a0)
    else:
        extra = spec.generator_degree - 1
    found = []
    for k in range(extra + 1):
        for t in monomials._vectors_of_degree(len(a0), k):
            a = tuple(x + y for x, y in zip(a0, t))
            if not spec.member(a):
                continue
            cof = tuple(x + y - z for x, y, z in zip(a, lhs.exps, rhs.exps))
            if not spec.member(cof):
                continue
            if any(all(x <= y for x, y in zip(prev.exps, a)) for prev, _ in found):
                continue
            found.append((Monomial(a), Monomial(cof)))
    return tuple(found)


def _vectors(width, degree):
    """Exponent vectors of one total degree."""
    if width == 1:
        yield (degree,)
        return
    for head in range(degree + 1):
        for tail in _vectors(width - 1, degree - head):
            yield (head,) + tail


def _closure(gens, width, top):
    """Every sum of generators of total degree <= top, the identity included."""
    seen = {(0,) * width}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                s = tuple(x + y for x, y in zip(v, g))
                if sum(s) <= top and s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen


def _orientation_spec(kind, width):
    if kind == "full":
        return FULL
    if kind.startswith("generated"):
        return MonoidSpec.generated(list(_vectors(width, int(kind[-1]))))
    d = int(kind[len("degmin")])
    excl = ()
    if kind.endswith("-excl"):
        # one vector of degree d and one of degree d + 1: a product of two
        # members has degree >= 2d > d + 1, so the monoid stays closed
        excl = [(d,) + (0,) * (width - 1), (0,) * (width - 1) + (d + 1,)]
    return MonoidSpec.degree_truncated(d, excl)


def test_zero_monomial_conventions():
    assert ZERO.is_zero
    assert ZERO.mul(m(1, 1)) is ZERO
    assert not divides_exponentwise(m(1, 0), ZERO)
    assert divides_exponentwise(ZERO, ZERO)
