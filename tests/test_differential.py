"""Differential test of the engine loop against the Buchberger oracle.

Fixed-seed random systems in two or three variables, total degree at most 3,
over Q and GF(32003), in the ring setting: every strategy preset and the
batched f5 and min_lm selections, both signature orders and both signature
initializations must give the oracle's leading-monomial ideal.  Restricted
multiplier monoids are left out: the mora system in ``degmin=2`` is a known
wrong answer of the engine, so a random monoid case would test that defect
rather than the loop.
"""

import random

import pytest

from sigbasis.algebra import Context, PrimeField, RationalField
from sigbasis.engine import Strategy, run
from sigbasis.monomials import MonoidSpec, ScalarOrder
from sigbasis.sigcore import make_prebasis_shifted, make_prebasis_unshifted
from sigbasis.textio import parse_element, render_element
from sigbasis.verify import buchberger, lm_ideal_equal

# the five presets, then the batched selectors that no preset makes
STRATEGIES = (
    Strategy.in_order(),
    Strategy.min_lm(),
    Strategy.f5(),
    Strategy.f5_pruned(),
    Strategy.f4(3),
    Strategy("f5", 3),
    Strategy("min_lm", 3),
)


def random_system(seed, field):
    rng = random.Random(seed)
    variables = ("x", "y", "z")[: rng.choice((2, 3))]
    ctx = Context(
        variables, ScalarOrder("degrevlex", variables), MonoidSpec.full(), field
    )
    count = rng.choice((2, 3))
    gens = []
    while len(gens) < count:
        terms = []
        for _ in range(rng.randint(2, 4)):
            exps = [0] * len(variables)
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(len(variables))] += 1
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            factors = [str(abs(c))] + [f"{v}^{e}" for v, e in zip(variables, exps) if e]
            terms.append(("- " if c < 0 else "+ ") + "*".join(factors))
        g = parse_element(" ".join(terms), ctx)
        if not g.is_zero and g.lm.degree:
            gens.append(g)
    return ctx, gens


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)], ids=["q", "gf"])
@pytest.mark.parametrize("seed", range(16))
def test_random_systems_match_oracle(seed, field):
    ctx, gens = random_system(seed, field)
    oracle = buchberger(gens, ctx.monoid).lm_set()
    for sig_order in ("top", "pot"):
        for make in (make_prebasis_shifted, make_prebasis_unshifted):
            for strategy in STRATEGIES:
                res = run(make(gens, sig_order), strategy)
                lms = {m.part.lm for m in res.basis.members if not m.part.is_zero}
                assert lm_ideal_equal(lms, oracle, ctx.monoid), (
                    seed, sig_order, make.__name__, strategy
                )


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)], ids=["q", "gf"])
@pytest.mark.parametrize("seed", range(16))
def test_oracle_matches_sympy(seed, field):
    # a second oracle that shares no code with the package: sympy's own
    # Groebner basis, with the variables passed largest first
    sympy = pytest.importorskip("sympy")
    ctx, gens = random_system(seed, field)
    symbols = sympy.symbols(ctx.variables[::-1])
    names = dict(zip(ctx.variables[::-1], symbols))
    exprs = [sympy.sympify(render_element(g).replace("^", "**"), locals=names) for g in gens]
    options = {} if isinstance(field, RationalField) else {"modulus": field.p}
    theirs = sympy.groebner(exprs, *symbols, order="grevlex", **options)
    expected = {tuple(reversed(p.LM(order="grevlex").exponents)) for p in theirs.polys}
    assert {m.exps for m in buchberger(gens, ctx.monoid).lm_set()} == expected
