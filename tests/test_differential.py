"""Differential test of the engine loop against the Buchberger oracle.

Fixed-seed random systems in two or three variables, total degree at most 3,
over Q and GF(32003).  In the ring setting under degrevlex, every strategy
preset and the batched f5 and min_lm selections, both signature orders and
both signature initializations must give the oracle's leading-monomial
ideal.  The presets and batched f5 must also do so, under both signature
orders, in rank-2 modules under POT and under TOP with the shifted prebasis
(the unshifted one needs an identity part monomial), and in the ring under
lex with both prebases; on one module system f5-pruned fails its own
certificate instead (``PRUNING_REFUSED``), and the test holds it to that
refusal.  Restricted multiplier monoids are left out: the mora system in
``degmin=2`` is a known wrong answer of the engine, so a random monoid case
would test that defect rather than the loop.
"""

import random

import pytest

from sigbasis.algebra import Context, PrimeField, RationalField
from sigbasis.engine import Strategy, run
from sigbasis.errors import CertificateError
from sigbasis.monomials import ModuleOrder, MonoidSpec, ScalarOrder
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


def random_system(seed, field, order="degrevlex", module=None):
    """Random generators; ``module`` ("pot" or "top") puts each term in one
    of two module slots under that module order."""
    rng = random.Random(seed)
    variables = ("x", "y", "z")[: rng.choice((2, 3))]
    scalar = ScalarOrder(order, variables)
    ctx = Context(
        variables,
        scalar if module is None else ModuleOrder(scalar, module, 2),
        MonoidSpec.full(),
        field,
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
            if module:
                factors.append(f"e_{rng.randint(1, 2)}")
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


# rank-2 modules take the shifted prebasis only
SETTINGS = {
    "module-pot": ({"module": "pot"}, (make_prebasis_shifted,)),
    "module-top": ({"module": "top"}, (make_prebasis_shifted,)),
    "lex": ({"order": "lex"}, (make_prebasis_shifted, make_prebasis_unshifted)),
}
# a known defect: f5-pruned fails its own certificate on this module system,
# over both fields (sig_order pot and the other presets pass)
PRUNING_REFUSED = (17, "module-pot", "top", Strategy.f5_pruned())


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)], ids=["q", "gf"])
@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("seed", range(24))
def test_modules_and_lex_match_oracle(seed, setting, field):
    options, makes = SETTINGS[setting]
    ctx, gens = random_system(seed, field, **options)
    oracle = buchberger(gens, ctx.monoid).lm_set()
    for sig_order in ("top", "pot"):
        for make in makes:
            for strategy in STRATEGIES[:6]:  # the presets and batched f5
                if (seed, setting, sig_order, strategy) == PRUNING_REFUSED:
                    # pruning drops a signature this run needed; the closing
                    # certificate refuses the result rather than return it
                    with pytest.raises(CertificateError):
                        run(make(gens, sig_order), strategy)
                    continue
                res = run(make(gens, sig_order), strategy)
                lms = {m.part.lm for m in res.basis.members if not m.part.is_zero}
                assert lm_ideal_equal(lms, oracle, ctx.monoid), (
                    seed, setting, sig_order, make.__name__, strategy
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
