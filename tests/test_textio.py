"""Parse/render roundtrips for the text syntax."""

import random

import pytest

from conftest import elem
from sigbasis.algebra import Context, Element, PrimeField
from sigbasis.errors import ParseError
from sigbasis.monomials import Monomial, MonoidSpec, ScalarOrder, ZERO
from sigbasis.sigcore import SigPair
from sigbasis.textio import (
    parse_element,
    parse_monomial,
    render_element,
    render_monomial,
    render_sigpair,
)


class TestMonomials:
    def test_parse_ring_and_module(self, mora_ctx):
        v = mora_ctx.variables
        assert parse_monomial("x^2*y^5", v) == Monomial((5, 2))
        assert parse_monomial("x^2*y^5*e_2", v) == Monomial((5, 2)).with_slot(2)
        assert parse_monomial("1", v) == Monomial((0, 0))
        assert parse_monomial("0", v) is ZERO

    def test_render(self, mora_ctx):
        v = mora_ctx.variables
        assert render_monomial(Monomial((5, 2)), v) == "x^2*y^5"
        assert render_monomial(Monomial((0, 0)), v) == "1"
        assert render_monomial(ZERO, v) == "0"
        assert render_monomial(Monomial((0, 1)).with_slot(3), v) == "x*e_3"

    def test_roundtrip_random(self, mora_ctx):
        v = mora_ctx.variables
        rng = random.Random(1)
        for _ in range(300):
            m = Monomial((rng.randrange(7), rng.randrange(7)))
            if rng.random() < 0.4:
                m = m.with_slot(rng.randrange(1, 4))
            assert parse_monomial(render_monomial(m, v), v) == m

    def test_unknown_variable(self, mora_ctx):
        with pytest.raises(ParseError):
            parse_monomial("z^2", mora_ctx.variables)


class TestElements:
    def test_rational_coefficients(self, mora_ctx):
        f = elem(mora_ctx, "y^5 - x^2*y")
        assert render_element(f) == "y^5 - x^2*y"
        g = elem(mora_ctx, "-1/2*x + 3")
        assert render_element(g) == "-1/2*x + 3"

    def test_katsura_style_text(self):
        ctx = Context(
            ("f", "e", "d", "c", "b", "a"),
            ScalarOrder("degrevlex", ("f", "e", "d", "c", "b", "a")),
            MonoidSpec.full(),
            __import__("sigbasis.algebra", fromlist=["RationalField"]).RationalField(),
        )
        text = "b*c + a*d + b*e + c*f - 1/2*d"
        assert render_element(parse_element(text, ctx)) == text

    def test_zero_and_constants(self, mora_ctx):
        assert parse_element("0", mora_ctx).is_zero
        assert render_element(parse_element("7", mora_ctx)) == "7"
        assert render_element(parse_element("x - x", mora_ctx)) == "0"

    def test_term_merging(self, mora_ctx):
        assert parse_element("x + x", mora_ctx) == elem(mora_ctx, "2*x")

    def test_gf_coefficients(self):
        gf = PrimeField(7)
        ctx = Context(("x",), ScalarOrder("degrevlex", ("x",)), MonoidSpec.full(), gf)
        f = parse_element("5*x + 1/2", ctx)
        # 1/2 = 4 mod 7
        assert f.terms[-1][1:] == (Monomial((0,)), 4)
        assert render_element(f) == "5*x + 4"

    def test_roundtrip_random(self, mora_ctx):
        rng = random.Random(9)
        for _ in range(200):
            pairs = []
            for _ in range(rng.randrange(1, 5)):
                pairs.append(
                    (
                        Monomial((rng.randrange(5), rng.randrange(5))),
                        mora_ctx.field.from_ratio(
                            rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3])
                        ),
                    )
                )
            f = Element.from_terms(mora_ctx, pairs)
            assert parse_element(render_element(f), mora_ctx) == f

    def test_dangling_sign_rejected(self, mora_ctx):
        with pytest.raises(ParseError):
            parse_element("x +", mora_ctx)

    def test_error_position(self, mora_ctx):
        with pytest.raises(ParseError) as info:
            parse_element("x + $", mora_ctx, line=12)
        assert info.value.line == 12


class TestSigpairText:
    def test_render(self, mora_ctx):
        sp = SigPair(
            elem(mora_ctx, "x^2*y^2 - 1"), Monomial((2, 2)).with_slot(1), 1
        )
        assert render_sigpair(sp, mora_ctx.variables) == "x^2*y^2 - 1 @ x^2*y^2*e_1"
