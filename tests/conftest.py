"""Shared fixtures and an independent dense echelon oracle for the tests.

The oracle here deliberately shares no code with the library's elimination:
plain Fraction arithmetic over dense rows, used to freeze expected pivot
sets and membership answers.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from sigbasis.algebra import Context, RationalField
from sigbasis.monomials import MonoidSpec, Monomial, ScalarOrder
from sigbasis.sigcore import SigPair
from sigbasis.systems import mora_context, mora_generators
from sigbasis.textio import parse_element

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def mora_ctx():
    return mora_context()


@pytest.fixture(scope="session")
def mora_gens(mora_ctx):
    return mora_generators(mora_ctx)


@pytest.fixture(scope="session")
def univar_ctx():
    return Context(
        ("x",), ScalarOrder("degrevlex", ("x",)), MonoidSpec.full(), RationalField()
    )


def load_fixture(name):
    return json.loads((FIXTURES / name).read_text())


def elem(ctx, text):
    return parse_element(text, ctx)


def mono(ctx, *exps, slot=None):
    m = Monomial(tuple(exps))
    return m.with_slot(slot) if slot else m


def multiply(a, f):
    """The sigpair a * f: both components acted on by an index-free monoid element."""
    if a.degree == 0 and not a.is_zero:
        return f
    return SigPair(f.part.mul_monomial(a), f.sig.mul(a), f.id)


# --- independent dense echelon oracle (Fraction arithmetic, no sharing) ---


def dense_pivots(rows_as_dicts, columns):
    """Row-reduce dicts {column_key: Fraction}; return pivot column keys.

    ``columns`` fixes the column order (most significant first).
    """
    idx = {c: i for i, c in enumerate(columns)}
    mat = []
    for row in rows_as_dicts:
        v = [Fraction(0)] * len(columns)
        for c, val in row.items():
            v[idx[c]] = Fraction(val)
        mat.append(v)
    pivots = []
    r = 0
    for c in range(len(columns)):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(columns[c])
        r += 1
        if r == len(mat):
            break
    return pivots, mat


def element_rows_to_dicts(rows):
    return [{m: Fraction(int(c.numerator), int(c.denominator)) for _, m, c in r.terms}
            for r in rows]


def dense_pivots_of_elements(rows, ctx):
    cols = set()
    for r in rows:
        cols.update(m for _, m, _ in r.terms)
    columns = sorted(cols, key=ctx.order.key, reverse=True)
    pivots, _ = dense_pivots(element_rows_to_dicts(rows), columns)
    return set(pivots)


def dense_membership(f, rows, ctx):
    """f in span(rows), by appending f and comparing ranks."""
    base = dense_pivots_of_elements(rows, ctx)
    cols = {m for _, m, _ in f.terms}
    for r in rows:
        cols.update(m for _, m, _ in r.terms)
    columns = sorted(cols, key=ctx.order.key, reverse=True)
    with_f, _ = dense_pivots(element_rows_to_dicts(rows + [f]), columns)
    return len(with_f) == len(base)
