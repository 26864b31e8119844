"""Exact coefficients, sparse elements, reduction, and bounded span oracles.

Elements are finitely supported coefficient combinations of monomials, kept
sorted strictly descending under the declared order, with no zero
coefficients.  All arithmetic is exact: rationals are ``fractions.Fraction``
and prime residues are Python ints.  Values are immutable and safe to share.

Each term carries its order key, one int that is additive under the monoid
action (``ScalarOrder``).  Reduction (``normal_form_with_steps``) uses that:
it asks its caller for a reducer with the term's key and monomial, is
handed a reducer g unshifted, and a step f - lam * b * g reads b off the
two leading monomials, walks g's terms with their keys shifted by one add
and never builds b * g; only a term new to f takes a product monomial, from
the context's table (``Context.products``), and none does when b is 1.  It
reduces the leading term only (top reduction) or every term in descending
order (full reduction); the caller chooses.  Over GF(p) the element is held
in one accumulator, a dict keyed by order key with a heap of keys, so a
step touches only the reducer's terms and irreducible terms leave in pop
order.  Over Q it runs on integers: the unreduced suffix and each reducer
are cleared of denominators, combined with integer cofactors, and divided
by their content, while one exact rational scale tracks the factor taken
out; each irreducible run becomes rational once, with the scale it had.
That step scales every term of the suffix by a cofactor, so it keeps a
merge of sorted lists.  An element's cleared row is built the first time a
reduction uses it and kept on the element.  Both caches live on the value
they memoize, so no caller keeps or passes a table.

It is the library's one exact elimination.  ``SpanEchelon`` builds the
echelon of a span incrementally on it, keeping one top-reduced row per
leading monomial, and the bounded checks in ``verify`` run on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import add, sub

from .errors import ContractError, StructureError
from .monomials import Monomial, ModuleOrder, MonoidSpec, ZERO, identity

__all__ = [
    "RationalField",
    "PrimeField",
    "Context",
    "Element",
    "normal_form_with_steps",
    "SpanEchelon",
    "bounded_span_pivots",
]


@dataclass(frozen=True, slots=True)
class RationalField:
    """The field of exact rationals, as ``fractions.Fraction``."""

    name = "Q"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_ratio(self, p, q):
        if q == 0:
            raise StructureError("zero denominator")
        return Fraction(p, q)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero coefficient")
        return a / b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def render(self, a):
        return str(a)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True, slots=True)
class PrimeField:
    """Residues modulo an odd prime below 2**31."""

    p: int

    def __post_init__(self):
        if self.p < 3 or self.p >= 2**31 or not _is_prime(self.p):
            raise StructureError(f"{self.p} is not an odd prime below 2**31")

    @property
    def name(self):
        return f"GF({self.p})"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def from_ratio(self, num, den):
        if den % self.p == 0:
            raise StructureError("zero denominator")
        return self.div(num % self.p, den % self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero coefficient")
        return (a * pow(b, -1, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def render(self, a):
        return str(a % self.p)


@dataclass(frozen=True, slots=True)
class Context:
    """Declaration of the ambient monomial module: variables, order, monoid, field.

    ``products`` maps an order key to its Monomial under ``order``.  Every
    product monomial that ``Element.mul_monomial`` or a reduction step builds
    is kept there, so each distinct product is built once and shared by all
    elements of the context.  It lives as long as the context (one parsed
    problem) and never goes stale: a key names exactly one monomial of the
    order.  It takes no part in equality, hashing or repr.
    """

    variables: tuple[str, ...]
    order: "ScalarOrder | ModuleOrder"
    monoid: MonoidSpec
    field: "RationalField | PrimeField"
    products: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def width(self) -> int:
        return len(self.variables)

    @property
    def rank(self) -> int:
        return self.order.rank if isinstance(self.order, ModuleOrder) else 1

    def identity_monomial(self) -> Monomial:
        return identity(self.width)


class Element:
    """Sparse exact element; terms strictly descending under the context order.

    Over Q the slot ``_row`` holds the element cleared of denominators once a
    reduction has used it (see ``_row``).
    """

    __slots__ = ("ctx", "terms", "_row")

    def __init__(self, ctx: Context, terms):
        # terms must already be normalized: sorted descending, nonzero coeffs
        self.ctx = ctx
        self.terms = terms

    @classmethod
    def from_terms(cls, ctx: Context, pairs) -> "Element":
        field = ctx.field
        acc = {}
        for m, c in pairs:
            if m.is_zero:
                raise StructureError("the zero monomial cannot carry a coefficient")
            prev = acc.get(m)
            acc[m] = c if prev is None else field.add(prev, c)
        key = ctx.order.key
        terms = tuple(
            (key(m), m, c)
            for m, c in sorted(acc.items(), key=lambda mc: key(mc[0]), reverse=True)
            if not field.is_zero(c)
        )
        return cls(ctx, terms)

    @classmethod
    def zero(cls, ctx: Context) -> "Element":
        return cls(ctx, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lm(self) -> Monomial:
        return self.terms[0][1] if self.terms else ZERO

    @property
    def lc(self):
        if not self.terms:
            raise ContractError("the zero element has no leading coefficient")
        return self.terms[0][2]

    @property
    def degree(self) -> int:
        """Max total degree over the support; -1 for the zero element."""
        return max((m.degree for _, m, _ in self.terms), default=-1)

    def scale(self, lam) -> "Element":
        field = self.ctx.field
        if field.is_zero(lam):
            return Element(self.ctx, ())
        return Element(self.ctx, tuple((k, m, field.mul(lam, c)) for k, m, c in self.terms))

    def monic(self) -> "Element":
        if not self.terms:
            return self
        lc = self.terms[0][2]
        field = self.ctx.field
        if lc == field.one:
            return self
        inv = field.div(field.one, lc)
        return self.scale(inv)

    def mul_monomial(self, a: Monomial) -> "Element":
        """Left action by an index-free monomial; order is preserved by M2.

        A product term's key is its term's key plus the order's ``shift(a)``.
        Each product monomial is looked up by that key in ``ctx.products`` and
        built only on a miss, so every distinct product monomial of the
        context is built once and shared.
        """
        if a.is_zero:
            raise ContractError("cannot multiply by the zero monomial")
        if a.degree == 0:
            return self
        if a.indices:
            raise StructureError("multiplier must be a nonzero index-free monomial")
        exps = a.exps
        if len(exps) != self.ctx.width:
            raise StructureError("multiplier width mismatch")
        # the terms share the context's width, so one check covers every product
        products = self.ctx.products
        key = self.ctx.order.key
        d = self.ctx.order.shift(a)
        out = []
        for k, m, c in self.terms:
            k += d
            out.append((k, products.get(k) or _product(exps, m, k, products, key), c))
        return Element(self.ctx, tuple(out))

    def sub_scaled(self, other: "Element", lam) -> "Element":
        """self - lam * other, by merge of the sorted term lists."""
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise StructureError("elements from different contexts")
        field = self.ctx.field
        if field.is_zero(lam):
            return self
        a, b = self.terms, other.terms
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            ka, kb = a[i][0], b[j][0]
            if ka > kb:
                out.append(a[i])
                i += 1
            elif ka < kb:
                kj, mj, cj = b[j]
                out.append((kj, mj, field.neg(field.mul(lam, cj))))
                j += 1
            else:
                c = field.sub(a[i][2], field.mul(lam, b[j][2]))
                if not field.is_zero(c):
                    out.append((ka, a[i][1], c))
                i += 1
                j += 1
        out.extend(a[i:])
        for kj, mj, cj in b[j:]:
            out.append((kj, mj, field.neg(field.mul(lam, cj))))
        return Element(self.ctx, tuple(out))

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.ctx == other.ctx
            and [(m, c) for _, m, c in self.terms] == [(m, c) for _, m, c in other.terms]
        )

    def __hash__(self):
        return hash(tuple((m, c) for _, m, c in self.terms))

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        parts = [f"{self.ctx.field.render(c)}*{m!r}" for _, m, c in self.terms]
        return "Element(" + " + ".join(parts) + ")"


def _product(exps, m, k, products, key):
    """The monomial exps * m of order key k, built on a table miss.

    The order key refuses a product past the field width before the table
    takes it, so every key in the table is its monomial's true key.
    """
    prod = Monomial(tuple(map(add, exps, m.exps)), m.indices)
    key(prod)
    products[k] = prod
    return prod


def _shift(k, mono: Monomial, e: Element):
    """The key shift d and the multiplier's exponents b that take lm(e) to
    the leading monomial ``mono`` of key k; b is None when d is 0, that is
    when the two leading monomials are equal."""
    if not e.terms:
        raise ContractError("a reduction step needs a nonzero reducer")
    ke, lm, _ = e.terms[0]
    d = k - ke
    if not d:
        return 0, None
    b = tuple(map(sub, mono.exps, lm.exps))
    if lm.indices != mono.indices or min(b, default=0) < 0:
        raise ContractError("the reducer's leading monomial must divide the target")
    return d, b


def normal_form_with_steps(f: Element, admit, *, full: bool) -> tuple[Element, int]:
    """Reduce f with reducers supplied by ``admit``.

    ``admit(k, m)`` is called with a term's order key k and monomial m and
    returns None or a nonzero reducer g whose leading monomial divides m; a
    zero reducer, or one whose leading monomial does not divide m
    exponentwise in the same module position, raises ``ContractError``.
    The terms are visited in descending order.  A term that ``admit``
    reduces is replaced by f - lam * b * g, with b * lm(g) = m read off the
    two leading monomials and lam the quotient of the two coefficients.
    With ``full`` every term below an irreducible one is visited too (full
    reduction: no term of the result is reducible); without it the first
    irreducible term ends the reduction and the rest of f is kept as it is
    (top reduction).  Callers choose explicitly: the engine's regular
    normal form reduces fully, and ``SpanEchelon``, which needs only
    leading monomials, top-reduces.

    A step never builds b * g: it walks g's terms with their keys shifted by
    d = k - key(lm g) (keys are additive), and only a term that is new to f
    takes a product monomial, from the context's table
    (``Context.products``), when d is not 0; terms already in f keep f's
    monomial.  Over GF(p) f is held in one keyed accumulator, so a step
    touches only g's terms (see ``_modular_normal_form``).  Over Q it runs
    on integer rows (see ``_fraction_free_normal_form``); the rows of f and
    of each reducer are cleared once and kept on them.  Both return what
    the plain loop returns: f - (c / lc g) * b * g by ``Element.sub_scaled``
    at each reduced term c * m, step after step.  Terminates because each
    step replaces the visited term by terms strictly below it, in a
    well-order.
    """
    if isinstance(f.ctx.field, RationalField):
        return _fraction_free_normal_form(f, admit, full)
    return _modular_normal_form(f, admit, full)


def _first_reducible(terms, admit, full):
    """The index of the first term that ``admit`` reduces and its reducer;
    without ``full`` only the leading term is tried.  None if there is none."""
    for i, (k, m, _) in enumerate(terms):
        found = admit(k, m)
        if found is not None:
            return i, found
        if not full:
            break
    return None


def _modular_normal_form(f: Element, admit, full) -> tuple[Element, int]:
    """Reduction over GF(p) on one keyed accumulator.

    f below the term being reduced is a dict from order key to coefficient,
    with a dict from key to monomial and a min-heap of negated keys (Yan's
    geobuckets, JSC 1998; the heaps of Monagan & Pearce's sparse division).
    A step drops the reduced term and adds -lam * c at each reducer term's
    shifted key; only a key new to the dict takes a monomial and a heap
    entry.  The dict adds with plain operators, and a value is reduced mod p
    once, when its key is popped: a key that cancels stays in the dict until
    then, so a later step can add to it again.  Keys are popped in
    descending order and the first nonzero residue is the next term to
    reduce.  An irreducible term is final, since every later step lands
    strictly below it: full reduction emits each in pop order, so its result
    needs no sort, and top reduction stops at the first and emits the rest
    of the dict once, sorted by key, as canonical nonzero residues.  Terms of
    f that no reducer touches are never copied.
    """
    first = _first_reducible(f.terms, admit, full)
    if first is None:
        return f, 0
    i, found = first
    p = f.ctx.field.p
    key = f.ctx.order.key
    products = f.ctx.products
    out = list(f.terms[:i])
    lead, lm, lc = f.terms[i]
    rest = f.terms[i + 1:]
    coeffs = {k: c for k, _, c in rest}
    monos = {k: m for k, m, _ in rest}
    # descending keys negate to an ascending list, which is already a heap
    heap = [-k for k, _, _ in rest]
    steps = 0
    while True:
        d, b = _shift(lead, lm, found)
        E = found.terms
        lam = lc * pow(E[0][2], -1, p) % p
        # the reduced term cancels; every other term of E lands below it
        for k, m, c in E[1:]:
            k += d
            x = coeffs.get(k)
            if x is None:
                coeffs[k] = -lam * c
                if d:
                    m = products.get(k) or _product(b, m, k, products, key)
                monos[k] = m
                heappush(heap, -k)
            else:
                coeffs[k] = x - lam * c
        steps += 1
        while True:
            while heap:
                lead = -heappop(heap)
                lc = coeffs.pop(lead) % p
                if lc:
                    break
            else:
                return Element(f.ctx, tuple(out)), steps
            lm = monos[lead]
            found = admit(lead, lm)
            if found is not None:
                break
            out.append((lead, lm, lc))
            if not full:
                keys = sorted((k for k, c in coeffs.items() if c % p), reverse=True)
                out.extend((k, monos[k], coeffs[k] % p) for k in keys)
                return Element(f.ctx, tuple(out)), steps


def _cleared(terms):
    """Integer terms T and the positive integer d with T = d * terms."""
    dens = [c.denominator for _, _, c in terms]
    den = lcm(*dens)
    return [(k, m, c.numerator * (den // q)) for (k, m, c), q in zip(terms, dens)], den


def _row(e: Element):
    """``_cleared(e.terms)``, computed on first use and kept on e."""
    try:
        return e._row
    except AttributeError:
        e._row = row = _cleared(e.terms)
        return row


def _content(values) -> int:
    """gcd of the integers, 0 if all are zero; the scan stops once it is 1."""
    g = 0
    for x in values:
        g = gcd(g, x)
        if g == 1:
            break
    return g


def _fraction_free_normal_form(f: Element, admit, full) -> tuple[Element, int]:
    """Reduction over Q on integer rows, one exact scale per run.

    The unreduced suffix of f is kept as scale * F with F integral.  A step
    at F's term j against the cleared reducer E, shifted by b, replaces F by
    (lc E / g) * F[j+1:] - (F[j] / g) * b*E[1:], g = gcd of the two
    coefficients, and divides out the content of the result
    (integer-preserving elimination: Bareiss 1968; Knuth, TAOCP 4.6.1).
    F[:j] is irreducible and final: it leaves as one run, made rational with
    the scale current at that moment, so a later step scales and divides
    only the suffix.  Each step multiplies every term of the suffix by u, so
    it touches all of it anyway, and one merge of the sorted lists is the
    cheapest way through.
    """
    first = _first_reducible(f.terms, admit, full)
    if first is None:
        return f, 0
    j, found = first
    key = f.ctx.order.key
    products = f.ctx.products
    out = list(f.terms[:j])
    F, den = _row(f)
    scale = Fraction(1, den)
    steps = 0
    while True:
        d, b = _shift(F[j][0], F[j][1], found)
        E = _row(found)[0]
        ce, cf = E[0][2], F[j][2]
        g = gcd(ce, cf)
        u, v = ce // g, cf // g
        # u * F[j:] - v * b * E; the reduced terms cancel and are skipped
        suffix = []
        append = suffix.append
        i, nf = j + 1, len(F)
        for k, m, c in E[1:]:
            k += d
            while i < nf and F[i][0] > k:
                kf, mf, x = F[i]
                append((kf, mf, u * x))
                i += 1
            if i < nf and F[i][0] == k:
                c = u * F[i][2] - v * c
                if c:
                    append((k, F[i][1], c))
                i += 1
            else:
                if d:
                    m = products.get(k) or _product(b, m, k, products, key)
                append((k, m, -v * c))
        suffix.extend([(k, m, u * c) for k, m, c in F[i:]])
        steps += 1
        if not suffix:
            return Element(f.ctx, tuple(out)), steps
        content = _content(c for _, _, c in suffix)
        if content > 1:
            suffix = [(k, m, c // content) for k, m, c in suffix]
        F = suffix
        scale = scale * Fraction(g * content, ce)
        first = _first_reducible(F, admit, full)
        if first is None:
            break
        j, found = first
        if j:
            out.extend(_rational(F[:j], scale))
    out.extend(_rational(F, scale))
    return Element(f.ctx, tuple(out)), steps


def _rational(terms, scale):
    """The integer terms times the exact scale, as rational terms."""
    num, den = scale.numerator, scale.denominator
    return [(k, m, Fraction(c * num, den)) for k, m, c in terms]


class SpanEchelon:
    """Incremental sparse echelon of a span: one row per leading monomial.

    Each fed element is top-reduced by ``normal_form_with_steps`` against the
    rows kept so far, and a nonzero remainder is kept under its leading
    monomial's order key.  The kept rows have distinct leading monomials and
    span what was fed, so those monomials are the pivots of the span.  Only
    the leading monomials matter here, so the tails are left unreduced.
    """

    def __init__(self, rows=()):
        self.rows = {}
        for r in rows:
            self.residue_vector(r)

    def residue_vector(self, f: Element) -> Element:
        """Top-reduce f against the rows and keep a nonzero remainder.

        The remainder is zero exactly when f lies in the span fed so far.
        """
        rows = self.rows
        r, _ = normal_form_with_steps(f, lambda k, m: rows.get(k), full=False)
        if r.terms:
            rows[r.terms[0][0]] = r
        return r

    def pivot_monomials(self):
        return [r.lm for r in self.rows.values()]


def bounded_span_pivots(gens, D: int, spec: MonoidSpec):
    """Pivot monomials of the degree <= D slice spanned by monoid multiples."""
    gens = list(gens)
    if not gens:
        return set()
    top = max(g.degree for g in gens)
    if D < top:
        raise ContractError(f"degree bound {D} below max generator degree {top}")
    ech = SpanEchelon(
        g.mul_monomial(Monomial(a))
        for g in gens
        if not g.is_zero
        for a in spec.elements_up_to(g.ctx.width, D - g.degree)
    )
    return set(ech.pivot_monomials())
