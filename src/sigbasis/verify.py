"""Independent ground truth: a classical completion oracle and bounded checks.

The oracle is classical Buchberger completion: one S-pair per minimal common
multiple, popped by smallest common-multiple degree, fully reduced.  In the
full multiplier monoid it skips the pairs that the Gebauer-Moeller update
proves unnecessary: Buchberger's chain criterion on pending pairs, minimal
and one-per-lcm selection of new pairs, and the product criterion for
coprime leading monomials.  The product criterion needs commuting operands,
so it is applied to ring elements only, never to module elements.  In a
restricted monoid every minimal common multiple is reduced.  The reduced
output is unique, which makes it a stable fixture source for comparing
engine runs.  The oracle fully reduces with its own routine
(``_full_reduce``): one dict accumulator per element with a max-heap of
order keys, reduced mod p once per popped term over GF(p), and reducers
found by a first-divisor scan behind its own support masks.  Each
completion (and each closure check) keeps one memo from a term's order key
to its first divisor, so a term is looked up once per run, not once per
reduction that meets it: completion only appends to its basis, so a first
divisor stays first and a miss resumes its scan where it stopped.  The
final interreduction keeps one more: every member's tail reduces against
the whole minimal list, since no member divides a term of its own tail.
It shares no reduction kernel with the engine (``normal_form_with_steps``)
and no reducer lookup with ``SigSet``; the tests also compare the oracle
with sympy's Groebner bases, which share no code with this package.  Its
products share only immutable monomials with the engine, through the
context's table.

The bounded checks are exact linear algebra over degree-bounded slices.
Each feeds its products, in signature order, into one incremental
``SpanEchelon`` (top reduction by ``normal_form_with_steps``), so a whole
check costs one elimination, not one per signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add

from .algebra import Element, PrimeField, SpanEchelon, _product
from .errors import ContractError, LimitExceeded, check_deadline
from .monomials import (
    Monomial,
    divide,
    divides_exponentwise,
    minimal_common_multiples,
    quotient_exps,
)
from .sigcore import SigSet

__all__ = [
    "GroebnerBasis",
    "buchberger",
    "is_groebner_basis",
    "lm_ideal_equal",
    "bounded_signature_basis_check",
    "bounded_syzygy_check",
]

# caps that turn a runaway input into a clean refusal
_ORACLE_MAX_INSERTIONS = 100_000  # basis insertions in one buchberger call
_MAX_SLICE_SIGNATURES = 4000  # signatures one bounded signature check visits


@dataclass(frozen=True, slots=True)
class GroebnerBasis:
    elements: tuple[Element, ...]

    def lm_set(self):
        return {g.lm for g in self.elements}

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _support_mask(m: Monomial) -> int:
    """Bit i set iff variable i occurs in m; -1 for the zero monomial.

    A divisor's mask lies inside its multiple's.  The zero monomial, the
    leading monomial of a zero reducer, gets every bit, so it never passes.
    """
    if m.is_zero:
        return -1
    mask = 0
    for i, e in enumerate(m.exps):
        if e:
            mask |= 1 << i
    return mask


def _full_reduce(f: Element, reducers, spec, masks=None, memo=None) -> Element:
    """Divide every term of f by the reducer list (not only the top).

    Each term, largest first, is reduced by the first reducer in list order
    whose leading monomial divides it, or else is final.  f is held in one
    accumulator, a dict from order key to coefficient with a max-heap of its
    keys: a step adds -lam * b * g with g's keys shifted by one add (keys are
    additive), pushes only keys that are new, and leaves the other terms
    alone.  A coefficient that cancels stays in the dict as zero until its
    key is popped, so a later step that reaches the key again adds to it.
    The accumulator adds with plain operators; over GF(p) each popped
    coefficient is reduced mod p once, so the output holds canonical
    residues.  Product monomials come from the context's table
    (``Context.products``).

    ``masks`` holds ``_support_mask`` of each reducer's leading monomial;
    a reducer whose mask is not inside the term's is not tested.  ``memo``
    maps a term's order key to ``(n, g, b)``: the first divisor g (or None)
    among ``reducers[:n]`` and its quotient's exponents b.  It stays exact
    while the caller only appends to ``reducers`` and ``masks``: a first
    divisor stays first, and a miss resumes its scan at ``reducers[n:]``.
    Without a memo, each term's divisor is still looked up once per call.
    """
    if masks is None:
        masks = [_support_mask(g.lm) for g in reducers]
    if memo is None:
        memo = {}
    ctx = f.ctx
    field = ctx.field
    p = field.p if isinstance(field, PrimeField) else None
    key = ctx.order.key
    products = ctx.products
    coeffs = {k: c for k, _, c in f.terms}
    monos = {k: m for k, m, _ in f.terms}
    heap = [-k for k, _, _ in f.terms]  # ascending, so already a heap
    out = []
    while heap:
        k = -heappop(heap)
        c = coeffs.pop(k)
        if p:
            c %= p
        if not c:
            continue
        n, g, b = memo.get(k, (0, None, None))
        if g is None and n < len(reducers):
            t = monos[k]
            t_mask = _support_mask(t)
            for g, mask in zip(reducers[n:], masks[n:]):
                if (
                    not mask & ~t_mask
                    and g.lm.indices == t.indices
                    and (b := quotient_exps(g.lm.exps, t.exps, spec)) is not None
                ):
                    break
            else:
                g = None
            memo[k] = (len(reducers), g, b)
        if g is None:
            out.append((k, monos[k], c))
            continue
        lam = field.div(c, g.terms[0][2])
        d = k - g.terms[0][0]
        for kg, m, cg in g.terms[1:]:
            kg += d
            prev = coeffs.get(kg)
            if prev is not None:
                coeffs[kg] = prev - lam * cg
                continue
            coeffs[kg] = -lam * cg
            heappush(heap, -kg)
            if d:
                m = products.get(kg) or _product(b, m, kg, products, key)
            monos[kg] = m
    return Element(ctx, tuple(out))


def _spair(f: Element, g: Element, a: Monomial, b: Monomial) -> Element:
    fa = f.mul_monomial(a)
    gb = g.mul_monomial(b)
    lam = f.ctx.field.div(fa.lc, gb.lc)
    return fa.sub_scaled(gb, lam)


def _lcm(m, n):
    return tuple(map(max, m, n))


def _drop_chained(live, basis, h: Monomial):
    """Drop the pending pairs that a new leading monomial h makes redundant.

    A pair (g1, g2) goes when h divides its lcm L and both lcm(g1, h) and
    lcm(g2, h) differ from L (Buchberger's chain criterion).
    """
    for key, (i, j, lcm) in list(live.items()):
        if (
            divides_exponentwise(h, lcm)
            and _lcm(basis[i].lm.exps, h.exps) != lcm.exps
            and _lcm(basis[j].lm.exps, h.exps) != lcm.exps
        ):
            del live[key]


def _new_pair_survivors(new, basis, h: Monomial):
    """Gebauer-Moeller selection among the new pairs (h, g_j).

    Keeps the first pair of each minimal lcm.  For index-free leading
    monomials, an lcm equal to lm(h)*lm(g_j) for some pair in its group drops
    the whole group (product criterion).
    """
    lcms = {pair[3] for pair in new}
    groups = {}
    for pair in new:
        lcm = pair[3]
        if any(o != lcm and divides_exponentwise(o, lcm) for o in lcms):
            continue
        coprime = not h.indices and lcm.degree == h.degree + basis[pair[0]].lm.degree
        first, dropped = groups.get(lcm, (pair, False))
        groups[lcm] = (first, dropped or coprime)
    return [first for first, dropped in groups.values() if not dropped]


def buchberger(gens, spec, *, deadline: float | None = None) -> GroebnerBasis:
    """Reduced Groebner basis by classical completion.

    ``deadline`` is a ``time.monotonic()`` value; past it, the start, the
    next popped pair or the next member of the final interreduction raises
    ``LimitExceeded``, and so does an insertion past
    ``_ORACLE_MAX_INSERTIONS``.  ``basis`` and ``masks`` only grow by
    append, so one divisor memo serves every reduction of the completion.
    """
    check_deadline(deadline, " during verification")
    basis = [g.monic() for g in gens if not g.is_zero]
    if not basis:
        return GroebnerBasis(())
    masks = [_support_mask(g.lm) for g in basis]
    memo = {}
    criteria = spec.kind == "full"
    pairs = []
    live = {}  # counter -> (i, j, common multiple) of every pair still pending
    counter = 0

    def push_pairs(i):
        nonlocal counter
        h = basis[i].lm
        new = [
            (j, a, b, Monomial(tuple(map(add, a.exps, h.exps)), h.indices))
            for j in range(i)
            for a, b in minimal_common_multiples(basis[i].lm, basis[j].lm, spec)
        ]
        if criteria:
            _drop_chained(live, basis, h)
            new = _new_pair_survivors(new, basis, h)
        for j, a, b, lcm in new:
            counter += 1
            live[counter] = (i, j, lcm)
            heappush(pairs, (lcm.degree, counter, i, j, a, b))

    for i in range(len(basis)):
        push_pairs(i)
    inserted = 0
    while pairs:
        _, key, i, j, a, b = heappop(pairs)
        check_deadline(deadline, " during verification")
        if live.pop(key, None) is None:
            continue
        s = _spair(basis[i], basis[j], a, b)
        r = _full_reduce(s, basis, spec, masks, memo)
        if r.is_zero:
            continue
        basis.append(r.monic())
        masks.append(_support_mask(r.lm))
        inserted += 1
        if inserted > _ORACLE_MAX_INSERTIONS:
            raise LimitExceeded("oracle insertion cap exceeded")
        push_pairs(len(basis) - 1)
    return GroebnerBasis(tuple(_interreduce(basis, spec, deadline)))


def _interreduce(basis, spec, deadline):
    """Drop members with divisible leading monomials, then tail-reduce.

    ``basis`` holds the completion's monic members, at least one.  Scanning
    by ascending leading monomial is complete: a divisor's leading monomial
    is never larger than the multiple's.  In an order compatible with the
    monoid action no term below lm(g) is a multiple of lm(g), so no member
    divides a term met in reducing its own tail: each tail reduces against
    the whole minimal list, with one mask list and one memo.  Leading terms
    stay, so the output keeps ascending order.  The deadline is checked
    once per member.
    """
    ctx = basis[0].ctx
    key = ctx.order.key
    minimal = []
    for g in sorted(basis, key=lambda e: (key(e.lm), len(e.terms))):
        if any(divide(h.lm, g.lm, spec) is not None for h in minimal):
            continue
        minimal.append(g)
    masks = [_support_mask(g.lm) for g in minimal]
    memo = {}
    out = []
    for g in minimal:
        check_deadline(deadline, " during verification")
        tail = _full_reduce(Element(ctx, g.terms[1:]), minimal, spec, masks, memo)
        out.append(Element(ctx, g.terms[:1] + tail.terms))
    return out


def is_groebner_basis(elems, spec, *, deadline: float | None = None) -> bool:
    """Closure check: every S-pair reduces to zero over the set itself.

    ``deadline`` is a ``time.monotonic()`` value; past it, the next pair
    raises ``LimitExceeded``.
    """
    elems = [e for e in elems if not e.is_zero]
    masks = [_support_mask(e.lm) for e in elems]
    memo = {}  # one fixed reducer list, so every entry stays valid
    for i in range(len(elems)):
        for j in range(i):
            for a, b in minimal_common_multiples(elems[i].lm, elems[j].lm, spec):
                check_deadline(deadline, " during verification")
                s = _spair(elems[i], elems[j], a, b)
                if not _full_reduce(s, elems, spec, masks, memo).is_zero:
                    return False
    return True


def lm_ideal_equal(A, B, spec) -> bool:
    """Mutual divisibility of two finite leading-monomial sets."""
    A, B = set(A), set(B)
    return all(any(divide(b, a, spec) is not None for b in B) for a in A) and all(
        any(divide(a, b, spec) is not None for a in A) for b in B
    )


@dataclass(slots=True)
class CheckReport:
    ok: bool
    violations: list
    details: tuple = ()

    def __bool__(self):
        return self.ok


def bounded_signature_basis_check(
    G: SigSet, D: int, *, deadline: float | None = None
) -> CheckReport:
    """Echelon-pivot check of every signature slice up to degree D.

    For each reachable signature sigma, each pivot of the slice spanned by
    the admissible products a*g (shifted signature <= sigma, part degree
    <= D) must be the leading monomial of one of those products; a pivot
    that no admissible product reaches is a violation.  The slices only grow
    with sigma, so one ``SpanEchelon`` takes the products in signature order
    and the unreached pivots are kept as the walk goes.  More than
    ``_MAX_SLICE_SIGNATURES`` reachable signatures raise ``ContractError``.
    """
    top = max((g.part.degree for g in G.members if not g.part.is_zero), default=0)
    if D < top:
        raise ContractError(f"degree bound {D} below max part degree {top}")
    spec = G.monoid
    skey = G.sig_order.key
    sigmas = {}
    for g in G.members:
        budget = D - g.sig.degree
        for a in spec.elements_up_to(len(g.sig.exps), max(budget, 0)):
            s = g.sig.mul(Monomial(a))
            sigmas[s] = skey(s)
    if len(sigmas) > _MAX_SLICE_SIGNATURES:
        raise ContractError(
            f"{len(sigmas)} signatures exceed the cap {_MAX_SLICE_SIGNATURES}"
        )
    products = []
    for g in G.members:
        if g.part.is_zero:
            continue
        for a in spec.elements_up_to(len(g.sig.exps), D - g.part.degree):
            am = Monomial(a)
            products.append((skey(g.sig.mul(am)), g.part, am))
    products.sort(key=lambda p: p[0])
    ech = SpanEchelon()
    reached, unreached = set(), set()
    fed = 0
    violations = []
    for sigma, sigma_key in sorted(sigmas.items(), key=lambda kv: kv[1]):
        check_deadline(deadline, " during verification")
        while fed < len(products) and products[fed][0] <= sigma_key:
            _, part, am = products[fed]
            fed += 1
            row = part.mul_monomial(am)
            reached.add(row.lm)
            unreached.discard(row.lm)
            r = ech.residue_vector(row)
            if not r.is_zero and r.lm not in reached:
                unreached.add(r.lm)
        violations.extend(
            (sigma, p) for p in sorted(unreached, key=G.ctx.order.key, reverse=True)
        )
    return CheckReport(not violations, violations)


def bounded_syzygy_check(
    input_gens, result, D: int, *, deadline: float | None = None
) -> CheckReport:
    """Kernel cover check for a shifted-prebasis run, or for no generators.

    Computes, degree by degree, the leading monomials of the kernel of
    (c_1, ..., c_r) -> sum c_i g_i under the shifted signature order, and
    requires each to be divisible by a reported syzygy signature.
    """
    gens = [g.monic() for g in input_gens]
    if not gens:
        return CheckReport(True, [])
    if result.basis.origin != "shifted":
        raise ContractError("syzygy cover check needs a shifted-prebasis run")
    ctx = gens[0].ctx
    spec = ctx.monoid
    skey = result.basis.sig_order.key
    entries = []
    for i, g in enumerate(gens, start=1):
        budget = D - g.lm.degree
        for a in spec.elements_up_to(ctx.width, max(budget, 0)):
            am = Monomial(a)
            shifted = g.lm.mul(am).with_slot(i)
            entries.append((skey(shifted), shifted, am, g))
    entries.sort(key=lambda e: e[0])
    kernel_lms = []
    ech = SpanEchelon()
    for _, shifted, am, g in entries:
        check_deadline(deadline, " during verification")
        if ech.residue_vector(g.mul_monomial(am)).is_zero:
            kernel_lms.append(shifted)
    syz = result.syzygies
    violations = [
        s
        for s in kernel_lms
        if not any(divide(t, s, spec) is not None for t in syz)
    ]
    return CheckReport(not violations, violations, details=tuple(kernel_lms))
