"""Sigpairs, prebasis constructors, regular reduction, domination, classification.

A sigpair couples a polynomial part with a signature monomial.  Regular
reduction only admits reducers whose shifted signature stays strictly below
the signature being worked at; this is the constraint that distinguishes the
signature world from plain reduction.  It is applied to every term of the
part, the leading one first (full regular reduction).  Whether some b*g with
b*lm(g) = t lies below a signature is one comparison of g's sig/lm ratio
(``sig_lm_ratio``), which a ``SigSet`` stores per nonzero part; its
``lowest_divisor`` is the one scan of those parts, and its memo serves the
reducer lookup and the engine's Koszul test alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Context, Element, RationalField, normal_form_with_steps
from .errors import ContractError, StructureError, check_deadline
from .monomials import (
    ModuleOrder, Monomial, MonoidSpec, ScalarOrder, divide, quotient_exps,
)

__all__ = [
    "SigPair",
    "SigSet",
    "make_prebasis_shifted",
    "make_prebasis_unshifted",
    "make_prebasis_sum",
    "find_regular_reducer",
    "regular_normal_form_with_steps",
    "dominates",
    "classify_signature",
    "syzygy_signatures",
]


@dataclass(frozen=True, slots=True)
class SigPair:
    """(polynomial part, signature monomial, provenance id)."""

    part: Element
    sig: Monomial
    id: int

    def __post_init__(self):
        if self.sig.is_zero:
            raise StructureError("a sigpair signature is never the zero monomial")


def sig_lm_ratio(g: SigPair, sig_order: ModuleOrder) -> int:
    """r(g) = key(sig g) - (key(lm g) << lift), for a nonzero part: keys are
    additive, so b*lm(g) = t gives key(b*sig g) = r(g) + (key(t) << lift), and
    a*lm(f) = b*lm(g) gives key(a*sig f) - key(b*sig g) = r(f) - r(g)
    (Roune & Stillman, ISSAC 2012)."""
    return sig_order.key(g.sig) - (g.part.terms[0][0] << sig_order.lift)


class SigSet:
    """Ordered, append-only collection of sigpairs with shared orders.

    ``certified`` is set by the engine once the combinatorial rewrite-basis
    certificate has passed; classification requires it.  Each nonzero part
    is kept with its support mask, its leading monomial and its sig/lm ratio
    (``sig_lm_ratio``), so b*sig(g) for b*lm(g) = t has the key r(g) +
    (key(t) << lift) without being built.  Each signature is kept with its
    support mask under its position tuple (``sig.indices``): a signature
    divides only those of its own slot.  ``owned`` holds the critical
    signatures owned by each member of the prefix whose pairs are searched;
    only ``critical`` uses it.  ``_lowest`` is ``lowest_divisor``'s memo, and
    that method alone scans the nonzero parts.
    """

    def __init__(self, ctx: Context, sig_order: ModuleOrder, members=(), origin="adhoc"):
        self.ctx = ctx
        self.sig_order = sig_order
        self.members: list[SigPair] = []
        self.origin = origin
        self.certified = False
        self._ids = set()
        # signature slot -> (support mask, member) of its signatures; (support
        # mask, lm, sig/lm ratio, member) of every nonzero part
        self._sigs: dict[tuple[int, ...], list[tuple[int, SigPair]]] = {}
        self._reducers: list[tuple[int, Monomial, int, SigPair]] = []
        self.owned: list[set[Monomial]] = []
        # target key -> (parts scanned, lowest ratio or None, its member)
        self._lowest: dict[int, tuple[int, int | None, SigPair | None]] = {}
        for m in members:
            self.add(m)

    @property
    def monoid(self):
        return self.ctx.monoid

    def add(self, sp: SigPair):
        if sp.id in self._ids:
            raise StructureError(f"duplicate sigpair id {sp.id}")
        self._ids.add(sp.id)
        self.members.append(sp)
        slot = self._sigs.setdefault(sp.sig.indices, [])
        slot.append((_support_mask(sp.sig.exps), sp))
        if sp.part.terms:
            lm = sp.part.terms[0][1]
            self._reducers.append(
                (_support_mask(lm.exps), lm, sig_lm_ratio(sp, self.sig_order), sp)
            )

    def realizations(self, sigma: Monomial, newest_first=True):
        """Yield ``(member, a)`` with ``a * sig(member) == sigma``, newest
        first, or oldest first when ``newest_first`` is false; only the
        members of sigma's slot are tried."""
        spec = self.ctx.monoid
        sigma_mask = _support_mask(sigma.exps)
        slot = self._sigs.get(sigma.indices, ())
        for mask, g in reversed(slot) if newest_first else slot:
            if mask & ~sigma_mask:
                continue
            a = divide(g.sig, sigma, spec)
            if a is not None:
                yield g, a

    def lowest_divisor(self, mono: Monomial, key: int):
        """``(r, member)`` for the nonzero part whose leading monomial divides
        ``mono`` with the lowest (sig/lm ratio, id), or ``(None, None)``;
        ``key`` is ``mono``'s order key.

        Over the divisors of one target, b*sig(g) ranks as r(g), so the
        answer does not depend on any signature: it is kept per key, and
        since the set only appends, a later lookup scans just the parts
        added since.
        """
        reducers = self._reducers
        scanned, best_r, best = self._lowest.get(key, (0, None, None))
        if scanned < len(reducers):
            exps, indices = mono.exps, mono.indices
            mono_mask = _support_mask(exps)
            spec = self.ctx.monoid
            for mask, lm, r, g in reducers[scanned:]:
                if mask & ~mono_mask:
                    continue
                # a candidate must beat the lowest (r, id) so far; the ratio
                # only counts for a divisor, which is checked last
                if best is not None and (r > best_r or r == best_r and g.id >= best.id):
                    continue
                if lm.indices != indices:
                    continue
                if quotient_exps(lm.exps, exps, spec) is not None:
                    best_r, best = r, g
            self._lowest[key] = (len(reducers), best_r, best)
        return best_r, best

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _sig_module_order(ctx: Context, rank: int, sig_kind: str) -> ModuleOrder:
    return ModuleOrder(ctx.order, sig_kind, max(rank, 1))


def _checked_gens(gens):
    gens = list(gens)
    for g in gens:
        if g.is_zero:
            raise StructureError("prebasis constructors reject zero generators")
    return gens


def make_prebasis_shifted(gens, sig_kind: str = "top") -> SigSet:
    """Signatures are the generator leading monomials, one slot each.

    Distinct slots make at most one member signature divide any given
    signature with a unique quotient, which is the structural reason this
    sigset is a valid engine input.
    """
    gens = _checked_gens(gens)
    if not gens:
        return _empty_sigset(sig_kind)
    ctx = gens[0].ctx
    order = _sig_module_order(ctx, len(gens), sig_kind)
    members = [
        SigPair(g.monic(), g.lm.with_slot(i), i)
        for i, g in enumerate(gens, start=1)
    ]
    return SigSet(ctx, order, members, origin="shifted")


def make_prebasis_unshifted(gens, sig_kind: str = "top") -> SigSet:
    """Signatures are 1 in each slot; needs an identity monomial in the part module."""
    gens = _checked_gens(gens)
    if not gens:
        return _empty_sigset(sig_kind)
    ctx = gens[0].ctx
    if not isinstance(ctx.order, ScalarOrder):
        raise StructureError("unshifted signatures need an identity part monomial")
    order = _sig_module_order(ctx, len(gens), sig_kind)
    one = ctx.identity_monomial()
    members = [
        SigPair(g.monic(), one.with_slot(i), i) for i, g in enumerate(gens, start=1)
    ]
    return SigSet(ctx, order, members, origin="unshifted")


def make_prebasis_sum(gens_a, gens_b, sig_kind: str = "top") -> SigSet:
    """Rank-2 signatures for the sum of two submodules.

    Both inputs must already be Groebner bases; the caller asserts it.
    """
    gens_a, gens_b = _checked_gens(gens_a), _checked_gens(gens_b)
    if not gens_a and not gens_b:
        return _empty_sigset(sig_kind)
    ctx = (gens_a or gens_b)[0].ctx
    order = _sig_module_order(ctx, 2, sig_kind)
    members = []
    for g in gens_a:
        members.append(SigPair(g.monic(), g.lm.with_slot(1), len(members) + 1))
    for h in gens_b:
        members.append(SigPair(h.monic(), h.lm.with_slot(2), len(members) + 1))
    return SigSet(ctx, order, members, origin="sum")


def _empty_sigset(sig_kind: str) -> SigSet:
    # Rank and context are unknowable without generators; a width-0 ring
    # context keeps the empty sigset usable by the engine (zero iterations).
    ctx = Context((), ScalarOrder("degrevlex", ()), MonoidSpec.full(), RationalField())
    return SigSet(ctx, ModuleOrder(ctx.order, sig_kind, 1), (), origin="empty")


def _support_mask(exps) -> int:
    """Bit i set iff variable i occurs: a divisor's mask lies inside its multiple's."""
    mask = 0
    for i, e in enumerate(exps):
        if e:
            mask |= 1 << i
    return mask


def find_regular_reducer(target_lm: Monomial, sigma: Monomial, G: SigSet, fresh=(),
                         _sigma_key=None, _target_key=None):
    """Smallest-signature reducer admissible strictly below ``sigma``.

    Returns the member g, or None, for which some b has ``b * lm(g part) ==
    target_lm`` and ``b * sig(g) < sigma``; b is not built, since a caller
    reads it off the two leading monomials.  Ties on the shifted signature
    break toward the smallest provenance id.  G's lowest divisor of the
    target (``SigSet.lowest_divisor``) is the answer when its shifted
    signature key, r + (key(target) << lift), lies below ``sigma``'s.

    ``fresh`` holds sigpairs not in G whose ids exceed every member's (a
    batch's earlier results).  One is admitted only unshifted: its part's
    leading monomial must equal ``target_lm``.  ``_sigma_key`` and
    ``_target_key``, when given, are the order keys of ``sigma`` and
    ``target_lm``, which a reduction already holds.
    """
    if target_lm.is_zero:
        raise ContractError("no reducer for the zero monomial")
    skey = G.sig_order.key
    target_key = _target_key if _target_key is not None else G.ctx.order.key(target_lm)
    sigma_key = _sigma_key if _sigma_key is not None else skey(sigma)
    r, best = G.lowest_divisor(target_lm, target_key)
    best_key = sigma_key if best is None else r + (target_key << G.sig_order.lift)
    if best_key >= sigma_key:
        best_key, best = sigma_key, None
    # a fresh id exceeds the best's, so on the (key, id) order only a
    # strictly smaller key wins
    for h in fresh:
        terms = h.part.terms
        if terms and terms[0][0] == target_key:
            k = skey(h.sig)
            if k < best_key:
                best_key, best = k, h
    return best


def regular_normal_form_with_steps(f: SigPair, G: SigSet, fresh=(), deadline=None):
    """Fully reduce the part at fixed signature: every term, the leading one
    first, until no admissible reducer remains for any of them.

    Each term t is reduced by the part of ``find_regular_reducer``'s winner
    at t, so each step subtracts a multiple of signature strictly below
    ``f.sig`` and the signature stays.  ``fresh`` (the batch's earlier
    results, not yet in G) are among the candidates.  ``deadline`` is a
    ``time.monotonic()`` value, ``None`` for no time cap; past it, the next
    lookup raises ``LimitExceeded``.
    """
    sigma_key = G.sig_order.key(f.sig)

    def admit(k, mono):
        if deadline is not None:  # an uncapped run makes no call per lookup
            check_deadline(deadline)
        found = find_regular_reducer(mono, f.sig, G, fresh, sigma_key, k)
        return None if found is None else found.part

    part, steps = normal_form_with_steps(f.part, admit, full=True)
    return SigPair(part.monic(), f.sig, f.id), steps


def dominates(g: SigPair, f: SigPair, sig_order: ModuleOrder) -> bool:
    """Redundancy relation: g can stand in for f.

    Either some multiple of g matches f's signature with leading monomial at
    most f's, or some multiple matches f's leading monomial at strictly
    smaller signature.
    """
    spec = g.part.ctx.monoid
    part_key = g.part.ctx.order.key
    skey = sig_order.key
    a = divide(g.sig, f.sig, spec)
    if a is not None and part_key(g.part.lm.mul(a)) <= part_key(f.part.lm):
        return True
    if not g.part.is_zero and not f.part.is_zero:
        a = divide(g.part.lm, f.part.lm, spec)
        if a is not None and skey(g.sig.mul(a)) < skey(f.sig):
            return True
    return False


def dominated_members(G: SigSet) -> list[int]:
    """Ids of members strictly dominated by some other member."""
    out = []
    for f in G.members:
        for g in G.members:
            if g.id == f.id:
                continue
            if dominates(g, f, G.sig_order) and not dominates(f, g, G.sig_order):
                out.append(f.id)
                break
    return out


def classify_signature(sigma: Monomial, G: SigSet) -> str:
    """Classify as 'empty', 'regular', or 'syzygy' relative to a certified basis."""
    if not G.certified:
        raise ContractError("classification is only valid on a certified rewrite basis")
    nonempty = False
    for g, _ in G.realizations(sigma):
        if g.part.is_zero:
            return "syzygy"
        nonempty = True
    return "regular" if nonempty else "empty"


def syzygy_signatures(G: SigSet) -> set[Monomial]:
    """Signatures of the zero-part members: the recorded syzygy markers."""
    return {g.sig for g in G.members if g.part.is_zero}
