"""Monomials, total orders, the monoid action, and minimal common multiples.

A monomial is an exponent vector over a declared variable list, optionally
decorated with a stack of module positions (``indices``).  A plain ring
monomial has no indices; a free-module monomial carries one; a signature
monomial built over a free module carries two (inner module slot, then
signature slot).  The distinguished zero monomial compares strictly below
everything and is the leading monomial of the zero element.

Monomial multipliers act from the left by exponent addition and never touch
indices.  Divisibility is decided relative to a monoid of admissible
multipliers (``MonoidSpec``): the quotient exponent vector must itself be a
monoid member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub
from struct import Struct

from .errors import ContractError, StructureError

__all__ = [
    "Monomial",
    "ZERO",
    "ScalarOrder",
    "ModuleOrder",
    "MonoidSpec",
    "divide",
    "quotient_exps",
    "divides_exponentwise",
    "minimal_common_multiples",
]


@dataclass(frozen=True, slots=True)
class Monomial:
    """Exponent vector plus an optional stack of module positions."""

    exps: tuple[int, ...]
    indices: tuple[int, ...] = ()
    is_zero: bool = False

    def __post_init__(self):
        if not self.is_zero and min(self.exps, default=0) < 0:
            raise StructureError(f"negative exponent in {self.exps}")
        if min(self.indices, default=1) < 1:
            raise StructureError(f"module indices must be >= 1, got {self.indices}")

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def mul(self, a: "Monomial") -> "Monomial":
        """Left action of the index-free multiplier ``a``."""
        if self.is_zero:
            return self
        if a.indices or a.is_zero:
            raise StructureError("multiplier must be a nonzero index-free monomial")
        if len(a.exps) != len(self.exps):
            raise StructureError("multiplier width mismatch")
        return Monomial(tuple(map(add, a.exps, self.exps)), self.indices)

    def with_slot(self, i: int) -> "Monomial":
        """Append a module position (used to form signature monomials)."""
        if self.is_zero:
            raise ContractError("the zero monomial takes no module position")
        return Monomial(self.exps, self.indices + (i,))

    def __repr__(self):
        if self.is_zero:
            return "Monomial(0)"
        tail = "".join(f"*e_{i}" for i in self.indices)
        return f"Monomial({self.exps}{tail})"


ZERO = Monomial((), (), True)


def identity(width: int) -> Monomial:
    return Monomial((0,) * width)


# Every order key is one int of fixed 32-bit fields.  A key is additive under
# the monoid action: key(b*m) = key(m) + shift(b).  Keys refuse degrees above
# _LIMIT, so a field of a product of two keyed monomials stays below 2**32 and
# an added key never carries into the next field.
_FIELD = 32
_LIMIT = (1 << 31) - 1
_KEY_ZERO = -1


@dataclass(frozen=True, slots=True)
class ScalarOrder:
    """Total order on index-free monomials.

    ``variables`` lists the variable names from smallest to largest; exponent
    vectors are stored in that same sequence.  ``degrevlex`` compares total
    degree first, then breaks ties scanning from the smallest variable, a
    strictly larger exponent there making the monomial smaller.  ``lex``
    compares from the largest variable down.

    The key packs 32-bit fields: for degrevlex the degree, then 2**32 - 1 - e
    for each exponent from the smallest variable on; for lex the exponents
    from the largest variable down.  ``bits`` is its width.
    """

    kind: str
    variables: tuple[str, ...]
    bits: int = field(init=False, repr=False, compare=False)
    _pack: Struct = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise StructureError(f"unknown scalar order kind {self.kind!r}")
        n = len(self.variables)
        degrevlex = self.kind == "degrevlex"
        object.__setattr__(self, "bits", _FIELD * (n + degrevlex))
        object.__setattr__(self, "_pack", Struct(f"{'>' if degrevlex else '<'}{n}I"))

    @property
    def width(self) -> int:
        return len(self.variables)

    def key(self, m: Monomial) -> int:
        if m.is_zero:
            return _KEY_ZERO
        if m.indices:
            raise StructureError("scalar order applied to an indexed monomial")
        return self._exps_key(m.exps)

    def _exps_key(self, exps) -> int:
        if len(exps) != len(self.variables):
            raise StructureError(
                f"monomial width {len(exps)} does not match {self.width} variables"
            )
        d = sum(exps)
        if d > _LIMIT:
            raise StructureError(f"total degree {d} above the limit {_LIMIT}")
        if self.kind == "degrevlex":
            # d, then (2**32 - 1 - e_i) per field: (d + 1) * 2**(32n) - 1 - packed
            low = self.bits - _FIELD
            return ((d + 1) << low) - 1 - int.from_bytes(self._pack.pack(*exps), "big")
        return int.from_bytes(self._pack.pack(*exps), "little")

    def shift(self, a: Monomial) -> int:
        """``key(a*m) - key(m)``, the same for every monomial m."""
        return self._exps_key(a.exps) - self._exps_key((0,) * self.width)


@dataclass(frozen=True, slots=True)
class ModuleOrder:
    """POT or TOP extension of a base order to indexed monomials.

    The key puts the slot below the base key for TOP (``base << slot_bits |
    i``) and above it for POT (``i << base.bits | base``).  ``lift`` is how
    far the base key is shifted up: ``slot_bits`` for TOP, 0 for POT, so a
    shift of the base order becomes ``d << lift`` here.
    """

    base: "ScalarOrder | ModuleOrder"
    kind: str
    rank: int
    bits: int = field(init=False, repr=False, compare=False)
    lift: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("pot", "top"):
            raise StructureError(f"unknown module order kind {self.kind!r}")
        if self.rank < 1:
            raise StructureError("module rank must be positive")
        slot_bits = self.rank.bit_length()
        object.__setattr__(self, "bits", self.base.bits + slot_bits)
        object.__setattr__(self, "lift", slot_bits if self.kind == "top" else 0)

    def key(self, m: Monomial) -> int:
        if m.is_zero:
            return _KEY_ZERO
        if not m.indices:
            raise StructureError("module order applied to an index-free monomial")
        i = m.indices[-1]
        if not 1 <= i <= self.rank:
            raise StructureError(f"module position {i} outside 1..{self.rank}")
        if len(m.indices) == 1 and isinstance(self.base, ScalarOrder):
            inner = self.base._exps_key(m.exps)
        else:
            inner = self.base.key(Monomial(m.exps, m.indices[:-1]))
        if self.kind == "pot":
            return i << self.base.bits | inner
        return inner << self.lift | i

    def shift(self, a: Monomial) -> int:
        """``key(a*m) - key(m)``, the same for every monomial m."""
        return self.base.shift(a) << self.lift


@dataclass(frozen=True, slots=True)
class MonoidSpec:
    """The monoid of admissible multipliers inside the full monomial lattice.

    Three kinds are supported, and the fields hold exactly what defines each:

    * ``full`` -- every exponent vector;
    * ``degree_truncated`` -- the identity plus every monomial of total
      degree >= ``min_degree``, minus the finite set ``exclusions``;
    * ``generated`` -- all products of every monomial of one total degree
      d = ``generator_degree``, that is the monomials of total degree
      divisible by d.  ``generated(gens)`` refuses any other generator list:
      only for these is the common-multiple search known to be complete
      (``minimal_common_multiples``).  Since only d is stored, lists that
      differ in order or repetition give equal specs.

    A truncation at degree <= 1 without exclusions, and the monoid generated
    in degree 1, are the full monoid and are stored as ``full()``.
    """

    kind: str
    min_degree: int = 0
    exclusions: frozenset = frozenset()
    generator_degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "exclusions", frozenset(map(tuple, self.exclusions)))
        if self.kind not in ("full", "degree_truncated", "generated"):
            raise StructureError(f"unknown monoid kind {self.kind!r}")
        if self.kind != "degree_truncated" and (self.min_degree or self.exclusions):
            raise StructureError(f"a {self.kind} monoid takes no min_degree or exclusions")
        if (self.kind == "generated") != (self.generator_degree > 0):
            raise StructureError(
                "generator_degree must be positive for a generated monoid and 0 otherwise"
            )
        if self.kind == "degree_truncated":
            self._validate_truncated()
        # one spec for the full monoid, so that every shortcut on kind "full"
        # (the Koszul prediction, the oracle's criteria) sees it
        if self.generator_degree == 1 or (
            self.kind == "degree_truncated" and self.min_degree <= 1 and not self.exclusions
        ):
            object.__setattr__(self, "kind", "full")
            object.__setattr__(self, "min_degree", 0)
            object.__setattr__(self, "generator_degree", 0)

    @classmethod
    def full(cls) -> "MonoidSpec":
        return cls("full")

    @classmethod
    def degree_truncated(cls, min_degree, exclusions=()) -> "MonoidSpec":
        return cls("degree_truncated", min_degree, exclusions)

    @classmethod
    def generated(cls, generators) -> "MonoidSpec":
        gens = {tuple(g) for g in generators}
        if not gens:
            raise StructureError("generated monoid needs at least one generator")
        if any(sum(g) == 0 for g in gens):
            raise StructureError("the identity is implicit, not a generator")
        g0 = next(iter(gens))
        if gens != set(_vectors_of_degree(len(g0), sum(g0))):
            raise StructureError(
                "generated monoid needs every monomial of one total degree as generators"
            )
        return cls("generated", generator_degree=sum(g0))

    def _validate_truncated(self):
        d = self.min_degree
        if d < 0:
            raise StructureError("min_degree must be nonnegative")
        for e in self.exclusions:
            if sum(e) < d:
                raise StructureError(
                    f"exclusion {e} already lies below the degree threshold"
                )
        if not self.exclusions:
            return
        # Members must stay multiplicatively closed: a product of two
        # non-identity members can only land in the (finite) exclusion set,
        # so it suffices to scan member pairs up to the largest excluded degree.
        width = len(next(iter(self.exclusions)))
        top = max(sum(e) for e in self.exclusions)
        members = [
            v
            for k in range(d, top - d + 1)
            for v in _vectors_of_degree(width, k)
            if v not in self.exclusions
        ]
        for u in members:
            for v in members:
                s = tuple(x + y for x, y in zip(u, v))
                if s in self.exclusions:
                    raise StructureError(
                        f"exclusions are not closed: member product {s} is excluded"
                    )

    def member(self, exps: tuple[int, ...]) -> bool:
        if self.kind == "full":
            return True
        d = sum(exps)
        if self.kind == "generated":
            return d % self.generator_degree == 0
        return d == 0 or (d >= self.min_degree and exps not in self.exclusions)

    def elements_up_to(self, width: int, max_degree: int):
        """All members of total degree <= max_degree, ascending by degree."""
        out = []
        for k in range(max_degree + 1):
            for v in _vectors_of_degree(width, k):
                if self.member(v):
                    out.append(v)
        return out


def _vectors_of_degree(width: int, degree: int):
    """Exponent vectors of the given total degree, in a fixed deterministic order."""
    if width == 0:
        if degree == 0:
            yield ()
        return
    if width == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in _vectors_of_degree(width - 1, degree - head):
            yield (head,) + tail


def divide(m: Monomial, n: Monomial, spec: MonoidSpec):
    """Quotient ``a`` with ``a * m == n`` and ``a`` a monoid member, else None."""
    if m.is_zero:
        raise ContractError("cannot divide by the zero monomial")
    if n.is_zero:
        return None
    if m.indices != n.indices:
        return None
    if len(m.exps) != len(n.exps):
        raise StructureError("width mismatch in divide")
    q = quotient_exps(m.exps, n.exps, spec)
    return None if q is None else Monomial(q)


def quotient_exps(m_exps, n_exps, spec: MonoidSpec):
    """The exponents n - m when they are a monoid member, else None."""
    diff = tuple(map(sub, n_exps, m_exps))
    if min(diff, default=0) < 0:
        return None
    if spec.kind != "full" and not spec.member(diff):
        return None
    return diff


def divides_exponentwise(m: Monomial, n: Monomial) -> bool:
    """True when ``n - m`` is nonnegative with equal indices.

    This is the partial order used for minimality filters; the quotient is
    not required to be a monoid member.
    """
    if m.is_zero or n.is_zero:
        return m.is_zero and n.is_zero
    if m.indices != n.indices:
        return False
    return all(x <= y for x, y in zip(m.exps, n.exps))


def minimal_common_multiples(m: Monomial, n: Monomial, spec: MonoidSpec):
    """Pairs ``(a, b)`` with ``a*m == b*n``, minimal in the multiplier ``a``.

    Minimality is exponentwise.  In the full monoid (and for equal-index
    module monomials) this is the single lcm pair; differing indices give the
    empty tuple; restricted monoids are searched degree by degree.

    A generated monoid holds the monomials of total degree divisible by
    d = ``spec.generator_degree`` (``MonoidSpec.generated`` refuses other
    generator lists).  Its multipliers are the a >= a0 = lcm/m of degree
    divisible by d, if d divides m.degree - n.degree, and none otherwise.
    Such an a of degree >= deg a0 + d is not minimal: dividing it by a
    degree-d divisor of a/a0 leaves a smaller one.  So the search goes at
    most d - 1 degrees above a0.  Other generator
    lists have no such bound: for <xy^2, x^4 y, x^2>, y^3 and x^4 have the
    minimal multiplier x^16, and for <y^3, y^2 z, x z^2> (exponents in
    (x, y, z)) y^3 z^3 and x^3 y z^2 have only x^3 y^12 z^6.

    Without exclusions, whether a and its cofactor are members depends only
    on total degree.  So the first degree k* above a0 with a solution admits
    every a >= a0 of that degree; these are pairwise incomparable, every a
    of higher degree dominates one of them, and the search stops after that
    layer.  Minimality in M itself (ROADMAP item 1) would have to widen the
    stop to the layers k*, ..., k* + d - 1, d the truncation or generator
    degree: beyond them the quotient by a layer-k* solution is a member.
    """
    if m.is_zero or n.is_zero:
        raise ContractError("minimal common multiples need nonzero monomials")
    if m.indices != n.indices:
        return ()
    lcm = tuple(max(x, y) for x, y in zip(m.exps, n.exps))
    a0 = tuple(x - y for x, y in zip(lcm, m.exps))
    if spec.kind == "full":
        b0 = tuple(x - y for x, y in zip(lcm, n.exps))
        return ((Monomial(a0), Monomial(b0)),)
    if spec.kind == "degree_truncated":
        bound = _truncated_search_bound(m, n, a0, spec)
        return tuple(_collect_mcm(m, n, a0, spec, bound - sum(a0)))
    return tuple(_collect_mcm(m, n, a0, spec, spec.generator_degree - 1))


def _truncated_search_bound(m, n, a0, spec) -> int:
    # Beyond this total degree every solution factors through a smaller one,
    # so the exponentwise-minimal set is fully contained in the search box.
    d = spec.min_degree
    excl_top = max((sum(e) for e in spec.exclusions), default=0)
    non_member_top = max(d - 1, excl_top)
    e1 = non_member_top + max(0, n.degree - m.degree)
    step = max(d, excl_top + 1, 1)
    return max(e1, sum(a0)) + step


def _collect_mcm(m, n, a0, spec, extra_degree):
    found = []
    for k in range(extra_degree + 1):
        layer = []
        for t in _vectors_of_degree(len(a0), k):
            a = tuple(x + y for x, y in zip(a0, t))
            if not spec.member(a):
                continue
            cof = tuple(x + y - z for x, y, z in zip(a, m.exps, n.exps))
            if not spec.member(cof):
                continue
            if any(all(x <= y for x, y in zip(prev.exps, a)) for prev, _ in found):
                continue
            layer.append((Monomial(a), Monomial(cof)))
        found += layer
        if layer and not spec.exclusions:
            break
    return found

