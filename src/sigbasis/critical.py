"""Critical signatures and the pending-signature queue.

A pairwise critical signature marks the smallest multiplier at which one
sigpair's part becomes top-reducible by a multiple of another with strictly
smaller shifted signature.  The queue holds pending signatures, optionally
pruned so that no member properly divides another.
"""

from __future__ import annotations

from bisect import insort

from .errors import ContractError
from .monomials import (
    Monomial,
    divide,
    divides_exponentwise,
    minimal_common_multiples,
)
from .sigcore import SigPair, SigSet

__all__ = [
    "critical_pair_signatures",
    "critical_set",
    "CriticalQueue",
    "queue_update",
]


def critical_pair_signatures(f: SigPair, g: SigPair, spec, sig_order):
    """Signatures where a multiple of f first becomes reducible by g.

    One candidate per minimal common multiple of the leading monomials; a
    candidate is kept only when the g-side shifted signature is strictly
    smaller (otherwise the reduction is not regular on this orientation).
    """
    if f.part.is_zero or g.part.is_zero:
        return ()
    key = sig_order.key
    out = []
    for a, b in minimal_common_multiples(f.part.lm, g.part.lm, spec):
        sa = f.sig.mul(a)
        sb = g.sig.mul(b)
        if key(sb) < key(sa):
            out.append(sa)
    return tuple(sorted(set(out), key=key))


def _undivided(ascending, divides):
    """The members of an ascending list that no earlier member divides.

    Every order here is compatible with multiplication, so a proper divisor
    sorts strictly below its multiple, and both relations used here are
    transitive: checking against the members already kept gives the same
    set as comparing all pairs.
    """
    kept = []
    for s in ascending:
        if not any(divides(t, s) for t in kept):
            kept.append(s)
    return kept


def critical_set(G: SigSet) -> set[Monomial]:
    """Union over members of their pairwise critical signatures, kept minimal
    (exponentwise) per source member."""
    spec = G.monoid
    order = G.sig_order
    out = set()
    for f in G.members:
        cands = {s for g in G.members for s in critical_pair_signatures(f, g, spec, order)}
        out.update(_undivided(sorted(cands, key=order.key), divides_exponentwise))
    return out


class CriticalQueue:
    """Finite, deduplicated set of pending signatures, sorted ascending.

    The members are kept as one ascending list of ``(key, sigma)``; keys are
    unique per signature, so the tuple comparison never reaches ``sigma``.
    In pruned mode, members properly divided by another member are removed
    after every update.  A source-pair map is kept for trace output only.
    """

    def __init__(self, sig_order, spec, pruned_mode=False, trace=None):
        self.sig_order = sig_order
        self.spec = spec
        self.pruned_mode = pruned_mode
        self.trace = trace
        self._entries = []
        self._sources = {}

    def __len__(self):
        return len(self._entries)

    def __contains__(self, sigma: Monomial):
        return sigma in self._sources

    def snapshot(self):
        return [sigma for _, sigma in self._entries]

    def _emit(self, event, sigma):
        if self.trace is not None:
            self.trace(
                {
                    "event": event,
                    "signature": sigma,
                    "source_pair_ids": list(self._sources.get(sigma, ())),
                }
            )

    def add(self, sigma: Monomial, source=()):
        if sigma in self._sources:
            return False
        insort(self._entries, (self.sig_order.key(sigma), sigma))
        self._sources[sigma] = tuple(source)
        self._emit("queue_add", sigma)
        return True

    def prune(self):
        """Remove members properly divided by a different member, in
        ascending order."""
        spec = self.spec
        entries = self._entries
        self._entries = _undivided(
            entries, lambda t, s: divide(t[1], s[1], spec) is not None
        )
        kept = {sigma for _, sigma in self._entries}
        for _, sigma in entries:
            if sigma not in kept:
                self._emit("queue_prune", sigma)
                del self._sources[sigma]

    def _pop(self, pos: int) -> Monomial:
        if not self._entries:
            raise ContractError("pop on an empty queue")
        _, sigma = self._entries.pop(pos)
        self._emit("pop", sigma)
        del self._sources[sigma]
        return sigma

    def pop_min(self) -> Monomial:
        return self._pop(0)

    def pop_batch(self, k: int):
        if not self._entries:
            raise ContractError("pop on an empty queue")
        out = []
        while self._entries and len(out) < k:
            out.append(self.pop_min())
        return out

    def pop_at(self, pos: int) -> Monomial:
        """Positional pop for the test-only randomized policy."""
        return self._pop(pos)


def queue_update(Q: CriticalQueue, g: SigPair, G: SigSet):
    """Add the pairwise critical signatures of g against every member, both
    orientations, then prune when the queue runs in pruned mode."""
    spec, order = G.monoid, G.sig_order
    for h in G.members:
        for sigma in critical_pair_signatures(g, h, spec, order):
            Q.add(sigma, (g.id, h.id))
        if h.id != g.id:
            for sigma in critical_pair_signatures(h, g, spec, order):
                Q.add(sigma, (h.id, g.id))
    if Q.pruned_mode:
        Q.prune()
    return Q
