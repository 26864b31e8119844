"""Critical signatures and the pending-signature queue.

A pairwise critical signature marks the smallest multiplier at which one
sigpair's part becomes top-reducible by a multiple of another with strictly
smaller shifted signature.  The queue holds pending signatures, optionally
pruned so that no member properly divides another.
"""

from __future__ import annotations

from bisect import bisect_left

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
    mcm = minimal_common_multiples(f.part.lm, g.part.lm, spec)
    if not mcm.complete:
        raise ContractError(
            "multiplier search for the critical pair could not be certified complete"
        )
    key = sig_order.key
    out = []
    for a, b in mcm.pairs:
        sa = f.sig.mul(a)
        sb = g.sig.mul(b)
        if key(sb) < key(sa):
            out.append(sa)
    return tuple(sorted(set(out), key=key))


def _minimal_signatures(cands):
    """Drop every candidate properly divided (exponentwise) by another."""
    unique = list(dict.fromkeys(cands))
    return [
        s
        for s in unique
        if not any(t != s and divides_exponentwise(t, s) for t in unique)
    ]


def critical_set(G: SigSet) -> set[Monomial]:
    """Union over members of their pairwise critical signatures, kept minimal
    per source member."""
    spec = G.monoid
    order = G.sig_order
    out = set()
    for f in G.members:
        cands = []
        for g in G.members:
            cands.extend(critical_pair_signatures(f, g, spec, order))
        out.update(_minimal_signatures(cands))
    return out


class CriticalQueue:
    """Finite, deduplicated set of pending signatures, sorted ascending.

    In pruned mode, members properly divided by another member are removed
    after every update.  A source-pair map is kept for trace output only.
    """

    def __init__(self, sig_order, spec, pruned_mode=False, trace=None):
        self.sig_order = sig_order
        self.spec = spec
        self.pruned_mode = pruned_mode
        self.trace = trace
        self._keys = []
        self._sigs = []
        self._sources = {}

    def __len__(self):
        return len(self._sigs)

    def __contains__(self, sigma: Monomial):
        return sigma in self._sources

    def snapshot(self):
        return list(self._sigs)

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
        key = self.sig_order.key(sigma)
        pos = bisect_left(self._keys, key)
        self._keys.insert(pos, key)
        self._sigs.insert(pos, sigma)
        self._sources[sigma] = tuple(source)
        self._emit("queue_add", sigma)
        return True

    def _remove_at(self, pos):
        sigma = self._sigs.pop(pos)
        self._keys.pop(pos)
        return sigma

    def discard(self, sigma: Monomial):
        if sigma not in self._sources:
            return
        pos = bisect_left(self._keys, self.sig_order.key(sigma))
        self._remove_at(pos)
        self._emit("queue_prune", sigma)
        del self._sources[sigma]

    def prune(self):
        """Remove members properly divided by a different member."""
        doomed = []
        for s in self._sigs:
            for t in self._sigs:
                if t is not s and t != s and divide(t, s, self.spec) is not None:
                    doomed.append(s)
                    break
        for s in doomed:
            self.discard(s)

    def pop_min(self) -> Monomial:
        if not self._sigs:
            raise ContractError("pop on an empty queue")
        sigma = self._remove_at(0)
        self._emit("pop", sigma)
        del self._sources[sigma]
        return sigma

    def pop_batch(self, k: int):
        if not self._sigs:
            raise ContractError("pop on an empty queue")
        out = []
        while self._sigs and len(out) < k:
            out.append(self.pop_min())
        return out

    def pop_at(self, pos: int) -> Monomial:
        """Positional pop for the test-only randomized policy."""
        if not self._sigs:
            raise ContractError("pop on an empty queue")
        sigma = self._sigs[pos]
        self._emit("pop", sigma)
        self._remove_at(pos)
        del self._sources[sigma]
        return sigma


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
