"""Critical signatures and the pending-signature queue.

A critical signature belongs to an unordered pair of sigpairs: for a minimal
common multiple a*lm(f) = b*lm(g), it is the larger of a*sig(f) and b*sig(g),
owned by that side's member.  Keys are additive, so one comparison of sig/lm
ratios (``sig_lm_ratio``, defined with the reducer lookup in ``sigcore``)
settles the side for every common multiple of a pair; the pair search reads
the ratios that ``SigSet.add`` stored, one per member.  Each pair of nonzero
parts of a ``SigSet`` is searched once, into its record ``G.owned``:
``queue_update`` feeds the queue from the new pairs, and ``critical_set``
reads the record.  The queue holds pending signatures, optionally pruned so
that no member properly divides another; a pruned queue keeps each
signature's support mask from ``add`` for that test.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .errors import ContractError
from .monomials import (
    Monomial,
    divide,
    divides_exponentwise,
    minimal_common_multiples,
)
from .sigcore import SigPair, SigSet, _support_mask, sig_lm_ratio

__all__ = [
    "critical_pair_signatures",
    "critical_set",
    "CriticalQueue",
    "queue_update",
]


def critical_pair_signatures(f: SigPair, g: SigPair, spec, sig_order, rf=None, rg=None):
    """The critical signatures of the pair {f, g}, as ``(on_f, on_g)``.

    For each minimal common multiple a*lm(f) = b*lm(g), a*sig(f) goes to
    ``on_f`` when b*sig(g) is strictly smaller, and b*sig(g) to ``on_g`` when
    a*sig(f) is; a tie gives nothing.  The larger sig/lm ratio decides the
    side for every multiple at once, so equal ratios return before any
    common multiple is searched, and only the owner's signatures are built.
    ``rf`` and ``rg`` are f's and g's ratios when the caller holds them
    (``SigSet.ratios``); each one left out is computed here.  Each side
    ascends by signature key; swapping f and g swaps the sides.
    """
    if f.part.is_zero or g.part.is_zero:
        return (), ()
    if rf is None:
        rf = sig_lm_ratio(f, sig_order)
    if rg is None:
        rg = sig_lm_ratio(g, sig_order)
    if rf == rg:
        return (), ()
    mcm = minimal_common_multiples(f.part.lm, g.part.lm, spec)
    side, owner = (0, f.sig) if rf > rg else (1, g.sig)
    sigs = [owner.mul(pair[side]) for pair in mcm]
    if len(sigs) > 1:
        sigs.sort(key=sig_order.key)
    return (tuple(sigs), ()) if rf > rg else ((), tuple(sigs))


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


def _search_new_pairs(G: SigSet):
    """Search each pair {g, h} of a member g that ``G.owned`` does not cover
    yet and an earlier member h, both with nonzero parts, once per
    ``SigSet`` (G is append-only), add each side to its owner's set, and
    return ``(g, h, on_g, on_h)`` in search order.  A zero-part member gets
    its empty set too, so ``owned`` stays aligned with ``members``."""
    spec, order, members, owned = G.monoid, G.sig_order, G.members, G.owned
    ratios = G.ratios
    earlier = [(h, rh, h_owned) for h, rh, h_owned in zip(members, ratios, owned)
               if rh is not None]
    pairs = []
    start = len(owned)
    for g, rg in zip(members[start:], ratios[start:]):
        g_owned = set()
        owned.append(g_owned)
        if rg is None:
            continue
        for h, rh, h_owned in earlier:
            on_g, on_h = critical_pair_signatures(g, h, spec, order, rg, rh)
            g_owned.update(on_g)
            h_owned.update(on_h)
            pairs.append((g, h, on_g, on_h))
        earlier.append((g, rg, g_owned))
    return pairs


def critical_set(G: SigSet) -> set[Monomial]:
    """Union over members of the critical signatures they own, kept minimal
    (exponentwise) per member.  Pairs that no search has covered yet are
    searched first, so the set depends on G's members alone."""
    _search_new_pairs(G)
    key = G.sig_order.key
    out = set()
    for cands in G.owned:
        out.update(_undivided(sorted(cands, key=key), divides_exponentwise))
    return out


class CriticalQueue:
    """Finite, deduplicated set of pending signatures, sorted ascending.

    The members are kept as one ascending list of ``(key, sigma, mask)``;
    keys are unique per signature, so the tuple comparison never reaches
    ``sigma``.  In pruned mode, ``mask`` is sigma's support mask, computed
    once at ``add`` (0 otherwise); members properly divided by another
    member are removed after every update, and the entries added since the
    last prune are recorded for it.  A source-pair map is kept for trace
    output only.
    """

    def __init__(self, sig_order, spec, pruned_mode=False, trace=None):
        self.sig_order = sig_order
        self.spec = spec
        self.pruned_mode = pruned_mode
        self.trace = trace
        self._entries = []
        self._sources = {}
        self._added = []

    def __len__(self):
        return len(self._entries)

    def __contains__(self, sigma: Monomial):
        return sigma in self._sources

    def snapshot(self):
        return [sigma for _, sigma, _ in self._entries]

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
        mask = _support_mask(sigma.exps) if self.pruned_mode else 0
        entry = (self.sig_order.key(sigma), sigma, mask)
        insort(self._entries, entry)
        if self.pruned_mode:
            self._added.append(entry)
        self._sources[sigma] = tuple(source)
        self._emit("queue_add", sigma)
        return True

    def prune(self):
        """Remove members properly divided by a different member, in
        ascending order (pruned mode).

        After a prune the queue is an antichain, and monoid division is
        transitive, so only the entries added since then can change it: an
        older member goes only if a newer one divides it, and a newer one
        goes if any member does.  This is the set that scanning the whole
        queue keeps.  A candidate divisor t reaches ``divide`` only when its
        stored support mask lies inside sigma's.
        """
        spec = self.spec
        sources = self._sources
        added = sorted({e for e in self._added if e[1] in sources})
        self._added = []
        if not added:
            return
        fresh = {sigma for _, sigma, _ in added}
        kept = []
        for entry in self._entries:
            k, sigma, mask = entry
            # a proper divisor sorts strictly below its multiple
            if sigma in fresh:
                divisors = kept
            else:
                divisors = added[: bisect_left(added, (k,))]
            if any(not t_mask & ~mask and divide(t, sigma, spec) is not None
                   for _, t, t_mask in divisors):
                self._emit("queue_prune", sigma)
                del sources[sigma]
            else:
                kept.append(entry)
        self._entries = kept

    def _pop(self, pos: int) -> Monomial:
        if not self._entries:
            raise ContractError("pop on an empty queue")
        _, sigma, _ = self._entries.pop(pos)
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
        """Pop the entry at ``pos`` of the ascending order; the engine pops
        with ``pop_batch``."""
        return self._pop(pos)


def queue_update(Q: CriticalQueue, G: SigSet):
    """Search the pairs of the members of G not searched yet and add their
    critical signatures, sourced (owner id, other id); prune when the queue
    runs pruned."""
    for g, h, on_g, on_h in _search_new_pairs(G):
        for sigma in on_g:
            Q.add(sigma, (g.id, h.id))
        for sigma in on_h:
            Q.add(sigma, (h.id, g.id))
    if Q.pruned_mode:
        Q.prune()
