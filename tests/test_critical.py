"""Critical signatures, per-source minimality, and the pending queue."""

import functools
import random

import pytest

from conftest import elem, mono, multiply
from sigbasis import critical, engine, sigcore
from sigbasis.algebra import Context, Element, PrimeField, RationalField
from sigbasis.critical import (
    CriticalQueue,
    critical_pair_signatures,
    critical_set,
    queue_update,
    sig_lm_ratio,
)
from sigbasis.engine import Strategy, run
from sigbasis.errors import CertificateError, ContractError
from sigbasis.monomials import (
    Monomial,
    ModuleOrder,
    MonoidSpec,
    ScalarOrder,
    divide,
    divides_exponentwise,
    minimal_common_multiples,
)
from sigbasis.sigcore import (
    SigPair,
    SigSet,
    make_prebasis_shifted,
    make_prebasis_sum,
    make_prebasis_unshifted,
)
from sigbasis.systems import builtin_problem
from sigbasis.textio import parse_element, render_element


@pytest.fixture(scope="module")
def mora_prebasis(mora_gens):
    return make_prebasis_shifted(mora_gens, "top")


class TestPairwiseSignatures:
    def test_g2_vs_g1(self, mora_prebasis, mora_ctx):
        g1, g2, _ = mora_prebasis.members
        out = critical_pair_signatures(
            g2, g1, mora_ctx.monoid, mora_prebasis.sig_order
        )
        assert out == ((mono(mora_ctx, 5, 2, slot=2),), ())

    def test_g3_vs_g2(self, mora_prebasis, mora_ctx):
        _, g2, g3 = mora_prebasis.members
        out = critical_pair_signatures(
            g3, g2, mora_ctx.monoid, mora_prebasis.sig_order
        )
        assert out == ((mono(mora_ctx, 5, 5, slot=3),), ())

    def test_orientation_antisymmetric(self, mora_prebasis, mora_ctx):
        # polynomial setting: at most one orientation contributes
        rng = random.Random(13)
        members = mora_prebasis.members
        for _ in range(100):
            f = multiply(
                mono(mora_ctx, rng.randrange(3), rng.randrange(3)),
                members[rng.randrange(3)],
            )
            g = multiply(
                mono(mora_ctx, rng.randrange(3), rng.randrange(3)),
                members[rng.randrange(3)],
            )
            on_f, on_g = critical_pair_signatures(
                f, g, mora_ctx.monoid, mora_prebasis.sig_order
            )
            assert not (on_f and on_g)
            assert critical_pair_signatures(
                g, f, mora_ctx.monoid, mora_prebasis.sig_order
            ) == (on_g, on_f)

    def test_zero_part_contributes_nothing(self, mora_prebasis, mora_ctx):
        zero = SigPair(
            Element.zero(mora_ctx), mono(mora_ctx, 1, 1, slot=1), 77
        )
        g2 = mora_prebasis.members[1]
        assert (
            critical_pair_signatures(
                zero, g2, mora_ctx.monoid, mora_prebasis.sig_order
            )
            == ((), ())
        )


class TestMonoidAlgebraPairs:
    def setup_method(self):
        # K[x^2, xy, y^2]-style ring: multipliers of total degree >= 2
        self.spec = MonoidSpec.degree_truncated(2)
        order = ScalarOrder("degrevlex", ("x", "y"))
        self.ctx = Context(("x", "y"), order, self.spec, RationalField())
        self.sig_order = ModuleOrder(order, "top", 2)

    def test_two_critical_signatures(self):
        # parts x^2 and x*y; signatures arranged so both candidate
        # orientations favor the first pair
        f = SigPair(elem(self.ctx, "x^2"), Monomial((2, 0)).with_slot(2), 1)
        g = SigPair(elem(self.ctx, "x*y"), Monomial((1, 1)).with_slot(1), 2)
        on_f, on_g = critical_pair_signatures(f, g, self.spec, self.sig_order)
        expected = {
            f.sig.mul(Monomial((1, 1))),  # xy * sig f
            f.sig.mul(Monomial((0, 2))),  # y^2 * sig f
        }
        assert set(on_f) == expected and on_g == ()

    def test_premise_of_the_arrangement(self):
        # confirm the signature inequalities assumed above actually hold
        f_sig = Monomial((2, 0)).with_slot(2)
        g_sig = Monomial((1, 1)).with_slot(1)
        key = self.sig_order.key
        assert key(f_sig.mul(Monomial((1, 1)))) > key(g_sig.mul(Monomial((2, 0))))
        assert key(f_sig.mul(Monomial((0, 2)))) > key(g_sig.mul(Monomial((1, 1))))


class TestCriticalSet:
    def test_mora_initial(self, mora_prebasis, mora_ctx):
        assert critical_set(mora_prebasis) == {
            mono(mora_ctx, 5, 2, slot=2),
            mono(mora_ctx, 2, 5, slot=3),
        }

    def test_minimality_drops_covered_signature(self, mora_prebasis, mora_ctx):
        # x^5y^5*e3 from the g3/g2 pairing disappears: x^5y^2*e3 divides it
        cs = critical_set(mora_prebasis)
        assert mono(mora_ctx, 5, 5, slot=3) not in cs
        assert mono(mora_ctx, 2, 5, slot=3) in cs

    def test_empty(self, mora_ctx, mora_prebasis):
        empty = SigSet(mora_ctx, mora_prebasis.sig_order, [])
        assert critical_set(empty) == set()

    def test_finite_with_cardinality_bound(self, mora_prebasis, mora_ctx):
        from sigbasis.monomials import minimal_common_multiples

        cs = critical_set(mora_prebasis)
        bound = 0
        members = mora_prebasis.members
        for f in members:
            for g in members:
                bound += len(
                    minimal_common_multiples(f.part.lm, g.part.lm, mora_ctx.monoid)
                )
        assert len(cs) <= bound


class TestQueue:
    def test_update_after_insertion_matches_trace(self, mora_gens, mora_ctx):
        # inserting g4 adds exactly the two new e2-indexed signatures
        G = make_prebasis_shifted(mora_gens, "top")
        Q = CriticalQueue(G.sig_order, mora_ctx.monoid)
        queue_update(Q, G)
        before = set(Q.snapshot())
        g4 = SigPair(
            elem(mora_ctx, "x^4*y - y^3"), mono(mora_ctx, 5, 2, slot=2), 4
        )
        G.add(g4)
        queue_update(Q, G)
        gained = set(Q.snapshot()) - before
        assert {
            mono(mora_ctx, 6, 2, slot=2),
            mono(mora_ctx, 5, 3, slot=2),
        } <= gained

    def test_zero_part_adds_nothing(self, mora_gens, mora_ctx):
        G = make_prebasis_shifted(mora_gens, "top")
        Q = CriticalQueue(G.sig_order, mora_ctx.monoid)
        queue_update(Q, G)
        before = Q.snapshot()
        zero = SigPair(Element.zero(mora_ctx), mono(mora_ctx, 3, 5, slot=2), 4)
        G.add(zero)
        queue_update(Q, G)
        assert Q.snapshot() == before

    def test_prune_proper_divisibility(self, mora_ctx, mora_gens):
        G = make_prebasis_shifted(mora_gens, "top")
        Q = CriticalQueue(G.sig_order, mora_ctx.monoid, pruned_mode=True)
        Q.add(mono(mora_ctx, 0, 2, slot=1))
        Q.add(mono(mora_ctx, 0, 3, slot=1))
        Q.prune()
        assert Q.snapshot() == [mono(mora_ctx, 0, 2, slot=1)]

    def test_pop_policies(self, mora_ctx, mora_gens):
        G = make_prebasis_shifted(mora_gens, "top")
        sig_a = mono(mora_ctx, 5, 2, slot=2)
        sig_b = mono(mora_ctx, 2, 5, slot=3)

        def fresh():
            Q = CriticalQueue(G.sig_order, mora_ctx.monoid)
            Q.add(sig_a)
            Q.add(sig_b)
            return Q

        assert fresh().pop_min() == sig_a
        assert fresh().pop_batch(1) == [sig_a]
        assert fresh().pop_batch(2) == [sig_a, sig_b]
        assert fresh().pop_batch(5) == [sig_a, sig_b]
        Q = fresh()
        Q.pop_min()
        Q.pop_min()
        with pytest.raises(ContractError):
            Q.pop_min()
        with pytest.raises(ContractError):
            Q.pop_batch(1)

    def test_min_pop_is_trace_minimum(self, mora_gens, mora_ctx):
        G = make_prebasis_shifted(mora_gens, "top")
        Q = CriticalQueue(G.sig_order, mora_ctx.monoid)
        queue_update(Q, G)
        assert Q.pop_min() == mono(mora_ctx, 5, 2, slot=2)


class TestInvariants:
    @pytest.mark.parametrize(
        "strategy",
        [
            Strategy.in_order(),
            Strategy.min_lm(),
            Strategy.f5(),
            Strategy.f5_pruned(),
            Strategy.f4(3),
            Strategy("f5", 3),
            Strategy("min_lm", 3),
        ],
    )
    def test_queue_invariant_every_head_on_mora(self, mora_gens, strategy):
        G = make_prebasis_shifted(mora_gens, "top")
        run(G, strategy, debug_invariant_stride=1)

    def test_queue_invariant_out_of_order_pops(self, mora_gens, monkeypatch):
        # one pending signature at a random position per iteration
        rng = random.Random(42)
        pops = []

        def pop_random(Q, k):
            pops.append(k)
            return [Q.pop_at(rng.randrange(len(Q)))]

        monkeypatch.setattr(CriticalQueue, "pop_batch", pop_random)
        G = make_prebasis_shifted(mora_gens, "top")
        res = run(G, Strategy.f5(), debug_invariant_stride=1)
        assert len(pops) == res.stats.iterations > 0


class TestOnePairSearch:
    """A run searches each unordered pair of its final members with nonzero
    parts once, and no pair with a zero-part member, which owns nothing:
    the queue, the debug invariant and the closing certificate share one
    owned record."""

    @pytest.mark.parametrize("stride", [0, 1])
    @pytest.mark.parametrize(
        "strategy", [Strategy.f5(), Strategy.f5_pruned(), Strategy.f4(3)],
        ids=["f5", "f5-pruned", "f4-3"],
    )
    def test_pair_calls_per_run(self, strategy, stride, monkeypatch):
        calls = []
        real = critical.critical_pair_signatures

        def counted(f, g, *args, **kwargs):
            calls.append((f, g))
            return real(f, g, *args, **kwargs)

        monkeypatch.setattr(critical, "critical_pair_signatures", counted)
        _, gens = builtin_problem("katsura4")
        res = run(make_prebasis_shifted(gens, "top"), strategy,
                  debug_invariant_stride=stride)
        k = sum(not g.part.is_zero for g in res.basis.members)
        assert k < len(res.basis.members)
        assert len(calls) == k * (k - 1) // 2
        assert not any(f.part.is_zero or g.part.is_zero for f, g in calls)
        assert len({frozenset((f.id, g.id)) for f, g in calls}) == len(calls)


class TestCertificateIndependence:
    """The queue and the owned record are filled separately: a queue that
    drops signatures leaves the record complete, and the certificate fails."""

    @pytest.mark.parametrize("owner, exps, slot", [(2, (5, 2), 2), (3, (2, 5), 3)])
    def test_dropped_owner_fails_certificate(
        self, mora_gens, mora_ctx, monkeypatch, owner, exps, slot
    ):
        real = CriticalQueue.add

        def dropping(Q, sigma, source=()):
            if source and source[0] == owner:
                return False
            return real(Q, sigma, source)

        monkeypatch.setattr(CriticalQueue, "add", dropping)
        with pytest.raises(CertificateError) as info:
            run(make_prebasis_shifted(mora_gens, "top"), Strategy.f5())
        expected = [mono(mora_ctx, *exps, slot=slot)]
        assert str(info.value).endswith(f"certificate at {expected!r}")


def _all_pairs_minimal(sigs, divides):
    """Reference filter: drop every member properly divided by another."""
    return {s for s in sigs if not any(t != s and divides(t, s) for t in sigs)}


def _restricted_set(system, monoid, sig_order, strategy, make=make_prebasis_shifted):
    ctx, gens = builtin_problem(system)
    ctx = Context(ctx.variables, ctx.order, monoid, PrimeField(32003))
    gens = [parse_element(render_element(g), ctx) for g in gens]
    return run(make(gens, sig_order), strategy).basis


def _sum_set(sig_order):
    # {g1} and {g2, g3} of mora are each Groebner bases
    _, gens = builtin_problem("mora")
    return run(make_prebasis_sum(gens[:1], gens[1:], sig_order), Strategy.f5()).basis


def _module_set(sig_order, part_kind="pot"):
    order = ModuleOrder(ScalarOrder("degrevlex", ("y", "x")), part_kind, 2)
    ctx = Context(("y", "x"), order, MonoidSpec.full(), PrimeField(32003))
    gens = [
        parse_element(text, ctx)
        for text in ("x*e_2 + y*e_1", "y*e_2 - x*e_1", "x^2*e_1 - y^3*e_2")
    ]
    return run(make_prebasis_shifted(gens, sig_order), Strategy.in_order()).basis


_QUADRATICS = [
    tuple(int(i == j) + int(i == k) for i in range(4)) for j in range(4) for k in range(j, 4)
]
_SCAN_CASES = {
    "full": lambda o: _restricted_set("katsura4", MonoidSpec.full(), o, Strategy.f5()),
    "degree_truncated": lambda o: _restricted_set(
        "katsura4", MonoidSpec.degree_truncated(2), o, Strategy.f5()
    ),
    # mora in degmin=2 without x^3 and x*y (variables y, x)
    "excluded": lambda o: _restricted_set(
        "mora", MonoidSpec.degree_truncated(2, [(0, 3), (1, 1)]), o, Strategy.f5()
    ),
    "generated": lambda o: _restricted_set(
        "katsura4", MonoidSpec.generated(_QUADRATICS), o, Strategy.min_lm()
    ),
    "module": _module_set,
}
# the scan cases and the other module part order and prebases
_GROWN_CASES = {
    **_SCAN_CASES,
    "module-top": lambda o: _module_set(o, "top"),
    "unshifted": lambda o: _restricted_set(
        "katsura4", MonoidSpec.full(), o, Strategy.f5(), make_prebasis_unshifted
    ),
    "sum": _sum_set,
}


@functools.cache
def _scan_set(case, sig_order):
    return _GROWN_CASES[case](sig_order)


class TestMinimalityScan:
    """`prune` and `critical_set` scan each candidate against the earlier
    ones only; they must keep exactly what the all-pairs filters keep."""

    @pytest.mark.parametrize("sig_order", ["top", "pot"])
    @pytest.mark.parametrize("case", sorted(_SCAN_CASES))
    def test_critical_set_matches_all_pairs(self, case, sig_order):
        G = _scan_set(case, sig_order)
        spec, order = G.monoid, G.sig_order
        expected = set()
        for f in G.members:
            # every ordered pair, f's side only: independent of the
            # unordered loop in critical_set
            cands = {
                s for g in G.members
                for s in critical_pair_signatures(f, g, spec, order)[0]
            }
            expected |= _all_pairs_minimal(cands, divides_exponentwise)
        assert critical_set(G) == expected and expected

    @pytest.mark.parametrize("sig_order", ["top", "pot"])
    @pytest.mark.parametrize("case", sorted(_SCAN_CASES))
    def test_prune_matches_all_pairs(self, case, sig_order):
        G = _scan_set(case, sig_order)
        spec, key = G.monoid, G.sig_order.key
        width = G.ctx.width
        rng = random.Random(1702)
        pruned_total = 0
        for _ in range(20):
            sigs = {
                rng.choice(G.members).sig.mul(
                    Monomial(tuple(rng.randrange(3) for _ in range(width)))
                )
                for _ in range(rng.randint(1, 30))
            }
            events = []
            Q = CriticalQueue(G.sig_order, spec, pruned_mode=True, trace=events.append)
            for s in sigs:
                Q.add(s)
            Q.prune()
            kept = _all_pairs_minimal(
                sigs, lambda t, s: divide(t, s, spec) is not None
            )
            assert Q.snapshot() == sorted(kept, key=key)
            assert len(Q) == len(kept) and all(s in Q for s in kept)
            pruned = [e["signature"] for e in events if e["event"] == "queue_prune"]
            assert pruned == sorted(sigs - kept, key=key)
            assert not any(s in Q for s in pruned)
            pruned_total += len(pruned)
        assert pruned_total > 0

    @pytest.mark.parametrize("sig_order", ["top", "pot"])
    @pytest.mark.parametrize("case", sorted(_SCAN_CASES))
    def test_incremental_prune_matches_all_pairs(self, case, sig_order):
        # rounds of adds, each followed by a prune and sometimes by pops: every
        # prune must leave what the all-pairs filter keeps of the whole queue
        G = _scan_set(case, sig_order)
        spec, key = G.monoid, G.sig_order.key
        width = G.ctx.width
        rng = random.Random(2610)
        events = []
        Q = CriticalQueue(G.sig_order, spec, pruned_mode=True, trace=events.append)
        pruned_total = 0
        for _ in range(30):
            for _ in range(rng.randint(0, 6)):
                Q.add(rng.choice(G.members).sig.mul(
                    Monomial(tuple(rng.randrange(3) for _ in range(width)))
                ))
            queued = set(Q.snapshot())
            del events[:]
            Q.prune()
            kept = _all_pairs_minimal(queued, lambda t, s: divide(t, s, spec) is not None)
            assert Q.snapshot() == sorted(kept, key=key)
            pruned = [e["signature"] for e in events if e["event"] == "queue_prune"]
            assert pruned == sorted(queued - kept, key=key)
            pruned_total += len(pruned)
            for _ in range(min(rng.randint(0, 2), len(Q))):
                Q.pop_min()
        assert pruned_total > 0


def _two_sided_pair_signatures(f, g, spec, sig_order):
    """Reference pair search: both sides of every minimal common multiple
    are built, and the strictly larger one is kept."""
    if f.part.is_zero or g.part.is_zero:
        return (), ()
    key = sig_order.key
    on_f, on_g = set(), set()
    for a, b in minimal_common_multiples(f.part.lm, g.part.lm, spec):
        sa = f.sig.mul(a)
        sb = g.sig.mul(b)
        ka, kb = key(sa), key(sb)
        if kb < ka:
            on_f.add(sa)
        elif ka < kb:
            on_g.add(sb)
    return tuple(sorted(on_f, key=key)), tuple(sorted(on_g, key=key))


class TestRatioOwnership:
    """`critical_pair_signatures` settles a pair's owner by one sig/lm
    ratio comparison; it must return what building and comparing both
    sides of every common multiple returns."""

    @pytest.mark.parametrize("sig_order", ["top", "pot"])
    @pytest.mark.parametrize("case", sorted(_GROWN_CASES))
    def test_matches_two_sided_search(self, case, sig_order):
        G = _scan_set(case, sig_order)
        spec, order = G.monoid, G.sig_order
        assert any(g.part.is_zero for g in G.members)
        owned = 0
        for f in G.members:
            for g in G.members:
                out = critical_pair_signatures(f, g, spec, order)
                assert out == _two_sided_pair_signatures(f, g, spec, order)
                owned += bool(out[0])
        assert owned

    def test_grown_bases_have_tie_pairs(self):
        # pairs with common multiples whose two sides are equal: the ratio
        # rule's early return is reached on a grown basis, not only below
        G = _scan_set("degree_truncated", "top")
        spec, order = G.monoid, G.sig_order
        parts = [g for g in G.members if not g.part.is_zero]
        ties = [
            (f, g) for i, f in enumerate(parts) for g in parts[:i]
            if sig_lm_ratio(f, order) == sig_lm_ratio(g, order)
        ]
        assert ties
        for f, g in ties:
            assert minimal_common_multiples(f.part.lm, g.part.lm, spec)
            assert _two_sided_pair_signatures(f, g, spec, order) == ((), ())

    def test_tie_pair_makes_no_search(self, mora_prebasis, mora_ctx, monkeypatch):
        searched = []
        real = critical.minimal_common_multiples

        def counted(m, n, spec):
            searched.append((m, n))
            return real(m, n, spec)

        monkeypatch.setattr(critical, "minimal_common_multiples", counted)
        spec, order = mora_ctx.monoid, mora_prebasis.sig_order
        g1, g2, _ = mora_prebasis.members
        # x*y^2 * g1 has g1's ratio: every common multiple ties
        tie = multiply(mono(mora_ctx, 1, 2), g1)
        assert critical_pair_signatures(tie, g1, spec, order) == ((), ())
        assert searched == []
        assert critical_pair_signatures(g2, g1, spec, order) == (
            (mono(mora_ctx, 5, 2, slot=2),), ()
        )
        assert searched == [(g2.part.lm, g1.part.lm)]


class TestOwnedRecord:
    """A run keeps one owned record on its ``SigSet`` and extends it as G
    grows; at every size ``critical_set`` must give what a fresh search of
    the same members gives."""

    @pytest.mark.parametrize(
        "system, monoid, sig_order",
        [("katsura4", MonoidSpec.full(), "top"), ("katsura4", MonoidSpec.full(), "pot"),
         ("mora", MonoidSpec.degree_truncated(2), "top"),
         ("mora", MonoidSpec.degree_truncated(2, [(0, 3), (1, 1)]), "pot")],
        ids=["full-top", "full-pot", "degmin2-top", "excluded-pot"],
    )
    def test_every_prefix_matches_critical_set(self, system, monoid, sig_order):
        G = _restricted_set(system, monoid, sig_order, Strategy.f5())
        grown = SigSet(G.ctx, G.sig_order)
        for n in range(len(G.members) + 1):
            if n:
                grown.add(G.members[n - 1])
            fresh = SigSet(G.ctx, G.sig_order, G.members[:n])
            assert critical_set(grown) == critical_set(fresh)
            assert len(grown.owned) == n


class TestStoredRatios:
    """`SigSet.add` stores each member's sig/lm ratio once; the pair search
    passes the stored ratios on and computes none of its own, and neither
    does the engine's Koszul test."""

    @pytest.mark.parametrize("sig_order", ["top", "pot"])
    @pytest.mark.parametrize("case", sorted(_GROWN_CASES))
    def test_stored_ratios_match_computed(self, case, sig_order):
        G = _scan_set(case, sig_order)
        spec, order = G.monoid, G.sig_order
        parts = [(g, r) for g, r in zip(G.members, G.ratios) if r is not None]
        owned = 0
        for f, rf in parts:
            for g, rg in parts:
                out = critical_pair_signatures(f, g, spec, order, rf, rg)
                assert out == critical_pair_signatures(f, g, spec, order)
                assert out == _two_sided_pair_signatures(f, g, spec, order)
                owned += bool(out[0])
        assert owned
        # the walker hands each pair its own stored ratios, in its order
        searched = critical._search_new_pairs(SigSet(G.ctx, order, G.members))
        assert len(searched) == len(parts) * (len(parts) - 1) // 2
        for g, h, on_g, on_h in searched:
            assert (on_g, on_h) == _two_sided_pair_signatures(g, h, spec, order)

    @pytest.mark.parametrize("sig_order", ["top", "pot"])
    @pytest.mark.parametrize("case", sorted(_GROWN_CASES))
    def test_ratios_aligned_with_members(self, case, sig_order):
        G = _scan_set(case, sig_order)
        grown = SigSet(G.ctx, G.sig_order)
        for g in G.members:
            grown.add(g)
            assert len(grown.ratios) == len(grown.members)
            assert grown.ratios[-1] == (
                None if g.part.is_zero else sig_lm_ratio(g, G.sig_order)
            )
        assert grown.ratios == G.ratios
        assert None in G.ratios

    @pytest.mark.parametrize(
        "strategy", [Strategy.f5(), Strategy.f5_pruned(), Strategy.f4(3)],
        ids=["f5", "f5-pruned", "f4-3"],
    )
    def test_run_computes_no_ratio_in_pair_search(self, strategy, monkeypatch):
        _, gens = builtin_problem("katsura4")
        prebasis = make_prebasis_shifted(gens, "top")
        calls = {"sigcore": 0, "critical": 0, "engine": 0}
        real = sigcore.sig_lm_ratio
        for name, module in (("sigcore", sigcore), ("critical", critical), ("engine", engine)):
            def counted(g, sig_order, name=name):
                calls[name] += 1
                return real(g, sig_order)

            # the engine's Koszul test reads the stored ratios too, and needs
            # no binding of its own
            monkeypatch.setattr(module, "sig_lm_ratio", counted, raising=False)
        res = run(prebasis, strategy)
        assert res.stats.koszul_zeros > 0
        k = sum(not g.part.is_zero for g in res.basis.members)
        # one ratio per nonzero member as it joins the run's SigSet
        assert calls == {"sigcore": k, "critical": 0, "engine": 0}


class TestPruneMasks:
    """`prune` passes a candidate divisor to `divide` only when its stored
    support mask lies inside sigma's; it must keep what `divide` alone keeps."""

    @staticmethod
    def pruned(sigs, sig_order, spec):
        events = []
        Q = CriticalQueue(sig_order, spec, pruned_mode=True, trace=events.append)
        for s in sigs:
            Q.add(s)
        Q.prune()
        kept = _all_pairs_minimal(set(sigs), lambda t, s: divide(t, s, spec) is not None)
        key = sig_order.key
        assert Q.snapshot() == sorted(kept, key=key)
        dropped = [e["signature"] for e in events if e["event"] == "queue_prune"]
        assert dropped == sorted(set(sigs) - kept, key=key)
        return Q.snapshot()

    def test_equal_masks_in_other_slots_kept(self, mora_prebasis, mora_ctx):
        spec, order = mora_ctx.monoid, mora_prebasis.sig_order
        low, high = mono(mora_ctx, 1, 1, slot=1), mono(mora_ctx, 2, 3, slot=2)
        assert divides_exponentwise(Monomial(low.exps), Monomial(high.exps))
        assert self.pruned([low, high], order, spec) == [low, high]
        # in one slot the same exponents prune
        same = mono(mora_ctx, 2, 3, slot=1)
        assert self.pruned([low, high, same], order, spec) == [low, high]

    def test_quotient_outside_the_monoid_kept(self):
        spec = MonoidSpec.degree_truncated(2)
        order = ScalarOrder("degrevlex", ("x", "y"))
        sig_order = ModuleOrder(order, "top", 1)
        t = Monomial((1, 0)).with_slot(1)
        sigma = Monomial((2, 0)).with_slot(1)  # sigma / t = x, not in M
        beyond = Monomial((3, 1)).with_slot(1)  # beyond / t = x^2*y, in M
        assert divides_exponentwise(t, sigma) and divide(t, sigma, spec) is None
        assert self.pruned([t, sigma, beyond], sig_order, spec) == [t, sigma]
