"""Engine loops, sigtrees, the certificate, and exports."""

import itertools
import pathlib
import random
import time

import pytest

from conftest import elem, mono, multiply
from sigbasis.algebra import Element
from sigbasis.cli import parse_problem
from sigbasis.engine import (
    SigTree,
    Strategy,
    _koszul_multiple,
    export_dot,
    faugere_certificate,
    rewrite_basis_at,
    run,
    select_reductant_f5,
    select_reductant_sigtree,
    tree_signature_consistent,
    validate_sigtree,
)
from sigbasis.errors import ContractError, LimitExceeded
from sigbasis.monomials import Monomial, divide
from sigbasis.sigcore import (
    SigPair,
    SigSet,
    find_regular_reducer,
    make_prebasis_shifted,
    make_prebasis_unshifted,
    regular_normal_form_with_steps,
)
from sigbasis.systems import builtin_problem, katsura
from sigbasis.verify import buchberger, lm_ideal_equal
from test_sigcore import _naive_reducer

ALL_STRATEGIES = [
    Strategy.in_order(),
    Strategy.min_lm(),
    Strategy.f5(),
    Strategy.f5_pruned(),
    Strategy.f4(4),
]


@pytest.fixture(scope="module")
def mora_prebasis(mora_gens):
    return make_prebasis_shifted(mora_gens, "top")


@pytest.fixture(scope="module")
def mora_run(mora_gens):
    return run(make_prebasis_shifted(mora_gens, "top"), Strategy.in_order())


class TestRewriteBasisAt:
    def test_fails_at_first_critical_signature(self, mora_prebasis, mora_ctx):
        assert not rewrite_basis_at(mora_prebasis, mono(mora_ctx, 5, 2, slot=2))

    def test_holds_on_the_mirrored_slot(self, mora_prebasis, mora_ctx):
        # the reduction in the other orientation is blocked by the signature
        assert rewrite_basis_at(mora_prebasis, mono(mora_ctx, 5, 2, slot=1))

    def test_vacuous_at_unreachable_signature(self, mora_prebasis, mora_ctx):
        assert rewrite_basis_at(mora_prebasis, mono(mora_ctx, 0, 1, slot=1))


class TestSelection:
    def test_tree_descent_reaches_newest(self, mora_run, mora_ctx):
        members = [m for m in mora_run.basis.members if m.id <= 4]
        stage = SigSet(mora_run.basis.ctx, mora_run.basis.sig_order, members)
        tree = SigTree()
        for g in members[:3]:
            tree.add_node(g, parent=0, rank=0, edge=mora_ctx.identity_monomial())
        tree.add_node(members[3], parent=2, rank=1, edge=mono(mora_ctx, 0, 2))
        g, a = select_reductant_sigtree(mono(mora_ctx, 6, 2, slot=2), tree, stage)
        assert g.id == 4 and a == mono(mora_ctx, 1, 0)
        assert g.sig.mul(a) == mono(mora_ctx, 6, 2, slot=2)

    def test_tree_descent_initial(self, mora_prebasis, mora_ctx):
        tree = SigTree()
        for g in mora_prebasis.members:
            tree.add_node(g, parent=0, rank=0, edge=mora_ctx.identity_monomial())
        g, a = select_reductant_sigtree(mono(mora_ctx, 5, 2, slot=2), tree, mora_prebasis)
        assert g.id == 2 and a == mono(mora_ctx, 0, 2)

    def test_tree_descent_exact_root(self, mora_prebasis, mora_ctx):
        tree = SigTree()
        for g in mora_prebasis.members:
            tree.add_node(g, parent=0, rank=0, edge=mora_ctx.identity_monomial())
        g, a = select_reductant_sigtree(mono(mora_ctx, 2, 2, slot=1), tree, mora_prebasis)
        assert g.id == 1 and a.degree == 0

    def test_tree_descent_no_root_divides(self, mora_prebasis, mora_ctx):
        tree = SigTree()
        for g in mora_prebasis.members:
            tree.add_node(g, parent=0, rank=0, edge=mora_ctx.identity_monomial())
        with pytest.raises(ContractError):
            select_reductant_sigtree(mono(mora_ctx, 0, 1, slot=1), tree, mora_prebasis)

    def test_child_order_permutation(self, mora_gens, mora_ctx, monkeypatch):
        # Permuting the child iteration order is claimed not to matter.  On
        # this input the claim holds for every nonzero insertion, but NOT for
        # the zero markers: a reversed descent can land on a zero-part node
        # (skip) where the insertion-order descent finds a reducible element
        # (one more explicit zero reduction), and vice versa.  Both outputs
        # certify and agree on the ideal; the discrepancy is pinned here
        # rather than papered over.
        base = run(make_prebasis_shifted(mora_gens, "top"), Strategy.in_order())
        real = SigTree.add_node
        front_inserts = []

        def add_node_in_front(tree, label, parent, rank, edge):
            # newest child first: the descent scans the children reversed
            idx = real(tree, label, parent, rank, edge)
            children = tree.nodes[parent].children
            children.insert(0, children.pop())
            front_inserts.append(idx)
            return idx

        with monkeypatch.context() as patch:
            patch.setattr(SigTree, "add_node", add_node_in_front)
            permuted = run(make_prebasis_shifted(mora_gens, "top"), Strategy.in_order())
        assert len(front_inserts) == len(permuted.tree)

        def nonzero(res):
            return [
                (m.part.lm, m.sig) for m in res.basis.members if not m.part.is_zero
            ]

        def zero_sigs(res):
            return {m.sig for m in res.basis.members if m.part.is_zero}

        assert nonzero(base) == nonzero(permuted)
        assert faugere_certificate(permuted.basis).ok
        # the observed marker discrepancy on this input:
        assert zero_sigs(base) - zero_sigs(permuted) == {mono(mora_ctx, 6, 3, slot=2)}
        assert zero_sigs(permuted) - zero_sigs(base) == {mono(mora_ctx, 3, 6, slot=3)}

    def test_f5_picks_most_recent(self, mora_run, mora_ctx):
        members = [m for m in mora_run.basis.members if m.id <= 4]
        stage = SigSet(mora_run.basis.ctx, mora_run.basis.sig_order, members)
        g, a = select_reductant_f5(mono(mora_ctx, 6, 2, slot=2), stage)
        assert g.id == 4 and a == mono(mora_ctx, 1, 0)

    def test_f5_single_candidate(self, mora_prebasis, mora_ctx):
        g, a = select_reductant_f5(mono(mora_ctx, 5, 2, slot=2), mora_prebasis)
        assert g.id == 2 and a == mono(mora_ctx, 0, 2)

    def test_f5_zero_part_short_circuit(self, mora_ctx, mora_prebasis):
        sig_order = mora_prebasis.sig_order
        members = [
            SigPair(elem(mora_ctx, "x^2*y^2 - 1"), mono(mora_ctx, 2, 2, slot=1), 1),
            SigPair(elem(mora_ctx, "y^5"), mono(mora_ctx, 2, 2, slot=1).mul(mono(mora_ctx, 1, 0)), 2),
            SigPair(Element.zero(mora_ctx), mono(mora_ctx, 3, 2, slot=1), 3),
            SigPair(elem(mora_ctx, "x^4"), mono(mora_ctx, 3, 3, slot=1), 4),
        ]
        S = SigSet(mora_ctx, sig_order, members)
        g, _ = select_reductant_f5(mono(mora_ctx, 4, 3, slot=1), S)
        assert g.id == 3 and g.part.is_zero


def newest_first_f5(sigma, G):
    """The f5 rule as a newest-first scan that keeps the last zero-part
    realizer it meets, that is the oldest one."""
    best = None
    for g, a, _ in G.realizations(sigma):
        if best is None or g.part.is_zero:
            best = (g, a)
    return best


PERFBENCH_INPUTS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


class TestF5ScanOrder:
    """``select_reductant_f5`` scans oldest first and stops at a zero-part
    realizer; it must pick what the newest-first scan picks."""

    @pytest.mark.parametrize(
        "problem",
        ["katsura4", "katsura4-degmin2-gf", "katsura4-gen2-gf", "mora-degmin2-gf"],
    )
    def test_matches_newest_first_rule(self, problem, monkeypatch):
        from sigbasis import engine

        if problem == "katsura4":
            _, gens = builtin_problem(problem)
            prebasis = make_prebasis_shifted(gens, "top")
        else:
            spec = parse_problem((PERFBENCH_INPUTS / f"{problem}.sys").read_text())
            ctx = spec.build_context()
            prebasis = make_prebasis_shifted(spec.build_generators(ctx), spec.sig_order)
        real = engine.select_reductant_f5
        picks = []

        def compared(sigma, G):
            got = real(sigma, G)
            want = newest_first_f5(sigma, G)
            assert (got[0].id, got[1]) == (want[0].id, want[1])
            picks.append(got[0].part.is_zero)
            return got

        monkeypatch.setattr(engine, "select_reductant_f5", compared)
        assert run(prebasis, Strategy.f5()).basis.certified
        # both branches of the rule are taken
        assert any(picks) and not all(picks)


class TestRun:
    def test_empty_prebasis(self):
        res = run(make_prebasis_shifted([], "top"), Strategy.in_order())
        assert len(res.basis) == 0 and res.stats.iterations == 0

    def test_mora_trace_first_three_insertions(self, mora_run, mora_ctx):
        inserted = [m for m in mora_run.basis.members if m.id > 3][:3]
        got = [(m.part.lm, m.sig) for m in inserted]
        assert got == [
            (mono(mora_ctx, 1, 4), mono(mora_ctx, 5, 2, slot=2)),  # x^4*y
            (mono(mora_ctx, 4, 1), mono(mora_ctx, 2, 5, slot=3)),  # x*y^4
            (mono(mora_ctx, 4, 0), mono(mora_ctx, 6, 2, slot=2)),  # y^4
        ]
        parts = [m.part for m in inserted]
        assert parts[0] == elem(mora_ctx, "x^4*y - y^3")
        assert parts[1] == elem(mora_ctx, "x*y^4 - x^3")
        assert parts[2] == elem(mora_ctx, "y^4 - x^2")

    def test_signatures_preserved_and_parts_monic(self, mora_run):
        one = mora_run.basis.ctx.field.one
        for m in mora_run.basis.members:
            assert m.part.is_zero or m.part.lc == one

    def test_inserted_members_irreducible_at_insert(self, mora_gens):
        # replay each insertion against the state that existed then
        res = run(make_prebasis_shifted(mora_gens, "top"), Strategy.f5())
        B = res.basis
        for m in B.members:
            if m.id <= 3 or m.part.is_zero:
                continue
            state = SigSet(B.ctx, B.sig_order, [g for g in B.members if g.id < m.id])
            assert find_regular_reducer(m.part.lm, m.sig, state) is None

    def test_zero_insertions_classified_syzygy(self, mora_run):
        from sigbasis.sigcore import classify_signature

        for m in mora_run.basis.members:
            if m.part.is_zero:
                assert classify_signature(m.sig, mora_run.basis) == "syzygy"

    def test_katsura6_f5_agrees_with_oracle(self):
        ctx, gens = katsura(6)
        res = run(make_prebasis_shifted(gens, "top"), Strategy.f5())
        gb = buchberger(gens, ctx.monoid)
        lms = {m.part.lm for m in res.basis.members if not m.part.is_zero}
        assert lm_ideal_equal(lms, gb.lm_set(), ctx.monoid)

    def test_insertion_cap(self, mora_gens):
        with pytest.raises(LimitExceeded) as info:
            run(make_prebasis_shifted(mora_gens, "top"), Strategy.in_order(), max_insertions=2)
        assert info.value.partial is not None
        assert len(info.value.partial.basis) >= 2

    def test_adhoc_input_rejected(self, mora_prebasis, mora_ctx):
        S = SigSet(mora_ctx, mora_prebasis.sig_order, mora_prebasis.members)
        with pytest.raises(ContractError):
            run(S, Strategy.in_order())

    @pytest.mark.parametrize("select", ["sigtree", "f5", "min_lm"])
    def test_every_selector_batches(self, select):
        assert Strategy(select, 3).batch_size == 3

    def test_presets_are_points_of_the_three_choices(self):
        assert Strategy.in_order() == Strategy.f4(1)
        assert Strategy.f5_pruned() == Strategy("f5", 1, True)

    @pytest.mark.parametrize(
        "select, batch_size",
        [("sigtree", 0), ("f6", 1), ("f4", 1), ("sigtree", 2.5), ("sigtree", True),
         ("sigtree", "2")],
    )
    def test_malformed_strategy_rejected(self, select, batch_size):
        with pytest.raises(ContractError):
            Strategy(select, batch_size)

    @pytest.mark.parametrize(
        "select, batch_size, prune",
        [("f5", 1, 1), ("f5", 1, None),
         # pruning with these fails the certificate on random systems of
         # test_differential.py: seed 13 (TOP, unshifted) for sigtree and
         # min_lm, seed 0 (POT) for batches of 3
         ("sigtree", 1, True), ("min_lm", 1, True), ("f5", 3, True), ("min_lm", 3, True)],
    )
    def test_malformed_prune_rejected(self, select, batch_size, prune):
        with pytest.raises(ContractError):
            Strategy(select, batch_size, prune)

    def test_monoid_algebra_run_matches_oracle(self):
        # K[x^2, xy, y^2]: generators x^2 - xy and y^2 - xy
        from sigbasis.algebra import Context, RationalField
        from sigbasis.monomials import MonoidSpec, ScalarOrder

        spec = MonoidSpec.degree_truncated(2)
        ctx = Context(
            ("x", "y"), ScalarOrder("degrevlex", ("x", "y")), spec, RationalField()
        )
        gens = [elem(ctx, "x^2 - x*y"), elem(ctx, "y^2 - x*y")]
        res = run(make_prebasis_shifted(gens, "top"), Strategy.in_order())
        gb = buchberger(gens, spec)
        lms = {m.part.lm for m in res.basis.members if not m.part.is_zero}
        assert lm_ideal_equal(lms, gb.lm_set(), spec)


class TestLimits:
    def test_negative_insertion_cap_rejected(self, mora_prebasis):
        with pytest.raises(ContractError, match="max_insertions"):
            run(mora_prebasis, Strategy.f5(), max_insertions=-5)

    def test_zero_caps_accepted(self, mora_prebasis):
        with pytest.raises(LimitExceeded, match="insertion cap"):
            run(mora_prebasis, Strategy.f5(), max_insertions=0)

    def test_expired_deadline_stops_before_any_pair_search(self, mora_prebasis, monkeypatch):
        from sigbasis import engine

        searched = []
        monkeypatch.setattr(engine, "queue_update", lambda *args: searched.append(args))
        with pytest.raises(LimitExceeded, match="time cap") as info:
            run(mora_prebasis, Strategy.f5(), max_insertions=0, deadline=0.0)
        assert searched == []
        partial = info.value.partial
        assert partial is not None and not partial.basis.certified
        assert [m.id for m in partial.basis.members] == [1]
        assert partial.stats.insertions == 0

    def test_deadline_stops_inside_a_reduction(self, monkeypatch):
        # the clock reads past the deadline from a reduction's k-th reducer
        # lookup on, so the check before the next lookup stops the run
        from sigbasis import errors, sigcore

        _, gens = builtin_problem("katsura4")
        full = run(make_prebasis_shifted(gens, "top"), Strategy.f5())
        lookups = []
        real = sigcore.find_regular_reducer

        def counted(*args):
            lookups.append(args[0])
            return real(*args)

        k = 20
        monkeypatch.setattr(sigcore, "find_regular_reducer", counted)
        monkeypatch.setattr(errors, "monotonic",
                            lambda: float("inf") if len(lookups) >= k else 0.0)
        with pytest.raises(LimitExceeded, match="time cap exceeded in a reduction") as info:
            run(make_prebasis_shifted(gens, "top"), Strategy.f5(),
                deadline=time.monotonic() + 60)
        assert len(lookups) == k
        partial = info.value.partial
        assert partial is not None and not partial.basis.certified
        assert 0 < partial.stats.insertions < full.stats.insertions
        assert 0 < partial.stats.reduction_steps < full.stats.reduction_steps

    def test_no_deadline_means_no_time_cap(self, mora_prebasis, monkeypatch):
        # a clock that jumps a day per reading: any default cap would expire
        from sigbasis import errors

        clock = itertools.count(0, 86_400)
        monkeypatch.setattr(errors, "monotonic", lambda: next(clock))
        assert run(mora_prebasis, Strategy.f5()).basis.certified


K4_TEXT = (
    "a + 2*b + 2*c + 2*d - 1\n"
    "b^2 + 2*a*c + 2*b*d - c\n"
    "a*b + b*c + c*d - 1/2*b\n"
    "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a\n"
)


class TestKoszulPrediction:
    @pytest.mark.parametrize("strategy", [Strategy.in_order, Strategy.f5], ids=["in-order", "f5"])
    @pytest.mark.parametrize("system", ["mora", "katsura4", "katsura5"])
    def test_predicted_markers_reduce_to_zero(self, system, strategy):
        # replay the reduction skipped at each predicted marker against the
        # members that existed then: the regular normal form must be zero
        ctx, gens = builtin_problem(system)
        predicted_total = 0
        for sig_order in ("top", "pot"):
            for make in (make_prebasis_shifted, make_prebasis_unshifted):
                rows = []
                res = run(make(gens, sig_order), strategy(), trace=rows.append)
                B, nodes = res.basis, res.tree.nodes
                by_id = {m.id: m for m in B.members}
                predicted = [
                    r["node"] for r in rows if r["event"] == "insert" and r["steps"] == 0
                ]
                assert len(predicted) == res.stats.koszul_zeros
                for idx in predicted:
                    assert by_id[idx].part.is_zero
                    node = nodes[idx]
                    reductant = multiply(node.edge, nodes[node.parent].label)
                    earlier = SigSet(B.ctx, B.sig_order, [m for m in B.members if m.id < idx])
                    nf, steps = regular_normal_form_with_steps(
                        SigPair(reductant.part, by_id[idx].sig, idx), earlier
                    )
                    assert nf.part.is_zero and steps > 0
                predicted_total += len(predicted)
        assert predicted_total > 0

    # (iterations, insertions, zero reductions, reduction steps, peak queue),
    # the same as without the prediction: it needs the full monoid and
    # index-free parts
    @pytest.mark.parametrize(
        "text, strategy, counters",
        [
            (
                "vars: d c b a\nfield: GF 32003\nsetting: monoid degmin=2\ngens:\n"
                + K4_TEXT,
                Strategy.f5(),
                (334, 150, 124, 2823, 265),
            ),
            (
                "vars: d c b a\nfield: GF 32003\nsetting: monoid "
                "generated=d^2,c*d,b*d,a*d,c^2,b*c,a*c,b^2,a*b,a^2\ngens:\n" + K4_TEXT,
                Strategy.min_lm(),
                (58, 25, 15, 552, 31),
            ),
            (
                "vars: x y\nsetting: module rank=2 order=pot\ngens:\n"
                "x^2*e_1 - y*e_2\nx*y*e_1 + y^2*e_2\ny^3*e_1 - x*e_2 + e_1\n",
                Strategy.f5(),
                (6, 4, 1, 6, 3),
            ),
        ],
        ids=["degree-truncated", "generated", "rank-2-module"],
    )
    def test_off_outside_full_monoid_rings(self, text, strategy, counters):
        spec = parse_problem(text)
        ctx = spec.build_context()
        s = run(make_prebasis_shifted(spec.build_generators(ctx), "top"), strategy).stats
        got = (s.iterations, s.insertions, s.zero_reductions, s.reduction_steps, s.peak_queue)
        assert s.koszul_zeros == 0 and got == counters

    def test_on_for_every_declaration_of_the_full_monoid(self):
        # degmin=0, degmin=1 and the monoid generated in degree 1 are the
        # full monoid: the same spec, so the same prediction and counters
        runs = {}
        for setting in ("ring", "monoid degmin=0", "monoid degmin=1",
                        "monoid generated=x,y,z"):
            spec = parse_problem(
                f"vars: z y x\nfield: GF 32003\nsetting: {setting}\ngens:\n"
                "x^2*y^2 - z\ny^5 - x^2*y*z\nx^5 - x*y^2\nx*y*z - 1\n"
            )
            ctx = spec.build_context()
            res = run(make_prebasis_shifted(spec.build_generators(ctx), "top"), Strategy.f5())
            runs[setting] = (ctx.monoid, res.stats)
        assert len({monoid for monoid, _ in runs.values()}) == 1
        assert len({str(stats) for _, stats in runs.values()}) == 1
        assert runs["ring"][1].koszul_zeros > 0


def _koszul_two_loops(sigma, G):
    """The Koszul test as two loops over G, as it read before the lookup
    memo: every nonzero realization g, then every nonzero member h whose
    leading monomial divides the multiplier, comparing lm(h)*sig(g) with
    lm(g)*sig(h) as built monomials."""
    skey, spec = G.sig_order.key, G.monoid
    for g, a, _ in G.realizations(sigma):
        if g.part.is_zero:
            continue
        for h in G.members:
            if h.part.is_zero or divide(h.part.lm, a, spec) is None:
                continue
            if skey(g.sig.mul(h.part.lm)) > skey(h.sig.mul(g.part.lm)):
                return True
    return False


class TestKoszulSharedMemo:
    """``_koszul_multiple`` asks ``SigSet.lowest_divisor`` about the
    multiplier a = sigma / sig(g), the memo that ``find_regular_reducer``
    fills for part monomials.  Output bases are grown member by member; at
    each size every signature a*sig(g) asked so far is asked again, and each
    answer is checked against the two-loop scan, with reducer lookups at the
    multiplier and at a*lm(g) in between, so both kinds of target read and
    advance one memo."""

    @pytest.mark.parametrize("sig_order", ["top", "pot"])
    @pytest.mark.parametrize("make", [make_prebasis_shifted, make_prebasis_unshifted],
                             ids=["shifted", "unshifted"])
    @pytest.mark.parametrize("system, degree", [("mora", 3), ("katsura4", 2), ("katsura5", 1)])
    def test_matches_two_loops_as_the_basis_grows(self, system, degree, make, sig_order):
        ctx, gens = builtin_problem(system)
        B = run(make(gens, sig_order), Strategy.f5()).basis
        G = SigSet(ctx, B.sig_order, origin=B.origin)
        width = len(ctx.variables)
        multipliers = [Monomial(e) for e in itertools.product(range(degree + 1), repeat=width)
                       if sum(e) <= degree]
        asked, answers = [], set()
        for g in B.members:
            G.add(g)
            asked += [g.sig.mul(a) for a in multipliers]
            for sigma in asked:
                got = _koszul_multiple(sigma, G)
                assert got == _koszul_two_loops(sigma, G), (len(G), sigma)
                answers.add(got)
                for h, a, _ in itertools.islice(G.realizations(sigma), 1):
                    targets = [a] if h.part.is_zero else [a, h.part.lm.mul(a)]
                    for t in targets:
                        assert find_regular_reducer(t, sigma, G) is _naive_reducer(t, sigma, G)
        assert answers == {False, True}


class TestFullReduction:
    """The engine's normal form reduces every term, not only the leading one."""

    @pytest.mark.parametrize("sig_order", ["top", "pot"])
    @pytest.mark.parametrize(
        "strategy",
        [Strategy.in_order(), Strategy.min_lm(), Strategy.f5(), Strategy.f5_pruned()],
        ids=["in-order", "min-lm", "f5", "f5-pruned"],
    )
    @pytest.mark.parametrize("problem", ["mora", "katsura4"])
    def test_no_term_of_an_inserted_member_is_reducible(self, problem, strategy, sig_order):
        # one signature per iteration, ascending, so a member inserted later
        # has a larger signature and is never admissible for an earlier one:
        # the final basis holds the same candidates as the state at insertion
        _, gens = builtin_problem(problem)
        G = run(make_prebasis_shifted(gens, sig_order), strategy).basis
        tails = 0
        for g in G.members[len(gens):]:
            for _, t, _ in g.part.terms:
                assert find_regular_reducer(t, g.sig, G) is None
            tails += len(g.part.terms) > 1
        assert tails

    # POT is left out: a batch can queue a signature below one it has
    # already reduced, so a few terms stay reducible by later members
    @pytest.mark.parametrize("batch_size", [2, 3, 4])
    @pytest.mark.parametrize("n", [4, 5])
    def test_batch_rows_reduce_by_earlier_rows(self, n, batch_size):
        # each row joins the basis as it is reduced, so a later row of the
        # batch reduces by any multiple b*g of an earlier one with b*sig(g)
        # below its own signature, shifted or not
        _, gens = katsura(n)
        G = run(make_prebasis_shifted(gens, "top"), Strategy.f4(batch_size)).basis
        reducible = [
            (g.id, t)
            for g in G.members[len(gens):]
            for _, t, _ in g.part.terms
            if find_regular_reducer(t, g.sig, G) is not None
        ]
        assert reducible == []


class TestCertificate:
    def test_fails_on_input_prebasis(self, mora_prebasis, mora_ctx):
        report = faugere_certificate(mora_prebasis)
        assert not report.ok
        assert mono(mora_ctx, 5, 2, slot=2) in report.failures
        assert mono(mora_ctx, 2, 5, slot=3) in report.failures

    def test_passes_on_every_completed_run(self, mora_gens):
        for st in ALL_STRATEGIES:
            res = run(make_prebasis_shifted(mora_gens, "top"), st)
            assert faugere_certificate(res.basis).ok

    def test_vacuous_on_empty(self):
        assert faugere_certificate(make_prebasis_shifted([], "top")).ok

    def test_expired_deadline_raises(self, mora_run):
        with pytest.raises(LimitExceeded):
            faugere_certificate(mora_run.basis, deadline=0.0)

    def test_run_caps_its_certificate(self, monkeypatch, mora_prebasis):
        # the loop finishes inside the cap; the clock reads past it once the
        # certificate starts
        from sigbasis import engine, errors

        real = engine.faugere_certificate

        def late_certificate(G, *, deadline=None):
            monkeypatch.setattr(errors, "monotonic", lambda: float("inf"))
            return real(G, deadline=deadline)

        monkeypatch.setattr(engine, "faugere_certificate", late_certificate)
        with pytest.raises(LimitExceeded, match="^time cap exceeded in the certificate$") as info:
            run(mora_prebasis, Strategy.f5(), deadline=time.monotonic() + 60)
        partial = info.value.partial
        assert partial is not None and not partial.basis.certified
        assert partial.stats.insertions > 0


class TestSigTreeValidation:
    def test_completed_runs_valid(self, mora_gens):
        for st in ALL_STRATEGIES:
            res = run(make_prebasis_shifted(mora_gens, "top"), st)
            assert validate_sigtree(res.tree, res.basis) == []
            assert tree_signature_consistent(res.tree)

    def test_t1_violation_detected(self, mora_ctx, mora_prebasis):
        g1 = mora_prebasis.members[0]
        tree = SigTree()
        tree.add_node(g1, parent=0, rank=0, edge=mora_ctx.identity_monomial())
        # child whose lm equals the shifted parent lm: no strict drop
        bad_child = SigPair(
            elem(mora_ctx, "x^2*y^3"), mono(mora_ctx, 3, 2, slot=1), 2
        )
        S = SigSet(mora_ctx, mora_prebasis.sig_order, [g1, bad_child])
        tree.add_node(bad_child, parent=1, rank=1, edge=mono(mora_ctx, 1, 0))
        assert any("T1" in v for v in validate_sigtree(tree, S))

    def test_t3_violation_detected(self, mora_ctx, mora_prebasis):
        g1 = mora_prebasis.members[0]
        tree = SigTree()
        tree.add_node(g1, parent=0, rank=0, edge=mora_ctx.identity_monomial())
        c1 = SigPair(elem(mora_ctx, "y"), mono(mora_ctx, 2, 3, slot=1), 2)
        c2 = SigPair(elem(mora_ctx, "x"), mono(mora_ctx, 2, 4, slot=1), 3)
        S = SigSet(mora_ctx, mora_prebasis.sig_order, [g1, c1, c2])
        tree.add_node(c1, parent=1, rank=1, edge=mono(mora_ctx, 0, 1))
        tree.add_node(c2, parent=1, rank=2, edge=mono(mora_ctx, 0, 2))
        assert any("T3" in v for v in validate_sigtree(tree, S))

    # one child under the root g1 = x^2 y^2 - 1 (signature x^2 y^2 e_1), each
    # breaking exactly one check; exponents are (y, x)
    @pytest.mark.parametrize(
        "root_rank, child_rank, part, sig, edge, expected",
        [
            (0, 1, "y", (3, 3), (1, 0), "T1: edge signature relation broken at node 2"),
            (0, 1, "x^3*y^2", (4, 2), (2, 0), "T2: node 2 reducible by an ancestor"),
            (1, 2, "y", (3, 2), (1, 0), "T4: root 1 has nonzero rank"),
            (0, 0, "y", (3, 2), (1, 0), "T4: rank does not increase from 1 to 2"),
        ],
        ids=["t1-edge-signature", "t2", "t4-root-rank", "t4-rank-order"],
    )
    def test_single_violation_detected(
        self, mora_ctx, mora_prebasis, root_rank, child_rank, part, sig, edge, expected
    ):
        g1 = mora_prebasis.members[0]
        child = SigPair(elem(mora_ctx, part), mono(mora_ctx, *sig, slot=1), 2)
        tree = SigTree()
        tree.add_node(g1, parent=0, rank=root_rank, edge=mora_ctx.identity_monomial())
        tree.add_node(child, parent=1, rank=child_rank, edge=mono(mora_ctx, *edge))
        S = SigSet(mora_ctx, mora_prebasis.sig_order, [g1, child])
        assert validate_sigtree(tree, S) == [expected]
        # the path product disagrees with the node signature only on the T1 tree
        assert tree_signature_consistent(tree) == (not expected.startswith("T1"))

    def test_expired_deadline_raises(self, mora_run):
        with pytest.raises(LimitExceeded):
            validate_sigtree(mora_run.tree, mora_run.basis, deadline=0.0)

    @staticmethod
    def _t2_by_ancestor_sigset(tree, G):
        """Nodes flagged by asking the engine's reducer lookup: a renumbered
        SigSet of each node's ancestors, passed to find_regular_reducer."""
        flagged = set()
        for idx in range(1, len(tree.nodes)):
            label = tree.nodes[idx].label
            ancestors = [tree.nodes[a].label for a in tree.ancestors(idx)]
            if label.part.is_zero or not ancestors:
                continue
            anc = SigSet(G.ctx, G.sig_order, [], origin=G.origin)
            for i, sp in enumerate(reversed(ancestors), start=1):
                anc.add(SigPair(sp.part, sp.sig, i))
            if find_regular_reducer(label.part.lm, label.sig, anc) is not None:
                flagged.add(idx)
        return flagged

    @pytest.mark.parametrize("sig_order", ["top", "pot"])
    @pytest.mark.parametrize("system", ["mora", "katsura4"])
    def test_t2_matches_ancestor_sigset_route(self, system, sig_order):
        # the members of a completed run, re-parented: flat, one chain, and
        # random multi-level paths; under each member hangs x*member for every
        # variable x, whose shifted signature through that member equals its own
        ctx, gens = builtin_problem(system)
        res = run(make_prebasis_shifted(gens, sig_order), Strategy.f5())
        G, one = res.basis, ctx.identity_monomial()
        members = G.members
        rng = random.Random(11)
        layouts = {
            "flat": [0] * len(members),
            "chain": list(range(len(members))),
            "random": [rng.randrange(i + 1) for i in range(len(members))],
        }
        units = [Monomial(tuple(int(j == i) for j in range(ctx.width)))
                 for i in range(ctx.width)]
        verdicts = set()
        for layout, parents in layouts.items():
            tree = SigTree()
            for idx, (g, parent) in enumerate(zip(members, parents), start=1):
                tree.add_node(SigPair(g.part, g.sig, idx), parent, parent and idx, one)
            for idx, g in enumerate(members, start=1):
                if g.part.is_zero:
                    continue
                for x in units:
                    label = SigPair(g.part.mul_monomial(x), g.sig.mul(x), len(tree.nodes))
                    tree.add_node(label, idx, len(tree.nodes), x)
            flagged = {int(v.split()[2]) for v in validate_sigtree(tree, G)
                       if v.startswith("T2:")}
            assert flagged == self._t2_by_ancestor_sigset(tree, G), layout
            if layout == "flat":
                assert not flagged  # equal shifted signatures never reduce
            verdicts |= {idx in flagged for idx in range(1, len(tree.nodes))}
        assert verdicts == {True, False}


class TestStrategyAgreement:
    # (iterations, insertions, zero reductions, reduction steps, peak queue)
    # on katsura4, shifted.  The lm ideal alone does not pin the loop: the
    # f4 batch reduced in descending order still reaches the right ideal.
    @pytest.mark.parametrize(
        "strategy, sig_order, counters",
        [
            (Strategy.in_order(), "top", (27, 16, 11, 42, 19)),
            (Strategy.min_lm(), "top", (27, 12, 7, 42, 19)),
            (Strategy.f5(), "top", (27, 12, 7, 42, 19)),
            (Strategy.f5_pruned(), "top", (13, 12, 7, 42, 5)),
            (Strategy.f4(4), "top", (7, 17, 11, 57, 16)),
            (Strategy.in_order(), "pot", (31, 18, 12, 44, 18)),
            (Strategy.min_lm(), "pot", (31, 13, 7, 44, 18)),
            (Strategy.f5(), "pot", (31, 13, 7, 44, 18)),
            (Strategy.f5_pruned(), "pot", (14, 13, 7, 44, 4)),
            (Strategy.f4(4), "pot", (9, 24, 17, 56, 15)),
        ],
    )
    def test_katsura4_counters(self, strategy, sig_order, counters):
        _, gens = katsura(4)
        s = run(make_prebasis_shifted(gens, sig_order), strategy).stats
        got = (s.iterations, s.insertions, s.zero_reductions, s.reduction_steps, s.peak_queue)
        assert got == counters

    def test_mora_all_strategies_same_lm_ideal(self, mora_gens, mora_ctx):
        gb = buchberger(mora_gens, mora_ctx.monoid)
        for st in ALL_STRATEGIES:
            for mk in (make_prebasis_shifted, make_prebasis_unshifted):
                for kind in ("top", "pot"):
                    res = run(mk(mora_gens, kind), st)
                    lms = {
                        m.part.lm for m in res.basis.members if not m.part.is_zero
                    }
                    assert lm_ideal_equal(lms, gb.lm_set(), mora_ctx.monoid)

    def test_pivot_oracle_on_certified_output(self, mora_run, mora_ctx):
        # leading monomials of the certified parts generate the same slice
        # pivots as the span they generate
        from sigbasis.algebra import bounded_span_pivots

        parts = [m.part for m in mora_run.basis.members if not m.part.is_zero]
        D = max(p.degree for p in parts)
        pivots = bounded_span_pivots(parts, D, mora_ctx.monoid)
        reachable = set()
        for p in parts:
            for a in mora_ctx.monoid.elements_up_to(2, D - p.degree):
                reachable.add(p.lm.mul(Monomial(a)))
        assert pivots == reachable


class TestTrace:
    def test_byte_identical_traces(self, mora_gens):
        import json

        def capture():
            rows = []
            run(
                make_prebasis_shifted(mora_gens, "top"),
                Strategy.in_order(),
                trace=rows.append,
            )
            return "\n".join(json.dumps(r, sort_keys=True) for r in rows)

        assert capture() == capture()

    def test_event_schema(self, mora_gens):
        rows = []
        run(make_prebasis_shifted(mora_gens, "top"), Strategy.f4(2), trace=rows.append)
        kinds = {r["event"] for r in rows}
        assert {"queue_add", "pop", "select", "insert"} <= kinds
        for r in rows:
            if r["event"] in ("queue_add", "queue_prune", "pop"):
                assert "source_pair_ids" in r
            if r["event"] == "insert":
                assert {"signature", "node", "parent", "multiplier", "lm", "steps"} <= set(r)


class TestDotExport:
    def test_mora_structure(self, mora_run, mora_ctx):
        text = export_dot(mora_run, highlight={mono(mora_ctx, 4, 0)})
        assert text.startswith("digraph sigtree {")
        assert 'n2 -> n4 [label="x^2"];' in text
        assert 'n4 -> n6 [label="y"];' in text
        assert 'label="6: y^4", style=bold' in text

    def test_empty(self):
        res = run(make_prebasis_shifted([], "top"), Strategy.in_order())
        assert export_dot(res) == "digraph sigtree {\n  node [shape=box];\n}\n"

    def test_single_root_no_edges(self, univar_ctx):
        res = run(
            make_prebasis_shifted([elem(univar_ctx, "x - 1")], "top"),
            Strategy.in_order(),
        )
        text = export_dot(res)
        assert "n1 [" in text and "->" not in text

    def test_edge_products_give_signatures(self, mora_gens):
        for st in ALL_STRATEGIES:
            res = run(make_prebasis_shifted(mora_gens, "top"), st)
            assert tree_signature_consistent(res.tree)
