"""Rewrite-basis main loop, sigtrees, the combinatorial certificate, exports.

One loop body realizes every strategy.  Each iteration pops the strategy's
batch of the smallest pending signatures, selects a reductant for each per
its selector and skips those with nothing to reduce, regular-reduces the
rest in ascending order against the basis and the batch's earlier results,
and inserts them with provenance recorded in a forest of reduction ancestry
(the sigtree).  Termination rests on the well-formedness of that forest; the
invariant can be asserted at loop heads in debug runs.  In a ring with the
full monoid, a picked signature divisible by the leading signature of a
principal (Koszul) syzygy between two nonzero members is inserted as a
zero-part marker without being reduced.  The test reads the basis through
the reducer lookup's memo: a nonzero member g whose signature divides the
picked one, and the lowest-ratio member h whose leading monomial divides the
multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Element
from .critical import CriticalQueue, critical_set, queue_update
from .errors import CertificateError, ContractError, LimitExceeded, SigbasisError, check_deadline
from .monomials import Monomial, ScalarOrder, divide
from .sigcore import (
    SigPair,
    SigSet,
    find_regular_reducer,
    regular_normal_form_with_steps,
    sig_lm_ratio,
    syzygy_signatures,
)
from .textio import render_monomial

__all__ = [
    "Strategy",
    "SigTree",
    "TreeNode",
    "RunStats",
    "RunResult",
    "CertificateReport",
    "rewrite_basis_at",
    "select_reductant_sigtree",
    "select_reductant_f5",
    "run",
    "faugere_certificate",
    "validate_sigtree",
    "export_dot",
]

@dataclass(frozen=True, slots=True)
class Strategy:
    """Three independent choices: the reductant rule (``select``), how many of
    the smallest pending signatures one iteration pops (``batch_size``), and
    whether the queue drops those that another pending one divides (``prune``)."""

    select: str
    batch_size: int = 1
    prune: bool = False

    def __post_init__(self):
        if self.select not in ("sigtree", "f5", "min_lm"):
            raise ContractError(f"unknown selector {self.select!r}")
        if type(self.batch_size) is not int or self.batch_size < 1:
            raise ContractError(f"batch size must be an int >= 1, got {self.batch_size!r}")
        if type(self.prune) is not bool:
            raise ContractError(f"prune must be a bool, got {self.prune!r}")
        # pruning leaves a multiple of sigma to the pairs of the member that f5's
        # newest-realizer rule picks at sigma: other choices fail certificates
        if self.prune and (self.select != "f5" or self.batch_size != 1):
            raise ContractError("pruning needs f5 selection and batch size 1")

    @classmethod
    def in_order(cls):
        return cls("sigtree")

    @classmethod
    def min_lm(cls):
        return cls("min_lm")

    @classmethod
    def f5(cls):
        return cls("f5")

    @classmethod
    def f5_pruned(cls):
        return cls("f5", prune=True)

    @classmethod
    def f4(cls, batch_size: int):
        return cls("sigtree", batch_size)


@dataclass(slots=True)
class TreeNode:
    label: "SigPair | None"  # None only for the virtual root
    rank: int
    parent: int
    edge: "Monomial | None"  # multiplier from the parent, identity for roots
    children: list[int] = field(default_factory=list)


class SigTree:
    """Reduction-provenance forest; node index equals the labeled sigpair id."""

    def __init__(self):
        self.nodes = [TreeNode(None, -1, -1, None)]

    def add_node(self, label: SigPair, parent: int, rank: int, edge: Monomial) -> int:
        idx = len(self.nodes)
        if label.id != idx:
            raise ContractError(f"node index {idx} must equal sigpair id {label.id}")
        self.nodes.append(TreeNode(label, rank, parent, edge))
        self.nodes[parent].children.append(idx)
        return idx

    def ancestors(self, idx: int):
        out = []
        cur = self.nodes[idx].parent
        while cur > 0:
            out.append(cur)
            cur = self.nodes[cur].parent
        return out

    def __len__(self):
        return len(self.nodes) - 1


@dataclass(slots=True)
class RunStats:
    iterations: int = 0
    insertions: int = 0
    zero_reductions: int = 0
    reduction_steps: int = 0
    peak_queue: int = 0
    koszul_zeros: int = 0  # zero-part members inserted without a reduction


@dataclass(slots=True)
class RunResult:
    basis: SigSet
    tree: SigTree
    syzygies: set
    stats: RunStats


@dataclass(slots=True)
class CertificateReport:
    ok: bool
    failures: list

    def __bool__(self):
        return self.ok


def rewrite_basis_at(G: SigSet, sigma: Monomial) -> bool:
    """No realization at sigma, or some realization is regular-irreducible."""
    sigma_key = G.sig_order.key(sigma)
    realized = False
    # newest first: the member inserted at sigma, if any, is the likely witness
    for g, a in G.realizations(sigma):
        realized = True
        if g.part.is_zero:
            return True
        target = g.part.lm.mul(a)
        if find_regular_reducer(target, sigma, G, _sigma_key=sigma_key) is None:
            return True
    return not realized


def select_reductant_sigtree(sigma: Monomial, tree: SigTree, G: SigSet):
    """Descend from the virtual root through children whose signature divides
    sigma; return the last node's label and multiplier (the label's id is the
    node index)."""
    spec = G.monoid
    k, a = 0, None
    while True:
        for c in tree.nodes[k].children:
            q = divide(tree.nodes[c].label.sig, sigma, spec)
            if q is not None:
                k, a = c, q
                break
        else:
            break
    if k == 0:
        raise ContractError("no root signature divides the requested signature")
    return tree.nodes[k].label, a


def select_reductant_f5(sigma: Monomial, G: SigSet):
    """Most recent member whose signature divides sigma, unless a zero-part
    member's does (the signature is then a recorded syzygy): then the oldest
    such member.  The scan runs oldest first, so it stops there."""
    best = None
    for g, a in G.realizations(sigma, newest_first=False):
        if g.part.is_zero:
            return g, a
        best = (g, a)
    if best is None:
        raise ContractError("no member signature divides the requested signature")
    return best


def _select_min_lm(sigma: Monomial, G: SigSet):
    """All realizations of sigma, keeping the smallest part leading monomial;
    ties break toward the smallest id."""
    part_key = G.ctx.order.key
    best = None
    for g, a in G.realizations(sigma):
        cand = (part_key(g.part.lm.mul(a)), g.id)
        if best is None or cand < best[0]:
            best = (cand, g, a)
    if best is None:
        raise ContractError("no member signature divides the requested signature")
    return best[1], best[2]


def _trace_writer(sink, variables):
    """Hand each event to ``sink`` with its monomial fields rendered."""

    def emit(event: dict):
        sink({k: render_monomial(v, variables) if isinstance(v, Monomial) else v
              for k, v in event.items()})

    return emit


def _koszul_multiple(sigma: Monomial, G: SigSet) -> bool:
    """sigma is a multiple of the leading signature of a principal syzygy
    part(h)*u_g - part(g)*u_h between two nonzero members of G.

    That signature is lm(h)*sig(g) when it exceeds lm(g)*sig(h), that is
    when g's sig/lm ratio exceeds h's, and lm(h)*sig(g) divides sigma iff
    sig(g) does with a quotient a that lm(h) divides.  So the test asks G's
    lowest divisor of a (``SigSet.lowest_divisor``, the reducer lookup's
    memo) whether its ratio lies below g's.  Every multiple of one is a
    syzygy signature, where the regular normal form is zero once G is
    complete below it.  The syzygy needs every part monomial as a
    multiplier: full monoid, index-free parts.
    """
    key, order = G.ctx.order.key, G.sig_order
    for g, a in G.realizations(sigma):
        if g.part.is_zero:
            continue
        r, h = G.lowest_divisor(a, key(a))
        if h is not None and r < sig_lm_ratio(g, order):
            return True
    return False


def _check_invariant(G: SigSet, Q: CriticalQueue, cache: dict):
    spec, pruned = G.monoid, Q.pruned_mode
    pending = Q.snapshot()
    # the critical set and rewrite_basis_at only change when the
    # append-only G grows: both results are cached per size of G
    if cache.get("size") != len(G.members):
        cache["size"] = len(G.members)
        cache["critical"] = critical_set(G)
        cache["rewrite_ok"] = set()
    rewrite_ok = cache["rewrite_ok"]
    for sigma in cache["critical"]:
        if sigma in rewrite_ok:
            continue
        if pruned:
            covered = any(divide(tau, sigma, spec) is not None for tau in pending)
        else:
            covered = sigma in Q
        if covered:
            continue
        if not rewrite_basis_at(G, sigma):
            raise SigbasisError(
                f"queue invariant violated at {sigma!r} ({'pruned' if pruned else 'plain'} mode)"
            )
        rewrite_ok.add(sigma)


def run(
    prebasis: SigSet,
    strategy: Strategy,
    *,
    max_insertions: int = 10**6,
    deadline: float | None = None,
    trace=None,
    debug_invariant_stride: int = 0,
) -> RunResult:
    """Extend the prebasis to a certified rewrite basis.

    ``max_insertions`` caps the insertions, checked at every loop head.
    ``deadline`` is a ``time.monotonic()`` value, ``None`` for no time cap;
    it is checked before each prebasis member's pair search, at every loop
    head, before each reducer lookup inside a reduction and at every
    critical signature of the closing certificate.  Either cap raises
    ``LimitExceeded`` carrying the uncertified partial result.  ``trace``
    receives one dict per event (queue mutations, pops, selections,
    reductions, insertions, skips).
    ``debug_invariant_stride=k`` asserts the queue invariant at every k-th
    loop head.
    """
    if prebasis.origin == "adhoc":
        raise ContractError("engine input must come from a prebasis constructor")
    if max_insertions < 0:
        raise ContractError(f"max_insertions must be >= 0, got {max_insertions}")
    ctx = prebasis.ctx
    # an untraced run has no writer and builds no event
    emit = None if trace is None else _trace_writer(trace, ctx.variables)
    G = SigSet(ctx, prebasis.sig_order, (), origin=prebasis.origin)
    tree = SigTree()
    Q = CriticalQueue(G.sig_order, ctx.monoid, pruned_mode=strategy.prune, trace=emit)
    stats = RunStats()
    invariant_cache = {}
    koszul = ctx.monoid.kind == "full" and isinstance(ctx.order, ScalarOrder)

    def partial():
        return RunResult(G, tree, syzygy_signatures(G), stats)

    for i, g in enumerate(prebasis.members, start=1):
        if g.id != i:
            raise ContractError("prebasis ids must be 1..r in order")
        G.add(g)
        tree.add_node(g, parent=0, rank=0, edge=ctx.identity_monomial())
        check_deadline(deadline, partial=partial)
        queue_update(Q, G)
    stats.peak_queue = len(Q)

    # each selector returns (member, multiplier); the lambdas look the
    # selector up on every call, so one rebound on the module (a tracing
    # wrapper, say) takes effect
    select = {
        "sigtree": lambda sigma: select_reductant_sigtree(sigma, tree, G),
        "f5": lambda sigma: select_reductant_f5(sigma, G),
        "min_lm": lambda sigma: _select_min_lm(sigma, G),
    }[strategy.select]

    while len(Q):
        if stats.insertions >= max_insertions:
            raise LimitExceeded("insertion cap exceeded", partial=partial())
        check_deadline(deadline, partial=partial)
        if debug_invariant_stride and stats.iterations % debug_invariant_stride == 0:
            _check_invariant(G, Q, invariant_cache)
        stats.iterations += 1

        picked = []
        for sigma in Q.pop_batch(strategy.batch_size):
            g, a = select(sigma)
            lm = g.part.lm.mul(a)
            if emit:
                emit(
                    {
                        "event": "select",
                        "signature": sigma,
                        "node": g.id,
                        "multiplier": a,
                        "lm": lm,
                    }
                )
            if lm.is_zero or find_regular_reducer(lm, sigma, G) is None:
                if emit:
                    emit({"event": "skip", "signature": sigma, "node": g.id,
                          "multiplier": a, "lm": lm})
                continue
            picked.append((sigma, g, a))
        fresh = []
        for sigma, g, a in picked:  # ascending signature order
            # ids follow tree size so that batched insertions stay sequential
            # even before their sigpairs join G
            node = len(tree.nodes)
            if koszul and _koszul_multiple(sigma, G):
                g_new, steps = SigPair(Element.zero(ctx), sigma, node), 0
                stats.koszul_zeros += 1
            else:
                # the reductant is built only for a signature that is reduced
                f = SigPair(g.part.mul_monomial(a), sigma, node)
                try:
                    g_new, steps = regular_normal_form_with_steps(f, G, fresh, deadline)
                except LimitExceeded as exc:
                    raise LimitExceeded(f"{exc} in a reduction", partial=partial()) from None
            stats.reduction_steps += steps
            stats.insertions += 1
            if g_new.part.is_zero:
                stats.zero_reductions += 1
            if emit:
                emit(
                    {
                        "event": "reduce",
                        "signature": sigma,
                        "lm": g_new.part.lm,
                        "steps": steps,
                    }
                )
                emit(
                    {
                        "event": "insert",
                        "signature": sigma,
                        "node": g_new.id,
                        "parent": g.id,
                        "multiplier": a,
                        "lm": g_new.part.lm,
                        "steps": steps,
                    }
                )
            tree.add_node(g_new, parent=g.id, rank=stats.iterations, edge=a)
            fresh.append(g_new)
        for g_new in fresh:
            G.add(g_new)
            queue_update(Q, G)
        stats.peak_queue = max(stats.peak_queue, len(Q))

    try:
        certificate = faugere_certificate(G, deadline=deadline)
    except LimitExceeded as exc:
        raise LimitExceeded(f"{exc} in the certificate", partial=partial()) from None
    if not certificate.ok:
        raise CertificateError(
            f"completed run failed its own certificate at {certificate.failures!r}"
        )
    G.certified = True
    return partial()


def faugere_certificate(G: SigSet, *, deadline: float | None = None) -> CertificateReport:
    """Combinatorial rewrite-basis check over the critical set.

    ``deadline`` is a ``time.monotonic()`` value; past it, the next critical
    signature raises ``LimitExceeded``.
    """
    failures = []
    for s in critical_set(G):
        check_deadline(deadline)
        if not rewrite_basis_at(G, s):
            failures.append(s)
    failures.sort(key=G.sig_order.key)
    return CertificateReport(not failures, failures)


def validate_sigtree(
    tree: SigTree, G: SigSet, *, deadline: float | None = None
) -> list[str]:
    """Well-formedness report; empty means no violations.

    Checks, per node: the edge relation (signature of the child equals the
    edge multiplier applied to the parent's, with a strict leading-monomial
    drop); irreducibility modulo the ancestors (no nonzero ancestor part has
    a b with b*lm(ancestor) = lm(node) and b*sig(ancestor) < sig(node));
    that an older sibling's signature never divides a younger sibling's
    (compared across distinct ranks only, since batch insertions share a
    rank); and that ranks are finite per level and increase from parent to
    child.  ``deadline`` is checked once per node before its T2 test.
    """
    spec = G.monoid
    part_key = G.ctx.order.key
    skey = G.sig_order.key
    violations = []
    for idx in range(1, len(tree.nodes)):
        node = tree.nodes[idx]
        label = node.label
        if node.parent == 0:
            if node.rank != 0:
                violations.append(f"T4: root {idx} has nonzero rank")
            continue
        parent = tree.nodes[node.parent]
        if parent.rank >= node.rank:
            violations.append(f"T4: rank does not increase from {node.parent} to {idx}")
        expected_sig = parent.label.sig.mul(node.edge)
        if expected_sig != label.sig:
            violations.append(f"T1: edge signature relation broken at node {idx}")
        shifted = parent.label.part.lm.mul(node.edge)
        if not part_key(shifted) > part_key(label.part.lm):
            violations.append(f"T1: no strict leading-monomial drop at node {idx}")
    for idx in range(1, len(tree.nodes)):
        check_deadline(deadline)
        node = tree.nodes[idx]
        label = node.label
        if label.part.is_zero:
            continue
        lm, sig_key = label.part.lm, skey(label.sig)
        for a in tree.ancestors(idx):
            anc = tree.nodes[a].label
            if anc.part.is_zero:
                continue
            b = divide(anc.part.lm, lm, spec)
            if b is not None and skey(anc.sig.mul(b)) < sig_key:
                violations.append(f"T2: node {idx} reducible by an ancestor")
                break
    for idx in range(len(tree.nodes)):
        kids = tree.nodes[idx].children
        for i, p in enumerate(kids):
            for q in kids[i + 1:]:
                np, nq = tree.nodes[p], tree.nodes[q]
                if np.rank == nq.rank:
                    continue
                older, younger = (np, nq) if np.rank < nq.rank else (nq, np)
                if divide(older.label.sig, younger.label.sig, spec) is not None:
                    violations.append(
                        f"T3: sibling signature divisibility under node {idx}"
                    )
    return violations


def tree_signature_consistent(tree: SigTree) -> bool:
    """Every node's signature equals the product of edge multipliers along
    its path applied to the root signature."""
    for idx in range(1, len(tree.nodes)):
        node = tree.nodes[idx]
        if node.parent == 0:
            continue
        acc = node.label.sig
        cur = node
        product = None
        while cur.parent != 0:
            product = cur.edge if product is None else product.mul(cur.edge)
            cur = tree.nodes[cur.parent]
        if cur.label.sig.mul(product) != acc:
            return False
    return True


def export_dot(result: RunResult, highlight=frozenset()) -> str:
    """DOT digraph of the sigtree: node label "id: lm(part)", edge label the
    multiplier, bold nodes for highlighted part leading monomials."""
    variables = result.basis.ctx.variables
    lines = ["digraph sigtree {", "  node [shape=box];"]
    tree = result.tree
    for idx in range(1, len(tree.nodes)):
        node = tree.nodes[idx]
        part = node.label.part
        text = "0" if part.is_zero else render_monomial(part.lm, variables)
        attrs = [f'label="{idx}: {text}"']
        if not part.is_zero and part.lm in highlight:
            attrs.append("style=bold")
        lines.append(f"  n{idx} [{', '.join(attrs)}];")
    for idx in range(1, len(tree.nodes)):
        node = tree.nodes[idx]
        if node.parent > 0:
            label = render_monomial(node.edge, variables)
            lines.append(f'  n{node.parent} -> n{idx} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
