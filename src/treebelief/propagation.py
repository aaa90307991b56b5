"""Message passing that carries second moments alongside probabilities.

Inference is one collect-then-distribute sweep and costs time linear in the
number of nodes.  The upward (collect) phase sends each node's parent a child
message: the expected likelihood of the evidence in that subtree per
receiving alternative, together with the full matrix of second moments of
those likelihoods.  The downward (distribute) phase sends each node a parent
message: the node's distribution conditioned on all evidence *not* below it,
again with second moments.  A query combines both at a node and normalizes by
the mean evidence probability.

Two structural facts make the recurrences exact products and sums:

* distinct conditional rows have independent uncertainty, so a cross moment
  ``E(p(g_k|f_i) p(g_r|f_j))`` factors into a product of means whenever
  ``i != j``, and is read off the row's second-moment matrix when ``i == j``;
* sibling subtrees hang on disjoint uncertainty, so messages from several
  children combine by elementwise products of means and of second-moment
  matrices.

The sweep follows the :class:`~treebelief.model.LevelPlan` compiled at
validation.  A depth of several nodes is a level: one batched ``matmul`` per
group of nodes with equal row and alternative counts, and sibling products
as segmented cumulative products (:func:`_segment_products`).  Each maximal
run of one-node depths of equal alternative and row counts, as on a chain,
is a chain segment, swept in one loop of 2-D ``dot`` steps over views of its
rows and messages gathered once per segment, into preallocated temporaries:
upward with a level's terms in its order, bit for bit, each message written
straight into its parent's combined message, and downward without the
division by ``D`` (see :func:`propagate`), so reports move by rounding
only.  An observed node splits a segment's loop where its indicator or its
row enters.  Evidence swaps rows in: an instantiated
node's combined message is the indicator of its observed alternative, and
its children receive the observed row's moments.  Every diagonal sum over
row second moments is one ``dot`` with them viewed flat, ``(rows, k * k)``.
The tests bound the move from the ``einsum`` form of these sums at 1e-13 of
a node's largest second moment, with means bit for bit.

A subtree without evidence sends its parent the unit message, exactly: from
its leaves up, each combined message is all ones, so each message is its rows'
sums ``sum_k p(g_k|f_i)``, one with certainty.  The upward sweep
(:func:`_sweep_up`) therefore computes messages only at *evidence-bearing*
nodes, those instantiated or with an instantiated descendant, and sibling
products only at their parents; every other message keeps its unit fill.  It
marks these nodes as it goes, from each depth's instantiated nodes and the
parents of the marked nodes below, so its work follows the nodes on paths from
the evidence to the root.  A prior query is one downward sweep
(:func:`_sweep_down`).

The chain segments that hang from the root, down to the first level, form
the *leading path*.  Each of its nodes is a lone child, and a segment step
does not divide by ``D``, so its parent message depends on the stored rows
alone, down to the shallowest instantiated node.  The plan keeps these
prior messages (:class:`~treebelief.model.PriorPath`), the one part of a
validated network that changes: the first query whose sweep computes all
of them stores read-only copies in one assignment, and every later query
copies them down to its shallowest instantiated node into its own state
(:func:`_sweep_down`).  Concurrent queries share it safely: the bytes are a
pure function of the network, and a query reads the holder once, empty or
whole.

Normalizing denominators are always sums of *mean* values; as a consequence
posterior second moments are approximations (exact for means and for all
prior queries) and a reported variance can fall a hair below zero, which the
report clamps and flags.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import chain, repeat
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import InconsistentEvidence, NegativeVariance
from .model import ChainSegment, ValidatedNetwork, _frozen, check_evidence, check_observed_entries

#: Reported variances below this are a hard error instead of a clamp.
VARIANCE_FLOOR = -1e-9


class NodeReport(NamedTuple):
    """Inferred probabilities for one node with second moments and variances."""

    node: str
    mean: np.ndarray
    second: np.ndarray
    variance: np.ndarray
    clamped: bool = False


class MessageState:
    """All messages of one propagation run, ``(mean, second)`` arrays stacked
    in :class:`~treebelief.model.LevelPlan` order; the methods read one node's.

    A state is confined to one query thread; distinct queries on the same
    network may run concurrently with separate states.  Its arrays are its
    own and writable: the prior messages that the network keeps for its
    leading path are copied in, and stored as read-only copies, never
    shared.  ``_children`` lists the children of instantiated nodes as
    :func:`_observed_children` gives them, in evidence order.
    """

    __slots__ = ("net", "evidence", "_combined", "_parent", "_upward", "_others", "_children")

    def __init__(self, net: ValidatedNetwork, evidence: Mapping[str, int]):
        self.net, self.evidence = net, dict(evidence)
        stack = lambda counts, fill: {k: (fill((n, k)), fill((n, k, k))) for k, n in counts.items()}
        counts, sib = {k: len(starts) for k, starts in net.plan.row_start.items()}, net.plan.sib_counts
        self._combined, self._parent = stack(counts, np.ones), stack(counts, np.empty)
        self._upward, self._others = stack(sib, np.ones), stack(sib, np.ones)
        self._children = []

    def _slot(self, node_id: str) -> tuple:
        self.net.node(node_id)  # raises UnknownNode outside the network
        return self.net.plan.slot[node_id]

    def combined(self, node_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """The product of a node's child messages (if instantiated, its indicator)."""
        _, k, i, _, _ = self._slot(node_id)
        return self._combined[k][0][i], self._combined[k][1][i]

    def upward(self, node_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """A non-root node's message to its parent (``KeyError`` at the root);
        exactly the unit message, as rows sum to one, where no instantiated
        node is at or below the node."""
        _, _, _, r, pos = self._slot(node_id)
        return self._upward[r][0][pos], self._upward[r][1][pos]

    def parent(self, node_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """The message an uninstantiated node (or the root) receives from above;
        in a chain segment, a distribution up to a scale every report cancels."""
        _, k, i, _, _ = self._slot(node_id)
        return self._parent[k][0][i], self._parent[k][1][i]


def _segment_products(x: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Each segment's product of the ``m`` messages in ``x[p]``, ``x`` shaped
    ``(P, m, ...)``; ``others[p, i]`` gets the product of the other ``m - 1``.

    Forward and reversed cumulative products end in the full product, and
    prefix times suffix leaves one out, free of division, which a zero would
    break.
    """
    if x.shape[1] == 1:
        others[...] = 1.0
        return x[:, 0]
    prefix = np.cumprod(x, axis=1)
    suffix = np.cumprod(x[:, ::-1], axis=1)[:, ::-1]
    others[:, 0] = suffix[:, 1]
    others[:, -1] = prefix[:, -2]
    np.multiply(prefix[:, :-2], suffix[:, 2:], out=others[:, 1:-1])
    return prefix[:, -1]


def _indicators(combined, pairs_by_k, marked) -> None:
    """Swap in the indicator of each instantiated node's alternative, and
    mark the node as bearing evidence."""
    for k, pairs in pairs_by_k.items():
        slots, alts = map(list, zip(*pairs))
        e = np.eye(k)[alts]
        combined[k][0][slots], combined[k][1][slots] = e, e[:, :, None] * e[:, None, :]
        marked[k][slots] = True


def _observed_rows(down, moments, found) -> None:
    """Send each child of an instantiated node the observed row's moments;
    ``found`` lists ``(k, slots, rows)`` from :func:`_observed_children`."""
    for k, slots, rows in found:
        down[k][0][slots], down[k][1][slots] = moments[k][0][rows], moments[k][1][rows]


def _observed_children(net: ValidatedNetwork, node_id: str, alt: int) -> list:
    """``(k, slots, rows)`` for the children of ``node_id``, observed as
    ``alt``: their slots among the nodes of ``k`` alternatives and the
    observed rows that they receive.

    A node's children of equal ``k`` hold consecutive slots: they tie in the
    plan's sort, ties keep the order of the depth-first walk, and the walk
    puts only deeper nodes between two siblings.  So where the first and the
    last child bound one run of slots, the children are a slice of slots and
    a strided slice of rows, whatever their number; otherwise each child is
    looked up alone, as slices of one.
    """
    slot, row_start, kids = net.plan.slot, net.plan.row_start, net.nodes[node_id].children
    if not kids:
        return []
    _, k, first, r, _ = slot[kids[0]]
    m = len(kids)
    if slot[kids[-1]][1:3] == (k, first + m - 1):
        row = int(row_start[k][first]) + alt
        return [(k, slice(first, first + m), slice(row, row + m * r, r))]
    alone = [(kc, i, int(row_start[kc][i]) + alt) for _, kc, i, _, _ in map(slot.__getitem__, kids)]
    return [(kc, slice(i, i + 1), slice(row, row + 1)) for kc, i, row in alone]


def _segment_up(seg: ChainSegment, deepest: int, seen, seen_at, moments, combined, up, marked) -> None:
    """From the bottom up, send each node of a chain segment at or above depth
    ``deepest`` its message to its parent: straight into the parent's
    combined message (the only child's), copied into ``up`` a run at a time,
    and mark the parent.  An observed node's indicator is swapped in just
    before its own link."""
    depth, n, k, r, slot, row, pos, top = seg
    # A node alone at its depth is an ancestor of every deeper node, so the
    # nodes bearing evidence are exactly those at or above the deepest observed one.
    n = min(n, deepest - depth + 1)
    if n <= 0:
        return
    marked[r][top] = True
    (means, _, flat), (lam, lam2), (mean, second) = moments[k], combined[k], up[r]
    c, lam, lam2 = means[row : row + n * r].reshape(n, r, k), lam[slot : slot + n], lam2[slot : slot + n]
    tops = combined[r][0][top], combined[r][1][top]
    views = c, c.transpose(0, 2, 1), flat[row : row + n * r].reshape(n, r, k * k), lam, lam2.reshape(n, k * k), lam2
    diagonals = lam2.reshape(n, k * k)[:, :: k + 1], tops[1].reshape(r * r)[:: r + 1]
    parents = (lam, tops[0]), (lam2, tops[1]), diagonals
    tmp, diag = np.empty((r, k)), np.empty(r)
    observed = seen_at[bisect_left(seen_at, depth) : bisect_left(seen_at, depth + n)]
    cuts = sorted({0, n, *(d - depth + 1 for d in observed)}, reverse=True) if observed else (n, 0)
    for hi, lo in zip(cuts, cuts[1:]):  # nodes ``hi - 1`` up to ``lo``
        if depth + hi - 1 in seen:
            _indicators(combined, seen[depth + hi - 1], marked)
        above = [reversed(x[lo - 1 : hi - 1]) if lo else chain(reversed(x[: hi - 1]), (x_top,))
                 for x, x_top in parents]
        for c, ct, flat, lm, lm2f, lm2, m, s, sd in zip(*(reversed(x[lo:hi]) for x in views), *above):
            c.dot(lm, out=m)
            c.dot(lm2, out=tmp).dot(ct, out=s)
            sd[...] = flat.dot(lm2f, out=diag)
        if hi > 1:
            a = max(lo, 1)
            mean[pos + a : pos + hi], second[pos + a : pos + hi] = lam[a - 1 : hi - 1], lam2[a - 1 : hi - 1]
        if not lo:
            mean[pos], second[pos] = tops


def _segment_down(seg: ChainSegment, below, below_at, moments, down, off: np.ndarray, start: int = 0) -> None:
    """From the top down, send each node of a chain segment its parent
    message, without the division by ``D`` (see :func:`propagate`); a child
    of an observed node gets the observed row's moments instead.  The first
    ``start`` nodes already hold theirs."""
    depth, n, k, r, slot, row, _, top = seg
    (means, _, flat), (q, t) = moments[k], down[k]
    c = means[row : row + n * r].reshape(n, r, k)
    q, t, tops = q[slot : slot + n], t[slot : slot + n], (down[r][0][top], down[r][1][top])
    views = c, c.transpose(0, 2, 1), flat[row : row + n * r].reshape(n, r, k * k), q, t
    parents = (q, tops[0]), (t, tops[1]), (t.diagonal(0, 1, 2), tops[1].diagonal())
    tmp, tmp2, diag, extra = np.empty((r, r)), np.empty((k, r)), np.empty(r), np.empty((k, k))
    extra_flat = extra.reshape(k * k)
    children = [d - depth for d in below_at[bisect_left(below_at, depth) : bisect_left(below_at, depth + n)]]
    for run, (lo, hi) in enumerate(zip([start, *(j + 1 for j in children)], [*children, n])):  # ``lo .. hi - 1``
        if run:
            _observed_rows(down, moments, below[depth + lo - 1])
        above = [x[lo - 1 : hi - 1] if lo else chain((x_top,), x[: hi - 1]) for x, x_top in parents]
        for c, ct, flat, m, s, pq, pt, ptd in zip(*(x[lo:hi] for x in views), *above):
            pq.dot(c, out=m)  # the other children's message is the unit message: D = sum(q) stays in
            np.multiply(pt, off, out=tmp)
            ct.dot(tmp, out=tmp2).dot(c, out=s)
            diag[...] = ptd
            diag.dot(flat, out=extra_flat)
            s += extra


def _span(hit: np.ndarray):
    """A sorted, non-empty index array as a slice if it counts up by one."""
    lo, hi = int(hit[0]), int(hit[-1])
    return slice(lo, hi + 1) if hi - lo < hit.size else hit


def _pick(index, sel):
    """Entries ``sel`` of a plan index, each a slice or an index array."""
    if not isinstance(index, slice):
        return index[sel]
    if isinstance(sel, slice):
        return slice(index.start + sel.start, index.start + sel.stop)
    return sel + index.start


def _sweep_up(plan, seen, combined, up, others) -> None:
    """Send each evidence-bearing node's message to its parent and form the
    sibling products at each parent of such a node (see :func:`propagate`).

    ``marked[k]`` flags the slots found to bear evidence: at each depth, its
    observed nodes, then the parents of that depth's marked nodes.  Every
    other message keeps its unit fill.  A level gathers the messages and
    rows of its marked nodes, a view where they are consecutive; a level
    deeper than every observed node has none and is skipped whole.
    """
    if not seen:
        return
    moments, deepest, seen_at = plan.moments, max(seen), sorted(seen)
    marked = {k: np.zeros(len(starts), bool) for k, starts in plan.row_start.items()}
    for step in reversed(plan.steps):
        if isinstance(step, ChainSegment):
            _segment_up(step, deepest, seen, seen_at, moments, combined, up, marked)
            continue
        depth, groups, runs = step
        if depth > deepest:
            continue
        if depth in seen:
            _indicators(combined, seen[depth], marked)
        for r, k, slots, rows, pos, parents in groups:
            hit, g = marked[k][slots].nonzero()[0], slots.stop - slots.start
            if not hit.size:
                continue
            sel, n = _span(hit), hit.size
            c = moments[k][0][rows].reshape(g, r, k)[sel]
            flat = moments[k][2][rows].reshape(g, r, k * k)[sel]
            lam, lam2 = combined[k][0][slots][sel], combined[k][1][slots][sel]
            second = c @ lam2 @ c.transpose(0, 2, 1)
            diag = flat @ lam2.reshape(n, k * k, 1)
            second.reshape(n, r * r)[:, :: r + 1] = diag[:, :, 0]
            pos = _pick(pos, sel)
            up[r][0][pos], up[r][1][pos] = (c @ lam[:, :, None])[:, :, 0], second
            marked[r][_pick(parents, sel)] = True
        for r, m, kids, parents in runs:
            hit, p = marked[r][parents].nonzero()[0], (kids.stop - kids.start) // m
            if not hit.size:
                continue
            sel = _span(hit)
            parents = _pick(parents, sel)
            for j, shape in ((0, (p, m, r)), (1, (p, m, r, r))):
                x, out = up[r][j][kids].reshape(shape)[sel], others[r][j][kids].reshape(shape)
                if isinstance(sel, slice):
                    combined[r][j][parents] = _segment_products(x, out[sel])
                else:  # gathered: the leave-one-out products go through a copy
                    part = np.empty(x.shape)
                    combined[r][j][parents] = _segment_products(x, part)
                    out[sel] = part
    if 0 in seen:
        _indicators(combined, seen[0], marked)


def _sweep_down(net: ValidatedNetwork, evidence, below, down, others, shallowest: int) -> None:
    """Send each node its parent message, from the root's own row moments
    down (see :func:`propagate`).  On the leading path, the prior messages
    down to depth ``shallowest`` are copied from the plan's
    :class:`~treebelief.model.PriorPath` once it holds them; a sweep that
    computed all of them stores read-only copies there."""
    plan, moments = net.plan, net.plan.moments
    below_at, lead, held = sorted(below), plan.prior.segments, plan.prior.held
    off = {r: 1.0 - np.eye(r) for r in others}  # zeroes a diagonal exactly
    names = None  # (k, slot) -> node id, built at the first zero denominator
    _, k, i, _, _ = plan.slot[net.root]
    down[k][0][i], down[k][1][i] = moments[k][0][0], moments[k][1][0]
    for j, seg in enumerate(lead):
        start = 0 if held is None else min(seg.n, max(shallowest - seg.depth + 1, 0))
        if start:
            for x, kept in zip(down[seg.k], held[j]):
                x[seg.slot : seg.slot + start] = kept[:start]
        _segment_down(seg, below, below_at, moments, down, off[seg.r], start)
    if held is None and shallowest >= sum(seg.n for seg in lead):
        plan.prior.held = tuple(tuple(_frozen(x[seg.slot : seg.slot + seg.n].copy()) for x in down[seg.k])
                                for seg in lead)
    for step in plan.steps[len(lead) :]:
        if isinstance(step, ChainSegment):
            _segment_down(step, below, below_at, moments, down, off[step.r])
            continue
        depth, groups, _ = step
        for r, k, slots, rows, pos, parents in groups:
            q, t = down[r][0][parents], down[r][1][parents]
            m, s = others[r][0][pos], others[r][1][pos]
            denom = (m[:, None, :] @ q[:, :, None])[:, 0, 0]
            zero = np.flatnonzero(denom == 0.0)
            if zero.size:  # stand-ins, if evidence swaps them out
                if names is None:
                    names = dict(zip(map(tuple, plan.places[:, 1:3].tolist()), net.order))
                for j in zero.tolist():
                    node_id = names[k, slots.start + j]
                    parent = net.nodes[node_id].parent
                    if node_id not in evidence and parent not in evidence:
                        raise InconsistentEvidence(f"evidence reaching {node_id!r} through "
                                                   f"{parent!r} has zero mean probability")
                denom[zero] = 1.0
            t2 = s * t / (denom * denom)[:, None, None]
            g = slots.stop - slots.start
            diag = t2.diagonal(0, 1, 2)[:, None, :].copy()
            t2.reshape(g, r * r)[:, :: r + 1] = 0.0
            c = moments[k][0][rows].reshape(g, r, k)
            down[k][0][slots] = ((m * q / denom[:, None])[:, None, :] @ c)[:, 0]
            flat = moments[k][2][rows].reshape(g, r, k * k)
            down[k][1][slots] = c.transpose(0, 2, 1) @ t2 @ c + (diag @ flat).reshape(g, k, k)
        _observed_rows(down, moments, below.get(depth, ()))


def propagate(net: ValidatedNetwork, evidence: Mapping[str, int]) -> MessageState:
    """Run a collect/distribute sweep and return the resulting state.

    Upward, from the deepest level to the root, a node with combined
    message ``(lam, Lam)`` and row means ``C[i, k] = E(p(g_k | f_i))`` sends::

        mean[i]      = sum_k lam[k] C[i, k]
        second[i, j] = sum_{k, r} Lam[k, r] C[i, k] C[j, r]   (i != j)
        second[i, i] = sum_{k, r} Lam[k, r] E(p(g_k|f_i) p(g_r|f_i))

    Downward, from the root's own row moments, each parent message ``(q, T)``
    is conditioned on the product ``(m, S)`` of the other children's messages
    and pushed through the child's rows, ``M_j`` row ``j``'s second moments::

        D = sum_j m[j] q[j],   q' = m q / D,   T' = S T / D**2
        mean[i]      = sum_j C[j, i] q'[j]
        second[i, l] = sum_{j != k} T'[j, k] C[j, i] C[k, l] + sum_j T'[j, j] M_j[i, l]

    ``T'`` with its diagonal zeroed gives the first sum; ``D == 0`` means the
    evidence is impossible on average and raises :class:`InconsistentEvidence`.
    In a chain segment ``m`` and ``S`` are all ones, so ``D = sum_j q[j] > 0``;
    it keeps ``q' = q``, ``T' = T``, a scale every later ``D`` divides out.
    Upward, only nodes with an instantiated node at or below them are
    computed: every other message keeps its unit fill, exact as every row
    sums to one with certainty.  Downward, the leading path's parent
    messages down to the shallowest instantiated node are the prior ones,
    copied from the network's :class:`~treebelief.model.PriorPath` once it
    holds them.  A query with no instantiated node above the path's last
    depth computes them all and, if the holder is empty, stores them.  So a
    query changes the network only by that one store, with bytes that every
    query computes the same.
    """
    check_evidence(net, evidence)
    state = MessageState(net, evidence)
    plan, seen, below = net.plan, {}, {}  # per depth: observed (slot, alternative) per k, children's rows
    for node_id, alt in evidence.items():
        d, k, i, _, _ = plan.slot[node_id]
        seen.setdefault(d, {}).setdefault(k, []).append((i, alt))
        found = _observed_children(net, node_id, alt)
        if found:
            below.setdefault(d + 1, []).extend(found)
            state._children += found
    _sweep_up(plan, seen, state._combined, state._upward, state._others)
    _sweep_down(net, evidence, below, state._parent, state._others, min(seen, default=len(plan.places)))
    return state


def _check_islands(state: MessageState) -> None:
    """Raise :class:`InconsistentEvidence` if a factor of the mean evidence
    probability is zero.

    The factors of observed rows come first (:func:`check_observed_entries`).
    An island is a set of uninstantiated nodes joined without crossing an
    instantiated one.  Its top, the root or a child of an instantiated node,
    holds the island's mean evidence probability as its ``D = sum_j m[j] q[j]``,
    zero exactly when every term is, since none is negative.  The tops are
    checked as the runs of slots that :func:`_observed_children` gave
    :func:`propagate`, one gather per alternative count with no loop over
    children; observed children are among them, harmlessly, since their
    ``D`` is their observed row entry, which passed the first check.  The
    first top with ``D == 0`` is named: the root, then the children of
    instantiated nodes in evidence order and child order.
    """
    net, evidence, slot = state.net, state.evidence, state.net.plan.slot
    check_observed_entries(net, evidence)
    runs = {}  # k -> slot ranges of the tops, as slices
    if net.root not in evidence:
        _, k, i, _, _ = slot[net.root]
        runs[k] = [slice(i, i + 1)]
    for k, slots, _ in state._children:
        runs.setdefault(k, []).append(slots)
    zero = set()
    for k, spans in runs.items():
        at = np.concatenate([np.arange(s.start, s.stop) for s in spans])
        live = (state._combined[k][0].take(at, 0) * state._parent[k][0].take(at, 0)).any(axis=1)
        if not live.all():
            zero.update((k, i) for i in at[~live].tolist())
    if zero:
        tops = [] if net.root in evidence else [net.root]
        tops += [c for node_id in evidence for c in net.nodes[node_id].children]
        top = next(top for top in tops if slot[top][1:3] in zero)
        raise InconsistentEvidence(f"evidence at node {top!r} has zero mean probability")


def _reports(state: MessageState, ids: Optional[Sequence[str]]) -> Dict[str, NodeReport]:
    """Condition each node's parent message ``(q, T)`` on its combined child
    message ``(m, S)``, per alternative count: ``D = sum_j m[j] q[j]``,
    ``mean = m q / D`` and ``second = diag(S) diag(T) / D**2``.  ``ids`` of
    ``None`` asks for every node, in ``net.order``.  An evidence island with
    a zero ``D`` raises (:func:`_check_islands`), whichever nodes are asked
    for; then, of the nodes with a zero ``D`` or a variance below
    ``VARIANCE_FLOOR``, the first raises.
    """
    plan = state.net.plan
    if ids is None:  # (depth, k, slot, r, position) per id, then the observed alternative or -1
        ids, found = state.net.order, plan.places
    else:
        try:
            found = np.fromiter(chain.from_iterable(map(plan.slot.__getitem__, ids)), np.intp, 5 * len(ids))
        except (KeyError, TypeError):  # TypeError: an unhashable id
            for node_id in ids:
                state.net.node(node_id)  # raises UnknownNode at the first unknown id
        found = found.reshape(len(ids), 5)
    _check_islands(state)
    n = len(ids)
    alts = np.fromiter(map(state.evidence.get, ids, repeat(-1)), np.intp, n)
    names, reports, failures = np.array(ids, dtype=object), dict.fromkeys(ids), []
    for k in np.flatnonzero(np.bincount(found[:, 1])).tolist():
        where = np.flatnonzero(found[:, 1] == k)
        (m, s), (q, t), alt = state._combined[k], state._parent[k], alts[where]
        slots, hit = found[where, 2], alt >= 0
        m, q, s, t = m[slots], q[slots], s.diagonal(0, 1, 2)[slots], t.diagonal(0, 1, 2)[slots]
        denom = (m[:, None, :] @ q[:, :, None])[:, 0, 0]
        zero = (denom == 0.0) & ~hit
        denom[zero | hit] = 1.0
        mean = m * q / denom[:, None]
        second = s * t / (denom * denom)[:, None]
        variance = second - mean**2
        mean[hit] = second[hit] = np.eye(k)[alt[hit]]
        variance[hit] = 0.0
        low = variance.min(axis=1)
        bad = np.flatnonzero(zero | (low < VARIANCE_FLOOR))
        if bad.size:
            failures.append((int(where[bad[0]]), bool(zero[bad[0]]), float(low[bad[0]])))
        variance, clamped = np.maximum(variance, 0.0), (low < 0.0).tolist()
        named = names[where]  # records made by tuple.__new__, past the named tuple's Python-level __new__
        records = map(tuple.__new__, repeat(NodeReport), zip(named, mean, second, variance, clamped))
        reports.update(zip(named, records))
    if failures:
        n, zero, low = min(failures)
        if zero:
            raise InconsistentEvidence(f"evidence at node {ids[n]!r} has zero mean probability")
        raise NegativeVariance(f"node {ids[n]!r}: variance {low} below {VARIANCE_FLOOR}")
    return reports


def posterior_report(
    state: MessageState, nodes: Optional[Sequence[str]] = None
) -> Dict[str, NodeReport]:
    """Read the inferred probabilities, second moments and variances of
    several nodes (all by default), one pass per alternative count.

    Each node's parent message is conditioned on its combined child message
    (:func:`_reports`).  Means are exact; second moments inherit the
    mean-denominator approximation.  Variances are clamped at zero (and the
    report flagged) when rounding pushes them slightly negative; anything
    below ``VARIANCE_FLOOR`` raises :class:`NegativeVariance`.  An
    instantiated node reports its observed alternative with zero variance.
    """
    return _reports(state, None if nodes is None else list(nodes))
