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
rows and messages, each link's outputs the next one's inputs, into
preallocated temporaries:
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
alone, down to the shallowest instantiated node.  Validation sweeps these
prior messages once, with :func:`_segment_down` (:func:`_prior_path`), and
the plan keeps them read-only (``LevelPlan.prior``); every query copies
them down to its shallowest instantiated node into its own state
(:func:`_sweep_down`).  A query writes only to its own state, so
concurrent queries share a network safely.

Normalizing denominators are always sums of *mean* values; as a consequence
posterior second moments are approximations (exact for means and for all
prior queries) and a reported variance can fall a hair below zero, which the
report clamps and flags.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import chain, repeat, takewhile
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

    Three stacks: ``_combined`` and ``_parent`` by slot, and ``_others`` by
    sibling position, which only the nodes at levels own: the upward sweep
    writes their messages there, then their siblings' products in place.  A
    lone child's message is its parent's combined message.  A state is
    confined to one query thread; distinct queries on the same network may
    run concurrently with separate states.  Its arrays are its
    own and writable: the prior messages that the network keeps for its
    leading path are copied in, never shared.  ``_children`` lists the
    children of instantiated nodes as :func:`_observed_children` gives
    them, in evidence order.
    """

    __slots__ = ("net", "evidence", "_combined", "_parent", "_others", "_children")

    def __init__(self, net: ValidatedNetwork, evidence: Mapping[str, int]):
        self.net, self.evidence = net, dict(evidence)
        stack = lambda counts, fill: {k: (fill((n, k)), fill((n, k, k))) for k, n in counts.items()}
        counts = {k: len(starts) for k, starts in net.plan.row_start.items()}
        self._combined, self._parent = stack(counts, np.ones), stack(counts, np.empty)
        self._others, self._children = stack(net.plan.sib_counts, np.ones), []

    def _slot(self, node_id: str) -> tuple:
        self.net.node(node_id)  # raises UnknownNode outside the network
        return self.net.plan.slot[node_id]

    def combined(self, node_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """The product of a node's child messages (if instantiated, its indicator)."""
        _, k, i = self._slot(node_id)
        return self._combined[k][0][i], self._combined[k][1][i]

    def parent(self, node_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """The message an uninstantiated node (or the root) receives from above;
        in a chain segment, a distribution up to a scale every report cancels."""
        _, k, i = self._slot(node_id)
        return self._parent[k][0][i], self._parent[k][1][i]


def _segment_products(x: np.ndarray) -> np.ndarray:
    """Each segment's product of the ``m`` messages in ``x[p]``, ``x`` shaped
    ``(P, m, ...)``, and in place each ``x[p, i]`` that of the other ``m - 1``.

    Forward and reversed cumulative products end in the full product, and
    prefix times suffix leaves one out, free of division, which a zero would
    break.
    """
    if x.shape[1] == 1:
        full, x[...] = x[:, 0].copy(), 1.0
        return full
    prefix = np.cumprod(x, axis=1)
    suffix = np.cumprod(x[:, ::-1], axis=1)[:, ::-1]
    x[:, 0] = suffix[:, 1]
    x[:, -1] = prefix[:, -2]
    np.multiply(prefix[:, :-2], suffix[:, 2:], out=x[:, 1:-1])
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
    (_, r, _), (_, k, first), m = slot[node_id], slot[kids[0]], len(kids)
    if slot[kids[-1]][1:] == (k, first + m - 1):
        row = int(row_start[k][first]) + alt
        return [(k, slice(first, first + m), slice(row, row + m * r, r))]
    alone = [(kc, i, int(row_start[kc][i]) + alt) for _, kc, i in map(slot.__getitem__, kids)]
    return [(kc, slice(i, i + 1), slice(row, row + 1)) for kc, i, row in alone]


def _segment_up(seg: ChainSegment, deepest: int, seen, seen_at, moments, combined, marked) -> None:
    """From the bottom up, send each node of a chain segment at or above depth
    ``deepest`` its message to its parent, straight into the parent's
    combined message (the only child's), and mark the parent.  An observed
    node's indicator is swapped in just before its own link, over the
    message that its child sent.  A link views its rows and its outputs (the
    parent's message, flat and with its diagonal), the next link's inputs."""
    depth, n, k, r, slot, row, top = seg
    # A node alone at its depth is an ancestor of every deeper node, so the
    # nodes bearing evidence are exactly those at or above the deepest observed one.
    n = min(n, deepest - depth + 1)
    if n <= 0:
        return
    marked[r][top] = True
    (means, _, flat), (lam, lam2) = moments[k], combined[k]
    c, lam, lam2 = means[row : row + n * r].reshape(n, r, k), lam[slot : slot + n], lam2[slot : slot + n]
    tops = combined[r][0][top], combined[r][1][top]
    rows = c, c.transpose(0, 2, 1), flat[row : row + n * r].reshape(n, r, k * k)
    lam2f = lam2.reshape(n, k * k)  # a link writes the parent's message, flat and its diagonal too
    outs = lam, lam2, lam2f, lam2f[:, :: k + 1]
    top_outs = *tops, None, tops[1].reshape(r * r)[:: r + 1]
    tmp, diag = np.empty((r, k)), np.empty(r)
    observed = seen_at[bisect_left(seen_at, depth) : bisect_left(seen_at, depth + n)]
    cuts = sorted({0, n, *(d - depth + 1 for d in observed)}, reverse=True) if observed else (n, 0)
    for hi, lo in zip(cuts, cuts[1:]):  # nodes ``hi - 1`` up to ``lo``
        if depth + hi - 1 in seen:
            _indicators(combined, seen[depth + hi - 1], marked)
        lm, lm2, lm2f = lam[hi - 1], lam2[hi - 1], lam2f[hi - 1]  # then the last link's outputs
        above = [reversed(x[lo - 1 : hi - 1]) if lo else chain(reversed(x[: hi - 1]), (x_top,))
                 for x, x_top in zip(outs, top_outs)]
        for c, ct, flat, m, s, sf, sd in zip(*(reversed(x[lo:hi]) for x in rows), *above):
            c.dot(lm, m)
            c.dot(lm2, tmp).dot(ct, s)
            sd[...] = flat.dot(lm2f, diag)
            lm, lm2, lm2f = m, s, sf


def _segment_down(seg: ChainSegment, below, below_at, moments, down, off: np.ndarray, start: int = 0) -> None:
    """From the top down, send each node of a chain segment its parent
    message, without the division by ``D`` (see :func:`propagate`); a child
    of an observed node gets the observed row's moments instead.  The first
    ``start`` nodes already hold theirs.  A link views its rows and its
    outputs (its message, with its diagonal), the next link's inputs."""
    depth, n, k, r, slot, row, top = seg
    (means, _, flat), (q, t) = moments[k], down[k]
    c = means[row : row + n * r].reshape(n, r, k)
    q, t, tops = q[slot : slot + n], t[slot : slot + n], (down[r][0][top], down[r][1][top])
    rows = c, c.transpose(0, 2, 1), flat[row : row + n * r].reshape(n, r, k * k)
    outs, top_outs = (q, t, t.diagonal(0, 1, 2)), (*tops, tops[1].diagonal())
    tmp, tmp2, diag, extra = np.empty((r, r)), np.empty((k, r)), np.empty(r), np.empty((k, k))
    extra_flat = extra.reshape(k * k)
    children = [d - depth for d in below_at[bisect_left(below_at, depth) : bisect_left(below_at, depth + n)]]
    for run, (lo, hi) in enumerate(zip([start, *(j + 1 for j in children)], [*children, n])):  # ``lo .. hi - 1``
        if run:
            _observed_rows(down, moments, below[depth + lo - 1])
        pq, pt, ptd = (x[lo - 1] for x in outs) if lo else top_outs  # then the last link's outputs
        for c, ct, flat, m, s, sd in zip(*(x[lo:hi] for x in rows), *(x[lo:hi] for x in outs)):
            pq.dot(c, m)  # the other children's message is the unit message: D = sum(q) stays in
            np.multiply(pt, off, tmp)
            ct.dot(tmp, tmp2).dot(c, s)
            diag[...] = ptd
            diag.dot(flat, extra_flat)
            s += extra
            pq, pt, ptd = m, s, sd


def _prior_path(steps, moments) -> tuple:
    """The prior parent messages of the leading path, the chain segments
    that open ``steps``: one read-only ``(q, T)`` pair per segment, shaped
    like its slice of a :class:`MessageState`'s, swept by
    :func:`_segment_down` from the root's own row moments.
    :func:`~treebelief.model.validate_network` keeps them as
    ``LevelPlan.prior``."""
    lead = tuple(takewhile(lambda step: isinstance(step, ChainSegment), steps))
    if not lead:
        return ()
    n = 1 + sum(seg.n for seg in lead)  # a path node's slot is at most its depth
    down = {k: (np.empty((n, k)), np.empty((n, k, k))) for k in {lead[0].r, *(seg.k for seg in lead)}}
    k, i = lead[0].r, lead[0].parent
    down[k][0][i], down[k][1][i] = moments[k][0][0], moments[k][1][0]
    for seg in lead:
        _segment_down(seg, {}, [], moments, down, 1.0 - np.eye(seg.r))
    return tuple(tuple(_frozen(x[seg.slot : seg.slot + seg.n].copy()) for x in down[seg.k]) for seg in lead)


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


def _sweep_up(plan, seen, combined, others) -> None:
    """Send each evidence-bearing node's message to its parent and form the
    sibling products at each parent of such a node (see :func:`propagate`).

    ``marked[k]`` flags the slots found to bear evidence: at each depth, its
    observed nodes, then the parents of that depth's marked nodes.  Every
    other message keeps its unit fill.  A level gathers the messages and
    rows of its marked nodes, a view where they are consecutive, and writes
    their messages into ``others`` at their positions; each run of siblings
    with a marked parent then gives its parent their product and turns them
    into leave-one-out products in place.  A level deeper than every
    observed node has no marked node and is skipped whole.
    """
    if not seen:
        return
    moments, deepest, seen_at = plan.moments, max(seen), sorted(seen)
    marked = {k: np.zeros(len(starts), bool) for k, starts in plan.row_start.items()}
    for step in reversed(plan.steps):
        if isinstance(step, ChainSegment):
            _segment_up(step, deepest, seen, seen_at, moments, combined, marked)
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
            others[r][0][pos], others[r][1][pos] = (c @ lam[:, :, None])[:, :, 0], second
            marked[r][_pick(parents, sel)] = True
        for r, m, kids, parents in runs:
            hit, p = marked[r][parents].nonzero()[0], (kids.stop - kids.start) // m
            if not hit.size:
                continue
            sel = _span(hit)
            parents = _pick(parents, sel)
            for j, shape in ((0, (p, m, r)), (1, (p, m, r, r))):
                x = others[r][j][kids].reshape(shape)
                if isinstance(sel, slice):
                    combined[r][j][parents] = _segment_products(x[sel])
                else:  # gathered: the leave-one-out products go back from a copy
                    part = x[sel]
                    combined[r][j][parents] = _segment_products(part)
                    x[sel] = part
    if 0 in seen:
        _indicators(combined, seen[0], marked)


def _sweep_down(net: ValidatedNetwork, below, down, others, shallowest: int) -> None:
    """Send each node its parent message, from the root's own row moments
    down (see :func:`propagate`).  On the leading path, the prior messages
    down to depth ``shallowest`` are copied from ``plan.prior``.  A level
    child whose ``D`` is zero takes the stand-in ``D = 1`` and never raises:
    its island's top then has ``D == 0`` too, which every report rejects
    (:func:`_check_islands`)."""
    plan, moments, below_at = net.plan, net.plan.moments, sorted(below)
    off = {r: 1.0 - np.eye(r) for r in down}  # zeroes a diagonal exactly
    _, k, i = plan.slot[net.root]
    down[k][0][i], down[k][1][i] = moments[k][0][0], moments[k][1][0]
    for seg, kept in zip(plan.steps, plan.prior):
        start = min(seg.n, max(shallowest - seg.depth + 1, 0))
        if start:
            for x, part in zip(down[seg.k], kept):
                x[seg.slot : seg.slot + start] = part[:start]
        if start < seg.n:  # a segment copied whole holds no child of an observed node
            _segment_down(seg, below, below_at, moments, down, off[seg.r], start)
    for step in plan.steps[len(plan.prior) :]:
        if isinstance(step, ChainSegment):
            _segment_down(step, below, below_at, moments, down, off[step.r])
            continue
        depth, groups, _ = step
        for r, k, slots, rows, pos, parents in groups:
            q, t = down[r][0][parents], down[r][1][parents]
            m, s = others[r][0][pos], others[r][1][pos]
            denom = (m[:, None, :] @ q[:, :, None])[:, 0, 0]
            denom[denom == 0.0] = 1.0  # stand-ins
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
    evidence is impossible on average and takes the stand-in ``D = 1``; the
    report's island check raises :class:`InconsistentEvidence`
    (:func:`_check_islands`), so ``propagate`` itself never does.
    In a chain segment ``m`` and ``S`` are all ones, so ``D = sum_j q[j] > 0``;
    it keeps ``q' = q``, ``T' = T``, a scale every later ``D`` divides out.
    Upward, only nodes with an instantiated node at or below them are
    computed: every other message keeps its unit fill, exact as every row
    sums to one with certainty.  Downward, the leading path's parent
    messages down to the shallowest instantiated node are the prior ones
    that validation kept (``LevelPlan.prior``), copied.  A query writes
    only to the state it returns, never to the network.
    """
    check_evidence(net, evidence)
    state = MessageState(net, evidence)
    plan, seen, below = net.plan, {}, {}  # per depth: observed (slot, alternative) per k, children's rows
    for node_id, alt in evidence.items():
        d, k, i = plan.slot[node_id]
        seen.setdefault(d, {}).setdefault(k, []).append((i, alt))
        found = _observed_children(net, node_id, alt)
        if found:
            below.setdefault(d + 1, []).extend(found)
            state._children += found
    _sweep_up(plan, seen, state._combined, state._others)
    _sweep_down(net, below, state._parent, state._others, min(seen, default=len(plan.places)))
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
    children, a term that ``any`` reads as nonzero (NaN too) keeping a top
    live; observed children are among them, harmlessly, since their
    ``D`` is their observed row entry, which passed the first check.  The
    first top with ``D == 0`` is named: the root, then the children of
    instantiated nodes in evidence order and child order.
    """
    net, evidence, slot = state.net, state.evidence, state.net.plan.slot
    check_observed_entries(net, evidence)
    runs = {}  # k -> slot ranges of the tops, as slices
    if net.root not in evidence:
        _, k, i = slot[net.root]
        runs[k] = [slice(i, i + 1)]
    for k, slots, _ in state._children:
        runs.setdefault(k, []).append(slots)
    zero = set()
    for k, spans in runs.items():
        at = np.concatenate([np.arange(s.start, s.stop) for s in spans])
        terms = state._combined[k][0].take(at, 0) * state._parent[k][0].take(at, 0)
        live = (terms != 0.0) @ np.ones(k, bool)  # a row-wise ``any``, faster on many short rows
        if not live.all():
            zero.update((k, i) for i in at[~live].tolist())
    if zero:
        tops = [] if net.root in evidence else [net.root]
        tops += [c for node_id in evidence for c in net.nodes[node_id].children]
        top = next(top for top in tops if slot[top][1:] in zero)
        raise InconsistentEvidence(f"evidence at node {top!r} has zero mean probability")


def posterior_report(
    state: MessageState, nodes: Optional[Sequence[str]] = None
) -> Dict[str, NodeReport]:
    """Read the inferred probabilities, second moments and variances of
    several nodes (all by default, in ``net.order``), one pass per
    alternative count: ``D = sum_j m[j] q[j]``, ``mean = m q / D`` and
    ``second = diag(S) diag(T) / D**2`` condition each node's parent message
    ``(q, T)`` on its combined child message ``(m, S)``, read as views where
    a count's slots run up by one.  Means are exact; second moments inherit
    the mean-denominator approximation.  Variances are clamped at zero (and
    the report flagged) when rounding pushes them slightly negative.  An
    instantiated node reports its observed alternative with zero variance.
    An evidence island with a zero ``D`` raises :class:`InconsistentEvidence`
    (:func:`_check_islands`), whichever nodes are asked for; then, of the
    nodes with a zero ``D`` or a variance below ``VARIANCE_FLOOR``, the first
    raises :class:`InconsistentEvidence` or :class:`NegativeVariance`.
    """
    plan = state.net.plan
    if nodes is None:  # (depth, k, slot) per id, then the observed alternative or -1
        ids, found = state.net.order, plan.places
    else:
        ids = list(nodes)
        try:
            found = np.fromiter(chain.from_iterable(map(plan.slot.__getitem__, ids)), np.intp, 3 * len(ids))
        except (KeyError, TypeError):  # TypeError: an unhashable id
            for node_id in ids:
                state.net.node(node_id)  # raises UnknownNode at the first unknown id
        found = found.reshape(len(ids), 3)
    _check_islands(state)
    n = len(ids)
    alts = np.fromiter(map(state.evidence.get, ids, repeat(-1)), np.intp, n)
    ks, failures = np.flatnonzero(np.bincount(found[:, 1])).tolist(), []
    one = len(ks) == 1  # one pass builds the dict, in ``ids`` order; else the keys come first
    names, reports = (ids, {}) if one else (np.array(ids, dtype=object), dict.fromkeys(ids))
    for k in ks:
        where = slice(None) if one else np.flatnonzero(found[:, 1] == k)
        (m, s), (q, t), alt = state._combined[k], state._parent[k], alts[where]
        slots, hit = found[where, 2], alt >= 0
        if (np.diff(slots) == 1).all():
            slots = slice(slots[0], slots[-1] + 1)  # messages as views, not copies
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
            failures.append((int(bad[0] if one else where[bad[0]]), bool(zero[bad[0]]), float(low[bad[0]])))
        variance, clamped = np.maximum(variance, 0.0), (low < 0.0).tolist()
        named = names if one else names[where]  # records made by tuple.__new__, past NodeReport.__new__
        records = map(tuple.__new__, repeat(NodeReport), zip(named, mean, second, variance, clamped))
        reports.update(zip(named, records))
    if failures:
        n, zero, low = min(failures)
        if zero:
            raise InconsistentEvidence(f"evidence at node {ids[n]!r} has zero mean probability")
        raise NegativeVariance(f"node {ids[n]!r}: variance {low} below {VARIANCE_FLOOR}")
    return reports

