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
sums ``sum_k p(g_k|f_i)``, one with certainty.  The upward sweep therefore
starts at the deepest instantiated node, and a prior query is one downward sweep.

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
from .model import ChainSegment, ValidatedNetwork, check_evidence, check_observed_entries

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
    network may run concurrently with separate states.
    """

    __slots__ = ("net", "evidence", "_combined", "_parent", "_upward", "_others")

    def __init__(self, net: ValidatedNetwork, evidence: Mapping[str, int]):
        self.net, self.evidence = net, dict(evidence)
        stack = lambda counts, fill: {k: (fill((n, k)), fill((n, k, k))) for k, n in counts.items()}
        counts, sib = {k: len(starts) for k, starts in net.plan.row_start.items()}, net.plan.sib_counts
        self._combined, self._parent = stack(counts, np.ones), stack(counts, np.empty)
        self._upward, self._others = stack(sib, np.ones), stack(sib, np.ones)

    def _slot(self, node_id: str) -> tuple:
        self.net.node(node_id)  # raises UnknownNode outside the network
        return self.net.plan.slot[node_id]

    def combined(self, node_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """The product of a node's child messages (if instantiated, its indicator)."""
        _, k, i, _, _ = self._slot(node_id)
        return self._combined[k][0][i], self._combined[k][1][i]

    def upward(self, node_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """A non-root node's message to its parent (``KeyError`` at the root);
        the unit message below the deepest instantiated node, as rows sum to one."""
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


def _indicators(combined, pairs_by_k) -> None:
    """Swap in the indicator of each instantiated node's alternative."""
    for k, pairs in pairs_by_k.items():
        slots, alts = map(list, zip(*pairs))
        e = np.eye(k)[alts]
        combined[k][0][slots], combined[k][1][slots] = e, e[:, :, None] * e[:, None, :]


def _observed_rows(down, moments, pairs_by_k) -> None:
    """Send each child of an instantiated node the observed row's moments."""
    for k, pairs in pairs_by_k.items():
        slots, rows = map(list, zip(*pairs))
        down[k][0][slots], down[k][1][slots] = moments[k][0][rows], moments[k][1][rows]


def _segment_up(seg: ChainSegment, deepest: int, seen, seen_at, moments, combined, up) -> None:
    """From the bottom up, send each node of a chain segment at or above depth
    ``deepest`` its message to its parent: straight into the parent's
    combined message (the only child's), copied into ``up`` a run at a time.
    An observed node's indicator is swapped in just before its own link."""
    depth, n, k, r, slot, row, pos, top = seg
    n = min(n, deepest - depth + 1)  # below the deepest observed node, every message is the unit message
    if n <= 0:
        return
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
            _indicators(combined, seen[depth + hi - 1])
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


def _segment_down(seg: ChainSegment, below, below_at, moments, down, off: np.ndarray) -> None:
    """From the top down, send each node of a chain segment its parent
    message, without the division by ``D`` (see :func:`propagate`); a child
    of an observed node gets the observed row's moments instead."""
    depth, n, k, r, slot, row, _, top = seg
    (means, _, flat), (q, t) = moments[k], down[k]
    c = means[row : row + n * r].reshape(n, r, k)
    q, t, tops = q[slot : slot + n], t[slot : slot + n], (down[r][0][top], down[r][1][top])
    views = c, c.transpose(0, 2, 1), flat[row : row + n * r].reshape(n, r, k * k), q, t
    parents = (q, tops[0]), (t, tops[1]), (t.diagonal(0, 1, 2), tops[1].diagonal())
    tmp, tmp2, diag, extra = np.empty((r, r)), np.empty((k, r)), np.empty(r), np.empty((k, k))
    extra_flat = extra.reshape(k * k)
    children = [d - depth for d in below_at[bisect_left(below_at, depth) : bisect_left(below_at, depth + n)]]
    for lo, hi in zip([0, *(j + 1 for j in children)], [*children, n]):  # nodes ``lo .. hi - 1``
        if lo:
            _observed_rows(down, moments, below[depth + lo - 1])
        above = [x[lo - 1 : hi - 1] if lo else chain((x_top,), x[: hi - 1]) for x, x_top in parents]
        for c, ct, flat, m, s, pq, pt, ptd in zip(*(x[lo:hi] for x in views), *above):
            pq.dot(c, out=m)  # the other children's message is the unit message: D = sum(q) stays in
            np.multiply(pt, off, out=tmp)
            ct.dot(tmp, out=tmp2).dot(c, out=s)
            diag[...] = ptd
            diag.dot(flat, out=extra_flat)
            s += extra


def propagate(net: ValidatedNetwork, evidence: Mapping[str, int]) -> MessageState:
    """Run a full collect/distribute sweep and return the resulting state.

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
    Upward, nothing deeper than every instantiated node is computed: each such
    message keeps its unit fill, exact as every row sums to one with certainty.
    """
    check_evidence(net, evidence)
    state = MessageState(net, evidence)
    plan, moments = net.plan, net.plan.moments
    combined, down, up, others = state._combined, state._parent, state._upward, state._others
    seen, below = {}, {}  # per depth and k: observed (slot, alternative), their children's (slot, row)
    for node_id, alt in evidence.items():
        d, k, i, _, _ = plan.slot[node_id]
        seen.setdefault(d, {}).setdefault(k, []).append((i, alt))
        for c in net.nodes[node_id].children:
            _, kc, ic, _, _ = plan.slot[c]
            below.setdefault(d + 1, {}).setdefault(kc, []).append((ic, plan.row_start[kc][ic] + alt))

    deepest = max(seen, default=-1)  # below it every message is the unit message
    seen_at, below_at = sorted(seen), sorted(below)
    for step in reversed(plan.steps):
        if isinstance(step, ChainSegment):
            _segment_up(step, deepest, seen, seen_at, moments, combined, up)
            continue
        depth, groups, runs = step
        if depth > deepest:
            continue
        _indicators(combined, seen.get(depth, {}))
        for r, k, slots, rows, pos, _ in groups:
            g = slots.stop - slots.start
            c = moments[k][0][rows].reshape(g, r, k)
            lam, lam2 = combined[k][0][slots], combined[k][1][slots]
            second = c @ lam2 @ c.transpose(0, 2, 1)
            diag = moments[k][2][rows].reshape(g, r, k * k) @ lam2.reshape(g, k * k, 1)
            second.reshape(g, r * r)[:, :: r + 1] = diag[:, :, 0]
            up[r][0][pos], up[r][1][pos] = (c @ lam[:, :, None])[:, :, 0], second
        for r, m, kids, parents in runs:
            p = (kids.stop - kids.start) // m
            for j, shape in ((0, (p, m, r)), (1, (p, m, r, r))):
                combined[r][j][parents] = _segment_products(
                    up[r][j][kids].reshape(shape), others[r][j][kids].reshape(shape)
                )
    _indicators(combined, seen.get(0, {}))

    off = {r: 1.0 - np.eye(r) for r in others}  # zeroes a diagonal exactly
    _, k, i, _, _ = plan.slot[net.root]
    down[k][0][i], down[k][1][i] = moments[k][0][0], moments[k][1][0]
    for step in plan.steps:
        if isinstance(step, ChainSegment):
            _segment_down(step, below, below_at, moments, down, off[step.r])
            continue
        depth, groups, _ = step
        for r, k, slots, rows, pos, parents in groups:
            q, t = down[r][0][parents], down[r][1][parents]
            m, s = others[r][0][pos], others[r][1][pos]
            denom = (m[:, None, :] @ q[:, :, None])[:, 0, 0]
            for j in np.flatnonzero(denom == 0.0):  # a stand-in, if evidence swaps it out
                node_id = next(n for n, at in plan.slot.items() if at[1:3] == (k, slots.start + j))
                parent = net.nodes[node_id].parent
                if node_id not in evidence and parent not in evidence:
                    raise InconsistentEvidence(f"evidence reaching {node_id!r} through "
                                               f"{parent!r} has zero mean probability")
                denom[j] = 1.0
            t2 = s * t / (denom * denom)[:, None, None]
            g = slots.stop - slots.start
            diag = t2.diagonal(0, 1, 2)[:, None, :].copy()
            t2.reshape(g, r * r)[:, :: r + 1] = 0.0
            c = moments[k][0][rows].reshape(g, r, k)
            down[k][0][slots] = ((m * q / denom[:, None])[:, None, :] @ c)[:, 0]
            flat = moments[k][2][rows].reshape(g, r, k * k)
            down[k][1][slots] = c.transpose(0, 2, 1) @ t2 @ c + (diag @ flat).reshape(g, k, k)
        _observed_rows(down, moments, below.get(depth, {}))
    return state


def _check_islands(state: MessageState) -> None:
    """Raise :class:`InconsistentEvidence` if a factor of the mean evidence
    probability is zero.

    The factors of observed rows come first (:func:`check_observed_entries`).
    An island is a set of uninstantiated nodes joined without crossing an
    instantiated one.  Its top, the root or a child of an instantiated node,
    holds the island's mean evidence probability as its ``D = sum_j m[j] q[j]``,
    zero exactly when every term is, since none is negative.  The first top
    with ``D == 0``, the root before the others, is named.
    """
    net, evidence, slot = state.net, state.evidence, state.net.plan.slot
    check_observed_entries(net, evidence)
    tops = [] if net.root in evidence else [net.root]
    tops += [c for node_id in evidence for c in net.nodes[node_id].children if c not in evidence]
    by_k, zero = {}, set()
    for top in tops:
        _, k, i, _, _ = slot[top]
        by_k.setdefault(k, []).append(i)
    for k, slots in by_k.items():
        at = np.array(slots)
        terms = state._combined[k][0].take(at, 0) * state._parent[k][0].take(at, 0)
        zero.update((k, i) for i, any_term in zip(slots, terms.any(axis=1).tolist()) if not any_term)
    if zero:
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


def query_node(node_id: str, state: MessageState) -> NodeReport:
    """Read one node's inferred probabilities, second moments and variances.

    The parent message conditioned on the combined child message, by the
    code of :func:`posterior_report`.  Means are exact; second moments inherit
    the mean-denominator approximation.  Variances are clamped at zero (and
    the report flagged) when rounding pushes them slightly negative; anything
    below ``VARIANCE_FLOOR`` raises :class:`NegativeVariance`.  An
    instantiated node reports its observed alternative with zero variance.
    """
    return _reports(state, [node_id])[node_id]


def posterior_report(
    state: MessageState, nodes: Optional[Sequence[str]] = None
) -> Dict[str, NodeReport]:
    """Query several nodes (all by default), one pass per alternative count."""
    return _reports(state, None if nodes is None else list(nodes))
