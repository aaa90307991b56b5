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
run of one-node depths, as on a chain, is a chain segment, swept in one
loop of 2-D ``dot`` steps; a lone child's message is its parent's product,
copied.  Both paths add the same terms in the same order, so they agree bit
for bit.  Evidence swaps rows in: an instantiated node's combined message is
the indicator of its observed alternative, and its children receive the
observed row's moments.  Every diagonal sum over row second moments is one
``dot`` with them viewed flat, ``(rows, k * k)``.  The tests bound the move
from the ``einsum`` form of these sums at 1e-13 of a node's largest second
moment, with means bit for bit.

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

from itertools import chain, repeat
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import InconsistentEvidence, NegativeVariance
from .model import ValidatedNetwork, check_evidence

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
        counts, sib = {k: len(ids) for k, ids in net.plan.ids.items()}, net.plan.sib_counts
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
        """The message an uninstantiated node (or the root) receives from above."""
        _, k, i, _, _ = self._slot(node_id)
        return self._parent[k][0][i], self._parent[k][1][i]


def _segment_products(x: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Each segment's product of the ``m`` messages in ``x[p]``, ``x`` shaped
    ``(P, m, ...)``; ``others[p, i]`` gets the product of the other ``m - 1``.

    The empty product is the unit message.  Forward and reversed cumulative
    products end in the full product, and prefix times suffix leaves one out,
    free of division, which a zero would break.
    """
    m = x.shape[1]
    if m < 2:
        others[...] = 1.0
        return x[:, 0] if m else np.ones(x.shape[:1] + x.shape[2:])
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
    for step in reversed(plan.steps):
        if isinstance(step, np.ndarray):  # a chain segment, up from depth ``deepest``
            for depth, k, r, i, row, pos, parent in zip(*step[:, step[0] <= deepest][:, ::-1].tolist()):
                if depth in seen:
                    _indicators(combined, seen[depth])
                (means, _, flat), lam, lam2 = moments[k], combined[k][0][i], combined[k][1][i]
                c, mean, second = means[row : row + r], up[r][0][pos], up[r][1][pos]
                np.dot(c, lam, out=mean)
                np.dot(c.dot(lam2), c.T, out=second)
                second.reshape(r * r)[:: r + 1] = flat[row : row + r].dot(lam2.reshape(k * k))
                combined[r][0][parent], combined[r][1][parent] = mean, second  # the only child
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

    unit = {r: np.ones(r) for r in others}  # the sibling product of a lone child
    off = {r: 1.0 - np.eye(r) for r in others}  # zeroes a diagonal exactly
    _, k, i, _, _ = plan.slot[net.root]
    down[k][0][i], down[k][1][i] = moments[k][0][0], moments[k][1][0]
    for step in plan.steps:
        if isinstance(step, np.ndarray):  # a chain segment, from its top node
            for depth, k, r, i, row, pos, parent in zip(*step.tolist()):
                if depth in below:
                    _observed_rows(down, moments, below[depth])
                    continue
                c, mean, second = moments[k][0][row : row + r], down[k][0][i], down[k][1][i]
                q, t = down[r][0][parent], down[r][1][parent]
                d = unit[r].dot(q)  # m is the unit message: D sums a distribution, never 0
                dd = d * d
                t2, diag = t * off[r] / dd, t.diagonal() / dd
                np.dot(q / d, c, out=mean)
                np.dot(c.T.dot(t2), c, out=second)
                second += diag.dot(moments[k][2][row : row + r]).reshape(k, k)
            continue
        depth, groups, _ = step
        for r, k, slots, rows, pos, parents in groups:
            q, t = down[r][0][parents], down[r][1][parents]
            m, s = others[r][0][pos], others[r][1][pos]
            denom = (m[:, None, :] @ q[:, :, None])[:, 0, 0]
            for j in np.flatnonzero(denom == 0.0):  # a stand-in, if evidence swaps it out
                node_id = plan.ids[k][slots.start + j]
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


def _reports(state: MessageState, ids: Sequence[str]) -> Dict[str, NodeReport]:
    """Condition each node's parent message ``(q, T)`` on its combined child
    message ``(m, S)``, per alternative count: ``D = sum_j m[j] q[j]``,
    ``mean = m q / D`` and ``second = diag(S) diag(T) / D**2``.  Of the nodes
    with a zero ``D`` or a variance below ``VARIANCE_FLOOR``, the first raises.
    """
    plan, n = state.net.plan, len(ids)
    try:  # (depth, k, slot, r, position) per id, then the observed alternative or -1
        found = np.fromiter(chain.from_iterable(map(plan.slot.__getitem__, ids)), np.intp, 5 * n)
    except KeyError as missing:
        state.net.node(missing.args[0])  # raises UnknownNode
    found, alts = found.reshape(n, 5), np.fromiter(map(state.evidence.get, ids, repeat(-1)), np.intp, n)
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
        reports.update(zip(names[where], map(NodeReport, names[where], mean, second, variance, clamped)))
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
    return _reports(state, list(nodes) if nodes is not None else list(state.net.order))
