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

Within one depth these products are independent, so the sweep runs level by
level over the :class:`~treebelief.model.LevelPlan` compiled at validation,
one batched ``matmul``/``einsum`` per level group.  Sibling products are
segmented cumulative products (:func:`_segment_products`).  Evidence swaps
rows in: an instantiated node's combined message is the indicator of its
observed alternative, and its children receive the observed row's moments.
Each product adds the same terms in the same order as a node-by-node sweep;
only the order in which levels and nodes are visited changed.  A level of
one node, as on a chain, skips the batching: it takes a plain 2-D step of
``ndarray.dot`` and the same ``einsum`` sums, bit-identical to the batched
one at about half its cost, and its parent's lone child message is copied,
not multiplied.

Normalizing denominators are always sums of *mean* values; as a consequence
posterior second moments are approximations (exact for means and for all
prior queries) and a reported variance can fall a hair below zero, which the
report clamps and flags.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import InconsistentEvidence, NegativeVariance
from .model import ValidatedNetwork, check_evidence

#: Reported variances below this are a hard error instead of a clamp.
VARIANCE_FLOOR = -1e-9


@dataclass(frozen=True)
class NodeReport:
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
        self._upward, self._others = stack(sib, np.empty), stack(sib, np.ones)

    def combined(self, node_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """The product of a node's child messages (if instantiated, its indicator)."""
        _, k, i, _, _ = self.net.plan.slot[node_id]
        return self._combined[k][0][i], self._combined[k][1][i]

    def upward(self, node_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """A non-root node's message to its parent (``KeyError`` at the root)."""
        _, _, _, r, pos = self.net.plan.slot[node_id]
        return self._upward[r][0][pos], self._upward[r][1][pos]

    def parent(self, node_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """The message an uninstantiated node (or the root) receives from above."""
        _, k, i, _, _ = self.net.plan.slot[node_id]
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


def _evidence_swaps(state: MessageState):
    """Per depth and ``k``, ``(slot, alternative)`` of each instantiated node
    and ``(slot, row)`` of each of their children, ``row`` in the moments."""
    plan, seen, below = state.net.plan, {}, {}
    for node_id, alt in state.evidence.items():
        d, k, i, _, _ = plan.slot[node_id]
        seen.setdefault(d, {}).setdefault(k, []).append((i, alt))
        for c in state.net.nodes[node_id].children:
            _, kc, ic, _, _ = plan.slot[c]
            below.setdefault(d + 1, {}).setdefault(kc, []).append((ic, plan.row_start[kc][ic] + alt))
    return seen, below


def _zero_denominator(state: MessageState, node_id: str) -> float:
    """The stand-in 1.0 for a zero downward denominator at ``node_id``; raises
    :class:`InconsistentEvidence` unless evidence swaps its message out."""
    parent = state.net.nodes[node_id].parent
    if node_id not in state.evidence and parent not in state.evidence:
        raise InconsistentEvidence(f"evidence reaching {node_id!r} through "
                                   f"{parent!r} has zero mean probability")
    return 1.0  # evidence swaps this message out, or nothing reads it


def propagate(net: ValidatedNetwork, evidence: Mapping[str, int]) -> MessageState:
    """Run a full collect/distribute sweep and return the resulting state.

    Upward, from the deepest level to the root, a group with combined
    messages ``(lam, Lam)`` and row means ``C[i, k] = E(p(g_k | f_i))`` sends::

        mean[i]      = sum_k lam[k] C[i, k]
        second[i, j] = sum_{k, r} Lam[k, r] C[i, k] C[j, r]   (i != j)
        second[i, i] = sum_{k, r} Lam[k, r] E(p(g_k|f_i) p(g_r|f_i))

    Downward, from the root's own row moments, each parent message ``(q, T)``
    is conditioned on the product ``(m, S)`` of the other children's messages
    and pushed through the child's rows, ``M_j`` row ``j``'s second moments::

        D = sum_j m[j] q[j],   q' = m q / D,   T' = S T / D**2
        mean[i]      = sum_j C[j, i] q'[j]
        second[i, l] = sum_{j != k} T'[j, k] C[j, i] C[k, l] + sum_j T'[j, j] M_j[i, l]

    ``D == 0`` means the evidence is impossible on average and raises
    :class:`InconsistentEvidence`.
    """
    check_evidence(net, evidence)
    state = MessageState(net, evidence)
    plan = net.plan
    combined, down, up, others = state._combined, state._parent, state._upward, state._others
    seen, below_seen = _evidence_swaps(state)

    for depth in range(len(plan.levels) - 1, -1, -1):
        groups, runs = plan.levels[depth]
        for r, m, kids, parents in runs:
            if type(kids) is int:  # one parent, one child: the product is that message
                combined[r][0][parents], combined[r][1][parents] = up[r][0][kids], up[r][1][kids]
                continue
            p = (kids.stop - kids.start) // m
            for j, shape in ((0, (p, m, r)), (1, (p, m, r, r))):
                combined[r][j][parents] = _segment_products(
                    up[r][j][kids].reshape(shape), others[r][j][kids].reshape(shape)
                )
        for k, pairs in seen.get(depth, {}).items():
            slots, alts = map(list, zip(*pairs))
            indicators = np.eye(k)[alts]
            combined[k][0][slots] = indicators
            combined[k][1][slots] = indicators[:, :, None] * indicators[:, None, :]
        for r, k, slots, rows, pos, _ in groups if depth else ():
            if type(slots) is int:  # a one-node level: the same sums, unbatched
                c, lam2 = plan.moments[k][0][rows], combined[k][1][slots]
                second = up[r][1][pos]
                np.dot(c.dot(lam2), c.T, out=second)
                second.flat[:: r + 1] = np.einsum("kr,ikr->i", lam2, plan.moments[k][1][rows])
                up[r][0][pos] = c.dot(combined[k][0][slots])
                continue
            g = slots.stop - slots.start
            mean_rows = plan.moments[k][0][rows].reshape(g, r, k)
            lam, lam2 = combined[k][0][slots], combined[k][1][slots]
            second = mean_rows @ lam2 @ mean_rows.transpose(0, 2, 1)
            second.reshape(g, r * r)[:, :: r + 1] = np.einsum(
                "gkr,gikr->gi", lam2, plan.moments[k][1][rows].reshape(g, r, k, k)
            )
            up[r][0][pos] = (mean_rows @ lam[:, :, None])[:, :, 0]
            up[r][1][pos] = second

    _, k, i, _, _ = plan.slot[net.root]
    down[k][0][i], down[k][1][i] = plan.moments[k][0][0], plan.moments[k][1][0]
    for depth in range(1, len(plan.levels)):
        for r, k, slots, rows, pos, parents in plan.levels[depth][0]:
            q, t = down[r][0][parents], down[r][1][parents]
            m, s = others[r][0][pos], others[r][1][pos]
            if type(slots) is int:  # a one-node level: the same sums, unbatched
                d = m.dot(q)
                if d == 0.0:
                    d = _zero_denominator(state, plan.ids[k][slots])
                q2, t2 = q / d, t / (d * d)  # m and s are ones: the parent has one child
                c, diag, second = plan.moments[k][0][rows], t2.diagonal(), down[k][1][slots]
                np.dot(q2, c, out=down[k][0][slots])
                np.dot(c.T.dot(t2), c, out=second)
                second += np.einsum("j,jab->ab", diag, plan.moments[k][1][rows])
                second -= c.T.dot(diag[:, None] * c)
                continue
            denom = (m[:, None, :] @ q[:, :, None])[:, 0, 0]
            if not denom.all():
                for j in np.flatnonzero(denom == 0.0):
                    denom[j] = _zero_denominator(state, plan.ids[k][slots.start + j])
            q2 = m * q / denom[:, None]
            t2 = s * t / (denom * denom)[:, None, None]
            g = slots.stop - slots.start
            mean_rows = plan.moments[k][0][rows].reshape(g, r, k)
            to_child, diag = mean_rows.transpose(0, 2, 1), t2.diagonal(0, 1, 2)
            down[k][0][slots] = (q2[:, None, :] @ mean_rows)[:, 0]
            down[k][1][slots] = (
                to_child @ t2 @ mean_rows
                + np.einsum("gj,gjab->gab", diag, plan.moments[k][1][rows].reshape(g, r, k, k))
                - to_child @ (diag[:, :, None] * mean_rows)
            )
        for k, pairs in below_seen.get(depth, {}).items():
            slots, rows = map(list, zip(*pairs))
            down[k][0][slots], down[k][1][slots] = plan.moments[k][0][rows], plan.moments[k][1][rows]
    return state


def _reports(state: MessageState, ids: Sequence[str]) -> Dict[str, NodeReport]:
    """Condition each node's parent message ``(q, T)`` on its combined child
    message ``(m, S)``, per alternative count: ``D = sum_j m[j] q[j]``,
    ``mean = m q / D`` and ``second = diag(S) diag(T) / D**2``.  Of the nodes
    with a zero ``D`` or a variance below ``VARIANCE_FLOOR``, the first raises.
    """
    plan, evidence = state.net.plan, state.evidence
    picks, kinds = {}, []  # k -> (slots, positions in ids)
    for n, node_id in enumerate(ids):
        if node_id not in plan.slot:
            state.net.node(node_id)  # raises UnknownNode
        _, k, i, _, _ = plan.slot[node_id]
        slots, where = picks.setdefault(k, ([], []))
        slots.append(i)
        where.append(n)
        kinds.append(k)

    rows, failures = {}, []
    for k, (slots, where) in picks.items():
        (m, s), (q, t) = state._combined[k], state._parent[k]
        m, q, s, t = m[slots], q[slots], s.diagonal(0, 1, 2)[slots], t.diagonal(0, 1, 2)[slots]
        hit = [j for j, n in enumerate(where) if ids[n] in evidence]
        denom = (m[:, None, :] @ q[:, :, None])[:, 0, 0]
        zero = denom == 0.0
        zero[hit] = False
        denom[zero] = denom[hit] = 1.0
        mean = m * q / denom[:, None]
        second = s * t / (denom * denom)[:, None]
        variance = second - mean**2
        mean[hit] = second[hit] = np.eye(k)[[evidence[ids[where[j]]] for j in hit]]
        variance[hit] = 0.0
        low = variance.min(axis=1)
        bad = np.flatnonzero(zero | (low < VARIANCE_FLOOR))
        if bad.size:
            failures.append((where[bad[0]], bool(zero[bad[0]]), float(low[bad[0]])))
        rows[k] = iter(zip(mean, second, np.maximum(variance, 0.0), (low < 0.0).tolist()))
    if failures:
        n, zero, low = min(failures)
        if zero:
            raise InconsistentEvidence(f"evidence at node {ids[n]!r} has zero mean probability")
        raise NegativeVariance(f"node {ids[n]!r}: variance {low} below {VARIANCE_FLOOR}")
    return {node_id: NodeReport(node_id, *next(rows[k])) for node_id, k in zip(ids, kinds)}


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
