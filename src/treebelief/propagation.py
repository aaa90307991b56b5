"""Message passing that carries second moments alongside probabilities.

Inference is one collect-then-distribute sweep over ``net.order`` and costs
time linear in the number of nodes.  The upward (collect) phase sends each
node's parent a child message: the expected likelihood of the evidence in
that subtree per receiving alternative, together with the full matrix of
second moments of those likelihoods.  The downward (distribute) phase sends
each node a parent message: the node's distribution conditioned on all
evidence *not* below it, again with second moments.  A query combines both
at a node and normalizes by the mean evidence probability.

Messages are internal: a :class:`Message` is a plain ``(mean, second)`` pair
of arrays.  The row moments they are built from were checked once by
:func:`~treebelief.model.validate_network`, so no message is checked again.

Two structural facts make the recurrences exact products and sums:

* distinct conditional rows have independent uncertainty, so a cross moment
  ``E(p(g_k|f_i) p(g_r|f_j))`` factors into a product of means whenever
  ``i != j``, and is read off the row's second-moment matrix when ``i == j``;
* sibling subtrees hang on disjoint uncertainty, so messages from several
  children combine by elementwise products of means and of second-moment
  matrices.

Four helpers carry the recurrences.  :func:`_siblings` forms each node's
product of child messages and every leave-one-out product, once per sweep.
:func:`_child_to_parent` pushes evidence up through a node's rows; an
instantiated node sends the indicator of its observed alternative, so
subtree evidence below it never enters.  :func:`_condition` conditions a
distribution on evidence; :func:`_parent_to_child` and :func:`query_node`
both use it.  Children of an instantiated node receive the observed row's
moments directly.  Normalizing denominators are always sums of *mean*
values; as a consequence posterior second moments are approximations
(exact for means and for all prior queries) and a reported variance can fall
a hair below zero, which :func:`query_node` clamps and flags.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import InconsistentEvidence, NegativeVariance
from .model import ValidatedNetwork, ValidatedNode, check_evidence

#: Reported variances below this are a hard error instead of a clamp.
VARIANCE_FLOOR = -1e-9


class Message(NamedTuple):
    """Means ``(k,)`` and second moments ``(k, k)`` of one message.

    A child message holds subtree-evidence likelihoods, with no sum-to-one
    constraint; a parent message holds a distribution whose means sum to 1.
    """

    mean: np.ndarray
    second: np.ndarray


@dataclass(frozen=True)
class NodeReport:
    """Inferred probabilities for one node with second moments and variances."""

    node: str
    mean: np.ndarray
    second: np.ndarray
    variance: np.ndarray
    clamped: bool = False


@dataclass
class MessageState:
    """All messages of one propagation run over an immutable network.

    ``combined`` holds each uninstantiated node's product of child messages,
    ``upward`` each non-root node's message to its parent, and ``parent``
    the message each uninstantiated node (and the root) receives from above.
    A state is confined to one query thread; distinct queries on the same
    network may run concurrently with separate states.
    """

    net: ValidatedNetwork
    evidence: Dict[str, int]
    combined: Dict[str, Message] = field(default_factory=dict)
    upward: Dict[str, Message] = field(default_factory=dict)
    parent: Dict[str, Message] = field(default_factory=dict)


def _siblings(messages: Sequence[Message], dim: int) -> Tuple[Message, List[Message]]:
    """The product of sibling messages, and for each the product of the others.

    Means multiply elementwise and second-moment matrices entry by entry; the
    empty product is the unit message (vacuous evidence).  Prefix products
    end in the full product, and prefix times suffix leaves one out: linear
    in the number of siblings and free of division, which a zero would break.
    """
    prefix = [Message(np.ones(dim), np.ones((dim, dim)))]
    for mean, second in messages:
        last = prefix[-1]
        prefix.append(Message(last.mean * mean, last.second * second))
    others: List[Message] = [None] * len(messages)
    suffix = prefix[0]
    for i in range(len(messages) - 1, -1, -1):
        others[i] = Message(prefix[i].mean * suffix.mean, prefix[i].second * suffix.second)
        suffix = Message(messages[i].mean * suffix.mean, messages[i].second * suffix.second)
    return prefix[-1], others


def _child_to_parent(node: ValidatedNode, combined: Message) -> Message:
    """Turn a child's evidence message into its upward message.

    With evidence message ``(lam, Lam)`` and row means
    ``C[i, k] = E(p(g_k | f_i))``::

        mean[i]      = sum_k lam[k] C[i, k]
        second[i, j] = sum_{k, r} Lam[k, r] * Phi(k, i, r, j)

    where ``Phi`` is the row-``i`` second moment ``E(p(g_k|f_i) p(g_r|f_i))``
    on the diagonal ``i == j`` and the product ``C[i, k] C[j, r]`` otherwise
    (distinct rows are independent).  An uninstantiated child passes its
    combined child messages; an instantiated one passes the indicator of its
    observed alternative, which picks out the observed column exactly.
    """
    mean_rows = node.mean_rows
    lam, lam2 = combined
    mean = mean_rows @ lam
    second = mean_rows @ lam2 @ mean_rows.T
    np.fill_diagonal(second, np.einsum("kr,ikr->i", lam2, node.second_rows))
    return Message(mean, second)


def _condition(evidence: Message, prior: Message, where: str) -> Message:
    """Condition a node's distribution ``(q, T)`` on evidence ``(m, S)``::

        D          = sum_j m[j] q[j]
        q'[j]      = m[j] q[j] / D
        T'[j, k]   = S[j, k] T[j, k] / D**2

    The denominator uses means only; ``D == 0`` means the evidence is
    impossible on average and raises :class:`InconsistentEvidence`.
    """
    m, s = evidence
    q, t = prior
    denom = float(m @ q)
    if denom == 0.0:
        raise InconsistentEvidence(f"evidence {where} has zero mean probability")
    return Message(m * q / denom, s * t / (denom * denom))


def _parent_to_child(
    parent: str, child: ValidatedNode, parent_msg: Message, others: Message
) -> Message:
    """The message an uninstantiated parent sends to one child.

    The parent's own message is first conditioned (:func:`_condition`) on
    the evidence reaching the parent through its *other* children, giving
    ``(q', T')``, and then pushed through the child's conditional rows with
    the same row-independence structure as :func:`_child_to_parent`::

        mean[i]      = sum_j C[j, i] q'[j]
        second[i, l] = sum_{j != k} T'[j, k] C[j, i] C[k, l]
                       + sum_j T'[j, j] M_j[i, l]

    where ``M_j`` is row ``j``'s second-moment matrix.
    """
    q2, t2 = _condition(others, parent_msg, f"reaching {child.id!r} through {parent!r}")
    mean_rows = child.mean_rows
    out_mean = q2 @ mean_rows
    diag = np.diag(t2)
    out_second = (
        mean_rows.T @ t2 @ mean_rows
        + np.einsum("j,jab->ab", diag, child.second_rows)
        - mean_rows.T @ (diag[:, None] * mean_rows)
    )
    return Message(out_mean, out_second)


def propagate(net: ValidatedNetwork, evidence: Mapping[str, int]) -> MessageState:
    """Run a full collect/distribute sweep and return the resulting state.

    The upward pass runs in reverse topological order and keeps each node's
    leave-one-out products for the downward pass, which runs in topological
    order from the root's own row moments.  Each call recomputes from
    scratch, so repeated calls with the same arguments are identical.
    """
    check_evidence(net, evidence)
    state = MessageState(net, dict(evidence))
    nodes, upward, down = net.nodes, state.upward, state.parent
    others: Dict[str, List[Message]] = {}

    for node_id in reversed(net.order):
        node = nodes[node_id]
        if node_id in evidence:
            if node.parent is not None:
                seen = np.eye(node.dim)[evidence[node_id]]
                upward[node_id] = _child_to_parent(node, Message(seen, np.outer(seen, seen)))
            continue
        combined, others[node_id] = _siblings([upward[c] for c in node.children], node.dim)
        state.combined[node_id] = combined
        if node.parent is not None:
            upward[node_id] = _child_to_parent(node, combined)

    root = nodes[net.root]
    down[net.root] = Message(root.mean_rows[0], root.second_rows[0])
    for node_id in net.order:
        node = nodes[node_id]
        if node_id in evidence:
            alt = evidence[node_id]
            for c in node.children:
                if c not in evidence:
                    child = nodes[c]
                    down[c] = Message(child.mean_rows[alt], child.second_rows[alt])
        else:
            for c, rest in zip(node.children, others[node_id]):
                if c not in evidence:
                    down[c] = _parent_to_child(node_id, nodes[c], down[node_id], rest)
    return state


def query_node(node_id: str, state: MessageState) -> NodeReport:
    """Read one node's inferred probabilities, second moments and variances.

    The report is the diagonal of the parent message conditioned on the
    combined child message (:func:`_condition`).  Means are exact; second
    moments inherit the mean-denominator approximation.  Variances are
    clamped at zero (and the report flagged) when rounding pushes them
    slightly negative; anything below ``VARIANCE_FLOOR`` raises
    :class:`NegativeVariance`.  An instantiated node reports probability one
    at its observed alternative with zero variance.
    """
    node = state.net.node(node_id)
    k = node.dim
    if node_id in state.evidence:
        mean = np.zeros(k)
        mean[state.evidence[node_id]] = 1.0
        return NodeReport(node_id, mean, mean.copy(), np.zeros(k))
    mean, second = _condition(
        state.combined[node_id], state.parent[node_id], f"at node {node_id!r}"
    )
    second = second.diagonal().copy()
    variance = second - mean**2
    low = float(variance.min())
    if low < VARIANCE_FLOOR:
        raise NegativeVariance(f"node {node_id!r}: variance {low} below {VARIANCE_FLOOR}")
    clamped = low < 0.0
    return NodeReport(node_id, mean, second, np.maximum(variance, 0.0), clamped)


def posterior_report(
    state: MessageState, nodes: Optional[Sequence[str]] = None
) -> Dict[str, NodeReport]:
    """Query several nodes (all of them by default) from one propagated state."""
    ids = list(nodes) if nodes is not None else list(state.net.order)
    return {node_id: query_node(node_id, state) for node_id in ids}
