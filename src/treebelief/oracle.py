"""Reference computations for validating the propagation engine.

Two oracles are provided.  :func:`enumerate_uncertainty` iterates the exact
Cartesian product of finitely supported uncertainty (discrete supports and
point masses) and is exact up to floating-point rounding.
:func:`mc_uncertainty` replaces the product with seeded Monte Carlo draws and
also handles Dirichlet rows.

Only the uncertainty supports are enumerated (or sampled).  Under each
concrete realization of the tables, the node configurations are summed by
exact scalar sum-product (Pearl's lambda/pi message passing), batched over
realizations and linear in the node count.  That is a different algorithm
from the engine's moment recurrences, and this module imports nothing from
:mod:`treebelief.propagation`.  Products are not rescaled, so an evidence
probability can underflow to zero on very large evidence sets.

Three modes fix what is being averaged over:

``prior``
    Moments of every node's marginal probability under the prior uncertainty
    distribution.  Requires empty evidence.

``approx-posterior``
    The quantity the propagation engine computes when nodes are instantiated:
    prior-weighted moments of the evidence-and-value joint, normalized by the
    (squared, for second moments) mean evidence probability.  Instantiated
    nodes cut the tree, so each uninstantiated node is evaluated on its
    "evidence island" -- the connected uninstantiated region around it plus
    the instantiated nodes on its rim.  Evidence beyond the rim never enters,
    mirroring the engine's treatment of instantiated nodes as dead ends.

``exact-posterior``
    True posterior moments: realizations are reweighted by the full-network
    evidence probability and the averaged value is the exact conditional
    probability under each fixed realization.  The gap between this mode and
    ``approx-posterior`` measures the quality of the engine's approximation.

Evaluation is single-threaded with a fixed accumulation order, so results are
bit-reproducible for identical arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import CapExceeded, InconsistentEvidence, PreconditionViolated
from .model import (
    Dirichlet,
    DiscreteSupport,
    PointMass,
    ValidatedNetwork,
    check_evidence,
)

MODES = ("prior", "approx-posterior", "exact-posterior")

#: Default ceiling on exhaustively enumerated uncertainty combinations.
DEFAULT_CAP = 10_000_000

_CHUNK_CELLS = 2_000_000  # working-set bound in (realization, table cell) pairs


@dataclass
class OracleEntry:
    """Per-alternative moments for one node, with standard errors when sampled."""

    mean: np.ndarray
    second: np.ndarray
    variance: np.ndarray
    se_mean: Optional[np.ndarray] = None
    se_second: Optional[np.ndarray] = None
    se_variance: Optional[np.ndarray] = None


@dataclass
class OracleReport:
    """An oracle's per-node moments.

    ``size`` counts the oracle's work units, and its meaning depends on the
    oracle and the mode.  Monte Carlo: the sample count ``n``.  Enumeration
    in ``prior`` and ``approx-posterior`` modes: the sum over evidence
    islands of each island's count of uncertainty-support combinations, so
    an island with no uncertain row adds 1.  Enumeration in
    ``exact-posterior`` mode: the count of combinations over every row of
    the tree.
    """

    mode: str
    entries: Dict[str, OracleEntry]
    size: int
    effective_sample_size: Optional[float] = None
    degenerate_weights: bool = False


def _indicator_entry(dim: int, observed: int, with_se: bool) -> OracleEntry:
    mean = np.zeros(dim)
    mean[observed] = 1.0
    zeros = np.zeros(dim)
    se = zeros.copy() if with_se else None
    return OracleEntry(mean, mean.copy(), zeros, se, se, se)


# ---------------------------------------------------------------------------
# Fixed-table exact inference
# ---------------------------------------------------------------------------

def exact_inference(
    net: ValidatedNetwork,
    tables: Mapping[str, np.ndarray],
    evidence: Mapping[str, int],
) -> Tuple[Dict[str, np.ndarray], float]:
    """Posterior marginals under one concrete realization of every table.

    ``tables[node]`` has shape (n_rows, dim).  The configurations are summed
    by sum-product, in time linear in the node count, as a batch of one
    realization.  Returns per-node marginals (indicators on instantiated
    nodes) and the evidence probability; raises :class:`InconsistentEvidence`
    when the latter is 0.  Products are not rescaled, so the evidence
    probability can underflow to 0 on very large evidence sets.
    """
    check_evidence(net, evidence)
    tabs = {n: np.asarray(tables[n], dtype=float)[None] for n in net.order}
    conditionals, p_evidence = _posterior_sums(net, tabs, evidence)
    total = float(p_evidence[0])
    if total == 0.0:
        raise InconsistentEvidence("the evidence has probability zero under these tables")
    marginals = {}
    for node_id in net.order:
        if node_id in evidence:
            marginals[node_id] = np.eye(net.nodes[node_id].dim)[evidence[node_id]]
        else:
            marginals[node_id] = conditionals[node_id][0]
    return marginals, total


def point_tables(net: ValidatedNetwork) -> Dict[str, np.ndarray]:
    """Extract concrete tables from a network whose rows are all point masses."""
    tables = {}
    for node_id in net.order:
        node = net.nodes[node_id]
        if not all(isinstance(d, PointMass) for d in node.rows):
            raise PreconditionViolated(f"node {node_id!r} is not a point-mass node")
        tables[node_id] = np.stack([d.p for d in node.rows])
    return tables


# ---------------------------------------------------------------------------
# Evidence islands and sum-product
# ---------------------------------------------------------------------------

@dataclass
class _Island:
    members: List[str]               # uninstantiated nodes, parents first
    top: str
    top_row: int                     # conditional row the top node hangs on
    boundary: List[Tuple[str, int]]  # instantiated children on the rim


def _islands(net: ValidatedNetwork, evidence: Mapping[str, int]) -> List[_Island]:
    """Connected uninstantiated regions, each with its instantiated rim."""
    islands: Dict[str, _Island] = {}
    home: Dict[str, _Island] = {}
    for node_id in net.order:
        node = net.nodes[node_id]
        if node_id in evidence:
            if node.parent is not None and node.parent not in evidence:
                home[node.parent].boundary.append((node_id, evidence[node_id]))
            continue
        if node.parent is not None and node.parent not in evidence:
            island = home[node.parent]
        else:
            top_row = 0 if node.parent is None else evidence[node.parent]
            island = _Island([], node_id, top_row, [])
            islands[node_id] = island
        island.members.append(node_id)
        home[node_id] = island
    return list(islands.values())


def _leave_one_out(factors: Sequence[np.ndarray], base: np.ndarray) -> List[np.ndarray]:
    """For each factor, ``base`` times the product of all the others.

    Prefix products times suffix products: linear in the number of factors
    and free of division, which a zero factor would break.
    """
    prefix = [base]
    for f in factors[:-1]:
        prefix.append(prefix[-1] * f)
    out: List[np.ndarray] = [None] * len(factors)
    suffix = np.ones_like(base)
    for i in range(len(factors) - 1, -1, -1):
        out[i] = prefix[i] * suffix
        suffix = suffix * factors[i]
    return out


def _island_sums(
    net: ValidatedNetwork,
    island: _Island,
    tabs: Mapping[str, np.ndarray],
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Per-realization island joints, summed out per node value.

    ``tabs[node]`` has shape (R, n_rows, dim): R realizations of that node's
    table.  Returns ``values[node]`` of shape (R, dim) -- the probability of
    the island's rim evidence *and* node == value -- plus the (R,) total.

    Scalar sum-product over ``island.members``: the upward pass gives each
    member ``lam``, the probability of the rim evidence below it per value;
    the downward pass gives it ``pi``, the probability of its value jointly
    with the rim evidence elsewhere.  A child's siblings enter through
    leave-one-out products, so a star costs time linear in its size.
    """
    rim: Dict[str, np.ndarray] = {}  # member -> product of its rim children's rows
    for child_id, observed in island.boundary:
        parent = net.nodes[child_id].parent
        factor = tabs[child_id][:, :, observed]
        rim[parent] = rim[parent] * factor if parent in rim else factor
    on_rim = {z for z, _ in island.boundary}
    kids = {m: [c for c in net.nodes[m].children if c not in on_rim] for m in island.members}
    n_real = tabs[island.top].shape[0]

    lam: Dict[str, np.ndarray] = {}
    up: Dict[str, np.ndarray] = {}  # member -> its message to its parent
    for m in reversed(island.members):
        out = rim.get(m, np.ones((n_real, net.nodes[m].dim)))
        for c in kids[m]:
            out = out * up[c]
        lam[m] = out
        if m != island.top:
            up[m] = np.einsum("rxy,ry->rx", tabs[m], out)

    pi = {island.top: tabs[island.top][:, island.top_row, :]}
    values: Dict[str, np.ndarray] = {}
    for m in island.members:
        values[m] = pi[m] * lam[m]
        if kids[m]:
            others = _leave_one_out([up[c] for c in kids[m]], pi[m] * rim.get(m, 1.0))
            for c, above in zip(kids[m], others):
                pi[c] = np.einsum("rx,rxy->ry", above, tabs[c])
    return values, values[island.top].sum(axis=1)


def _posterior_sums(
    net: ValidatedNetwork,
    tabs: Mapping[str, np.ndarray],
    evidence: Mapping[str, int],
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Per-realization conditionals of every uninstantiated node, and P(evidence).

    Under a fixed realization the instantiated nodes separate the tree, so a
    node's conditional is its island's joint over the island's total, and
    P(evidence) is the product of the island totals and of the table entries
    of instantiated nodes whose parent is instantiated or absent.
    Conditionals are 0 where their island's total is 0.
    """
    p_evidence = np.ones(tabs[net.root].shape[0])
    for node_id, observed in evidence.items():
        parent = net.nodes[node_id].parent
        if parent is None or parent in evidence:
            row = 0 if parent is None else evidence[parent]
            p_evidence = p_evidence * tabs[node_id][:, row, observed]
    conditionals = {}
    for island in _islands(net, evidence):
        values, total = _island_sums(net, island, tabs)
        p_evidence = p_evidence * total
        safe = np.where(total > 0.0, total, 1.0)
        for m in island.members:
            conditionals[m] = values[m] / safe[:, None]
    return conditionals, p_evidence


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def _support_of(dist) -> Tuple[np.ndarray, np.ndarray]:
    if isinstance(dist, PointMass):
        return dist.p[None, :], np.ones(1)
    if isinstance(dist, DiscreteSupport):
        return dist.points, dist.weights
    raise PreconditionViolated(
        "exhaustive enumeration requires discrete-support or point-mass rows"
    )


def _grid_chunks(
    net: ValidatedNetwork,
    node_ids: Sequence[str],
    row_ids: Sequence[Tuple[str, int]],
) -> Iterator[Tuple[Dict[str, np.ndarray], np.ndarray]]:
    """Yield (tables, weights) chunks covering the support product of row_ids.

    Only the tables of ``node_ids`` are built, at most ``_CHUNK_CELLS`` table
    cells per chunk.  Rows not listed are frozen at their mean vector; such
    rows must be ones the downstream sum never reads, or genuinely certain.
    Tables with no listed row are read-only views shared by the chunk.
    """
    supports = [_support_of(net.nodes[n].rows[r]) for n, r in row_ids]
    sizes = [len(w) for _, w in supports]
    count = int(np.prod(sizes)) if sizes else 1
    cells = sum(net.nodes[n].mean_rows.size for n in node_ids)
    chunk = max(1, _CHUNK_CELLS // cells)
    for lo in range(0, count, chunk):
        hi = min(count, lo + chunk)
        flat = np.arange(lo, hi)
        choices = np.unravel_index(flat, sizes) if sizes else ()
        weights = np.ones(hi - lo)
        tabs: Dict[str, np.ndarray] = {}
        for node_id in node_ids:
            rows = net.nodes[node_id].mean_rows
            tabs[node_id] = np.broadcast_to(rows, (hi - lo,) + rows.shape)
        for node_id in {n for n, _ in row_ids}:
            tabs[node_id] = tabs[node_id].copy()
        for j, (node_id, row) in enumerate(row_ids):
            pts, w = supports[j]
            tabs[node_id][:, row, :] = pts[choices[j]]
            weights *= w[choices[j]]
        yield tabs, weights


def _uncertain_rows(
    net: ValidatedNetwork, row_ids: Sequence[Tuple[str, int]]
) -> List[Tuple[str, int]]:
    return [
        (n, r) for n, r in row_ids if len(_support_of(net.nodes[n].rows[r])[1]) > 1
    ]


def _combination_count(net: ValidatedNetwork, row_ids: Sequence[Tuple[str, int]]) -> int:
    count = 1
    for n, r in row_ids:
        count *= len(_support_of(net.nodes[n].rows[r])[1])
    return count


def enumerate_uncertainty(
    net: ValidatedNetwork,
    evidence: Mapping[str, int],
    mode: str = "prior",
    cap: int = DEFAULT_CAP,
) -> OracleReport:
    """Exact moments by iterating every combination of uncertainty supports.

    Requires every row to be a discrete support or point mass.  Only the
    supports of uncertain rows are enumerated; under each combination the
    node configurations are summed by sum-product, in time linear in the
    node count.  Products are not rescaled, so the evidence probability can
    underflow to 0 on very large evidence sets.  See the module docstring
    for what each mode averages.  Raises
    :class:`CapExceeded` when a support product exceeds ``cap`` and
    :class:`InconsistentEvidence` when every combination assigns the evidence
    probability zero.
    """
    if mode not in MODES:
        raise PreconditionViolated(f"unknown oracle mode {mode!r}")
    check_evidence(net, evidence)
    if mode == "prior" and evidence:
        raise PreconditionViolated("prior mode requires empty evidence")
    for node_id in net.order:
        for dist in net.nodes[node_id].rows:
            _support_of(dist)

    entries: Dict[str, OracleEntry] = {}
    for node_id, observed in evidence.items():
        entries[node_id] = _indicator_entry(net.nodes[node_id].dim, observed, False)

    if mode == "exact-posterior":
        row_ids = _uncertain_rows(
            net,
            [
                (node_id, row)
                for node_id in net.order
                for row in range(len(net.nodes[node_id].rows))
            ],
        )
        count = _combination_count(net, row_ids)
        if count > cap:
            raise CapExceeded(f"{count} uncertainty combinations exceed the cap {cap}")
        free = [n for n in net.order if n not in evidence]
        norm = 0.0
        sq_norm = 0.0
        acc1 = {n: np.zeros(net.nodes[n].dim) for n in free}
        acc2 = {n: np.zeros(net.nodes[n].dim) for n in free}
        for tabs, weights in _grid_chunks(net, net.order, row_ids):
            conditionals, p_evidence = _posterior_sums(net, tabs, evidence)
            posterior_w = weights * p_evidence
            norm += float(posterior_w.sum())
            sq_norm += float((posterior_w**2).sum())
            for node_id in free:
                acc1[node_id] += posterior_w @ conditionals[node_id]
                acc2[node_id] += posterior_w @ conditionals[node_id] ** 2
        if norm == 0.0:
            raise InconsistentEvidence("every combination gives the evidence probability 0")
        for node_id in free:
            mean = acc1[node_id] / norm
            second = acc2[node_id] / norm
            entries[node_id] = OracleEntry(mean, second, np.maximum(second - mean**2, 0.0))
        ess = norm * norm / sq_norm
        return OracleReport(mode, entries, count, ess, ess < 10.0)

    total_count = 0
    for island in _islands(net, evidence):
        row_ids = [(island.top, island.top_row)]
        row_ids += [
            (m, row)
            for m in island.members
            if m != island.top
            for row in range(len(net.nodes[m].rows))
        ]
        row_ids += [
            (z, row) for z, _ in island.boundary for row in range(len(net.nodes[z].rows))
        ]
        row_ids = _uncertain_rows(net, row_ids)
        count = _combination_count(net, row_ids)
        if count > cap:
            raise CapExceeded(f"{count} uncertainty combinations exceed the cap {cap}")
        total_count += count
        read = island.members + [z for z, _ in island.boundary]
        z_bar = 0.0
        acc1 = {m: np.zeros(net.nodes[m].dim) for m in island.members}
        acc2 = {m: np.zeros(net.nodes[m].dim) for m in island.members}
        for tabs, weights in _grid_chunks(net, read, row_ids):
            values, island_total = _island_sums(net, island, tabs)
            z_bar += float(weights @ island_total)
            for m in island.members:
                acc1[m] += weights @ values[m]
                acc2[m] += weights @ values[m] ** 2
        if z_bar == 0.0:
            raise InconsistentEvidence("every combination gives the evidence probability 0")
        for m in island.members:
            mean = acc1[m] / z_bar
            second = acc2[m] / (z_bar * z_bar)
            entries[m] = OracleEntry(mean, second, np.maximum(second - mean**2, 0.0))
    return OracleReport(mode, entries, total_count)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _sample_tables(net: ValidatedNetwork, n: int, seed: int) -> Dict[str, np.ndarray]:
    """Draw n realizations of every table from per-row seeded streams.

    Each (node, row) pair gets its own generator keyed by
    ``(seed, node index, row index)``, and all n draws for that row come from
    it in one vectorized pass, so results are bit-reproducible for a fixed
    ``(n, seed)`` and independent of traversal order.  Dirichlet rows are
    normalized gamma variates; discrete supports sample their points by
    weight.
    """
    tabs = {}
    for node_index, node_id in enumerate(net.order):
        node = net.nodes[node_id]
        tab = np.empty((n, len(node.rows), node.dim))
        for row, dist in enumerate(node.rows):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(seed, node_index, row))
            )
            if isinstance(dist, Dirichlet):
                gammas = rng.gamma(shape=dist.alpha, size=(n, dist.dim))
                tab[:, row, :] = gammas / gammas.sum(axis=1, keepdims=True)
            elif isinstance(dist, DiscreteSupport):
                choice = rng.choice(len(dist.weights), size=n, p=dist.weights)
                tab[:, row, :] = dist.points[choice]
            else:
                tab[:, row, :] = dist.p
        tabs[node_id] = tab
    return tabs


def _se_of(columns: Sequence[np.ndarray], grads: Sequence[np.ndarray], n: int) -> List[float]:
    """Delta-method standard errors of smooth functions of the columns'
    sample means, one per gradient, all from one sample covariance."""
    stacked = np.stack(columns, axis=1)
    cov = np.atleast_2d(np.cov(stacked, rowvar=False, ddof=1))
    return [float(np.sqrt(max(0.0, grad @ cov @ grad / n))) for grad in grads]


def _ratio_entry(r: np.ndarray, z: np.ndarray) -> OracleEntry:
    """Moments of the form E[r]/E[z] and E[r^2]/E[z]^2 from paired samples."""
    n, dim = r.shape
    s1 = r.mean(axis=0)
    s2 = (r**2).mean(axis=0)
    s3 = float(z.mean())
    mean = s1 / s3
    second = s2 / (s3 * s3)
    variance = np.maximum(second - mean**2, 0.0)
    se_mean = np.empty(dim)
    se_second = np.empty(dim)
    se_variance = np.empty(dim)
    for v in range(dim):
        grads = (
            np.array([1 / s3, 0.0, -s1[v] / s3**2]),
            np.array([0.0, 1 / s3**2, -2 * s2[v] / s3**3]),
            np.array([-2 * s1[v] / s3**2, 1 / s3**2, -2 * (s2[v] - s1[v] ** 2) / s3**3]),
        )
        se_mean[v], se_second[v], se_variance[v] = _se_of([r[:, v], r[:, v] ** 2, z], grads, n)
    return OracleEntry(mean, second, variance, se_mean, se_second, se_variance)


def _weighted_entry(values: np.ndarray, weights: np.ndarray) -> OracleEntry:
    """Self-normalized weighted moments of per-sample values."""
    n, dim = values.shape
    w0 = float(weights.mean())
    mean = np.empty(dim)
    second = np.empty(dim)
    se_mean = np.empty(dim)
    se_second = np.empty(dim)
    se_variance = np.empty(dim)
    for v in range(dim):
        wv = weights * values[:, v]
        wv2 = weights * values[:, v] ** 2
        w1 = float(wv.mean())
        w2 = float(wv2.mean())
        mean[v] = w1 / w0
        second[v] = w2 / w0
        grads = (
            np.array([1 / w0, 0.0, -w1 / w0**2]),
            np.array([0.0, 1 / w0, -w2 / w0**2]),
            np.array([-2 * w1 / w0**2, 1 / w0, -w2 / w0**2 + 2 * w1**2 / w0**3]),
        )
        se_mean[v], se_second[v], se_variance[v] = _se_of([wv, wv2, weights], grads, n)
    variance = np.maximum(second - mean**2, 0.0)
    return OracleEntry(mean, second, variance, se_mean, se_second, se_variance)


def mc_uncertainty(
    net: ValidatedNetwork,
    evidence: Mapping[str, int],
    mode: str = "prior",
    n: int = 10_000,
    seed: int = 0,
) -> OracleReport:
    """Monte Carlo version of :func:`enumerate_uncertainty`.

    Handles Dirichlet rows as well; the report carries delta-method standard
    errors for every mean, second moment and variance.  In exact-posterior
    mode the realizations are importance-weighted by the evidence
    probability, with the prior as proposal; an effective sample size below
    10 is flagged as degenerate, not fatal.
    """
    if mode not in MODES:
        raise PreconditionViolated(f"unknown oracle mode {mode!r}")
    if n < 2:
        raise PreconditionViolated("at least two samples required")
    if seed < 0:
        raise PreconditionViolated("seed must be a non-negative integer")
    check_evidence(net, evidence)
    if mode == "prior" and evidence:
        raise PreconditionViolated("prior mode requires empty evidence")

    tabs = _sample_tables(net, n, seed)
    entries: Dict[str, OracleEntry] = {}
    for node_id, observed in evidence.items():
        entries[node_id] = _indicator_entry(net.nodes[node_id].dim, observed, True)

    if mode == "exact-posterior":
        conditionals, p_evidence = _posterior_sums(net, tabs, evidence)
        norm = float(p_evidence.sum())
        if norm == 0.0:
            raise InconsistentEvidence("every sample gives the evidence probability 0")
        ess = norm * norm / float((p_evidence**2).sum())
        for node_id in net.order:
            if node_id not in evidence:
                entries[node_id] = _weighted_entry(conditionals[node_id], p_evidence)
        return OracleReport(mode, entries, n, ess, ess < 10.0)

    for island in _islands(net, evidence):
        values, island_total = _island_sums(net, island, tabs)
        if float(island_total.sum()) == 0.0:
            raise InconsistentEvidence("every sample gives the evidence probability 0")
        for m in island.members:
            entries[m] = _ratio_entry(values[m], island_total)
    return OracleReport(mode, entries, n)
