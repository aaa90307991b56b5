"""Reference computations for validating the propagation engine.

Two oracles share one accumulation and differ only in where the
realizations of the tables come from.  :func:`enumerate_uncertainty` lists
every combination of the finitely supported rows (discrete supports; point
masses are certain), weighted by its probability, and is exact up to
floating-point rounding.  :func:`mc_uncertainty` draws n realizations of
every row that is not a point mass, Dirichlet rows included, each weighted
1/n, and adds delta-method standard errors.  Realizations arrive in chunks,
so Monte Carlo memory does not grow with n, and only the rows a block reads
are drawn.  Each cell of a chunk's tables is written once: a table with a
realized row starts empty, its other rows take their mean vector, and
Dirichlet draws are normalized straight into their rows
(:func:`_chunks`).  A chunk holds at most ``_CHUNK_REALIZATIONS`` (4096)
realizations and at most ``_CHUNK_CELLS`` (2e6) table cells.  The first
limit binds on small trees.  It keeps each (2, R) message at 64 KB, so a
chunk's working set stays near a core's L2 cache; one chunk of all 2^14
combinations of an 8-node tree takes about twice as long.  Monte Carlo
prior mode on a two-node network then peaks at 1.4 MB by tracemalloc, at
n = 2e5 and 2e6 alike.  The second limit binds on trees of more than 488
cells per realization and bounds their tables (16 MB), not peak memory: a
chunk's temporaries (gamma draws, sum-product messages, value and co-moment
matrices) take several times as much, a tracemalloc peak of 88 MB for Monte
Carlo prior mode on a 1000-node binary tree at k = 2.  A smaller cell budget
would cost time there, since each chunk pays Python overhead per node.
Enumeration also holds, for as long as it runs, the values and weights of
its fast-varying rows, those whose combinations repeat within a chunk,
built once for under three chunks of realizations each and sliced by every
chunk (:func:`_grid_chunks`); on the 8-node trees of 2^14 combinations that
is 11 rows of 2 x 6144 values and 6144 weights, 1.6 MB.

The accumulation runs once per evidence island (below), in every mode, and
reads only the rows the island reads.  Per realization of weight ``w``,
each member value contributes ``a`` and ``b`` and the island a normalizer
``z``, the island total: in ``exact-posterior`` mode ``a = z x`` and
``b = z x^2``, with ``x`` the exact conditional, the island joint over
``z``; otherwise ``a`` is the island joint and ``b = a^2``.  Then
``mean = sum w a / sum w z`` and ``second = sum w b / (sum w z)^p``, with
``p = 1`` in ``exact-posterior`` mode and 2 otherwise; the effective sample
size is ``(sum w z)^2 / sum (w z)^2``.  Monte Carlo accumulates the
covariance of ``(a, b, z)`` about the first chunk's means (Chan, Golub &
LeVeque 1983), so its standard errors stream too.

Under each realization of the tables, the node configurations are summed
by exact scalar sum-product (Pearl's lambda/pi message passing), batched
over realizations and linear in the node count.  That is a different algorithm
from the engine's moment recurrences, and this module imports nothing from
:mod:`treebelief.propagation`.  Products are not rescaled, so an island's
evidence probability can underflow to zero on a very large island; a moment
that is then not finite raises :class:`NonFiniteResult`.

The realization axis comes last everywhere: a node's tables are
``(rows, dim, R)`` and every message, value, rim factor and conditional is
``(dim, R)``, with R up to ``_CHUNK_REALIZATIONS`` and ``dim`` often 2.  Each
sum-product step, support gather and row write then runs over rows of R
contiguous numbers instead of R rows of ``dim``: at R = 16384 and
``dim`` = 2 a step's ``einsum`` runs five to six times faster than with R
first (2-vCPU Xeon VM).  Only the realization totals (P(evidence), island totals,
weights) are ``(R,)``.

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
    True posterior moments: the averaged value is the exact conditional
    probability under each fixed realization, and realizations are
    reweighted by the evidence probability.  Under a fixed realization the
    instantiated nodes separate the tree, so a node's conditional is its
    island's joint over the island's total, and the evidence probability is
    the product of the island totals and of table entries that no island
    reads.  Rows are independent under the prior, so every factor but the
    node's own island total cancels from the ratio: each island is
    reweighted by its own total.  The gap between this mode and
    ``approx-posterior`` measures the quality of the engine's approximation.

Evaluation is single-threaded with a fixed accumulation order, so results are
bit-reproducible for identical arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import CapExceeded, InconsistentEvidence, NonFiniteResult, PreconditionViolated
from .model import Dirichlet, DiscreteSupport, PointMass, ValidatedNetwork, check_evidence, check_observed_entries

MODES = ("prior", "approx-posterior", "exact-posterior")

#: Default ceiling on exhaustively enumerated uncertainty combinations, summed
#: over the evidence islands.
DEFAULT_CAP = 10_000_000

#: Ceiling on Monte Carlo samples.  Time is linear in the sample count (10**8
#: samples of a two-node network take about a minute), so a larger ``n`` is
#: refused up front instead of running for days without a message.
MAX_SAMPLES = 10**9

#: (realization, table cell) pairs per chunk: the memory bound, binding on trees
#: of more than 488 cells per realization.  It bounds their tables (16 MB), not
#: peak memory (see the module docstring).
_CHUNK_CELLS = 2_000_000

#: Realizations per chunk: the cache bound, binding on smaller trees.  Of the
#: caps 1024-16384, 4096 ran the benchmark's oracle networks fastest.
_CHUNK_REALIZATIONS = 4096


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

    ``size`` counts the oracle's work units.  Monte Carlo: the sample count
    ``n``.  Enumeration, in every mode: the sum over evidence islands of
    each island's count of uncertainty-support combinations, so an island
    with no uncertain row adds 1.  ``effective_sample_size`` is set in
    ``exact-posterior`` mode only, where realizations are weighted by each
    island's evidence probability: it is the smallest island's, and
    ``degenerate_weights`` says whether that is below 10.
    """

    mode: str
    entries: Dict[str, OracleEntry]
    size: int
    effective_sample_size: Optional[float] = None
    degenerate_weights: bool = False


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
    and free of division, which a zero factor would break.  No product
    starts from ones, so one factor gives ``[base]`` and two give
    ``[base * f1, base * f0]``, the bits a start from ones would give.
    """
    prefix = [base]
    for f in factors[:-1]:
        prefix.append(prefix[-1] * f)
    out: List[np.ndarray] = prefix[:]
    suffix = factors[-1]
    for i in range(len(factors) - 2, -1, -1):
        out[i] = prefix[i] * suffix
        if i:
            suffix = suffix * factors[i]
    return out


def _island_sums(
    net: ValidatedNetwork,
    island: _Island,
    conditional: bool,
    tabs: Mapping[str, np.ndarray],
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Per-realization island joints, summed out per node value.

    ``tabs[node]`` has shape (n_rows, dim, R): R realizations of that node's
    table.  Returns ``values[node]`` of shape (dim, R) -- the probability of
    the island's rim evidence *and* node == value -- plus the (R,) total.
    With ``conditional``, each value is divided by the total instead, so it
    is the node's exact conditional given the island's rim evidence (0 where
    the total is 0): under a fixed realization the instantiated nodes
    separate the tree, so that is its conditional given all the evidence.

    Scalar sum-product over ``island.members``: the upward pass gives each
    member ``lam``, the probability of the rim evidence below it per value;
    the downward pass gives it ``pi``, the probability of its value jointly
    with the rim evidence elsewhere.  A child's siblings enter through
    leave-one-out products, so a star costs time linear in its size.
    """
    rim: Dict[str, np.ndarray] = {}  # member -> product of its rim children's rows
    for child_id, observed in island.boundary:
        parent = net.nodes[child_id].parent
        factor = tabs[child_id][:, observed]
        rim[parent] = rim[parent] * factor if parent in rim else factor
    on_rim = {z for z, _ in island.boundary}
    kids = {m: [c for c in net.nodes[m].children if c not in on_rim] for m in island.members}
    n_real = tabs[island.top].shape[-1]

    lam: Dict[str, np.ndarray] = {}
    up: Dict[str, np.ndarray] = {}  # member -> its message to its parent
    for m in reversed(island.members):
        factors = ([rim[m]] if m in rim else []) + [up[c] for c in kids[m]]
        lam[m] = reduce(np.multiply, factors) if factors else np.ones((net.nodes[m].dim, n_real))
        if m != island.top:
            up[m] = np.einsum("xyr,yr->xr", tabs[m], lam[m])

    pi = {island.top: tabs[island.top][island.top_row]}
    values: Dict[str, np.ndarray] = {}
    for m in island.members:
        values[m] = pi[m] * lam[m]
        if kids[m]:
            others = _leave_one_out([up[c] for c in kids[m]], pi[m] * rim[m] if m in rim else pi[m])
            for c, above in zip(kids[m], others):
                pi[c] = np.einsum("xr,xyr->yr", above, tabs[c])
    total = values[island.top].sum(axis=0)
    if conditional:
        safe = np.where(total > 0.0, total, 1.0)
        values = {m: v / safe for m, v in values.items()}
    return values, total


# ---------------------------------------------------------------------------
# Realization sources: source(node_ids, row_ids) -> (count, chunks)
# ---------------------------------------------------------------------------

_Rows = Sequence[Tuple[str, int]]
_Chunks = Iterator[Tuple[Dict[str, np.ndarray], np.ndarray]]  # (tables, weights) per chunk


def _support_of(dist) -> Tuple[np.ndarray, np.ndarray]:
    if isinstance(dist, PointMass):
        return dist.p[None, :], np.ones(1)
    if isinstance(dist, DiscreteSupport):
        return dist.points, dist.weights
    raise PreconditionViolated(
        "exhaustive enumeration requires discrete-support or point-mass rows"
    )


def _step(net: ValidatedNetwork, node_ids: Sequence[str]) -> int:
    """Realizations per chunk: at most ``_CHUNK_REALIZATIONS``, and at most
    ``_CHUNK_CELLS`` table cells of ``node_ids``."""
    cells = sum(net.nodes[n].mean_rows.size for n in node_ids)
    return min(_CHUNK_REALIZATIONS, max(1, _CHUNK_CELLS // cells))


def _chunks(net: ValidatedNetwork, node_ids: Sequence[str], row_ids: _Rows, count: int,
            fill: Callable[[int, int, List[np.ndarray]], np.ndarray]) -> _Chunks:
    """Yield the tables of ``node_ids`` for realizations ``0..count-1``.

    ``fill(lo, hi, rows)`` writes the values of realizations ``lo..hi-1``
    into ``rows``, the views of ``row_ids`` in the chunk's tables, each of
    shape (dim, hi - lo), and returns those realizations' weights.
    A chunk holds at most ``_CHUNK_REALIZATIONS`` realizations and
    ``_CHUNK_CELLS`` table cells (:func:`_step`).  Rows not listed are
    frozen at their mean vector; such rows must be ones the downstream sum
    never reads, or genuinely certain.  Tables with no listed row are
    read-only views shared by the chunk.  A table with a listed row starts
    empty: its unlisted rows are written from the mean rows, then each
    listed row once, so every cell is written once.
    """
    step = _step(net, node_ids)
    means = {z: net.nodes[z].mean_rows[..., None] for z in node_ids}
    listed = set(row_ids)
    unlisted = {z: [r for r in range(len(means[z])) if (z, r) not in listed] for z, _ in row_ids}
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        tabs = {z: np.broadcast_to(m, m.shape[:2] + (hi - lo,)) for z, m in means.items()}
        for node_id, rows in unlisted.items():
            tabs[node_id] = table = np.empty(tabs[node_id].shape)
            if rows:
                table[rows] = means[node_id][rows]
        weights = fill(lo, hi, [tabs[z][r] for z, r in row_ids])
        yield tabs, weights


def _grid_chunks(net: ValidatedNetwork, node_ids: Sequence[str], row_ids: _Rows):
    """Enumeration source: every combination of the supports of ``row_ids``.

    Combinations come in ``itertools.product`` order over the listed rows,
    and each is weighted by the product of its support weights, multiplied
    in the rows' order; rows with a one-point support stay at their mean,
    that point.

    The rows are split once per enumeration.  The trailing rows, those
    whose sub-grid (the product of their support sizes, ``P``) is shorter
    than a chunk, take the same values and weights in every period of
    ``P`` realizations.  Their values and weights are built once, for as
    many whole periods as cover ``P - 1`` plus a chunk, so under three
    chunks of realizations per row, and made read-only; a chunk of ``R``
    realizations from ``lo`` takes them as the slices ``[lo % P : lo % P +
    R]``.  The leading rows change only from one period to the next, so a
    chunk builds each of them with one ``np.take`` over the few periods it
    meets and one ``np.repeat`` over its runs.  The shared arrays are freed
    with the enumeration; each chunk copies its slices into its table rows.
    """
    listed = [(n, r) for n, r in row_ids if len(_support_of(net.nodes[n].rows[r])[1]) > 1]
    supports = [_support_of(net.nodes[n].rows[r]) for n, r in listed]
    sizes = [len(w) for _, w in supports]
    count = math.prod(sizes)
    step = _step(net, node_ids)
    split, period = len(sizes), 1  # rows from ``split`` on repeat every ``period``, fewer than ``step``
    while split and period * sizes[split - 1] < step:
        split -= 1
        period *= sizes[split]
    strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]  # C order, last fastest
    leading = [(pts.T, w, stride // period, size)
               for (pts, w), stride, size in zip(supports[:split], strides, sizes)]
    span = period * -(-min(count, period - 1 + step) // period)  # whole periods
    trailing = []
    for (pts, w), stride, size in zip(supports[split:], strides[split:], sizes[split:]):
        reps = span // (stride * size)
        shared = np.tile(np.repeat(pts.T, stride, axis=1), reps), np.tile(np.repeat(w, stride), reps)
        for array in shared:
            array.flags.writeable = False
        trailing.append(shared)

    def fill(lo: int, hi: int, rows: List[np.ndarray]) -> np.ndarray:
        at, n, first, last = lo % period, hi - lo, lo // period, (hi - 1) // period
        blocks = np.arange(first, last + 1)  # the periods the chunk meets, and its run in each
        runs = np.diff(np.clip(np.arange(first, last + 2) * period, lo, hi))
        choices = [(blocks // stride) % size for _, _, stride, size in leading]
        weights = np.ones(len(blocks))
        for (_, w, _, _), choice in zip(leading, choices):
            weights *= np.take(w, choice)
        weights = np.repeat(weights, runs)
        for _, w in trailing:
            weights *= w[at:at + n]
        for row, (pts, _, _, _), c in zip(rows, leading, choices):
            row[...] = np.repeat(np.take(pts, c, axis=1), runs, axis=1)
        for row, (pts, _) in zip(rows[len(leading):], trailing):
            row[...] = pts[:, at:at + n]
        return weights

    return count, _chunks(net, node_ids, listed, count, fill)


def _dirichlet_draws(rng: np.random.Generator, alpha: np.ndarray, n: int, out: np.ndarray) -> None:
    """Write n Dirichlet draws, normalized gamma variates, into the columns
    of ``out``, of shape (k, n), with no other copy.

    With tiny alphas every gamma of a draw can underflow to 0.  Only those
    draws are redrawn, from the same stream after the main draw, in log
    space: ``log Gamma(a) = log Gamma(a + 1) + log(U) / a`` (Marsaglia &
    Tsang 2000), normalized by log-sum-exp.  The normalized draw does not
    depend on the gamma sum, so the redraw keeps its distribution.  Monte
    Carlo calls this once per chunk, so the redraws follow each chunk's main
    draw: a row with a redraw is the one stream whose later draws depend on
    the chunk size.  Each draw's sum has the bits of ``sum(axis=1)``: numpy
    adds fewer than eight numbers left to right, as the column adds used
    there do in a fraction of the time, and eight or more pairwise.
    """
    def row_sums(gammas: np.ndarray) -> np.ndarray:
        return gammas.sum(axis=1) if len(alpha) >= 8 else reduce(np.add, gammas.T)

    gammas = rng.standard_gamma(alpha, size=(n, len(alpha)))
    sums = row_sums(gammas)
    if not sums.all():
        lost = sums == 0.0
        size = (int(lost.sum()), len(alpha))
        logs = np.log(rng.standard_gamma(alpha + 1.0, size=size))
        logs += np.log(1.0 - rng.random(size)) / alpha
        gammas[lost] = np.exp(logs - logs.max(axis=1, keepdims=True))
        sums = row_sums(gammas)
    np.divide(gammas.T, sums, out=out)


def _sample_chunks(net: ValidatedNetwork, n: int, seed: int, index: Mapping[str, int],
                   node_ids: Sequence[str], row_ids: _Rows):
    """Monte Carlo source: n draws of each non-point-mass row of ``row_ids``.

    Each (node, row) pair gets its own generator keyed by
    ``(seed, index[node], row)``, and each chunk draws on from it, so
    results are bit-reproducible for a fixed ``(n, seed)`` and independent
    of traversal order.  Dirichlet rows are normalized gamma variates
    (:func:`_dirichlet_draws`); discrete supports sample their points by
    weight.  Each draw is written straight into its table row.  Every
    realization has weight 1/n.
    """
    listed = [(z, r) for z, r in row_ids if not isinstance(net.nodes[z].rows[r], PointMass)]
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=(seed, index[z], r)))
            for z, r in listed]

    def fill(lo: int, hi: int, rows: List[np.ndarray]) -> np.ndarray:
        for row, (z, r), rng in zip(rows, listed, rngs):
            dist = net.nodes[z].rows[r]
            if isinstance(dist, Dirichlet):
                _dirichlet_draws(rng, dist.alpha, hi - lo, row)
            else:
                np.take(dist.points.T, rng.choice(len(dist.weights), hi - lo, p=dist.weights), axis=1, out=row)
        return np.full(hi - lo, 1.0 / n)

    return n, _chunks(net, node_ids, listed, n, fill)


# ---------------------------------------------------------------------------
# One accumulation under both oracles
# ---------------------------------------------------------------------------

def _moments(net: ValidatedNetwork, members: Sequence[str], terms: Callable, power: int,
             chunks: _Chunks, n: Optional[int]) -> Tuple[Dict[str, OracleEntry], float]:
    """One island's moments over weighted realizations, as the module docstring gives them.

    ``terms(tables)`` gives each member's values ``x``, of shape (dim, R),
    and the island's ``z``, of shape (R,): with ``power`` 1, ``x`` is a
    conditional and ``a = z x``; with ``power`` 2, a joint and ``a = x``;
    always ``b = a x``.  Raises :class:`NonFiniteResult` when a mean or
    second moment is not finite, as a second moment is once ``z**2``
    underflows.  Given the sample count ``n``, the entries carry standard
    errors, and raises the same where those overflow, as they do once
    ``z**3`` underflows.  Returns the entries and
    the effective sample size ``(sum w z)^2 / sum (w z)^2``, summed over
    ``w z / c`` with ``c`` the largest ``w z`` so far: it is free of scale,
    and ``(w z)^2`` underflows first on evidence of tiny probability.
    """
    bounds = np.cumsum([0] + [net.nodes[m].dim for m in members])
    sum_a = sum_b = sum_z = sum_z2 = 0.0
    shift, scale = None, 0.0
    for tabs, w in chunks:
        values, z = terms(tabs)
        x = np.empty((bounds[-1], len(z)))  # one row per member value
        for m, lo, hi in zip(members, bounds, bounds[1:]):
            x[lo:hi] = values[m]
        u = w * z if power == 1 else w  # sum w a = sum u x, sum w b = sum u x^2
        sum_a = sum_a + x @ u
        sum_b = sum_b + x**2 @ u
        wz = w * z
        sum_z += float(wz.sum())
        top = float(wz.max())
        if top > scale:
            sum_z2 *= (scale / top) ** 2
            scale = top
        if scale:
            sum_z2 += float(((wz / scale) ** 2).sum())
        if n is not None:  # co-moments of (a, b, z) per value, about the first chunk's means
            a = x * z if power == 1 else x
            d = np.empty((len(x), 3, len(z)))  # (a, b = a x, z) per value, filled in place
            d[:, 0] = a
            np.multiply(a, x, out=d[:, 1])
            d[:, 2] = z
            if shift is None:
                shift, co, d_sum = d.mean(axis=2, keepdims=True), 0.0, 0.0
            d -= shift
            co = co + d @ d.transpose(0, 2, 1)
            d_sum = d_sum + d.sum(axis=2)
    if sum_z == 0.0:
        raise InconsistentEvidence("every realization gives the evidence probability 0")

    a, b, z = sum_a, sum_b, sum_z  # the weighted sums: sample means under Monte Carlo
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mean, second = a / z, b / z**power
    if not (np.isfinite(mean).all() and np.isfinite(second).all()):
        raise NonFiniteResult(f"moments are not finite at evidence probability {z:.3g}")
    columns = [mean, second, np.maximum(second - mean**2, 0.0)]
    if n is not None:  # delta method, from the gradients in (a, b, z) of:
        cov = (co - d_sum[:, :, None] * d_sum[:, None, :] / n) / (n - 1)
        one = np.ones_like(a)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d_b, d_z = one / z**power, -power * b / z ** (power + 1)
            grads = np.array([
                [one / z, 0.0 * one, -a / z**2],  # mean = a / z
                [0.0 * one, d_b, d_z],  # second = b / z^p
                [-2.0 * a / z**2, d_b, d_z + 2.0 * a**2 / z**3],  # variance = second - mean^2
            ]).transpose(0, 2, 1)
            spread = np.einsum("qmi,mij,qmj->qm", grads, cov, grads) / n
        if not np.isfinite(spread).all():
            raise NonFiniteResult(f"standard errors overflow at evidence probability {z:.3g}")
        columns += list(np.sqrt(np.maximum(spread, 0.0)))
    spans = zip(members, bounds, bounds[1:])
    ess = (z / scale) ** 2 / sum_z2
    return {m: OracleEntry(*(c[lo:hi] for c in columns)) for m, lo, hi in spans}, ess


def _report(net: ValidatedNetwork, evidence: Mapping[str, int], mode: str, source: Callable,
            n: Optional[int] = None, cap: float = math.inf) -> OracleReport:
    """Run :func:`_moments` once per evidence island, on the chunks ``source`` gives it.

    The Monte Carlo sample count ``n`` adds standard errors and is the
    report's size; without it the size sums the islands' realization counts.
    Each island's count joins that sum before its chunks are read, and
    :class:`CapExceeded` is raised once the sum passes ``cap``, so at most
    ``cap`` realizations are ever read.
    In ``exact-posterior`` mode the effective sample size is the smallest
    island's.  An observed entry outside every island with mean zero raises
    :class:`InconsistentEvidence` first, in every mode
    (:func:`~treebelief.model.check_observed_entries`).
    """
    check_observed_entries(net, evidence)
    entries = {}
    for node_id, observed in evidence.items():
        indicator = np.eye(net.nodes[node_id].dim)[observed]
        zeros = np.zeros_like(indicator)
        se = None if n is None else zeros.copy()
        entries[node_id] = OracleEntry(indicator, indicator.copy(), zeros, se, se, se)
    power = 1 if mode == "exact-posterior" else 2
    size, ess = 0, None
    for island in _islands(net, evidence):
        read = island.members + [z for z, _ in island.boundary]
        rows = [(island.top, island.top_row)]
        rows += [(z, r) for z in read[1:] for r in range(len(net.nodes[z].rows))]
        count, chunks = source(read, rows)
        size += count
        if size > cap:
            raise CapExceeded(f"{size} uncertainty combinations exceed the cap {cap}")
        terms = partial(_island_sums, net, island, power == 1)
        block, block_ess = _moments(net, island.members, terms, power, chunks, n)
        entries.update(block)
        if power == 1:
            ess = block_ess if ess is None else min(ess, block_ess)
    return OracleReport(mode, entries, n or size, ess, ess is not None and ess < 10.0)


def enumerate_uncertainty(
    net: ValidatedNetwork,
    evidence: Mapping[str, int],
    mode: str = "prior",
    cap: int = DEFAULT_CAP,
) -> OracleReport:
    """Exact moments by iterating every combination of uncertainty supports.

    Requires every row to be a discrete support or point mass.  Each
    evidence island enumerates the supports of the uncertain rows it reads;
    under each combination the node configurations are summed by
    sum-product, in time linear in the node count.  Products are not
    rescaled, so an island's evidence probability can underflow to 0 on a
    very large island.  See the module docstring for what each mode
    averages.  Raises :class:`CapExceeded` when the islands' support
    products sum to more than ``cap``, before the island that passes it is
    enumerated, :class:`InconsistentEvidence` when every combination
    gives an island the evidence probability zero (an observed entry of mean
    zero outside every island is named), and :class:`PreconditionViolated`
    when ``cap`` is not an integer (``bool`` included) or is below 1.
    """
    if mode not in MODES:
        raise PreconditionViolated(f"unknown oracle mode {mode!r}")
    if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)):
        raise PreconditionViolated(f"cap must be an integer, got {cap!r}")
    if cap < 1:
        raise PreconditionViolated(f"cap must be at least 1, got {cap}")
    check_evidence(net, evidence)
    if mode == "prior" and evidence:
        raise PreconditionViolated("prior mode requires empty evidence")
    for node_id in net.order:
        for dist in net.nodes[node_id].rows:
            _support_of(dist)
    return _report(net, evidence, mode, partial(_grid_chunks, net), cap=cap)


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
    mode the realizations are importance-weighted by each island's evidence
    probability, with the prior as proposal; an effective sample size below
    10 in any island is flagged as degenerate, not fatal.  Raises
    :class:`PreconditionViolated` before drawing anything when ``n`` or
    ``seed`` is not an integer (``bool`` included), or ``n`` is below 2 or
    above :data:`MAX_SAMPLES`.
    """
    if mode not in MODES:
        raise PreconditionViolated(f"unknown oracle mode {mode!r}")
    for name, value in (("n", n), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise PreconditionViolated(f"{name} must be an integer, got {value!r}")
    if n < 2:
        raise PreconditionViolated("at least two samples required")
    if n > MAX_SAMPLES:
        raise PreconditionViolated(f"{n} samples requested, at most MAX_SAMPLES = {MAX_SAMPLES}")
    if seed < 0:
        raise PreconditionViolated("seed must be a non-negative integer")
    check_evidence(net, evidence)
    if mode == "prior" and evidence:
        raise PreconditionViolated("prior mode requires empty evidence")
    index = {node_id: i for i, node_id in enumerate(net.order)}
    return _report(net, evidence, mode, partial(_sample_chunks, net, n, seed, index), n)
