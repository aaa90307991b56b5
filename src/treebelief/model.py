"""Tree belief networks with second-order uncertainty on their stored probabilities.

A network is a rooted tree of categorical nodes.  Every node stores one
probability row per parent alternative (a single row for the root), and each
row is *uncertain*: instead of a fixed probability vector it carries a
distribution over probability vectors.  The propagation engine never looks at
those distributions directly; it consumes only their first moments ``E(p_i)``
and second moments ``E(p_i p_j)``, which :func:`validate_network` computes
for every row with one formula (:func:`_stacked_moments`).

:func:`validate_network` has one core, which checks a network held as
columns (:class:`_Columns`): per node its id, alternatives, parent and row
count, per row its kind and dimension, and the Dirichlet and point vectors as
one read-only float stack per dimension.  A parsed spec arrives as columns;
a spec built by hand is read into them, and those columns are dropped after
validation.  The core computes the moments once, for all rows with the same
alternative count together, from one gather of the stacks in the level order
of the :class:`LevelPlan` that it compiles for propagation, and checks them
in blocks of rows.  Each :class:`ValidatedNode` is a named-tuple record of
one node: its id, alternatives, parent and children, read-only views of its
row moments, and the spec and index that locate its row objects.  Row
objects have one owner, the :class:`NetworkSpec`: a validated node reads
its ``rows`` as ``spec.nodes[spec_index].rows``.  A parsed spec builds all
of its :class:`NodeSpec` and distribution objects in one pass, the first
time any ``rows`` or ``NetworkSpec.nodes`` is read; a query reads neither.

All types are immutable after construction: every row holds a view of its
own read-only copy of its numbers, and every stored moment is a view of a
read-only array, so no field can be made writable again, and the caller's
arrays stay writable.  No field of a validated node or network can be set,
and a network's ``nodes`` and its plan's dicts are read-only mappings.
Nothing writes to a validated network after :func:`validate_network`
returns, not even the prior messages of the nodes that hang from the root
one per depth, which it computes and keeps as read-only arrays
(``LevelPlan.prior``).  All operations are pure functions, so they are safe
to share between threads.  A parsed spec's first read of ``nodes`` may run
in two threads at once: each builds from columns that never change, and the
spec publishes the result with one ``dict.setdefault``, its only publish
point, so both threads get the same objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import (
    BadDistribution,
    CapExceeded,
    CycleDetected,
    DimensionMismatch,
    InconsistentEvidence,
    InvalidNetwork,
    MultipleRoots,
    UnknownAlternative,
    UnknownNode,
)

#: Absolute tolerance on probability-vector and weight sums.
PROB_TOL = 1e-9


def _prob_vector(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise BadDistribution(f"{what}: expected a non-empty 1-d probability vector")
    if not (np.isfinite(arr).all() and (arr >= 0.0).all()):
        raise BadDistribution(f"{what}: entries must be finite and >= 0")
    if abs(float(arr.sum()) - 1.0) > PROB_TOL:
        raise BadDistribution(f"{what}: entries sum to {arr.sum()!r}, not 1")
    return _frozen(arr)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` after making ``arr`` read-only: a view of a read-only
    array cannot be made writable again."""
    arr.flags.writeable = False
    return arr.view()


def _prob_rows_ok(arr: np.ndarray) -> bool:
    """Whether every row of the 2-d ``arr`` passes :func:`_prob_vector`.

    Callers run the per-row check when this is false, so it must never pass
    a row that the per-row check fails; failing a good row only costs time.
    On a C-contiguous ``arr`` each row sum is bit-identical to the 1-d sum
    of that row.  An entry above ``1 + PROB_TOL`` makes its row's sum too
    large as well (up to rounding at the edge); bounding the entries first
    keeps NaN, infinities and overflow out of the sum.
    """
    if arr.shape[1] < 1 or not ((arr >= 0.0) & (arr <= 1.0 + PROB_TOL)).all():
        return False
    return not (np.abs(arr.sum(axis=1) - 1.0) > PROB_TOL).any()


def _alpha_ok(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is a valid Dirichlet parameter."""
    return bool(np.isfinite(arr).all() and (arr > 0.0).all())


@dataclass(frozen=True, eq=False)
class Dirichlet:
    """Dirichlet-distributed probability vector, conventional ``alpha > 0``."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.array(self.alpha, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise BadDistribution("dirichlet: alpha must be a non-empty vector")
        if not _alpha_ok(arr):
            raise BadDistribution("dirichlet: every alpha entry must be > 0")
        object.__setattr__(self, "alpha", _frozen(arr))

    @classmethod
    def _checked(cls, alpha: np.ndarray) -> "Dirichlet":
        """Wrap a read-only vector that already passed the checks above."""
        row = object.__new__(cls)
        object.__setattr__(row, "alpha", alpha)
        return row

    @property
    def dim(self) -> int:
        return self.alpha.size


@dataclass(frozen=True, eq=False)
class DiscreteSupport:
    """Finitely supported distribution over probability vectors.

    ``points`` holds one probability vector per row; ``weights`` are positive
    and sum to 1.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts, w = np.array(self.points, dtype=float), np.array(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise BadDistribution("discrete support: points must be a (m, k) array")
        if not _prob_rows_ok(pts):  # the per-point check names the first bad point
            for row in range(pts.shape[0]):
                _prob_vector(pts[row], f"discrete support point {row}")
        if w.shape != (pts.shape[0],):
            raise BadDistribution("discrete support: one weight per point required")
        if not (np.isfinite(w).all() and (w > 0.0).all()):
            raise BadDistribution("discrete support: weights must be finite and > 0")
        if abs(float(w.sum()) - 1.0) > PROB_TOL:
            raise BadDistribution(f"discrete support: weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class PointMass:
    """A known probability vector (no second-order uncertainty)."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _prob_vector(self.p, "point mass"))

    @classmethod
    def _checked(cls, p: np.ndarray) -> "PointMass":
        """Wrap a read-only vector that already passed :func:`_prob_vector`."""
        row = object.__new__(cls)
        object.__setattr__(row, "p", p)
        return row

    @property
    def dim(self) -> int:
        return self.p.size


UncertainDistribution = Union[Dirichlet, DiscreteSupport, PointMass]


def _check_moments(mean: np.ndarray, second: np.ndarray, what: str) -> None:
    """Raise :class:`BadDistribution` unless every row holds valid moments.

    ``mean`` is ``(..., k)`` and ``second`` is ``(..., k, k)``, as
    :func:`_stacked_moments` builds them; every leading row is checked at
    once.  Because each underlying random vector sums to 1, every row of a
    second-moment matrix must sum back to its mean, and the diagonal is
    squeezed between ``mean**2`` and ``mean``.  Non-finite values are
    rejected first, since every comparison with NaN is false.
    """
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(second))):
        raise BadDistribution(f"{what}: moments must be finite")
    if np.any(mean < -PROB_TOL) or np.max(np.abs(mean.sum(axis=-1) - 1.0)) > PROB_TOL:
        raise BadDistribution(f"{what}: mean is not a probability vector")
    if np.any(second < -PROB_TOL):
        raise BadDistribution(f"{what}: second moments must be >= 0")
    if np.max(np.abs(second - np.swapaxes(second, -1, -2))) > PROB_TOL:
        raise BadDistribution(f"{what}: second-moment matrix must be symmetric")
    if np.max(np.abs(second.sum(axis=-1) - mean)) > PROB_TOL:
        raise BadDistribution(f"{what}: row sums of second moments must equal the mean")
    diag = np.diagonal(second, axis1=-2, axis2=-1)
    if np.any(diag > mean + PROB_TOL) or np.any(diag < mean**2 - PROB_TOL):
        raise BadDistribution(f"{what}: diagonal must lie between mean**2 and mean")


def _stacked_moments(vectors: np.ndarray, dirichlet: np.ndarray, discrete=()):
    """``(mean, second)`` of shapes (R, k) and (R, k, k) for the ``R`` rows of
    ``vectors``, ``mean[r, i] = E(p_i)`` and ``second[r, i, j] = E(p_i p_j)``;
    unchecked (:func:`_check_moments` checks them).  This is the only moment
    formula.

    Row ``i`` is ``Dirichlet(vectors[i])`` where ``dirichlet[i]``, else
    ``PointMass(vectors[i])``.  For ``Dirichlet(alpha)`` with ``a0 =
    sum(alpha)``::

        E(p_i)     = alpha_i / a0
        E(p_i^2)   = alpha_i (alpha_i + 1) / (a0 (a0 + 1))
        E(p_i p_j) = alpha_i alpha_j / (a0 (a0 + 1))        (i != j)

    and a point mass ``p`` has ``second = outer(p, p)`` and zero variance;
    the two share one outer product.  A point-mass row divides by 1 in place
    of ``a0`` and ``a0 (a0 + 1)``, which is exact.  A Dirichlet row whose
    ``a0 (a0 + 1)`` overflows but ``a0`` does not (``a0`` above about
    1.3e154) takes ``mean_i alpha_j / (a0 + 1)`` and ``mean_i (alpha_i + 1) /
    (a0 + 1)`` instead, which cannot overflow; one whose ``a0`` overflows
    keeps its NaN.  Each ``(i, support)`` of ``discrete`` then overwrites row
    ``i`` with the moments of that :class:`DiscreteSupport`, weighted sums
    over its points.
    """
    n, k = vectors.shape
    a0 = np.where(dirichlet, vectors.sum(axis=1), 1.0)
    denom = np.where(dirichlet, a0 * (a0 + 1.0), 1.0)
    mean = vectors / a0[:, None]
    second = np.multiply(vectors[:, :, None], vectors[:, None, :], out=np.empty((n, k, k)))
    second /= denom[:, None, None]
    diag = vectors * np.where(dirichlet[:, None], vectors + 1.0, vectors) / denom[:, None]
    second.reshape(n, k * k)[:, :: k + 1] = diag
    big = np.flatnonzero(np.isinf(denom) & np.isfinite(a0))
    if big.size:
        share = vectors[big] / (a0[big, None] + 1.0)
        second[big] = mean[big, :, None] * share[:, None, :]
        second.reshape(n, k * k)[big, :: k + 1] = mean[big] * (vectors[big] + 1.0) / (a0[big, None] + 1.0)
    for i, dist in discrete:
        pts, w = dist.points, dist.weights
        mean[i] = w @ pts
        second[i] = pts.T @ (w[:, None] * pts)
    return mean, second


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """One node as listed; slotted, as a validated network keeps them all."""

    id: str
    alternatives: tuple
    parent: Optional[str]
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "rows", tuple(self.rows))


@dataclass(frozen=True)
class NetworkSpec:
    """A network's nodes as listed, in file order; :func:`validate_network`
    checks them.

    A spec from :func:`~treebelief.netfile.parse_network` holds the file as
    :class:`_Columns` instead, and builds ``nodes``, every row object
    included, in one pass when it is first read.
    """

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @classmethod
    def _of_columns(cls, columns: "_Columns") -> "NetworkSpec":
        spec = object.__new__(cls)
        object.__setattr__(spec, "_columns", columns)
        return spec

    def __getattr__(self, name: str):
        # Python calls this only for an attribute that is not set: here the
        # nodes of a spec of columns, until their first read.  Concurrent
        # first reads may each build; ``setdefault``, atomic under the
        # interpreter lock, gives all of them the first tuple stored.
        columns = vars(self).get("_columns")
        if name != "nodes" or columns is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return vars(self).setdefault("nodes", columns.node_specs())


#: Row kinds of :class:`_Columns`: Dirichlet, discrete support, point mass.
_DIRICHLET, _DISCRETE, _POINT = range(3)


class _Columns:
    """A network as parallel columns, which :func:`validate_network` checks.

    Per node, in file order: ``ids``, ``alternatives`` (tuples), ``parents``
    and the arrays ``counts`` and ``starts``: node ``i`` owns rows
    ``starts[i]`` up to ``starts[i] + counts[i]``.  Per row, in file order,
    the arrays ``kinds`` (:data:`_DIRICHLET`, :data:`_DISCRETE` or
    :data:`_POINT`) and ``dims``.  A Dirichlet or point row ``g`` is the
    vector ``stacks[dims[g]][places[g]]`` of a read-only stack, whose buffer
    is read-only too; a discrete row is the object ``discrete[g]``.

    The constructor alone stacks and checks the numbers.  It takes each row's
    kind and, in row order, the Dirichlet and point vectors and the discrete
    rows; the vectors of each length become one ``np.fromiter`` stack, checked
    by one reduction for its Dirichlet rows (finite, > 0) and one for its point
    rows (finite, >= 0, summing to 1).  An empty or failing row raises
    :class:`ValueError`, an int beyond the float range :class:`OverflowError`.

    The columns never change and own no row object: :meth:`node_specs`
    builds new ones, views of the stacks, on each call, and the
    :class:`NetworkSpec` that holds the columns keeps the first result.
    """

    __slots__ = ("ids", "alternatives", "parents", "counts", "starts", "kinds", "dims",
                 "places", "stacks", "discrete")

    def __init__(self, ids, alternatives, parents, counts, kinds, vectors, discrete):
        self.ids, self.alternatives, self.parents = ids, alternatives, parents
        self.counts = np.asarray(counts, dtype=np.intp)
        self.starts = np.cumsum(self.counts) - self.counts
        self.kinds = kinds = np.asarray(kinds, dtype=np.intp)
        self.dims, self.places = np.full(len(kinds), -1, np.intp), np.zeros(len(kinds), np.intp)
        at = np.flatnonzero(kinds == _DISCRETE)
        self.discrete = dict(zip(at.tolist(), discrete))
        self.dims[at] = [row.dim for row in discrete]
        at = np.flatnonzero((kinds == _DIRICHLET) | (kinds == _POINT))
        self.dims[at] = lengths = np.array(list(map(len, vectors)), dtype=np.intp)
        self.stacks = {}
        for size in set(lengths.tolist()):
            if size < 1:
                raise ValueError("a row holds no numbers")
            group = np.flatnonzero(lengths == size)
            rows = vectors if len(group) == len(vectors) else list(map(vectors.__getitem__, group.tolist()))
            buffer = np.fromiter(chain.from_iterable(rows), float, size * len(group))
            buffer.flags.writeable = False
            stack = buffer.reshape(-1, size)
            dirichlet = kinds[at[group]] == _DIRICHLET
            if not (_alpha_ok(stack[dirichlet]) and _prob_rows_ok(stack[~dirichlet])):
                raise ValueError(f"a row of {size} numbers fails its check")
            self.stacks[size] = stack
            self.places[at[group]] = np.arange(len(group))

    @classmethod
    def of_nodes(cls, nodes) -> "_Columns":
        """The columns of :class:`NodeSpec` objects, vectors as lists: ``np.fromiter`` reads them fastest.
        The first row, in file order, that is no distribution object raises :class:`BadDistribution`."""
        kinds, vectors, discrete = [], [], []
        for ns in nodes:
            for j, dist in enumerate(ns.rows):
                if isinstance(dist, (Dirichlet, PointMass)):
                    dirichlet = isinstance(dist, Dirichlet)
                    kinds.append(_DIRICHLET if dirichlet else _POINT)
                    vectors.append((dist.alpha if dirichlet else dist.p).tolist())
                elif isinstance(dist, DiscreteSupport):
                    kinds.append(_DISCRETE)
                    discrete.append(dist)
                else:
                    raise BadDistribution(
                        f"node {ns.id!r}, row {j}: unsupported distribution {type(dist).__name__}"
                    )
        try:
            return cls([ns.id for ns in nodes], [ns.alternatives for ns in nodes],
                       [ns.parent for ns in nodes], [len(ns.rows) for ns in nodes],
                       kinds, vectors, discrete)
        except ValueError as exc:  # only a row made without its constructor gets here
            raise BadDistribution(f"rows fail their checks ({exc})") from exc

    def _row(self, g: int) -> UncertainDistribution:
        kind = self.kinds[g]
        if kind == _DISCRETE:
            return self.discrete[g]
        vector = self.stacks[int(self.dims[g])][self.places[g]]
        return (Dirichlet if kind == _DIRICHLET else PointMass)._checked(vector)

    def node_specs(self) -> tuple:
        """One :class:`NodeSpec` per node, in file order, with new row objects."""
        rows = tuple(map(self._row, range(len(self.kinds))))
        bounds = zip(self.starts.tolist(), (self.starts + self.counts).tolist())
        rows = [rows[lo:hi] for lo, hi in bounds]
        return tuple(map(NodeSpec, self.ids, self.alternatives, self.parents, rows))


class ValidatedNode(NamedTuple):
    """One validated node: a record of its adjacency and its row moments.

    ``mean_rows`` (rows, k) and ``second_rows`` (rows, k, k) are read-only
    views into the moment arrays that :func:`validate_network` builds for all
    nodes with ``k`` alternatives; they are the only stored copy.  The node's
    distribution objects are owned by ``spec``, the :class:`NetworkSpec` it
    was validated from, at ``spec_index`` in ``spec.nodes``: :attr:`rows`
    reads them there.  Records compare and hash by identity, so no two nodes
    are ever compared array by array.
    """

    id: str
    alternatives: tuple
    parent: Optional[str]
    children: tuple
    mean_rows: np.ndarray
    second_rows: np.ndarray
    spec: NetworkSpec
    spec_index: int

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def rows(self) -> tuple:
        return self.spec.nodes[self.spec_index].rows

    @property
    def dim(self) -> int:
        return len(self.alternatives)

    @property
    def row_moments(self) -> tuple:
        """One ``(mean, second)`` pair of read-only views per row of the stored moments."""
        return tuple(zip(self.mean_rows, self.second_rows))


class ChainSegment(NamedTuple):
    """``n`` one-node depths from ``depth`` down, each node of ``k``
    alternatives and ``r`` rows, so ``r == k`` unless ``n == 1``.  The nodes'
    slots count up from ``slot``, their first rows from ``row`` by ``r`` and
    their positions from ``position``; the top node's parent has slot
    ``parent`` among the nodes of ``r`` alternatives, and each lower node's
    parent is the node above it."""

    depth: int
    n: int
    k: int
    r: int
    slot: int
    row: int
    position: int
    parent: int


class LevelPlan(NamedTuple):
    """The tree compiled once for a depth-by-depth sweep.

    Nodes with ``k`` alternatives own *slots* ``0..n_k-1``, sorted by depth,
    row count ``r`` (the parent's ``k``; 1 at the root) and the parent's
    number of children.  ``moments[k]`` holds their row moments in slot
    order, ``(mean, second, flat)`` with ``flat`` a ``(rows, k * k)`` view of
    ``second``, a node's first row at ``row_start[k][slot]``.
    Non-root nodes with ``r`` rows own *positions* ``0..sib_counts[r]-1`` in
    which each parent's children are consecutive.  ``slot[id]`` is ``(depth,
    k, slot, r, position)``.  ``steps`` covers every depth below the root, in
    depth order.  A depth of several nodes is a *level* ``(depth, groups,
    runs)``: a group ``(r, k, slots, rows, positions, parents)`` holds its
    nodes of equal ``(r, k)`` and their parents' slots, a run ``(r, m, kids,
    parents)`` the ``P * m`` positions of its nodes whose ``P`` parents have
    ``m`` children; indices are slices, or read-only arrays where they skip.
    Each maximal run of one-node depths of equal ``k`` and ``r`` is a
    :class:`ChainSegment`.  ``places`` is a read-only ``(n, 5)`` int array of
    the ``slot`` tuples in ``ValidatedNetwork.order``.  The dicts are
    read-only mappings.  ``prior`` holds the prior parent messages ``(q, T)``
    of the *leading path*, the chain segments that open ``steps``: one pair
    of read-only arrays per segment, shaped like its slice of a
    :class:`~treebelief.propagation.MessageState`'s parent messages, so the
    leading segments are ``steps[:len(prior)]``.  Each such node is a lone
    child, and a segment's downward step divides by no ``D``, so these
    messages depend on the stored rows alone, down to a query's shallowest
    instantiated node; :func:`~treebelief.propagation._prior_path` computes
    them at validation.
    """

    slot: Mapping[str, tuple]
    sib_counts: Mapping[int, int]
    steps: Tuple[Union[tuple, ChainSegment], ...]
    moments: Mapping[int, tuple]
    row_start: Mapping[int, np.ndarray]
    places: np.ndarray
    prior: Tuple[Tuple[np.ndarray, np.ndarray], ...]


def _index(values: List[int]):
    """A slice if ``values`` count up by one, else a read-only index array."""
    first, n = values[0], len(values)
    if values[-1] - first == n - 1 and values == list(range(first, first + n)):
        return slice(first, first + n)
    arr = np.array(values, dtype=np.intp)
    arr.flags.writeable = False
    return arr


def _runs(order: np.ndarray, *columns):
    """``columns`` in ``order`` as lists, and each run of equal first three."""
    columns = np.stack(columns)[:, order]
    cut = np.flatnonzero(np.any(columns[:3, 1:] != columns[:3, :-1], axis=0)) + 1
    bounds = [0, *cut.tolist(), len(order)] if len(order) else []
    return columns.tolist(), zip(bounds, bounds[1:])


def _compile(order, above, depth, k, r, m):
    """``(slot, members, row_start, sib_counts, steps, places)``: ``members[k]`` holds
    the walk positions of the nodes with ``k`` alternatives in slot order, the
    rest is a :class:`LevelPlan`'s.

    ``order`` is the depth-first walk of :func:`validate_network`, so each
    parent's children are consecutive; ``above`` and ``depth`` give each
    node's parent's place in it (0 at the root) and depth, and the arrays
    ``k``, ``r`` and ``m`` its alternative and row counts and its parent's
    number of children.  Two stable sorts give the slot and sibling orders;
    ties keep ``order``.
    """
    n = len(order)
    above, depth = np.array(above), np.array(depth)
    plan = np.lexsort((m, k, r, depth))
    sib = np.lexsort((m, r, depth))[1:]  # the root sorts first and has no siblings
    slot, pos, first_row = np.empty(n, np.intp), np.zeros(n, np.intp), np.empty(n, np.intp)
    by_k, row_start, sib_counts = {}, {}, {}
    for kv in sorted(set(k.tolist())):
        by_k[kv] = members = plan[k[plan] == kv]
        slot[members] = np.arange(len(members))
        first_row[members] = row_start[kv] = np.cumsum(r[members]) - r[members]
        row_start[kv].flags.writeable = False
    for rv in sorted(set(r[sib].tolist())):
        members = sib[r[sib] == rv]
        pos[members] = np.arange(len(members))
        sib_counts[rv] = len(members)

    alone, parents, steps = (np.bincount(depth) == 1)[depth], slot[above], {}
    (d, rr, kk, s, ro, p, ps), runs = _runs(plan[~alone[plan]], depth, r, k, slot, first_row, pos, parents)
    for a, b in runs:
        rows = slice(ro[a], ro[a] + rr[a] * (b - a))
        group = (rr[a], kk[a], slice(s[a], s[a] + b - a), rows, _index(p[a:b]), _index(ps[a:b]))
        steps.setdefault(d[a], (d[a], [], []))[1].append(group)
    (d, rr, mm, p, ps), runs = _runs(sib[~alone[sib]], depth, r, m, pos, parents)
    for a, b in runs:
        steps[d[a]][2].append((rr[a], mm[a], slice(p[a], p[a] + b - a), _index(ps[a:b:mm[a]])))
    lone = plan[alone[plan]][1:]  # by depth, below the root
    table = np.stack((depth, k, r))[:, lone]
    cut = np.flatnonzero((np.diff(table[0]) > 1) | (np.diff(table[1:]) != 0).any(axis=0)) + 1
    bounds = [0, *cut.tolist(), len(lone)] if len(lone) else []
    for a, b in zip(bounds, bounds[1:]):
        top = lone[a]
        fields = depth[top], b - a, k[top], r[top], slot[top], first_row[top], pos[top], parents[top]
        segment = ChainSegment(*map(int, fields))
        steps[segment.depth] = segment
    places = np.stack((depth, k, slot, r, pos), axis=1)
    places.flags.writeable = False
    slot = MappingProxyType(dict(zip(order, map(tuple, places.tolist()))))
    steps = tuple(steps[d] for d in sorted(steps))
    return slot, by_k, MappingProxyType(row_start), MappingProxyType(sib_counts), steps, places


@dataclass(frozen=True, eq=False, repr=False)
class ValidatedNetwork:
    """A structurally checked network with parent/child adjacency resolved.

    ``nodes`` is a read-only mapping from id to :class:`ValidatedNode`;
    ``order`` lists node ids with every parent before its children; ``plan``
    is the :class:`LevelPlan` that propagation sweeps.  No attribute can be
    set or deleted.  Pickling and copying validate the spec again, so the
    copy's arrays are read-only and its nodes view its plan's moments.
    """

    nodes: Mapping[str, ValidatedNode]
    order: tuple
    root: str
    plan: LevelPlan

    def __post_init__(self):
        object.__setattr__(self, "nodes", MappingProxyType(dict(self.nodes)))
        object.__setattr__(self, "order", tuple(self.order))

    def __reduce__(self):
        return validate_network, (self.nodes[self.root].spec,)

    def node(self, node_id: str) -> ValidatedNode:
        try:
            return self.nodes[node_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownNode(f"node {node_id!r} is not part of the network") from None

    def alt_index(self, node_id: str, label: str) -> int:
        node = self.node(node_id)
        try:
            return node.alternatives.index(label)
        except ValueError:
            raise UnknownAlternative(
                f"node {node_id!r} has no alternative {label!r}"
            ) from None

    def __contains__(self, node_id: str) -> bool:
        try:
            return node_id in self.nodes
        except TypeError:  # an unhashable id
            return False

    def __len__(self) -> int:
        return len(self.nodes)


#: Most float cells that :func:`validate_network` admits for a network's row
#: moments and one query's messages: a node of ``k`` alternatives and ``r``
#: rows holds ``r (k + k**2)`` of row moments, and a query's state holds
#: four ``k + k**2`` messages per node.  1.6 GB of float64; a 10**6-node
#: tree of ``k = 3`` needs 8.4e7, and two nodes of ``k = 1000`` 1.0e9.
_CELL_CAP = 2e8

#: Second-moment cells per :func:`_check_moments` call in :func:`validate_network`,
#: or one row where a row holds more; bounds the check's temporaries to a few
#: copies of one block of second moments, whatever the alternative count.
_CHECK_CELLS = 1 << 16


def validate_network(spec: NetworkSpec) -> ValidatedNetwork:
    """Check every structural invariant of ``spec`` and resolve adjacency.

    One core checks the network's :class:`_Columns`: those of a parsed spec,
    or of the rows of ``spec.nodes``, where the first row that is no
    distribution object is named before anything else is checked; labels
    must be strings and a parent a string or ``None``, as in a file.
    Structure and dimensions are checked first; one depth-first walk from
    the root orders the tree, in time linear in the node count whatever the
    order of the nodes, and a node it misses lies below a parent cycle.
    Alternative, row and dimension counts are each compared as one array,
    and on a fault a per-node scan names the first bad node in file order.
    Then a network whose row moments and one query's messages would need
    more than :data:`_CELL_CAP` cells raises :class:`CapExceeded`, naming
    its largest node, so no large allocation is tried.  The row moments are
    computed per alternative count ``k``, from one gather of the rows of
    that ``k`` in :class:`LevelPlan` order (:func:`_stacked_moments`), and
    checked against the :func:`_check_moments` invariants in blocks of
    :data:`_CHECK_CELLS` cells.  Each node keeps read-only views of its rows.
    Last, the leading path's prior messages are swept once and kept
    (``LevelPlan.prior``).

    Raises :class:`CycleDetected`, :class:`MultipleRoots`,
    :class:`DimensionMismatch` or :class:`BadDistribution`, always naming the
    offending node, or :class:`CapExceeded`.  A structural fault is reported
    before the cap, and the cap before any bad moments;
    among nodes with bad moments, the first in file order is named.
    """
    columns = getattr(spec, "_columns", None) or _Columns.of_nodes(spec.nodes)
    ids, parents = columns.ids, columns.parents
    if not ids:
        raise InvalidNetwork("network has no nodes")

    index = {}
    for i, node_id in enumerate(ids):
        if not isinstance(node_id, str) or not node_id:
            raise InvalidNetwork(f"node id {node_id!r} must be a non-empty string")
        if node_id in index:
            raise InvalidNetwork(f"duplicate node id {node_id!r}")
        index[node_id] = i

    roots = [node_id for node_id, parent in zip(ids, parents) if parent is None]
    if len(roots) > 1:
        raise MultipleRoots(f"nodes {roots[0]!r} and {roots[1]!r} both claim no parent")
    if not roots:
        raise CycleDetected("no root: every node names a parent")
    root = roots[0]

    children = {node_id: [] for node_id in ids}
    for node_id, parent in zip(ids, parents):
        if parent is None:
            continue
        if not isinstance(parent, str):
            raise InvalidNetwork(f"node {node_id!r}: parent {parent!r} must be a string or None")
        if parent not in index:
            raise UnknownNode(f"node {node_id!r}: parent {parent!r} is not defined")
        if parent == node_id:
            raise CycleDetected(f"node {node_id!r} is its own parent")
        children[parent].append(node_id)

    # Depth-first from the root, on parallel stacks: a tuple per node would
    # trigger cyclic garbage collections over the whole heap.
    order, above, depth, stack, ups = [], [], [], [root], [0]
    while stack:
        cur, up = stack.pop(), ups.pop()
        stack += reversed(children[cur])
        ups += [len(order)] * len(children[cur])
        depth.append(depth[up] + 1 if order else 0)
        order.append(cur)
        above.append(up)
    if len(order) < len(ids):
        # a missed node's parent chain meets no reached node, so it ends in a cycle
        seen = set(order)
        cur = next(node_id for node_id in ids if node_id not in seen)
        while cur not in seen:
            seen.add(cur)
            cur = parents[index[cur]]
        raise CycleDetected(f"node {cur!r} is part of a parent cycle")

    ks = np.array(list(map(len, columns.alternatives)))
    at = np.array(list(map(index.__getitem__, order)))  # each node of order, in the file
    k = ks[at]
    r = k[above]
    r[0] = 1
    if not (
        (ks >= 2).all()
        and (columns.counts[at] == r).all()
        and (columns.dims == np.repeat(ks, columns.counts)).all()
        and set(map(type, chain.from_iterable(columns.alternatives))) <= {str}
        and list(map(len, map(set, columns.alternatives))) == ks.tolist()
    ):
        _scan_dimensions(columns, index)
    cells = (r + 4.0) * k * (k + 1.0)  # float: k**3 may pass the int64 range
    if cells.sum() > _CELL_CAP:
        i = int(cells.argmax())
        raise CapExceeded(f"row moments and one query's messages would need {cells.sum():.3g} cells, "
                          f"above the cap of {_CELL_CAP:.3g}; node {order[i]!r} ({k[i]} alternatives, "
                          f"{r[i]} rows) alone needs {cells[i]:.3g}")
    m = np.array(list(map(len, map(children.__getitem__, order))))[above]
    slot, by_k, row_start, sib_counts, steps, places = _compile(order, above, depth, k, r, m)

    means, seconds, moments, failed = [None] * len(ids), [None] * len(ids), {}, False
    for kv, members in by_k.items():
        at_k = at[members]
        counts, first = columns.counts[at_k], row_start[kv]
        rows = np.repeat(columns.starts[at_k] - first, counts) + np.arange(first[-1] + counts[-1])
        kinds = columns.kinds[rows]
        found = np.flatnonzero(kinds == _DISCRETE)
        discrete = [(i, columns.discrete[g]) for i, g in zip(found.tolist(), rows[found].tolist())]
        stack = columns.stacks.get(kv)
        vectors = np.zeros((len(rows), kv)) if stack is None else stack[columns.places[rows]]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check below
            mean, second = _stacked_moments(vectors, kinds == _DIRICHLET, discrete)
        mean.flags.writeable = second.flags.writeable = False
        moments[kv] = mean, second, second.reshape(len(second), kv * kv)
        for i, lo, hi in zip(at_k.tolist(), first.tolist(), (first + counts).tolist()):
            means[i], seconds[i] = mean[lo:hi], second[lo:hi]
        step = max(1, _CHECK_CELLS // (kv * kv))
        for lo in range(0, len(mean), step):
            try:
                _check_moments(mean[lo : lo + step], second[lo : lo + step], "rows")
            except BadDistribution:
                failed = True
                break
    if failed:  # invariants hold row by row, so some node fails its own check
        for node_id, mean, second in zip(ids, means, seconds):
            _check_moments(mean, second, f"node {node_id!r}")

    kids = map(tuple, map(children.__getitem__, ids))
    nodes = map(ValidatedNode, ids, columns.alternatives, parents, kids, means, seconds,
                repeat(spec), range(len(ids)))
    from .propagation import _prior_path  # propagation imports this module

    moments = MappingProxyType(moments)
    plan = LevelPlan(slot, sib_counts, steps, moments, row_start, places, _prior_path(steps, moments))
    return ValidatedNetwork(dict(zip(ids, nodes)), order, root, plan)


def _scan_dimensions(columns: _Columns, index: Dict[str, int]) -> None:
    """Raise for the first node, in file order, whose alternatives, row count
    or row dimensions are wrong."""
    nodes = zip(columns.ids, columns.alternatives, columns.parents)
    for i, (node_id, alts, parent) in enumerate(nodes):
        k = len(alts)
        if k < 2:
            raise InvalidNetwork(f"node {node_id!r}: at least two alternatives required")
        if not all(isinstance(label, str) for label in alts):
            raise InvalidNetwork(f"node {node_id!r}: alternative labels must be strings")
        if len(set(alts)) != k:
            raise InvalidNetwork(f"node {node_id!r}: alternative labels must be unique")
        n_rows = int(columns.counts[i])
        expected_rows = 1 if parent is None else len(columns.alternatives[index[parent]])
        if n_rows != expected_rows:
            raise DimensionMismatch(f"node {node_id!r}: {n_rows} rows, expected {expected_rows}")
        lo = int(columns.starts[i])
        for j, dim in enumerate(columns.dims[lo : lo + n_rows].tolist()):
            if dim != k:
                raise DimensionMismatch(
                    f"node {node_id!r}, row {j}: distribution dimension {dim} "
                    f"!= {k} alternatives"
                )


def check_evidence(net: ValidatedNetwork, evidence: Mapping[str, int]) -> None:
    """Raise unless every evidence entry names a known node and alternative.

    Indices are integers; ``bool`` is rejected although it subclasses ``int``,
    because numpy would read it as a mask.
    """
    for node_id, idx in evidence.items():
        node = net.node(node_id)
        if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)) or not 0 <= idx < node.dim:
            raise UnknownAlternative(
                f"node {node_id!r}: alternative index {idx!r} out of range"
            )


def check_observed_entries(net: ValidatedNetwork, evidence: Mapping[str, int]) -> None:
    """Raise :class:`InconsistentEvidence` if an instantiated node whose
    parent is instantiated or absent observes an entry of mean zero.

    Such a node contributes its observed row entry ``p(x | parent)`` to the
    evidence probability as a factor of its own, outside every evidence
    island; a zero mean makes the evidence impossible in every realization.
    The entries are gathered in one array, and the first zero, in evidence
    order, is named.
    """
    fixed = [(node_id, net.nodes[node_id].parent) for node_id in evidence]
    fixed = [(node_id, 0 if above is None else evidence[above]) for node_id, above in fixed
             if above is None or above in evidence]
    entries = np.fromiter((net.nodes[node_id].mean_rows[row, evidence[node_id]] for node_id, row in fixed),
                          float, len(fixed))
    zero = np.flatnonzero(entries == 0.0)
    if zero.size:
        raise InconsistentEvidence(f"evidence at node {fixed[zero[0]][0]!r} has zero mean probability")
