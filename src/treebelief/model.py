"""Tree belief networks with second-order uncertainty on their stored probabilities.

A network is a rooted tree of categorical nodes.  Every node stores one
probability row per parent alternative (a single row for the root), and each
row is *uncertain*: instead of a fixed probability vector it carries a
distribution over probability vectors.  The propagation engine never looks at
those distributions directly; it consumes only their first moments ``E(p_i)``
and second moments ``E(p_i p_j)``, packaged here as :class:`MomentSet`.

:func:`validate_network` computes those moments once, for all rows with the
same alternative count together, and checks them in blocks of rows; each
:class:`ValidatedNode` holds read-only views of its own rows.  The rows lie
in the level order of the :class:`LevelPlan` that it compiles for propagation.

All types are immutable after construction and all operations are pure
functions, so they are safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Union

import numpy as np

from .errors import (
    BadDistribution,
    CycleDetected,
    DimensionMismatch,
    InvalidNetwork,
    MultipleRoots,
    UnknownAlternative,
    UnknownNode,
)

#: Absolute tolerance on probability-vector and weight sums.
PROB_TOL = 1e-9


def _prob_vector(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise BadDistribution(f"{what}: expected a non-empty 1-d probability vector")
    if not (np.isfinite(arr).all() and (arr >= 0.0).all()):
        raise BadDistribution(f"{what}: entries must be finite and >= 0")
    if abs(float(arr.sum()) - 1.0) > PROB_TOL:
        raise BadDistribution(f"{what}: entries sum to {arr.sum()!r}, not 1")
    arr.flags.writeable = False
    return arr


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
        arr = np.asarray(self.alpha, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise BadDistribution("dirichlet: alpha must be a non-empty vector")
        if not _alpha_ok(arr):
            raise BadDistribution("dirichlet: every alpha entry must be > 0")
        arr.flags.writeable = False
        object.__setattr__(self, "alpha", arr)

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
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise BadDistribution("discrete support: points must be a (m, k) array")
        if not _prob_rows_ok(pts):  # the per-point check names the first bad point
            for row in range(pts.shape[0]):
                _prob_vector(pts[row], f"discrete support point {row}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise BadDistribution("discrete support: one weight per point required")
        if not (np.isfinite(w).all() and (w > 0.0).all()):
            raise BadDistribution("discrete support: weights must be finite and > 0")
        if abs(float(w.sum()) - 1.0) > PROB_TOL:
            raise BadDistribution(f"discrete support: weights sum to {w.sum()!r}, not 1")
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

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

    ``mean`` is ``(..., k)`` and ``second`` is ``(..., k, k)``; every leading
    row is checked at once.  Because each underlying random vector sums to 1,
    every row of a second-moment matrix must sum back to its mean, and the
    diagonal is squeezed between ``mean**2`` and ``mean``.  Non-finite values
    are rejected first, since every comparison with NaN is false.
    """
    if mean.ndim < 1 or second.shape != mean.shape + mean.shape[-1:]:
        raise BadDistribution(f"{what}: mean (k,) and second (k, k) required")
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


@dataclass(frozen=True, eq=False)
class MomentSet:
    """First and second moments of one uncertain probability vector.

    ``mean[i] = E(p_i)`` and ``second[i, j] = E(p_i p_j)``, subject to the
    invariants of :func:`_check_moments`.
    """

    mean: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        second = np.asarray(self.second, dtype=float)
        if mean.ndim != 1:
            raise BadDistribution("moment set: mean (k,) and second (k, k) required")
        _check_moments(mean, second, "moment set")
        mean.flags.writeable = False
        second.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "second", second)

    @classmethod
    def _checked(cls, mean: np.ndarray, second: np.ndarray) -> "MomentSet":
        """Wrap read-only arrays that already passed :func:`_check_moments`."""
        view = object.__new__(cls)
        object.__setattr__(view, "mean", mean)
        object.__setattr__(view, "second", second)
        return view

    @property
    def dim(self) -> int:
        return self.mean.size

    def variance(self) -> np.ndarray:
        return np.diag(self.second) - self.mean**2


_KINDS = (Dirichlet, DiscreteSupport, PointMass)


def _row_moments(rows, k: int):
    """``(mean, second)`` of shapes (R, k) and (R, k, k) for ``R`` rows of
    dimension ``k``, each one of :data:`_KINDS`; unchecked.  This is the only
    moment formula: :func:`moments_of` documents it.

    Dirichlet alphas and point-mass vectors are stacked and share one outer
    product.  A point-mass row divides by 1 in place of ``a0`` and
    ``a0 (a0 + 1)``, which is exact.  Discrete supports are filled in row by
    row.
    """
    n = len(rows)
    vectors = np.zeros((n, k))
    dirichlet = np.zeros(n, dtype=bool)
    discrete = []
    for i, dist in enumerate(rows):
        if isinstance(dist, Dirichlet):
            vectors[i] = dist.alpha
            dirichlet[i] = True
        elif isinstance(dist, PointMass):
            vectors[i] = dist.p
        else:
            discrete.append(i)
    a0 = np.where(dirichlet, vectors.sum(axis=1), 1.0)
    denom = np.where(dirichlet, a0 * (a0 + 1.0), 1.0)
    mean = vectors / a0[:, None]
    second = np.multiply(vectors[:, :, None], vectors[:, None, :], out=np.empty((n, k, k)))
    second /= denom[:, None, None]
    diag = vectors * np.where(dirichlet[:, None], vectors + 1.0, vectors) / denom[:, None]
    second.reshape(n, k * k)[:, :: k + 1] = diag
    for i in discrete:
        pts, w = rows[i].points, rows[i].weights
        mean[i] = w @ pts
        second[i] = pts.T @ (w[:, None] * pts)
    return mean, second


def moments_of(dist: UncertainDistribution) -> MomentSet:
    """Extract the moments the propagation engine needs from a distribution.

    For ``Dirichlet(alpha)`` with ``a0 = sum(alpha)``::

        E(p_i)     = alpha_i / a0
        E(p_i^2)   = alpha_i (alpha_i + 1) / (a0 (a0 + 1))
        E(p_i p_j) = alpha_i alpha_j / (a0 (a0 + 1))        (i != j)

    Discrete supports take weighted sums over their points; a point mass has
    ``second = outer(p, p)`` and zero variance.  Moments that overflow to a
    non-finite value raise :class:`BadDistribution`.
    """
    if not isinstance(dist, _KINDS):
        raise BadDistribution(f"unsupported distribution type {type(dist).__name__}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, second = _row_moments((dist,), dist.dim)
    return MomentSet(mean[0], second[0])


@dataclass(frozen=True)
class NodeSpec:
    id: str
    alternatives: tuple
    parent: Optional[str]
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "rows", tuple(self.rows))


@dataclass(frozen=True)
class NetworkSpec:
    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))


class ValidatedNode:
    """One node with resolved adjacency and precomputed row moments.

    ``mean_rows`` (rows, k) and ``second_rows`` (rows, k, k) are read-only
    views into the moment arrays that :func:`validate_network` builds for all
    nodes with ``k`` alternatives; they are the only stored copy.
    """

    __slots__ = ("id", "alternatives", "parent", "children", "rows", "mean_rows", "second_rows")

    def __init__(self, spec: NodeSpec, children, mean_rows: np.ndarray, second_rows: np.ndarray):
        self.id = spec.id
        self.alternatives = spec.alternatives
        self.parent = spec.parent
        self.children = tuple(children)
        self.rows = spec.rows
        mean_rows.flags.writeable = False
        second_rows.flags.writeable = False
        self.mean_rows = mean_rows
        self.second_rows = second_rows

    @property
    def dim(self) -> int:
        return len(self.alternatives)

    @property
    def row_moments(self) -> tuple:
        """One :class:`MomentSet` view per row of the stored moments."""
        return tuple(map(MomentSet._checked, self.mean_rows, self.second_rows))


class LevelPlan(NamedTuple):
    """The tree compiled once for a level-by-level sweep.

    Nodes with ``k`` alternatives own *slots* ``0..n_k-1``, sorted by depth,
    row count ``r`` (the parent's ``k``; 1 at the root) and the parent's
    number of children; ``ids[k]`` lists them.  ``moments[k]`` holds their row
    moments in slot order, a node's first at ``row_start[k][slot]``.  Non-root
    nodes with ``r`` rows own *positions* ``0..sib_counts[r]-1`` in which each
    parent's children are consecutive.  ``slot[id]`` is ``(depth, k, slot, r,
    position)``.  ``levels[d]`` is ``(groups, runs)``: a group ``(r, k, slots,
    rows, positions, parents)`` holds the nodes of depth ``d`` with equal
    ``(r, k)`` and its parents' slots; a run ``(r, m, kids, parents)`` the
    ``P * m`` positions of the children of ``P`` parents of depth ``d`` with
    ``r`` alternatives and ``m`` children.  Indices are slices where they
    count up by one, else read-only arrays; the root's are unused.  On a level
    of one node, the group's ``slots``, ``positions`` and ``parents`` and the
    ``kids`` and ``parents`` of the run that feeds it are plain ints instead,
    which marks the level for the sweep's 2-D step.
    """

    slot: Dict[str, tuple]
    ids: Dict[int, List[str]]
    sib_counts: Dict[int, int]
    levels: List[tuple]
    moments: Dict[int, tuple]
    row_start: Dict[int, np.ndarray]


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


def _compile(order, above, depth, by_id, children):
    """``(slot, ids, row_start, sib_counts, levels)`` of a :class:`LevelPlan`.

    ``order`` is the depth-first walk of :func:`validate_network`, so each
    parent's children are consecutive; ``above`` and ``depth`` give each
    node's parent's place in it (0 at the root) and depth.  Two stable sorts
    give the slot and sibling orders; ties keep ``order``.
    """
    n = len(order)
    above, depth = np.array(above), np.array(depth)
    k = np.array([len(by_id[c].alternatives) for c in order])
    r, m = k[above], np.array([len(children[c]) for c in order])[above]
    r[0] = 1
    plan = np.lexsort((m, k, r, depth))
    sib = np.lexsort((m, r, depth))[1:]  # the root sorts first and has no siblings
    slot, pos, first_row = np.empty(n, np.intp), np.zeros(n, np.intp), np.empty(n, np.intp)
    ids, row_start, sib_counts = {}, {}, {}
    for kv in sorted(set(k.tolist())):
        members = plan[k[plan] == kv]
        slot[members] = np.arange(len(members))
        ids[kv] = [order[i] for i in members.tolist()]
        first_row[members] = row_start[kv] = np.cumsum(r[members]) - r[members]
        row_start[kv].flags.writeable = False
    for rv in sorted(set(r[sib].tolist())):
        members = sib[r[sib] == rv]
        pos[members] = np.arange(len(members))
        sib_counts[rv] = len(members)

    levels = [([], []) for _ in range(int(depth.max()) + 1)]
    alone = (np.bincount(depth) == 1).tolist()
    (d, rr, kk, s, ro, p, ps), runs = _runs(plan, depth, r, k, slot, first_row, pos, slot[above])
    for a, b in runs:
        g = b - a
        rows = slice(ro[a], ro[a] + rr[a] * g)
        if alone[d[a]]:
            levels[d[a]][0].append((rr[a], kk[a], s[a], rows, p[a], ps[a]))
            continue
        pos_ab, parents = _index(p[a:b]), _index(ps[a:b])
        levels[d[a]][0].append((rr[a], kk[a], slice(s[a], s[a] + g), rows, pos_ab, parents))
    (d, rr, mm, p, ps), runs = _runs(sib, depth, r, m, pos, slot[above])
    for a, b in runs:
        if alone[d[a]]:
            levels[d[a] - 1][1].append((rr[a], 1, p[a], ps[a]))
            continue
        kids, parents = slice(p[a], p[a] + b - a), _index(ps[a:b:mm[a]])
        levels[d[a] - 1][1].append((rr[a], mm[a], kids, parents))
    slot = dict(zip(order, zip(depth.tolist(), k.tolist(), slot.tolist(), r.tolist(), pos.tolist())))
    return slot, ids, row_start, sib_counts, levels


class ValidatedNetwork:
    """A structurally checked network with parent/child adjacency resolved.

    ``order`` lists node ids with every parent before its children; ``plan``
    is the :class:`LevelPlan` that propagation sweeps.
    """

    __slots__ = ("nodes", "order", "root", "plan")

    def __init__(self, nodes: Mapping[str, ValidatedNode], order, root: str, plan: LevelPlan):
        self.nodes = dict(nodes)
        self.order = tuple(order)
        self.root = root
        self.plan = plan

    def node(self, node_id: str) -> ValidatedNode:
        try:
            return self.nodes[node_id]
        except KeyError:
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
        return node_id in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


#: Rows per :func:`_check_moments` call in :func:`validate_network`; bounds
#: the check's temporaries to a few copies of one block of second moments.
_CHECK_ROWS = 1024


def validate_network(spec: NetworkSpec) -> ValidatedNetwork:
    """Check every structural invariant of ``spec`` and resolve adjacency.

    Structure and dimensions are checked first; one depth-first walk from the
    root orders the tree, in time linear in the node count whatever the order
    of ``spec.nodes``, and a node it misses lies below a parent cycle.  Then
    the row moments are computed per alternative count ``k``, in one
    vectorized pass over all rows of that ``k`` in :class:`LevelPlan` order
    (:func:`_row_moments`), and checked against the :func:`_check_moments`
    invariants in blocks of :data:`_CHECK_ROWS` rows.  Each node keeps
    read-only views of its rows.

    Raises :class:`CycleDetected`, :class:`MultipleRoots`,
    :class:`DimensionMismatch` or :class:`BadDistribution`, always naming the
    offending node.  A structural fault is reported before any bad moments;
    among nodes with bad moments, the first in file order is named.
    """
    if not spec.nodes:
        raise InvalidNetwork("network has no nodes")

    by_id = {}
    for ns in spec.nodes:
        if not isinstance(ns.id, str) or not ns.id:
            raise InvalidNetwork(f"node id {ns.id!r} must be a non-empty string")
        if ns.id in by_id:
            raise InvalidNetwork(f"duplicate node id {ns.id!r}")
        by_id[ns.id] = ns

    roots = [ns.id for ns in spec.nodes if ns.parent is None]
    if len(roots) > 1:
        raise MultipleRoots(f"nodes {roots[0]!r} and {roots[1]!r} both claim no parent")
    if not roots:
        raise CycleDetected("no root: every node names a parent")
    root = roots[0]

    children = {ns.id: [] for ns in spec.nodes}
    for ns in spec.nodes:
        if ns.parent is None:
            continue
        if ns.parent not in by_id:
            raise UnknownNode(f"node {ns.id!r}: parent {ns.parent!r} is not defined")
        if ns.parent == ns.id:
            raise CycleDetected(f"node {ns.id!r} is its own parent")
        children[ns.parent].append(ns.id)

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
    if len(order) < len(spec.nodes):
        # a missed node's parent chain meets no reached node, so it ends in a cycle
        seen = set(order)
        cur = next(ns.id for ns in spec.nodes if ns.id not in seen)
        while cur not in seen:
            seen.add(cur)
            cur = by_id[cur].parent
        raise CycleDetected(f"node {cur!r} is part of a parent cycle")

    for ns in spec.nodes:
        k = len(ns.alternatives)
        if k < 2:
            raise InvalidNetwork(f"node {ns.id!r}: at least two alternatives required")
        if len(set(ns.alternatives)) != k:
            raise InvalidNetwork(f"node {ns.id!r}: alternative labels must be unique")
        expected_rows = 1 if ns.parent is None else len(by_id[ns.parent].alternatives)
        if len(ns.rows) != expected_rows:
            raise DimensionMismatch(
                f"node {ns.id!r}: {len(ns.rows)} rows, expected {expected_rows}"
            )
        for j, dist in enumerate(ns.rows):
            if not isinstance(dist, _KINDS):
                raise BadDistribution(
                    f"node {ns.id!r}, row {j}: unsupported distribution "
                    f"{type(dist).__name__}"
                )
            if dist.dim != k:
                raise DimensionMismatch(
                    f"node {ns.id!r}, row {j}: distribution dimension {dist.dim} "
                    f"!= {k} alternatives"
                )

    slot, ids, row_start, sib_counts, levels = _compile(order, above, depth, by_id, children)

    row_views, moments, failed = {}, {}, False
    for k, members in ids.items():
        members = [by_id[c] for c in members]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check below
            mean, second = _row_moments([d for ns in members for d in ns.rows], k)
        mean.flags.writeable = second.flags.writeable = False
        moments[k] = mean, second
        for ns, lo in zip(members, row_start[k].tolist()):
            row_views[ns.id] = mean[lo : lo + len(ns.rows)], second[lo : lo + len(ns.rows)]
        for lo in range(0, len(mean), _CHECK_ROWS):
            try:
                _check_moments(mean[lo : lo + _CHECK_ROWS], second[lo : lo + _CHECK_ROWS], "rows")
            except BadDistribution:
                failed = True
                break
    if failed:  # invariants hold row by row, so some node fails its own check
        for ns in spec.nodes:
            _check_moments(*row_views[ns.id], f"node {ns.id!r}")

    validated = {
        ns.id: ValidatedNode(ns, children[ns.id], *row_views[ns.id]) for ns in spec.nodes
    }

    plan = LevelPlan(slot, ids, sib_counts, levels, moments, row_start)
    return ValidatedNetwork(validated, order, root, plan)


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
