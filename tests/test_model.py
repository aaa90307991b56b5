import copy
import dataclasses
import gc
import pickle
import time
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import mixed_trees, moments_of, random_row, reference_parse, row_arrays
from treebelief import (
    Dirichlet,
    DiscreteSupport,
    NetworkSpec,
    NodeSpec,
    PointMass,
    enumerate_uncertainty,
    load_network,
    parse_network,
    posterior_report,
    propagate,
    save_network,
    validate_network,
)
from treebelief.errors import (
    BadDistribution,
    BeliefNetworkError,
    CapExceeded,
    CycleDetected,
    DimensionMismatch,
    InvalidNetwork,
    MultipleRoots,
    UnknownAlternative,
    UnknownNode,
)
from treebelief import model
from treebelief.model import _DIRICHLET, _Columns, check_evidence
from treebelief.netfile import network_to_json


class TestMomentsOf:
    def test_flat_beta(self):
        m = moments_of(Dirichlet(np.array([1.0, 1.0])))
        assert m.mean == pytest.approx([0.5, 0.5])
        assert m.second[0, 0] == pytest.approx(1 / 3)
        assert m.second[0, 1] == pytest.approx(1 / 6)
        assert m.second[1, 1] == pytest.approx(1 / 3)

    def test_skewed_beta(self):
        m = moments_of(Dirichlet(np.array([3.0, 1.0])))
        assert m.mean == pytest.approx([0.75, 0.25])
        assert m.second[0, 0] == pytest.approx(3 / 5)
        assert m.second[0, 1] == pytest.approx(3 / 20)

    def test_flat_three_way(self):
        m = moments_of(Dirichlet(np.array([1.0, 1.0, 1.0])))
        assert m.mean == pytest.approx([1 / 3] * 3)
        assert np.diag(m.second) == pytest.approx([1 / 6] * 3)
        assert m.second[0, 1] == pytest.approx(1 / 12)
        assert m.second[0, 2] == pytest.approx(1 / 12)

    def test_three_way_against_monte_carlo(self):
        # independent check of the k>2 formulas: sampled moments within 3
        # standard errors of the closed form
        rng = np.random.default_rng(42)
        n = 200_000
        draws = rng.dirichlet(np.array([1.0, 1.0, 1.0]), size=n)
        m = moments_of(Dirichlet(np.array([1.0, 1.0, 1.0])))
        for i in range(3):
            for j in range(3):
                prods = draws[:, i] * draws[:, j]
                se = prods.std(ddof=1) / np.sqrt(n)
                assert abs(prods.mean() - m.second[i, j]) < 3 * se

    def test_two_point_support(self):
        dist = DiscreteSupport(np.array([[0.2, 0.8], [0.6, 0.4]]), np.array([0.5, 0.5]))
        m = moments_of(dist)
        assert m.mean == pytest.approx([0.4, 0.6])
        assert m.second[0, 0] == pytest.approx(0.2)
        assert m.second[0, 1] == pytest.approx(0.2)
        assert m.second[1, 1] == pytest.approx(0.4)

    def test_point_mass(self):
        m = moments_of(PointMass(np.array([0.3, 0.7])))
        assert m.second == pytest.approx(np.array([[0.09, 0.21], [0.21, 0.49]]))
        assert np.diag(m.second) - m.mean**2 == pytest.approx([0.0, 0.0], abs=1e-15)


def _random_distribution(rng):
    kind = rng.integers(3)
    k = int(rng.integers(2, 5))
    if kind == 0:
        return Dirichlet(np.exp(rng.uniform(np.log(0.05), np.log(80.0), size=k)))
    if kind == 1:
        n_pts = int(rng.integers(1, 5))
        return DiscreteSupport(
            rng.dirichlet(np.ones(k), size=n_pts), rng.dirichlet(np.ones(n_pts))
        )
    return PointMass(rng.dirichlet(np.ones(k)))


class TestMomentSetInvariants:
    def test_randomized_distributions(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            m = moments_of(_random_distribution(rng))
            assert np.all(m.mean >= -1e-9)
            assert m.mean.sum() == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(m.second, m.second.T, atol=1e-12)
            assert np.all(m.second >= -1e-12)
            np.testing.assert_allclose(m.second.sum(axis=1), m.mean, atol=1e-9)
            assert np.all(np.diag(m.second) <= m.mean + 1e-9)
            assert np.all(np.diag(m.second) >= m.mean**2 - 1e-9)

    @given(
        st.lists(st.floats(min_value=0.05, max_value=80.0), min_size=2, max_size=2)
    )
    @settings(max_examples=300)
    def test_binary_identities(self, alpha):
        m = moments_of(Dirichlet(np.array(alpha)))
        e, s = m.mean[0], m.second[0, 0]
        # complement second moment and cross moment are determined by (E, S)
        assert m.second[1, 1] == pytest.approx(1 - 2 * e + s, abs=1e-12)
        assert m.second[0, 1] == pytest.approx(e - s, abs=1e-12)
        # both alternatives share one variance
        v1 = s - e**2
        v2 = m.second[1, 1] - m.mean[1] ** 2
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_binary_identities_for_supports(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_pts = int(rng.integers(1, 6))
            m = moments_of(
                DiscreteSupport(
                    rng.dirichlet(np.ones(2), size=n_pts), rng.dirichlet(np.ones(n_pts))
                )
            )
            e, s = m.mean[0], m.second[0, 0]
            assert m.second[1, 1] == pytest.approx(1 - 2 * e + s, abs=1e-12)
            assert m.second[0, 1] == pytest.approx(e - s, abs=1e-12)

    def test_bad_moment_set_rejected(self):
        half, flat = [0.5, 0.5], [[0.25, 0.25], [0.25, 0.25]]
        for mean, second, message in [
            (half, [[0.6, 0.1], [0.1, 0.3]], "row sums of second moments must equal the mean"),
            ([0.5, 0.6], flat, "mean is not a probability vector"),
            (half, [[0.6, -0.1], [-0.1, 0.6]], "second moments must be >= 0"),
            (half, [[0.3, 0.2], [0.25, 0.3]], "second-moment matrix must be symmetric"),
            (half, [[0.2, 0.3], [0.3, 0.2]], "diagonal must lie between mean**2 and mean"),
        ]:
            with pytest.raises(BadDistribution) as info:
                model._check_moments(np.array(mean), np.array(second), "moment set")
            assert str(info.value) == "moment set: " + message

    def test_non_finite_moments_rejected(self):
        # a0 overflows, so every second moment is inf / inf = nan
        with pytest.raises(BadDistribution, match="finite"):
            moments_of(Dirichlet(np.array([1e308, 1e308])))
        spec = _chain(rows_b=(Dirichlet(np.array([1e308, 1e308])), PointMass(np.array([0.2, 0.8]))))
        with pytest.raises(BadDistribution, match="'B'.*finite"):
            validate_network(spec)

    @pytest.mark.parametrize("alpha", [[1e200, 1e200], [1e154, 3e154], [1e300, 2.0, 1e300]])
    def test_very_confident_rows_have_moments(self, alpha):
        # a0 (a0 + 1) overflows while a0 does not: mean_i alpha_j / (a0 + 1)
        # gives the moments, within rounding of the limit, mean outer mean
        got = moments_of(Dirichlet(np.array(alpha)))
        mean = np.array(alpha) / sum(alpha)
        np.testing.assert_array_equal(got.mean, mean)
        np.testing.assert_allclose(got.second, np.outer(mean, mean), rtol=1e-15, atol=0)

    def test_very_confident_row_validates(self):
        spec = _chain(rows_b=(Dirichlet(np.array([1e200, 1e200])), PointMass(np.array([0.2, 0.8]))))
        mean, second = validate_network(spec).nodes["B"].row_moments[0]
        np.testing.assert_array_equal(mean, [0.5, 0.5])
        np.testing.assert_array_equal(second, [[0.25, 0.25], [0.25, 0.25]])

    def test_moments_below_the_overflow_keep_their_bits(self):
        # the largest a0 whose a0 (a0 + 1) is finite takes the outer-product form
        a0 = np.nextafter(np.sqrt(np.finfo(float).max), 0.0)
        alpha = np.array([0.25, 0.75]) * a0
        got = moments_of(Dirichlet(alpha))
        denom = alpha.sum() * (alpha.sum() + 1.0)
        assert np.isfinite(denom)
        want = np.outer(alpha, alpha) / denom
        want[np.diag_indices(2)] = alpha * (alpha + 1.0) / denom
        assert got.second.tobytes() == want.tobytes()

    def test_stored_rows_are_the_row_moments(self):
        node = validate_network(_chain()).nodes["B"]
        assert node.mean_rows.shape == (2, 2) and node.second_rows.shape == (2, 2, 2)
        assert not node.mean_rows.flags.writeable and not node.second_rows.flags.writeable
        for j, (dist, (mean, second)) in enumerate(zip(node.rows, node.row_moments)):
            expected = moments_of(dist)
            np.testing.assert_array_equal(mean, expected.mean)
            np.testing.assert_array_equal(second, expected.second)
            assert np.shares_memory(mean, node.mean_rows) and np.shares_memory(second, node.second_rows)


class TestDistributionValidation:
    def test_zero_alpha(self):
        with pytest.raises(BadDistribution):
            Dirichlet(np.array([1.0, 0.0]))

    def test_support_sum(self):
        with pytest.raises(BadDistribution):
            DiscreteSupport(np.array([[0.5, 0.4]]), np.array([1.0]))

    @pytest.mark.parametrize(
        "points, message",
        [
            ([[0.5, 0.5], [0.5, 0.4], [-1.0, 2.0]], f"1: entries sum to {np.float64(0.9)!r}, not 1"),
            ([[0.5, 0.5], [-1.0, 2.0], [0.5, 0.4]], "1: entries must be finite and >= 0"),
            ([[np.nan, 1.0], [0.5, 0.4]], "0: entries must be finite and >= 0"),
            ([[]], "0: expected a non-empty 1-d probability vector"),
        ],
    )
    def test_first_bad_support_point_is_named(self, points, message):
        weights = np.full(len(points), 1.0 / len(points))
        with pytest.raises(BadDistribution) as info:
            DiscreteSupport(np.array(points), weights)
        assert str(info.value) == "discrete support point " + message

    def test_weights_sum(self):
        with pytest.raises(BadDistribution):
            DiscreteSupport(
                np.array([[0.5, 0.5], [0.1, 0.9]]), np.array([0.6, 0.6])
            )

    def test_negative_point(self):
        with pytest.raises(BadDistribution):
            PointMass(np.array([1.2, -0.2]))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: DiscreteSupport(np.array([0.5, 0.5]), np.array([1.0])),
             "discrete support: points must be a (m, k) array"),
            (lambda: DiscreteSupport(np.array([[0.5, 0.5]]), np.array([0.5, 0.5])),
             "discrete support: one weight per point required"),
            (lambda: Dirichlet(np.array([])), "dirichlet: alpha must be a non-empty vector"),
        ],
        ids=["points-1d", "weight-count", "empty-alpha"],
    )
    def test_malformed_row_rejected(self, make, message):
        with pytest.raises(BadDistribution) as info:
            make()
        assert str(info.value) == message

    def test_empty_alpha_in_a_file_is_named(self):
        # the columns refuse the empty row; the row-by-row walk names it
        with pytest.raises(ValueError, match="^a row holds no numbers$"):
            _Columns(["A"], [("a1", "a2")], [None], [1], [_DIRICHLET], [[]], [])
        doc = {"nodes": [{"id": "A", "alternatives": ["a1", "a2"], "parent": None,
                          "cpt": [{"given": None, "dist": {"type": "dirichlet", "alpha": []}}]}]}
        with pytest.raises(BadDistribution) as info:
            parse_network(doc)
        assert str(info.value) == "node 'A', row 0: dirichlet: alpha must be a non-empty vector"


def _chain(rows_b=None):
    rows_b = rows_b or (
        PointMass(np.array([0.9, 0.1])),
        PointMass(np.array([0.2, 0.8])),
    )
    return NetworkSpec(
        (
            NodeSpec("A", ("a1", "a2"), None, (PointMass(np.array([0.4, 0.6])),)),
            NodeSpec("B", ("b1", "b2"), "A", rows_b),
        )
    )


class TestValidateNetwork:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda spec, path: validate_network(spec),
             "node 'B', row 1: unsupported distribution str"),
            # the row is named before the missing root
            (lambda spec, path: validate_network(NetworkSpec(
                (NodeSpec("A", ("a1", "a2"), "B", spec.nodes[0].rows),) + spec.nodes[1:])),
             "node 'B', row 1: unsupported distribution str"),
            (lambda spec, path: save_network(spec, path), "unsupported distribution type str"),
        ],
        ids=["validate_network", "validate_network-no-root", "save_network"],
    )
    def test_unsupported_row_is_named(self, tmp_path, call, message):
        spec = _chain((PointMass(np.array([0.9, 0.1])), "oops"))
        with pytest.raises(BadDistribution) as info:
            call(spec, str(tmp_path / "net.json"))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "labels, parent, error, message",
        [
            ((1, 2), "A", InvalidNetwork, "node 'B': alternative labels must be strings"),
            (({}, "b2"), "A", InvalidNetwork, "node 'B': alternative labels must be strings"),
            (("b1", "b2"), ["A"], InvalidNetwork, "node 'B': parent ['A'] must be a string or None"),
            (("b1", "b2"), 7, InvalidNetwork, "node 'B': parent 7 must be a string or None"),
            (("b1", "b2"), "Z", UnknownNode, "node 'B': parent 'Z' is not defined"),
            ((np.str_("b1"), "b2"), np.str_("A"), None, None),
        ],
        ids=["int-labels", "dict-label", "list-parent", "int-parent", "unknown-parent", "str-subclass"],
    )
    def test_hand_built_labels_and_parent_meet_the_file_rules(self, tmp_path, labels, parent, error,
                                                              message):
        spec = _chain()
        spec = NetworkSpec((spec.nodes[0], NodeSpec("B", labels, parent, spec.nodes[1].rows)))
        if error is None:  # what validates also saves and loads back
            save_network(spec, str(tmp_path / "net.json"))
            assert validate_network(load_network(str(tmp_path / "net.json"))).order == ("A", "B")
            return
        with pytest.raises(error) as info:
            validate_network(spec)
        assert str(info.value) == message

    def test_cell_cap_names_the_largest_node(self, monkeypatch):
        # cells per node, (rows + 4) k (k + 1): root 5 * 6, "wide" 6 * 30, "narrow" 6 * 12
        rows = lambda k, n: tuple(Dirichlet(np.ones(k)) for _ in range(n))
        spec = NetworkSpec((NodeSpec("root", ("r0", "r1"), None, rows(2, 1)),
                            NodeSpec("wide", tuple("abcde"), "root", rows(5, 2)),
                            NodeSpec("narrow", ("x", "y", "z"), "root", rows(3, 2))))
        monkeypatch.setattr(model, "_CELL_CAP", 30 + 180 + 72)
        assert validate_network(spec).order == ("root", "wide", "narrow")
        monkeypatch.setattr(model, "_CELL_CAP", 30 + 180 + 72 - 1)
        with pytest.raises(CapExceeded) as info:
            validate_network(spec)
        assert str(info.value) == (
            "row moments and one query's messages would need 282 cells, above the cap of 281; "
            "node 'wide' (5 alternatives, 2 rows) alone needs 180")
        # the cap checks counts that validation has just checked: a bad row count fails first
        bad = NetworkSpec(spec.nodes[:2] + (NodeSpec("narrow", ("x", "y", "z"), "root", rows(3, 1)),))
        with pytest.raises(DimensionMismatch):
            validate_network(bad)
        monkeypatch.undo()
        # a tree of 10**6 nodes of three alternatives, the root's one row and three rows each below
        assert (1 + 4) * 12 + (10**6 - 1) * (3 + 4) * 12 <= model._CELL_CAP

    def test_rows_own_their_numbers(self, tmp_path):
        # every constructor copies: the caller's arrays stay writable
        alpha, p, points, weights = np.ones(2), np.array([0.4, 0.6]), np.eye(2), np.full(2, 0.5)
        Dirichlet(alpha), PointMass(p), DiscreteSupport(points, weights)
        assert all(a.flags.writeable for a in (alpha, p, points, weights))

        # a write through the array a row was made from reaches no row
        base = np.array([1.0, 1.0, 1.0])
        spec = _chain(rows_b=(PointMass(np.array([0.9, 0.1])), Dirichlet(base[:2])))
        net = validate_network(spec)
        base[0] = 0.0
        assert spec.nodes[1].rows[1].alpha.tolist() == [1.0, 1.0]
        np.testing.assert_array_equal(net.nodes["B"].mean_rows[1], [0.5, 0.5])
        save_network(spec, str(tmp_path / "net.json"))
        loaded = validate_network(load_network(str(tmp_path / "net.json")))
        assert loaded.nodes["B"].second_rows.tobytes() == net.nodes["B"].second_rows.tobytes()

        # the engine and its oracle read the same stored numbers
        points = np.array([[0.2, 0.8], [0.6, 0.4]])
        net = validate_network(NetworkSpec((
            NodeSpec("A", ("a1", "a2"), None, (DiscreteSupport(points, np.array([0.5, 0.5])),)),
            _chain().nodes[1],
        )))
        points[1] = [0.4, 0.6]  # would make the root's variance 0.01
        engine = posterior_report(propagate(net, {}))["A"].variance
        oracle = enumerate_uncertainty(net, {}, "prior").entries["A"].variance
        np.testing.assert_allclose([engine, oracle], 0.04, atol=1e-12)

        # a parsed row views a stack whose buffer is read-only too
        row = parse_network(network_to_json(_chain())).nodes[1].rows[0]
        assert row.p.base is not None and not row.p.base.flags.writeable

    def test_no_row_field_can_be_made_writable(self):
        # each field views a read-only array, so reopening it raises
        rows = [
            Dirichlet(np.ones(2)),
            PointMass(np.array([0.4, 0.6])),
            DiscreteSupport(np.eye(2), np.full(2, 0.5)),
            *parse_network(network_to_json(_chain())).nodes[1].rows,
        ]
        arrays = [getattr(row, field.name) for row in rows for field in dataclasses.fields(row)]
        arrays += [array for pair in validate_network(_chain()).nodes["B"].row_moments for array in pair]
        for array in arrays:
            with pytest.raises(ValueError):
                array.flags.writeable = True
            assert not array.flags.writeable

    @pytest.mark.parametrize(
        "ids, message",
        [((), "network has no nodes"),
         (("",), "node id '' must be a non-empty string"),
         ((7,), "node id 7 must be a non-empty string")],
        ids=["no-nodes", "empty-id", "int-id"],
    )
    def test_ids_are_non_empty_strings(self, ids, message):
        spec = NetworkSpec(tuple(NodeSpec(i, ("a1", "a2"), None, (PointMass(np.array([0.4, 0.6])),))
                                 for i in ids))
        with pytest.raises(InvalidNetwork) as info:
            validate_network(spec)
        assert str(info.value) == message

    def test_minimal_chain(self):
        net = validate_network(_chain())
        assert net.root == "A"
        assert net.order == ("A", "B")
        assert net.nodes["A"].children == ("B",)

    def test_row_count_mismatch(self):
        spec = _chain(rows_b=(PointMass(np.array([0.9, 0.1])),))
        with pytest.raises(DimensionMismatch, match="B"):
            validate_network(spec)

    def test_row_dimension_mismatch(self):
        spec = NetworkSpec(
            (
                NodeSpec("A", ("a1", "a2"), None, (PointMass(np.array([0.4, 0.6])),)),
                NodeSpec(
                    "B",
                    ("b1", "b2", "b3"),
                    "A",
                    (PointMass(np.array([0.9, 0.1])), PointMass(np.array([0.2, 0.8]))),
                ),
            )
        )
        with pytest.raises(DimensionMismatch, match="B"):
            validate_network(spec)

    def test_multiple_roots(self):
        spec = NetworkSpec(
            (
                NodeSpec("A", ("a1", "a2"), None, (PointMass(np.array([0.4, 0.6])),)),
                NodeSpec("B", ("b1", "b2"), None, (PointMass(np.array([0.9, 0.1])),)),
            )
        )
        with pytest.raises(MultipleRoots):
            validate_network(spec)

    def test_cycle(self):
        spec = NetworkSpec(
            (
                NodeSpec(
                    "A",
                    ("a1", "a2"),
                    "B",
                    (PointMass(np.array([0.4, 0.6])), PointMass(np.array([0.4, 0.6]))),
                ),
                NodeSpec(
                    "B",
                    ("b1", "b2"),
                    "A",
                    (PointMass(np.array([0.9, 0.1])), PointMass(np.array([0.2, 0.8]))),
                ),
            )
        )
        with pytest.raises(CycleDetected):
            validate_network(spec)

    @pytest.mark.parametrize(
        "listing, named",
        [
            ("A B X Y Z W", "X"),
            ("W Z Y X B A", "Y"),
            ("Z A W X Y B", "Z"),
            ("B Y A X W Z", "Y"),
            ("A W B Z Y X", "Y"),
        ],
    )
    def test_detached_cycle_names_the_first_repeated_node(self, listing, named):
        # A -> B is the rooted tree; X -> Y -> Z -> X is a parent cycle with W below Y.
        # The first node in file order that the root does not reach is followed
        # up its parents, and the first node met twice is named.
        parents = {"A": None, "B": "A", "X": "Z", "Y": "X", "Z": "Y", "W": "Y"}
        half = PointMass(np.array([0.5, 0.5]))
        spec = NetworkSpec(
            tuple(
                NodeSpec(i, ("u", "v"), parents[i], (half,) if parents[i] is None else (half, half))
                for i in listing.split()
            )
        )
        with pytest.raises(CycleDetected, match=f"^node '{named}' is part of a parent cycle$"):
            validate_network(spec)

    def test_self_parent(self):
        root = _chain().nodes[0]
        rows = (PointMass(np.array([0.9, 0.1])), PointMass(np.array([0.2, 0.8])))
        spec = NetworkSpec((root, NodeSpec("B", ("b1", "b2"), "B", rows)))
        with pytest.raises(CycleDetected, match="^node 'B' is its own parent$"):
            validate_network(spec)

    def test_chain_listed_leaf_first_validates_in_linear_time(self):
        # Ordering and the cycle check are one walk from the root, whatever
        # the file order; a per-node parent-chain walk is quadratic here.
        n, labels = 20_000, ("s0", "s1")
        rows = (PointMass(np.array([0.9, 0.1])), PointMass(np.array([0.2, 0.8])))
        nodes = [NodeSpec("n0", labels, None, rows[:1])]
        nodes += [NodeSpec(f"n{i}", labels, f"n{i - 1}", rows) for i in range(1, n)]

        def best_of_3(spec):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                validate_network(spec)
                times.append(time.perf_counter() - start)
            return min(times)

        parents_first = best_of_3(NetworkSpec(nodes))
        leaf_first = best_of_3(NetworkSpec(nodes[::-1]))
        assert leaf_first <= 3 * parents_first

    def test_a_chain_holds_no_more_tracked_objects_than_a_binary_tree(self):
        # The collector's full passes rescan every object it tracks, so a
        # plan holding a few containers per depth made a long chain validate
        # at a higher cost per node than a bushy tree of the same size.
        n, labels, row = 10_000, ("s0", "s1"), PointMass(np.array([0.9, 0.1]))
        held = {}
        for shape, parent in (("chain", lambda i: i - 1), ("binary", lambda i: (i - 1) // 2)):
            spec = NetworkSpec(tuple(
                NodeSpec(f"n{i}", labels, None if i == 0 else f"n{parent(i)}", (row,) * (1 if i == 0 else 2))
                for i in range(n)
            ))
            gc.collect()
            before = len(gc.get_objects())
            net = validate_network(spec)
            gc.collect()
            held[shape] = len(gc.get_objects()) - before
            del net
        assert held["chain"] <= held["binary"] + n // 10

    def test_dangling_parent(self):
        spec = NetworkSpec(
            (
                NodeSpec("A", ("a1", "a2"), None, (PointMass(np.array([0.4, 0.6])),)),
                NodeSpec(
                    "B",
                    ("b1", "b2"),
                    "Z",
                    (PointMass(np.array([0.9, 0.1])), PointMass(np.array([0.2, 0.8]))),
                ),
            )
        )
        with pytest.raises(UnknownNode, match="Z"):
            validate_network(spec)

    def test_duplicate_ids(self):
        spec = NetworkSpec((_chain().nodes[0], _chain().nodes[0]))
        with pytest.raises(InvalidNetwork):
            validate_network(spec)

    def test_single_alternative_rejected(self):
        spec = NetworkSpec((NodeSpec("A", ("only",), None, (PointMass(np.array([1.0])),)),))
        with pytest.raises(InvalidNetwork):
            validate_network(spec)

    def test_structural_fault_reported_before_bad_moments(self):
        # B's overflowing row comes first in the file, C's row count is wrong
        chain = _chain(rows_b=(_overflowing(2), PointMass(np.array([0.2, 0.8]))))
        spec = NetworkSpec(
            chain.nodes + (NodeSpec("C", ("c1", "c2"), "B", (PointMass(np.array([0.5, 0.5])),)),)
        )
        with pytest.raises(DimensionMismatch, match="'C'"):
            validate_network(spec)


def _overflowing(k):
    """A valid Dirichlet whose alpha sum, and so its second moments, overflow to NaN."""
    return Dirichlet(np.full(k, 1e308))


def _reference_moments(dist):
    """The closed-form moments of one distribution, computed on its own."""
    if isinstance(dist, Dirichlet):
        a = dist.alpha
        a0 = float(a.sum())
        second = np.outer(a, a) / (a0 * (a0 + 1.0))
        np.fill_diagonal(second, a * (a + 1.0) / (a0 * (a0 + 1.0)))
        return a / a0, second
    if isinstance(dist, DiscreteSupport):
        pts, w = dist.points, dist.weights
        return w @ pts, pts.T @ (w[:, None] * pts)
    return dist.p, np.outer(dist.p, dist.p)


def _star(root_k, child_ks, bad=()):
    """A star whose child ``i`` has ``child_ks[i]`` alternatives; each
    ``(i, j)`` in ``bad`` makes row ``j`` of child ``i`` overflow."""
    rng = np.random.default_rng(3)
    hub_labels = tuple(f"h{j}" for j in range(root_k))
    root = NodeSpec("hub", hub_labels, None, (random_row(rng, "dirichlet", root_k),))
    children = []
    for i, k in enumerate(child_ks):
        rows = [random_row(rng, kind, k) for kind in np.resize(("dirichlet", "point", "discrete"), root_k)]
        for bad_child, j in bad:
            if bad_child == i:
                rows[j] = _overflowing(k)
        children.append(NodeSpec(f"c{i}", tuple(f"s{j}" for j in range(k)), "hub", tuple(rows)))
    return NetworkSpec((root,) + tuple(children))


def _assert_rows_are_reference_moments(spec):
    net = validate_network(spec)
    for ns in spec.nodes:
        node = net.nodes[ns.id]
        for j, dist in enumerate(ns.rows):
            mean, second = _reference_moments(dist)
            single = moments_of(dist)
            for got in (node.mean_rows[j], single.mean):
                assert got.tobytes() == mean.tobytes()
            for got in (node.second_rows[j], single.second):
                assert got.tobytes() == second.tobytes()


@pytest.fixture
def small_blocks(monkeypatch):
    """Check blocks of 4096 cells: 1024 rows at k = 2 and 64 at k = 8."""
    monkeypatch.setattr(model, "_CHECK_CELLS", 4096)


class TestBatchedRowMoments:
    """``validate_network`` computes every row's moments per alternative
    count in one batch; each must equal the single-row formula bit for bit."""

    @given(mixed_trees())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_moments_of(self, spec):
        _assert_rows_are_reference_moments(spec)

    def test_groups_larger_than_one_check_block(self, small_blocks):
        spec = _star(8, [8] * 200 + [2] * 130)
        assert 200 * 8 > model._CHECK_CELLS // 8**2 and 130 * 8 > model._CHECK_CELLS // 2**2
        _assert_rows_are_reference_moments(spec)

    def test_blocks_of_one_row_name_the_first_bad_node(self, monkeypatch):
        # a row of k = 8 holds 64 cells, more than a block's 10
        monkeypatch.setattr(model, "_CHECK_CELLS", 10)
        _assert_rows_are_reference_moments(_star(8, [8] * 3 + [2] * 3))
        with pytest.raises(BadDistribution, match="node 'c4': moments must be finite"):
            validate_network(_star(8, [8] * 3 + [2] * 3, bad=[(4, 7), (5, 0)]))

    def test_check_blocks_are_bounded_in_cells(self):
        """Two nodes of k = 128: the child's 128 rows of second moments take
        16 MiB, and the check's temporaries stay far below that."""
        k = 128
        rows = (Dirichlet(np.linspace(0.5, 5.0, k)),)
        labels = tuple(f"s{j}" for j in range(k))
        spec = NetworkSpec((NodeSpec("root", labels, None, rows), NodeSpec("child", labels, "root", rows * k)))
        tracemalloc.start()
        try:
            net = validate_network(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(x.nbytes for x in net.plan.moments[k][:2])
        assert stored == (k + 1) * k * (k + 1) * 8
        assert peak < stored + (4 << 20)

    def test_bad_row_in_a_later_block_of_a_second_group(self, small_blocks):
        # the k=8 group (hub and c0..c199) comes first; c329's rows are the
        # last 8 of the k=2 group, in its second block
        spec = _star(8, [8] * 200 + [2] * 130, bad=[(329, 5)])
        with pytest.raises(BadDistribution, match="node 'c329': moments must be finite"):
            validate_network(spec)

    def test_bad_node_spanning_two_blocks(self, small_blocks):
        # 3 rows per child: c341 holds rows 1023-1025, its bad row is in block 2
        spec = _star(3, [2] * 400, bad=[(341, 2)])
        with pytest.raises(BadDistribution, match="node 'c341': moments must be finite"):
            validate_network(spec)

    def test_first_bad_node_in_file_order_is_named(self, small_blocks):
        # c5 (k=8, first group) and c330 (k=2, second group, second block) fail;
        # then c0 (k=2, first block) fails too and comes first in the file
        spec = _star(8, [2] + [8] * 200 + [2] * 130, bad=[(201 + 129, 0), (5, 0)])
        with pytest.raises(BadDistribution, match="node 'c5'"):
            validate_network(spec)
        spec = _star(8, [2] + [8] * 200 + [2] * 130, bad=[(201 + 129, 0), (0, 7), (5, 0)])
        with pytest.raises(BadDistribution, match="node 'c0'"):
            validate_network(spec)

    @given(mixed_trees(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_bad_nodes_name_the_first(self, spec, data):
        nodes = list(spec.nodes)
        bad = data.draw(st.sets(st.integers(0, len(nodes) - 1), min_size=1))
        for i in bad:
            rows = list(nodes[i].rows)
            rows[data.draw(st.integers(0, len(rows) - 1))] = _overflowing(len(nodes[i].alternatives))
            nodes[i] = NodeSpec(nodes[i].id, nodes[i].alternatives, nodes[i].parent, tuple(rows))
        first = nodes[min(bad)].id
        with pytest.raises(BadDistribution, match=f"node '{first}': moments must be finite"):
            validate_network(NetworkSpec(tuple(nodes)))


def _assert_same(a, b):
    """Equal values of equal types, arrays to the byte, dtype and flags."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, b.flags.writeable)
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, (dict, MappingProxyType)):
        assert list(a) == list(b)
        for key in a:
            _assert_same(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


def _outcome(make_spec):
    try:
        validate_network(make_spec())
    except BeliefNetworkError as exc:
        return type(exc), str(exc)
    return "ok", ""


_FAULTS = (
    "duplicate id", "two roots", "unknown parent", "self-parent", "detached cycle",
    "k = 1", "repeated label", "row count", "row length", "overflowing alpha", "empty cpt",
)


def _put_fault(doc, fault, i, j):
    """Put ``fault`` into the document at node ``i`` (not the root), with
    ``j`` a second node where the fault needs one."""
    nodes = doc["nodes"]
    node = nodes[i]
    if fault == "duplicate id":
        node["id"] = nodes[j]["id"]
    elif fault == "two roots":
        node["parent"] = None
        node["cpt"] = [{"given": None, "dist": node["cpt"][0]["dist"]}]
    elif fault == "unknown parent":
        node["parent"] = "zz"
    elif fault == "self-parent":
        node["parent"] = node["id"]
    elif fault == "detached cycle":
        node["parent"], nodes[j]["parent"] = nodes[j]["id"], node["id"]
    elif fault == "k = 1":
        node["alternatives"] = node["alternatives"][:1]
    elif fault == "repeated label":
        node["alternatives"][-1] = node["alternatives"][0]
    elif fault == "row count":
        node["cpt"].pop()
    elif fault == "row length":
        dist = node["cpt"][-1]["dist"]
        for vector in [dist] if dist["type"] == "point" else dist.get("points", [dist]):
            vector.get("alpha", vector.get("p")).pop()
    elif fault == "overflowing alpha":
        node["cpt"][-1]["dist"] = {"type": "dirichlet", "alpha": [1e308] * len(node["alternatives"])}
    else:  # no rows, below a parent with no alternatives
        next(p for p in nodes if p["id"] == node["parent"])["alternatives"] = []
        node["cpt"] = []


class TestParsedEqualsHandBuilt:
    """A parsed network is validated from its columns, a hand-built one from
    its row objects; both must give the same network, bit for bit, and the
    same errors."""

    @given(mixed_trees())
    @settings(max_examples=150, deadline=None)
    def test_same_plan_moments_and_nodes(self, spec):
        want = validate_network(spec)
        parsed = parse_network(network_to_json(spec))
        columns, ref = parsed._columns, _Columns.of_nodes(spec.nodes)
        for name in ("kinds", "dims", "places", "counts", "starts"):
            _assert_same(getattr(columns, name), getattr(ref, name))
        assert {size: stack.tobytes() for size, stack in columns.stacks.items()} == {
            size: stack.tobytes() for size, stack in ref.stacks.items()
        }
        assert {g: row.dim for g, row in columns.discrete.items()} == {
            g: row.dim for g, row in ref.discrete.items()
        }
        got = validate_network(parsed)
        assert (got.order, got.root) == (want.order, want.root)
        _assert_same(got.plan, want.plan)
        assert list(got.nodes) == list(want.nodes)
        for node_id, node in got.nodes.items():
            ref = want.nodes[node_id]
            assert (node.alternatives, node.parent, node.children) == (ref.alternatives, ref.parent, ref.children)
            _assert_same(node.mean_rows, ref.mean_rows)
            _assert_same(node.second_rows, ref.second_rows)
            assert [type(row) for row in node.rows] == [type(row) for row in ref.rows]
            _assert_same([row_arrays(row) for row in node.rows], [row_arrays(row) for row in ref.rows])

    @given(mixed_trees())
    @settings(max_examples=30, deadline=None)
    def test_hand_built_network_keeps_the_spec_rows_and_no_columns(self, spec):
        net = validate_network(spec)
        for ns in spec.nodes:
            node = net.nodes[ns.id]
            assert node.rows is ns.rows
            assert not any(isinstance(obj, _Columns) for obj in gc.get_referents(node))

    @given(mixed_trees(max_nodes=8), st.sampled_from(_FAULTS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_errors(self, spec, fault, data):
        doc = network_to_json(spec)
        nodes = doc["nodes"]
        others = [i for i, node in enumerate(nodes) if node["parent"] is not None]
        assume(len(others) >= 2)
        i, j = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        _put_fault(doc, fault, i, j)
        got = _outcome(lambda: parse_network(copy.deepcopy(doc)))
        assert got == _outcome(lambda: reference_parse(copy.deepcopy(doc)))
        assert got[0] != "ok"


class TestEvidenceChecks:
    def test_unknown_node(self):
        net = validate_network(_chain())
        with pytest.raises(UnknownNode):
            check_evidence(net, {"Z": 0})

    def test_index_out_of_range(self):
        net = validate_network(_chain())
        with pytest.raises(UnknownAlternative):
            check_evidence(net, {"B": 2})

    def test_bool_index_rejected(self):
        net = validate_network(_chain())
        for flag in (True, False, np.bool_(True)):
            with pytest.raises(UnknownAlternative):
                check_evidence(net, {"B": flag})

    def test_label_lookup(self):
        net = validate_network(_chain())
        assert net.alt_index("B", "b2") == 1
        with pytest.raises(UnknownAlternative):
            net.alt_index("B", "nope")


class TestValidatedRecords:
    """A validated network and its nodes stay as validated."""

    def test_no_node_field_can_be_set(self):
        node = validate_network(_chain()).nodes["B"]
        for name in (*node._fields, "rows", "dim", "row_moments", "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
        assert node.parent == "A" and node.spec_index == 1 and node.rows is node.spec.nodes[1].rows

    def test_nodes_compare_and_hash_by_identity(self):
        spec = _chain()
        a, b = validate_network(spec).nodes["B"], validate_network(spec).nodes["B"]
        with pytest.raises(ValueError):  # as plain tuples, their row arrays would be compared
            tuple(a) == tuple(b)
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == object.__hash__(a) and len({a, b, a}) == 2 and b not in [a]

    def test_no_network_field_can_be_set(self):
        net = validate_network(_chain())
        with pytest.raises(TypeError):
            net.nodes["Q"] = None
        with pytest.raises(TypeError):
            del net.nodes["A"]
        for name in ("nodes", "order", "root", "plan", "other"):
            with pytest.raises(AttributeError):
                setattr(net, name, None)
            with pytest.raises(AttributeError):
                delattr(net, name)
        assert net.root == "A" and list(net.nodes) == ["A", "B"]

    @pytest.mark.parametrize("name", ["slot", "sib_counts", "moments", "row_start"])
    def test_no_plan_mapping_can_be_changed(self, name):
        net = validate_network(_chain())
        mapping = getattr(net.plan, name)
        key = next(iter(mapping))
        before = dict(mapping)
        with pytest.raises(TypeError):
            mapping[key] = None
        with pytest.raises(TypeError):
            del mapping[key]
        for method in ("clear", "pop", "popitem", "setdefault", "update"):
            with pytest.raises(AttributeError):
                getattr(mapping, method)
        with pytest.raises(AttributeError):
            setattr(net.plan, name, {})
        assert dict(mapping) == before
        with pytest.raises(ValueError):
            net.plan.places[0, 0] = 1
        assert posterior_report(propagate(net, {"B": 1}))["A"].mean.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("parsed", [False, True], ids=["hand-built", "parsed"])
    def test_pickle_and_copy_round_trips(self, parsed):
        spec = parse_network(network_to_json(_chain())) if parsed else _chain()
        net = validate_network(spec)
        want = posterior_report(propagate(net, {"B": 1}))
        for again in (pickle.loads(pickle.dumps(net)), copy.copy(net), copy.deepcopy(net)):
            assert (again.order, again.root, list(again.nodes)) == (net.order, net.root, list(net.nodes))
            with pytest.raises(TypeError):
                again.nodes["Q"] = None
            got = posterior_report(propagate(again, {"B": 1}))
            assert [r.second.tobytes() for r in got.values()] == [r.second.tobytes() for r in want.values()]
            assert [type(row) for row in again.nodes["B"].rows] == [PointMass, PointMass]
            node, (mean, second, _) = again.nodes["B"], again.plan.moments[2]
            assert not node.mean_rows.flags.writeable and np.shares_memory(node.mean_rows, mean)
            assert not node.second_rows.flags.writeable and np.shares_memory(node.second_rows, second)

    def test_membership_of_any_id(self):
        net = validate_network(_chain())
        assert "A" in net and "Z" not in net and 3 not in net and None not in net
        assert ["A"] not in net and {} not in net

    def test_a_row_that_skipped_its_constructor_fails_the_stack_check(self):
        row = object.__new__(PointMass)
        object.__setattr__(row, "p", np.array([0.5, 0.6]))
        with pytest.raises(BadDistribution, match=r"^rows fail their checks \(a row of 2 numbers fails its check\)$"):
            validate_network(_chain((PointMass(np.array([0.9, 0.1])), row)))
