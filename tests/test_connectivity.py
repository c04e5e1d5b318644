"""Connectivity construction against brute-force oracles."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hobnet.connectivity import (
    LAN,
    MAN,
    WAN,
    AtlasHierarchy,
    ConnectivityError,
    ConnectivityMatrix,
    RoiTimeSeries,
    block_diagonal,
    build_adjacency,
    build_graph_set,
    gamma_for_retained_fraction,
    graph_set_to_json,
    level_connectivity,
    node_features,
    pearson_fc,
    read_hierarchy_json,
    read_timeseries_csv,
    retained_edge_curve,
    rv_coefficient,
    select_cutoff,
    write_hierarchy_json,
    write_timeseries_csv,
)

from conftest import make_nested_hierarchy, random_timeseries, toy_hierarchy_4_6_10


def rv_trace_oracle(a, b):
    """Literal trace-formula evaluation."""
    aa = a @ a.T
    bb = b @ b.T
    return np.trace(aa @ bb) / np.sqrt(np.trace(aa @ aa) * np.trace(bb @ bb))


def rv_pair_loop(ts, hierarchy, level):
    """One rv_coefficient call per block pair: the oracle for level_connectivity."""
    blocks = [ts.samples[:, cols] for cols in hierarchy.group_columns(level, ts.roi_names)]
    m = len(blocks)
    values = np.ones((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            values[i, j] = values[j, i] = rv_coefficient(blocks[i], blocks[j])
    return values


def assert_matches_pair_loop(ts, hierarchy):
    for level in (WAN, MAN, LAN):
        expected = rv_pair_loop(ts, hierarchy, level)
        np.testing.assert_allclose(
            level_connectivity(ts, hierarchy, level).values, expected, rtol=0, atol=1e-12
        )


def uneven_hierarchy():
    """Groups of 1, 2 and 5 ROIs under two networks."""
    sizes = {"g1": 1, "g2": 2, "g5": 5}
    man = {f"{g}.r{i}": g for g, n in sizes.items() for i in range(n)}
    return AtlasHierarchy(
        rois=sorted(man), man_partition=man, wan_partition={"g1": "n0", "g2": "n1", "g5": "n0"}
    )


class TestPearsonFc:
    def test_identical_columns_give_one(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=30)
        ts = RoiTimeSeries("s", np.column_stack([col, col, rng.normal(size=30)]), ["a", "b", "c"])
        fc = pearson_fc(ts)
        assert fc.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column_gives_minus_one(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=25)
        ts = RoiTimeSeries("s", np.column_stack([col, -col]), ["a", "b"])
        assert pearson_fc(ts).values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_covariance_ratio_oracle(self):
        ts = random_timeseries(4, n_timepoints=50, seed=2)
        fc = pearson_fc(ts).values
        x = ts.samples
        for i in range(4):
            for j in range(4):
                xi = x[:, i] - x[:, i].mean()
                xj = x[:, j] - x[:, j].mean()
                expected = (xi * xj).mean() / (xi.std() * xj.std())
                assert fc[i, j] == pytest.approx(expected, abs=1e-12)

    def test_diagonal_exactly_one(self):
        fc = pearson_fc(random_timeseries(5, seed=3))
        assert np.all(np.diag(fc.values) == 1.0)

    def test_zero_variance_column_names_roi(self):
        samples = np.random.default_rng(0).normal(size=(10, 3))
        samples[:, 1] = 4.2
        with pytest.raises(ConnectivityError, match="'flat'"):
            RoiTimeSeries("s", samples, ["a", "flat", "c"])


class TestRvCoefficient:
    def test_self_similarity_is_one(self):
        a = np.random.default_rng(0).normal(size=(12, 3))
        assert rv_coefficient(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        a = np.random.default_rng(1).normal(size=(10, 2))
        assert rv_coefficient(a, -3.7 * a) == pytest.approx(1.0, abs=1e-12)

    def test_hand_expanded_traces(self):
        # Tr(AA'BB') = 1, Tr[(AA')^2] = 1, Tr[(BB')^2] = 4  ->  1/sqrt(4) = 0.5
        a = np.array([[1.0], [0.0]])
        b = np.array([[1.0], [1.0]])
        assert rv_coefficient(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=(8, rng.integers(1, 4)))
            b = rng.normal(size=(8, rng.integers(1, 4)))
            assert rv_coefficient(a, b) == pytest.approx(rv_trace_oracle(a, b), abs=1e-12)

    def test_orthogonal_support_is_exactly_zero(self):
        a = np.zeros((6, 2))
        b = np.zeros((6, 2))
        a[:3] = np.random.default_rng(3).normal(size=(3, 2))
        b[3:] = np.random.default_rng(4).normal(size=(3, 2))
        assert rv_coefficient(a, b) == 0.0

    def test_all_zero_block_is_an_error(self):
        with pytest.raises(ConnectivityError, match="all-zero"):
            rv_coefficient(np.zeros((5, 2)), np.ones((5, 2)))

    def test_sample_count_mismatch(self):
        with pytest.raises(ConnectivityError, match="sample counts"):
            rv_coefficient(np.ones((5, 2)), np.ones((4, 2)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.1, 10.0), st.booleans())
    def test_bounds_symmetry_and_scaling(self, seed, c, negate):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(7, int(rng.integers(1, 4))))
        b = rng.normal(size=(7, int(rng.integers(1, 4))))
        r = rv_coefficient(a, b)
        assert 0.0 <= r <= 1.0
        assert rv_coefficient(b, a) == pytest.approx(r, abs=1e-12)
        scaled = (-c if negate else c) * a
        assert rv_coefficient(scaled, b) == pytest.approx(r, abs=1e-12)


class TestLevelConnectivity:
    def test_wan_shape_symmetry_unit_diagonal(self):
        h = make_nested_hierarchy(n_networks=7, groups_per_network=1, rois_per_group=2)
        ts = random_timeseries(14, seed=5, names=h.rois)
        cm = level_connectivity(ts, h, WAN)
        assert cm.values.shape == (7, 7)
        assert np.all(np.diag(cm.values) == 1.0)
        np.testing.assert_allclose(cm.values, cm.values.T, atol=1e-15)

    def test_one_roi_per_group_levels_coincide(self):
        h = make_nested_hierarchy(n_networks=3, groups_per_network=1, rois_per_group=1)
        ts = random_timeseries(3, seed=6, names=h.rois)
        wan = level_connectivity(ts, h, WAN).values
        man = level_connectivity(ts, h, MAN).values
        lan = level_connectivity(ts, h, LAN).values
        np.testing.assert_allclose(wan, man, atol=0)
        np.testing.assert_allclose(man, lan, atol=0)

    def test_matches_trace_oracle_on_toy_hierarchy(self):
        h = make_nested_hierarchy(n_networks=3, groups_per_network=1, rois_per_group=2)
        ts = random_timeseries(6, n_timepoints=30, seed=7, names=h.rois)
        cm = level_connectivity(ts, h, WAN).values
        cols = h.group_columns(WAN, ts.roi_names)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                expected = rv_trace_oracle(ts.samples[:, cols[i]], ts.samples[:, cols[j]])
                assert cm[i, j] == pytest.approx(expected, abs=1e-12)

    def test_lan_uses_single_columns(self):
        h = make_nested_hierarchy(n_networks=2, groups_per_network=1, rois_per_group=2)
        ts = random_timeseries(4, seed=8, names=h.rois)
        cm = level_connectivity(ts, h, LAN).values
        a = ts.samples[:, [0]]
        b = ts.samples[:, [1]]
        assert cm[0, 1] == pytest.approx(rv_trace_oracle(a, b), abs=1e-12)


class TestLevelConnectivityMatchesPairLoop:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (4, 2, 2), (7, 4, 7)])
    def test_nested_hierarchies(self, shape):
        h = make_nested_hierarchy(*shape)
        ts = random_timeseries(len(h.rois), n_timepoints=60, seed=sum(shape), names=h.rois)
        assert_matches_pair_loop(ts, h)

    def test_uneven_groups(self):
        h = uneven_hierarchy()
        assert [len(c) for c in h.group_columns(MAN, h.rois)] == [1, 5, 2]
        ts = random_timeseries(8, n_timepoints=30, seed=11, names=h.rois)
        assert_matches_pair_loop(ts, h)

    def test_csv_column_order_differs_from_hierarchy(self, tmp_path):
        h = uneven_hierarchy()
        order = np.random.default_rng(12).permutation(len(h.rois))
        shuffled = random_timeseries(8, n_timepoints=30, seed=13, names=[h.rois[i] for i in order])
        write_timeseries_csv(tmp_path / "ts.csv", shuffled)
        ts = read_timeseries_csv(tmp_path / "ts.csv")
        assert ts.roi_names != h.ordered_rois
        assert_matches_pair_loop(ts, h)

    def test_disjoint_support_gives_exact_zero(self):
        h = make_nested_hierarchy(2, 2, 2)
        samples = np.random.default_rng(14).normal(size=(20, 8))
        samples[:10, 4:] = 0.0  # network 1 is silent while network 0 is active
        samples[10:, :4] = 0.0
        ts = RoiTimeSeries("s", samples, h.rois)
        for level in (WAN, MAN, LAN):
            values = level_connectivity(ts, h, level).values
            half = values.shape[0] // 2
            assert np.all(values[:half, half:] == 0.0) and np.all(values[half:, :half] == 0.0)
            assert np.all(values[:half, :half] > 0.0)


class TestRetainedEdgeCurve:
    def matrix_from_offdiag(self, values):
        m = ConnectivityMatrix.__new__(ConnectivityMatrix)
        n = 3
        mat = np.ones((n, n))
        mat[0, 1] = mat[1, 0] = values[0]
        mat[0, 2] = mat[2, 0] = values[1]
        mat[1, 2] = mat[2, 1] = values[2]
        return ConnectivityMatrix(level=WAN, values=mat, kind="rv")

    def test_gamma_zero_counts_strictly_positive(self):
        cm = self.matrix_from_offdiag([0.0, 0.4, 0.8])
        curve = retained_edge_curve(cm, [0.0, 1.0])
        assert curve[0][1] == pytest.approx(4 / 6)

    def test_gamma_one_retains_nothing(self):
        cm = self.matrix_from_offdiag([0.3, 0.9, 1.0])
        assert retained_edge_curve(cm, [0.0, 1.0])[-1][1] == 0.0

    def test_counts_match_brute_force(self):
        cm = self.matrix_from_offdiag([0.1, 0.5, 0.9])
        curve = dict(retained_edge_curve(cm, [0.0, 0.5, 0.95]))
        assert curve[0.5] == pytest.approx(1 / 3)

    def test_monotone_non_increasing(self):
        h = make_nested_hierarchy(2, 2, 2)
        ts = random_timeseries(8, seed=9, names=h.rois)
        curve = retained_edge_curve(level_connectivity(ts, h, LAN), np.linspace(0, 1, 101))
        fracs = [f for _, f in curve]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_empty_grid_is_an_error(self):
        cm = self.matrix_from_offdiag([0.1, 0.5, 0.9])
        with pytest.raises(ConnectivityError, match="empty"):
            retained_edge_curve(cm, [])


class TestSelectCutoff:
    def piecewise(self, grid, knee, slope_left=-1.0, slope_right=-0.1):
        f = np.where(
            grid <= knee,
            1.0 + slope_left * grid,
            1.0 + slope_left * knee + slope_right * (grid - knee),
        )
        return list(zip(grid.tolist(), f.tolist()))

    def test_single_knee_found(self):
        grid = np.round(np.linspace(0, 1, 11), 10)
        assert select_cutoff(self.piecewise(grid, 0.4)) == pytest.approx(0.4)

    def test_tie_breaks_toward_smaller_gamma(self):
        grid = np.arange(9) / 8.0  # dyadic grid keeps the two knees exactly tied
        f = np.ones_like(grid)
        f[2:] -= 0.5 * (grid[2:] - grid[2])   # knee at 0.25
        f[6:] -= 0.5 * (grid[6:] - grid[6])   # equal-magnitude knee at 0.75
        assert select_cutoff(list(zip(grid, f))) == 0.25

    def test_logistic_matches_exhaustive_scan(self):
        grid = np.linspace(0, 1, 101)
        f = 1.0 / (1.0 + np.exp((grid - 0.35) / 0.04))
        curve = list(zip(grid.tolist(), f.tolist()))
        best, best_val = None, -1.0
        for i in range(1, 100):
            left = (f[i] - f[i - 1]) / (grid[i] - grid[i - 1])
            right = (f[i + 1] - f[i]) / (grid[i + 1] - grid[i])
            val = abs(2.0 * (right - left) / (grid[i + 1] - grid[i - 1]))
            if val > best_val:
                best, best_val = grid[i], val
        assert select_cutoff(curve) == pytest.approx(best)

    def test_constant_curve_is_an_error(self):
        curve = [(g, 0.5) for g in np.linspace(0, 1, 11)]
        with pytest.raises(ConnectivityError, match="no inflection"):
            select_cutoff(curve)

    def test_needs_five_points(self):
        with pytest.raises(ConnectivityError, match="5"):
            select_cutoff([(0.0, 1.0), (0.5, 0.4), (1.0, 0.0)])


class TestBuildAdjacency:
    def setup_method(self):
        vals = np.array([[1.0, 0.6, 0.2], [0.6, 1.0, 0.9], [0.2, 0.9, 1.0]])
        self.cm = ConnectivityMatrix(level=WAN, values=vals, kind="rv")

    def test_gamma_one_gives_identity(self):
        np.testing.assert_array_equal(build_adjacency(self.cm, 1.0, "binary"), np.eye(3))
        np.testing.assert_array_equal(build_adjacency(self.cm, 1.0, "weighted"), np.eye(3))

    def test_gamma_zero_binary_all_positive_gives_ones(self):
        np.testing.assert_array_equal(build_adjacency(self.cm, 0.0, "binary"), np.ones((3, 3)))

    def test_weighted_matches_elementwise_rule(self):
        adj = build_adjacency(self.cm, 0.5, "weighted")
        expected = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.9], [0.0, 0.9, 1.0]])
        np.testing.assert_array_equal(adj, expected)

    def test_strict_inequality_at_threshold(self):
        adj = build_adjacency(self.cm, 0.6, "binary")
        assert adj[0, 1] == 0.0 and adj[1, 2] == 1.0


class TestBlockDiagonal:
    def test_two_blocks(self):
        out = block_diagonal([np.ones((2, 2)), 2 * np.ones((2, 2))])
        assert out.shape == (4, 4)
        assert np.all(out[:2, 2:] == 0.0) and np.all(out[2:, :2] == 0.0)

    def test_single_block_is_identity_operation(self):
        b = np.random.default_rng(0).normal(size=(3, 3))
        np.testing.assert_array_equal(block_diagonal([b]), b)

    def test_placement_matches_index_arithmetic(self):
        rng = np.random.default_rng(1)
        blocks = [rng.normal(size=(k, k)) for k in (2, 3, 1)]
        out = block_diagonal(blocks)
        offsets = [0, 2, 5]
        for b, off in zip(blocks, offsets):
            k = b.shape[0]
            np.testing.assert_array_equal(out[off : off + k, off : off + k], b)
        mask = np.ones((6, 6), dtype=bool)
        for off, k in zip(offsets, (2, 3, 1)):
            mask[off : off + k, off : off + k] = False
        assert np.all(out[mask] == 0.0)

    def test_non_square_block_is_an_error(self):
        with pytest.raises(ConnectivityError, match="non-square"):
            block_diagonal([np.ones((2, 3))])


class TestNodeFeatures:
    def test_features_are_matrix_rows(self):
        h = make_nested_hierarchy(n_networks=7, groups_per_network=1, rois_per_group=1)
        ts = random_timeseries(7, seed=10, names=h.rois)
        cm = level_connectivity(ts, h, WAN)
        np.testing.assert_array_equal(node_features(cm), cm.values)

    def test_identity_connectivity_gives_one_hot(self):
        cm = ConnectivityMatrix(level=WAN, values=np.eye(4), kind="rv")
        np.testing.assert_array_equal(node_features(cm), np.eye(4))


class TestGraphSet:
    def test_lower_levels_exactly_block_diagonal(self):
        h = toy_hierarchy_4_6_10()
        ts = random_timeseries(10, seed=11, names=h.rois)
        graphs = build_graph_set(ts, h, gammas=0.0, mode="weighted")
        for level in (MAN, LAN):
            blocks = h.level_blocks(level)
            m = graphs.adjacency[level].shape[0]
            mask = np.ones((m, m), dtype=bool)
            for idx in blocks:
                mask[np.ix_(idx, idx)] = False
            assert np.all(graphs.adjacency[level][mask] == 0.0)
            assert np.all(graphs.features[level][mask] == 0.0)

    def test_unit_diagonals(self):
        h = toy_hierarchy_4_6_10()
        ts = random_timeseries(10, seed=12, names=h.rois)
        graphs = build_graph_set(ts, h, gammas=0.5)
        for level in (WAN, MAN, LAN):
            assert np.all(np.diag(graphs.adjacency[level]) == 1.0)

    def test_retained_fraction_gamma_helper(self):
        h = make_nested_hierarchy(2, 2, 2)
        ts = random_timeseries(8, seed=14, names=h.rois)
        cm = level_connectivity(ts, h, LAN)
        g = gamma_for_retained_fraction(cm, 0.25)
        curve = dict(retained_edge_curve(cm, [g]))
        assert curve[g] <= 0.25


class TestHierarchyValidation:
    def test_missing_group_assignment_names_roi(self):
        with pytest.raises(ConnectivityError, match="'b'"):
            AtlasHierarchy(rois=["a", "b"], man_partition={"a": "g"}, wan_partition={"g": "n"})

    def test_missing_network_assignment_names_group(self):
        with pytest.raises(ConnectivityError, match="'g2'"):
            AtlasHierarchy(
                rois=["a", "b"],
                man_partition={"a": "g1", "b": "g2"},
                wan_partition={"g1": "n"},
            )

    def test_empty_group_is_an_error(self):
        with pytest.raises(ConnectivityError, match="'ghost'"):
            AtlasHierarchy(
                rois=["a"],
                man_partition={"a": "g1"},
                wan_partition={"g1": "n", "ghost": "n"},
            )

    def test_nested_blocks_are_contiguous(self):
        h = toy_hierarchy_4_6_10()
        man_blocks = h.level_blocks(MAN)
        assert [len(b) for b in man_blocks] == [2, 1, 1, 2]
        lan_blocks = h.level_blocks(LAN)
        assert [len(b) for b in lan_blocks] == [2, 1, 2, 1, 1, 3]

    def test_timeseries_missing_hierarchy_roi(self):
        h = toy_hierarchy_4_6_10()
        ts = random_timeseries(9, seed=20, names=[f"r{i}" for i in range(9)])
        with pytest.raises(ConnectivityError, match="'r9'"):
            level_connectivity(ts, h, WAN)


class TestFileFormats:
    def test_timeseries_roundtrip(self, tmp_path):
        ts = random_timeseries(3, n_timepoints=7, seed=15)
        path = tmp_path / "ts.csv"
        write_timeseries_csv(path, ts)
        back = read_timeseries_csv(path, subject_id=ts.subject_id)
        assert back.roi_names == ts.roi_names
        np.testing.assert_array_equal(back.samples, ts.samples)

    @pytest.mark.parametrize(
        "row, message",
        [("1.0,oops,3.0", "could not convert string to float: 'oops'"), ("1.0,2.0", "2 values for 3 ROI names")],
    )
    def test_bad_timeseries_row_names_file_row_and_subject(self, tmp_path, row, message):
        path = tmp_path / "ts.csv"
        path.write_text(f"a,b,c\n0.5,0.1,0.2\n{row}\n")
        with pytest.raises(ConnectivityError, match=rf"ts\.csv: row 3: subject 'sub7': {message}"):
            read_timeseries_csv(path, subject_id="sub7")

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.floats().map(repr), st.sampled_from(["", "nan", "1e999", " 2 "]), st.text(max_size=4)
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_fuzzed_timeseries_raise_only_connectivity_errors(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            try:
                ts = read_timeseries_csv(path)
            except ConnectivityError as exc:
                assert "fuzz.csv" in str(exc)
                return
            assert ts.samples.shape[1] == len(ts.roi_names)

    def test_hierarchy_roundtrip(self, tmp_path):
        h = toy_hierarchy_4_6_10()
        path = tmp_path / "h.json"
        write_hierarchy_json(path, h)
        back = read_hierarchy_json(path)
        assert back.rois == h.rois
        assert back.groups == h.groups
        assert back.networks == h.networks

    def test_hierarchy_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lan": ["a"], "man": {"a": "g"}}))
        with pytest.raises(ConnectivityError, match="'wan'"):
            read_hierarchy_json(path)

    def test_graph_json_schema(self):
        h = make_nested_hierarchy(2, 1, 2)
        ts = random_timeseries(4, seed=16, names=h.rois)
        records = graph_set_to_json(build_graph_set(ts, h, gammas=0.3))
        assert [r["level"] for r in records] == [WAN, MAN, LAN]
        for r in records:
            assert len(r["adjacency"]) == r["shape"][0] * r["shape"][1]
            assert len(r["features"]) == r["features_shape"][0] * r["features_shape"][1]
