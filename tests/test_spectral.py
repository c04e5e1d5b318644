"""Laplacian construction and Chebyshev recurrence against the eigen oracle."""

import numpy as np
import pytest

from hobnet import autodiff as ad
from hobnet.autodiff import Parameter, RowBlocks, ShapeMismatch, Tape, Tensor, backward, finite_difference_check
from hobnet.spectral import SpectralError, cheb_apply, first_order_propagation, normalized_laplacian

from oracles import block_diagonal, cheb_apply_composed, rescaled_two_arrays, spectral_filter_exact, total


def laplacian(adjacency):
    """``normalized_laplacian`` of a graph, or a stack, read as one block."""
    return normalized_laplacian(adjacency, RowBlocks([adjacency.shape[-1]]))


def random_graph(m, seed, density=0.5):
    rng = np.random.default_rng(seed)
    a = (rng.random((m, m)) < density).astype(float) * rng.random((m, m))
    a = np.triu(a, 1)
    a = a + a.T
    np.fill_diagonal(a, 1.0)
    return a


class TestNormalizedLaplacian:
    def test_two_node_path_hand_eigendecomposition(self):
        lap = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(lap.laplacian, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
        assert lap.lambda_max == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(lap.rescaled, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-9)

    def test_empty_graph_isolated_node_convention(self):
        lap = laplacian(np.zeros((3, 3)))
        np.testing.assert_array_equal(lap.laplacian, np.eye(3))
        assert lap.lambda_max == pytest.approx(1.0, abs=1e-12)

    def test_self_loop_only_graph_uses_fallback(self):
        lap = laplacian(np.eye(4))
        np.testing.assert_allclose(lap.laplacian, np.zeros((4, 4)), atol=1e-15)
        assert lap.lambda_max == 2.0
        np.testing.assert_allclose(lap.rescaled, -np.eye(4), atol=1e-15)

    def test_eigenvalues_within_zero_two(self):
        for seed in range(5):
            lap = laplacian(random_graph(6, seed))
            eigvals = np.linalg.eigvalsh(lap.laplacian)
            assert eigvals.min() >= -1e-10
            assert eigvals.max() <= 2.0 + 1e-10

    def test_rescaled_spectrum_within_unit_interval(self):
        for seed in range(10):
            lap = laplacian(random_graph(9, seed + 50))
            eigvals = np.linalg.eigvalsh(lap.rescaled)
            assert eigvals.min() >= -1.0 - 1e-9
            assert eigvals.max() <= 1.0 + 1e-9

    def test_rescaled_is_byte_identical_to_the_two_array_form(self):
        stack = laplacian(np.stack([random_graph(196, seed) for seed in range(8)]))
        one = laplacian(random_graph(12, 9))
        for lap in (stack, one):
            assert lap.rescaled.tobytes() == rescaled_two_arrays(lap).tobytes()

    def test_lambda_max_matches_eigh(self):
        graphs = [random_graph(m, seed, density) for seed, (m, density) in
                  enumerate([(2, 1.0), (7, 0.5), (16, 0.2), (40, 0.1), (64, 0.05)])]
        # disconnected, block-diagonal graphs like the lan level
        graphs += [block_diagonal([random_graph(m, 10 + seed + m) for m in (1, 2, 5, 7)])
                   for seed in range(5)]
        for a in graphs:
            lap = laplacian(a)
            assert abs(lap.lambda_max - np.linalg.eigh(lap.laplacian)[0][-1]) <= 1e-12
        # the same block-diagonal graphs solved block by block, in the padded
        # layout; a block's weighted degrees sum in another order than its rows'
        for a in graphs[5:]:
            lap = normalized_laplacian(a, RowBlocks([1, 2, 5, 7]))
            np.testing.assert_allclose(lap.laplacian, laplacian(a).laplacian, rtol=0, atol=1e-15)
            assert abs(lap.lambda_max - np.linalg.eigh(lap.laplacian)[0][-1]) <= 1e-12

    @pytest.mark.parametrize("sizes", [[3], [2, 2], [2, 1, 3], [1, 1]])
    def test_a_level_whose_blocks_have_only_self_loops_takes_the_fallback(self, sizes):
        # padding rows left as identity would add the eigenvalue 1
        blocks = RowBlocks(sizes)
        lap = normalized_laplacian(np.stack([np.eye(blocks.m)] * 2), blocks)
        assert not lap.laplacian.any()
        assert lap.lambda_max.tolist() == [2.0, 2.0]

    def test_an_adjacency_of_another_size_than_its_blocks_is_refused(self):
        with pytest.raises(ShapeMismatch, match=r"row-blocks: blocks partition 5 nodes"):
            normalized_laplacian(np.eye(4), RowBlocks([2, 3]))


class TestChebApply:
    def test_k1_is_feature_projection(self):
        lap = laplacian(random_graph(5, 0))
        rng = np.random.default_rng(1)
        h = Tensor(rng.normal(size=(5, 3)))
        theta = Tensor(rng.normal(size=(3, 2)))
        out = cheb_apply(Tensor(lap.rescaled), h, [theta])
        np.testing.assert_allclose(out.data, h.data @ theta.data, atol=1e-14)

    def test_two_node_path_hand_computation(self):
        lap = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        h = Tensor(np.array([[1.0], [1.0]]))
        thetas = [Tensor([[1.0]]), Tensor([[1.0]])]
        out = cheb_apply(Tensor(lap.rescaled), h, thetas)
        np.testing.assert_allclose(out.data, [[0.0], [0.0]], atol=1e-9)

    def test_k_zero_is_an_error(self):
        lap = laplacian(random_graph(3, 2))
        with pytest.raises(SpectralError, match="K >= 1"):
            cheb_apply(Tensor(lap.rescaled), Tensor(np.zeros((3, 2))), [])

    def test_shape_mismatch_is_an_error(self):
        rescaled = Tensor(laplacian(random_graph(3, 3)).rescaled)
        with pytest.raises(ShapeMismatch, match="cheb-conv: filters"):
            cheb_apply(rescaled, Tensor(np.zeros((3, 2))), [Tensor(np.zeros((5, 4)))])
        with pytest.raises(ShapeMismatch, match="cheb-conv: filters"):
            cheb_apply(rescaled, Tensor(np.zeros((3, 2))), [Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3)))])
        with pytest.raises(ShapeMismatch, match="cheb-conv: Laplacian"):
            cheb_apply(rescaled, Tensor(np.zeros((4, 2))), [Tensor(np.zeros((2, 4)))] * 2)
        with pytest.raises(ShapeMismatch, match="cheb-conv: Laplacian"):
            cheb_apply(rescaled, Tensor(np.zeros((2, 3, 2))), [Tensor(np.zeros((2, 4)))] * 2)

    def test_linearity_in_features(self):
        lap = laplacian(random_graph(6, 4))
        rng = np.random.default_rng(5)
        h1 = rng.normal(size=(6, 3))
        h2 = rng.normal(size=(6, 3))
        thetas = [Tensor(rng.normal(size=(3, 2))) for _ in range(3)]
        a, b = 1.3, -0.7
        combined = cheb_apply(Tensor(lap.rescaled), Tensor(a * h1 + b * h2), thetas).data
        separate = a * cheb_apply(Tensor(lap.rescaled), Tensor(h1), thetas).data + b * cheb_apply(
            Tensor(lap.rescaled), Tensor(h2), thetas
        ).data
        np.testing.assert_allclose(combined, separate, atol=1e-10)

    def test_gradients_flow_to_thetas_and_features(self):
        lap = laplacian(random_graph(4, 6))
        rng = np.random.default_rng(7)
        h = Parameter("h", rng.normal(size=(4, 3)))
        thetas = [Parameter(f"t{k}", rng.normal(size=(3, 2))) for k in range(3)]
        with Tape() as tape:
            loss = total(cheb_apply(Tensor(lap.rescaled), h, list(thetas)))
        backward(tape, loss)
        assert np.any(h.grad != 0.0)
        for t in thetas:
            assert np.any(t.grad != 0.0)


def filter_run(conv, rescaled, h0, thetas0, upstream, skip):
    """``conv``'s output, then the gradients of the features and of each
    filter, as bytes, for the loss ``<upstream, out>``; with ``skip`` the
    features are also added to the output, as the res-cheb block does."""
    h = Parameter("h", h0)
    thetas = [Parameter(f"theta{k}", t) for k, t in enumerate(thetas0)]
    with Tape() as tape:
        out = conv(Tensor(rescaled), h, thetas)
        if skip:
            out = ad.add(out, h)
        loss = ad.matmul(ad.reshape(out, (-1,)), Tensor(upstream))
    backward(tape, loss)
    return [out.data.tobytes(), h.grad.tobytes()] + [t.grad.tobytes() for t in thetas]


class TestOneNodeAgainstTheComposedRecurrence:
    """``cheb_apply``'s single node against the recurrence written with
    ``matmul``, ``scale`` and ``add`` nodes, byte for byte."""

    @pytest.mark.parametrize("skip", [False, True], ids=["plain", "skip"])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["one subject", "stack of 3"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_output_and_every_gradient_are_byte_equal(self, k, batch, skip):
        rng = np.random.default_rng(20 + k)
        m, d = 7, 5
        graphs = np.stack([random_graph(m, 40 + i) for i in range(3)])[: batch[0] if batch else 1]
        rescaled = laplacian(graphs.reshape(batch + (m, m))).rescaled
        h0 = rng.normal(size=batch + (m, d)) * rng.choice([1e-3, 1.0, 1e3], size=batch + (m, d))
        thetas0 = [rng.normal(size=(d, d)) for _ in range(k)]
        upstream = rng.normal(size=h0.size)
        fused = filter_run(cheb_apply, rescaled, h0, thetas0, upstream, skip)
        composed = filter_run(cheb_apply_composed, rescaled, h0, thetas0, upstream, skip)
        assert fused == composed

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_filter_is_one_node(self, k):
        h = Parameter("h", np.ones((2, 4, 3)))
        thetas = [Parameter(f"theta{i}", np.ones((3, 2))) for i in range(k)]
        rescaled = Tensor(laplacian(np.stack([random_graph(4, 7)] * 2)).rescaled)
        with Tape() as tape:
            cheb_apply(rescaled, h, thetas)
        assert [node.op for node in tape.nodes] == ["cheb-conv"]

    def test_finite_differences_on_a_stack_at_k3(self):
        rng = np.random.default_rng(31)
        rescaled = Tensor(laplacian(np.stack([random_graph(6, 50 + i) for i in range(3)])).rescaled)
        h = Parameter("h", rng.normal(size=(3, 6, 4)))
        thetas = [Parameter(f"theta{k}", rng.normal(size=(4, 2))) for k in range(3)]
        weight = Tensor(rng.normal(size=3 * 6 * 2))

        def f():
            return ad.matmul(ad.reshape(cheb_apply(rescaled, h, thetas), (-1,)), weight)

        report = finite_difference_check(f, [h, *thetas], h=1e-5, tolerance=1e-6)
        assert not report.skipped and report.passed, f"max relative error {report.max_rel_error}"


class TestExactOracleAgreement:
    def test_k1_identical_to_recurrence(self):
        lap = laplacian(random_graph(5, 8))
        rng = np.random.default_rng(9)
        h = Tensor(rng.normal(size=(5, 2)))
        thetas = [Tensor(rng.normal(size=(2, 2)))]
        np.testing.assert_allclose(
            spectral_filter_exact(lap, h, thetas), cheb_apply(Tensor(lap.rescaled), h, thetas).data, atol=1e-12
        )

    def test_diagonal_rescaled_laplacian_acts_entrywise(self):
        # a self-loop-only graph has rescaled Laplacian -I, so T_k(-1) = (-1)^k
        lap = laplacian(np.eye(3))
        rng = np.random.default_rng(10)
        h = rng.normal(size=(3, 2))
        thetas = [Tensor(rng.normal(size=(2, 2))) for _ in range(3)]
        expected = (
            h @ thetas[0].data - h @ thetas[1].data + h @ thetas[2].data
        )
        np.testing.assert_allclose(
            spectral_filter_exact(lap, Tensor(h), thetas), expected, atol=1e-12
        )

    def test_hundred_random_graphs_max_deviation(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for trial in range(100):
            m = int(rng.integers(2, 17))
            k = int(rng.integers(1, 6))
            lap = laplacian(random_graph(m, 1000 + trial))
            h = Tensor(rng.normal(size=(m, 3)))
            thetas = [Tensor(rng.normal(size=(3, 2))) for _ in range(k)]
            exact = spectral_filter_exact(lap, h, thetas)
            recurrence = cheb_apply(Tensor(lap.rescaled), h, thetas).data
            worst = max(worst, float(np.max(np.abs(exact - recurrence))))
        assert worst <= 1e-8, f"max |exact - recurrence| = {worst}"

    def test_oracle_rejects_large_graphs(self):
        lap = laplacian(random_graph(65, 12))
        with pytest.raises(SpectralError, match="cheb_apply"):
            spectral_filter_exact(lap, Tensor(np.zeros((65, 1))), [Tensor(np.zeros((1, 1)))])


class TestPermutationEquivariance:
    def test_permute_and_permute_back(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            m = 8
            a = random_graph(m, 300 + trial)
            h = rng.normal(size=(m, 3))
            thetas = [Tensor(rng.normal(size=(3, 2))) for _ in range(3)]
            perm = rng.permutation(m)
            base = cheb_apply(Tensor(laplacian(a).rescaled), Tensor(h), thetas).data
            permuted = cheb_apply(
                Tensor(laplacian(a[np.ix_(perm, perm)]).rescaled), Tensor(h[perm]), thetas
            ).data
            restored = np.empty_like(permuted)
            restored[perm] = permuted
            np.testing.assert_allclose(restored, base, atol=1e-12)


class TestFirstOrderPropagation:
    def test_identity_adjacency_near_identity(self):
        p = first_order_propagation(np.eye(4))
        np.testing.assert_allclose(p, np.eye(4), atol=1e-12)

    def test_rows_follow_renormalization_rule(self):
        a = random_graph(5, 14)
        p = first_order_propagation(a)
        a_hat = a + np.eye(5)
        d = a_hat.sum(axis=1)
        expected = a_hat / np.sqrt(np.outer(d, d))
        np.testing.assert_allclose(p, expected, atol=1e-14)
