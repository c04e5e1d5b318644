"""Population graph construction and the transductive node classifier."""

import numpy as np
import pytest

from hobnet import autodiff as ad
from hobnet.autodiff import Tape, Tensor, backward
from hobnet.ffc import AdamState, ModelParams, TrainConfig, adam_step, fit, prepare_cohort
from hobnet.harness import nested_hierarchy, synth_generate
from hobnet.layers import mlp_forward
from hobnet.population import (
    PhenotypeRecord,
    PopulationError,
    build_phenotype_encoder,
    build_population_head,
    embed_subjects,
    gcn_classify,
    head_forward,
    linear_quantile,
    phenotype_similarity_m2,
    population_adjacency,
    similarity_m1,
    standardize_phenotypes,
    train_population_head,
    weight_matrix,
)
from hobnet.spectral import first_order_propagation

from conftest import params_of
from oracles import embeddings_in_eights

from test_ffc import small_config


def record(sid="s0", gender="F", age=12.0, site="site-a"):
    return PhenotypeRecord(subject_id=sid, gender=gender, age=age, site=site)


def assert_symmetric_unit_diagonal(a):
    """``a`` equals its transpose byte for byte and its diagonal is exactly 1."""
    assert a.tobytes() == np.ascontiguousarray(a.T).tobytes()
    assert np.all(np.diag(a) == 1.0)


class TestPhenotypeRecord:
    def test_age_must_be_positive(self):
        with pytest.raises(PopulationError, match="age"):
            record(age=-3)

    def test_missing_site_is_an_error(self):
        with pytest.raises(PopulationError, match="site"):
            record(site="")


class TestSimilarityM1:
    def test_identical_rows_give_one(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=8)
        y = np.vstack([base, base, rng.normal(size=8)])
        m1 = similarity_m1(y)
        assert m1[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_is_one(self):
        y = np.random.default_rng(1).normal(size=(5, 6))
        assert np.all(np.diag(similarity_m1(y)) == 1.0)

    def test_three_subject_hand_formula(self):
        y = np.random.default_rng(2).normal(size=(3, 10))
        m1 = similarity_m1(y)
        rho = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    rho[i, j] = 1.0 - np.corrcoef(y[i], y[j])[0, 1]
        sigma_sq = np.mean([rho[0, 1] ** 2, rho[0, 2] ** 2, rho[1, 2] ** 2])
        for i in range(3):
            for j in range(3):
                if i != j:
                    expected = np.exp(-rho[i, j] ** 2 / (2 * sigma_sq))
                    assert m1[i, j] == pytest.approx(expected, abs=1e-12)

    def test_constant_row_names_subject(self):
        y = np.random.default_rng(3).normal(size=(3, 5))
        y[1] = 2.0
        with pytest.raises(PopulationError, match="row 1"):
            similarity_m1(y)

    def test_symmetry(self):
        y = np.random.default_rng(4).normal(size=(200, 128))  # a one-sided norm division shows here
        assert_symmetric_unit_diagonal(similarity_m1(y))


class TestPhenotypeSimilarityM2:
    def test_identical_records_give_one(self):
        records = [record("a"), record("b")]
        m2 = phenotype_similarity_m2(records)
        assert m2[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_records_with_huge_age_gap_tend_to_zero(self):
        records = [record("a", "F", 8.0, "site-a"), record("b", "M", 80.0, "site-b")]
        assert phenotype_similarity_m2(records)[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_mixed_pair_matches_componentwise_oracle(self):
        records = [record("a", "F", 10.0, "site-a"), record("b", "F", 14.0, "site-b")]
        got = phenotype_similarity_m2(records)[0, 1]
        expected = (1.0 + 0.0 + np.exp(-(4.0**2) / (2 * 25.0))) / 3.0
        assert got == pytest.approx(expected, abs=1e-12)

    def test_bounds_symmetry_diagonal(self):
        rng = np.random.default_rng(5)
        records = [
            record(f"s{i}", rng.choice(["F", "M"]), float(rng.uniform(6, 60)), rng.choice(["x", "y"]))
            for i in range(6)
        ]
        m2 = phenotype_similarity_m2(records)
        assert np.all((m2 >= 0.0) & (m2 <= 1.0))
        assert_symmetric_unit_diagonal(m2)


def standardize_phenotypes_by_rows(records):
    """The former feature builder: one Python row per subject."""
    ages = np.array([r.age for r in records])
    z_age = (ages - ages.mean()) / ages.std() if ages.std() > 0 else np.zeros_like(ages)
    genders = sorted({r.gender for r in records})
    sites = sorted({r.site for r in records})
    return np.array(
        [
            [z, *(float(r.gender == g) for g in genders), *(float(r.site == s) for s in sites)]
            for z, r in zip(z_age, records)
        ]
    )


class TestStandardizePhenotypes:
    @pytest.mark.parametrize("n", [2, 7, 50])
    def test_matches_per_row_oracle(self, n):
        rng = np.random.default_rng(n)
        records = [
            record(f"s{i}", rng.choice(["F", "M"]), float(rng.uniform(6, 60)), rng.choice(["b", "a", "c"]))
            for i in range(n)
        ]
        got = standardize_phenotypes(records)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, standardize_phenotypes_by_rows(records))


class TestWeightMatrix:
    def test_identical_phenotypes_give_one(self):
        records = [record("a"), record("b")]
        encoder = build_phenotype_encoder(standardize_phenotypes(records).shape[1], seed=0)
        w = weight_matrix(records, encoder)
        assert w[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_outputs_give_zero(self):
        records = [record("a", "F", 10.0, "site-a"), record("b", "M", 10.0, "site-a")]
        features = standardize_phenotypes(records)
        # single linear layer; one-hot gender columns map the two rows to +/-v
        w0 = np.zeros((features.shape[1], 2))
        w0[1, :] = [1.0, 2.0]
        w0[2, :] = [-1.0, -2.0]
        encoder = params_of({"phenotype.l0.w": w0, "phenotype.l0.b": np.zeros(2)})
        w = weight_matrix(records, encoder)
        assert w[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_random_pair_matches_cosine_oracle(self):
        rng = np.random.default_rng(6)
        records = [
            record(f"s{i}", rng.choice(["F", "M"]), float(rng.uniform(8, 30)), rng.choice(["a", "b", "c"]))
            for i in range(5)
        ]
        features = standardize_phenotypes(records)
        encoder = build_phenotype_encoder(features.shape[1], seed=1)
        w = weight_matrix(records, encoder)
        from hobnet.autodiff import Tensor
        from hobnet.layers import mlp_forward

        enc = np.vstack([mlp_forward(Tensor(f), encoder, "phenotype").data for f in features])
        i, j = 1, 3
        cos = enc[i] @ enc[j] / (np.linalg.norm(enc[i]) * np.linalg.norm(enc[j]))
        assert w[i, j] == pytest.approx((cos + 1) / 2, abs=1e-12)
        assert np.all((w >= 0.0) & (w <= 1.0))
        assert_symmetric_unit_diagonal(w)

    def test_zero_encoder_output_is_an_error(self):
        records = [record("a"), record("b", "M")]
        width = standardize_phenotypes(records).shape[1]
        encoder = params_of({"phenotype.l0.w": np.zeros((width, 3)), "phenotype.l0.b": np.zeros(3)})
        with pytest.raises(PopulationError, match="zero vector"):
            weight_matrix(records, encoder)


class TestLinearQuantile:
    def test_bit_identical_to_numpy_quantile(self):
        rng = np.random.default_rng(31)
        for trial in range(2000):
            n = int(rng.integers(1, 50))
            values = rng.random(n) if trial % 2 else np.round(rng.random(n), 1)  # with ties
            q = float(rng.choice([0.0, 0.9, 1.0, rng.random()]))
            assert linear_quantile(values, q) == np.quantile(values, q), (n, q)


class TestPopulationAdjacency:
    def combined_inputs(self, n=4, seed=7):
        rng = np.random.default_rng(seed)
        m1 = rng.uniform(0.1, 1.0, size=(n, n))
        m1 = (m1 + m1.T) / 2
        np.fill_diagonal(m1, 1.0)
        m2 = rng.uniform(0.1, 1.0, size=(n, n))
        m2 = (m2 + m2.T) / 2
        np.fill_diagonal(m2, 1.0)
        w = rng.uniform(0.0, 1.0, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 1.0)
        return m1, m2, w

    def test_retain_all_gives_complete_graph_weighted_by_w(self):
        m1, m2, w = self.combined_inputs()
        binary, adj = population_adjacency(m1, m2, w, retain_fraction=1.0)
        np.testing.assert_array_equal(binary, np.ones_like(binary))
        np.testing.assert_array_equal(adj, w)

    def test_retain_none_gives_identity(self):
        m1, m2, w = self.combined_inputs()
        binary, adj = population_adjacency(m1, m2, w, retain_fraction=0.0)
        np.testing.assert_array_equal(binary, np.eye(4))
        np.testing.assert_array_equal(adj, np.eye(4) * 1.0)

    def test_matches_sort_and_cut_oracle(self):
        m1, m2, w = self.combined_inputs(seed=8)
        q = 0.4
        binary, adj = population_adjacency(m1, m2, w, retain_fraction=q)
        combined = m1 * m2
        off = combined[~np.eye(4, dtype=bool)]
        threshold = np.quantile(off, 1 - q)
        expected = (combined >= threshold) & ~np.eye(4, dtype=bool)
        np.testing.assert_array_equal(binary, expected + np.eye(4))
        np.testing.assert_allclose(adj, (expected + np.eye(4)) * w, atol=0)

    def test_monotone_in_retained_fraction(self):
        m1, m2, w = self.combined_inputs(seed=9)
        previous = None
        for q in (0.0, 0.2, 0.5, 0.8, 1.0):
            binary, _ = population_adjacency(m1, m2, w, retain_fraction=q)
            if previous is not None:
                assert np.all(binary >= previous)
            previous = binary

    @pytest.mark.parametrize("retain", [0.1, 0.5, 1.0])
    def test_the_program_s_adjacency_is_byte_symmetric_and_non_negative(self, retain):
        # m1, m2 and w as popgraph builds them, each symmetric by construction
        records = [r.phenotype for r in synth_generate(30, nested_hierarchy(2, 2, 2), seed=4).subjects]
        y = np.random.default_rng(12).normal(size=(30, 24))
        encoder = build_phenotype_encoder(standardize_phenotypes(records).shape[1], seed=3)
        m1, m2, w = similarity_m1(y), phenotype_similarity_m2(records), weight_matrix(records, encoder)
        for kernel in (m1, m2, w):
            assert_symmetric_unit_diagonal(kernel)
        for adjacency in population_adjacency(m1, m2, w, retain_fraction=retain):
            assert adjacency.tobytes() == np.ascontiguousarray(adjacency.T).tobytes()
            assert adjacency.min() >= 0.0

    def test_all_equal_similarities_is_an_error(self):
        n = 3
        m1 = np.ones((n, n))
        m2 = np.ones((n, n))
        w = np.ones((n, n))
        with pytest.raises(PopulationError, match="binarization undefined"):
            population_adjacency(m1, m2, w)


class TestGcnClassify:
    def test_identity_adjacency_matches_bare_head(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=(6, 8))
        head = build_population_head(8, seed=2)
        via_graph = gcn_classify(y, np.eye(6), head).data
        bare = head_forward(Tensor(y), head).data
        np.testing.assert_allclose(via_graph, bare, atol=1e-12)

    def test_disconnected_components_are_independent(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(6, 5))
        adj = np.zeros((6, 6))
        adj[:3, :3] = 0.8
        adj[3:, 3:] = 0.6
        np.fill_diagonal(adj, 1.0)
        head = build_population_head(5, seed=3)
        base = gcn_classify(y, adj, head).data
        y2 = y.copy()
        y2[3:] += 10.0
        bumped = gcn_classify(y2, adj, head).data
        np.testing.assert_array_equal(bumped[:3], base[:3])

    def test_matches_dense_propagation_oracle(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=(5, 4))
        adj = rng.uniform(0, 1, size=(5, 5))
        adj = (adj + adj.T) / 2
        np.fill_diagonal(adj, 1.0)
        head = build_population_head(4, seed=4)
        probs = gcn_classify(y, adj, head).data
        a_hat = adj + np.eye(5)
        d = a_hat.sum(axis=1)
        p = a_hat / np.sqrt(np.outer(d, d))
        h = np.maximum(p @ y @ head["gcn.w"].data, 0.0)
        h1 = np.maximum(h @ head["head.l0.w"].data + head["head.l0.b"].data, 0.0)
        logits = h1 @ head["head.l1.w"].data + head["head.l1.b"].data
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(probs, e / e.sum(axis=1, keepdims=True), atol=1e-12)

    def test_probabilities_sum_to_one_per_node(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=(4, 3))
        head = build_population_head(3, seed=5)
        probs = gcn_classify(y, np.eye(4), head).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def gcn_classify_by_tensors(y, adjacency, head):
    """The former classifier: the propagation and the head recorded as one forward."""
    mixed = ad.matmul(Tensor(first_order_propagation(adjacency)), Tensor(y))
    hidden = ad.relu(ad.matmul(mixed, head["gcn.w"]))
    return ad.softmax(mlp_forward(hidden, head, "head"))


def train_population_head_by_selector(y, adjacency, labels, train_index, seed, epochs, lr):
    """The former trainer: every node each epoch, then a dense eye-row selector."""
    head = build_population_head(y.shape[1], seed)
    state = AdamState(head)
    selector = Tensor(np.eye(y.shape[0])[train_index])
    trace = []
    for _ in range(epochs):
        head.zero_grad()
        with Tape() as tape:
            picked = ad.matmul(selector, gcn_classify_by_tensors(y, adjacency, head))
            ce = ad.cross_entropy(picked, labels[train_index])
        backward(tape, ce)
        adam_step(state, lr)
        trace.append(ce.item())
    return head, trace


class TestTrainMatchesSelectorOracle:
    @pytest.mark.parametrize("n, retain, seed", [(12, 0.3, 0), (40, 0.1, 1), (25, 1.0, 2)])
    def test_loss_trace_and_probabilities(self, n, retain, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(n, 10))
        m1, m2, w = TestPopulationAdjacency().combined_inputs(n, seed=seed)
        _, adj = population_adjacency(m1, m2, w, retain_fraction=retain)
        labels = rng.integers(0, 2, size=n)
        train_index = np.sort(rng.choice(n, size=2 * n // 3, replace=False))
        pop = train_population_head(y, adj, labels, train_index, seed=seed, epochs=200, lr=5e-3)
        head, trace = train_population_head_by_selector(y, adj, labels, train_index, seed, 200, 5e-3)
        np.testing.assert_allclose(pop.loss_trace, trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            gcn_classify(y, adj, pop.head).data,
            gcn_classify_by_tensors(y, adj, head).data,
            rtol=0,
            atol=1e-12,
        )


def test_population_head_training_matches_the_per_parameter_update(monkeypatch):
    import oracles
    from hobnet import population

    rng = np.random.default_rng(9)
    y, labels = rng.normal(size=(20, 6)), rng.integers(0, 2, size=20)
    adjacency = (rng.random((20, 20)) < 0.3).astype(float)
    adjacency = np.maximum(adjacency, adjacency.T)
    args = (y, adjacency, labels, np.arange(14))
    flat = train_population_head(*args, seed=3, epochs=30, lr=1e-2)
    monkeypatch.setattr(population, "AdamState", oracles.per_parameter_adam_state)
    monkeypatch.setattr(population, "adam_step", oracles.adam_step_per_parameter)
    reference = train_population_head(*args, seed=3, epochs=30, lr=1e-2)
    assert flat.loss_trace == reference.loss_trace
    for name in flat.head:
        assert flat.head[name].data.tobytes() == reference.head[name].data.tobytes()


class TestEmbedAndTrain:
    def setup_model(self):
        hierarchy = nested_hierarchy(2, 2, 2)
        cohort = synth_generate(16, hierarchy, signal=0.8, noise=0.3, seed=21, n_timepoints=60)
        cfg = small_config()
        result = fit(cohort, hierarchy, cfg, TrainConfig(epochs=4, seed=1, batch_size=4))
        subs = prepare_cohort(cohort, hierarchy, result.gammas, encoder=cfg.hgnn.encoder)
        return cohort, cfg, result, subs

    def test_embeddings_row_width_and_determinism(self):
        cohort, cfg, result, subs = self.setup_model()
        y = embed_subjects(result.params, cfg, subs)
        assert y.shape == (16, cfg.fused_width())
        np.testing.assert_array_equal(y, embed_subjects(result.params, cfg, subs))

    def test_embeddings_match_forward_oracle(self):
        from hobnet.ffc import fused_features

        cohort, cfg, result, subs = self.setup_model()
        y = embed_subjects(result.params, cfg, subs)
        np.testing.assert_array_equal(y, fused_features(result.params, cfg, subs).data)
        in_eights = embeddings_in_eights(result.params, cfg, subs)
        np.testing.assert_allclose(y, in_eights, rtol=1e-12, atol=1e-12)
        alone = fused_features(result.params, cfg, subs.take(slice(3, 4))).data[0]
        np.testing.assert_allclose(y[3], alone, rtol=1e-12, atol=1e-12)

    def test_empty_params_is_an_error(self):
        cohort, cfg, result, subs = self.setup_model()
        with pytest.raises(PopulationError, match="trained"):
            embed_subjects(ModelParams(), cfg, subs)

    def test_population_head_training_reduces_loss(self):
        cohort, cfg, result, subs = self.setup_model()
        y = embed_subjects(result.params, cfg, subs)
        labels = np.array([s.label for s in subs])
        m1 = similarity_m1(y)
        records = [r.phenotype for r in cohort.subjects]
        m2 = phenotype_similarity_m2(records)
        encoder = build_phenotype_encoder(standardize_phenotypes(records).shape[1], seed=6)
        w = weight_matrix(records, encoder)
        _, adj = population_adjacency(m1, m2, w, retain_fraction=0.3)
        pop = train_population_head(y, adj, labels, np.arange(12), seed=7, epochs=60, lr=5e-3)
        assert pop.loss_trace[-1] < pop.loss_trace[0]

