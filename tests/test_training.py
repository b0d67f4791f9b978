import io
import math
import warnings

import numpy as np
import pytest

from comret.errors import ComretError
from comret.training import (
    ETA_INIT,
    TAU_INIT,
    ToyEncoders,
    TrainConfig,
    TripletBatch,
    _pair_signs,
    combined_loss,
    init_encoders,
    load_triplets,
    loss_gradients,
    pairwise_sigmoid_loss,
    self_retrieval_mrr_at_1,
    train_toy,
    write_log_csv,
)

import reference

TAU0, ETA0 = 10.0, -10.0


def separable_batch(n=8):
    """One-hot queries/texts; image features already aligned at margin 3."""
    return TripletBatch(
        query=np.eye(n),
        image=-3.0 * np.ones((n, n)) + 6.0 * np.eye(n),
        text=np.eye(n),
    )


def random_batch(rng, b, d):
    return (
        rng.standard_normal((b, d)),
        rng.standard_normal((b, d)),
    )


class TestPairIndicator:
    def test_diagonal_is_positive(self):
        assert (np.diag(_pair_signs(4)) == 1).all()

    def test_off_diagonal_is_negative(self):
        signs = _pair_signs(4)
        assert (signs[~np.eye(4, dtype=bool)] == -1).all()

    def test_single_pair_batch(self):
        assert _pair_signs(1).tolist() == [[1.0]]


class TestPairwiseSigmoidLoss:
    def test_single_matched_pair_spot_values(self):
        q = np.array([[1.0]])
        # z = 1 with tau=10, eta=-10: softplus(-20)
        assert pairwise_sigmoid_loss(q, np.array([[1.0]]), TAU0, ETA0) == pytest.approx(
            math.log1p(math.exp(-20.0)), abs=1e-9
        )
        # z = 0: softplus(-10) = 4.5399e-5
        assert pairwise_sigmoid_loss(q, np.array([[0.0]]), TAU0, ETA0) == pytest.approx(
            math.log1p(math.exp(-10.0)), abs=1e-9
        )
        assert pairwise_sigmoid_loss(q, np.array([[0.0]]), TAU0, ETA0) == pytest.approx(4.5399e-5, abs=1e-9)

    def test_two_pair_batch_explicit_sum(self):
        # Orthogonal construction: z_11, z_22 on the diagonal, z_12 = z_21 = 0.
        z11, z22 = 0.7, -0.2
        q = np.eye(2)
        t = np.diag([z11, z22])
        expected = 0.5 * (
            math.log1p(math.exp(-TAU0 * z11 + ETA0))
            + math.log1p(math.exp(-TAU0 * z22 + ETA0))
            + 2.0 * math.log1p(math.exp(-ETA0))
        )
        assert pairwise_sigmoid_loss(q, t, TAU0, ETA0) == pytest.approx(expected, rel=1e-12)

    def test_matches_double_loop_reference(self, rng):
        for _ in range(30):
            b, d = int(rng.integers(1, 9)), int(rng.integers(1, 17))
            q, c = random_batch(rng, b, d)
            tau = float(rng.uniform(0.1, 20.0))
            eta = float(rng.uniform(-12.0, 12.0))
            got = pairwise_sigmoid_loss(q, c, tau, eta)
            want = reference.pair_loss_double_loop(q.tolist(), c.tolist(), tau, eta)
            assert got == pytest.approx(want, abs=1e-12, rel=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ComretError, match="^candidate embeddings: expected dim 2, got 3$"):
            pairwise_sigmoid_loss(np.ones((2, 2)), np.ones((2, 3)), TAU0, ETA0)

    def test_nonnegative(self, rng):
        for _ in range(50):
            b, d = int(rng.integers(1, 7)), int(rng.integers(1, 10))
            q, c = random_batch(rng, b, d)
            assert pairwise_sigmoid_loss(q, c, float(rng.uniform(0.01, 30)), float(rng.uniform(-15, 15))) >= 0.0

    def test_orthonormal_rows_give_unit_diagonal(self):
        # Diagonal pairs score z=1 (softplus(-20)), the six off-diagonal
        # negatives score z=0 with flipped sign (softplus(+10)).
        q = np.eye(3)
        loss = pairwise_sigmoid_loss(q, q, TAU0, ETA0)
        expected = (3 * math.log1p(math.exp(-20.0)) + 6 * (10.0 + math.log1p(math.exp(-10.0)))) / 3
        assert loss == pytest.approx(expected, rel=1e-12)


class TestCombinedLoss:
    def test_lambda_boundaries(self, rng):
        batch = separable_batch(4)
        enc = init_encoders(batch)
        total1, loss_t, _ = combined_loss(batch, enc, 1.0, TAU0, ETA0)
        total0, _, loss_i = combined_loss(batch, enc, 0.0, TAU0, ETA0)
        assert total1 == loss_t and total0 == loss_i

    def test_weighting_arithmetic(self, rng):
        batch = separable_batch(4)
        enc = init_encoders(batch)
        total, loss_t, loss_i = combined_loss(batch, enc, 0.3, TAU0, ETA0)
        assert total == pytest.approx(0.3 * loss_t + 0.7 * loss_i, rel=1e-15)


def relative_error(a, b):
    scale = max(abs(a), abs(b), 1e-8)
    return abs(a - b) / scale


class TestGradients:
    def test_matches_central_differences(self, rng):
        for _ in range(10):
            b, d = int(rng.integers(2, 5)), int(rng.integers(2, 9))
            batch = TripletBatch(
                rng.standard_normal((b, d)), rng.standard_normal((b, d)), rng.standard_normal((b, d))
            )
            enc = init_encoders(batch, seed=1)
            w0 = rng.standard_normal(enc.w_text.shape) * 0.3
            lam = float(rng.uniform(0.0, 1.0))
            tau = float(rng.uniform(0.5, 12.0))
            eta = float(rng.uniform(-11.0, 2.0))
            grads = loss_gradients(batch, ToyEncoders(enc.w_image, w0), lam, tau, eta)

            eps = 1e-5
            for idx in np.ndindex(w0.shape):
                w_hi, w_lo = w0.copy(), w0.copy()
                w_hi[idx] += eps
                w_lo[idx] -= eps
                fd = (
                    combined_loss(batch, ToyEncoders(enc.w_image, w_hi), lam, tau, eta)[0]
                    - combined_loss(batch, ToyEncoders(enc.w_image, w_lo), lam, tau, eta)[0]
                ) / (2 * eps)
                assert relative_error(grads.w_text[idx], fd) < 1e-4

            current = ToyEncoders(enc.w_image, w0)
            fd_tau = (
                combined_loss(batch, current, lam, tau + eps, eta)[0]
                - combined_loss(batch, current, lam, tau - eps, eta)[0]
            ) / (2 * eps)
            fd_eta = (
                combined_loss(batch, current, lam, tau, eta + eps)[0]
                - combined_loss(batch, current, lam, tau, eta - eps)[0]
            ) / (2 * eps)
            assert relative_error(grads.tau, fd_tau) < 1e-4
            assert relative_error(grads.eta, fd_eta) < 1e-4

    def test_lambda_zero_zeroes_text_gradient(self, rng):
        batch = TripletBatch(
            rng.standard_normal((3, 4)), rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        )
        enc = init_encoders(batch)
        grads = loss_gradients(batch, enc, 0.0, TAU0, ETA0)
        assert not grads.w_text.any()

    def test_saturated_positive_pair_has_negligible_eta_gradient(self):
        batch = TripletBatch(np.array([[50.0]]), np.array([[50.0]]), np.array([[50.0]]))
        enc = ToyEncoders(np.eye(1), np.eye(1))
        grads = loss_gradients(batch, enc, 0.5, TAU0, ETA0)
        assert abs(grads.eta) < 1e-12


class TestTrainToy:
    def test_separable_fixture_converges(self):
        result = train_toy(separable_batch(), TrainConfig())
        report = result.report()
        assert report["final_loss"] <= 0.5 * report["initial_loss"]
        assert result.mrr_at_1 == 1.0

    def test_loss_decreases_monotonically_early(self):
        result = train_toy(separable_batch(), TrainConfig(steps=20))
        losses = [row.loss for row in result.log]
        assert losses[-1] < losses[0]

    def test_frozen_maps_bit_identical_after_training(self, rng):
        # Image features of the queries' dims are used as they are: no map.
        batch = separable_batch()
        assert init_encoders(batch, seed=0).w_image is None
        assert train_toy(batch, TrainConfig(steps=50)).encoders.w_image is None
        batch = TripletBatch(rng.standard_normal((6, 3)), rng.standard_normal((6, 5)), rng.standard_normal((6, 4)))
        init = init_encoders(batch, seed=0)
        result = train_toy(batch, TrainConfig(steps=50))
        assert result.encoders.w_image.tobytes() == init.w_image.tobytes()

    def test_zero_steps_logs_only_initial_loss(self):
        batch = separable_batch()
        result = train_toy(batch, TrainConfig(steps=0))
        assert len(result.log) == 1 and result.log[0].step == 0
        assert not result.encoders.w_text.any()
        report = result.report()
        assert report["tau"] == pytest.approx(10.0) and report["eta"] == -10.0

    def test_tau_starts_at_tau_init_exactly(self):
        # Zero queries score every pair 0, so the tau gradient is exactly 0.
        batch = separable_batch()
        flat = TripletBatch(np.zeros_like(batch.query), batch.image, batch.text)
        for result in (train_toy(batch, TrainConfig(steps=0)), train_toy(flat, TrainConfig(steps=5))):
            assert [row.tau for row in result.log] == [TAU_INIT] * len(result.log)
            assert result.report()["tau"] == 10.0

    def test_reproducible_logs(self):
        batch = separable_batch()
        cfg = TrainConfig(steps=30, batch_size=4, seed=7)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_log_csv(train_toy(batch, cfg).log, buf_a)
        write_log_csv(train_toy(batch, cfg).log, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_negative_zero_queries_train_like_positive_zero(self, rng):
        # Queries are used as they are, so -0.0 reaches the score grid; it
        # can only flip the sign of an all-zero score, which eta absorbs.
        query = rng.standard_normal((6, 3))
        query[2] = 0.0
        query[0, 1] = query[4, 2] = 0.0
        negative = query.copy()
        negative[query == 0.0] = -0.0
        assert np.signbit(negative[query == 0.0]).sum() == 5
        image, text = rng.standard_normal((6, 3)), rng.standard_normal((6, 4))
        cfg = TrainConfig(steps=20, batch_size=4, momentum=0.9, seed=7)
        runs = [train_toy(TripletBatch(q, image, text), cfg) for q in (query, negative)]
        assert np.array(runs[0].log).tobytes() == np.array(runs[1].log).tobytes()
        assert runs[0].encoders.w_text.tobytes() == runs[1].encoders.w_text.tobytes()

    def test_negative_zero_images_train_like_positive_zero(self, rng):
        # Images of the queries' dims are used as they are, as queries are.
        image = rng.standard_normal((6, 3))
        image[1] = 0.0
        image[3, 0] = 0.0
        negative = image.copy()
        negative[image == 0.0] = -0.0
        query, text = rng.standard_normal((6, 3)), rng.standard_normal((6, 4))
        cfg = TrainConfig(steps=20, batch_size=4, momentum=0.9, seed=7)
        runs = [train_toy(TripletBatch(query, i, text), cfg) for i in (image, negative)]
        assert np.array(runs[0].log).tobytes() == np.array(runs[1].log).tobytes()
        assert runs[0].encoders.w_text.tobytes() == runs[1].encoders.w_text.tobytes()

    def test_image_map_seeded_when_dims_differ(self, rng):
        # 5-dim image features against 3-dim queries: they go through a
        # frozen image map, a Gaussian drawn from the seed.
        batch = TripletBatch(rng.standard_normal((6, 3)), rng.standard_normal((6, 5)), rng.standard_normal((6, 4)))
        runs = [train_toy(batch, TrainConfig(steps=5, seed=seed)) for seed in (0, 0, 1)]
        assert runs[0].encoders.w_image.shape == (5, 3)
        assert runs[0].log == runs[1].log
        assert runs[0].encoders.w_image.tobytes() == runs[1].encoders.w_image.tobytes()
        assert not np.array_equal(runs[0].encoders.w_image, runs[2].encoders.w_image)

    @pytest.mark.parametrize(
        "case, message",
        [("tau-overflows", "loss inf, tau inf"), ("loss-turns-nan", "loss nan, tau 0")],
    )
    def test_diverging_run_raises_naming_the_step(self, rng, case, message):
        if case == "tau-overflows":  # a huge step drives log(tau) past exp's range
            query = rng.standard_normal((6, 4)) * 1e-2
            noise = rng.standard_normal((6, 2, 4))
            batch = TripletBatch(query, query + noise[:, 0], query + noise[:, 1])
            cfg = TrainConfig(learning_rate=1e5, steps=20)
        else:  # entries near 1e100 overflow the score grid at the default step
            batch = TripletBatch(*(rng.standard_normal((3, 6, 4)) * 1e100))
            cfg = TrainConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NumPy's overflow warnings stay silent
            with pytest.raises(ComretError, match=f"^training diverged at step 1: {message}, eta [-0-9.e+]+$"):
                train_toy(batch, cfg)

    def test_needs_two_triplets(self):
        batch = TripletBatch(np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ComretError):
            train_toy(batch, TrainConfig())

    def test_minibatch_training_runs(self):
        result = train_toy(separable_batch(), TrainConfig(steps=100, batch_size=4, seed=3))
        assert result.log[-1].loss < result.log[0].loss

    def test_self_retrieval_on_aligned_encoders(self):
        batch = separable_batch(4)
        enc = ToyEncoders(np.eye(4), 5.0 * np.eye(4) - 2.0)
        assert self_retrieval_mrr_at_1(batch, enc) == 1.0


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 2.0},
            {"lam": -0.1},
            {"momentum": -0.1},
            {"learning_rate": 0.0},
            {"steps": -1},
            {"batch_size": 0},
            {"momentum": 1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ComretError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, message",
        [
            ("learning_rate", "learning rate must be positive and finite"),
        ],
    )
    def test_rejects_non_finite_values(self, field, message, value):
        with pytest.raises(ComretError, match=f"^{message}, got {value}$"):
            TrainConfig(**{field: value})

    def test_defaults_match_standard_setup(self):
        assert TrainConfig().lam == 0.5 and (TAU_INIT, ETA_INIT) == (10.0, -10.0)


class TestTripletBatch:
    @pytest.mark.parametrize(
        "rows", [(0, 0, 0), (2, 1, 2), (2, 2, 3)], ids=["empty", "image-short", "text-long"]
    )
    def test_row_counts_must_agree(self, rows):
        q, i, t = (np.ones((n, 2)) for n in rows)
        with pytest.raises(ComretError, match="^triplet fields must have the same non-zero row count$"):
            TripletBatch(q, i, t)


class TestLoadTriplets:
    def test_round_trip(self):
        lines = ['{"q":[1.0,0.0],"i":[0.5,0.5],"t":[0.0,1.0]}\n', '{"q":[0.0,1.0],"i":[1.0,0.0],"t":[1.0,0.0]}\n']
        batch = load_triplets(lines)
        assert batch.size == 2
        np.testing.assert_array_equal(batch.query[0], [1.0, 0.0])

    def test_missing_key_rejected(self):
        with pytest.raises(ComretError, match='^line 1: missing or empty "t" array$'):
            load_triplets(['{"q":[1.0],"i":[1.0]}\n'])

    def test_ragged_dims_rejected(self):
        with pytest.raises(ComretError):
            load_triplets(['{"q":[1.0],"i":[1.0],"t":[1.0]}\n', '{"q":[1.0,2.0],"i":[1.0],"t":[1.0]}\n'])

    def test_empty_file_rejected(self):
        with pytest.raises(ComretError):
            load_triplets([])

    @pytest.mark.parametrize("number", ["1" + "0" * 400, "1e400", "NaN"])
    def test_non_finite_value_names_line_and_key(self, number):
        lines = ['{"q":[1.0],"i":[1.0],"t":[1.0]}\n', f'{{"q":[1.0],"i":[1.0],"t":[{number}]}}\n']
        with pytest.raises(ComretError, match='^non-finite value in line 2 "t"$'):
            load_triplets(lines)
