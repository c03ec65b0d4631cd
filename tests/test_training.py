import numpy as np
import pytest

from conftest import (check_model_grads, finite_diff_grad, grad_mismatch, tiny_bigat_spec,
                      traced_peak)
from bigatid import training
from bigatid import data as D
from bigatid import layers as L
from bigatid.model import bigat_spec, build
from bigatid.numerics import RngStream, softmax_rows
from bigatid.training import (
    AdamState,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    batched_probs,
    cce_loss,
    focal_loss,
    train,
)


def random_probs(rng, b, c):
    return softmax_rows(rng.normal(size=(b, c)))


class TestCceLoss:
    def test_perfect_prediction_zero_loss(self):
        onehot = D.one_hot(np.array([0, 2, 1]), 3)
        loss, _ = cce_loss(onehot.copy(), onehot)
        assert abs(loss) < 1e-12

    def test_uniform_two_class_is_ln2(self):
        probs = np.full((4, 2), 0.5)
        onehot = D.one_hot(np.array([0, 1, 0, 1]), 2)
        loss, _ = cce_loss(probs, onehot)
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = RngStream(0)
        probs = random_probs(rng, 3, 6)
        onehot = D.one_hot(rng.integers(0, 6, size=3), 6)
        _, grad = cce_loss(probs, onehot)
        fd = finite_diff_grad(lambda p: cce_loss(p, onehot)[0], probs)
        assert grad_mismatch(grad, fd) < 1e-6

    def test_softmax_composition_gives_p_minus_y_over_b(self):
        rng = RngStream(1)
        p = L.DenseParams.init(rng, 5, 4)
        x = rng.normal(size=(6, 5))
        probs, cache = L.dense_forward(p, x, act="softmax")
        onehot = D.one_hot(rng.integers(0, 4, size=6), 4)
        _, dprobs = cce_loss(probs, onehot)
        dz = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        assert np.abs(dz - (probs - onehot) / 6).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cce_loss(np.zeros((2, 3)), np.zeros((2, 4)))


class TestFocalLoss:
    def test_gamma_zero_equals_cce(self):
        rng = RngStream(2)
        for seed in range(10):
            r = RngStream(seed)
            probs = random_probs(r, 5, 6)
            onehot = D.one_hot(r.integers(0, 6, size=5), 6)
            fl, fg = focal_loss(probs, onehot, gamma=0.0)
            cl, cg = cce_loss(probs, onehot)
            assert abs(fl - cl) < 1e-12
            assert np.abs(fg - cg).max() < 1e-12

    def test_down_weights_confident_predictions(self):
        onehot = D.one_hot(np.array([0]), 2)
        for p_true in (0.9, 0.99, 0.999):
            probs = np.array([[p_true, 1.0 - p_true]])
            fl, _ = focal_loss(probs, onehot, gamma=2.0)
            cl, _ = cce_loss(probs, onehot)
            assert abs(fl / cl - (1.0 - p_true) ** 2) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = RngStream(3)
        probs = random_probs(rng, 4, 5)
        onehot = D.one_hot(rng.integers(0, 5, size=4), 5)
        _, grad = focal_loss(probs, onehot, gamma=2.0)
        fd = finite_diff_grad(lambda p: focal_loss(p, onehot, gamma=2.0)[0], probs)
        assert grad_mismatch(grad, fd) < 1e-6

    def test_alpha_weights(self):
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        onehot = D.one_hot(np.array([0, 1]), 2)
        plain, _ = focal_loss(probs, onehot, gamma=0.0)
        weighted, _ = focal_loss(probs, onehot, gamma=0.0, alpha=np.array([2.0, 2.0]))
        assert abs(weighted - 2.0 * plain) < 1e-12

    def test_saturated_probability_is_finite(self):
        probs = np.array([[1.0, 0.0]])
        onehot = D.one_hot(np.array([0]), 2)
        loss, grad = focal_loss(probs, onehot, gamma=2.0)
        assert loss == 0.0 and np.isfinite(grad).all()

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(np.full((1, 2), 0.5), D.one_hot(np.array([0]), 2), gamma=-1.0)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": RngStream(4).normal(size=(3, 3))}
        before = params["w"].copy()
        state = AdamState.init(params)
        adam_step(params, {"w": np.zeros((3, 3))}, state, 0.1)
        assert np.array_equal(params["w"], before)

    def test_first_step_magnitude_is_lr(self):
        params = {"w": RngStream(5).normal(size=6)}
        before = params["w"].copy()
        state = AdamState.init(params)
        g = np.full(6, 3.3)
        adam_step(params, {"w": g}, state, 1e-3)
        # bias-corrected m/sqrt(v) is sign(g) on the first step
        assert np.abs(np.abs(params["w"] - before) - 1e-3).max() < 1e-9

    def test_quadratic_bowl_convergence(self):
        # f(theta) = ||theta||^2: 200 steps at lr 0.05 land below 1e-3.
        # Momentum overshoot makes the norm non-monotone around coordinate
        # zero crossings, so the decrease is asserted on the envelope.
        params = {"theta": RngStream(6).normal(size=8)}
        state = AdamState.init(params)
        norms = []
        for _ in range(200):
            adam_step(params, {"theta": 2.0 * params["theta"]}, state, 0.05)
            norms.append(float(np.linalg.norm(params["theta"])))
        assert norms[-1] < 1e-3
        assert max(norms[10:]) < norms[0]
        thirds = [min(norms[:67]), min(norms[67:134]), min(norms[134:])]
        assert thirds[0] > thirds[1] > thirds[2]

    def test_misaligned_names_rejected(self):
        params = {"a": np.zeros(2)}
        state = AdamState.init(params)
        with pytest.raises(ValueError, match="name sets"):
            adam_step(params, {"b": np.zeros(2)}, state, 0.1)

    def test_misaligned_shape_rejected(self):
        params = {"a": np.zeros(2)}
        state = AdamState.init(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, {"a": np.zeros(3)}, state, 0.1)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.batch_size == 128
        assert cfg.epochs == 30
        assert cfg.loss == "cce"
        assert cfg.focal_gamma == 2.0

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0},
        {"focal_gamma": -0.5},
        {"loss": "mse"},
        {"epochs": 0},
        {"grad_clip": 0.0},
        {"grad_clip": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


def tiny_sets(seed=0, n=10, c=3, t=6):
    ds = D.synth_generate(c, n, t, 5.0, RngStream(seed))
    return D.stratified_split(ds, 0.8, RngStream(seed + 1))


class TestTrainLoop:
    def test_step_count(self):
        tr, te = tiny_sets(n=5)  # 4 train per class * 3 classes = 12; adjust below
        spec = tiny_bigat_spec()
        # force exactly 10 training samples: batch 4 -> ceil(10/4) = 3 steps
        tr10 = tr.subset(np.arange(10))
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        _, history = train(spec, tr10, te, cfg)
        assert history.total_steps == 3

    def test_bit_identical_history_same_seed(self):
        tr, te = tiny_sets(seed=3)
        spec = tiny_bigat_spec(dropout=0.5)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=9)
        _, h1 = train(spec, tr, te, cfg)
        _, h2 = train(spec, tr, te, cfg)
        assert h1.as_dicts() == h2.as_dicts()

    def test_learns_separable_data(self):
        ds = D.synth_generate(3, 60, 10, 6.0, RngStream(20))
        tr, te = D.stratified_split(ds, 0.8, RngStream(21))
        spec = tiny_bigat_spec(dropout=0.2)
        spec = type(spec)(seq_len=10, n_classes=3, branches=spec.branches, head=spec.head)
        cfg = TrainConfig(epochs=10, batch_size=32, seed=1)
        _, history = train(spec, tr, te, cfg)
        assert history.rows[-1].val_acc >= 0.9
        # window-3 smoothed train loss guards against divergence
        losses = [r.train_loss for r in history.rows]
        smoothed = [np.mean(losses[i:i + 3]) for i in range(len(losses) - 2)]
        assert all(b <= a + 0.01 for a, b in zip(smoothed, smoothed[1:]))

    def test_divergence_reported_with_location(self):
        tr, te = tiny_sets(seed=4)
        spec = tiny_bigat_spec()
        params = build(spec, RngStream(0))
        params["head.2_dense.b"][0] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch 1, batch 1"):
            train(spec, tr, te, cfg, init_params=params)

    def test_non_finite_gradient_named_before_the_update(self, monkeypatch):
        tr, te = tiny_sets(seed=4)
        spec = tiny_bigat_spec()
        params = build(spec, RngStream(0))
        before = {k: v.copy() for k, v in params.items()}
        real_backward = training.backward

        def nan_backward(*args):
            grads = real_backward(*args)
            grads["branch1.2_mha.Wv"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(training, "backward", nan_backward)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0, grad_clip=1.0)
        with pytest.raises(TrainingDivergedError,
                           match=r"gradient of 'branch1\.2_mha\.Wv' at epoch 1, batch 1"):
            train(spec, tr, te, cfg, init_params=params)
        assert all(np.array_equal(params[k], before[k]) for k in params)

    def test_steps_free_their_activations_before_the_next_forward(self):
        spec, b = bigat_spec(20, 6), 32
        rng = RngStream(40)
        codec = D.LabelCodec.fit([str(i) for i in range(6)])

        def epoch_peak(n_batches):
            n = b * n_batches
            ds = D.Dataset(X=rng.normal(size=(n, 20, 1)), y=np.arange(n) % 6, codec=codec)
            empty = ds.subset(np.array([], dtype=int))
            cfg = TrainConfig(epochs=1, batch_size=b, seed=0)
            return traced_peak(lambda: train(spec, ds, empty, cfg))

        assert epoch_peak(3) <= 1.02 * epoch_peak(1)

    def test_empty_training_set_rejected(self):
        tr, te = tiny_sets(seed=5)
        with pytest.raises(ValueError, match="empty"):
            train(tiny_bigat_spec(), tr.subset(np.array([], dtype=int)), te,
                  TrainConfig(epochs=1))

    def test_empty_validation_set_records_zeros(self):
        tr, te = tiny_sets(seed=5)
        spec = tiny_bigat_spec()
        empty = te.subset(np.array([], dtype=int))
        assert batched_probs(build(spec, RngStream(0)), spec, empty.X).shape == (0, 3)
        _, history = train(spec, tr, empty, TrainConfig(epochs=1, batch_size=8))
        assert (history.rows[0].val_loss, history.rows[0].val_acc) == (0.0, 0.0)
        assert np.isfinite(history.rows[0].train_loss)

    def test_seq_len_mismatch_rejected(self):
        tr, te = tiny_sets(seed=6, t=7)
        with pytest.raises(ValueError, match="seq_len"):
            train(tiny_bigat_spec(), tr, te, TrainConfig(epochs=1))

    def test_grad_clip_runs(self):
        tr, te = tiny_sets(seed=7)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0, grad_clip=1.0)
        _, history = train(tiny_bigat_spec(), tr, te, cfg)
        assert np.isfinite(history.rows[-1].train_loss)

    def test_focal_training_runs(self):
        tr, te = tiny_sets(seed=8)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0, loss="focal",
                          focal_alpha=[1.0, 1.0, 1.0])
        _, history = train(tiny_bigat_spec(), tr, te, cfg)
        assert np.isfinite(history.rows[-1].val_loss)


class TestHistoryExport:
    def test_csv_round_trip(self, tmp_path):
        tr, te = tiny_sets(seed=9)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=0)
        _, history = train(tiny_bigat_spec(), tr, te, cfg)
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[1]) == history.rows[0].train_loss  # repr round trip


class TestFullModelGradient:
    def test_tiny_bigat_matches_finite_differences(self):
        worst = check_model_grads(tiny_bigat_spec(), seed=0)
        assert worst < 1e-4
