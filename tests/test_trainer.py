"""Network forward, the SGD step and loop, hyperparameters, drift bounds."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

import rf_lab.trainer as trainer_mod
from rf_lab import _sgd_numpy, cli
from rf_lab.features import PREDICT_CELLS, predict_block_rows, row_blocks
from rf_lab.numerics import RandomSource, uniform_ball
from rf_lab.poly_repr import EXP_LIPSCHITZ, SparsePolynomial
from rf_lab.trainer import (
    DESK_SCALE_MAX_R,
    DriftReport,
    TrainTrace,
    TwoLayerNet,
    drift_check,
    finite_difference_check,
    forward,
    hinge_loss,
    kernel_backend,
    margin_filtered_sampler,
    sgd_train,
    guarantee_params,
    xavier_init,
)


class Hyper(NamedTuple):
    """The three values ``sgd_train`` reads, in its argument order."""

    r: int
    eta: float
    steps: int


class DenseTrace(NamedTuple):
    step: np.ndarray
    loss: np.ndarray
    run_avg_loss: np.ndarray
    w_drift: np.ndarray
    u_norm: np.ndarray
    w_norm: np.ndarray


def expand(trace: TrainTrace, start=0, stop=None):
    """Entries start..stop - 1 (default: all) of the dense per-step trace, by
    the expansion rule README states: an entry t that is not a record has
    loss 0 and the norms of the first record at or after t, and every
    entry's running average is the cumulative sum of the recorded losses
    through t over t + 1.  Returns (step, loss, run_avg_loss, w_drift,
    u_norm, w_norm) as arrays."""
    t = np.arange(start, int(trace.steps[-1]) + 1 if stop is None else stop)
    before = np.searchsorted(trace.steps, t)  # records of the steps before t
    through = np.searchsorted(trace.steps, t, side="right")  # and of step t
    loss = np.zeros(len(t))
    hit = through > before
    loss[hit] = trace.loss[before[hit]]
    run_avg = np.concatenate(([0.0], np.cumsum(trace.loss)))[through]
    run_avg /= t + 1
    return DenseTrace(t, loss, run_avg, trace.w_drift[before], trace.u_norm[before], trace.w_norm[before])


ORACLE_ROWS = 1 << 13  # dense entries the drift oracle expands at a time


def dense_drift_check(trace: TrainTrace, eta: float) -> DriftReport:
    """The oracle for ``drift_check``: both inequalities at every entry of the
    dense trace, expanded block by block; minima and maxima over blocks are
    those over the whole trace.  The drift margin of entry 0 is 0 - 0 by
    construction, so the minimum margin is over the entries t >= 1 unless
    the trace has no other."""
    L = EXP_LIPSCHITZ
    eta = float(eta)
    T = int(trace.steps[-1])
    B = max(2.0, float(trace.w_norm[0]), float(trace.u_norm[0]))
    cap_eps = eta * L * B * B
    cap_steps = min(int(B / (2.0 * cap_eps)) if cap_eps > 0 else T, T)
    min_margins, w_max, u_max = [], [], []
    for start in range(0, T + 1, ORACLE_ROWS):
        rows = expand(trace, start, min(start + ORACLE_ROWS, T + 1))
        margins = rows.step.astype(float)
        margins *= eta
        margins *= L
        margins *= B + 1.0
        margins -= rows.w_drift
        min_margins.append(np.min(margins[rows.step >= min(T, 1)]))
        window = rows.step <= cap_steps
        if window.any():
            w_max.append(np.max(rows.w_norm[window]))
            u_max.append(np.max(rows.u_norm[window]))
    min_margin = float(np.min(min_margins))
    max_norm = float(max(np.max(w_max), np.max(u_max)))
    return DriftReport(B, max_norm <= B + 1.0 + 1e-9, min_margin >= -1e-9, min_margin, max_norm)


def assert_same_report(report, oracle):
    """Field for field and bit for bit (repr keeps -0.0 apart from 0.0)."""
    assert repr(dataclasses.astuple(report)) == repr(dataclasses.astuple(oracle))


def ball_sign_sampler(d=2, margin=0.3):
    """Linearly separable stream: y = sign(x_1), filtered to |x_1| >= margin."""

    def sampler(n, gen):
        X = np.empty((0, d))
        while len(X) < n:
            Z = gen.standard_normal((4 * n, d))
            Z /= np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), 1.0)
            X = np.concatenate([X, Z[np.abs(Z[:, 0]) >= margin][: n - len(X)]])
        return X, np.sign(X[:, 0])

    return sampler


def chunk_sizes(T):
    """The row counts ``sgd_train`` asks of its training sampler, in order:
    one per checkpoint chunk of T // N_CHECKPOINTS steps, then 1 for row T."""
    chunk = max(1, T // trainer_mod.N_CHECKPOINTS)
    return [min(chunk, T - done) for done in range(0, T, chunk)] + [1]


def training_rows(sampler, T, gen):
    """Rows 0..T of the training stream, drawn from ``gen`` chunk by chunk as ``sgd_train`` draws them."""
    chunks = [sampler(n, gen) for n in chunk_sizes(T)]
    return np.concatenate([X for X, _ in chunks]), np.concatenate([y for _, y in chunks])


class TestBasics:
    def test_xavier_support_and_norms(self):
        d, r = 7, 40
        net = xavier_init(d, r, RandomSource(1))
        assert np.all(np.abs(net.W) <= 1.0 / math.sqrt(d))
        assert np.linalg.norm(net.U) == 0.0
        assert np.linalg.norm(net.W) <= math.sqrt(r)
        assert np.all(np.linalg.norm(net.W, axis=1) <= 1.0)

    def test_forward_zero_outer_layer(self):
        net = xavier_init(3, 5, RandomSource(2))
        assert forward(net, np.array([0.5, 0.1, -0.2])) == 0.0

    def test_forward_single_neuron(self):
        net = TwoLayerNet(np.array([[0.3, -0.4]]), np.array([2.0]))
        x = np.array([0.5, 0.5])
        assert forward(net, x) == pytest.approx(2.0 * math.exp(0.3 * 0.5 - 0.4 * 0.5))

    def test_forward_linear_in_outer_layer(self):
        net = xavier_init(4, 6, RandomSource(3))
        net.U = RandomSource(4).generator().standard_normal(6)
        x = np.array([0.1, -0.2, 0.3, 0.05])
        doubled = TwoLayerNet(net.W, 2.0 * net.U)
        assert forward(doubled, x) == pytest.approx(2.0 * forward(net, x))

    @pytest.mark.parametrize("r", [7, 1000])
    def test_batch_forward_equals_unblocked_product(self, r, monkeypatch):
        recorded = []

        def recording(n_rows, row_values):
            for start, stop in row_blocks(n_rows, row_values):
                recorded.append((stop - start) * row_values)
                yield start, stop

        monkeypatch.setattr(trainer_mod, "row_blocks", recording)
        net = xavier_init(3, r, RandomSource(5))
        net.U = RandomSource(6).generator().standard_normal(r) / r
        block = predict_block_rows(r)
        for m in (1, block - 1, block, block + 1, 2000):
            x = uniform_ball(3, m, RandomSource(7).derive(m).generator())
            reference = np.exp(x @ net.W.T) @ net.U  # the whole batch as one product
            assert np.array_equal(forward(net, x), reference), m
        assert max(recorded) <= PREDICT_CELLS  # validation never holds n_val x r activations

    def test_hinge_values(self):
        assert hinge_loss(0.0, 1) == 1.0
        assert hinge_loss(2.0, 1) == 0.0
        assert hinge_loss(-1.0, 1) == 2.0
        assert hinge_loss(np.array([0.0, 2.0, -1.0, 0.5]), np.array([1.0, 1.0, 1.0, -1.0])) == 4.5 / 4

    def test_hinge_label_validated(self):
        # the label of row T, which the trace's last hinge loss scores, is checked where it is drawn
        cfg = Hyper(r=5, eta=0.01, steps=1000)
        assert chunk_sizes(1000)[-2:] == [10, 1]

        def zero_last_label(n, gen):
            X, y = ball_sign_sampler()(n, gen)
            if n == 1:
                y[0] = 0.0
            return X, y

        with pytest.raises(ValueError, match=r"labels outside \{-1, \+1\}"):
            sgd_train(2, zero_last_label, *cfg, RandomSource(14), 2000)


def gradients(net, x, y):
    """Hinge-loss subgradients (dW, dU) at one example, in closed form: the oracle for
    the kernel's ``hinge_step``.  Zero where the margin 1 - y N(x) is negative."""
    s = np.exp(net.W @ x)
    if 1.0 - y * float(net.U @ s) < 0.0:
        return np.zeros_like(net.W), np.zeros_like(net.U)
    return (-y * net.U * s)[:, None] * x[None, :], -y * s  # exp' = exp


class TestGradients:
    """``_sgd_numpy.hinge_step`` is the step training runs and the finite-difference
    check reads; each case checks one step of ``run_steps`` against the oracle."""

    @staticmethod
    def one_kernel_step(net, x, y, eta):
        W, U = net.W.copy(), net.U.copy()
        updates = _sgd_numpy.run_steps(W, U, net.W.copy(), x[None, :], np.array([y]), eta, 0, 1)
        return W, U, updates

    def test_satisfied_margin_gives_zero(self):
        net = TwoLayerNet(np.array([[1.0, 0.0]]), np.array([5.0]))
        x = np.array([0.9, 0.0])  # y * N = 5 e^0.9 > 1
        dW, dU = gradients(net, x, 1.0)
        assert np.all(dW == 0.0) and np.all(dU == 0.0)
        W, U, updates = self.one_kernel_step(net, x, 1.0, 1.0)
        assert updates == []
        assert W.tobytes() == net.W.tobytes() and U.tobytes() == net.U.tobytes()

    def test_zero_outer_layer(self):
        net = xavier_init(3, 4, RandomSource(5))
        x = np.array([0.2, -0.1, 0.4])
        dW, dU = gradients(net, x, 1.0)
        assert np.all(dW == 0.0)
        assert np.allclose(dU, -np.exp(net.W @ x))
        W, U, updates = self.one_kernel_step(net, x, 1.0, 1.0)
        assert len(updates) == 1
        assert W.tobytes() == net.W.tobytes() and U.tobytes() == (net.U - dU).tobytes()

    def test_finite_difference_suite(self):
        rng = RandomSource(6)
        gen = rng.generator()
        checked = 0
        while checked < 100:
            d = int(gen.integers(2, 5))
            r = int(gen.integers(1, 8))
            net = xavier_init(d, r, rng.derive(checked))
            net.U = 0.3 * gen.standard_normal(r)
            x = gen.standard_normal(d)
            x /= max(1.0, float(np.linalg.norm(x)))
            y = float(gen.choice((-1.0, 1.0)))
            if abs(1.0 - y * forward(net, x)) <= 1e-3:
                continue
            assert finite_difference_check(net, x, y) < 1e-6
            checked += 1

    @pytest.mark.parametrize("r", [7, 1000])
    def test_kernel_step_is_minus_eta_gradient(self, r):
        gen = np.random.default_rng(r)
        for draw in range(50):
            net = xavier_init(3, r, RandomSource(draw))
            net.U = 0.1 * gen.standard_normal(r)
            x = gen.standard_normal(3)
            x /= max(1.0, float(np.linalg.norm(x)))
            y = -1.0 if forward(net, x) > 0.0 else 1.0  # y N(x) <= 0, so the step updates
            eta = float(gen.uniform(1e-3, 1.0))
            dW, dU = gradients(net, x, y)
            W, U, updates = self.one_kernel_step(net, x, y, eta)
            assert len(updates) == 1
            assert U.tobytes() == (net.U + -eta * dU).tobytes()
            # the kernel forms eta y u_i exp(z_i) x_j in another order than -eta * dW, so
            # W may move by a step a few ulps away; rounded addition is monotone, so W then
            # lies between W_old plus the step 8 ulps down and W_old plus the step 8 ulps up
            step = -eta * dW
            ulps = 8.0 * np.spacing(np.abs(step))
            assert np.all((net.W + (step - ulps) <= W) & (W <= net.W + (step + ulps))), draw

    @pytest.mark.parametrize("r", [7, 1000])
    def test_kernel_step_without_gradient_leaves_net(self, r):
        gen = np.random.default_rng(r)
        for draw in range(20):
            net = xavier_init(3, r, RandomSource(draw))
            net.U = gen.standard_normal(r)
            x = gen.standard_normal(3)
            x /= max(1.0, float(np.linalg.norm(x)))
            y = float(gen.choice((-1.0, 1.0)))
            # y N(x) just above 1: the margin is negative by 1e-12 to 1e-3
            net.U *= (1.0 + 10.0 ** -gen.uniform(3.0, 12.0)) / (y * forward(net, x))
            assert 1.0 - y * forward(net, x) < 0.0
            dW, dU = gradients(net, x, y)
            assert np.all(dW == 0.0) and np.all(dU == 0.0)
            W, U, updates = self.one_kernel_step(net, x, y, 0.5)
            assert updates == []
            assert W.tobytes() == net.W.tobytes() and U.tobytes() == net.U.tobytes()

    def test_wrong_kernel_step_fails_learn_poly(self, tmp_path, capsys, monkeypatch):
        def no_activation_in_w_step(W, U, x, y, eta):
            # the kernel's step with s dropped from the W update
            s = np.exp(W @ x)
            margin = 1.0 - y * float(U @ s)
            if margin >= 0.0:
                W += ((eta * y) * U)[:, None] * x[None, :]
                U += (eta * y) * s
            return margin

        monkeypatch.setattr(_sgd_numpy, "hinge_step", no_activation_in_w_step)
        assert cli.run(["learn-poly", "--steps", "2000", "--r", "50", "--n-val", "200",
                        "--out", str(tmp_path)]) == 2
        assert "VALIDATION FAILURE: gradient finite-difference" in capsys.readouterr().err


class TestSGD:
    def test_zero_learning_rate_keeps_network(self):
        cfg = Hyper(r=10, eta=0.0, steps=50)
        res = sgd_train(2, ball_sign_sampler(), *cfg, RandomSource(7), 2000)
        rows = expand(res.trace)
        assert np.array_equal(res.net.U, np.zeros(10))
        assert np.all(rows.w_drift == 0.0)
        assert np.all(rows.u_norm == 0.0)
        assert np.max(np.abs(rows.w_norm - rows.w_norm[0])) < 1e-12

    def test_separable_stream_converges(self):
        # one exp unit keeps the sign of its u_i, so the smallest separating net has two
        cfg = Hyper(r=2, eta=0.05, steps=20_000)
        res = sgd_train(2, ball_sign_sampler(), *cfg, RandomSource(8), 2000)
        assert expand(res.trace).run_avg_loss[-1] < 0.1
        assert res.best_val_loss < 0.05

    def test_trace_lengths(self):
        cfg = Hyper(r=5, eta=0.01, steps=77)
        res = sgd_train(2, ball_sign_sampler(), *cfg, RandomSource(9), 2000)
        assert res.trace.steps[-1] == 77
        rows = expand(res.trace)
        for arr in rows:
            assert len(arr) == 78
        assert np.array_equal(rows.step, np.arange(78))
        assert np.array_equal(rows.run_avg_loss, np.cumsum(rows.loss) / np.arange(1, 79))

    def test_deterministic_traces(self):
        cfg = Hyper(r=20, eta=0.02, steps=500)
        a = sgd_train(2, ball_sign_sampler(), *cfg, RandomSource(10), 2000)
        b = sgd_train(2, ball_sign_sampler(), *cfg, RandomSource(10), 2000)
        for field in dataclasses.fields(TrainTrace):
            assert np.array_equal(getattr(a.trace, field.name), getattr(b.trace, field.name)), field.name
        assert np.array_equal(a.net.W, b.net.W)
        assert a.val_history == b.val_history

    def test_best_checkpoint_no_worse_than_init(self):
        cfg = Hyper(r=30, eta=0.02, steps=2000)
        res = sgd_train(2, ball_sign_sampler(), *cfg, RandomSource(11), 2000)
        assert res.best_val_loss <= res.val_history[0][1] + 1e-12

    def test_divergence_aborts(self):
        cfg = Hyper(r=10, eta=1e6, steps=5000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite"):
                sgd_train(2, ball_sign_sampler(), *cfg, RandomSource(12), 2000)

    def test_sampler_contract_enforced(self):
        cfg = Hyper(r=5, eta=0.01, steps=10)

        def bad_sampler(n, gen):
            X = 3.0 * gen.standard_normal((n, 2))
            return X, np.sign(X[:, 0])

        with pytest.raises(ValueError, match="unit ball"):
            sgd_train(2, bad_sampler, *cfg, RandomSource(14), 2000)

    # 32,769 rows: 100 checkpoint chunks of 327 steps, one of 68, then row T alone
    @pytest.mark.parametrize("row", [0, 326, 327, 20_000, 32_767, 32_768])
    def test_unit_ball_checked_on_every_row(self, row):
        cfg = Hyper(r=5, eta=0.01, steps=32_768)
        assert chunk_sizes(32_768) == [327] * 100 + [68, 1]
        served = []  # row counts of the training calls so far

        def one_bad_row(n, gen):
            X, y = ball_sign_sampler()(n, gen)
            if n != 2000:  # a training call, not the validation set
                start = sum(served)
                served.append(n)
                if start <= row < start + n:
                    X[row - start] /= np.linalg.norm(X[row - start]) * (1.0 - 1e-6)
            return X, y

        with pytest.raises(ValueError, match="unit ball"):
            sgd_train(2, one_bad_row, *cfg, RandomSource(14), 2000)

    def test_short_stream_is_refused(self, tmp_path, monkeypatch, capsys):
        def one_row_short(n, gen):
            return ball_sign_sampler(d=3)(n - 1, gen)

        def one_label_short(n, gen):
            X, y = ball_sign_sampler(d=3)(n, gen)
            return X, y[:-1]

        # learn-poly's --steps 10000 asks for checkpoint chunks of 100 rows
        for sampler, counts in ((one_row_short, "99 points and 99 labels"),
                                (one_label_short, "100 points and 99 labels")):
            message = f"sampler returned {counts} for 100 rows"
            with pytest.raises(ValueError, match=message):
                sgd_train(3, sampler, *Hyper(r=5, eta=0.01, steps=10_000), RandomSource(14), 2000)
            monkeypatch.setattr(cli, "margin_filtered_sampler", lambda P, margin: sampler)
            out = tmp_path / sampler.__name__
            assert cli.run(["learn-poly", "--steps", "10000", "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_default_run_memory(self):
        # learn-poly at its CLI defaults, then at five times the steps with a narrower net:
        # one bound for both, as the run holds one checkpoint chunk of the stream, the
        # scan and validation buffers and the update records (per-step arrays would
        # take 8 MB per column at a million steps)
        P = SparsePolynomial(3, {(1, 1, 0): 2.0})
        for r, steps in ((1000, 200_000), (100, 1_000_000)):
            cfg = Hyper(r=r, eta=0.01, steps=steps)
            tracemalloc.start()
            try:
                res = sgd_train(3, margin_filtered_sampler(P, 0.3), *cfg, RandomSource(0), 2000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(res.trace.steps) < 1000
            assert peak <= 3 * 2**20, (r, steps)


class TestTheoremParams:
    def test_eta_relation_exact(self):
        _, r, eta, _ = guarantee_params(0.1, 0.1, 3, 2, 1.0)
        assert eta * 8 * r == Fraction(0.1)

    def test_beta_value_for_reference_setting(self):
        beta, r, _, _ = guarantee_params(0.1, 0.1, 3, 2, 1.0)
        assert beta == Fraction(4 * 36**8)  # alpha^k (A/a)^k (12 d)^(2 k^2)
        assert r > DESK_SCALE_MAX_R == 10**8

    def test_beta_monotone_in_d_and_k(self):
        betas = {}
        for d in (2, 3, 4):
            for k in (1, 2, 3):
                betas[d, k] = guarantee_params(0.25, 0.1, d, k, 1.0)[0]
        for d in (2, 3):
            for k in (1, 2, 3):
                assert betas[d + 1, k] > betas[d, k]
        for d in (2, 3, 4):
            for k in (1, 2):
                assert betas[d, k + 1] > betas[d, k]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            guarantee_params(0.0, 0.1, 3, 2, 1.0)
        with pytest.raises(ValueError):
            guarantee_params(0.1, 0.1, 3, 0, 1.0)


class TestDrift:
    def test_zero_eta_trivially_passes(self):
        cfg = Hyper(r=10, eta=0.0, steps=50)
        res = sgd_train(2, ball_sign_sampler(), *cfg, RandomSource(15), 2000)
        report = drift_check(res.trace, cfg.eta)
        assert_same_report(report, dense_drift_check(res.trace, cfg.eta))
        assert report.passed
        assert report.min_drift_margin >= 0.0

    def test_matched_step_size_run_respects_bounds(self):
        # step size eta = eps / (L B^2) with B = max(2, ||W_0||)
        r, eps = 100, 0.5
        probe = xavier_init(3, r, RandomSource(16).derive(0))
        B = max(2.0, float(np.linalg.norm(probe.W)))
        eta = eps / (EXP_LIPSCHITZ * B * B)
        cfg = Hyper(r=r, eta=eta, steps=200)
        res = sgd_train(3, ball_sign_sampler(d=3), *cfg, RandomSource(16), 2000)
        report = drift_check(res.trace, cfg.eta)
        assert_same_report(report, dense_drift_check(res.trace, cfg.eta))
        assert report.passed
        assert report.b_value == pytest.approx(B)

    def test_practical_run_satisfies_drift_bound(self):
        cfg = Hyper(r=120, eta=0.01, steps=3000)
        res = sgd_train(3, ball_sign_sampler(d=3), *cfg, RandomSource(17), 2000)
        report = drift_check(res.trace, cfg.eta)
        assert_same_report(report, dense_drift_check(res.trace, cfg.eta))
        assert report.drift_ok

    def test_passing_run_reports_its_smallest_margin_past_entry_0(self):
        # entry 0's margin is 0 - 0 by construction; a passing run reports the
        # smallest margin over t >= 1, which is positive
        cfg = Hyper(r=120, eta=0.01, steps=3000)
        res = sgd_train(3, ball_sign_sampler(d=3), *cfg, RandomSource(17), 2000)
        report = drift_check(res.trace, cfg.eta)
        oracle = dense_drift_check(res.trace, cfg.eta)
        assert report.passed
        assert report.min_drift_margin == oracle.min_drift_margin > 0.0
        t = np.arange(1, cfg.steps + 1, dtype=float)
        margins = t * cfg.eta * EXP_LIPSCHITZ * (report.b_value + 1.0) - expand(res.trace).w_drift[1:]
        assert report.min_drift_margin == float(np.min(margins))

    def test_trace_of_entry_0_alone_reports_its_margin(self):
        trace = TrainTrace(steps=np.array([0]), loss=np.zeros(1), w_drift=np.zeros(1),
                           u_norm=np.zeros(1), w_norm=np.ones(1))
        report = drift_check(trace, 0.01)
        assert_same_report(report, dense_drift_check(trace, 0.01))
        assert report.min_drift_margin == 0.0 and report.passed

    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_margin_bit_matches_out_of_place_expression(self, scale):
        # a real trace's drift, scaled so the smallest margin over t >= 1 is
        # negative and sits at an interior step rather than at t = 1
        cfg = Hyper(r=120, eta=0.01, steps=16_884)
        res = sgd_train(3, ball_sign_sampler(d=3), *cfg, RandomSource(17), 2000)
        trace = dataclasses.replace(res.trace, w_drift=res.trace.w_drift * scale)
        report = drift_check(trace, cfg.eta)
        assert_same_report(report, dense_drift_check(trace, cfg.eta))
        dense = expand(trace)
        t = np.arange(1, cfg.steps + 1, dtype=float)
        margins = t * cfg.eta * EXP_LIPSCHITZ * (report.b_value + 1.0) - dense.w_drift[1:]
        assert np.argmin(margins) > 0
        assert report.min_drift_margin == float(np.min(margins))
        assert not report.drift_ok
        # the norm-cap window t <= B / (2 eps), eps = eta L B^2
        B = report.b_value
        cap_steps = min(int(B / (2.0 * (cfg.eta * EXP_LIPSCHITZ * B * B))), cfg.steps)
        window = slice(0, cap_steps + 1)
        assert report.max_norm == float(max(np.max(dense.w_norm[window]), np.max(dense.u_norm[window])))

    # Step s updates to a drift of 1e5, far above every other and every
    # t * eta * L * (B + 1), and the next update is at step `after` (T: none).
    # The drift holds at entries s + 1 .. after, so the smallest margin is at
    # s + 1: between two records when after > s + 1, at a record when s + 1
    # updates too.
    @pytest.mark.parametrize("s, after", [(0, 9), (0, 1), (4000, 4017), (4000, 4001), (9990, 10_000)],
                             ids=["first-gap", "first-next", "interior-gap", "interior-next", "last-gap"])
    def test_smallest_margin_found_at_any_record(self, s, after):
        T = 10_000
        cfg = Hyper(r=10, eta=0.01, steps=T)
        gen = np.random.default_rng(s + after)
        others = gen.choice(T, 40, replace=False)
        updates = np.union1d(others[(others < s) | (others > after)], [s, after])
        updates = updates[updates < T]
        drift = np.where(updates == s, 1e5, gen.random(len(updates)))
        k = len(updates) + 1
        trace = TrainTrace(steps=np.append(updates, T), loss=np.zeros(k), w_drift=np.append(0.0, drift),
                           u_norm=np.full(k, 0.5), w_norm=np.full(k, 3.0))
        report = drift_check(trace, cfg.eta)
        assert_same_report(report, dense_drift_check(trace, cfg.eta))
        t = np.arange(T + 1, dtype=float)
        margins = t * cfg.eta * EXP_LIPSCHITZ * (report.b_value + 1.0) - expand(trace).w_drift
        assert np.argmin(margins) == s + 1
        assert report.min_drift_margin == float(np.min(margins))
        assert not report.drift_ok

    def test_tiny_step_size_puts_every_step_in_the_window(self):
        # B / (2 eps) overflows a float: the window holds the whole run
        cfg = Hyper(r=10, eta=1e-320, steps=10)
        trace = TrainTrace(steps=np.array([3, 10]), loss=np.array([0.5, 0.0]), w_drift=np.array([0.0, 0.1]),
                           u_norm=np.array([0.5, 0.7]), w_norm=np.array([3.0, 3.5]))
        report = drift_check(trace, cfg.eta)
        assert report.max_norm == 3.5 and report.norms_ok
        assert not report.drift_ok


class TestMarginSampler:
    def test_contract(self):
        P = SparsePolynomial(3, {(1, 1, 0): 2.0})
        sampler = margin_filtered_sampler(P, 0.3)
        X, y = sampler(500, RandomSource(18).generator())
        assert X.shape == (500, 3) and y.shape == (500,)
        assert np.all(np.linalg.norm(X, axis=1) <= 1.0 + 1e-12)
        assert np.all(np.isin(y, (-1.0, 1.0)))
        assert np.all(np.abs(P.evaluate(X)) >= 0.3)
        assert np.all(np.sign(P.evaluate(X)) == y)

    @pytest.mark.parametrize("margin", [1.0 + 1e-9, 2.0])
    def test_unreachable_margin_raises(self, margin):
        # sup |P| over the ball is 1: no draw can pass, so the sampler stops at its draw cap
        P = SparsePolynomial(3, {(1, 1, 0): 2.0})
        with pytest.raises(ValueError, match=f"margin {margin} accepted 0 of"):
            margin_filtered_sampler(P, margin)(10, RandomSource(18).generator())

    def test_unreachable_margin_stops_after_the_first_empty_draws(self):
        # one checkpoint chunk at learn-poly's default steps: blocks of 2 n draws accept none
        P = SparsePolynomial(3, {(1, 1, 0): 2.0})
        n = chunk_sizes(200_000)[0]
        gen = CountingGenerator(RandomSource(18).generator())
        with pytest.raises(ValueError, match="accepted 0 of 100000 draws"):
            margin_filtered_sampler(P, 2.0)(n, gen)
        assert gen.draws == [2 * n] * 25 and 2 * n == 4000

    # against the whole-block reference: the 64-row block floor, one and two
    # blocks, a low acceptance rate, and learn-poly's default steps
    @pytest.mark.parametrize("margin, n", [(0.3, 1), (0.3, 500), (0.9, 2000), (0.3, 200_001)])
    def test_cap_leaves_reachable_draws_unchanged(self, margin, n):
        P = SparsePolynomial(3, {(1, 1, 0): 2.0})
        reference, sampler = uncapped_margin_sampler(P, margin), margin_filtered_sampler(P, margin)
        X_ref, y_ref = reference(n, RandomSource(18).generator())
        X, y = sampler(n, RandomSource(18).generator())
        assert np.array_equal(X, X_ref) and np.array_equal(y, y_ref)
        # read as sgd_train reads it: checkpoint chunks of T // 100 rows, then row T alone
        X_ref, y_ref = training_rows(reference, n - 1, RandomSource(18).generator())
        X, y = training_rows(sampler, n - 1, RandomSource(18).generator())
        assert len(X) == n
        assert np.array_equal(X, X_ref) and np.array_equal(y, y_ref)

    def test_last_kept_row_inside_a_block(self):
        P = SparsePolynomial(3, {(1, 1, 0): 2.0})
        margin, n = 0.05, 30_000
        # the first block keeps fewer than n rows; the second keeps rows past the n-th, which are dropped
        gen = RandomSource(18).generator()
        block = PREDICT_CELLS // 3
        got = int(np.sum(np.abs(candidate_block(P, block, gen)[1]) >= margin))
        second = np.abs(candidate_block(P, min(block, 2 * (n - got)), gen)[1]) >= margin
        assert got < n < got + second.sum()
        X_ref, y_ref = uncapped_margin_sampler(P, margin)(n, RandomSource(18).generator())
        X, y = margin_filtered_sampler(P, margin)(n, RandomSource(18).generator())
        assert np.array_equal(X, X_ref) and np.array_equal(y, y_ref)

    def test_memory_follows_the_block(self):
        P = SparsePolynomial(3, {(1, 1, 0): 2.0})
        sampler = margin_filtered_sampler(P, 0.3)
        gen = RandomSource(18).generator()  # its first call imports modules
        tracemalloc.start()
        try:
            kept = sum(len(sampler(n, gen)[0]) for n in chunk_sizes(200_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # kept whole, the rows would be 6.1 MiB; sgd_train reads them a 2,000-row chunk at a time
        assert kept == 200_001
        assert peak <= 2 * 2**20


class CountingGenerator:
    """A generator that records the rows of each of its uniform draws (one per point drawn)."""

    def __init__(self, gen):
        self.gen = gen
        self.draws = []

    def standard_normal(self, size=None, out=None):
        return self.gen.standard_normal(size, out=out)

    def random(self, size=None, out=None):
        self.draws.append((size if out is None else out.shape)[0])
        return self.gen.random(size, out=out)


def candidate_block(P, m, gen):
    """m candidate points drawn whole, uniform on the unit ball (their normals,
    then their radii), and P at them."""
    g = gen.standard_normal((m, P.dimension))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g *= gen.random((m, 1)) ** (1.0 / P.dimension)
    return g, P.evaluate(g)


def uncapped_margin_sampler(P, margin):
    """The margin filter without a draw cap: blocks of min(PREDICT_CELLS // d,
    max(2 (n - got), 64)) candidates, each drawn whole, until n points pass."""

    def sampler(n, gen):
        xs = []
        got = 0
        while got < n:
            g, p = candidate_block(P, min(PREDICT_CELLS // P.dimension, max(2 * (n - got), 64)), gen)
            xs.append(g[np.abs(p) >= margin])
            got += len(xs[-1])
        X = np.vstack(xs)[:n]
        return X, np.sign(P.evaluate(X))

    return sampler


def reference_run_steps(W, U, W0, X, Y, eta, loss, drift, unorm, wnorm, start, count):
    """The textbook per-step loop: the exact oracle for ``_sgd_numpy.run_steps``."""
    for t in range(start, start + count):
        x = X[t]
        y = Y[t]
        z = W @ x
        s = np.exp(z)
        n_val = float(U @ s)
        margin = 1.0 - y * n_val
        loss[t] = margin if margin > 0.0 else 0.0
        if margin >= 0.0:
            coef = (eta * y) * (U * np.exp(z))
            W += coef[:, None] * x[None, :]
            U += (eta * y) * s
        drift[t + 1] = np.linalg.norm(W - W0)
        unorm[t + 1] = np.linalg.norm(U)
        wnorm[t + 1] = np.linalg.norm(W)


def run_both(W, U, X, Y, eta, chunks=None):
    """Run the kernel (over ``chunks``, default one call, each on its own rows)
    and the oracle from the same start; return both outcomes as (W, U, loss,
    drift, unorm, wnorm), the kernel's per-step arrays expanded from its
    update records by ``TrainTrace`` (the last loss entry is left 0 in both)."""
    steps = len(X) - 1
    chunks = chunks or [steps]
    assert sum(chunks) == steps
    Wk, Uk, W0 = W.copy(), U.copy(), W.copy()
    records = []
    start = 0
    for count in chunks:
        end = start + count
        updates = _sgd_numpy.run_steps(Wk, Uk, W0, X[start:end], Y[start:end], eta, start, count)
        assert [u[0] for u in updates] == sorted(u[0] for u in updates) and all(
            start <= u[0] < end for u in updates)
        records += updates
        start = end
    rec = np.array(records).reshape(-1, 5)
    trace = TrainTrace(
        steps=np.append(rec[:, 0].astype(np.int64), steps),
        loss=np.append(rec[:, 1], 0.0),
        w_drift=np.append(0.0, rec[:, 2]),
        u_norm=np.append(np.linalg.norm(U), rec[:, 3]),
        w_norm=np.append(np.linalg.norm(W), rec[:, 4]),
    )
    cfg = Hyper(r=len(U), eta=eta, steps=steps)
    assert_same_report(drift_check(trace, cfg.eta), dense_drift_check(trace, cfg.eta))
    rows = expand(trace)
    fast = (Wk, Uk, rows.loss, rows.w_drift, rows.u_norm, rows.w_norm)

    Wr, Ur, W0 = W.copy(), U.copy(), W.copy()
    traces = [np.zeros(steps + 1) for _ in range(4)]
    traces[1][0] = np.linalg.norm(Wr - W0)
    traces[2][0] = np.linalg.norm(Ur)
    traces[3][0] = np.linalg.norm(Wr)
    reference_run_steps(Wr, Ur, W0, X, Y, eta, *traces, 0, steps)
    # the running average, from the records, is the per-step cumulative sum over t + 1
    assert np.array_equal(rows.run_avg_loss, np.cumsum(traces[0]) / np.arange(1, steps + 2))
    return fast, (Wr, Ur, *traces)


def assert_identical(fast, slow):
    for name, a, b in zip(("W", "U", "loss", "drift", "unorm", "wnorm"), fast, slow):
        assert np.array_equal(a, b), f"{name} differs from the per-step oracle"


@pytest.fixture
def scan_spy(monkeypatch):
    """Records [rows scanned, rows cleared, stop in the band] for every scan.

    A scan stops in the band when the row it could not clear has a negative
    exact margin: only tol kept the scan from clearing it.  That row runs as
    an exact step that does not update, and the float32 net is cast again
    only after an update, so the next scan of the same call reads the same
    net object (a stop on the last step of a call is not counted)."""
    calls = []
    nets = []
    original = _sgd_numpy._clear_steps

    def spy(net, X, x_inf, Y, *rest):
        if calls and calls[-1][1] < calls[-1][0] and nets[-1] is net:
            calls[-1][2] = True
        cleared = original(net, X, x_inf, Y, *rest)
        calls.append([len(Y), cleared, False])
        nets.append(net)
        return cleared

    monkeypatch.setattr(_sgd_numpy, "_clear_steps", spy)
    return calls


def stream(n, d, gen, labels="sign"):
    X = gen.standard_normal((n, d))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    if labels == "sign":
        return X, np.where(X[:, 0] >= 0, 1.0, -1.0)
    return X, gen.choice((-1.0, 1.0), size=n)


class TestKernelOracle:
    """The block-scanning kernel is bit-identical to the per-step loop."""

    def test_backend_name(self):
        assert kernel_backend() == kernel_backend("identity") == "numpy"

    def test_converging_stream(self, scan_spy):
        gen = RandomSource(30).generator()
        X, Y = stream(6001, 3, gen)
        W = gen.uniform(-0.5, 0.5, (40, 3))
        fast, slow = run_both(W, np.zeros(40), X, Y, 0.05)
        assert_identical(fast, slow)
        updates = np.count_nonzero(slow[2][:6000])
        cleared = sum(c for _, c, _ in scan_spy)
        assert updates < 600 and cleared > 4000  # sparse in updates, mostly scanned

    def test_every_step_updates(self, scan_spy):
        gen = RandomSource(31).generator()
        X, Y = stream(1501, 3, gen, labels="random")
        W = gen.uniform(-0.5, 0.5, (30, 3))
        fast, slow = run_both(W, np.zeros(30), X, Y, 1e-6)
        assert_identical(fast, slow)
        assert np.all(slow[2][:1500] > 0.0)
        assert scan_spy == []

    def test_ragged_chunks(self, scan_spy):
        gen = RandomSource(33).generator()
        X, Y = stream(3001, 3, gen)
        W = gen.uniform(-0.5, 0.5, (25, 3))
        chunks = [1, 1, 7, 33, 1, 250, 17, 1000, 1, 1689]
        fast, slow = run_both(W, np.zeros(25), X, Y, 0.05, chunks)
        assert_identical(fast, slow)
        assert any(c < n for n, c, _ in scan_spy) and any(c == n for n, c, _ in scan_spy)

    def test_margins_in_float32_tol_band(self, scan_spy):
        """x on N(x) = 1 +- delta with |delta| in [1e-8, 1e-4], so scanned margins
        fall on both sides of 0, inside the float32 rounding band tol guards
        (about 1e-5 here) and outside it."""
        gen = RandomSource(34).generator()
        r, d, n = 8, 2, 1500
        W = gen.uniform(0.8, 1.2, (r, d))
        U = np.full(r, 0.5 / r)  # N(0) = 0.5 and N grows along positive directions
        v = np.abs(gen.standard_normal((n, d)))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        delta = np.sign(gen.standard_normal(n)) * 10.0 ** gen.uniform(-8, -4, n)
        lo, hi = np.zeros(n), np.ones(n)
        for _ in range(80):  # bisect rho with N(rho v) = 1 + delta
            mid = 0.5 * (lo + hi)
            above = np.exp((mid[:, None] * v) @ W.T) @ U > 1.0 + delta
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        X = np.vstack([hi[:, None] * v, np.zeros((1, d))])
        Y = np.ones(n + 1)
        margins = 1.0 - np.exp(X[:n] @ W.T) @ U
        assert 1e-9 < np.min(np.abs(margins)) and np.max(np.abs(margins)) < 2e-4
        assert np.any(margins >= 0.0) and np.any(margins < 0.0)
        fast, slow = run_both(W, U, X, Y, 1e-16)
        assert_identical(fast, slow)
        assert sum(c for _, c, _ in scan_spy) > 0
        assert any(band for _, _, band in scan_spy)

    def test_net_too_wide_for_first_window(self, scan_spy):
        """r > SCAN_CELLS / FIRST_WINDOW: every scan fits the smaller buffer."""
        gen = RandomSource(36).generator()
        r = _sgd_numpy.SCAN_CELLS // _sgd_numpy.FIRST_WINDOW + 3616
        X, Y = stream(401, 1, gen)
        W = gen.uniform(-1.0, 1.0, (r, 1))
        fast, slow = run_both(W, np.zeros(r), X, Y, 1e-4)
        assert_identical(fast, slow)
        rows = _sgd_numpy.SCAN_CELLS // r
        assert scan_spy and max(n for n, _, _ in scan_spy) == rows < _sgd_numpy.FIRST_WINDOW

    def test_count_one_calls(self):
        gen = RandomSource(35).generator()
        X, Y = stream(201, 3, gen)
        W = gen.uniform(-0.5, 0.5, (10, 3))
        fast, slow = run_both(W, np.zeros(10), X, Y, 0.05, [1] * 200)
        assert_identical(fast, slow)

    def test_float32_overflow_clears_nothing(self, scan_spy):
        """Pre-activations in (89, 700): finite in float64, exp overflows in float32."""
        gen = RandomSource(39).generator()
        r, n = 12, 300
        W = np.column_stack([gen.uniform(90.0, 690.0, r), gen.uniform(-1e-3, 1e-3, r)])
        X = np.column_stack([gen.uniform(0.995, 1.0, n + 1), gen.uniform(-0.1, 0.1, n + 1)])
        U = gen.uniform(1e-3, 1.0, r)
        U[0] = 0.0  # 0 * inf is NaN in the scan's GEMV
        Z = X @ W.T
        assert 89.0 < Z.min() and Z.max() < 700.0
        assert np.all(np.isfinite(np.exp(Z) @ U))
        fast, slow = run_both(W, U, X, np.ones(n + 1), 0.05)
        assert_identical(fast, slow)
        assert np.all(slow[2] == 0.0)  # every margin is far below 0: nothing updates
        assert len(scan_spy) > n // 2 and all(c == 0 for _, c, _ in scan_spy)

    def test_large_preactivation_error_clears_nothing(self, scan_spy):
        """Rows (c, -c) with c ~ 1e7 and points with x_1 = x_2 give z = 0 exactly,
        so every margin is 1 - r, far below 0; but max ||w_i||_1 ~ 2e7 makes the
        float32 pre-activation bound e exceed ln(2) / 2, beyond which the bound
        does not hold for exp, and tol, at least 8 e M, exceeds every |n~|: no
        scan clears a row."""
        gen = RandomSource(43).generator()
        r, n = 4, 200
        c = 2.0**23 * np.array([1.0, 1.25, 1.5, 1.75])  # c t is exact in float64 for float32 t
        W = np.column_stack([c, -c])
        t = gen.uniform(0.1, 0.7, n + 1).astype(np.float32).astype(float)
        X = np.column_stack([t, t])
        assert np.all(X @ W.T == 0.0)
        e = _sgd_numpy._gamma(4) * t * np.abs(W).sum(axis=1).max()
        assert np.all(e > math.log(2.0) / 2.0)
        fast, slow = run_both(W, np.full(r, 1.0), X, np.ones(n + 1), 0.05)
        assert_identical(fast, slow)
        assert np.all(slow[2] == 0.0)
        assert len(scan_spy) > n // 2 and all(c == 0 for _, c, _ in scan_spy)

    @pytest.mark.parametrize("n", [2**22, 2**22 + 1, 2**24, 2**25, 2**40])
    def test_gamma_is_inf_from_a_quarter(self, n):
        """n u >= 1/4: at 2^24 the quotient once divided by zero, at 2^25 it read -2."""
        assert _sgd_numpy._gamma(n) == math.inf

    @pytest.mark.parametrize("n", [1, 1000, 2**22 - 1])
    def test_gamma_below_a_quarter_is_at_most_a_third(self, n):
        u = 2.0**-24
        assert _sgd_numpy._gamma(n) == n * u / (1.0 - n * u) <= 1.0 / 3.0

    def test_untrusted_gamma_clears_nothing(self, scan_spy, monkeypatch):
        """With a unit roundoff that puts r u past 1/4, as a net 2^22 wide does in
        float32, gamma_r and so tol are inf or NaN: the stream that
        test_converging_stream mostly scans then runs every step exactly."""
        gen = RandomSource(30).generator()
        X, Y = stream(6001, 3, gen)
        W = gen.uniform(-0.5, 0.5, (40, 3))
        monkeypatch.setattr(_sgd_numpy, "_UNIT_ROUNDOFF", 2.0**-7)  # r u = 40 / 128
        assert _sgd_numpy._gamma(40) == math.inf
        fast, slow = run_both(W, np.zeros(40), X, Y, 0.05)
        assert_identical(fast, slow)
        assert len(scan_spy) > 100 and all(c == 0 for _, c, _ in scan_spy)

    def test_entries_below_float32_normal_range(self, scan_spy):
        """Zeros and values below 2^-126 (float32 subnormals, and smaller ones that
        round to 0) in X, W and U."""
        gen = RandomSource(40).generator()
        tiny = np.array([0.0, 1e-39, -1e-40, 1e-42, 2.0**-149, 1e-46, -1e-300])
        r, d, n = 24, 3, 3001
        X, Y = stream(n, d, gen)
        X[:, 2] = gen.choice(tiny, n)
        X[::5, 1] = gen.choice(tiny, len(X[::5]))
        W = gen.uniform(-0.5, 0.5, (r, d))
        W[:, 2] = gen.choice(tiny, r)
        W[:4] = gen.choice(tiny, (4, d))
        U = np.zeros(r)
        U[:4] = gen.choice(tiny, 4)
        fast, slow = run_both(W, U, X, Y, 0.05)
        assert_identical(fast, slow)
        assert np.count_nonzero(slow[2][:-1]) > 50 and sum(c for _, c, _ in scan_spy) > 1500
        assert np.all(np.abs(fast[0][:, 2]) < 2.0**-126)

    def test_float32_exp2_within_scan_bound(self):
        """The scan's bound assumes NumPy's float32 exp2 errs by at most 8u relatively
        (u = 2^-24), plus 2 * 2^-149 where it returns a subnormal, on the arguments
        it reads, z log2(e) for float32 exp's range of z."""
        gen = RandomSource(41).generator()
        u, tiny = 2.0**-24, 2.0**-149
        z = np.concatenate([np.linspace(-126.0, 127.9, 1_000_001), gen.uniform(-126.0, 127.9, 10**6)])
        z = z.astype(np.float32)
        exact = np.exp2(z.astype(float))
        assert np.all(np.abs(np.exp2(z) - exact) <= 8 * u * exact)
        z = np.linspace(-151.0, -126.0, 100_001).astype(np.float32)  # subnormal results and 0
        exact = np.exp2(z.astype(float))
        assert np.all(np.abs(np.exp2(z) - exact) <= 8 * u * exact + 2 * tiny)

    def test_tol_clears_a_learn_poly_stream(self, scan_spy):
        """Guard against a tol too loose to clear steps: on a stream shaped like
        learn-poly's (exp, r = 1000, d = 3, sign labels, eta = 0.01) only a few
        scans stop in the band; a tol ten times looser stops about 25."""
        gen = RandomSource(42).generator()
        r, n = 1000, 10_000
        X, Y = stream(n + 1, 3, gen)
        W = gen.uniform(-3**-0.5, 3**-0.5, (r, 3))
        fast, slow = run_both(W, np.zeros(r), X, Y, 0.01)
        assert_identical(fast, slow)
        cleared = sum(c for _, c, _ in scan_spy)
        band = sum(b for _, _, b in scan_spy)
        assert cleared > 0.7 * n and band <= 10


class TestValidationReuse:
    def test_matches_recomputing_every_checkpoint(self, monkeypatch):
        # 100 checkpoint chunks of 60 steps: some update the net and some do not
        d, T, n_checkpoints = 2, 6000, trainer_mod.N_CHECKPOINTS
        cfg = Hyper(r=20, eta=0.05, steps=T)
        sampler = ball_sign_sampler()

        # recompute at every checkpoint, with the per-step oracle
        rng = RandomSource(40)
        net = xavier_init(d, cfg.r, rng.derive(0))
        W0 = net.W.copy()
        X, y = training_rows(sampler, T, rng.generator(1))
        X_val, y_val = sampler(2000, rng.generator(2))
        traces = [np.zeros(T + 1) for _ in range(4)]
        history = [(0, hinge_loss(forward(net, X_val), y_val))]
        changed = 0
        chunk = T // n_checkpoints
        for start in range(0, T, chunk):
            before = net.copy()
            reference_run_steps(net.W, net.U, W0, X, y, cfg.eta, *traces, start, chunk)
            changed += not (np.array_equal(net.W, before.W) and np.array_equal(net.U, before.U))
            history.append((start + chunk, hinge_loss(forward(net, X_val), y_val)))
        best = min(range(len(history)), key=lambda i: (history[i][1], i))

        validation_calls = []
        original = trainer_mod.forward

        def counting_forward(net, x):
            validation_calls.append(np.ndim(x) == 2)
            return original(net, x)

        monkeypatch.setattr(trainer_mod, "forward", counting_forward)
        res = sgd_train(d, sampler, *cfg, RandomSource(40), 2000)
        assert res.val_history == history
        assert res.best_step == history[best][0]
        assert 0 < changed < n_checkpoints
        # one validation pass at the start and one per chunk that changed the net,
        # plus the single-point loss of the last example
        assert sum(validation_calls) == 1 + changed
        assert len(validation_calls) == 2 + changed


class TestTraceCsv:
    """learn-poly's trace CSV holds one row per update record; expanded by
    README's rule, it is a dense per-step reference written whole."""

    # checkpoint chunks of 20, 32 and 81 steps: they divide the first run's T,
    # and the other two runs end on a short chunk
    @pytest.mark.parametrize("steps", [2000, 3276, 8192])
    def test_matches_dense_reference(self, tmp_path, steps, capsys):
        T, r, seed = steps, 20, 3
        argv = ["learn-poly", "--steps", str(T), "--r", str(r), "--n-val", "50", "--seed", str(seed)]
        assert cli.run([*argv, "--out", str(tmp_path)]) == 0

        P = SparsePolynomial(3, {(1, 1, 0): 2.0})
        rng = RandomSource(seed)
        net = xavier_init(3, r, rng.derive(0))
        W0 = net.W.copy()
        X, y = training_rows(margin_filtered_sampler(P, 0.3), T, rng.generator(1))
        loss, drift, unorm, wnorm = (np.zeros(T + 1) for _ in range(4))
        wnorm[0] = np.linalg.norm(net.W)
        reference_run_steps(net.W, net.U, W0, X, y, 0.01, loss, drift, unorm, wnorm, 0, T)
        loss[T] = hinge_loss(forward(net, X[T]), y[T])
        header = ("step", "loss", "run_avg_loss", "w_drift", "u_norm", "w_norm")
        reference = tmp_path / "reference.csv"
        cli.write_csv(reference, header, (range(T + 1), loss, np.cumsum(loss) / np.arange(1, T + 2),
                                          drift, unorm, wnorm))

        lines = (tmp_path / "learn-poly" / "learn_poly_trace.csv").read_text().splitlines()
        assert lines[0] == ",".join(header)
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        records = TrainTrace(steps=table[:, 0].astype(np.int64), loss=table[:, 1],
                             w_drift=table[:, 3], u_norm=table[:, 4], w_norm=table[:, 5])
        assert records.steps[-1] == T
        expanded = tmp_path / "expanded.csv"
        cli.write_csv(expanded, header, expand(records))
        assert expanded.read_bytes() == reference.read_bytes()
        # each row is the reference's line at its step; its first five cells are
        # the line of the five-column dense trace learn-poly wrote before w_norm
        dense = reference.read_text().splitlines()
        assert [dense[1 + t] for t in records.steps] == lines[1:]
