import json

import numpy as np
import pytest
from scipy.special import logsumexp

from cemlab.bounds import NoiseModel
from cemlab.errors import LabelOutOfRange, NonFinite, ParseError, ShapeMismatch, StaleTape
from cemlab.network import (
    Layer,
    NeuralModule,
    StackedNet,
    backward,
    forward,
    init_network,
    load_network,
    noise_inject,
    predict,
    save_network,
    sgd_step,
    task_loss,
)
from cemlab.numerics import logsumexp_rows
from conftest import central_diff, rel_error


def identity_module(d):
    return NeuralModule(
        layers=[Layer(weights=np.eye(d), bias=np.zeros(d), activation="identity")]
    )


def loss_through(module, x, labels):
    out, _ = forward(module, x)
    loss, _ = task_loss(out, labels)
    return loss


def param_grads_fd(module, x, labels, step=1e-5):
    """Finite-difference gradients for every weight and bias."""
    grads = []
    for li, layer in enumerate(module.layers):
        def loss_with(values, attr, li=li):
            stash = getattr(module.layers[li], attr).copy()
            setattr(module.layers[li], attr, values)
            try:
                return loss_through(module, x, labels)
            finally:
                setattr(module.layers[li], attr, stash)

        gw = central_diff(lambda w: loss_with(w, "weights"), layer.weights, step)
        gb = central_diff(lambda b: loss_with(b, "bias"), layer.bias, step)
        grads.append((gw, gb))
    return grads


class TestForward:
    def test_identity_layer(self, rng):
        m = identity_module(3)
        x = rng.standard_normal((4, 3))
        out, _ = forward(m, x)
        assert np.array_equal(out, x)

    def test_relu_dead_region(self):
        m = NeuralModule(
            layers=[Layer(weights=np.eye(2), bias=np.zeros(2), activation="relu")]
        )
        out, _ = forward(m, np.array([[-1.0, -3.0]]))
        assert np.all(out == 0.0)

    def test_deterministic_across_runs(self):
        x = np.linspace(0, 1, 12).reshape(3, 4)
        outs = []
        for _ in range(2):
            m = init_network([4, 5, 2], ["relu", "identity"], seed=77)
            out, _ = forward(m, x)
            outs.append(out)
        assert np.array_equal(outs[0], outs[1])

    def test_shape_mismatch(self):
        m = identity_module(3)
        with pytest.raises(ShapeMismatch):
            forward(m, np.zeros((2, 4)))


    @pytest.mark.parametrize("stacked", [False, True])
    def test_predict_has_forward_bits(self, rng, stacked):
        dims, acts = [5, 16, 16, 4], ["relu", "identity", "sigmoid"]
        modules = [init_network(dims, acts, seed=s) for s in range(3)]
        x = rng.standard_normal((3, 20, 5)) * 3
        if stacked:
            m = NeuralModule.stack(modules)
        else:
            m, x = modules[0], x[0]
        out, _ = forward(m, x)
        assert predict(m, x).tobytes() == out.tobytes()
        with pytest.raises(ShapeMismatch):
            predict(m, x[..., :4])


class TestNoiseInject:
    def test_zero_std_is_identity(self, rng):
        x = rng.standard_normal((3, 2))
        out = noise_inject(x, NoiseModel(std=0.0, dim=2), seed=1)
        assert np.array_equal(out, x)

    def test_mean_of_perturbation(self):
        noise = NoiseModel(std=0.3, dim=4)
        x = np.zeros((250_000, 4))  # one million draws total
        delta = noise_inject(x, noise, seed=5) - x
        assert abs(delta.mean()) <= 4 * noise.std / 1e3

    def test_variance_of_perturbation(self):
        noise = NoiseModel(std=0.3, dim=4)
        x = np.zeros((250_000, 4))
        delta = noise_inject(x, noise, seed=9)
        assert abs(delta.var() - noise.std**2) <= 0.01 * noise.std**2

    def test_additive_offsets_independent_of_input(self, rng):
        # Identity pass-through: the injected offset is the same whatever
        # the features are, so the Jacobian w.r.t. the features is I.
        noise = NoiseModel(std=0.7, dim=3)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 3))
        off_a = noise_inject(a, noise, seed=3) - a
        off_b = noise_inject(b, noise, seed=3) - b
        assert np.allclose(off_a, off_b, atol=1e-12)


class TestBackward:
    def test_identity_net_at_minimum(self, rng):
        # Squared error to a target equal to the input: zero gradient.
        m = identity_module(3)
        x = rng.standard_normal((5, 3))
        out, tape = forward(m, x)
        grads, in_grad = backward(m, tape, 2.0 * (out - x) / x.size)
        assert np.allclose(grads[0][0], 0.0) and np.allclose(grads[0][1], 0.0)
        assert np.allclose(in_grad, 0.0)

    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(5):
            d = int(rng.integers(2, 9))
            m = init_network([d, 6, 3], ["relu", "identity"], seed=int(rng.integers(1e6)))
            x = rng.standard_normal((7, d))
            labels = rng.integers(0, 3, size=7)
            out, tape = forward(m, x)
            _, grad_logits = task_loss(out, labels)
            grads, _ = backward(m, tape, grad_logits)
            fd = param_grads_fd(m, x, labels)
            for (gw, gb), (fw, fb) in zip(grads, fd):
                worst = max(worst, rel_error(gw, fw), rel_error(gb, fb))
        assert worst <= 1e-4

    def test_linear_net_closed_form(self, rng):
        # Quadratic loss on a linear map: dW = 2/N * (XW^T + b - T)^T X.
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        m = NeuralModule(layers=[Layer(weights=w.copy(), bias=b.copy(),
                                       activation="identity")])
        x = rng.standard_normal((6, 3))
        target = rng.standard_normal((6, 2))
        out, tape = forward(m, x)
        n = x.shape[0]
        grads, _ = backward(m, tape, 2.0 * (out - target) / n)
        resid = x @ w.T + b - target
        assert np.allclose(grads[0][0], 2.0 / n * resid.T @ x, atol=1e-12)
        assert np.allclose(grads[0][1], 2.0 / n * resid.sum(axis=0), atol=1e-12)

    def test_tape_consumed_once(self, rng):
        m = identity_module(2)
        out, tape = forward(m, rng.standard_normal((3, 2)))
        backward(m, tape, np.ones_like(out))
        with pytest.raises(StaleTape):
            backward(m, tape, np.ones_like(out))

    def test_tape_module_mismatch(self, rng):
        m1, m2 = identity_module(2), identity_module(2)
        out, tape = forward(m1, rng.standard_normal((3, 2)))
        with pytest.raises(StaleTape):
            backward(m2, tape, np.ones_like(out))

    def test_composite_encoder_decoder_gradient(self, rng):
        # Encoder -> zero-noise injection -> decoder -> cross-entropy.
        enc = init_network([5, 6, 4], ["relu", "identity"], seed=3)
        dec = init_network([4, 6, 3], ["relu", "identity"], seed=4)
        noise = NoiseModel(std=0.0, dim=4)
        x = rng.standard_normal((8, 5))
        labels = rng.integers(0, 3, size=8)

        feats, tape_e = forward(enc, x)
        z = noise_inject(feats, noise, seed=0)
        logits, tape_d = forward(dec, z)
        _, grad_logits = task_loss(logits, labels)
        dec_grads, g_z = backward(dec, tape_d, grad_logits)
        enc_grads, _ = backward(enc, tape_e, g_z)

        def end_to_end(module, x_):
            feats_, _ = forward(module[0], x_)
            logits_, _ = forward(module[1], noise_inject(feats_, noise, seed=0))
            return task_loss(logits_, labels)[0]

        worst = 0.0
        for module, grads in ((enc, enc_grads), (dec, dec_grads)):
            fd = []
            for li, layer in enumerate(module.layers):
                def loss_w(w, li=li, module=module):
                    stash = module.layers[li].weights.copy()
                    module.layers[li].weights = w
                    try:
                        return end_to_end((enc, dec), x)
                    finally:
                        module.layers[li].weights = stash

                def loss_b(b, li=li, module=module):
                    stash = module.layers[li].bias.copy()
                    module.layers[li].bias = b
                    try:
                        return end_to_end((enc, dec), x)
                    finally:
                        module.layers[li].bias = stash

                fd.append(
                    (central_diff(loss_w, layer.weights), central_diff(loss_b, layer.bias))
                )
            for (gw, gb), (fw, fb) in zip(grads, fd):
                worst = max(worst, rel_error(gw, fw), rel_error(gb, fb))
        assert worst <= 1e-4


    def test_input_gradient_skipped_on_request(self, rng):
        m = init_network([4, 6, 3], ["relu", "sigmoid"], seed=1)
        x = rng.standard_normal((5, 4))
        out, tape = forward(m, x)
        grads, in_grad = backward(m, tape, out - 0.5)
        out, tape = forward(m, x)
        lean, none = backward(m, tape, out - 0.5, input_grad=False)
        assert in_grad.shape == x.shape and none is None
        for (gw, gb), (lw, lb) in zip(grads, lean):
            assert gw.tobytes() == lw.tobytes() and gb.tobytes() == lb.tobytes()


class TestSgdStep:
    def test_zero_lr_keeps_parameters(self, rng):
        m = init_network([3, 2], ["identity"], seed=0)
        grads = [(rng.standard_normal((2, 3)), rng.standard_normal(2))]
        out, _ = sgd_step(m, grads, lr=0.0, momentum=0.9)
        assert np.array_equal(out.layers[0].weights, m.layers[0].weights)

    def test_vanilla_step(self, rng):
        m = init_network([3, 2], ["identity"], seed=0)
        gw, gb = rng.standard_normal((2, 3)), rng.standard_normal(2)
        out, _ = sgd_step(m, [(gw, gb)], lr=0.1, momentum=0.0)
        assert np.allclose(out.layers[0].weights, m.layers[0].weights - 0.1 * gw)
        assert np.allclose(out.layers[0].bias, m.layers[0].bias - 0.1 * gb)

    def test_quadratic_bowl_convergence(self):
        target = np.array([[0.7], [-1.3]])
        m = NeuralModule(
            layers=[Layer(weights=np.zeros((1, 1)), bias=np.zeros(1),
                          activation="identity")]
        )
        x = np.array([[1.0], [-1.0]])
        losses = []
        for _ in range(100):
            out, tape = forward(m, x)
            diff = out - target
            losses.append(float(np.mean(diff * diff)))
            grads, _ = backward(m, tape, 2.0 * diff / diff.size)
            m, _ = sgd_step(m, grads, lr=0.1, momentum=0.0)
        assert all(a >= b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6

    def test_non_finite_rejected(self):
        m = init_network([2, 2], ["identity"], seed=0)
        grads = [(np.full((2, 2), np.inf), np.zeros(2))]
        with pytest.raises(NonFinite):
            sgd_step(m, grads, lr=0.1)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_parameters_whose_sum_overflows(self, sign):
        # Every entry is finite, but their sum is +-inf.
        big = sign * np.finfo(np.float64).max
        m = NeuralModule(layers=[
            Layer(weights=np.full((2, 2), big), bias=np.full(2, big),
                  activation="identity"),
        ])
        zero = [(np.zeros((2, 2)), np.zeros(2))]
        assert np.isinf(m.layers[0].weights.sum())
        out, _ = sgd_step(m, zero, lr=0.1)
        assert np.array_equal(out.layers[0].weights, m.layers[0].weights)
        stacked = NeuralModule.stack([m, m])
        out, _ = sgd_step(stacked, [(np.zeros((2, 2, 2)), np.zeros((2, 1, 2)))], lr=0.1)
        assert np.array_equal(out.layers[0].weights, stacked.layers[0].weights)


def module_bytes(m):
    """Every parameter array of a module, as bytes (so signed zeros
    count)."""
    return [(a.shape, a.tobytes()) for l in m.layers for a in (l.weights, l.bias)]


def reference_step(m, velocity, x, target, lr, momentum):
    """One step of the forward / backward / sgd_step chain on the loss
    whose output gradient is ``pred - target``: the new module and
    velocity."""
    pred, tape = forward(m, x)
    grads, _ = backward(m, tape, pred - target, input_grad=False)
    return sgd_step(m, grads, lr, momentum, velocity)


def stacked_step(net, x, target, lr, momentum):
    """The same step on a StackedNet."""
    pred = net.forward(x)
    np.subtract(pred, target, out=net.out_grad())
    net.backward()
    net.step(lr, momentum)


class TestStackedNet:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_steps_equal_the_reference_chain(self, rng, momentum):
        # Full batches and short ones (down to one row), relu and sigmoid
        # layers, per-run learning rates, and the input gradient.
        refs = [
            init_network([4, 6, 5, 3], ["relu", "relu", "sigmoid"], seed=s)
            for s in range(2)
        ]
        net = StackedNet(refs, rows=7)
        velocities = [None, None]
        lr = np.array([[0.5], [0.1]])
        for rows in (7, 7, 3, 7, 1):
            x = rng.standard_normal((2, rows, 4))
            target = rng.random((2, rows, 3))
            tapes = [forward(m, x[r]) for r, m in enumerate(refs)]
            pred = net.forward(x)
            assert pred.tobytes() == np.stack([out for out, _ in tapes]).tobytes()
            np.subtract(pred, target, out=net.out_grad())
            in_grad = net.backward(input_grad=True)
            net.step(lr, momentum)
            for r, (m, (out, tape)) in enumerate(zip(refs, tapes)):
                grads, ref_in_grad = backward(m, tape, out - target[r])
                assert in_grad[r].tobytes() == ref_in_grad.tobytes()
                refs[r], velocities[r] = sgd_step(
                    m, grads, float(lr[r, 0]), momentum, velocities[r]
                )
                assert module_bytes(net.take(r)) == module_bytes(refs[r])

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("rows", [8, 5], ids=["full-batch", "short-batch"])
    def test_failed_step_raises_as_the_reference(self, rng, momentum, rows):
        # Run 1's learning rate makes it diverge; the stacked step must
        # match the reference chain until run 1's reference step raises,
        # and then raise with its text.
        refs = [init_network([4, 6, 3], ["relu", "identity"], seed=s) for s in range(3)]
        net = StackedNet(refs, rows=8)
        velocities = [None] * 3
        lr = np.array([0.05, 1e6, 0.02])
        x = rng.standard_normal((3, rows, 4))
        target = rng.standard_normal((3, rows, 3))
        for _ in range(20):
            try:
                refs, velocities = zip(*(
                    reference_step(m, v, x[r], target[r], lr[r], momentum)
                    for r, (m, v) in enumerate(zip(refs, velocities))
                ))
            except NonFinite as exc:
                expected = str(exc)
                break
            stacked_step(net, x, target, lr[:, None], momentum)
            assert [module_bytes(net.take(r)) for r in range(3)] == list(
                map(module_bytes, refs)
            )
        else:
            pytest.fail("run 1 never diverged")
        with pytest.raises(NonFinite) as failure:
            stacked_step(net, x, target, lr[:, None], momentum)
        assert str(failure.value) == expected
        assert expected == "parameter update produced a non-finite value"

    def test_steps_reuse_one_parameter_buffer(self, rng):
        net = StackedNet([init_network([4, 6, 3], ["relu", "identity"], seed=0)], rows=8)
        x = rng.standard_normal((1, 8, 4))
        target = rng.standard_normal((1, 8, 3))
        weights = []
        for _ in range(3):
            stacked_step(net, x, target, 0.01, 0.9)
            weights.append(net.module().layers[0].weights)
        assert all(np.shares_memory(weights[0], w) for w in weights[1:])

    def test_negative_lr_rejected(self, rng):
        net = StackedNet([init_network([2, 2], ["identity"], seed=0)], rows=1)
        pred = net.forward(rng.standard_normal((1, 1, 2)))
        net.out_grad()[...] = pred
        net.backward()
        with pytest.raises(ValueError):
            net.step(-0.1, 0.0)


class TestTaskLoss:
    def test_confident_correct_goes_to_zero(self):
        logits = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        loss, _ = task_loss(logits, np.array([0, 1]))
        assert loss < 1e-20

    def test_uniform_logits_max_ignorance(self):
        for n in (2, 5, 10):
            logits = np.zeros((4, n))
            loss, _ = task_loss(logits, np.zeros(4, dtype=int))
            assert loss == pytest.approx(np.log(n), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = task_loss(logits, labels)
        fd = central_diff(lambda z: task_loss(z, labels)[0], logits)
        assert rel_error(grad, fd) <= 1e-5

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 300.0])
    def test_equals_reference_bits(self, rng, scale):
        """Solo and stacked, the loss and gradient are the plain formula's
        bits, and the logits are left as they were."""
        z = scale * rng.standard_normal((3, 16, 5))
        y = rng.integers(0, 5, size=(3, 16))
        z_before = z.copy()
        losses, grads = task_loss(z, y)
        rows = np.arange(16)
        for r in range(3):
            log_z = logsumexp(z[r], axis=1)
            want_loss = np.add.reduce(log_z - z[r, rows, y[r]]) / 16
            want_grad = np.exp(z[r] - log_z[:, None])
            want_grad[rows, y[r]] -= 1.0
            want_grad /= 16
            loss, grad = task_loss(z[r], y[r])
            assert loss == want_loss and losses[r] == want_loss
            assert np.array_equal(grad, want_grad)
            assert np.array_equal(grads[r], want_grad)
            # Logits in Fortran order give the same bits.
            loss, grad = task_loss(np.asfortranarray(z[r]), y[r])
            assert loss == want_loss and np.array_equal(grad, want_grad)
        assert np.array_equal(z, z_before)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            task_loss(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(LabelOutOfRange):
            task_loss(np.zeros((2, 3)), np.array([-1, 0]))



class TestLogsumexpRows:
    """The row-wise logsumexp of the task loss and the entropy oracle must
    give scipy's bits exactly."""

    def check(self, z):
        z = np.asarray(z, dtype=np.float64)
        with np.errstate(all="ignore"):
            expected = logsumexp(z, axis=1)
        assert np.array_equal(logsumexp_rows(z), expected, equal_nan=True)

    def test_random_rows(self, rng):
        for scale in (1e-3, 1.0, 30.0, 300.0):
            for cols in (1, 2, 3, 7, 8, 9, 17):
                self.check(scale * rng.standard_normal((64, cols)))

    def test_tied_maxima(self, rng):
        z = rng.integers(-2, 3, size=(200, 5)).astype(np.float64)
        z[0] = 4.0
        self.check(z)
        self.check(np.zeros((3, 4)))

    def test_non_finite_rows(self):
        inf, nan = np.inf, np.nan
        self.check([
            [inf, 0.0, 1.0],
            [inf, inf, -1.0],
            [-inf, 0.0, 2.0],
            [-inf, -inf, -inf],
            [nan, 0.0, 1.0],
            [nan, inf, -inf],
            [inf, -inf, 0.0],
            [1e308, 1e308, 0.0],
            [-1e308, 1e308, 1e308],
            [710.0, 0.0, -710.0],
        ])

    def test_single_non_finite_row_among_finite(self, rng):
        z = rng.standard_normal((16, 3))
        z[5] = -np.inf
        self.check(z)

    def test_stacked_rows(self, rng):
        z = rng.standard_normal((3, 16, 5))
        z[1, 4] = -np.inf
        z[2, 7, 1] = np.inf
        z[2, 9, 0] = np.nan
        with np.errstate(all="ignore"):
            expected = logsumexp(z, axis=-1)
        assert np.array_equal(logsumexp_rows(z), expected, equal_nan=True)

    # The layouts below put the rows, not the entries of a row, on the fast
    # axis; the row sums must still be added in the contiguous row's order.
    # 16 and 24 columns add one and two more blocks of eight to the lanes,
    # and 129 and 200 take the split above 128 entries.
    LAYOUT_COLUMNS = (1, 3, 8, 9, 16, 17, 24, 129, 200)

    def check_layout(self, z):
        with np.errstate(all="ignore"):
            expected = logsumexp(np.ascontiguousarray(z), axis=-1)
        assert np.array_equal(logsumexp_rows(z), expected, equal_nan=True)

    def rows_with_specials(self, rng, n, cols):
        z = 30.0 * rng.standard_normal((n, cols))
        z[1] = -np.inf
        z[2, 0] = np.inf
        z[3, -1] = np.nan
        z[4, ::2] = 1e308
        z[5] = np.round(z[5] / 30.0)
        return z

    @pytest.mark.parametrize("cols", LAYOUT_COLUMNS)
    def test_fortran_ordered(self, rng, cols):
        z = np.asfortranarray(self.rows_with_specials(rng, 40, cols))
        self.check_layout(z)

    @pytest.mark.parametrize("cols", LAYOUT_COLUMNS)
    def test_transposed_component_major_slice(self, rng, cols):
        # A component-major (k, rows) buffer, as mc_entropy passes it, and
        # a slice of it to fewer rows.
        buf = np.ascontiguousarray(self.rows_with_specials(rng, 50, cols).T)
        self.check_layout(buf.T)
        self.check_layout(buf[:, :37].T)

    @pytest.mark.parametrize("cols", LAYOUT_COLUMNS)
    def test_stacked_with_strided_last_axis(self, rng, cols):
        z = np.stack([self.rows_with_specials(rng, 12, cols) for _ in range(3)])
        self.check_layout(np.ascontiguousarray(z.transpose(2, 0, 1)).transpose(1, 2, 0))
        self.check_layout(z[:, :, ::-1])


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        m = init_network([4, 5, 2], ["relu", "identity"], seed=31)
        path = tmp_path / "net.json"
        save_network(m, path)
        assert list(json.loads(path.read_text())) == ["layers"]
        back = load_network(path)
        assert module_bytes(back) == module_bytes(m)
        assert [l.activation for l in back.layers] == ["relu", "identity"]

    def test_legacy_velocity_entry_ignored(self, tmp_path):
        # Checkpoints once carried the momentum state next to the layers.
        m = init_network([4, 5, 2], ["relu", "identity"], seed=31)
        path = tmp_path / "net.json"
        save_network(m, path)
        doc = json.loads(path.read_text())
        doc["velocity"] = [
            {"weights": [0.5] * l.weights.size, "bias": [0.5] * l.bias.size}
            for l in m.layers
        ]
        path.write_text(json.dumps(doc))
        assert module_bytes(load_network(path)) == module_bytes(m)

    def test_corrupt_checkpoint(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"layers": "nope"}')
        with pytest.raises(ParseError):
            load_network(path)

    @pytest.mark.parametrize("cut", ["bias", "layers"])
    def test_truncated_arrays_refused(self, tmp_path, cut):
        # A one-entry bias once broadcast over its layer, and a file
        # without layers once loaded as a network without layers.
        path = tmp_path / "net.json"
        save_network(init_network([4, 5, 2], ["relu", "identity"], seed=0), path)
        doc = json.loads(path.read_text())
        if cut == "bias":
            doc["layers"][1]["bias"] = doc["layers"][1]["bias"][:1]
        else:
            doc["layers"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_network(path)
