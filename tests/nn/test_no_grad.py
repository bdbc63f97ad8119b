"""``no_grad()``: inference without recording the autograd graph."""

import threading

import numpy as np
import pytest

from repro.nn import MLP, Tensor, no_grad, softmax


def _forward(net, x):
    return softmax(net(Tensor(x)), axis=-1).sum(axis=0)


@pytest.fixture
def net():
    return MLP([5, 7, 3], rng=0)


@pytest.fixture
def x():
    return np.random.default_rng(1).normal(size=(4, 5))


class TestNoGrad:
    def test_outputs_float_equal(self, net, x):
        recorded = _forward(net, x)
        with no_grad():
            plain = _forward(net, x)
        assert np.array_equal(recorded.data, plain.data)

    def test_records_no_graph(self, net, x):
        with no_grad():
            out = _forward(net, x)
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward_fn is None
        with pytest.raises(RuntimeError):
            out.sum().backward()
        # Parameters stay trainable leaves.
        assert all(p.requires_grad for p in net.parameters())

    def test_restored_after_exception(self, net, x):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert _forward(net, x).requires_grad

    def test_nested_blocks_restore_outer_state(self, net, x):
        with no_grad():
            with no_grad():
                pass
            assert not _forward(net, x).requires_grad
        assert _forward(net, x).requires_grad

    def test_as_decorator(self, net, x):
        run = no_grad()(lambda: _forward(net, x))
        assert not run().requires_grad
        assert _forward(net, x).requires_grad

    def test_other_threads_still_record(self, net, x):
        inside, recorded = threading.Event(), {}

        def worker():
            inside.wait()
            recorded["out"] = _forward(net, x)

        thread = threading.Thread(target=worker)
        thread.start()
        with no_grad():
            inside.set()
            thread.join()
            assert not _forward(net, x).requires_grad
        assert recorded["out"].requires_grad
        recorded["out"].sum().backward()
        assert net.parameters()[0].grad is not None
