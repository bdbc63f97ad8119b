"""Round-trip persistence of trained model weights (nn.serialization)."""

import numpy as np
import pytest

from repro.core.subspace_model import SubspaceEmbeddingNetwork
from repro.nn import load_module


class TestSubspaceNetworkPersistence:
    def test_weights_roundtrip(self, tmp_path):
        net = SubspaceEmbeddingNetwork(in_dim=16, hidden_dims=(24,), out_dim=8,
                                       rng=0)
        H = np.random.default_rng(0).normal(size=(4, 16))
        labels = [0, 1, 2, 1]
        before = net.embed(H, labels)

        path = tmp_path / "subspace.npz"
        np.savez(path, **net.state_dict())

        other = SubspaceEmbeddingNetwork(in_dim=16, hidden_dims=(24,), out_dim=8,
                                         rng=99)
        assert not np.allclose(other.embed(H, labels), before)
        load_module(other, path)
        np.testing.assert_allclose(other.embed(H, labels), before)

    def test_architecture_mismatch_rejected(self, tmp_path):
        net = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, rng=0)
        path = tmp_path / "model.npz"
        np.savez(path, **net.state_dict())
        wrong = SubspaceEmbeddingNetwork(in_dim=16, out_dim=12, rng=0)
        with pytest.raises((KeyError, ValueError)):
            load_module(wrong, path)

    def test_named_parameters_cover_queries(self):
        net = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, num_subspaces=3,
                                       rng=0)
        names = {name for name, _ in net.named_parameters()}
        assert sum(1 for n in names if n.startswith("queries")) == 3
        assert any(n.startswith("mlp") for n in names)
        assert any(n.startswith("skip") for n in names)
