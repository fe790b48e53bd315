"""The layout table reproduces the per-kind layout code bit for bit.

The ``*_branch`` oracles are the per-grid-kind forms the package used
before it read its node formulas, pole slot and sample weights off one
table.  L = 1 is included: MW then has a single row, and that row is the
pole.
"""

import numpy as np
import pytest

from equisphere.samples import (
    contract,
    contract_adjoint,
    expand_values,
    make_grid,
    node_angles,
    phi_node,
    phi_nodes,
    sample_count,
    sample_index,
    sample_weights,
    theta_node,
    theta_nodes,
)
from equisphere.transforms import row_weights

import oracles

KINDS = ["dh", "mw"]
BANDLIMITS = [1, 2, 3, 8, 9, 32]

pytestmark = pytest.mark.parametrize("L", BANDLIMITS)


@pytest.mark.parametrize("kind", KINDS)
class TestLayoutMatchesBranches:
    def test_counts_and_pole(self, kind, L):
        g = make_grid(kind, L)
        expect = (2 * L - 1) * 2 * L + 1 if kind == "dh" else (L - 1) * (2 * L - 1) + 1
        assert g.n_samples == sample_count(kind, L) == expect
        assert g.pole_row == oracles.pole_row_branch(g)

    def test_nodes(self, kind, L):
        g = make_grid(kind, L)
        assert np.array_equal(theta_nodes(g), oracles.theta_nodes_branch(g))
        assert np.array_equal(phi_nodes(g), oracles.phi_nodes_branch(g))
        for t in range(g.n_theta):
            assert theta_node(g, t) == oracles.theta_node_branch(g, t)
        for p in range(g.n_phi):
            assert phi_node(g, p) == oracles.phi_node_branch(g, p)

    def test_sample_index(self, kind, L):
        g = make_grid(kind, L)
        got = [sample_index(g, t, p) for t in range(g.n_theta) for p in range(g.n_phi)]
        want = [
            oracles.sample_index_branch(g, t, p)
            for t in range(g.n_theta)
            for p in range(g.n_phi)
        ]
        assert got == want

    def test_node_angles(self, kind, L):
        g = make_grid(kind, L)
        th, ph = node_angles(g)
        th_ref, ph_ref = oracles.node_angles_branch(g)
        assert np.array_equal(th, th_ref)
        assert np.array_equal(ph, ph_ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_expand_contract_and_adjoint(self, kind, L, dtype):
        rng = np.random.default_rng(L)
        g = make_grid(kind, L)
        v = rng.standard_normal(g.n_samples).astype(dtype)
        full = rng.standard_normal((g.n_theta, g.n_phi)).astype(dtype)
        if dtype is np.complex128:
            v = v + 1j * rng.standard_normal(g.n_samples)
            full = full + 1j * rng.standard_normal(full.shape)
        got = expand_values(g, v)
        assert got.dtype == dtype
        assert np.array_equal(got, oracles.expand_values_branch(g, v))
        assert np.array_equal(contract(g, full), oracles.contract_branch(g, full))
        assert np.array_equal(
            contract_adjoint(g, full), oracles.contract_adjoint_branch(g, full)
        )

    def test_tv_spacings(self, kind, L):
        g = make_grid(kind, L)
        assert (g.dtheta, g.dphi) == oracles.tv_spacings_branch(g)

    def test_sample_weights(self, kind, L):
        g = make_grid(kind, L)
        q = row_weights(g)
        assert np.array_equal(sample_weights(g, q), oracles.sample_weights_branch(g, q))
