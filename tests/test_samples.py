import math

import numpy as np
import pytest

from equisphere.samples import (
    GridKind,
    GridMismatchError,
    HarmonicCoeffs,
    SphereSignal,
    contract,
    contract_adjoint,
    expand,
    flat_index,
    make_grid,
    node_angles,
    phi_node,
    phi_nodes,
    sample_count,
    sample_index,
    theta_node,
    theta_nodes,
)


class TestFlatIndex:
    def test_examples(self):
        assert flat_index(0, 0) == 0
        assert flat_index(1, -1) == 1
        assert flat_index(2, 2) == 8

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            flat_index(1, 2)
        with pytest.raises(ValueError):
            flat_index(2, -3)

    def test_bijection_exhaustive(self):
        L = 64
        seen = set()
        for el in range(L):
            for m in range(-el, el + 1):
                seen.add(flat_index(el, m))
        assert seen == set(range(L * L))


class TestSampleCount:
    def test_paper_values(self):
        assert sample_count(GridKind.DH, 32) == 4033
        assert sample_count(GridKind.MW, 32) == 1954
        assert sample_count(GridKind.MW, 1) == 1

    def test_mw_below_half_dh(self):
        for L in range(1, 200):
            n_mw = sample_count(GridKind.MW, L)
            n_dh = sample_count(GridKind.DH, L)
            assert n_mw < n_dh
            assert n_mw < n_dh / 2 + 2
        # ratio tends to one half from below
        assert abs(sample_count(GridKind.MW, 4096) / sample_count(GridKind.DH, 4096) - 0.5) < 1e-3

    def test_grid_descriptor_counts(self):
        for kind in GridKind:
            for L in (1, 2, 5, 33):
                g = make_grid(kind, L)
                per_row = [
                    1 if t == (0 if kind is GridKind.DH else L - 1) else g.n_phi
                    for t in range(g.n_theta)
                ]
                assert sum(per_row) == g.n_samples == sample_count(kind, L)

    def test_rejects_bad_bandlimit(self):
        with pytest.raises(ValueError):
            sample_count(GridKind.DH, 0)
        with pytest.raises(ValueError):
            make_grid("mw", -3)
        with pytest.raises(ValueError):
            make_grid("gauss", 4)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, None, "4", 2.5, 4 + 0j])
    def test_every_bad_bandlimit_is_a_value_error(self, bad):
        # not the OverflowError or TypeError that int() raises for some of them
        with pytest.raises(ValueError, match="band-limit must be a positive integer"):
            make_grid("dh", bad)


class TestNodes:
    def test_dh_nodes(self):
        g = make_grid("dh", 2)
        assert theta_node(g, 1) == pytest.approx(np.pi / 4)
        assert phi_node(g, 3) == pytest.approx(3 * np.pi / 2)

    def test_mw_nodes(self):
        assert theta_node(make_grid("mw", 2), 1) == pytest.approx(np.pi)
        assert theta_node(make_grid("mw", 1), 0) == pytest.approx(np.pi)
        assert phi_node(make_grid("mw", 2), 0) == 0.0
        assert phi_node(make_grid("mw", 3), 4) == pytest.approx(8 * np.pi / 5)

    def test_out_of_range(self):
        g = make_grid("dh", 4)
        with pytest.raises(ValueError):
            theta_node(g, 8)
        with pytest.raises(ValueError):
            phi_node(g, -1)

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    @pytest.mark.parametrize("L", [1, 2, 3, 8, 17])
    def test_strictly_increasing(self, kind, L):
        g = make_grid(kind, L)
        assert np.all(np.diff(theta_nodes(g)) > 0) or g.n_theta == 1
        assert np.all(np.diff(phi_nodes(g)) > 0) or g.n_phi == 1
        assert theta_nodes(g)[0] == theta_node(g, 0)
        assert phi_nodes(g)[-1] == phi_node(g, g.n_phi - 1)


class TestStorageLayout:
    @pytest.mark.parametrize("kind", ["dh", "mw"])
    def test_expand_contract_roundtrip(self, kind):
        rng = np.random.default_rng(0)
        g = make_grid(kind, 5)
        v = rng.standard_normal(g.n_samples) + 1j * rng.standard_normal(g.n_samples)
        sig = SphereSignal(g, v)
        full = expand(sig)
        assert full.shape == (g.n_theta, g.n_phi)
        assert np.array_equal(contract(g, full), v)

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    def test_pole_row_broadcast(self, kind):
        g = make_grid(kind, 4)
        v = np.arange(g.n_samples, dtype=complex)
        full = expand(SphereSignal(g, v))
        pole = 0 if kind == "dh" else g.L - 1
        assert np.all(full[pole] == full[pole, 0])
        for t in range(g.n_theta):
            for p in (0, g.n_phi - 1):
                assert full[t, p] == v[sample_index(g, t, p)]

    @pytest.mark.parametrize("kind", ["dh", "mw"])
    def test_contract_adjoint_dot_identity(self, kind):
        rng = np.random.default_rng(1)
        g = make_grid(kind, 6)
        for _ in range(10):
            v = rng.standard_normal(g.n_samples)
            full = rng.standard_normal((g.n_theta, g.n_phi))
            lhs = np.vdot(expand(SphereSignal(g, v)).real, full)
            rhs = np.vdot(v, contract_adjoint(g, full))
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_node_angles_match_indexing(self):
        g = make_grid("mw", 3)
        th, ph = node_angles(g)
        assert th.shape == (g.n_samples,)
        assert th[-1] == pytest.approx(np.pi)  # stored pole
        assert ph[-1] == 0.0
        assert th[0] == pytest.approx(theta_node(g, 0))

    def test_signal_validation(self):
        g = make_grid("dh", 2)
        with pytest.raises(ValueError):
            SphereSignal(g, np.zeros(g.n_samples + 1))
        with pytest.raises(GridMismatchError):
            contract(g, np.zeros((1, 1)))

    def test_containers_immutable(self):
        g = make_grid("mw", 2)
        sig = SphereSignal(g, np.zeros(g.n_samples))
        with pytest.raises(ValueError):
            sig.values[0] = 1.0
        hc = HarmonicCoeffs.zeros(3)
        with pytest.raises(ValueError):
            hc.values[0] = 1.0

    def test_coeff_accessor(self):
        vals = np.arange(9, dtype=complex)
        hc = HarmonicCoeffs(3, vals)
        assert hc.value(2, -2) == 4
        with pytest.raises(ValueError):
            hc.value(3, 0)
