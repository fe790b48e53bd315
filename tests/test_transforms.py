"""The per-kind transform table and the shared entry checks."""

import math

import numpy as np
import pytest

from equisphere import dh, mw, transforms
from equisphere.samples import (
    GridMismatchError,
    HarmonicCoeffs,
    SphereSignal,
    checked_grid,
    make_grid,
    random_coeffs,
)
from equisphere.tv import tv_norm

KINDS = ["dh", "mw"]
MODULES = {"dh": dh, "mw": mw}


def _by_kind(kind, operation):
    return getattr(MODULES[kind], f"{kind}_{operation}")


@pytest.mark.parametrize("kind", KINDS)
class TestTable:
    def test_matches_kind_functions(self, kind):
        rng = np.random.default_rng(5)
        L = 6
        x = random_coeffs(L, rng)
        sig = transforms.inverse(kind, x)
        assert sig.grid == make_grid(kind, L)
        assert np.array_equal(sig.values, _by_kind(kind, "inverse")(x).values)
        assert np.array_equal(
            transforms.forward(sig).values, _by_kind(kind, "forward")(sig).values
        )
        assert transforms.integrate(sig) == _by_kind(kind, "integrate")(sig)
        assert np.array_equal(
            transforms.row_weights(sig.grid), _by_kind(kind, "weights")(L)
        )

    def test_looks_up_at_call_time(self, kind, monkeypatch):
        calls = []
        original = _by_kind(kind, "forward")

        def spy(signal):
            calls.append(signal)
            return original(signal)

        monkeypatch.setattr(MODULES[kind], f"{kind}_forward", spy)
        g = make_grid(kind, 3)
        transforms.forward(SphereSignal(g, np.ones(g.n_samples)))
        assert len(calls) == 1

    def test_inverse_bandlimit_must_match(self, kind):
        with pytest.raises(GridMismatchError):
            transforms.inverse(kind, HarmonicCoeffs.zeros(4), 3)


@pytest.mark.parametrize("kind", KINDS)
def test_kind_functions_reject_the_other_grid(kind):
    other = "mw" if kind == "dh" else "dh"
    g = make_grid(other, 4)
    sig = SphereSignal(g, np.zeros(g.n_samples))
    for operation in ("forward", "integrate"):
        with pytest.raises(GridMismatchError):
            _by_kind(kind, operation)(sig)


def _bad_signal(kind, bad):
    g = make_grid(kind, 8)
    vals = np.ones(g.n_samples, dtype=complex)
    vals[g.n_samples // 2] = bad
    return SphereSignal(g, vals)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
@pytest.mark.parametrize("kind", KINDS)
class TestNonFinite:
    def test_forward(self, kind, bad):
        with pytest.raises(ValueError, match="non-finite"):
            _by_kind(kind, "forward")(_bad_signal(kind, bad))

    def test_integrate(self, kind, bad):
        with pytest.raises(ValueError, match="non-finite"):
            _by_kind(kind, "integrate")(_bad_signal(kind, bad))

    def test_tv_norm(self, kind, bad):
        with pytest.raises(ValueError, match="non-finite"):
            tv_norm(_bad_signal(kind, bad))

    def test_inverse(self, kind, bad):
        vals = np.ones(64, dtype=complex)
        vals[10] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _by_kind(kind, "inverse")(HarmonicCoeffs(8, vals))

    def test_table_entry_points(self, kind, bad):
        sig = _bad_signal(kind, bad)
        for fn in (transforms.forward, transforms.integrate):
            with pytest.raises(ValueError, match="non-finite"):
                fn(sig)


def test_checked_grid_accepts_any_kind_when_none():
    g = make_grid("mw", 3)
    assert checked_grid(None, SphereSignal(g, np.zeros(g.n_samples))) is g
    assert checked_grid("mw", g) is g
    with pytest.raises(GridMismatchError):
        checked_grid("dh", g)
