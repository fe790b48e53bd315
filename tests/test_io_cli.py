import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import equisphere
from equisphere.cli import main
from equisphere.fileio import (
    FormatError,
    parse_experiment_config,
    read_coeffs,
    read_experiment_config,
    read_signal,
    write_coeffs,
    write_result_csv,
    write_signal,
)
from equisphere.inpaint import ExperimentCell
from equisphere.samples import (
    GridKind,
    HarmonicCoeffs,
    SphereSignal,
    make_grid,
    random_coeffs,
)


@pytest.fixture
def rng():
    return np.random.default_rng(50)


class TestSignalFiles:
    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("kind", ["dh", "mw"])
    def test_roundtrip_byte_identical(self, tmp_path, rng, binary, kind):
        g = make_grid(kind, 5)
        sig = SphereSignal(
            g, rng.standard_normal(g.n_samples) + 1j * rng.standard_normal(g.n_samples)
        )
        p1 = tmp_path / "a.sig"
        p2 = tmp_path / "b.sig"
        write_signal(p1, sig, binary=binary)
        back, complex_vals = read_signal(p1)
        assert complex_vals
        assert np.array_equal(back.values, sig.values)
        assert back.grid == g
        write_signal(p2, back, binary=binary)
        assert p1.read_bytes() == p2.read_bytes()

    def test_real_payload(self, tmp_path, rng):
        g = make_grid("mw", 4)
        sig = SphereSignal(g, rng.standard_normal(g.n_samples))
        p = tmp_path / "r.sig"
        write_signal(p, sig, complex_vals=False)
        back, complex_vals = read_signal(p)
        assert not complex_vals
        assert np.array_equal(back.values, sig.values)
        assert p.read_text().splitlines()[0].endswith("real")

    def test_truncated_payload_rejected(self, tmp_path, rng):
        g = make_grid("dh", 3)
        sig = SphereSignal(g, rng.standard_normal(g.n_samples))
        p = tmp_path / "t.sig"
        write_signal(p, sig)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(FormatError):
            read_signal(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.sig"
        p.write_text("something-else,1,mw,4,complex\n")
        with pytest.raises(FormatError):
            read_signal(p)
        p.write_text("equisphere-signal,1,gauss,4,complex\n")
        with pytest.raises(FormatError):
            read_signal(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            read_signal(tmp_path / "nope.sig")


class TestNonFinitePayload:
    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_signal_rejected(self, tmp_path, binary, bad):
        g = make_grid("mw", 4)
        vals = np.ones(g.n_samples, dtype=complex)
        vals[5] = bad
        p = tmp_path / "nf.sig"
        write_signal(p, SphereSignal(g, vals), binary=binary)
        with pytest.raises(FormatError, match="non-finite"):
            read_signal(p)

    @pytest.mark.parametrize("binary", [False, True])
    def test_coeffs_rejected(self, tmp_path, binary):
        vals = np.zeros(9, dtype=complex)
        vals[4] = complex(0.0, math.inf)
        p = tmp_path / "nf.coef"
        write_coeffs(p, HarmonicCoeffs(3, vals), binary=binary)
        with pytest.raises(FormatError, match="non-finite"):
            read_coeffs(p)


class TestBinaryPayloadShape:
    # header field offsets of "<8sIIIIIQ28x": value count at byte 28
    @staticmethod
    def _binary_signal(tmp_path):
        g = make_grid("mw", 4)
        p = tmp_path / "s.bin"
        write_signal(p, SphereSignal(g, np.ones(g.n_samples, dtype=complex)), binary=True)
        return p, bytearray(p.read_bytes())

    def test_partial_value_names_path(self, tmp_path):
        p, data = self._binary_signal(tmp_path)
        p.write_bytes(bytes(data) + b"\x00\x00\x00")
        with pytest.raises(FormatError, match="not whole values") as err:
            read_signal(p)
        assert str(p) in str(err.value)
        assert main(["forward", "--in", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_odd_complex_count_names_path(self, tmp_path, capsys):
        p, data = self._binary_signal(tmp_path)
        count = int.from_bytes(data[28:36], "little") - 1
        data[28:36] = count.to_bytes(8, "little")
        p.write_bytes(bytes(data[: 64 + 8 * count]))
        with pytest.raises(FormatError, match="not whole values") as err:
            read_signal(p)
        assert str(p) in str(err.value)
        assert main(["integrate", "--in", str(p)]) == 2
        assert str(p) in capsys.readouterr().err


class TestCoeffFiles:
    @pytest.mark.parametrize("binary", [False, True])
    def test_roundtrip_byte_identical(self, tmp_path, rng, binary):
        hc = random_coeffs(6, rng)
        p1 = tmp_path / "a.coef"
        p2 = tmp_path / "b.coef"
        write_coeffs(p1, hc, binary=binary)
        back = read_coeffs(p1)
        assert back.L == 6
        assert np.array_equal(back.values, hc.values)
        write_coeffs(p2, back, binary=binary)
        assert p1.read_bytes() == p2.read_bytes()

    def test_payload_length_contract(self, tmp_path, rng):
        hc = random_coeffs(3, rng)
        p = tmp_path / "c.coef"
        write_coeffs(p, hc)
        lines = p.read_text().splitlines()
        assert len(lines) == 1 + 9  # header + L^2 rows of re,im
        p.write_text("\n".join(lines + ["1.0,2.0"]) + "\n")
        with pytest.raises(FormatError):
            read_coeffs(p)


class TestExperimentConfig:
    def test_parse_full(self):
        cfg = parse_experiment_config(
            """
            # comment
            L = 16
            kinds = dh, mw
            domains = spatial, harmonic
            ratios = 0.5, 1.0
            trials = 3
            sigma_rel = 0.02
            seed = 7
            max_iter = 1234
            tol = 1e-4
            smoothing = 0.125
            out = sweep.csv
            """
        )
        assert cfg.L == 16
        assert cfg.kinds == (GridKind.DH, GridKind.MW)
        assert cfg.domains == ("spatial", "harmonic")
        assert cfg.ratios == (0.5, 1.0)
        assert cfg.trials == 3
        assert cfg.sigma_rel == 0.02
        assert cfg.seed == 7
        assert cfg.max_iter == 1234
        assert cfg.tol == 1e-4
        assert cfg.smoothing == 0.125
        assert cfg.out == "sweep.csv"
        assert cfg.coeffs is None

    def test_read_resolves_signal_coeffs_next_to_config(self, tmp_path, monkeypatch, rng):
        coeffs = random_coeffs(4, rng)
        conf_dir = tmp_path / "conf"
        conf_dir.mkdir()
        write_coeffs(conf_dir / "sig.coef", coeffs)
        (conf_dir / "run.cfg").write_text("L = 4\nsignal_coeffs = sig.coef\n")
        monkeypatch.chdir(tmp_path)  # the relative path does not exist from here
        cfg = read_experiment_config(conf_dir / "run.cfg")
        assert cfg.coeffs.L == 4
        assert np.array_equal(cfg.coeffs.values, coeffs.values)

    def test_rejects_unknown_domain(self):
        with pytest.raises(FormatError, match="unknown solve domain"):
            parse_experiment_config("domains = spatial, frequency\n")

    def test_rejects_unknown_keys(self):
        with pytest.raises(FormatError):
            parse_experiment_config("frobnicate = 3\n")

    def test_rejects_empty_ratios(self):
        with pytest.raises(FormatError):
            parse_experiment_config("ratios =\n")

    def test_rejects_bad_lines(self):
        with pytest.raises(FormatError):
            parse_experiment_config("just words\n")


class TestResultCsv:
    def test_layout(self, tmp_path):
        rows = [
            ExperimentCell(GridKind.DH, "spatial", 0.5, 12.5, 1.25, 10),
            ExperimentCell(GridKind.MW, "harmonic", 1.0, 20.0, 0.5, 10),
        ]
        p = tmp_path / "res.csv"
        write_result_csv(p, rows)
        lines = p.read_text().splitlines()
        assert lines[0] == "kind,domain,ratio,mean_snr_db,std_snr_db,trials"
        assert lines[1].startswith("dh,spatial,0.5,12.5,")
        assert len(lines) == 3


class TestCli:
    def _write_constant_signal(self, path, kind, L, value=1.0):
        g = make_grid(kind, L)
        write_signal(path, SphereSignal(g, np.full(g.n_samples, value)))
        return g

    def test_forward_constant(self, tmp_path, capsys):
        sig = tmp_path / "c.sig"
        out = tmp_path / "c.coef"
        self._write_constant_signal(sig, "mw", 4)
        assert main(["forward", "--in", str(sig), "--out", str(out)]) == 0
        coeffs = read_coeffs(out)
        assert coeffs.values[0] == pytest.approx(math.sqrt(4 * math.pi), abs=1e-10)

    def test_forward_parse_failure_exit_2(self, tmp_path):
        bad = tmp_path / "bad.sig"
        bad.write_text("equisphere-signal,1,mw,4,complex\n1.0,0.0\n")
        assert main(["forward", "--in", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_inverse_bandlimit_mismatch_exit_3(self, tmp_path, rng):
        cf = tmp_path / "c.coef"
        write_coeffs(cf, random_coeffs(4, rng))
        code = main(
            ["inverse", "--in", str(cf), "--kind", "mw", "-L", "5",
             "--out", str(tmp_path / "s.sig")]
        )
        assert code == 3

    def test_forward_inverse_roundtrip(self, tmp_path, rng):
        g = make_grid("dh", 6)
        from equisphere.dh import dh_inverse

        sig = dh_inverse(random_coeffs(6, rng))
        p = tmp_path / "x.sig"
        write_signal(p, sig)
        cf = tmp_path / "x.coef"
        assert main(["forward", "--in", str(p), "--out", str(cf)]) == 0
        p2 = tmp_path / "y.sig"
        assert main(["inverse", "--in", str(cf), "--kind", "dh", "--out", str(p2)]) == 0
        back, _ = read_signal(p2)
        assert np.abs(back.values - sig.values).max() < 1e-9

    def test_inverse_sample_counts(self, tmp_path, rng):
        cf = tmp_path / "c32.coef"
        write_coeffs(cf, random_coeffs(32, rng))
        for kind, n in (("dh", 4033), ("mw", 1954)):
            out = tmp_path / f"{kind}.sig"
            assert main(["inverse", "--in", str(cf), "--kind", kind, "--out", str(out)]) == 0
            sig, _ = read_signal(out)
            assert sig.grid.n_samples == n

    def test_weights_command(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--kind", "dh", "-L", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,theta,weight"
        t0 = lines[1].split(",")
        t1 = lines[2].split(",")
        assert float(t0[2]) == 0.0
        assert float(t1[1]) == pytest.approx(math.pi / 2)
        assert float(t1[2]) == pytest.approx(2 * math.pi)

    def test_weights_mw_degenerate(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--kind", "mw", "-L", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        q = float(lines[1].split(",")[2])
        n_phi = 1
        assert q * n_phi == pytest.approx(4 * math.pi)

    def test_integrate_command(self, tmp_path, capsys):
        sig = tmp_path / "one.sig"
        self._write_constant_signal(sig, "dh", 3)
        assert main(["integrate", "--in", str(sig)]) == 0
        out = capsys.readouterr().out.strip().split(",")
        assert float(out[0]) == pytest.approx(4 * math.pi, abs=1e-10)

    def test_tv_norm_command(self, tmp_path, capsys):
        sig = tmp_path / "one.sig"
        self._write_constant_signal(sig, "mw", 3)
        assert main(["tv-norm", "--in", str(sig)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_make_signal_roundtrips(self, tmp_path):
        sig = tmp_path / "caps.sig"
        cf = tmp_path / "caps.coef"
        assert main(
            ["make-signal", "--kind", "mw", "-L", "8", "--out", str(sig),
             "--coeffs-out", str(cf)]
        ) == 0
        s, _ = read_signal(sig)
        c = read_coeffs(cf)
        from equisphere.mw import mw_forward

        assert np.abs(mw_forward(s).values - c.values).max() < 1e-9

    def test_experiment_command_deterministic(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "L = 8\nkinds = mw\ndomains = spatial\nratios = 0.5\n"
            "trials = 1\nsigma_rel = 0.01\nseed = 4\nmax_iter = 2500\n"
        )
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert main(["experiment", str(cfg), "--out", str(out1)]) == 0
        assert main(["experiment", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "r1.csv.manifest.json").read_text())
        assert manifest["failures"] == []
        assert "wall_time_s" in manifest

    @pytest.mark.parametrize("sigma_rel", ["0.01", "0.0"])
    def test_experiment_csv_independent_of_blas_threads(self, tmp_path, sigma_rel):
        # the same sweep in processes with one and with two BLAS threads
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "L = 8\nkinds = dh, mw\ndomains = spatial, harmonic\nratios = 0.5, 1.0\n"
            f"trials = 2\nsigma_rel = {sigma_rel}\nseed = 6\nmax_iter = 5000\n"
        )
        src = os.path.dirname(os.path.dirname(equisphere.__file__))
        outs = []
        for threads in (1, min(2, os.cpu_count() or 1)):
            env = dict(os.environ, PYTHONPATH=src)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            out = tmp_path / f"threads{threads}_{len(outs)}.csv"
            done = subprocess.run(
                [sys.executable, "-m", "equisphere.cli", "experiment", str(cfg), "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_experiment_all_cells_failed_exit_4(self, tmp_path):
        # an absurdly small iteration budget makes every solve raise,
        # which the driver records and reports as total failure
        cfg = tmp_path / "hopeless.cfg"
        cfg.write_text(
            "L = 8\nkinds = mw\ndomains = spatial\nratios = 0.5\n"
            "trials = 1\nsigma_rel = 0.01\nseed = 4\nmax_iter = 2\n"
        )
        out = tmp_path / "r.csv"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 4
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert len(manifest["failures"]) == 1

    def test_experiment_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ratios = \n")
        assert main(["experiment", str(cfg)]) == 2

    @pytest.mark.parametrize("line", ["tol = nan", "tol = -1", "max_iter = 0"])
    def test_experiment_bad_solver_setting_exit_2(self, tmp_path, line):
        # rejected while the config is read, before any solve runs
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"L = 8\nkinds = mw\ndomains = spatial\ntrials = 1\n{line}\n")
        assert main(["experiment", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert not (tmp_path / "r.csv").exists()

    def test_experiment_empty_ratio_list_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 8\nratios =\n")
        assert main(["experiment", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "argv", [["make-signal", "--kind", "mw"], ["weights", "--kind", "dh"]]
    )
    def test_oversized_bandlimit_exit_2(self, tmp_path, capsys, argv):
        # both commands pass -L through check_delta_bandlimit before they
        # allocate anything, so this ends at the 1024 limit at once
        argv = [*argv, "-L", "10000000", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [["make-signal", "--kind", "mw", "--coeffs-out", "coef"], ["weights", "--kind", "dh"]],
    )
    def test_bandlimit_above_delta_range_refused_before_work(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a == "coef" else a for a in argv]
        argv = [*argv, "-L", "1025", "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "1024" in captured.err
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        assert peak < 1e6  # an L = 1025 weight table or coefficient set is not built

    @staticmethod
    def _nan_file(tmp_path, kind, binary):
        if kind == "coeffs":
            vals = np.zeros(16, dtype=complex)
            vals[3] = math.nan
            path = tmp_path / "nan.coef"
            write_coeffs(path, HarmonicCoeffs(4, vals), binary=binary)
            return path
        g = make_grid(kind, 8)
        vals = np.ones(g.n_samples, dtype=complex)
        vals[5] = complex(math.nan, 0.0)
        path = tmp_path / "nan.sig"
        write_signal(path, SphereSignal(g, vals), binary=binary)
        return path

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize(
        "command, kind",
        [
            (["forward"], "dh"),
            (["forward"], "mw"),
            (["inverse", "--kind", "mw"], "coeffs"),
            (["integrate"], "dh"),
            (["tv-norm"], "mw"),
        ],
    )
    def test_non_finite_input_exit_2(self, tmp_path, capsys, command, kind, binary):
        infile = self._nan_file(tmp_path, kind, binary)
        argv = [command[0], "--in", str(infile), *command[1:]]
        if command[0] in ("forward", "inverse"):
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "non-finite" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_non_finite_input_process_exit_2(self, tmp_path):
        # the MW forward used to end in an AssertionError traceback
        infile = self._nan_file(tmp_path, "mw", False)
        src = os.path.dirname(os.path.dirname(equisphere.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "equisphere.cli", "forward", "--in", str(infile),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "non-finite" in done.stderr
