import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spintraj
from spintraj import (
    CohOrder,
    ControlSet,
    Spin,
    SpinSystem,
    Trajectory,
    build_projector,
    population_series,
    product_basis,
    propagate,
)
from spintraj.cli import main
from spintraj.expressions import parse_state
from spintraj.fileio import read_trajectory, trajectory_cache, write_trajectory, write_waveform
from test_fileio import write_system

ONE_SPIN = SpinSystem((Spin("1H", 2, 150.0),))
ROOT = Path(__file__).resolve().parent.parent

SMALL_CONFIG = """
system:
  spins:
    - {isotope: 1H, multiplicity: 2, offset: 200.0}
seed: 3
problem:
  initial: Lz(0)
  target: Lx(0)
  parametrization: amplitudes
  duration: 2.0e-4
  n_steps: 4
  power_hz: 5000.0
  channels: [1H:x, 1H:y]
  max_iterations: 60
"""


@pytest.fixture
def one_spin_files(tmp_path):
    rng = np.random.default_rng(4)
    controls = ControlSet(
        dt=2e-5, power_hz=4000.0, channels=(("1H", "x"), ("1H", "y")),
        amplitudes=rng.uniform(-1, 1, (2, 30)),
    )
    sys_path = tmp_path / "system.yaml"
    wave_path = tmp_path / "waveform.txt"
    sys_path.write_text(write_system(ONE_SPIN))
    wave_path.write_text(write_waveform(controls))
    return sys_path, wave_path, controls


class TestBasisCommand:
    def test_two_spin_half_table(self, tmp_path, capsys):
        path = tmp_path / "sys.yaml"
        path.write_text(write_system(SpinSystem((Spin("1H", 2), Spin("13C", 2)))))
        assert main(["basis", "--system", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 17  # header + 16 product states
        corr_counts = {k: 0 for k in range(3)}
        for line in lines[1:]:
            corr_counts[int(line.split()[-2])] += 1
        assert corr_counts == {0: 1, 1: 6, 2: 9}


class TestSimulateCommand:
    def test_matches_in_memory_propagation(self, tmp_path, one_spin_files):
        sys_path, wave_path, controls = one_spin_files
        out = tmp_path / "run"
        assert main([
            "simulate", "--system", str(sys_path), "--waveform", str(wave_path),
            "--initial", "Lz(0)", "--out", str(out),
        ]) == 0
        traj = read_trajectory((out / "trajectory.txt").read_text())
        basis = product_basis(ONE_SPIN)
        expected = propagate(ONE_SPIN, controls, parse_state(basis, "Lz(0)"))
        assert np.max(np.abs(traj.states - expected.states)) < 1e-12

    def test_analyze_partition_identity(self, tmp_path, one_spin_files):
        sys_path, wave_path, _ = one_spin_files
        out = tmp_path / "run"
        main(["simulate", "--system", str(sys_path), "--waveform", str(wave_path),
              "--initial", "Lz(0)", "--out", str(out)])
        assert main([
            "analyze", "--trajectory", str(out / "trajectory.txt"),
            "--spec", "coh-orders", "--out", str(out),
        ]) == 0
        rows = (out / "coh_orders.csv").read_text().strip().splitlines()
        assert rows[0] == "time,coh_order_-1,coh_order_0,coh_order_1"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        # unit trace-normalized state: squared populations partition the norm
        assert np.max(np.abs((data[:, 1:] ** 2).sum(axis=1) - 1.0)) < 1e-9

    def test_analyze_matches_library(self, tmp_path, one_spin_files):
        sys_path, wave_path, controls = one_spin_files
        out = tmp_path / "run"
        main(["simulate", "--system", str(sys_path), "--waveform", str(wave_path),
              "--initial", "Lx(0)", "--out", str(out)])
        main(["analyze", "--trajectory", str(out / "trajectory.txt"),
              "--spec", "coh-orders", "--out", str(out)])
        rows = (out / "coh_orders.csv").read_text().strip().splitlines()
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        basis = product_basis(ONE_SPIN)
        traj = propagate(ONE_SPIN, controls, parse_state(basis, "Lx(0)"))
        series = population_series(build_projector(basis, CohOrder(0)), traj)
        assert np.max(np.abs(data[:, 2] - series)) < 1e-11


class TestCompareCommand:
    def test_self_comparison_is_unity(self, tmp_path, one_spin_files):
        sys_path, wave_path, _ = one_spin_files
        out = tmp_path / "run"
        main(["simulate", "--system", str(sys_path), "--waveform", str(wave_path),
              "--initial", "Lz(0)", "--out", str(out)])
        traj = str(out / "trajectory.txt")
        assert main([
            "compare", "--traj-a", traj, "--traj-b", traj,
            "--score", "rsp", "--grouping", "sg", "--out", str(out),
        ]) == 0
        rows = (out / "sg_rsp.csv").read_text().strip().splitlines()
        assert rows[0] == "time,sg_rsp"
        scores = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.max(np.abs(scores - 1.0)) < 1e-9

    def test_ungrouped_rsp_has_two_columns(self, tmp_path, one_spin_files):
        sys_path, wave_path, _ = one_spin_files
        out = tmp_path / "run"
        main(["simulate", "--system", str(sys_path), "--waveform", str(wave_path),
              "--initial", "Lx(0)", "--out", str(out)])
        traj = str(out / "trajectory.txt")
        main(["compare", "--traj-a", traj, "--traj-b", traj,
              "--score", "rsp", "--out", str(out)])
        rows = (out / "rsp.csv").read_text().strip().splitlines()
        assert rows[0] == "time,rsp_re,rsp_abs"


class TestOptimizeCommand:
    def test_small_run_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["optimize", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "waveform.txt").read_text() == (out2 / "waveform.txt").read_text()
        assert (out1 / "trajectory.txt").read_text() == (out2 / "trajectory.txt").read_text()
        report = json.loads((out1 / "report.json").read_text())
        assert report["final_fidelity"] > 0.99
        assert report["seed"] == 3
        assert report["evaluations"] >= report["iterations"] + 1
        import scipy

        assert report["provenance"] == {
            "config_sha256": hashlib.sha256(cfg.read_bytes()).hexdigest(),
            "spintraj": spintraj.__version__, "numpy": np.__version__,
            "scipy": scipy.__version__}

    def test_analysis_specs_match_analyze(self, tmp_path, capsys):
        specs = ["corr-orders", "coh-orders", "local", "involvement"]
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL_CONFIG + f"analysis:\n  specs: [{', '.join(specs)}]\n")
        run, again = tmp_path / "run", tmp_path / "again"
        assert main(["optimize", "--config", str(cfg), "--out", str(run)]) == 0
        for spec in specs:
            assert main(["analyze", "--trajectory", str(run / "trajectory.txt"),
                         "--spec", spec, "--out", str(again)]) == 0
            name = spec.replace("-", "_") + ".csv"
            assert (run / name).read_bytes() == (again / name).read_bytes()


def _python(args, **env):
    """Run the interpreter on src/ in a fresh process with extra environment."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env}, timeout=300)


def _simulated(tmp_path, one_spin_files, initial="Lz(0)") -> Path:
    sys_path, wave_path, _ = one_spin_files
    run = tmp_path / "run"
    assert main(["simulate", "--system", str(sys_path), "--waveform", str(wave_path),
                 "--initial", initial, "--out", str(run)]) == 0
    return run / "trajectory.txt"


def _analyze(path: Path, out: Path, capsys) -> tuple[int, str, bytes | None]:
    """Exit code, stderr and local.csv of `analyze --spec local` on `path`."""
    code = main(["analyze", "--trajectory", str(path), "--spec", "local", "--out", str(out)])
    csv = out / "local.csv"
    return code, capsys.readouterr().err, csv.read_bytes() if csv.exists() else None


def _recache(path: Path, traj):
    """Write a cache that is valid for the file's current bytes."""
    Path(f"{path}.cache").write_bytes(trajectory_cache(path.read_bytes(), traj))


class TestTrajectoryCacheFiles:
    def test_simulate_writes_cache(self, tmp_path, one_spin_files):
        path = _simulated(tmp_path, one_spin_files)
        cache = Path(f"{path}.cache").read_bytes()
        assert cache[:32] == hashlib.sha256(path.read_bytes()).digest()
        assert len(cache) == 32 + 8 * 31 * (1 + 2 * 4)  # 31 points, D = 4

    def test_hit_is_used(self, tmp_path, one_spin_files, capsys):
        # the digest vouches for the text, not for the rows: a cache written for
        # these bytes from other states is taken as is, which shows it is read
        path = _simulated(tmp_path, one_spin_files)
        traj = read_trajectory(path.read_text())
        text_csv = _analyze(path, tmp_path / "a", capsys)[2]
        _recache(path, Trajectory(traj.times, 0.5 * traj.states, traj.basis))
        code, err, cache_csv = _analyze(path, tmp_path / "b", capsys)
        assert code == 0 and not err
        assert cache_csv != text_csv

    def test_edited_text_gives_edited_values(self, tmp_path, one_spin_files, capsys):
        path = _simulated(tmp_path, one_spin_files, initial="Lx(0)")
        before = _analyze(path, tmp_path / "before", capsys)[2]
        lines = path.read_text().splitlines()
        row = lines[-5].split()
        assert row[3].startswith("0.")
        row[3] = "1" + row[3][1:]  # one digit of one coefficient
        lines[-5] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        code, err, stale = _analyze(path, tmp_path / "stale", capsys)
        os.remove(f"{path}.cache")
        assert (code, err) == (0, "")
        assert stale == _analyze(path, tmp_path / "text", capsys)[2] != before

    @pytest.mark.parametrize("damage", ["truncated", "empty", "wrong-digest", "directory"])
    def test_damaged_cache_gives_text_result(self, tmp_path, one_spin_files, capsys, damage):
        path = _simulated(tmp_path, one_spin_files)
        cache = Path(f"{path}.cache")
        good = cache.read_bytes()
        cache.unlink()
        expected = _analyze(path, tmp_path / "text", capsys)
        if damage == "directory":
            cache.mkdir()
        else:
            cache.write_bytes({"truncated": good[:-40], "empty": b"",
                               "wrong-digest": bytes(32) + good[32:]}[damage])
        assert _analyze(path, tmp_path / "damaged", capsys) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize("old, new", [
        ("# label 3 (1,1)", "# label 99 (1,1)"),
        ("# label 3 (1,1)", "# label 3 (1,0)"),
        ("# multiplicities=2", "# multiplicities=3"),
        ("# isotopes=1H", "# isotopes=1H,13C"),
    ])
    def test_header_fault_same_with_valid_cache(self, tmp_path, one_spin_files, capsys,
                                                old, new):
        path = _simulated(tmp_path, one_spin_files)
        traj = read_trajectory(path.read_text())
        path.write_text(path.read_text().replace(old, new))
        os.remove(f"{path}.cache")
        without = _analyze(path, tmp_path / "a", capsys)
        _recache(path, traj)
        assert without[0] == 4 and without[1].startswith("error: ")
        assert _analyze(path, tmp_path / "b", capsys)[:2] == without[:2]

    def test_non_finite_same_with_valid_cache(self, tmp_path, capsys):
        basis = product_basis(ONE_SPIN)
        states = np.ones((3, basis.dim), dtype=complex)
        states[1, 2] = np.nan
        traj = Trajectory(np.arange(3.0), states, basis)
        path = tmp_path / "trajectory.txt"
        path.write_text(write_trajectory(traj))
        without = _analyze(path, tmp_path / "a", capsys)
        _recache(path, traj)
        assert without[0] == 6
        assert _analyze(path, tmp_path / "b", capsys)[:2] == without[:2]

    def test_compare_across_systems_same_with_caches(self, tmp_path, one_spin_files, capsys):
        path_a = _simulated(tmp_path, one_spin_files)
        two = SpinSystem((Spin("1H", 2, 150.0), Spin("13C", 2)))
        path_b = tmp_path / "b.txt"
        traj_b = propagate(two, one_spin_files[2], parse_state(product_basis(two), "Lz(0)"))
        path_b.write_text(write_trajectory(traj_b))
        argv = ["compare", "--traj-a", str(path_a), "--traj-b", str(path_b),
                "--score", "rsp", "--out", str(tmp_path / "cmp")]
        os.remove(f"{path_a}.cache")
        without = main(argv), capsys.readouterr().err
        _recache(path_a, read_trajectory(path_a.read_text()))
        _recache(path_b, traj_b)
        assert without[0] == 4 and "expected basis" in without[1]
        assert (main(argv), capsys.readouterr().err) == without


class TestProcesses:
    def test_import_leaves_scipy_unloaded(self):
        proc = _python(["-c", "import sys, spintraj.cli; print('scipy' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_optimize_identical_at_one_and_two_blas_threads(self, tmp_path):
        cfg = (ROOT / "configs" / "backbone_relay.yaml").read_text()
        (tmp_path / "relay.yaml").write_text(
            cfg.replace("max_iterations: 1000", "max_iterations: 20"))
        (tmp_path / "backbone.yaml").write_text((ROOT / "configs" / "backbone.yaml").read_text())
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = _python(["-m", "spintraj.cli", "optimize", "--config",
                            str(tmp_path / "relay.yaml"), "--out", str(out)],
                           OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("waveform.txt", "trajectory.txt",
                                         "trajectory.txt.cache", "report.json")])
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["basis", "--system", str(tmp_path / "nope.yaml")])
        assert code == 3
        assert "not found" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("spins: 17\n")
        assert main(["basis", "--system", str(path)]) == 4

    def test_domain_error(self, tmp_path, one_spin_files, capsys):
        sys_path, wave_path, _ = one_spin_files
        # channel targets an isotope that is not in the system
        bad = wave_path.read_text().replace("1H:x", "19F:x")
        wave_path.write_text(bad)
        code = main(["simulate", "--system", str(sys_path),
                     "--waveform", str(wave_path), "--initial", "Lz(0)",
                     "--out", str(tmp_path / "run")])
        assert code == 5

    @pytest.mark.parametrize("header, value", [
        ("dt", "abc"), ("power_hz", "1e3kHz"), ("channels", "1H"),
        ("dt", "inf"), ("power_hz", "nan"), ("channels", "1H:z"),
        ("dt", "0"), ("dt", "-1e-5"),
    ])
    def test_malformed_waveform_header(self, tmp_path, one_spin_files, capsys,
                                       header, value):
        sys_path, wave_path, _ = one_spin_files
        lines = wave_path.read_text().splitlines()
        lines = [f"# {header}={value}" if ln.startswith(f"# {header}=") else ln
                 for ln in lines]
        wave_path.write_text("\n".join(lines) + "\n")
        code = main(["simulate", "--system", str(sys_path),
                     "--waveform", str(wave_path), "--initial", "Lz(0)",
                     "--out", str(tmp_path / "run")])
        assert code == 4
        err = capsys.readouterr().err
        assert f"'# {header}='" in err and value in err

    def test_unknown_waveform_header(self, tmp_path, one_spin_files, capsys):
        sys_path, wave_path, _ = one_spin_files
        lines = wave_path.read_text().splitlines()
        wave_path.write_text("\n".join(lines[:2] + ["# power_hx=5"] + lines[2:]) + "\n")
        code = main(["simulate", "--system", str(sys_path),
                     "--waveform", str(wave_path), "--initial", "Lz(0)",
                     "--out", str(tmp_path / "run")])
        assert code == 4
        assert "waveform line 3: '# power_hx='" in capsys.readouterr().err

    @pytest.mark.parametrize("n_steps", ["0", "-3", "2.5"])
    def test_non_positive_n_steps_with_duration(self, tmp_path, capsys, n_steps):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL_CONFIG.replace("n_steps: 4", f"n_steps: {n_steps}"))
        code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 4
        assert "config.problem.n_steps" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, field", [
        ("max_iterations: 60", "max_iterations: many", "config.problem.max_iterations"),
        ("max_iterations: 60", "max_iterations: 2.5", "config.problem.max_iterations"),
        ("seed: 3", "seed: x", "config.seed"),
        ("max_iterations: 60", "max_iterations: 60\n  ensemble: {offsets: [a, b]}",
         "config.problem.ensemble.offsets[0]"),
        ("max_iterations: 60", "max_iterations: 60\n  ensemble: {power_scales: 1.0}",
         "config.problem.ensemble.power_scales"),
        ("max_iterations: 60", "max_iterations: 60\n  fidelity_stop: high",
         "config.problem.fidelity_stop"),
        ("max_iterations: 60", "max_iterations: 60\n  tolerance: .nan",
         "config.problem.tolerance"),
        ("max_iterations: 60", "max_iterations: 60\n  fidelity_stop: .nan",
         "config.problem.fidelity_stop"),
        ("power_hz: 5000.0", "power_hz: .nan", "config.problem.power_hz"),
        # a control with no power can never act
        ("power_hz: 5000.0", "power_hz: 0.0", "config.problem.power_hz"),
        ("power_hz: 5000.0", "power_hz: -5000.0", "config.problem.power_hz"),
        ("duration: 2.0e-4", "duration: .inf", "config.problem.duration"),
        ("max_iterations: 60", "max_iterations: 60\n  ensemble: {power_scales: [.inf]}",
         "config.problem.ensemble.power_scales[0]"),
        ("max_iterations: 60", "max_iterations: 60\n  power_penalty: .inf",
         "config.problem.power_penalty"),
        pytest.param("power_hz: 5000.0", "power_hz: 1" + "0" * 400, "config.problem.power_hz",
                     id="integer-beyond-double-range"),
        ("duration: 2.0e-4", "dt: -2.0e-5", "config.problem.dt"),
        ("duration: 2.0e-4", "duration: 0.0", "config.problem.duration"),
        ("duration: 2.0e-4", "duration: -2.0e-4", "config.problem.duration"),
        # a gradient norm never falls below a negative tolerance, and a fidelity
        # never exceeds 1: neither option could ever take effect
        ("max_iterations: 60", "max_iterations: 60\n  tolerance: -1.0",
         "config.problem.tolerance"),
        ("max_iterations: 60", "max_iterations: 60\n  fidelity_stop: 5.0",
         "config.problem.fidelity_stop"),
    ])
    def test_non_numeric_config_fields(self, tmp_path, capsys, old, new, field):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL_CONFIG.replace(old, new))
        code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 4
        assert field in capsys.readouterr().err

    def test_exponent_without_decimal_point_says_how_to_write_it(self, tmp_path, capsys):
        # YAML 1.1 reads 1e-3 as a string
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL_CONFIG.replace("max_iterations: 60",
                                            "max_iterations: 60\n  tolerance: 1e-3"))
        code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 4
        err = capsys.readouterr().err
        assert "config.problem.tolerance" in err and "1.0e-3" in err

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_text_gets_no_exponent_hint(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL_CONFIG.replace("max_iterations: 60",
                                            f"max_iterations: 60\n  tolerance: {text}"))
        code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 4
        err = capsys.readouterr().err
        assert "config.problem.tolerance: expected a finite number" in err
        assert "1.0e-3" not in err

    def test_power_penalty_with_phases(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL_CONFIG.replace(
            "parametrization: amplitudes", "parametrization: phases\n  power_penalty: 0.1"))
        code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 5
        assert "power_penalty" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, field", [
        ("channels: [1H:x, 1H:y]", "channels: 5", "config.problem.channels"),
        ("channels: [1H:x, 1H:y]", "channels: []", "config.problem.channels"),
        ("seed: 3", "seed: 3\nanalysis: {specs: 5}", "config.analysis.specs"),
        ("seed: 3", "seed: 3\nanalysis: {specs: local}", "config.analysis.specs"),
        ("seed: 3", "seed: 3\nanalysis: {specs: [local, nonsense]}",
         "config.analysis.specs[1]"),
        ("seed: 3", "seed: 3\nmax_iterations: 1", "max_iterations"),
        ("max_iterations: 60", "max_iteration: 1", "max_iteration"),
        ("max_iterations: 60", "max_iterations: 60\n  fidelty_stop: 0.5", "fidelty_stop"),
        ("max_iterations: 60", "max_iterations: 60\n  ensemble: {offset: [1.0]}", "offset"),
        ("seed: 3", "seed: 3\nanalysis: {spec: [local]}", "spec"),
    ])
    def test_config_shapes_and_unknown_keys(self, tmp_path, capsys, old, new, field):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL_CONFIG.replace(old, new))
        code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 4
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("isotope", ["15N", "[1H]"])
    def test_ensemble_isotope_not_in_system(self, tmp_path, capsys, isotope):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL_CONFIG.replace(
            "max_iterations: 60",
            f"max_iterations: 60\n  ensemble: {{offsets: [0.0, 100.0], isotope: {isotope}}}"))
        code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 5
        assert "isotope" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("# label 3 (1,1)", "# label 3"),
        ("# label 3 (1,1)", "# label x (1,1)"),
        ("# label 3 (1,1)", "# label 99 (1,1)"),
        ("# multiplicities=2", "# multiplicities=2,x"),
    ])
    def test_malformed_trajectory_header(self, tmp_path, one_spin_files, capsys, old, new):
        sys_path, wave_path, _ = one_spin_files
        run = tmp_path / "run"
        main(["simulate", "--system", str(sys_path), "--waveform", str(wave_path),
              "--initial", "Lz(0)", "--out", str(run)])
        lines = (run / "trajectory.txt").read_text().splitlines()
        line = lines.index(old)
        lines[line] = new
        (run / "trajectory.txt").write_text("\n".join(lines) + "\n")
        code = main(["analyze", "--trajectory", str(run / "trajectory.txt"),
                     "--spec", "local", "--out", str(run)])
        assert code == 4
        assert f"trajectory line {line + 1}" in capsys.readouterr().err

    def test_non_utf8_trajectory(self, tmp_path, capsys):
        path = tmp_path / "trajectory.txt"
        path.write_bytes(b"\xff\xfe# spintraj trajectory v1\n")
        assert _analyze(path, tmp_path / "run", capsys)[:2] == (
            4, f"error: {path}: not UTF-8 text (byte 0)\n")

    def test_non_utf8_system(self, tmp_path, capsys):
        path = tmp_path / "sys.yaml"
        path.write_bytes(b"\xff\xfespins: []\n")
        assert main(["basis", "--system", str(path)]) == 4
        assert str(path) in capsys.readouterr().err

    def test_directory_as_input(self, tmp_path, capsys):
        assert main(["basis", "--system", str(tmp_path)]) == 3
        assert f"cannot use {tmp_path}: Is a directory" in capsys.readouterr().err

    def test_unreadable_input(self, tmp_path, one_spin_files, capsys, monkeypatch):
        # permission bits do not stop root, so the refusal is raised the way open() raises it
        path = _simulated(tmp_path, one_spin_files)
        read_bytes = Path.read_bytes

        def refuse(self):
            if self == path:
                raise PermissionError(errno.EACCES, "Permission denied", str(self))
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", refuse)
        code, err, _ = _analyze(path, tmp_path / "out", capsys)
        assert code == 3
        assert f"cannot use {path}: Permission denied" in err

    def test_out_names_a_file(self, tmp_path, one_spin_files, capsys):
        path = _simulated(tmp_path, one_spin_files)
        out = tmp_path / "taken"
        out.write_text("")
        code, err, _ = _analyze(path, out, capsys)
        assert code == 3
        assert f"cannot use {out}: Not a directory" in err

    def test_waveform_without_power_still_simulates(self, tmp_path, one_spin_files):
        sys_path, wave_path, _ = one_spin_files
        wave_path.write_text(wave_path.read_text().replace("# power_hz=4000", "# power_hz=0"))
        assert main(["simulate", "--system", str(sys_path), "--waveform", str(wave_path),
                     "--initial", "Lz(0)", "--out", str(tmp_path / "run")]) == 0

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
