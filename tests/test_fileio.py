import numpy as np
import pytest
import yaml

from spintraj import ControlSet, Spin, SpinSystem, Trajectory, product_basis
from spintraj.errors import FormatError, NumericError
from spintraj.fileio import (
    parse_config,
    parse_system,
    read_trajectory,
    read_waveform,
    write_trajectory,
    write_waveform,
)

def write_system(system: SpinSystem) -> str:
    """The YAML system document of a system, the inverse of parse_system."""
    doc: dict = {
        "spins": [
            {"isotope": s.isotope, "multiplicity": s.multiplicity, "offset": s.offset}
            for s in system.spins
        ]
    }
    if system.couplings:
        doc["couplings"] = [
            {"i": c.i, "j": c.j, "j_hz": c.j_hz, **({"model": c.model} if c.model else {})}
            for c in system.couplings
        ]
    if system.quadrupolar:
        doc["quadrupolar"] = [
            {"spin": q.spin, "omega_q": q.omega_q, "eta": q.eta}
            for q in system.quadrupolar
        ]
    return yaml.safe_dump(doc, sort_keys=False)


MINIMAL_SYSTEM = """
spins:
  - {isotope: 1H, multiplicity: 2, offset: 50.0}
"""

BACKBONE = """
spins:
  - {isotope: 1H, multiplicity: 2, offset: 0.0}
  - {isotope: 13C, multiplicity: 2, offset: 0.0}
  - {isotope: 13C, multiplicity: 2, offset: 11000.0}
couplings:
  - {i: 0, j: 1, j_hz: 140.0, model: weak}
  - {i: 1, j: 2, j_hz: 55.0, model: strong}
"""


class TestParseSystem:
    def test_minimal_document(self):
        system = parse_system(MINIMAL_SYSTEM)
        assert system.n_spins == 1
        assert product_basis(system).dim == 4

    def test_backbone_round_trip(self):
        system = parse_system(BACKBONE)
        assert system.n_spins == 3
        assert len(system.couplings) == 2
        assert parse_system(write_system(system)) == system

    def test_duplicate_coupling_rejected(self):
        text = BACKBONE + "  - {i: 0, j: 1, j_hz: 5.0}\n"
        with pytest.raises(FormatError, match="duplicate coupling"):
            parse_system(text)

    def test_eta_out_of_range(self):
        text = """
spins:
  - {isotope: 14N, multiplicity: 3}
quadrupolar:
  - {spin: 0, omega_q: 1000.0, eta: 1.5}
"""
        with pytest.raises(FormatError, match="eta"):
            parse_system(text)

    def test_missing_field_named(self):
        with pytest.raises(FormatError, match=r"spins\[0\]"):
            parse_system("spins:\n  - {isotope: 1H}\n")

    def test_not_yaml(self):
        with pytest.raises(FormatError):
            parse_system("spins: [}{")


class TestWaveformRoundTrip:
    def test_625_step_round_trip(self):
        rng = np.random.default_rng(0)
        cs = ControlSet(
            dt=1.6e-6, power_hz=15000.0,
            channels=(("1H", "x"), ("1H", "y")),
            amplitudes=rng.uniform(-1, 1, (2, 625)),
        )
        text = write_waveform(cs)
        back = read_waveform(text)
        assert back.dt == cs.dt
        assert back.power_hz == cs.power_hz
        assert back.channels == cs.channels
        assert np.array_equal(back.amplitudes, cs.amplitudes)
        assert write_waveform(back) == text

    def test_empty_body_rejected(self):
        text = "# dt=1e-06\n# power_hz=100\n# channels=1H:x\n"
        with pytest.raises(FormatError, match="n_steps"):
            read_waveform(text)

    def test_row_length_mismatch(self):
        text = "# dt=1e-06\n# power_hz=100\n# channels=1H:x,1H:y\n0.1 0.2\n0.3\n"
        with pytest.raises(FormatError, match="columns"):
            read_waveform(text)

    def test_non_finite_rejected(self):
        text = "# dt=1e-06\n# power_hz=100\n# channels=1H:x\nnan\n"
        with pytest.raises(NumericError):
            read_waveform(text)

    def test_unit_circle_pulse_accepted(self):
        phases = np.linspace(0, 2 * np.pi, 10)
        cs = read_waveform(
            "# dt=1.6e-06\n# power_hz=15000\n# channels=1H:x,1H:y\n"
            + "".join(f"{np.cos(p)} {np.sin(p)}\n" for p in phases)
        )
        assert cs.power_hz == 15000
        assert np.allclose(np.hypot(*cs.amplitudes), 1.0, atol=1e-12)


class TestTrajectoryRoundTrip:
    def make_trajectory(self, n_points, mults=(2,)):
        system = SpinSystem(tuple(Spin("1H" if m == 2 else "14N", m) for m in mults))
        basis = product_basis(system)
        rng = np.random.default_rng(1)
        states = rng.normal(size=(n_points, basis.dim)) + 1j * rng.normal(
            size=(n_points, basis.dim)
        )
        times = 1e-5 * np.arange(n_points)
        return Trajectory(times, states, basis, {"system_hash": "abc"})

    def test_constant_round_trip(self):
        traj = self.make_trajectory(3)
        back = read_trajectory(write_trajectory(traj))
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)
        assert back.provenance["system_hash"] == "abc"

    def test_large_round_trip(self):
        traj = self.make_trajectory(1001, mults=(2, 2, 2))
        back = read_trajectory(write_trajectory(traj))
        assert np.array_equal(back.states, traj.states)

    def test_foreign_basis_rejected(self):
        traj = self.make_trajectory(2)
        text = write_trajectory(traj)
        lines = text.splitlines()
        i1 = next(i for i, ln in enumerate(lines) if ln.startswith("# label 1"))
        i2 = next(i for i, ln in enumerate(lines) if ln.startswith("# label 2"))
        lines[i1] = "# label 1 (1,0)"
        lines[i2] = "# label 2 (1,-1)"
        with pytest.raises(FormatError, match="foreign basis"):
            read_trajectory("\n".join(lines))

    def test_expected_basis_mismatch(self):
        traj = self.make_trajectory(2)
        other = product_basis(SpinSystem((Spin("14N", 3),)))
        with pytest.raises(FormatError):
            read_trajectory(write_trajectory(traj), expected_basis=other)


class TestParseConfig:
    CONFIG = """
system:
  spins:
    - {isotope: 1H, multiplicity: 2, offset: 0.0}
seed: 5
problem:
  initial: Lz(0)
  target: Lx(0)
  parametrization: phases
  duration: 1.0e-3
  n_steps: 10
  power_hz: 15000.0
  channels: [1H:x, 1H:y]
  ensemble:
    offsets: [-100.0, 0.0, 100.0]
    power_scales: [0.9, 1.0, 1.1]
    isotope: 1H
analysis:
  specs: [coh-orders]
"""

    def test_inline_system(self):
        cfg = parse_config(self.CONFIG)
        assert cfg.seed == 5
        assert cfg.dt == pytest.approx(1e-4)
        assert cfg.channels == (("1H", "x"), ("1H", "y"))
        assert cfg.offsets == (-100.0, 0.0, 100.0)
        assert cfg.analysis_specs == ("coh-orders",)

    def test_seed_mandatory(self):
        text = self.CONFIG.replace("seed: 5\n", "")
        with pytest.raises(FormatError, match="seed"):
            parse_config(text)

    def test_system_path_via_loader(self):
        text = self.CONFIG.replace(
            "system:\n  spins:\n    - {isotope: 1H, multiplicity: 2, offset: 0.0}",
            "system: sys.yaml",
        )
        cfg = parse_config(text, system_loader=lambda p: MINIMAL_SYSTEM)
        assert cfg.system.spins[0].offset == 50.0


class TestTextTableBytes:
    """The numpy writers produce the bytes of per-value %-formatting loops,
    kept here as the oracle, on values that include -0.0 and subnormals."""

    SPECIAL = (-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e300, -1.0 / 3.0)

    def values(self, shape, seed):
        rng = np.random.default_rng(seed)
        out = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
        flat = out.reshape(-1)
        flat[: len(self.SPECIAL)] = self.SPECIAL
        return out

    def test_trajectory_rows(self):
        basis = product_basis(SpinSystem((Spin("1H", 2), Spin("14N", 3))))
        states = self.values((7, basis.dim), 1) + 1j * self.values((7, basis.dim), 2)
        times = self.values((7,), 3)
        traj = Trajectory(times, states, basis, {"system_hash": "abc"})
        text = write_trajectory(traj)
        oracle = "".join(
            " ".join(["%.17g" % times[n]]
                     + [f"{'%.17g' % c.real} {'%.17g' % c.imag}" for c in states[n]]) + "\n"
            for n in range(traj.n_points)
        )
        assert text.endswith(oracle)
        assert text[: -len(oracle)].count("\n") == text[: -len(oracle)].count("# ")

    def test_waveform_rows(self):
        amps = self.values((3, 9), 4)
        text = write_waveform(ControlSet(1e-5, 2000.0, (("1H", "x"), ("1H", "y"),
                                                        ("13C", "x")), amps))
        oracle = "".join(" ".join("%.17g" % v for v in amps[:, n]) + "\n"
                         for n in range(amps.shape[1]))
        assert text == "# dt=1.0000000000000001e-05\n# power_hz=2000\n" \
            "# channels=1H:x,1H:y,13C:x\n" + oracle

    def test_csv_rows(self, tmp_path):
        from spintraj.cli import _write_csv

        columns = [self.values((11,), 5), self.values((11,), 6), self.values((11,), 7)]
        _write_csv(tmp_path / "t.csv", ["time", "a", "b"], columns)
        oracle = "time,a,b\n" + "".join(
            ",".join("%.12g" % col[n] for col in columns) + "\n" for n in range(11))
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == oracle
