"""File formats: spin system documents, waveforms, trajectories, experiment configs.

Formats (all UTF-8 text, frequencies in Hz, times in seconds):

System document (YAML)::

    spins:
      - {isotope: 1H, multiplicity: 2, offset: 0.0}
      - {isotope: 13C, multiplicity: 2, offset: 11000.0}
    couplings:
      - {i: 0, j: 1, j_hz: 140.0, model: weak}   # model optional: weak|strong
    quadrupolar:
      - {spin: 0, omega_q: 10000.0, eta: 0.5}

Waveform (plain text): header lines ``# dt=<s>``, ``# power_hz=<Hz>``,
``# channels=<isotope:axis,...>``, then one whitespace-separated row of
dimensionless amplitude multipliers per time step (columns = channels).

Trajectory (plain text): header with ``dt``, isotopes, multiplicities,
provenance hashes and the basis label table, then one row per time point:
time followed by (re, im) pairs of the Liouville coefficients.

Floats are written with 17 significant digits, so write -> read round trips
are lossless for IEEE doubles.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import yaml

from .engine import ControlSet, Trajectory
from .errors import DomainError, FormatError, NumericError
from .system import Coupling, Quadrupole, Spin, SpinSystem
from .tensors import ProductBasis, product_basis

__all__ = [
    "parse_system",
    "write_system",
    "read_waveform",
    "write_waveform",
    "read_trajectory",
    "write_trajectory",
    "ExperimentConfig",
    "parse_config",
]

_FMT = "%.17g"


def _require(cond: bool, where: str, what: str):
    if not cond:
        raise FormatError(f"{where}: {what}")


def _num(value, where: str) -> float:
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            pass
        else:  # YAML 1.1 reads exponents without a decimal point, like 1e-3, as text
            raise FormatError(f"{where}: expected a number, got the string {value!r}; "
                              "YAML reads 1e-3 as text, write it as 1.0e-3")
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             where, f"expected a number, got {value!r}")
    return float(value)


def _int(value, where: str, minimum: int) -> int:
    number = _num(value, where)
    _require(number.is_integer() and number >= minimum, where,
             f"expected an integer >= {minimum}, got {value!r}")
    return int(number)


def _nums(value, where: str) -> tuple[float, ...]:
    _require(isinstance(value, list), where, f"expected a list of numbers, got {value!r}")
    return tuple(_num(v, f"{where}[{k}]") for k, v in enumerate(value))


def parse_system(text: str) -> SpinSystem:
    """Parse a YAML spin system document with field-precise error messages."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise FormatError(f"system document is not valid YAML: {exc}") from None
    _require(isinstance(doc, dict), "system", "top level must be a mapping")
    unknown = set(doc) - {"spins", "couplings", "quadrupolar"}
    _require(not unknown, "system", f"unknown keys {sorted(unknown)}")
    raw_spins = doc.get("spins")
    _require(isinstance(raw_spins, list) and raw_spins, "spins", "must be a non-empty list")
    spins = []
    for idx, entry in enumerate(raw_spins):
        where = f"spins[{idx}]"
        _require(isinstance(entry, dict), where, "must be a mapping")
        _require("isotope" in entry, where, "missing isotope")
        _require("multiplicity" in entry, where, "missing multiplicity")
        mult = entry["multiplicity"]
        _require(isinstance(mult, int) and not isinstance(mult, bool),
                 f"{where}.multiplicity", f"expected an integer, got {mult!r}")
        spins.append(
            Spin(
                isotope=str(entry["isotope"]),
                multiplicity=mult,
                offset=_num(entry.get("offset", 0.0), f"{where}.offset"),
            )
        )
    couplings = []
    for idx, entry in enumerate(doc.get("couplings") or []):
        where = f"couplings[{idx}]"
        _require(isinstance(entry, dict), where, "must be a mapping")
        for key in ("i", "j", "j_hz"):
            _require(key in entry, where, f"missing {key}")
        model = entry.get("model")
        _require(model in (None, "weak", "strong"), f"{where}.model",
                 f"must be weak or strong, got {model!r}")
        try:
            couplings.append(
                Coupling(
                    i=_int(entry["i"], f"{where}.i", 0),
                    j=_int(entry["j"], f"{where}.j", 0),
                    j_hz=_num(entry["j_hz"], f"{where}.j_hz"),
                    model=model,
                )
            )
        except DomainError as exc:
            raise FormatError(f"{where}: {exc}") from None
    quads = []
    for idx, entry in enumerate(doc.get("quadrupolar") or []):
        where = f"quadrupolar[{idx}]"
        _require(isinstance(entry, dict), where, "must be a mapping")
        for key in ("spin", "omega_q"):
            _require(key in entry, where, f"missing {key}")
        try:
            quads.append(
                Quadrupole(
                    spin=_int(entry["spin"], f"{where}.spin", 0),
                    omega_q=_num(entry["omega_q"], f"{where}.omega_q"),
                    eta=_num(entry.get("eta", 0.0), f"{where}.eta"),
                )
            )
        except DomainError as exc:
            raise FormatError(f"{where}: {exc}") from None
    try:
        return SpinSystem(tuple(spins), tuple(couplings), tuple(quads))
    except DomainError as exc:
        raise FormatError(f"system: {exc}") from None


def write_system(system: SpinSystem) -> str:
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


def write_waveform(controls: ControlSet) -> str:
    out = io.StringIO()
    out.write(f"# dt={_FMT % controls.dt}\n")
    out.write(f"# power_hz={_FMT % controls.power_hz}\n")
    out.write("# channels=" + ",".join(f"{iso}:{ax}" for iso, ax in controls.channels) + "\n")
    for n in range(controls.n_steps):
        out.write(" ".join(_FMT % v for v in controls.amplitudes[:, n]) + "\n")
    return out.getvalue()


def read_waveform(text: str) -> ControlSet:
    header: dict[str, float] = {}
    channels: tuple[tuple[str, str], ...] | None = None
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = (part.strip() for part in line[1:].partition("="))
            where = f"waveform line {ln}: '# {key}='"
            if key in ("dt", "power_hz"):
                try:
                    header[key] = float(value)
                except ValueError:
                    raise FormatError(f"{where} expects a number, got {value!r}") from None
            elif key == "channels":
                channels = tuple(tuple(part.split(":", 1)) for part in value.split(","))
                for ch in channels:
                    _require(len(ch) == 2, where, f"expected isotope:axis, got {ch[0]!r}")
            continue
        try:
            row = [float(v) for v in line.split()]
        except ValueError:
            raise FormatError(f"waveform line {ln}: non-numeric entry") from None
        rows.append((ln, row))
    for key in ("dt", "power_hz"):
        _require(key in header, "waveform", f"missing '# {key}=' header")
    _require(channels is not None, "waveform", "missing '# channels=' header")
    _require(bool(rows), "waveform", "no amplitude rows (n_steps must be >= 1)")
    width = len(channels)
    for ln, row in rows:
        _require(len(row) == width, f"waveform line {ln}",
                 f"expected {width} columns, got {len(row)}")
    amps = np.array([row for _, row in rows]).T
    if not np.all(np.isfinite(amps)):
        raise NumericError("waveform contains non-finite values")
    return ControlSet(header["dt"], header["power_hz"], channels, amps)


def write_trajectory(traj: Trajectory) -> str:
    system = traj.basis.system
    out = io.StringIO()
    out.write("# spintraj trajectory v1\n")
    dt = traj.times[1] - traj.times[0] if traj.n_points > 1 else 0.0
    out.write(f"# dt={_FMT % dt}\n")
    out.write("# isotopes=" + ",".join(s.isotope for s in system.spins) + "\n")
    out.write("# multiplicities=" + ",".join(str(m) for m in system.multiplicities) + "\n")
    for key, value in traj.provenance.items():
        out.write(f"# {key}={value}\n")
    for i, lab in enumerate(traj.basis.labels):
        out.write(f"# label {i} {lab}\n")
    for n in range(traj.n_points):
        parts = [_FMT % traj.times[n]]
        for c in traj.states[n]:
            parts.append(_FMT % c.real)
            parts.append(_FMT % c.imag)
        out.write(" ".join(parts) + "\n")
    return out.getvalue()


def read_trajectory(text: str, expected_basis: ProductBasis | None = None) -> Trajectory:
    isotopes: list[str] | None = None
    mults: list[int] | None = None
    labels: list[tuple[int, str]] = []
    provenance: dict = {}
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("label "):
                _, idx, rest = body.split(" ", 2)
                labels.append((int(idx), rest.strip()))
            elif "=" in body:
                key, _, value = body.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "isotopes":
                    isotopes = value.split(",")
                elif key == "multiplicities":
                    mults = [int(v) for v in value.split(",")]
                elif key != "dt":
                    provenance[key] = value
            continue
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError:
            raise FormatError(f"trajectory line {ln}: non-numeric entry") from None
    _require(isotopes is not None and mults is not None, "trajectory",
             "missing isotopes/multiplicities headers")
    _require(len(isotopes) == len(mults), "trajectory",
             "isotopes and multiplicities disagree in length")
    system = SpinSystem(tuple(Spin(iso, m) for iso, m in zip(isotopes, mults)))
    basis = expected_basis if expected_basis is not None else product_basis(system)
    _require(basis.system.multiplicities == tuple(mults), "trajectory",
             "multiplicities do not match the expected basis")
    _require(len(labels) == basis.dim, "trajectory",
             f"label table has {len(labels)} entries, basis needs {basis.dim}")
    for idx, text_label in labels:
        if str(basis.labels[idx]) != text_label:
            raise FormatError(
                f"trajectory: basis label {idx} is {text_label}, expected "
                f"{basis.labels[idx]} (foreign basis ordering)"
            )
    _require(bool(rows), "trajectory", "no data rows")
    width = 1 + 2 * basis.dim
    for row in rows:
        _require(len(row) == width, "trajectory",
                 f"expected {width} columns per row, got {len(row)}")
    data = np.array(rows)
    times = data[:, 0]
    states = data[:, 1::2] + 1j * data[:, 2::2]
    return Trajectory(times, states, basis, provenance)


@dataclass
class ExperimentConfig:
    """Parsed optimize-run configuration (see README for the YAML layout)."""

    system: SpinSystem
    seed: int
    initial_expr: str
    target_expr: str
    parametrization: str
    dt: float
    n_steps: int
    power_hz: float
    channels: tuple[tuple[str, str], ...]
    offsets: tuple[float, ...] = (0.0,)
    power_scales: tuple[float, ...] = (1.0,)
    ensemble_isotope: str | None = None
    max_iterations: int = 1000
    tolerance: float = 1e-6
    power_penalty: float = 0.0
    fidelity_stop: float | None = None
    analysis_specs: tuple[str, ...] = ()


def parse_config(text: str, system_loader=None) -> ExperimentConfig:
    """Parse an experiment configuration document.

    `system_loader` maps the config's `system` value (a path) to document text;
    alternatively the config may inline the system under the `system` key.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise FormatError(f"config is not valid YAML: {exc}") from None
    _require(isinstance(doc, dict), "config", "top level must be a mapping")
    _require("system" in doc, "config", "missing system")
    _require("seed" in doc, "config", "seed is mandatory for optimize runs")
    raw_sys = doc["system"]
    if isinstance(raw_sys, str):
        _require(system_loader is not None, "config.system",
                 "a path was given but no loader is available")
        system = parse_system(system_loader(raw_sys))
    else:
        system = parse_system(yaml.safe_dump(raw_sys))
    prob = doc.get("problem")
    _require(isinstance(prob, dict), "config.problem", "must be a mapping")
    for key in ("initial", "target", "n_steps", "power_hz", "channels"):
        _require(key in prob, "config.problem", f"missing {key}")
    n_steps = _int(prob["n_steps"], "config.problem.n_steps", 1)
    if "dt" in prob:
        dt = _num(prob["dt"], "config.problem.dt")
    else:
        _require("duration" in prob, "config.problem", "needs dt or duration")
        dt = _num(prob["duration"], "config.problem.duration") / n_steps
    channels = tuple(tuple(str(ch).split(":", 1)) for ch in prob["channels"])
    for ch in channels:
        _require(len(ch) == 2 and ch[1] in ("x", "y"), "config.problem.channels",
                 f"bad channel {':'.join(ch)!r}")
    ens = prob.get("ensemble") or {}
    _require(isinstance(ens, dict), "config.problem.ensemble", "must be a mapping")
    analysis = doc.get("analysis") or {}
    _require(isinstance(analysis, dict), "config.analysis", "must be a mapping")
    specs = tuple(analysis.get("specs", ()))
    fid_stop = prob.get("fidelity_stop")
    return ExperimentConfig(
        system=system,
        seed=_int(doc["seed"], "config.seed", 0),
        initial_expr=str(prob["initial"]),
        target_expr=str(prob["target"]),
        parametrization=str(prob.get("parametrization", "amplitudes")),
        dt=dt,
        n_steps=n_steps,
        power_hz=_num(prob["power_hz"], "config.problem.power_hz"),
        channels=channels,
        offsets=_nums(ens.get("offsets", [0.0]), "config.problem.ensemble.offsets"),
        power_scales=_nums(ens.get("power_scales", [1.0]),
                           "config.problem.ensemble.power_scales"),
        ensemble_isotope=ens.get("isotope"),
        max_iterations=_int(prob.get("max_iterations", 1000),
                            "config.problem.max_iterations", 0),
        tolerance=_num(prob.get("tolerance", 1e-6), "config.problem.tolerance"),
        power_penalty=_num(prob.get("power_penalty", 0.0), "config.problem.power_penalty"),
        fidelity_stop=None if fid_stop is None else _num(
            fid_stop, "config.problem.fidelity_stop"),
        analysis_specs=specs,
    )
