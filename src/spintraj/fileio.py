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
import math
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from .analysis import FAMILIES
from .engine import ControlSet, Trajectory
from .errors import DomainError, FormatError, NumericError
from .system import Coupling, Quadrupole, Spin, SpinSystem
from .tensors import ProductBasis, product_basis

__all__ = [
    "parse_system",
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
            number = float(value)
        except ValueError:
            pass
        else:  # YAML 1.1 reads exponents without a decimal point, like 1e-3, as text
            _require(math.isfinite(number), where, f"expected a finite number, got {value!r}")
            raise FormatError(f"{where}: expected a number, got the string {value!r}; "
                              "YAML reads 1e-3 as text, write it as 1.0e-3")
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             where, f"expected a number, got {value!r}")
    # rejects nan and +-inf, and an integer too big for a double
    _require(abs(value) <= sys.float_info.max, where, f"expected a finite number, got {value!r}")
    return float(value)


def _int(value, where: str, minimum: int) -> int:
    number = _num(value, where)
    _require(number.is_integer() and number >= minimum, where,
             f"expected an integer >= {minimum}, got {value!r}")
    return int(number)


def _known_keys(doc: dict, where: str, known: tuple[str, ...]):
    unknown = set(doc) - set(known)
    _require(not unknown, where, f"unknown keys {sorted(map(str, unknown))}")


def _list(value, where: str) -> list:
    _require(isinstance(value, list), where, f"expected a list, got {value!r}")
    return value


def _nums(value, where: str) -> tuple[float, ...]:
    return tuple(_num(v, f"{where}[{k}]") for k, v in enumerate(_list(value, where)))


def _entries(doc: dict, key: str, required: tuple[str, ...], build) -> tuple:
    """build(entry, where) of each mapping in the list doc[key]; a missing field
    or a value the built object rejects is a FormatError naming the entry."""
    out = []
    for idx, entry in enumerate(_list(doc.get(key) or [], key)):
        where = f"{key}[{idx}]"
        _require(isinstance(entry, dict), where, "must be a mapping")
        for field in required:
            _require(field in entry, where, f"missing {field}")
        try:
            out.append(build(entry, where))
        except DomainError as exc:
            raise FormatError(f"{where}: {exc}") from None
    return tuple(out)


def _data_rows(rows: list[tuple[int, str]], width: int, what: str) -> np.ndarray:
    """Parse numbered text rows of `width` whitespace-separated floats with numpy.

    A fault is reported with its file line: a field that is not a number or
    a row with the wrong number of columns.
    """
    try:
        data = np.loadtxt([line for _, line in rows], ndmin=2, comments=None)
        if data.shape[1] == width:
            return data
    except ValueError:
        pass
    for ln, line in rows:  # only after a fault: find its line
        where = f"{what} line {ln}"
        try:
            row = np.loadtxt([line], ndmin=2, comments=None)
        except ValueError:
            raise FormatError(f"{where}: non-numeric entry in {line!r}") from None
        _require(row.shape[1] == width, where,
                 f"expected {width} columns, got {row.shape[1]}")


def parse_system(text: str) -> SpinSystem:
    """Parse a YAML spin system document with field-precise error messages."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise FormatError(f"system document is not valid YAML: {exc}") from None
    _require(isinstance(doc, dict), "system", "top level must be a mapping")
    _known_keys(doc, "system", ("spins", "couplings", "quadrupolar"))
    _require(isinstance(doc.get("spins"), list) and doc["spins"], "spins",
             "must be a non-empty list")
    spins = _entries(doc, "spins", ("isotope", "multiplicity"), lambda e, where: Spin(
        str(e["isotope"]), _int(e["multiplicity"], f"{where}.multiplicity", 2),
        _num(e.get("offset", 0.0), f"{where}.offset")))
    couplings = _entries(doc, "couplings", ("i", "j", "j_hz"), lambda e, where: Coupling(
        _int(e["i"], f"{where}.i", 0), _int(e["j"], f"{where}.j", 0),
        _num(e["j_hz"], f"{where}.j_hz"), e.get("model")))
    quads = _entries(doc, "quadrupolar", ("spin", "omega_q"), lambda e, where: Quadrupole(
        _int(e["spin"], f"{where}.spin", 0), _num(e["omega_q"], f"{where}.omega_q"),
        _num(e.get("eta", 0.0), f"{where}.eta")))
    try:
        return SpinSystem(spins, couplings, quads)
    except DomainError as exc:
        raise FormatError(f"system: {exc}") from None


def write_waveform(controls: ControlSet) -> str:
    out = io.StringIO()
    out.write(f"# dt={_FMT % controls.dt}\n")
    out.write(f"# power_hz={_FMT % controls.power_hz}\n")
    out.write("# channels=" + ",".join(f"{iso}:{ax}" for iso, ax in controls.channels) + "\n")
    np.savetxt(out, controls.amplitudes.T, fmt=_FMT)
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
                _require(math.isfinite(header[key]), where,
                         f"expected a finite number, got {value!r}")
                _require(key != "dt" or header[key] > 0, where,
                         f"expected a positive time step, got {value!r}")
            elif key == "channels":
                channels = tuple(tuple(part.split(":", 1)) for part in value.split(","))
                for ch in channels:
                    _require(len(ch) == 2 and ch[1] in ("x", "y"), where,
                             f"expected isotope:x or isotope:y, got {':'.join(ch)!r}")
            else:
                raise FormatError(f"{where}: unknown header; expected dt, power_hz or channels")
            continue
        rows.append((ln, line))
    for key in ("dt", "power_hz"):
        _require(key in header, "waveform", f"missing '# {key}=' header")
    _require(channels is not None, "waveform", "missing '# channels=' header")
    _require(bool(rows), "waveform", "no amplitude rows (n_steps must be >= 1)")
    amps = _data_rows(rows, len(channels), "waveform").T  # ControlSet rejects nan and inf
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
    rows = np.empty((traj.n_points, 1 + 2 * traj.basis.dim))
    rows[:, 0] = traj.times
    rows[:, 1::2] = traj.states.real
    rows[:, 2::2] = traj.states.imag
    np.savetxt(out, rows, fmt=_FMT)
    return out.getvalue()


def read_trajectory(text: str, expected_basis: ProductBasis | None = None) -> Trajectory:
    isotopes: list[str] | None = None
    mults: list[int] | None = None
    labels: dict[int, tuple[int, str]] = {}  # basis index -> (file line, label)
    provenance: dict = {}
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("label "):
                parts = body.split(None, 2)
                _require(len(parts) == 3 and parts[1].isdecimal(), f"trajectory line {ln}",
                         f"expected '# label <index> <label>', got {line!r}")
                labels[int(parts[1])] = (ln, parts[2])
            elif "=" in body:
                key, _, value = body.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "isotopes":
                    isotopes = value.split(",")
                elif key == "multiplicities":
                    _require(all(v.strip().isdecimal() for v in value.split(",")),
                             f"trajectory line {ln}: '# multiplicities='",
                             f"expected comma-separated integers, got {value!r}")
                    mults = [int(v) for v in value.split(",")]
                elif key != "dt":
                    provenance[key] = value
            continue
        rows.append((ln, line))
    _require(isotopes is not None and mults is not None, "trajectory",
             "missing isotopes/multiplicities headers")
    _require(len(isotopes) == len(mults), "trajectory",
             "isotopes and multiplicities disagree in length")
    dim = math.prod(m * m for m in mults)
    _require(len(labels) == dim, "trajectory",
             f"label table has {len(labels)} entries, basis needs {dim}")
    try:
        system = SpinSystem(tuple(Spin(iso, m) for iso, m in zip(isotopes, mults)))
    except DomainError as exc:
        raise FormatError(f"trajectory: {exc}") from None
    basis = expected_basis if expected_basis is not None else product_basis(system)
    _require(basis.system.multiplicities == tuple(mults), "trajectory",
             "multiplicities do not match the expected basis")
    for idx, (ln, text_label) in labels.items():
        _require(idx < basis.dim, f"trajectory line {ln}",
                 f"basis label {idx} out of range for a basis of {basis.dim} states")
        if str(basis.labels[idx]) != text_label:
            raise FormatError(
                f"trajectory: basis label {idx} is {text_label}, expected "
                f"{basis.labels[idx]} (foreign basis ordering)"
            )
    _require(bool(rows), "trajectory", "no data rows")
    data = _data_rows(rows, 1 + 2 * basis.dim, "trajectory")
    if not np.all(np.isfinite(data)):
        raise NumericError("trajectory contains non-finite values")
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
    Unknown keys are rejected, so a misspelt option is never ignored.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise FormatError(f"config is not valid YAML: {exc}") from None
    _require(isinstance(doc, dict), "config", "top level must be a mapping")
    _known_keys(doc, "config", ("system", "seed", "problem", "analysis"))
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
    _known_keys(prob, "config.problem", (
        "initial", "target", "parametrization", "duration", "dt", "n_steps", "power_hz",
        "channels", "ensemble", "max_iterations", "tolerance", "power_penalty",
        "fidelity_stop"))
    for key in ("initial", "target", "n_steps", "power_hz", "channels"):
        _require(key in prob, "config.problem", f"missing {key}")
    n_steps = _int(prob["n_steps"], "config.problem.n_steps", 1)
    span = "dt" if "dt" in prob else "duration"
    _require(span in prob, "config.problem", "needs dt or duration")
    length = _num(prob[span], f"config.problem.{span}")
    _require(length > 0, f"config.problem.{span}", f"expected a positive time, got {length!r}")
    dt = length if span == "dt" else length / n_steps
    channels = tuple(tuple(str(ch).split(":", 1))
                     for ch in _list(prob["channels"], "config.problem.channels"))
    _require(bool(channels), "config.problem.channels", "needs at least one channel")
    for ch in channels:
        _require(len(ch) == 2 and ch[1] in ("x", "y"), "config.problem.channels",
                 f"bad channel {':'.join(ch)!r}")
    ens = prob.get("ensemble") or {}
    _require(isinstance(ens, dict), "config.problem.ensemble", "must be a mapping")
    _known_keys(ens, "config.problem.ensemble", ("offsets", "power_scales", "isotope"))
    analysis = doc.get("analysis") or {}
    _require(isinstance(analysis, dict), "config.analysis", "must be a mapping")
    _known_keys(analysis, "config.analysis", ("specs",))
    specs = tuple(_list(analysis.get("specs", []), "config.analysis.specs"))
    for k, spec in enumerate(specs):
        _require(isinstance(spec, str) and spec in FAMILIES, f"config.analysis.specs[{k}]",
                 f"expected one of {', '.join(FAMILIES)}, got {spec!r}")
    tolerance = _num(prob.get("tolerance", 1e-6), "config.problem.tolerance")
    _require(tolerance >= 0, "config.problem.tolerance", f"must be nonnegative, got {tolerance!r}")
    fid_stop = prob.get("fidelity_stop")
    if fid_stop is not None:  # a fidelity never exceeds 1
        fid_stop = _num(fid_stop, "config.problem.fidelity_stop")
        _require(fid_stop <= 1, "config.problem.fidelity_stop", f"must be <= 1, got {fid_stop!r}")
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
        tolerance=tolerance,
        power_penalty=_num(prob.get("power_penalty", 0.0), "config.problem.power_penalty"),
        fidelity_stop=fid_stop,
        analysis_specs=specs,
    )
