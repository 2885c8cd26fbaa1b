"""Checks of spintraj's output files against the Hilbert-space reference.

Every check returns a list of problems; an empty list is a pass. The files
are read with parsers of their own, not with spintraj.fileio.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference

ATOL = 1e-9  # CSVs carry 12 significant digits
FIDELITY_ATOL = 1e-10


def read_waveform(path: Path) -> dict:
    wave = {"channels": None, "rows": []}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key == "dt":
                wave["dt"] = float(value)
            elif key == "power_hz":
                wave["power_hz"] = float(value)
            elif key == "channels":
                wave["channels"] = [tuple(c.split(":")) for c in value.split(",")]
        elif line.strip():
            wave["rows"].append([float(v) for v in line.split()])
    wave["amplitudes"] = np.array(wave.pop("rows")).T
    return wave


def read_trajectory(path: Path) -> dict:
    """times [N], states [N, D] and per-basis-state (l, m) labels per spin."""
    labels, rows = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# label "):
            text = line.split(" ", 3)[3]
            pairs = text.strip("()").split(")(")
            labels.append([tuple(int(v) for v in p.split(",")) for p in pairs])
        elif line.strip() and not line.startswith("#"):
            rows.append([float(v) for v in line.split()])
    data = np.array(rows)
    return {"times": data[:, 0], "states": data[:, 1::2] + 1j * data[:, 2::2],
            "labels": labels}


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data.reshape(-1, len(header))


def _close(name: str, got, want, atol: float) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want), initial=0.0))
    return [] if err <= atol else [f"{name}: deviates from the reference by {err:.3g}"]


def check_trajectory(path: Path, rho_ref: np.ndarray, dims, dt: float) -> list[str]:
    """Time grid, unit-norm rows, and the magnitude of every coefficient."""
    try:
        traj = read_trajectory(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    labels, weights = reference.label_weights(rho_ref, dims)
    index = {lab: i for i, lab in enumerate(labels)}
    n = rho_ref.shape[0]
    file_labels = [tuple(lab) for lab in traj["labels"]]
    if traj["states"].shape != (n, len(labels)) or sorted(file_labels) != sorted(labels):
        return [f"{path.name}: {traj['states'].shape} rows x coefficients, "
                f"expected ({n}, {len(labels)}) with the system's labels"]
    errors = _close(f"{path.name} times", traj["times"], dt * np.arange(n), 1e-9 * dt)
    errors += _close(f"{path.name} row norms", np.linalg.norm(traj["states"], axis=1),
                     np.ones(n), 1e-10)
    want = np.sqrt(weights[:, [index[lab] for lab in file_labels]])
    errors += _close(f"{path.name} coefficient magnitudes", np.abs(traj["states"]), want, 1e-10)
    return errors


def check_report(path: Path, per_member_ref: np.ndarray) -> list[str]:
    """Reported fidelities against the reference; a fidelity history that climbs."""
    try:
        rep = json.loads(path.read_text(encoding="utf-8"))
        per = np.array(rep["per_member_fidelities"], dtype=float)
        hist = np.array(rep["fidelity_history"], dtype=float)
        final = float(rep["final_fidelity"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    errors = _close("per-member fidelities", per, per_member_ref, FIDELITY_ATOL)
    errors += _close("final fidelity", final, per_member_ref.mean(), FIDELITY_ATOL)
    if hist.size < 2 or np.any(np.diff(hist) < -1e-12):
        errors.append(f"fidelity_history decreases or is too short: {hist.tolist()}")
    elif not hist[-1] > hist[0]:
        errors.append("fidelity_history does not end above its first entry")
    return errors


def check_populations(path: Path, spec: str, rho_ref: np.ndarray, dims) -> list[str]:
    """One analyze CSV: header, row count, values, and square sums of complete specs."""
    try:
        header, data = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    want = reference.populations(*reference.label_weights(rho_ref, dims))[spec]
    if spec == "coh-orders":
        top = len(want) // 2
        names = [f"coh_order_{m}" for m in range(-top, top + 1)]
    else:
        prefix = {"corr-orders": "corr_order_", "local": "local_spin_",
                  "involvement": "involving_"}[spec]
        names = [f"{prefix}{k}" for k in range(len(want))]
    if header != ["time"] + names or data.shape[0] != rho_ref.shape[0]:
        return [f"{path.name}: header {header}, {data.shape[0]} rows, "
                f"expected {['time'] + names}, {rho_ref.shape[0]} rows"]
    errors = _close(path.name, data[:, 1:].T, np.array(want), ATOL)
    if spec in ("corr-orders", "coh-orders"):
        errors += _close(f"{path.name} square sum", (data[:, 1:] ** 2).sum(axis=1),
                         np.ones(data.shape[0]), ATOL)
    return errors


def check_compare(path: Path, score: str, grouping: str, rho_a: np.ndarray,
                  rho_b: np.ndarray, dims, same: bool) -> list[str]:
    """One compare CSV: reference values, and the properties every score has
    (1 at t = 0, 1 against itself except bsg rsp, |rsp| <= 1, rdn in [0, 1])."""
    try:
        header, data = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    prefix = "" if grouping == "none" else f"{grouping}_"
    columns = ["rsp_re", "rsp_abs"] if (score, grouping) == ("rsp", "none") else [f"{prefix}{score}"]
    if header != ["time"] + columns or data.shape[0] != rho_a.shape[0]:
        return [f"{path.name}: header {header}, {data.shape[0]} rows, "
                f"expected {['time'] + columns}, {rho_a.shape[0]} rows"]
    values = data[:, 1]
    errors = _close(f"{path.name} at t=0", values[0], 1.0, ATOL)
    if score == "rsp":
        if np.max(np.abs(data[:, 1:])) > 1.0 + ATOL:
            errors.append(f"{path.name}: |rsp| exceeds 1")
    elif np.min(values) < -ATOL or np.max(values) > 1.0 + ATOL:
        errors.append(f"{path.name}: rdn outside [0, 1]")
    if grouping == "none":
        if score == "rsp":
            s = reference.overlap(rho_a, rho_b)
            errors += _close(path.name, data[:, 1:].T, np.array([s.real, np.abs(s)]), ATOL)
        else:
            diff = np.sqrt(np.real(reference.overlap(rho_a - rho_b, rho_a - rho_b)))
            errors += _close(path.name, values, 1.0 - diff / 2.0, ATOL)
    else:
        wa, wb = reference.label_weights(rho_a, dims), reference.label_weights(rho_b, dims)
        if grouping == "sg":
            va, vb = reference.sg_values(*wa), reference.sg_values(*wb)
        else:
            va = np.stack(reference.populations(*wa)["local"], axis=-1)
            vb = np.stack(reference.populations(*wb)["local"], axis=-1)
        want = (va * vb).sum(axis=-1) if score == "rsp" else 1.0 - np.linalg.norm(va - vb, axis=-1) / 2.0
        errors += _close(path.name, values, want, ATOL)
    if same and (score == "rdn" or grouping != "bsg"):
        errors += _close(f"{path.name} against itself", values, np.ones_like(values), ATOL)
    return errors
