"""Fuzz of the input readers and the CLI over mutated shipped inputs.

Each example takes a shipped system document, a shipped experiment config, or
a small waveform or trajectory file written by the package, and makes one or
two mutations, each dropping a line or replacing one space-separated token
with x, -1, the empty string, 1e-3 or [1]. Reading it may succeed or fail, but
only with the package's own input errors (FormatError, DomainError,
NumericError): anything else would reach the CLI as a traceback. The mutated
system, waveform and trajectory files also go through `spintraj basis`,
`simulate` and `analyze`, which must end with exit code 0, 3, 4, 5 or 6 and
print no traceback. Configs are left out there: a mutated max_iterations can
make `optimize` run without bound. Examples are derandomized, so every run
checks the same inputs.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spintraj import ControlSet, Spin, SpinSystem, product_basis, propagate
from spintraj.analysis import FAMILIES
from spintraj.cli import main
from spintraj.errors import DomainError, FormatError, NumericError
from spintraj.expressions import parse_state
from spintraj.fileio import (
    parse_config,
    parse_system,
    read_trajectory,
    read_waveform,
    write_trajectory,
    write_waveform,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REPLACEMENTS = ["x", "-1", "", "1e-3", "[1]"]


def _shipped_system(_path: str) -> str:
    # backbone.yaml is the only system file the shipped configs name
    return (CONFIGS / "backbone.yaml").read_text(encoding="utf-8")


def _written_files() -> tuple[str, str]:
    system = SpinSystem((Spin("1H", 2, 100.0), Spin("13C", 2)))
    rng = np.random.default_rng(0)
    controls = ControlSet(2e-5, 5000.0, (("1H", "x"), ("1H", "y"), ("13C", "x")),
                          rng.uniform(-1.0, 1.0, (3, 3)))
    traj = propagate(system, controls, parse_state(product_basis(system), "Lz(0)"))
    return write_waveform(controls), write_trajectory(traj)


WAVEFORM, TRAJECTORY = _written_files()
INPUTS = [(parse_system, (CONFIGS / "backbone.yaml").read_text(encoding="utf-8"))]
INPUTS += [(partial(parse_config, system_loader=_shipped_system), path.read_text(encoding="utf-8"))
           for path in sorted(CONFIGS.glob("*.yaml")) if path.name != "backbone.yaml"]
INPUTS += [(read_waveform, WAVEFORM), (read_trajectory, TRAJECTORY)]


def mutate(draw, text: str) -> str:
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()) and len(lines) > 1:
            del lines[i]
        else:
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(REPLACEMENTS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def mutated_inputs(draw):
    reader, text = draw(st.sampled_from(INPUTS))
    return reader, mutate(draw, text)


FUZZ_SETTINGS = settings(derandomize=True, database=None, max_examples=600, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@FUZZ_SETTINGS
@given(mutated_inputs())
def test_mutated_inputs_raise_only_input_errors(case):
    reader, text = case
    try:
        reader(text)
    except (FormatError, DomainError, NumericError):
        pass


COMMANDS = {
    "system.yaml": [["basis", "--system", "system.yaml"],
                    ["simulate", "--system", "system.yaml", "--waveform", "waveform.txt",
                     "--initial", "Lz(0)", "--out", "run"]],
    "waveform.txt": [["simulate", "--system", "system.yaml", "--waveform", "waveform.txt",
                      "--initial", "Lz(0)", "--out", "run"]],
    "trajectory.txt": [["analyze", "--trajectory", "trajectory.txt", "--spec", spec,
                        "--out", "run"] for spec in FAMILIES],
}


@st.composite
def mutated_commands(draw):
    files = {"system.yaml": INPUTS[0][1], "waveform.txt": WAVEFORM,
             "trajectory.txt": TRAJECTORY}
    name = draw(st.sampled_from(sorted(COMMANDS)))
    files[name] = mutate(draw, files[name])
    return files, draw(st.sampled_from(COMMANDS[name]))


@FUZZ_SETTINGS
@given(mutated_commands())
def test_mutated_inputs_through_cli(case):
    files, argv = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        paths = [str(Path(tmp) / a) if a in files or a == "run" else a for a in argv]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(paths)
    assert code in (0, 3, 4, 5, 6), err.getvalue()
    assert "Traceback" not in err.getvalue()
