"""Fuzz of the input readers over mutated shipped inputs.

Each example takes a shipped system document, a shipped experiment config, or
a small waveform or trajectory file written by the package, and drops one line
or replaces one space-separated token with x, -1, the empty string, 1e-3 or
[1]. Reading it may succeed or fail, but only with the package's own input
errors (FormatError, DomainError, NumericError): anything else would reach the
CLI as a traceback. Examples are derandomized, so every run checks the same
inputs.
"""

from functools import partial
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spintraj import ControlSet, Spin, SpinSystem, product_basis, propagate
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


@st.composite
def mutated_inputs(draw):
    reader, text = draw(st.sampled_from(INPUTS))
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        del lines[i]
    else:
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(REPLACEMENTS))
        lines[i] = " ".join(tokens)
    return reader, "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_inputs())
def test_mutated_inputs_raise_only_input_errors(case):
    reader, text = case
    try:
        reader(text)
    except (FormatError, DomainError, NumericError):
        pass
