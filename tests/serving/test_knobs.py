"""Knob census: docs/robustness.md's "Serving knobs" table is a contract.

Every field of the serving configs and every keyword argument of the
serving objects must be a row of that table, and every row must still
exist in the code.  A knob added anywhere fails here until it is
documented; a knob deleted fails here until its row goes.
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.serving import ResilienceConfig, ServingConfig, ServingEngine

ROBUSTNESS_DOC = Path(__file__).resolve().parents[2] / "docs" \
    / "robustness.md"


def _documented_knobs() -> dict[str, list[str]]:
    """``{owner: [knob, ...]}`` from the doc's "Serving knobs" table."""
    section = ROBUSTNESS_DOC.read_text().split("## Serving knobs", 1)[1]
    rows: list[str] = []
    for line in section.splitlines():
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    knobs: dict[str, list[str]] = {}
    for row in rows[2:]:  # header and rule
        owner, knob = (re.fullmatch(r"\s*`([^`]+)`\s*", cell).group(1)
                       for cell in row.split("|")[1:3])
        knobs.setdefault(owner, []).append(knob)
    return knobs


def _keyword_arguments(function) -> list[str]:
    return [name for name, parameter
            in inspect.signature(function).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY]


def _knobs_in_code() -> dict[str, list[str]]:
    """``{owner: [knob, ...]}`` for every serving object."""
    return {
        "ServingConfig": [f.name for f in dataclasses.fields(ServingConfig)],
        "ResilienceConfig": [f.name
                             for f in dataclasses.fields(ResilienceConfig)],
        "ServingEngine": _keyword_arguments(ServingEngine.__init__),
    }


def test_table_lists_exactly_the_knobs_in_the_code():
    assert _documented_knobs() == {owner: knobs for owner, knobs
                                   in _knobs_in_code().items() if knobs}


def test_knob_counts():
    counts = {owner: len(knobs) for owner, knobs in _knobs_in_code().items()}
    assert counts == {"ServingConfig": 9, "ResilienceConfig": 15,
                      "ServingEngine": 3}
