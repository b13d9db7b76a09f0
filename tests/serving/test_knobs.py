"""Knob census: docs/robustness.md's "Serving knobs" table is a contract.

Every field of the serving config and every keyword argument of the
serving engine must be a row of that table, and every row must still
exist in the code.  A knob added anywhere fails here until it is
documented; a knob deleted fails here until its row goes.  Every knob
must also be set somewhere outside the tests — by the CLI, the
benchmark or an example — so a knob that only tests set fails here
until it goes or a program sets it.
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.serving import ServingConfig, ServingEngine

REPO = Path(__file__).resolve().parents[2]
ROBUSTNESS_DOC = REPO / "docs" / "robustness.md"
#: Where a knob counts as set by a program rather than by a test.
SETTER_SOURCES = [REPO / "src" / "repro" / "cli.py",
                  *(path for folder in ("bench", "examples")
                    for path in sorted((REPO / folder).glob("*.py"))
                    if not path.name.startswith("test_"))]


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
        "ServingEngine": _keyword_arguments(ServingEngine.__init__),
    }


def test_table_lists_exactly_the_knobs_in_the_code():
    assert _documented_knobs() == {owner: knobs for owner, knobs
                                   in _knobs_in_code().items() if knobs}


def test_knob_counts():
    counts = {owner: len(knobs) for owner, knobs in _knobs_in_code().items()}
    assert counts == {"ServingConfig": 11, "ServingEngine": 2}


def test_every_knob_has_a_setter_outside_the_tests():
    sources = "\n".join(path.read_text(encoding="utf-8")
                        for path in SETTER_SOURCES)
    unset = [f"{owner}.{knob}"
             for owner, knobs in _knobs_in_code().items()
             for knob in knobs
             if not re.search(rf"\b{knob}=", sources)]
    assert not unset
