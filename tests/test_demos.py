"""Every script under demos/ runs to its end in process, as
``python demos/<name>.py`` would, and prints what it shows."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    """The glob finds the scripts, among them 03 (induced_hom) and 04
    (quotient_hyperring), so the runs below are not an empty set."""
    assert {"03", "04"} <= {path.name[:2] for path in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_to_its_end(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
