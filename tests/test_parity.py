"""tools/parity.py, the byte comparison of the command line between two
source trees: a tree matches itself, and a changed tree shows where."""

import importlib.util
import shutil
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", CHECKOUT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argvs(parity):
    """Three argvs of the list: one that writes a CSV, an SVG and a
    manifest, one that writes only stdout, and one that exits 1."""
    argvs = parity.argv_list()
    assert len(argvs) == len({tuple(a) for a in argvs}) == 120
    spectrum = next(a for a in argvs if a[:2] == ["spectrum", "--svg"])
    return [spectrum, ["defaults"], next(a for a in argvs if "--branch" in a and a[0] == "delay")]


def test_a_tree_matches_itself(parity):
    assert parity.compare(str(CHECKOUT), str(CHECKOUT), _argvs(parity)) == []


def test_a_changed_tree_shows_the_output_that_differs(parity, tmp_path):
    shutil.copytree(CHECKOUT / "src" / "omitlab", tmp_path / "src" / "omitlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "omitlab" / "cli.py"
    text = cli.read_text()
    assert "so the ratio fixes the convention" in text
    cli.write_text(text.replace("so the ratio fixes the convention",
                                "so the ratio sets the convention"))
    diffs = parity.compare(str(CHECKOUT), str(tmp_path), _argvs(parity))
    assert [(argv, key) for argv, key, _ in diffs] == [(["defaults"], "stdout")]
    assert any("sets the convention" in line for line in diffs[0][2])
