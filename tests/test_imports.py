"""The import graph, pinned in fresh interpreters, and the package API.

``import trbm`` loads none of the package's modules; ``import trbm.cli``
loads ``cube`` and what ``cube`` imports; each command adds only the
modules its handler runs.  The package resolves each exported name on
its home module at every read, so a name rebound there is seen through
``trbm`` too.
"""

import importlib
import json
import subprocess
import sys

import pytest

import trbm
from helpers import fresh_env
from test_golden_cli import EVERY_COMMAND, write_inputs

CLI = {"cli", "cube", "lp", "linalg", "parallel"}
TROPICAL = {"tropical", "codes"}

# The modules a command loads beyond those of ``import trbm.cli``, by the
# command's first word.
ADDED = {
    "slicings": set(),
    "zonotope-facets": set(),
    "phi": TROPICAL,
    "infer": TROPICAL,
    "dim": TROPICAL,
    "member-tm1": TROPICAL,
    "codes": {"codes"},
    "rbm": {"rbmstats"},
    "tropvar": {"polynomials", "rbmstats", *TROPICAL},
    "fan": {"fan", *TROPICAL},
}

REPORT = """
import json, sys
print(json.dumps(sorted(m[5:] for m in sys.modules if m.startswith("trbm."))))
"""


def loaded(code: str, *argv: str) -> set[str]:
    """The trbm modules a fresh interpreter holds after running ``code``."""
    proc = subprocess.run([sys.executable, "-c", code + REPORT, *argv],
                          capture_output=True, text=True, env=fresh_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_trbm_loads_no_module():
    assert loaded("import trbm; trbm.__version__; dir(trbm)") == set()


def test_import_cli_loads_cube_and_its_imports():
    assert loaded("import trbm.cli") == CLI


def test_reading_a_module_through_the_package_imports_it():
    assert loaded("import trbm; assert trbm.fan.__name__ == 'trbm.fan'") \
        == {"fan", *TROPICAL, "cube", "lp", "linalg", "parallel"}


def test_every_command_has_its_modules():
    assert {name.split()[0] for name in EVERY_COMMAND} == set(ADDED)


@pytest.mark.parametrize("name", sorted(EVERY_COMMAND))
def test_each_command_loads_only_its_modules(name, tmp_path):
    paths = write_inputs(tmp_path)
    argv = [arg.format(**paths) for arg in EVERY_COMMAND[name]]
    code = ("import sys\nfrom trbm.cli import main\n"
            "assert main(sys.argv[1:]) == 0")
    assert loaded(code, *argv, "--out", paths["out"]) \
        == CLI | ADDED[name.split()[0]]


def test_every_export_is_its_home_modules_object():
    assert len(trbm.__all__) == len(set(trbm.__all__)) == 60
    assert set(trbm.__all__) <= set(dir(trbm))
    for name in trbm.__all__:
        home = importlib.import_module(f"trbm.{trbm._HOME[name]}")
        assert getattr(trbm, name) is getattr(home, name), name


def test_modules_are_reached_through_the_package():
    for module in ("linalg", "lp", "cube", "codes", "tropical", "rbmstats",
                   "polynomials", "fan", "parallel", "cli"):
        assert module in dir(trbm)
        assert getattr(trbm, module) is importlib.import_module(
            f"trbm.{module}")


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        trbm.nope
    assert not hasattr(trbm, "nope")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from trbm import *", namespace)
    for name in trbm.__all__:
        assert namespace[name] is getattr(trbm, name), name


def test_a_name_rebound_on_its_home_module_is_seen_through_the_package(
        monkeypatch):
    def is_slicing(subset, n):
        return True

    monkeypatch.setattr(trbm.cube, "is_slicing", is_slicing)
    assert trbm.is_slicing is is_slicing
    from trbm import is_slicing as imported
    assert imported is is_slicing
