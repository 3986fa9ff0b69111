"""A process loads only the modules it uses: package exports resolve on first read."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import palinwidth

SRC = Path(palinwidth.__file__).resolve().parents[1]
SUBMODULES = {"commutators", "decompose", "errors", "groups", "oracle", "presets", "words", "wreath"}


def _run(code: str) -> tuple[set, list]:
    """(modules loaded, lines printed before them) by a fresh interpreter running `code`."""
    probe = "\nimport json as _json, sys as _sys\nprint(_json.dumps(sorted(_sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code + probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    *printed, modules = done.stdout.splitlines()
    return set(json.loads(modules)), printed


def fresh(code: str) -> tuple[set, list]:
    """Like _run, less the modules the interpreter loads before any code runs."""
    loaded, printed = _run(code)
    return loaded - _run("")[0], printed


def test_import_loads_no_submodule():
    loaded, printed = fresh("import palinwidth\nprint(hasattr(palinwidth, 'cli'))")
    assert {name for name in loaded if name.startswith("palinwidth")} == {"palinwidth"}
    assert not loaded & {"dataclasses", "inspect"}
    assert printed == ["False"]


def test_pw_exact_leaves_the_constructions_unloaded():
    loaded, _ = fresh("from palinwidth import cli\ncli.main(['pw-exact', '--group', 'S3'])")
    assert "palinwidth.oracle" in loaded
    assert not loaded & {"palinwidth.decompose", "palinwidth.commutators", "palinwidth.wreath"}
    assert not loaded & {"dataclasses", "inspect"}


def test_a_lamplighter_preset_leaves_the_wreath_module_unloaded():
    # lamp(m,k) is built from its integer step, not through WreathProduct
    loaded, _ = fresh("from palinwidth import cli\ncli.main(['pw-exact', '--group', 'lamp(2,3)'])")
    assert "palinwidth.presets" in loaded and "palinwidth.oracle" in loaded
    assert "palinwidth.wreath" not in loaded


def test_a_submodule_import_loads_only_what_it_imports():
    loaded, _ = fresh("from palinwidth import words")
    assert {name for name in loaded if name.startswith("palinwidth")} == {
        "palinwidth", "palinwidth.errors", "palinwidth.words"
    }


def test_every_export_resolves_to_its_home_module():
    assert len(palinwidth.__all__) == 54
    assert SUBMODULES < set(palinwidth.__all__)
    for name in palinwidth.__all__:
        value = getattr(palinwidth, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"palinwidth.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value
    assert set(palinwidth.__all__) <= set(dir(palinwidth))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from palinwidth import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == palinwidth.__all__
    assert all(namespace[name] is getattr(palinwidth, name) for name in namespace)


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_export'"):
        palinwidth.no_such_export
    assert not hasattr(palinwidth, "no_such_export")
    from palinwidth import cli  # a submodule the package does not export still imports

    assert cli.__name__ == "palinwidth.cli"
