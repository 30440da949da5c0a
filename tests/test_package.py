"""The package namespace: public names load their submodules on first use."""

import importlib
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import phdisk
from phdisk import BoundaryFunction, GridFunction, make_grid, save_phd1


LIST_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("phdisk."))))
"""


def loaded_in_fresh_interpreter(probe: str, *args) -> list:
    """The phdisk submodules loaded after `probe` runs in a new interpreter."""
    code = textwrap.dedent(probe) + LIST_LOADED
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_first_transform_loads_only_its_layers():
    """The benchmark's set-up path: import, then one Cauchy transform."""
    loaded = loaded_in_fresh_interpreter(
        """
        import phdisk
        phdisk.cauchy(phdisk.GridFunction.zeros(phdisk.make_grid(16, 8)))
        """
    )
    assert loaded == ["phdisk.grid", "phdisk.radial", "phdisk.transforms"]


@pytest.mark.parametrize(
    "command, cfg, unloaded",
    [
        ("transform", {"transform": "cauchy", "inputs": {"h": "h.phd1"}},
         ("phdisk.solvers", "phdisk.similarity", "phdisk.diagnostics")),
        ("solve-riesz", {"inputs": {"alpha": "h.phd1", "psi": "psi.phd1"}}, ("phdisk.diagnostics",)),
    ],
)
def test_cli_command_loads_only_what_it_runs(tmp_path, command, cfg, unloaded):
    save_phd1(tmp_path / "h.phd1", GridFunction.constant(make_grid(16, 8), 0.5))
    save_phd1(tmp_path / "psi.phd1", BoundaryFunction.from_function(16, np.cos))
    cfg = {**cfg, "inputs": {k: str(tmp_path / v) for k, v in cfg["inputs"].items()}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    loaded = loaded_in_fresh_interpreter(
        """
        import sys
        from phdisk import cli
        assert cli.main(sys.argv[1:]) == 0
        """,
        command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
    )
    assert "phdisk.io" in loaded
    assert not set(unloaded) & set(loaded)


@pytest.mark.parametrize("name", phdisk.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(phdisk, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("phdisk.")
    assert getattr(home, name) is obj


def test_dir_and_unknown_names():
    assert set(phdisk.__all__) <= set(dir(phdisk))
    assert {"solvers", "diagnostics", "io", "cli"} <= set(dir(phdisk))
    with pytest.raises(AttributeError, match="no_such_name"):
        phdisk.no_such_name
    with pytest.raises(ImportError):
        from phdisk import no_such_name  # noqa: F401
