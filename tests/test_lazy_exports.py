"""The lazy export tables cannot drift from the modules they name.

Every package ``__init__`` under ``src/repro`` re-exports through one
``name -> defining module`` table (:mod:`repro._lazy`).  A table entry
that names the wrong module, a name dropped from ``dir()``, or an
eager import sneaking back into an ``__init__`` fails here.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)


def export_table(package):
    """The ``name -> module`` literal the package hands ``lazy_exports``."""
    tree = ast.parse(Path(package.__file__).read_text())
    call, = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "lazy_exports"]
    return ast.literal_eval(call.args[1])


def test_every_package_is_covered():
    assert PACKAGES[0] == "repro" and len(PACKAGES) >= 15


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExportTable:
    def test_names_resolve_to_their_defining_module(self, package_name):
        package = importlib.import_module(package_name)
        exports = export_table(package)
        assert sorted(exports) == sorted(
            name for name in package.__all__ if name != "__version__")
        for name, module in exports.items():
            assert module.startswith(package_name + "."), (name, module)
            defined = getattr(importlib.import_module(module), name)
            assert getattr(package, name) is defined
            assert vars(package)[name] is defined  # cached: one lookup

    def test_init_imports_only_the_helper(self, package_name):
        """Tier-1 twin of CI's grep: no eager re-export creeps back."""
        package = importlib.import_module(package_name)
        imports = [node for node in ast.parse(
            Path(package.__file__).read_text()).body
            if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert [ast.unparse(node) for node in imports] == [
            "from repro._lazy import lazy_exports"]

    def test_dir_lists_every_export(self, package_name):
        package = importlib.import_module(package_name)
        assert set(dir(package)) >= set(package.__all__)
        assert "__doc__" in dir(package)

    def test_star_import_binds_all(self, package_name):
        namespace = {}
        exec(f"from {package_name} import *", namespace)
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name)

    def test_unknown_attribute_names_the_package(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match=package_name) as caught:
            package.no_such_export
        assert "no_such_export" in str(caught.value)
        with pytest.raises(ImportError):
            exec(f"from {package_name} import no_such_export", {})


def test_submodules_still_import_through_the_package():
    """``from pkg import submodule`` never needed a table entry."""
    from repro.net import codec, connect
    from repro.sgx import RemoteAttestationService, SgxMachine

    assert codec is sys.modules["repro.net.codec"]
    assert connect is sys.modules["repro.net.endpoint"].connect
    assert SgxMachine.__module__ == "repro.sgx.machine"
    assert RemoteAttestationService.__module__ == "repro.sgx.attestation"


def test_import_repro_loads_nothing_but_the_helper(src_env):
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print(*sorted("
         "m for m in sys.modules if m.startswith('repro.')))"],
        env=src_env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert loaded == ["repro._lazy"]
