"""Guard: every process imports only what it runs (DESIGN §14).

Each check runs in a fresh interpreter, because the test process itself
has long since imported everything:

* the ``repro submit/jobs/cancel`` verbs — the thin HTTP client — load
  no ``numpy`` and no ``scipy``;
* the simulator packages and the runner process never load
  ``scipy.stats`` or ``scipy.optimize`` (the Poisson bounds use
  ``scipy.special``; ``linprog`` / ``minimize`` are imported on use);
* :mod:`repro.service` resolves its public names lazily, to the same
  objects its submodules define.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.service

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_modules(code: str, tmp_path: Path) -> set:
    """The module names a fresh interpreter holds after running ``code``."""
    out = tmp_path / "modules.txt"
    script = textwrap.dedent(code) + textwrap.dedent(f"""
        import sys
        with open({str(out)!r}, "w") as handle:
            handle.write("\\n".join(sorted(sys.modules)))
        """)
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120, cwd=tmp_path)
    return set(out.read_text().split())


def heavy(modules: set, roots: tuple) -> list:
    return sorted(m for m in modules
                  if any(m == r or m.startswith(r + ".") for r in roots))


def test_client_verbs_load_no_numpy_or_scipy(tmp_path):
    # Each verb runs for real up to the missing endpoint.json, so every
    # import its code path performs has happened by the time it fails.
    modules = fresh_modules(f"""
        import repro.service.client
        from repro.cli import main
        for verb in (["submit"], ["jobs"], ["cancel", "j-0"]):
            assert main([verb[0], "--spool", {str(tmp_path)!r},
                         *verb[1:]]) == 4
        """, tmp_path)
    assert "repro.service.client" in modules
    assert heavy(modules, ("numpy", "scipy")) == []
    assert heavy(modules, ("repro.traffic", "repro.core",
                           "repro.service.store",
                           "repro.service.server")) == []


def test_simulator_and_runner_load_no_scipy_stats_or_optimize(tmp_path):
    modules = fresh_modules("""
        import repro.traffic, repro.obs, repro.core, repro.stats
        import repro.service.runner, repro.service.store
        """, tmp_path)
    assert "repro.service.runner" in modules
    assert heavy(modules, ("scipy.stats", "scipy.optimize")) == []


def test_runner_imports_nothing_after_the_handoff(tmp_path):
    """A spare runner imports before it reads its job id; running the
    job must then load no further repro, numpy or scipy module."""
    from repro.service import CampaignSpec, JobRecord, JobStore

    spool = tmp_path / "spool"
    spec = CampaignSpec.from_dict({"policy": "nominal", "hours": 50.0,
                                   "seed": 7, "workers": 1})
    JobStore(spool).save_job(JobRecord.new(spec, tenant="t",
                                           priority="normal",
                                           submit_seq=0))
    out = tmp_path / "late-imports.txt"
    script = textwrap.dedent(f"""
        import sys
        import repro.service.runner as runner
        before = set(sys.modules)
        code = runner.main([{str(spool)!r}])
        with open({str(out)!r}, "w") as handle:
            handle.write(f"{{code}}\\n")
            handle.write("\\n".join(sorted(set(sys.modules) - before)))
        """)
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120, cwd=tmp_path, input=f"{spec.job_id}\n",
                   text=True)
    code, *late = out.read_text().split("\n")
    assert code == "0"
    assert JobStore(spool).has_result(spec.digest)
    assert heavy(set(late), ("repro", "numpy", "scipy")) == []


def test_bare_service_package_imports_no_submodule(tmp_path):
    modules = fresh_modules("import repro.service", tmp_path)
    assert heavy(modules, ("repro.service",)) == ["repro.service"]


def test_every_public_name_resolves_to_its_submodule_object():
    defined = {}
    for info in pkgutil.iter_modules(repro.service.__path__):
        module = importlib.import_module(f"repro.service.{info.name}")
        for name in getattr(module, "__all__", ()):
            defined.setdefault(name, []).append(getattr(module, name))
    for name in repro.service.__all__:
        assert name in defined, f"{name!r} is defined by no submodule"
        value = getattr(repro.service, name)
        assert all(value is obj for obj in defined[name]), name
    assert set(repro.service.__all__) <= set(dir(repro.service))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.service.no_such_name  # noqa: B018
    assert not hasattr(repro.service, "no_such_name")
