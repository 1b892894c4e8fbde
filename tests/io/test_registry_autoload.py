"""Registry lookups must not depend on import order.

A schema registers itself when its owning module is imported.  A fresh
process that imports only :mod:`repro.io` and then loads a document must
still find the schema: the first lookup miss imports every built-in
schema once and looks again.  Built-ins register only into the
process-wide :data:`~repro.io.ARTIFACTS` store, so a private store's
miss stays a miss.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.io import ARTIFACTS, ArtifactStore, load_builtin_schemas

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_fresh_process_loads_documents_importing_only_repro_io(tmp_path):
    load_builtin_schemas()
    job_result = ARTIFACTS.get("repro.job-result").example()
    manifest = ARTIFACTS.get("repro.run-manifest").example()
    ARTIFACTS.save(tmp_path / "result.json", "repro.job-result", job_result)
    ARTIFACTS.save(tmp_path / "manifest.json", "repro.run-manifest",
                   manifest)
    script = textwrap.dedent(f"""
        import sys
        from repro.io import ARTIFACTS
        assert "repro.service.store" not in sys.modules
        assert "repro.obs.manifest" not in sys.modules
        result = ARTIFACTS.load({str(tmp_path / "result.json")!r},
                                "repro.job-result")
        manifest = ARTIFACTS.load({str(tmp_path / "manifest.json")!r},
                                  "repro.run-manifest")
        print(type(result).__name__, result.job_id, result.spec_digest)
        print(type(manifest).__name__, manifest.schema)
        """)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"JobResult {job_result.job_id} {job_result.spec_digest}",
        f"RunManifest {manifest.schema}",
    ]


def test_private_store_does_not_autoload():
    with pytest.raises(ValueError, match=r"\(known: \[\]\)"):
        ArtifactStore().get("repro.run-manifest")
