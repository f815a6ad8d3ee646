"""tools/selfcheck.py: it checks the registry of its own checkout, and a
query name it does not know is an error, not a silent empty run."""

import os
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELFCHECK = os.path.join(REPO, "tools", "selfcheck.py")


def _run(script, *args, cwd):
    env = {**os.environ, "PYTHONPATH": REPO}
    return subprocess.run([sys.executable, script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_selfcheck_imports_the_registry_of_its_own_checkout(tmp_path):
    copy = tmp_path / "copy"
    (copy / "tools").mkdir(parents=True)
    shutil.copy(SELFCHECK, copy / "tools" / "selfcheck.py")
    (copy / "__ray_entry__.py").write_text(
        "print('registry:', __file__)\n"
        "def queries():\n    return {'stub_query': None}\n"
        "def oracle_sql():\n    return {}\n")
    proc = _run(str(copy / "tools" / "selfcheck.py"), str(tmp_path),
                "stub_query", "not_in_stub", cwd=tmp_path)
    assert f"registry: {copy / '__ray_entry__.py'}" in proc.stdout, (
        proc.stdout + proc.stderr)
    assert proc.returncode == 2
    assert "unknown queries: not_in_stub" in proc.stdout


def test_selfcheck_rejects_unknown_query_names(tmp_path):
    proc = _run(SELFCHECK, str(tmp_path), "--only", "webtext_tiers",
                "no_such_query", cwd=tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "unknown queries: --only no_such_query" in proc.stdout
    assert "pass," not in proc.stdout
