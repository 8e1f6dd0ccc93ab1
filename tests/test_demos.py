import ast
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    """Each demo runs to exit 0 in a fresh interpreter that imports vibdict from src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, demo], env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("path", DEMOS + [os.path.join(ROOT, "tests", "test_acceptance.py")],
                         ids=os.path.basename)
def test_reaches_library_loops_only_through_fleet(path):
    """Demos and verdicts train and monitor through ``fleet``'s cores, as ``vibdict`` does.

    They neither import nor call the library loops that those cores wrap.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"train_baseline", "monitor_segments"}


def test_only_the_text_writers_make_directories():
    """Every output directory is made by ``ingest.write_table`` or ``write_key_values``.

    Each makes its file's directory only after it has accepted every value,
    so a refused value leaves no directory behind. The one other caller is
    the OMP kernel's build cache.
    """
    makers = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "vibdict", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for statement in tree.body:
            owner = getattr(statement, "name", "<module>")
            for node in ast.walk(statement):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name) else None)
                if name in ("makedirs", "mkdir"):
                    makers.add((os.path.basename(path), owner))
    assert makers == {("ingest.py", "write_table"), ("ingest.py", "write_key_values"),
                      ("omp_kernel.py", "_library")}
