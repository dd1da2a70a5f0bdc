"""What ``import streamsift`` loads: scipy only when a Dirichlet KL needs it.

``scipy.special`` is most of the package's import time, and only
``prob.dirichlet_kl`` uses it, so it is imported on that function's first
call. Each check runs in a fresh interpreter, because this test process has
long since loaded scipy through other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import streamsift
from streamsift import save_csv, synth_blobs

NO_SCIPY = ("scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not scipy, scipy")


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter that finds this streamsift; its stdout."""
    env = dict(os.environ)
    src = str(Path(streamsift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    run_fresh(f"import sys, streamsift, streamsift.cli\n{NO_SCIPY}")


def test_import_starts_no_thread():
    """A helper thread is started by each ``runner.share`` call that shares
    its tasks, not by the import, which loads no queue or thread pool."""
    run_fresh("import sys, threading, streamsift, streamsift.cli\n"
              "assert threading.active_count() == 1, threading.enumerate()\n"
              "loaded = [m for m in ('queue', 'concurrent.futures') if m in sys.modules]\n"
              "assert not loaded, loaded")


def test_score_with_forest_and_epig_loads_no_scipy(tmp_path):
    data = synth_blobs(3, 8, seed=0)
    save_csv(data[::2], tmp_path / "store.csv")
    save_csv(data[1::2], tmp_path / "cands.csv")
    np.savetxt(tmp_path / "targets.csv", [ex.features for ex in data[::3]], delimiter=",")
    out = run_fresh(
        "import sys\nfrom streamsift import cli\n"
        "d = sys.argv[1]\n"
        "code = cli.main(['score', '--model', '{\"kind\": \"forest\", \"max_depth\": 3}',"
        " '--store', d + '/store.csv', '--candidates', d + '/cands.csv',"
        " '--targets', d + '/targets.csv', '--objective', 'epig',"
        " '--sample-count', '4', '--seed', '0'])\n"
        f"assert code == 0, code\n{NO_SCIPY}",
        tmp_path)
    lines = out.splitlines()
    assert lines[0] == "index,score,rank"
    assert len(lines) == 1 + len(data[1::2])


def test_dirichlet_kl_imports_scipy_on_first_call():
    out = run_fresh(
        f"import sys\nfrom streamsift import dirichlet_kl\n{NO_SCIPY}\n"
        "print(repr(dirichlet_kl([2.0, 1.0], [1.0, 1.0])))\n"
        "assert 'scipy.special' in sys.modules")
    # the value tests/test_prob.py pins
    assert float(out) == pytest.approx(0.1931471805599453, abs=1e-12)
