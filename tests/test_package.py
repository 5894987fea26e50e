import os
import subprocess
import sys
from pathlib import Path

import dualgrad

NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now fails
import dualgrad.model, dualgrad.oracle
import dualgrad
assert "dualgrad.trainer" not in sys.modules
print(dualgrad.__all__)
try:
    dualgrad.train
except ImportError as exc:
    print(type(exc).__name__)
"""


def test_model_and_oracle_import_without_numpy():
    src = str(Path(dualgrad.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", NO_NUMPY], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == f"{dualgrad.__all__}\nModuleNotFoundError\n"


def test_every_exported_name_resolves():
    from dualgrad import train, trainer

    assert train is trainer.train
    assert all(hasattr(dualgrad, name) for name in dualgrad.__all__)
    assert not hasattr(dualgrad, "no_such_name")
