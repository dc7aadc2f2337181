"""Record the golden-output corpus that tests/test_golden.py replays.

Run from the repository root as ``PYTHONPATH=src python tests/golden/record.py``.
Each case of ``test_golden.CASES`` runs in order, in a fresh temporary
directory, so that a case can read an earlier case's recorded output; its
exit code, stdout, stderr and files replace ``expected/<case>``.  The numpy
version is recorded with them, since simulate's counts depend on it.
BLAS runs on one thread, as in the tests: the sums of a threaded BLAS move
the last digit of some of analyze's ten-photon entries.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from test_golden import CASES, EXPECTED, run_case  # noqa: E402


def record() -> None:
    shutil.rmtree(EXPECTED, ignore_errors=True)
    EXPECTED.mkdir()
    (EXPECTED / "numpy_version").write_text(np.__version__ + "\n")
    for case in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            outputs = run_case(case, Path(workdir))
        (EXPECTED / case.name).mkdir()
        for name, data in outputs.items():
            (EXPECTED / case.name / name).write_bytes(data)
        print(f"{case.name}: exit {outputs['exit_code'].decode().strip()}, "
              f"{len(outputs) - 3} file(s)")


if __name__ == "__main__":
    record()
