"""Write the reference outputs of every workload at the reference seed.

    python3 perfbench/make_reference.py [workload ...]

References pin the program's outputs: regenerate them only for a change
that is meant to alter those outputs, and say so in its description.
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


def main(names):
    for workload in names or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            inputs = workloads.make_inputs(workload, checks.REFERENCE_SEED, tmp)
            out = workloads.run_op(workload, inputs, Path(tmp) / "op")
            errors = checks.check_op(workload, out)
            if errors:
                raise SystemExit(f"{workload}: {errors}")
            workloads.save_reference(measure.REFERENCE_DIR, workload, out)
        print(f"wrote the {workload} reference")


if __name__ == "__main__":
    main(sys.argv[1:])
