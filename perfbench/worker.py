"""One op in a fresh process: set up, issue the op, write its record.

Started by ``run.py``; not meant to be run by hand. Everything up to the end
of ``workloads.setup`` counts as set-up, measured from the moment the parent
spawned this process.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--src", required=True, help="directory holding streamsift")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before spawning")
    p.add_argument("--out", required=True, help="record JSON to write")
    p.add_argument("--inputs", help="inputs JSON; without it, only set up")
    p.add_argument("--kind", default="plain", choices=("plain", "spans", "memory"))
    p.add_argument("--spans", help="where to write the spans of a traced op")
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, args.src)
    import workloads

    workloads.setup(args.workload)
    setup_s = time.monotonic() - args.spawned_at

    import streamsift

    src = Path(args.src).resolve()
    if src not in Path(streamsift.__file__).resolve().parents:
        raise SystemExit(f"streamsift was imported from {streamsift.__file__}, not {src}")
    record = {"setup_s": setup_s}
    if args.inputs:
        import measure

        with open(args.inputs, encoding="utf-8") as fh:
            inputs = json.load(fh)
        record.update(measure.one_op(args.workload, inputs, args.kind,
                                     Path(args.out).parent, spans_path=args.spans))
        record["program"] = measure.program_environment()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
