"""Run the sfuncs command line under the outside-in tracer.

    python3 perfbench/clishim.py STATS.json ARGS...

behaves like ``python3 -m sfuncs.cli ARGS...`` (same output and exit code)
and writes the tracer snapshot of the whole command to STATS.json.  The
benchmark uses it only in traced passes of the ``cli`` workload.  Workers of
the ``verify --jobs`` process pool are not traced: their time shows as the
parent's wait inside ``sfunc.check_sfunction``.
"""
from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import sfuncs.cli

    tracer = Tracer()
    tracer.install()
    try:
        return sfuncs.cli.run(argv)
    except SystemExit as exc:  # argparse: --help and usage errors
        return exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
