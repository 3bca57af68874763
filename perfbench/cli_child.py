"""Run one `bernint.cli` command with layer tracing on (the traced cli workload).

Usage: python perfbench/cli_child.py <bernint cli arguments>, from the root
of a checkout.  The CLI's own output goes to stdout as usual; the trace
(counts, self times and spans) is written as the last line of stderr.
"""

import json
import sys
from pathlib import Path

import tracing
from worker import import_bernint


def main() -> int:
    import_bernint(Path.cwd())
    import bernint.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return bernint.cli.main(sys.argv[1:])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracing.table_entries(tracer)
        print(json.dumps({"raw": tracer.raw(), **tracer.spans()}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
