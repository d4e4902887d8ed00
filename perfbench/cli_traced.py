"""Run one ``entcert`` CLI command in this fresh interpreter, traced.

    python3 cli_traced.py SPANS.json COMMAND ARGS...

Times ``import entcert.cli`` as its own span, installs the span hooks, runs
``entcert.cli.main`` and writes the spans plus the interpreter's boot and done
stamps (CLOCK_MONOTONIC) to SPANS.json. Exits with the CLI's exit code.
"""

import time

BOOT = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.active = True
    idx = tracer.open(tracer.name_id("import.entcert"))
    import entcert.cli

    tracer.close(idx)
    tracer.install()
    idx = tracer.open(tracer.name_id("cli.main"))
    try:
        return entcert.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.uninstall()
        sys.stdout.flush()
        with open(out, "w", encoding="ascii") as fh:
            json.dump({"boot": BOOT, "done": time.monotonic(), "spans": tracer.to_json()}, fh)


if __name__ == "__main__":
    sys.exit(main())
