"""Run one fairfront CLI subcommand with every layer traced.

Usage: python traced_cli.py SPANS_JSON SUBCOMMAND [FLAGS...]

Imports fairfront (timed as the ``cli.import`` span), wraps its public
callables, runs ``fairfront.cli.main`` on the remaining arguments, and only
then writes the spans and the moment the subcommand returned to SPANS_JSON.
Exits with the subcommand's exit code.
"""

import json
import sys

from tracer import Tracer, install, now


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = now()
    import fairfront.cli

    tracer.add("cli.import", start, now())
    install(tracer)
    code = fairfront.cli.main(cli_args)
    finished = now()
    with open(spans_path, "w") as fh:
        json.dump({"finished": finished, "exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
