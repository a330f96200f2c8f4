"""Run one posdefkit CLI command under the layer trace.

    python3 -X importtime perfbench/tracedcli.py TRACE_OUT SUBCOMMAND [ARGS...]

posdefkit is imported first, so ``-X importtime`` charges the package its
whole import as it would for ``python -m posdefkit.cli``.  The raw trace
totals are written to TRACE_OUT as JSON; the exit code is the CLI's.
"""

import sys

import posdefkit  # noqa: I001  (first: see the module docstring)
import posdefkit.cli  # noqa: E402

import json  # noqa: E402

import layertrace  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layertrace.Tracer()
    tracer.install()
    code = posdefkit.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
