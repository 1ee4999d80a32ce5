"""Run one traced `mrfkit` command in a fresh interpreter.

Usage: python3 perfbench/cli_child.py SPANS.json [mrfkit arguments...]

Records the import of mrfkit.cli as a `cli.import` span, wraps the layers,
runs `mrfkit.cli.main` as a `cli.main` span, writes the spans to SPANS.json
and exits with the command's exit code. With no mrfkit arguments it only
imports. mrfkit must be importable (the caller sets PYTHONPATH).
"""

import sys

from tracing import Tracer, clock


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = clock()
    import mrfkit.cli

    tracer.add_span("cli.import", start, clock())
    code = 0
    if cli_args:
        tracer.install()
        try:
            code = mrfkit.cli.main(cli_args)
        finally:
            tracer.uninstall()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
