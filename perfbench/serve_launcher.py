"""Start ``repro.cli serve`` with the layer wrappers installed.

    serve_launcher.py --spans OUT.json -- serve --bench STORE --port 0 ...

The wrappers are the ones the traced run uses in-process
(:func:`spans.install_layer_wrappers`), plus the serving layers.  Span
recording is safe across the event loop and the executor threads that run
surrogate work: each span is appended whole to a list, and parents and
request ids live in context variables.  The spans stay in memory and are
written to ``OUT.json`` when the server exits (SIGTERM drains it).
"""

from __future__ import annotations

import argparse
import sys

import spans


def main() -> int:
    parser = argparse.ArgumentParser(prog="serve_launcher.py")
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import repro.cli

    tracer = spans.Tracer()
    spans.install_layer_wrappers(tracer, serve=True)
    tracer.enabled = True
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.enabled = False
        spans.write_spans(args.spans, spans.as_dicts(tracer), spans.encoder_deltas(tracer))


if __name__ == "__main__":
    sys.exit(main())
