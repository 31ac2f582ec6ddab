"""The function server that runs inside real worker processes.

Protocol (line-oriented, over stdin/stdout or a FIFO pair):

* on start, the worker performs its function's initialization (imports
  + APPINIT work), then writes ``READY <monotonic_ns>``;
* each subsequent input line is a request body; the worker replies
  ``OK <service_ns> <result_digest>`` (or ``ERR <message>``);
* ``QUIT`` shuts the worker down.

Run directly: ``python -m repro.realproc.child --function markdown``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import Callable, IO, Tuple

FUNCTION_NAMES = ("noop", "markdown", "image-resizer")


def _build_noop() -> Callable[[str], str]:
    def handler(body: str) -> str:
        return "ok"
    return handler


def _build_markdown() -> Callable[[str], str]:
    # Import cost is part of APPINIT, exactly like the paper's function
    # loading its markdown library.
    from repro.functions.markdown import SAMPLE_DOCUMENT
    from repro.functions.markdown_engine import render_document

    def handler(body: str) -> str:
        return render_document(body or SAMPLE_DOCUMENT)
    return handler


def _build_image_resizer() -> Callable[[str], str]:
    # APPINIT: generate + hold the source image (paper: load a 1 MB,
    # 3440x1440 image). A reduced working size keeps per-request cost
    # sane for a pure-Python host while exercising the same code path.
    from repro.functions.imaging.generate import synthetic_photo
    from repro.functions.imaging.resize import scale_to_fraction

    source = synthetic_photo(688, 288)

    def handler(body: str) -> str:
        thumb = scale_to_fraction(source, 0.10)
        return f"{thumb.width}x{thumb.height}"
    return handler


BUILDERS = {
    "noop": _build_noop,
    "markdown": _build_markdown,
    "image-resizer": _build_image_resizer,
}


def build_handler(function: str) -> Callable[[str], str]:
    try:
        builder = BUILDERS[function]
    except KeyError:
        raise SystemExit(f"unknown function {function!r}; known: {sorted(BUILDERS)}")
    return builder()


def serve(function: str, infile: IO[str], outfile: IO[str]) -> int:
    """APPINIT + request loop (the worker main)."""
    handler = build_handler(function)
    return serve_with_handler(handler, infile, outfile)


def serve_with_handler(handler: Callable[[str], str],
                       infile: IO[str], outfile: IO[str]) -> int:
    """Request loop for an already-initialized handler (zygote workers
    start here — their APPINIT happened in the zygote, pre-fork)."""
    outfile.write(f"READY {time.monotonic_ns()}\n")
    outfile.flush()
    for line in infile:
        body = line.rstrip("\n")
        if body == "QUIT":
            break
        started = time.monotonic_ns()
        try:
            result = handler(body)
        except Exception as exc:  # report, don't die
            outfile.write(f"ERR {type(exc).__name__}\n")
            outfile.flush()
            continue
        elapsed = time.monotonic_ns() - started
        digest = hashlib.sha1(result.encode("utf-8", "replace")).hexdigest()[:12]
        outfile.write(f"OK {elapsed} {digest}\n")
        outfile.flush()
    return 0


def parse_ready_line(line: str) -> int:
    """Extract the monotonic timestamp from a READY line."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != "READY":
        raise ValueError(f"malformed READY line: {line!r}")
    return int(parts[1])


def parse_ok_line(line: str) -> Tuple[int, str]:
    """Extract (service_ns, digest) from an OK line."""
    parts = line.split()
    if len(parts) != 3 or parts[0] != "OK":
        raise ValueError(f"malformed OK line: {line!r}")
    return int(parts[1]), parts[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="prebaking repro worker")
    parser.add_argument("--function", required=True, choices=sorted(BUILDERS))
    args = parser.parse_args(argv)
    return serve(args.function, sys.stdin, sys.stdout)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main(sys.argv[1:]))
