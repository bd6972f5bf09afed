"""Closed-loop `find-code` client: one process, one query at a time.

    python3 query_client.py QUERIES_JSON RESULTS_JSON SECONDS

QUERIES_JSON is a list of graph texts.  The first one is also the untimed
warm-up query; after it the client prints `ready`.  It then makes passes
over the whole list, one query after another, until SECONDS have passed.
RESULTS_JSON gets one JSON line per query (index, latency, exit status,
captured stdout), written as it goes so the client's memory does not grow
with the query count, then a last line with the warm-up answer and the
measured window.  With RESULTS_JSON `-` it stops after `ready`, which is how
set-up time is probed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main() -> int:
    queries_path, results_path, seconds = sys.argv[1:4]
    with open(queries_path) as fh:
        texts = json.load(fh)

    import indexcoding.cli as cli

    def ask(text: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(["find-code", "--graph", text, "--format", "csv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()

    warmup = ask(texts[0])
    print("ready", flush=True)
    if results_path == "-":
        return 0

    clock = time.perf_counter
    with open(results_path, "w") as fh:
        count = 0
        start = clock()
        deadline = start + float(seconds)
        while True:
            index = count % len(texts)
            t0 = clock()
            rc, out = ask(texts[index])
            end = clock()
            fh.write(json.dumps((index, end - t0, rc, out)) + "\n")
            count += 1
            if end >= deadline:
                break
        fh.write(json.dumps({"warmup": warmup, "window_s": end - start}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
