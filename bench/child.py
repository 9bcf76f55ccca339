"""Run one superx CLI command in this fresh interpreter and record how it went.

    python3 child.py RECORD [--probe] [--trace] [--digest] -- SUPERX_ARGS...

The CLI writes to this process's stdout as usual.  RECORD receives a JSON
object with the clock reading and this process's CPU time once
``superx.cli`` is imported, the start and end of the command, its exit code
and peak memory, and with ``--trace`` its spans and counts.  ``--probe`` stops after the import.  ``--digest`` adds a
sha256 of the largest Cayley table the command built or loaded.
"""

import sys
import time

import superx.cli as cli

IMPORTED = time.perf_counter()
IMPORTED_CPU = time.process_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402


def _capture_largest_table(table_cls, kept: list):
    original = table_cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if not kept or self.order > kept[0].order:
            kept[:] = [self]

    table_cls.__init__ = init
    return original


def table_digest(product) -> str:
    """sha256 of the product table as little-endian int32, row by row."""
    h = hashlib.sha256(str(product.shape).encode())
    for start in range(0, product.shape[0], 256):
        h.update(np.ascontiguousarray(product[start : start + 256], dtype="<i4").tobytes())
    return h.hexdigest()


def main() -> int:
    split = sys.argv.index("--") if "--" in sys.argv else len(sys.argv)
    parser = argparse.ArgumentParser()
    parser.add_argument("record")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--digest", action="store_true")
    args = parser.parse_args(sys.argv[1:split])
    argv = sys.argv[split + 1 :]
    record = {"imported": IMPORTED, "imported_cpu": IMPORTED_CPU}
    if not args.probe:
        tables: list = []
        if args.digest:
            table_cls = sys.modules["superx.semigroups"].SemigroupTable
            init = _capture_largest_table(table_cls, tables)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            replaced = tracing.install(tracer)
        start = time.perf_counter()
        code = cli.main(argv)
        sys.stdout.flush()
        end = time.perf_counter()
        record.update(
            start=start,
            end=end,
            exit=code,
            max_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if args.trace:
            tracing.restore(replaced)
            record.update(spans=tracer.spans, counts=dict(tracer.counts))
        if args.digest:
            table_cls.__init__ = init
            record["table_digest"] = table_digest(tables[0].product) if tables else None
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
