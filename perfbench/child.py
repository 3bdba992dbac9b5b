"""One `relaypower run` in a fresh process, with two timing marks.

    python3 perfbench/child.py TIMES_JSON SPANS_JSONL|- RUN_ID run SCENARIO [relaypower options]

The arguments after RUN_ID go to `relaypower.cli.main` unchanged. The child
records CLOCK_MONOTONIC when `load_spec` returns (spec loaded) and when
`run_experiment` returns (outputs written), at the names `cli` looks them
up by, and writes both to TIMES_JSON. The parent reads the clock just
before it starts the child, so set-up covers interpreter start and imports.
With a spans path, every public function of the measured modules is also
wrapped (see spans.py) and the spans are written there at exit. The child
exits with the CLI's own exit code.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mark(marks: dict, key: str, fn):
    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks[key] = time.monotonic()
        return result
    return marked


def main() -> int:
    times_path, spans_path, run_id, *argv = sys.argv[1:]
    import relaypower
    import relaypower.cli as cli

    src = ROOT / "src"
    if Path(relaypower.__file__).resolve().parent != src / "relaypower":
        print(f"child: relaypower imported from {relaypower.__file__}, not {src}", file=sys.stderr)
        return 3
    recorder = None
    if spans_path != "-":
        import spans
        recorder = spans.Recorder(int(run_id))
        spans.install(recorder)
    marks: dict[str, float] = {}
    cli.load_spec = _mark(marks, "loaded", cli.load_spec)
    cli.run_experiment = _mark(marks, "done", cli.run_experiment)
    code = cli.main(argv)
    with open(times_path, "w") as fh:
        json.dump({"code": code, **marks}, fh)
    if recorder is not None:
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
