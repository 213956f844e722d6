"""Write frozen.json: answers the benchmark checks that have no closed form.

Stiefel-Whitney heights of w1 and the text of the `table` subcommand are
recorded from the current program, so later versions are held to the same
answers.  Run from the repository root:

    python3 kbench/freeze.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from kregular.cli import main  # noqa: E402
from workloads import FROZEN_PATH, height_keys  # noqa: E402

TABLE_MAX_M = 96


def _stdout_of(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return out.getvalue()


def freeze() -> None:
    sw_heights = {}
    for regime, k, n in height_keys():
        if regime == "real":
            text = _stdout_of(["height", "--k", str(k), "--n", str(n),
                               "--regime", "real"])
            sw_heights[f"{k},{n}"] = int(text)
    table = {str(m): _stdout_of(["table", f"RP^{m}"])
             for m in range(2, TABLE_MAX_M + 1)}
    frozen = {"sw_heights": sw_heights, "table_max_m": TABLE_MAX_M,
              "table": table}
    with open(FROZEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    freeze()
