"""Cold start of tailquant: import it in this fresh interpreter and answer a
first tiny `estimate` and `simulate` request, so that work done at import or
on first use is counted.  Prints the seconds this took, scaled to the
reference speed of `pace` by the median of reference loops run just before
and just after, and then the unscaled seconds.  The "import" mix imports
nothing, so numpy's import stays inside the timing.

    python bench/cold_start.py ROOT WORKDIR
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

from pace import REFERENCE_S, median, reference_loop

LOOPS = 3


def main(argv: list[str]) -> int:
    root, workdir = Path(argv[0]), Path(argv[1])
    data = workdir / "cold.txt"
    data.write_text("".join(f"{i / 7!r}\n" for i in range(40)), encoding="utf-8")
    requests = (
        ["estimate", str(data), "--p-value", "0.05", "--prior-mean", "0", "--prior-var", "1"],
        ["simulate", "--p", "0.1", "--n", "20", "--sigma2", "1", "--trials", "2",
         "--seed", "1", "--out", str(workdir / "cold.csv")],
    )
    before = [reference_loop("import") for _ in range(LOOPS)]
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import tailquant.cli

    with contextlib.redirect_stdout(io.StringIO()):
        codes = [tailquant.cli.main(argv) for argv in requests]
    elapsed = time.perf_counter() - t0
    loop_s = median(before + [reference_loop("import") for _ in range(LOOPS)])
    if any(codes):
        print(f"cold-start requests exited {codes}", file=sys.stderr)
        return 1
    print(repr(elapsed * REFERENCE_S["import"] / loop_s), repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
