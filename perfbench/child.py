"""One vec2gc command in a fresh interpreter, timed from the inside.

Usage: python3 child.py <checkout-root> <result.json> <vec2gc argv...>

Times `import vec2gc.cli` (setup_s) and `vec2gc.cli.main(argv)`
(wall_s), and a fixed probe workload just before and after main
(probe_s), writes them to <result.json> and exits with main's code. The
parent reads peak RSS from os.wait4, so the numbers here are times only.

The probe is benchmark code that no change to vec2gc can speed up or
slow down. Its median over a run tells how fast the machine ran during
that run, which run.py uses to scale the run's times.
"""

import json
import os
import sys
import time


def run(root: str, result_path: str, argv: list[str]) -> int:
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import vec2gc.cli

    setup_s = time.perf_counter() - t0
    if os.path.commonpath([os.path.abspath(vec2gc.cli.__file__), src]) != src:
        print(f"vec2gc imported from {vec2gc.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    before = probe()
    t1 = time.perf_counter()
    code = vec2gc.cli.main(argv)
    wall_s = time.perf_counter() - t1
    after = probe()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s, "probe_s": (before + after) / 2, "code": code}, fh)
    return code


def probe() -> float:
    """Seconds this process takes for a fixed mix of interpreter and numpy work."""
    import numpy as np

    t0 = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(100_000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
    a = np.arange(100_000, dtype=np.float64)
    for _ in range(25):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
