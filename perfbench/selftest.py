"""Self-test of the benchmark: every workload at a tiny size, in seconds.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that traced and untraced runs give identical outputs, that a different seed
changes the generated inputs, and that no operation fails. Exits 1 on the
first workload with a problem.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402  (pins BLAS threads before numpy loads)


def problems(name: str, spec: dict) -> list[str]:
    plain = bench.run(name, 5, 0, False, size="tiny")
    traced = bench.run(name, 5, 0, True, size="tiny")
    other = bench.run(name, 6, 0, False, size="tiny")
    found = []
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        if got != wanted:
            found.append(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(wanted.items()) ^ set(got.items()))}")
        if result["failed"]:
            found.append(f"{result['failed']} failed operations: {result['failures']}")
    outputs = plain["output_digests"] + traced["output_digests"]
    if any(passes != outputs[0] for passes in outputs):
        found.append("traced and untraced runs gave different outputs")
    if plain["input_digest"] != traced["input_digest"]:
        found.append("the same seed generated different inputs")
    if plain["input_digest"] == other["input_digest"]:
        found.append("a different seed generated the same inputs")
    return found


def main() -> int:
    bench.import_program()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for name in ("train_fresh", "compose_eval"):
        found = problems(name, spec)
        for problem in found:
            print(f"{name}: {problem}")
        if found:
            return 1
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
