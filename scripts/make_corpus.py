#!/usr/bin/env python3
"""Write the default benchmark corpus as instance files.

Usage: python scripts/make_corpus.py OUTDIR [--count N]

The per-seed parameters match the acceptance corpus, so
``rkec bench --corpus OUTDIR`` reproduces the headline numbers.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rkec.cli import _size_cap, _write  # noqa: E402
from rkec.generate import default_corpus_params, generate_instance  # noqa: E402
from rkec.instance import instance_to_json  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir")
    parser.add_argument("--count", type=_size_cap, default=500)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for seed in range(1, args.count + 1):
        inst = generate_instance(default_corpus_params(seed))
        _write(outdir / f"inst_{seed:04d}.json", instance_to_json(inst))
    print(f"wrote {args.count} instances to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
