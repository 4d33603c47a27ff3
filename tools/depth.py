"""Time and peak memory of one deep tower, decomposed and verified.

    python tools/depth.py DEPTH [--template corner|boundary_chain]

Generates one crepant pair of depth DEPTH from the template, with generator
seed DEPTH, decomposes it, and replays the trace with `verify_trace` on a
fresh copy of the configuration.  Prints one JSON line: the number of
steps, the CPU seconds of decompose and of verify, and the peak resident
set size of this process in MB, which covers generation too.  Run each
measurement in its own process, since the peak never falls.  The exit
code is 1 when the trace does not verify.

Reads `src/` of the checkout this script lives in.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from logsurf import CurveConfig, decompose_morphism, generate_crepant_pair, verify_trace  # noqa: E402

# Two rational curves crossing once, both of coefficient 1: of
# self-intersection 0 (a corner) or −2 (a boundary chain).
TEMPLATES = {"corner": 0, "boundary_chain": -2}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("depth", type=int, help="the number of blow-ups, also the generator seed")
    parser.add_argument("--template", choices=sorted(TEMPLATES), default="corner")
    args = parser.parse_args(argv)

    self_intersection = TEMPLATES[args.template]
    template = CurveConfig.build(
        [(1, 0, self_intersection, 1), (2, 0, self_intersection, 1)], [(1, [1, 2])]
    )
    spec = generate_crepant_pair(template, args.depth, args.depth)
    started = time.process_time()
    trace = decompose_morphism(spec)
    decomposed = time.process_time()
    config = spec.config
    copy = CurveConfig(config.curves, config.points, config.picard_rank_of_model)
    result = verify_trace(copy, trace.start, trace)
    verified = time.process_time()
    print(json.dumps({
        "depth": args.depth,
        "template": args.template,
        "steps": len(trace.steps),
        "decompose_s": round(decomposed - started, 3),
        "verify_s": round(verified - decomposed, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "verified": bool(result),
    }))
    return 0 if result else 1


if __name__ == "__main__":
    sys.exit(main())
