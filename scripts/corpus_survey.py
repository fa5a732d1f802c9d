#!/usr/bin/env python3
"""Survey the corpus: connectivity class, exact Frank number where enumerable,
and the certificate sizes each pipeline achieves.

Usage: python scripts/corpus_survey.py [--limit-edges N]
"""

import argparse
import sys
import time

from orientcover.corpus import corpus_names, named_graph
from orientcover.errors import GraphToolkitError
from orientcover.exact import SolveLimits, frank_lower_bound, frank_number_exact
from orientcover.pipelines import certify_bf5, certify_color3, certify_esse4, certify_upper7


def survey(limit_edges: int) -> None:
    limits = SolveLimits(max_enumerable_edges=limit_edges)
    header = f"{'graph':16} {'n':>3} {'m':>3} {'lam':>3} {'e4ec':>5} {'f':>4} {'seven':>6} {'color3':>7} {'bf5':>4} {'esse4':>6}"
    print(header)
    print("-" * len(header))
    for name in corpus_names():
        g = named_graph(name)
        lam = g.edge_connectivity()
        esse4 = g.is_essentially_4ec()
        row = [f"{name:16}", f"{g.num_vertices:>3}", f"{g.num_edges:>3}", f"{lam:>3}",
               f"{str(esse4):>5}"]
        if lam >= 3 and g.num_edges <= limit_edges:
            k, _ = frank_number_exact(g, limits)
            row.append(f"{k:>4}")
        elif lam >= 3:
            row.append(f">={frank_lower_bound(g):>2}")
        else:
            row.append("   -")
        for fn in (certify_upper7, certify_color3, certify_bf5, certify_esse4):
            try:
                report = fn(g)
                row.append(f"{len(report.certificate.orientations):>6}")
            except GraphToolkitError:
                row.append(f"{'-':>6}")
        print(" ".join(row))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit-edges", type=int, default=22)
    args = parser.parse_args()
    start = time.monotonic()
    survey(args.limit_edges)
    print(f"\nfinished in {time.monotonic() - start:.1f}s", file=sys.stderr)
