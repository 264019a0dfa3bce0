#!/usr/bin/env python3
"""FABOP: design European functional airspace blocks from aircraft flows.

Reproduces the paper's application (§5): build the synthetic "country core
area" sector network (762 sectors of the 11 busiest European countries,
3 165 flow edges), cut it into k = 32 functional airspace blocks with
fusion-fission under the Mcut criterion, and report domain-level metrics —
flow containment, blocks crossing national borders (the FABOP novelty),
per-block connectivity.

Run:  python examples/atc_fabop.py [--k 32] [--budget 20]
"""

import argparse

from repro.api import Budget, solve
from repro.atc import BlockDesign, block_report, core_area_network


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=32, help="number of blocks")
    parser.add_argument("--budget", type=float, default=20.0,
                        help="seconds for the metaheuristic")
    parser.add_argument("--seed", type=int, default=2006)
    args = parser.parse_args()

    network = core_area_network(seed=args.seed)
    print(
        f"core area: {network.num_sectors} sectors, "
        f"{network.graph.num_edges} flow edges, "
        f"total flow {network.total_flow():,.0f} movements"
    )
    print(f"countries: {', '.join(network.countries)}\n")

    # The metaheuristic runs for the whole session budget.
    solved = solve(
        network.graph, args.k, "fusion-fission", seed=args.seed,
        budget=Budget(max_seconds=args.budget),
    )
    design = BlockDesign(network, solved.partition, solved.method)
    report = block_report(design)
    print(f"designed {report['num_blocks']} functional airspace blocks "
          f"with {design.method}:")
    print(f"  Mcut (optimised criterion) : {report['mcut']:.2f}")
    print(f"  flow kept inside blocks    : {report['containment']:.1%}")
    print(f"  inter-block flow           : {report['inter_block_flow']:,.0f}")
    print(f"  blocks crossing borders    : "
          f"{report['blocks_crossing_borders']} / {report['num_blocks']}")
    print(f"  connected blocks           : "
          f"{report['connected_blocks']} / {report['num_blocks']}")
    print(f"  block sizes (sectors)      : "
          f"{report['min_block_sectors']}..{report['max_block_sectors']}")

    # Per-block country composition for the first few blocks.
    print("\nsample blocks (id: sectors by country):")
    for block in range(min(6, design.num_blocks)):
        members = design.block_members(block)
        by_country: dict[str, int] = {}
        for s in members:
            c = network.country_of(int(s))
            by_country[c] = by_country.get(c, 0) + 1
        composition = ", ".join(
            f"{c}:{n}" for c, n in sorted(by_country.items(), key=lambda kv: -kv[1])
        )
        print(f"  block {block:>2} ({members.size:>3} sectors): {composition}")


if __name__ == "__main__":
    main()
