#!/usr/bin/env python3
"""Render the FABOP block design as an SVG map.

Builds the synthetic European core-area network, designs functional
airspace blocks with the multilevel method (fast) or fusion-fission
(``--method fusion-fission --budget 30``), and writes an SVG where each
sector is a dot coloured by its block, with inter-block flows greyed out —
the visual counterpart of `examples/atc_fabop.py`.

Run:  python examples/atc_fabop_map.py -o blocks.svg
"""

import argparse

from repro.api import Budget, solve
from repro.atc import BlockDesign, core_area_network
from repro.viz import render_partition_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=32)
    parser.add_argument("--method", default="multilevel")
    parser.add_argument("--budget", type=float, default=None)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("-o", "--output", default="blocks.svg")
    args = parser.parse_args()

    network = core_area_network(seed=args.seed)
    solved = solve(
        network.graph, args.k, args.method, seed=args.seed,
        budget=Budget(max_seconds=args.budget),
    )
    design = BlockDesign(network, solved.partition, solved.method)
    render_partition_svg(
        network.graph,
        network.positions(),
        design.partition.assignment,
        path=args.output,
    )
    print(
        f"wrote {args.output}: {design.num_blocks} blocks, "
        f"{design.containment():.1%} of flow contained, "
        f"{design.border_crossing_blocks()} blocks cross borders"
    )


if __name__ == "__main__":
    main()
