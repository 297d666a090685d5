#!/usr/bin/env python3
"""Layer-wise weight-distance probe — the paper's Fig. 1, in your terminal.

Ten clients in two planted label groups (G1 = classes 0–4, G2 = 5–9)
train a scaled VGG-16-layout network locally from a shared init.  For
each probed weighted layer the pairwise Euclidean distance matrix
between clients' weights is rendered as a heat map (dark = similar).
The block structure — invisible at Layer 1, crisp at Layer 16 — is the
entire motivation for FedClust's partial-weight upload.

Run:
    python examples/layer_probe.py
    python examples/layer_probe.py --layers 1 4 8 12 16 --steps 40
"""

from __future__ import annotations

import argparse

from repro.experiments.fig1 import format_fig1, run_fig1
from repro.experiments.presets import get_scale
from repro.utils.logging import enable_console_logging


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="cifar10")
    parser.add_argument("--clients", type=int, default=10)
    parser.add_argument("--layers", type=int, nargs="+", default=[1, 7, 14, 16],
                        help="1-based weighted-layer indices (VGG-16 layout has 16)")
    parser.add_argument("--steps", type=int, default=None,
                        help="local SGD steps per client (default: scale preset)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    enable_console_logging()

    result = run_fig1(
        dataset=args.dataset,
        n_clients=args.clients,
        selections=tuple(f"index:{i}" for i in args.layers),
        scale=get_scale("quick"),
        seed=args.seed,
        local_steps=args.steps,
    )
    print()
    print(f"clients 0..{args.clients - 1}; even ids hold classes 0-4, "
          "odd ids hold classes 5-9")
    print(format_fig1(result))
    best = result.best_selection()
    print(f"\nmost distribution-revealing layer: {best} "
          f"({result.probes[best].name}) — FedClust uploads exactly this "
          "(the final layer) for clustering.")


if __name__ == "__main__":
    main()
