#!/usr/bin/env python3
"""How well do estimated potentials recover a planted issuer hierarchy?

Sweeps the copy probability and reports, per level, the mean Kendall tau
between the planted ranking and the potential ordering across seeds, plus
the mean gradient ratio of the resulting flow networks.

Usage: python3 scripts/planted_hierarchy_experiment.py [--seeds N]
"""

import argparse

from scipy.stats import kendalltau

from sanctionflow import (SynthConfig, build_institution_network, solve,
                          symmetrize, synth_generate)


def recovery_tau(config, seed):
    events = synth_generate(config, seed)
    net = build_institution_network(events)
    decomp = solve(symmetrize(net, "mean"))
    ranks = config.issuer_ranks()
    index = {node: k for k, node in enumerate(net.nodes)}
    phi = decomp.potentials.phi.tolist()  # in net.nodes order
    phis = [phi[index[name]] if name in index else 0.0
            for name in (f"ISS{i:03d}" for i in range(config.n_issuers))]
    return (kendalltau(phis, [-r for r in ranks]).statistic,
            decomp.gradient_ratio)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--issuers", type=int, default=6)
    parser.add_argument("--entities", type=int, default=120)
    args = parser.parse_args()

    print(f"{'copy_prob':>10} {'mean_tau':>10} {'mean_grad_ratio':>16}")
    for p in (0.3, 0.5, 0.7, 0.9, 1.0):
        config = SynthConfig(n_issuers=args.issuers, n_entities=args.entities,
                             copy_prob=p)
        taus, grads = zip(*(recovery_tau(config, s)
                            for s in range(args.seeds)))
        print(f"{p:>10.2f} {sum(taus) / len(taus):>10.3f} "
              f"{sum(grads) / len(grads):>16.3f}")


if __name__ == "__main__":
    main()
