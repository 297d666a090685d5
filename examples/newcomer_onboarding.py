#!/usr/bin/env python3
"""Real-time newcomer onboarding — the paper's Fig. 2, step ⑥.

A federation of clients in two latent groups trains with FedClust.  A new
client then joins *after* the one-shot clustering round.  FedClust assigns
it to an existing cluster from a single partial-weight upload — no
re-clustering, no extra rounds — and the newcomer immediately benefits
from its cluster's model.

Run:
    python examples/newcomer_onboarding.py
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import FederatedEnv, FedClust, FedClustConfig, TrainConfig, build_federation
from repro.fl.evaluation import evaluate_model
from repro.utils.logging import enable_console_logging


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="fmnist")
    parser.add_argument("--clients", type=int, default=10,
                        help="initial federation size (one extra client joins later)")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    enable_console_logging()

    # Generate clients in two planted label groups; hold the last one out.
    full = build_federation(
        args.dataset,
        n_clients=args.clients + 1,
        n_samples=2200,
        seed=args.seed,
        partition="label_cluster",
    )
    newcomer = full.clients[args.clients]
    newcomer_group = int(full.true_groups[args.clients])
    federation = full.subset(list(range(args.clients)))
    print(federation.summary())
    print(f"newcomer held out: client with label group G{newcomer_group + 1}")

    env = FederatedEnv(
        federation,
        model_name="lenet5",
        train_cfg=TrainConfig(local_epochs=1, batch_size=32, lr=0.03, momentum=0.9),
        seed=args.seed,
    )
    algorithm = FedClust(
        FedClustConfig(warmup_steps=20, warmup_lr=0.01, warm_start_final_layer=True)
    )
    result = algorithm.run(env, n_rounds=args.rounds, eval_every=2)
    fitted = result.extras["fitted"]
    print(f"\ntrained {args.rounds} rounds; clusters found: {result.n_clusters}")
    for g in range(result.n_clusters):
        members = np.flatnonzero(result.cluster_labels == g)
        groups = set(int(x) for x in federation.true_groups[members])
        print(f"  cluster {g}: clients {members.tolist()} "
              f"(true groups {sorted(groups)})")

    print("\n-- newcomer joins --")
    assignment, serving_state = algorithm.incorporate_newcomer(
        env, fitted, newcomer.train, newcomer_id=args.clients
    )
    print(f"uploaded {fitted.weight_matrix.shape[1]} partial weights "
          f"(vs {env.n_params} full-model parameters)")
    print(f"assigned to cluster {assignment.cluster} "
          f"(margin over runner-up: {assignment.margin:.2f})")

    env.scratch_model.load_state_dict(dict(serving_state))
    with_cluster = evaluate_model(env.scratch_model, newcomer.test).accuracy
    env.scratch_model.load_state_dict(env.init_state())
    with_init = evaluate_model(env.scratch_model, newcomer.test).accuracy
    print(f"newcomer local-test accuracy: {with_cluster:.3f} with its cluster "
          f"model vs {with_init:.3f} with the initial global model")


if __name__ == "__main__":
    main()
