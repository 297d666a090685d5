"""Shared test utilities: numerical gradient checking, tiny fixtures,
FedAvg's one-row server state and a per-kind view of the round engine's
event log.

The gradient checker is the backbone of the ``repro.nn`` test suite:
every layer's analytic backward pass is compared against central-
difference numerical gradients on float64 inputs.  To keep the suite
fast, a random subset of coordinates is probed per tensor (enough to
catch any indexing/transposition bug, which corrupts most coordinates).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClusteredRounds
from repro.nn.module import Module


def loss_for(module: Module, x: np.ndarray, probe: np.ndarray) -> float:
    """Scalar projection loss ``sum(forward(x) * probe)``.

    A fixed random projection makes the upstream gradient of the output
    exactly ``probe``, so ``module.backward(probe)`` should produce the
    analytic gradients of this loss.
    """
    return float((module.forward(x) * probe).sum())


def numerical_grad_entries(
    f,
    array: np.ndarray,
    indices: list[tuple[int, ...]],
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference derivative of ``f()`` w.r.t. chosen entries of
    ``array`` (mutated in place and restored)."""
    out = np.zeros(len(indices))
    for n, idx in enumerate(indices):
        original = array[idx]
        array[idx] = original + eps
        f_plus = f()
        array[idx] = original - eps
        f_minus = f()
        array[idx] = original
        out[n] = (f_plus - f_minus) / (2 * eps)
    return out


def sample_indices(
    shape: tuple[int, ...], rng: np.random.Generator, max_entries: int = 24
) -> list[tuple[int, ...]]:
    """Up to ``max_entries`` distinct coordinates of an array shape."""
    total = int(np.prod(shape))
    count = min(max_entries, total)
    flat = rng.choice(total, size=count, replace=False)
    return [tuple(int(v) for v in np.unravel_index(i, shape)) for i in flat]


def check_module_gradients(
    module: Module,
    x: np.ndarray,
    rng: np.random.Generator,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    check_input: bool = True,
) -> None:
    """Assert analytic == numerical gradients for a module.

    ``x`` must be float64 (and the module's parameters should be too) so
    the central differences are accurate.
    """
    assert x.dtype == np.float64, "gradient checks need float64 inputs"
    out = module.forward(x)
    probe = rng.standard_normal(out.shape)

    module.zero_grad()
    module.forward(x)  # fresh cache for the checked backward
    grad_input = module.backward(probe.copy())
    assert grad_input.shape == x.shape

    def f() -> float:
        return loss_for(module, x, probe)

    if check_input:
        idx = sample_indices(x.shape, rng)
        numeric = numerical_grad_entries(f, x, idx)
        analytic = np.array([grad_input[i] for i in idx])
        np.testing.assert_allclose(
            analytic, numeric, rtol=rtol, atol=atol,
            err_msg=f"input gradient mismatch for {type(module).__name__}",
        )

    for name, param in module.named_parameters():
        idx = sample_indices(param.data.shape, rng)
        numeric = numerical_grad_entries(f, param.data, idx)
        analytic = np.array([param.grad[i] for i in idx])
        np.testing.assert_allclose(
            analytic, numeric, rtol=rtol, atol=atol,
            err_msg=f"parameter gradient mismatch for {name}",
        )


def to_float64(module: Module) -> Module:
    """Cast every parameter of a module to float64 in place."""
    for param in module.parameters():
        param.data = param.data.astype(np.float64)
        param.grad = np.zeros_like(param.data)
    return module


def fates(events, kind: str) -> list[tuple[int, int]]:
    """``(round, client id)`` of every ``kind`` record in a
    ``RoundEngine.events`` list, in log order."""
    return [(r, cid) for r, k, cid, _ in events if k == kind]


def global_rounds(env) -> ClusteredRounds:
    """FedAvg's server state on ``env``: the initial model as the one row
    of a :class:`ClusteredRounds`, every client labelled 0."""
    return ClusteredRounds(
        env.layout.pack(env.init_state())[None],
        np.zeros(env.federation.n_clients, dtype=np.int64),
    )
