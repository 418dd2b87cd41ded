"""Tour of the tensor core: compose ops on a tape, run backward, and verify
every gradient against central finite differences.

Run: python demos/01_autodiff_and_gradcheck.py
"""

import numpy as np

from synres import numcore as nc

# build a tiny computation: loss = ||sigmoid(x @ w) * y||^2
rng = nc.Rng(7)
x = nc.Tensor2(rng.normal(3, 4, 1.0, dtype=np.float64))
w = nc.Tensor2(rng.normal(4, 4, 1.0, dtype=np.float64))
y = nc.Tensor2(rng.normal(3, 4, 1.0, dtype=np.float64))

graph = nc.GradGraph()
gated = nc.hadamard(nc.sigmoid(nc.matmul(x, w, graph), graph), y, graph)
loss = nc.frobenius_sq(gated, graph)
print(f"forward: loss = {loss.item():.6f} from {graph.n_ops} recorded ops")

grads = nc.backward(graph, loss, [x, w, y])
print(f"backward returned {len(grads)} gradients, one per requested tensor")
print("gradient of x, first row:", np.round(grads[0][0], 4))
try:  # the sweep drops each vjp once it has run, so a graph is swept once
    nc.backward(graph, loss, [x])
except ValueError as err:
    print("a second sweep:", err)

# the same function as a closure, re-run per perturbed element
def fn(inputs, g):
    xx, ww, yy = inputs
    return nc.frobenius_sq(
        nc.hadamard(nc.sigmoid(nc.matmul(xx, ww, g), g), yy, g), g
    )

err = nc.grad_check(fn, [x, w, y], eps=1e-5)
print(f"finite-difference check: max relative error {err:.2e}")
assert err < 1e-6

# a tensor with no path to the loss gets an exact-zero gradient
dead = nc.Tensor2(rng.normal(2, 2, 1.0, dtype=np.float64))
graph2 = nc.GradGraph()
(dead_grad,) = nc.backward(graph2, nc.frobenius_sq(x, graph2), [dead])
print("unreachable tensor gradient is exactly zero:", bool((dead_grad == 0).all()))
