"""The synaptic gate itself: a trainable matrix maps each attention output
row to a sigmoid relevance map r = sigmoid(a @ w_s), and the reinforced
output o = a * r is what flows onward. Gate modes make the mechanism
switchable for ablation.

Run: python demos/02_resonance_gate.py
"""

import numpy as np

from synres import numcore as nc
from synres.model import GateMode, resonance_gate

a = nc.tensor([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
w_s = nc.tensor([[2.0, 0.0], [0.0, 2.0]])

r, o = resonance_gate(a, w_s, GateMode.LEARNED)
print("attention output a:\n", a.data)
print("relevance r = sigmoid(a @ w_s):\n", np.round(r.data, 4))
print("reinforced o = a * r:\n", np.round(o.data, 4))

# a zero gate matrix is maximally undecided: every relevance is 0.5
r0, o0 = resonance_gate(a, nc.zeros(2, 2), GateMode.LEARNED)
print("\nzero w_s -> r is 0.5 everywhere, o halves a:", np.allclose(o0.data, 0.5 * a.data))

# forced_ones and disabled both bypass the gate, and in neither does a graph
# edge touch w_s; they differ only in returning r as ones or as None
off_graph = nc.GradGraph()
r1, o1 = resonance_gate(a, w_s, GateMode.FORCED_ONES, graph=off_graph)
r2, o2 = resonance_gate(a, w_s, GateMode.DISABLED, graph=off_graph)
print("forced_ones returns a itself, r all ones:", o1 is a, bool((r1.data == 1.0).all()))
print("disabled matches bitwise, r is None:", bool((o1.data == o2.data).all()), r2 is None)
print("graph records made by either mode:", off_graph.n_ops)

# gradients flow into w_s only in learned mode
graph = nc.GradGraph()
_, o3 = resonance_gate(a, w_s, GateMode.LEARNED, graph=graph)
(w_s_grad,) = nc.backward(graph, nc.frobenius_sq(o3, graph), [w_s])
print("\nlearned-mode gradient on w_s:\n", np.round(w_s_grad, 4))
