"""What the gate costs: wall-clock latency and flop counts per sequence
length, learned gate versus disabled. The flop delta has a closed form:
2 * layers * (n*d^2 + n*d) for the extra matmul, sigmoid, and product.

Run: python demos/06_latency_and_flops.py
"""

from synres.evalsuite import latency_bench
from synres.model import GateMode, ModelConfig, count_flops, init_params
from synres.numcore import Rng

cfg = ModelConfig(vocab_size=64, d_model=64, n_heads=4, n_layers=2, d_ff=256,
                  max_seq_len=1000)
params = init_params(cfg, Rng(0))
lens = (128, 256, 512, 1000)

curves = {
    mode: latency_bench(params.with_gate_mode(mode), seq_lens=lens, repetitions=20)
    for mode in (GateMode.LEARNED, GateMode.DISABLED)
}

print(f"{'n':>5} {'gate ms':>9} {'plain ms':>9} {'ratio':>6} {'flop delta':>12} {'closed form':>12}")
for on, off in zip(curves[GateMode.LEARNED], curves[GateMode.DISABLED]):
    n = on.seq_len
    closed = 2 * cfg.n_layers * (n * cfg.d_model**2 + n * cfg.d_model)
    print(f"{n:>5} {on.median_ms:>9.2f} {off.median_ms:>9.2f} "
          f"{on.median_ms / off.median_ms:>6.3f} {on.flops - off.flops:>12} {closed:>12}")

fc = count_flops(cfg, 1000, GateMode.LEARNED)
print(f"\nflop census at n=1000: attention {fc.attention:.2e}, ffn {fc.ffn:.2e}, "
      f"gate {fc.gate:.2e} ({100 * fc.gate / fc.total:.1f}% of total)")
