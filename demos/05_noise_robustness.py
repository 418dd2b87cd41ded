"""Noise robustness: replace input tokens with uniform draws at rising rates
and track the masked-position error rate. The query marker and queried key
are protected so the task itself stays well-posed.

Run: python demos/05_noise_robustness.py
"""

from synres.datagen import TaskSpec, VocabLayout, gen_kv_recall, inject_noise
from synres.evalsuite import lookup_oracle, noise_robustness
from synres.model import ModelConfig, init_params
from synres.numcore import Rng

task = TaskSpec.kv_recall(distances=(8, 16), samples=2000, seed=3)
layout = VocabLayout.synthetic(5 + task.pairs + 16, n_keys=task.pairs, n_values=16)
data = gen_kv_recall(task, layout, Rng(3))

# how badly does noise hurt a perfect reader? the lookup oracle degrades
# gracefully until the planted pair itself is destroyed
print("lookup-oracle error rate under noise:")
for level in (0, 10, 20, 30, 100):
    noisy = inject_noise(data, level / 100, layout, Rng(40 + level))
    answers = lookup_oracle(noisy)
    err = 100.0 * float((answers != noisy.targets[:, -1]).mean())
    print(f"  noise {level:>3}%: error {err:6.2f}%")

cfg = ModelConfig(vocab_size=layout.vocab_size, d_model=32, n_heads=4, n_layers=2,
                  d_ff=64, max_seq_len=task.seq_len)
params = init_params(cfg, Rng(11))
grid = noise_robustness(params, data, layout, rng=Rng(12))
print("\nuntrained model noise grid (error stays at chance):")
for level, err in grid:
    print(f"  noise {level:>4.0f}%: error {err:6.2f}%")
