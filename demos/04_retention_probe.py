"""Memory retention, made measurable: plant key-value pairs, pad with
filler, then query one key at a controlled token distance. Exact-match
recall per distance is the retention curve.

Run: python demos/04_retention_probe.py
"""

from synres.datagen import TaskSpec, VocabLayout, gen_kv_recall
from synres.evalsuite import oracle_retention, retention_probe, score, value_range_for
from synres.model import ModelConfig, init_params
from synres.numcore import Rng

task = TaskSpec.kv_recall(distances=(16, 32, 64), samples=3000, seed=9)
layout = VocabLayout.synthetic(5 + task.pairs + 16, n_keys=task.pairs, n_values=16)
data = gen_kv_recall(task, layout, Rng(9))
print(f"rows look like [K1 V1 ... K{task.pairs} V{task.pairs}, filler..., QUERY, K_i]")
print(f"seq_len {task.seq_len}, {task.pairs} pairs, 16 possible values\n")

# a non-neural lookup oracle bounds the scorer from above
oracle = oracle_retention(data)
print(f"lookup oracle (reads the prefix directly): {oracle.aggregate_percent:.1f}%")

# an untrained model sits at chance level 1/16
cfg = ModelConfig(vocab_size=layout.vocab_size, d_model=32, n_heads=4, n_layers=2,
                  d_ff=64, max_seq_len=task.seq_len)
# retention reads argmax over the value tokens, so chance is exactly 1/16
report = retention_probe(score(init_params(cfg, Rng(1)), data, value_range_for(data, layout)))
print(f"untrained model: {report.aggregate_percent:.2f}% (chance is {100 / 16:.2f}%)")
print("\nper-distance accuracy (untrained):")
for d, acc in report.per_distance.items():
    print(f"  distance {d:>3}: {100 * acc:5.2f}%  ({report.counts[d]} samples)")
