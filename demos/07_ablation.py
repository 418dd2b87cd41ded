"""Controlled ablation: two full trainings differing only in whether the
gate is learned or disabled — same seeds, so one init and bitwise-identical
batch streams — then paired perplexity, retention, and noise metrics. Each
arm is bitwise the run `synres train --gate-mode learned|disabled` makes of
the same [model], [train] and [task] sections. Deltas are reported with
their sign, not asserted: at desk scale either arm can win.

Runs in about ten seconds.
Run: python demos/07_ablation.py
"""

from synres.datagen import TaskSpec
from synres.model import ModelConfig
from synres.train import TrainConfig, ablate

task = TaskSpec.kv_recall(distances=(16, 32, 64), samples=768, seed=5)
model_cfg = ModelConfig(vocab_size=5 + task.pairs + 16, d_model=32, n_heads=4,
                        n_layers=2, d_ff=64, max_seq_len=task.seq_len)
train_cfg = TrainConfig(epochs=6, batch_size=32, lr=0.5, grad_clip=1.0, seed=6)

result = ablate(model_cfg, train_cfg, task)

assert result.learned.stream_digest == result.disabled.stream_digest
print(f"batch streams paired: digest {result.learned.stream_digest[:16]}...\n")

print(f"{'arm':>9} {'val ppl':>9} {'retention':>10} {'err@20%':>8}  loss curve")
for arm in result.rows():
    err20 = dict(arm.noise_grid.rows)[20.0]
    curve = " ".join(f"{v:.2f}" for v in arm.loss_curve)
    print(f"{arm.gate_mode.value:>9} {arm.final_val_ppl:>9.3f} "
          f"{arm.retention_percent:>9.2f}% {err20:>7.1f}%  {curve}")

d_ppl = result.learned.final_val_ppl - result.disabled.final_val_ppl
d_ret = result.learned.retention_percent - result.disabled.retention_percent
print(f"\ndeltas (learned - disabled): perplexity {d_ppl:+.3f}, retention {d_ret:+.2f}%")
