"""Train the gated micro-transformer on the copy task and watch the loss
curve collapse once attention locks onto the payload.

Runs in about a minute on a laptop CPU.
Run: python demos/03_train_copy_task.py
"""

import numpy as np

from synres.datagen import TaskSpec, VocabLayout, build_task_data
from synres.evalsuite import masked_accuracy
from synres.model import ModelConfig
from synres.train import TrainConfig, run_training

model_cfg = ModelConfig(
    vocab_size=64, d_model=64, n_heads=4, n_layers=2, d_ff=256, max_seq_len=40
)
task = TaskSpec(kind="copy", seq_len=34, samples=2048, seed=1)  # 16-token payload
layout = VocabLayout.synthetic(64)
data = build_task_data(task, layout)
train_cfg = TrainConfig(epochs=10, batch_size=32, lr=1.0, grad_clip=1.0, seed=4)

print(f"copy task: {data[0].n_rows} train rows, payload {task.payload_len}, "
      f"uniform CE would be {np.log(64):.3f}")
print(f"{'epoch':>5} {'loss':>8} {'ce':>8} {'val ppl':>9} {'lr':>7}")

result = run_training(
    model_cfg, train_cfg, data,
    on_epoch=lambda _, r: print(
        f"{r.epoch:>5} {r.mean_loss:>8.4f} {r.mean_ce:>8.4f} {r.val_ppl:>9.3f} {r.lr:>7.4f}"
    ),
)

accuracy = masked_accuracy(result.params, data[1])
print(f"\ncopy-region exact-match accuracy on held-out rows: {100 * accuracy:.2f}%")
print(f"batch stream digest (replays bitwise across runs): {result.stream_digest[:16]}...")
