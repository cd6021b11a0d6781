"""Prompt-conditioned feature enhancement and the consistency squeeze.

A support video rides through the transformer twice: once stacked on its
class prompt token (the real pass) and once on a keyed random stand-in
(the fake pass). The consistency loss pulls the two enhanced features
together; a few optimizer steps here show the gap closing while the
class prototype stays the plain mean of the real support features.
"""

import numpy as np

from cpm2c import cpm, tensor as T
from cpm2c.nn import Adam
from cpm2c.tensor import Tape, Tensor, backward

FRAMES, DIM, SHOT = 8, 32, 3

rng = np.random.default_rng(0)
branch = cpm.CpmBranch(seq_len=FRAMES + 1, dim=DIM, num_heads=4, rng=rng)
params = branch.named_parameters("branch")
print(f"branch parameters   {len(params)} tensors, "
      f"{sum(p.size for _, p in params)} scalars")

# one class: SHOT support videos, all under the class prompt token
videos = Tensor(rng.standard_normal((SHOT, FRAMES, DIM)).astype(np.float32))
prompt = rng.standard_normal(DIM).astype(np.float32)
prompts = Tensor(np.tile(prompt, (SHOT, 1)))
fakes = Tensor(cpm.fake_token(DIM, 0, [0], SHOT, "normal")[0])
print("fake tokens keyed by (run 0, episode 0, branch 'normal'), "
      "one row per video")

opt = Adam(params, lr=1e-3)
for step in range(41):
    with Tape():
        reals = cpm.feature_enhance_batch(branch, videos, prompts)
        stand_ins = cpm.feature_enhance_batch(branch, videos, fakes)
        diff = T.sub(stand_ins, reals)
        loss = T.reduce_mean(T.mul(diff, diff))
    backward(loss)
    if step % 10 == 0:
        proto = T.reduce_mean(reals, axis=0)
        print(f"step {step:>3}  consistency {float(loss.data):8.4f}  "
              f"prototype norm {float(np.linalg.norm(proto.data)):7.2f}")
    opt.step()
    opt.zero_grad()

# the prototype really is the mean of the real-pass features
proto = T.reduce_mean(reals, axis=0)
mean = sum(reals.data[v] for v in range(SHOT)) / SHOT
print(f"prototype == mean   {bool(np.allclose(proto.data, mean, atol=1e-6))}")
