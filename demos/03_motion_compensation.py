"""What the motion pathway sees, and what it is blind to.

Motion features average backward and forward frame differences taken
against compensated neighbors. Because the two streams cancel exactly
when the compensation stack is a pass-through, the identity stack
yields zero motion for every video, static or not; a learned stack has
to bend the frames for motion to speak at all. Once it does, the
features respond to frame order while pooled appearance stays blind.
"""

import numpy as np

from cpm2c import motion
from cpm2c.nn import PhiStack
from cpm2c.tensor import Tensor

FRAMES, DIM = 6, 16
rng = np.random.default_rng(2)

# probe 1: under the identity stack (zero blocks) the backward stream is
# the exact negative of the forward stream, so everything cancels
ident = PhiStack(DIM, 0)
still = np.tile(rng.standard_normal(DIM), (FRAMES, 1)).astype(np.float32)
clip = rng.standard_normal((FRAMES, DIM)).astype(np.float32)
for name, video in (("static video", still), ("moving clip", clip)):
    m = motion.motion_features(ident, Tensor(video))
    print(f"identity stack      {name:<14} max |motion| = "
          f"{float(np.abs(m.data).max()):.2e}")

# probe 2: a random (linear, batchnorm, relu) stack breaks the
# cancellation and motion appears
phi = PhiStack(DIM, blocks=2, rng=rng)
m_plain = motion.motion_features(phi, Tensor(clip))
print(f"random stack        moving clip    max |motion| = "
      f"{float(np.abs(m_plain.data).max()):.2f}")

# probe 3: swapping two frames moves the motion features while the
# frame mean that appearance matching pools over cannot tell
swapped = clip.copy()
swapped[[1, 2]] = swapped[[2, 1]]
m_swap = motion.motion_features(phi, Tensor(swapped))
shift = float(np.abs(m_plain.data - m_swap.data).max())
pooled = float(np.abs(clip.mean(axis=0) - swapped.mean(axis=0)).max())
print(f"swap frames 1,2     motion shifts by {shift:.3f}, "
      f"pooled appearance by {pooled:.1e}")

# probe 4: each motion row summarizes an unordered adjacent pair, so
# playing the clip backwards just reverses the row order; telling a
# clip from its reverse is the alignment module's job
m_rev = motion.motion_features(phi, Tensor(clip[::-1].copy()))
flipped = bool(np.allclose(m_rev.data, m_plain.data[::-1], atol=1e-6))
print(f"time reversal       rows reversed = {flipped}")
