"""Reference Adam step: one whole-array expression per update, kept as a test oracle.

``Adam.step`` walks each parameter in slices of about ``ADAM_BLOCK`` floats,
updating the moments in place and writing each slice of the new parameter
into one fresh array.  ``ReferenceAdam.step`` is the update as it was
written before: each of ``m``, ``v`` and ``p.data`` rebound to one
expression over the whole arrays, with about ten parameter-sized
temporaries.  Both evaluate the same operations in the same order, so they
must agree byte for byte.
"""

from __future__ import annotations

import numpy as np

from syngcn.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam, OptimizationError


class ReferenceAdam(Adam):
    def step(self) -> None:
        self.t += 1
        c1, c2 = 1 - ADAM_BETA1**self.t, 1 - ADAM_BETA2**self.t
        decay = 1.0 - self.lr * self.weight_decay
        for name, p in self.named_params:
            g = 0.0 if p.grad is None else p.grad
            if not np.all(np.isfinite(g)):
                raise OptimizationError(f"non-finite gradient in {name}")
            m = self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
            v = self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g * g
            p.data = p.data * decay - self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
