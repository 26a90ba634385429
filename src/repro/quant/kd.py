"""Knowledge distillation loss (Section III-B of the paper).

The power-of-two tap-wise quantized network (student) is trained to match the
floating-point baseline (teacher) with the Kullback–Leibler divergence between
tempered softmax outputs, combined with the usual cross-entropy on the labels.
The paper notes that KD acts as an implicit regulariser that stabilises the
log2-gradient training.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.module import Module
from ..nn.tensor import Tensor, no_grad

__all__ = ["DistillationLoss", "TeacherDistillation"]


class DistillationLoss(Module):
    """``alpha * CE(student, labels) + (1 - alpha) * T² KL(teacher ‖ student)``.

    Parameters
    ----------
    temperature:
        Softmax temperature ``T`` (Hinton et al.).
    alpha:
        Weight of the hard-label cross-entropy term.  ``alpha = 1`` disables
        distillation, ``alpha = 0`` trains purely against the teacher.
    """

    def __init__(self, temperature: float = 4.0, alpha: float = 0.5):
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = float(temperature)
        self.alpha = float(alpha)

    def forward(self, student_logits: Tensor, teacher_logits: Tensor,
                labels: np.ndarray) -> Tensor:
        hard = F.cross_entropy(student_logits, labels)
        if self.alpha >= 1.0:
            return hard
        soft = F.kl_div_with_logits(student_logits, teacher_logits, self.temperature)
        if self.alpha <= 0.0:
            return soft
        return hard * self.alpha + soft * (1.0 - self.alpha)


class TeacherDistillation:
    """Trainer ``loss=`` that runs a frozen teacher (eval mode, no graph) on
    the batch's images; it rides in the pool job to every shard worker."""

    def __init__(self, teacher: Module, temperature=4.0, alpha=0.5):
        self.teacher = teacher.eval()
        self.kd = DistillationLoss(temperature=temperature, alpha=alpha)

    def __call__(self, logits: Tensor, labels, images) -> Tensor:
        with no_grad():
            teacher_logits = self.teacher(Tensor(images))
        return self.kd(logits, teacher_logits, labels)
