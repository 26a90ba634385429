"""Optimizers and learning-rate schedulers.

The paper's training recipe uses plain SGD (with momentum) for the network
weights and Adam — with its built-in gradient normalisation — for the learned
log2 scale factors (Section III-B).  Both are provided here, alongside a
parameter-group mechanism and :class:`ChainedOptimizer`, which steps several
optimizers as one so that a single training loop drives both.
"""

from __future__ import annotations

import math

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "ChainedOptimizer", "StepLR",
           "CosineAnnealingLR"]


class Optimizer:
    """Base optimizer handling parameter groups."""

    def __init__(self, params, defaults: dict):
        self.defaults = dict(defaults)
        self.param_groups: list[dict] = []
        params = list(params)
        if params and isinstance(params[0], dict):
            for group in params:
                group = dict(group)
                group["params"] = list(group["params"])
                for key, value in defaults.items():
                    group.setdefault(key, value)
                self.param_groups.append(group)
        else:
            group = dict(defaults)
            group["params"] = params
            self.param_groups.append(group)
        self.state: dict[int, dict] = {}

    def zero_grad(self) -> None:
        for group in self.param_groups:
            for param in group["params"]:
                param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _param_state(self, param: Parameter) -> dict:
        return self.state.setdefault(id(param), {})

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Pickle-able snapshot of hyperparameters and per-parameter slots.

        Parameters are identified by their position across ``param_groups``
        (the same convention torch uses), so a state dict written by one
        process can be loaded by another whose parameters live at different
        addresses — a requirement for checkpoint/resume.
        """
        index: dict[int, int] = {}
        packed_groups: list[dict] = []
        for group in self.param_groups:
            entry = {key: value for key, value in group.items() if key != "params"}
            positions = []
            for param in group["params"]:
                if id(param) not in index:
                    index[id(param)] = len(index)
                positions.append(index[id(param)])
            entry["params"] = positions
            packed_groups.append(entry)
        state: dict[int, dict] = {}
        for group in self.param_groups:
            for param in group["params"]:
                slots = self.state.get(id(param))
                if slots:
                    state[index[id(param)]] = {
                        key: value.copy() if isinstance(value, np.ndarray) else value
                        for key, value in slots.items()}
        return {"state": state, "param_groups": packed_groups}

    def load_state_dict(self, state_dict: dict) -> None:
        """Restore hyperparameters and slots saved by :meth:`state_dict`."""
        saved_groups = state_dict["param_groups"]
        if len(saved_groups) != len(self.param_groups):
            raise ValueError(
                f"optimizer has {len(self.param_groups)} param groups, "
                f"state dict has {len(saved_groups)}")
        params_by_position: dict[int, Parameter] = {}
        for group, saved in zip(self.param_groups, saved_groups):
            if len(group["params"]) != len(saved["params"]):
                raise ValueError(
                    f"param group size mismatch: {len(group['params'])} vs "
                    f"{len(saved['params'])}")
            for param, position in zip(group["params"], saved["params"]):
                params_by_position[int(position)] = param
            for key, value in saved.items():
                if key != "params":
                    group[key] = value
        self.state = {}
        for position, slots in state_dict["state"].items():
            param = params_by_position[int(position)]
            self.state[id(param)] = {
                key: value.copy() if isinstance(value, np.ndarray) else value
                for key, value in slots.items()}


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params, lr: float = 0.1, momentum: float = 0.0,
                 weight_decay: float = 0.0, nesterov: bool = False):
        super().__init__(params, dict(lr=lr, momentum=momentum,
                                      weight_decay=weight_decay, nesterov=nesterov))

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            momentum = group["momentum"]
            weight_decay = group["weight_decay"]
            nesterov = group["nesterov"]
            for param in group["params"]:
                if param.grad is None:
                    continue
                grad = param.grad.astype(np.float64)
                if weight_decay:
                    grad = grad + weight_decay * param.data
                if momentum:
                    state = self._param_state(param)
                    buf = state.get("momentum_buffer")
                    if buf is None:
                        buf = grad.copy()
                    else:
                        buf = momentum * buf + grad
                    state["momentum_buffer"] = buf
                    grad = grad + momentum * buf if nesterov else buf
                param.data = param.data - lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba).

    The paper relies on Adam's per-parameter gradient normalisation to make
    the learned log2 scale factors converge independently of the magnitude of
    the quantized data (Section III-B, Eq. 3 discussion).
    """

    def __init__(self, params, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.99),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, dict(lr=lr, betas=betas, eps=eps, weight_decay=weight_decay))

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            beta1, beta2 = group["betas"]
            eps = group["eps"]
            weight_decay = group["weight_decay"]
            for param in group["params"]:
                if param.grad is None:
                    continue
                grad = param.grad.astype(np.float64)
                if weight_decay:
                    grad = grad + weight_decay * param.data
                state = self._param_state(param)
                if not state:
                    state["step"] = 0
                    state["exp_avg"] = np.zeros_like(param.data, dtype=np.float64)
                    state["exp_avg_sq"] = np.zeros_like(param.data, dtype=np.float64)
                state["step"] += 1
                step = state["step"]
                state["exp_avg"] = beta1 * state["exp_avg"] + (1 - beta1) * grad
                state["exp_avg_sq"] = beta2 * state["exp_avg_sq"] + (1 - beta2) * grad * grad
                bias_c1 = 1 - beta1 ** step
                bias_c2 = 1 - beta2 ** step
                denom = np.sqrt(state["exp_avg_sq"] / bias_c2) + eps
                param.data = param.data - lr * (state["exp_avg"] / bias_c1) / denom


class ChainedOptimizer:
    """Steps several optimizers in order, as one (e.g. SGD on the weights,
    then Adam on the learned ``log2 t``); its state dict holds every slot."""

    def __init__(self, *optimizers: Optimizer):
        self.optimizers = list(optimizers)

    def step(self) -> None:
        for opt in self.optimizers:
            opt.step()

    def state_dict(self) -> dict:
        return {"optimizers": [opt.state_dict() for opt in self.optimizers]}

    def load_state_dict(self, state_dict: dict) -> None:
        saved = state_dict["optimizers"]
        if len(saved) != len(self.optimizers):
            raise ValueError(f"chain has {len(self.optimizers)} optimizers, "
                             f"state dict has {len(saved)}")
        for opt, state in zip(self.optimizers, saved):
            opt.load_state_dict(state)


class StepLR:
    """Decays every group's learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self.epoch = 0
        self._base_lrs = [group["lr"] for group in optimizer.param_groups]

    def step(self) -> None:
        self.epoch += 1
        self._apply()

    def _apply(self) -> None:
        factor = self.gamma ** (self.epoch // self.step_size)
        for group, base in zip(self.optimizer.param_groups, self._base_lrs):
            group["lr"] = base * factor

    def get_last_lr(self) -> list[float]:
        return [group["lr"] for group in self.optimizer.param_groups]

    def state_dict(self) -> dict:
        return {"epoch": self.epoch, "base_lrs": list(self._base_lrs),
                "step_size": self.step_size, "gamma": self.gamma}

    def load_state_dict(self, state: dict) -> None:
        self.epoch = int(state["epoch"])
        self._base_lrs = list(state["base_lrs"])
        self.step_size = int(state.get("step_size", self.step_size))
        self.gamma = float(state.get("gamma", self.gamma))
        if self.epoch:
            self._apply()


class CosineAnnealingLR:
    """Cosine annealing from the base learning rate down to ``eta_min``."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0):
        self.optimizer = optimizer
        self.t_max = max(t_max, 1)
        self.eta_min = eta_min
        self.epoch = 0
        self._base_lrs = [group["lr"] for group in optimizer.param_groups]

    def step(self) -> None:
        self.epoch += 1
        self._apply()

    def _apply(self) -> None:
        t = min(self.epoch, self.t_max)
        for group, base in zip(self.optimizer.param_groups, self._base_lrs):
            group["lr"] = self.eta_min + 0.5 * (base - self.eta_min) * (
                1 + math.cos(math.pi * t / self.t_max))

    def get_last_lr(self) -> list[float]:
        return [group["lr"] for group in self.optimizer.param_groups]

    def state_dict(self) -> dict:
        return {"epoch": self.epoch, "base_lrs": list(self._base_lrs),
                "t_max": self.t_max, "eta_min": self.eta_min}

    def load_state_dict(self, state: dict) -> None:
        self.epoch = int(state["epoch"])
        self._base_lrs = list(state["base_lrs"])
        self.t_max = int(state.get("t_max", self.t_max))
        self.eta_min = float(state.get("eta_min", self.eta_min))
        if self.epoch:
            self._apply()
