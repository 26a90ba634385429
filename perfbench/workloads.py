"""The four workloads of the end-to-end benchmark, built on public APIs only.

Each workload follows one life cycle, driven by ``run.py``:

``setup(clock)``
    builds, compiles, spawns and warms up, timing each part on ``clock``;
    expected outputs for the checks are computed between the timed parts, so
    they do not count towards ``setup_s``;
``measure(seconds, counter)``
    runs the timed phases, checks every output it receives into ``counter``
    and returns the end-to-end numbers plus run facts;
``layer_metrics()``
    (traced runs only) the per-layer numbers gathered by the outside-in
    timers installed at setup;
``close()``
    stops every thread and worker process it started.

With ``trace=True`` the workload wraps the kernel backend through the public
:meth:`repro.kernels.KernelBackend.instrumented` seam, times the calls it
makes into each layer, and (for the pool) ships worker-side timings back in
extra reply columns.  Nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import functools
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np

from common import (KERNEL_PRIMITIVES, OutcomeCounter, chunked_percentile_ms,
                    close_to, image_choices, latency_summary, percentile_ms,
                    poisson_schedule)

# Served float/fake-quant outputs are compared with per-image expected
# outputs from the ``reference`` backend at batch 1.  Across batch
# compositions and backends they differ by <= 8e-15 absolute at logits of
# magnitude ~3-6 (~2e-15 relative); a tolerance six orders above that still
# catches any wrong tile, channel or image, which moves logits by O(1).
SERVE_RTOL = 1e-9
IMAGE_SHAPE = (3, 32, 32)
NUM_CLASSES = 10
POOL_IMAGES = 128
REQUEST_DEADLINE_S = 2.0
# A failed or refused request misses any latency limit: it enters the
# percentiles at twice the deadline.
FAILED_LATENCY_S = 2 * REQUEST_DEADLINE_S
MAX_PENDING = 1024
CLOSED_OUTSTANDING = 16
# Open-loop percentiles are taken per chunk of this many consecutive
# requests (0.5 s at 300 req/s); the lower quartile over chunks is reported.
OPEN_CHUNK = 150


# --------------------------------------------------------------------------- #
# Outside-in timers
# --------------------------------------------------------------------------- #
class SetupClock:
    """Accumulates wall time per set-up part; code outside ``part()`` is not timed."""

    PARTS = ("import", "build", "compile", "pool_spawn", "warmup")

    def __init__(self):
        self.parts = {p: 0.0 for p in self.PARTS}

    @contextlib.contextmanager
    def part(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.parts[name] += time.perf_counter() - t0

    @property
    def total_s(self) -> float:
        return sum(self.parts.values())


def _add_time(fn, total_ms: list):
    """``fn`` with its wall time added to ``total_ms[0]`` on every call."""
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total_ms[0] += (time.perf_counter() - t0) * 1e3
    return timed


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


class KernelMeter:
    """Per-primitive wall time, calls and computed bytes, via ``instrumented``.

    Bytes are computed from the sizes of the array arguments and results
    (not measured traffic); multiply-accumulates of ``tile_contract`` are
    computed from its operand shapes.  ``functools.wraps`` keeps each
    primitive's signature visible, so callers that sniff keyword support
    choose the same code path as with the bare backend.
    """

    def __init__(self):
        self.ms = {p: 0.0 for p in KERNEL_PRIMITIVES}
        self.calls = {p: 0 for p in KERNEL_PRIMITIVES}
        self.bytes = {p: 0 for p in KERNEL_PRIMITIVES}
        self.macs = 0
        self.other_ms = 0.0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = (time.perf_counter() - t0) * 1e3
            if name in self.ms:
                self.ms[name] += dt
                self.calls[name] += 1
                self.bytes[name] += _nbytes(args) + _nbytes(out)
                if name == "tile_contract":
                    x, w = args[0], args[1]
                    self.macs += int(np.prod(x.shape, dtype=np.int64)) * int(w.shape[0])
            else:
                self.other_ms += dt
            return out
        return timed

    def instrument(self, backend):
        return backend.instrumented(self.wrap)

    @property
    def total_ms(self) -> float:
        return sum(self.ms.values()) + self.other_ms

    def vector(self) -> np.ndarray:
        """Flat snapshot: ms, calls, bytes per primitive, then macs, other_ms."""
        vals = []
        for p in KERNEL_PRIMITIVES:
            vals += [self.ms[p], self.calls[p], self.bytes[p]]
        return np.array(vals + [self.macs, self.other_ms], dtype=np.float64)

    @staticmethod
    def metrics(vec: np.ndarray, ops: int) -> dict:
        """Per-operation kernel metrics from a (summed) :meth:`vector`."""
        out = {}
        ops = max(int(ops), 1)
        for i, p in enumerate(KERNEL_PRIMITIVES):
            ms, calls, nbytes = vec[3 * i:3 * i + 3]
            out[f"kernels.{p}.ms_per_op"] = ms / ops
            out[f"kernels.{p}.calls_per_op"] = calls / ops
            out[f"kernels.{p}.mb_per_op"] = nbytes / 1e6 / ops
        out["kernels.tile_contract.mmacs_per_op"] = vec[-2] / 1e6 / ops
        return out


VECTOR_LEN = 3 * len(KERNEL_PRIMITIVES) + 2


def _wait(request, timeout: float) -> bool:
    """Block until ``request`` completes or ``timeout`` passes; True if done."""
    with contextlib.suppress(Exception):
        request.result(max(timeout, 0.0))
    return request.done()


def _median(values, default: float = 0.0) -> float:
    vals = [v for v in values if v is not None and math.isfinite(v)]
    return float(np.median(vals)) if vals else default


class KeepAwake:
    """One busy-looping child process per usable CPU, at the lowest priority.

    A guest that idles its vCPUs with HLT (no cpuidle driver, as on a
    Firecracker VM) hands every idle vCPU back to the hypervisor, and each
    wake-up then waits until the host schedules that vCPU again.  At low load
    that adds host-dependent milliseconds to a request's latency.  A nice-19
    spinner keeps each vCPU running; the guest scheduler preempts it as soon
    as a serving thread wakes.  The spinners run only inside
    :meth:`running` (they are SIGSTOPped otherwise), exit on their own if
    this process dies, and :meth:`close` kills and reaps them.
    """

    SPIN = ("import os, sys\nos.nice(19)\nparent = os.getppid()\n"
            "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n"
            "while os.getppid() == parent:\n    pass\n")

    def __init__(self):
        self.procs = []
        try:
            for _ in range(len(os.sched_getaffinity(0))):
                proc = subprocess.Popen([sys.executable, "-c", self.SPIN],
                                        stdout=subprocess.PIPE)
                self.procs.append(proc)
                proc.stdout.readline()               # niced before it spins
                proc.send_signal(signal.SIGSTOP)
        except BaseException:
            self.close()
            raise

    @contextlib.contextmanager
    def running(self):
        for proc in self.procs:
            proc.send_signal(signal.SIGCONT)
        try:
            yield
        finally:
            for proc in self.procs:
                proc.send_signal(signal.SIGSTOP)

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        self.procs = []


# --------------------------------------------------------------------------- #
# Serving
# --------------------------------------------------------------------------- #
class CallLog:
    """Entry/exit times and rows of every model call (one serving thread)."""

    def __init__(self, capacity: int = 1 << 17, extra: int = 0):
        self.t_in = np.zeros(capacity)
        self.t_out = np.zeros(capacity)
        self.rows = np.zeros(capacity, dtype=np.int64)
        self.kernel_ms = np.zeros(capacity)
        self.extra = np.zeros((capacity, extra)) if extra else None
        self.n = 0

    def record(self, t_in: float, t_out: float, rows: int, kernel_ms: float,
               extra=None) -> None:
        i = self.n
        if i >= self.t_in.size:
            return
        self.t_in[i], self.t_out[i], self.rows[i] = t_in, t_out, rows
        self.kernel_ms[i] = kernel_ms
        if extra is not None:
            self.extra[i] = extra
        self.n = i + 1

    def window(self, start: float, end: float) -> slice:
        t_out = self.t_out[:self.n]
        return slice(bisect.bisect_left(t_out, start), bisect.bisect_right(t_out, end))

    def call_for(self, completed_at: float) -> int:
        """Index of the model call whose results completed at ``completed_at``."""
        return bisect.bisect_right(self.t_out[:self.n], completed_at) - 1


class _ServeWorkload:
    """Shared open/closed load generator; subclasses supply the model.

    Each subclass sets ``open_rate`` near a quarter of its closed-loop
    capacity on a 2-vCPU host (~1000-1100 img/s inline, ~800-900 through the
    pool), so that a host running 40% slow, which happens under CPU steal,
    still leaves the queue short and p90 moves with service time rather than
    with queueing.
    """

    open_rate: float
    open_share = 0.5
    cycles = 16

    def __init__(self, seed: int, trace: bool):
        self.seed = int(seed)
        self.trace = trace
        self.server = None
        self.log: CallLog | None = None

    # -- subclass hooks ------------------------------------------------- #
    def _build(self) -> None: ...
    def _compile(self) -> None: ...
    def _spawn(self) -> None: ...
    def _expected(self) -> np.ndarray: ...
    def _model_callable(self): ...

    def setup(self, clock: SetupClock) -> None:
        from repro.datasets.synthetic import make_shapes_dataset
        from repro.serve import Server

        with clock.part("build"):
            self.images = make_shapes_dataset(num_samples=POOL_IMAGES,
                                              seed=self.seed).images
            self._build()
        # Expected outputs for the checks; not part of the set-up time.
        self.expected = self._expected()
        with clock.part("compile"):
            self._compile()
        with clock.part("pool_spawn"):
            self._spawn()
        with clock.part("warmup"):
            model = self._model_callable()
            for rows in range(1, 9):
                model(self.images[:rows])
            self.server = Server(model, max_batch_size=8, max_delay_ms=2,
                                 num_threads=1, max_pending=MAX_PENDING)
            warm = [self.server.submit(self.images[i % POOL_IMAGES],
                                       deadline=REQUEST_DEADLINE_S)
                    for i in range(2 * CLOSED_OUTSTANDING)]
            for request in warm:
                _wait(request, 10.0)

    # -- harvesting ----------------------------------------------------- #
    def _harvest(self, i: int, request, choice: int, counter: OutcomeCounter,
                 completed: np.ndarray, submitted: np.ndarray) -> None:
        from repro.serve import RequestTimeout
        completed[i] = request.completed_at
        submitted[i] = request.submitted_at
        try:
            out = request.result(0)
        except RequestTimeout:
            counter.fail("expired")
            completed[i] = math.inf
        except Exception as exc:      # any error the server relayed is a failure
            counter.fail(f"raised:{type(exc).__name__}")
            completed[i] = math.inf
        else:
            if not counter.check(close_to(out, self.expected[choice], SERVE_RTOL)):
                completed[i] = math.inf

    def _submit(self, x, counter: OutcomeCounter):
        from repro.serve import ServerOverloaded
        try:
            return self.server.submit(x, deadline=REQUEST_DEADLINE_S)
        except ServerOverloaded:
            counter.fail("shed")
            return None

    def _open_phase(self, seconds: float, counter: OutcomeCounter, cycle: int) -> None:
        due_rel = poisson_schedule(self.seed, self.open_rate, seconds, stream=cycle)
        n = due_rel.size
        choices = image_choices(self.seed, n, POOL_IMAGES, stream=cycle)
        submitted = np.full(n, math.nan)
        completed = np.full(n, math.nan)
        sent = np.full(n, math.nan)
        outstanding = []                     # FIFO of (index, request)
        head = 0
        t0 = time.perf_counter() + 0.02
        due = t0 + due_rel
        for i in range(n):
            while True:
                while head < len(outstanding) and outstanding[head][1].done():
                    j, req = outstanding[head]
                    self._harvest(j, req, choices[j], counter, completed, submitted)
                    outstanding[head] = None          # drop the handle
                    head += 1
                wait = due[i] - time.perf_counter()
                if wait <= 0:
                    break
                if head < len(outstanding):
                    _wait(outstanding[head][1], wait)
                else:
                    time.sleep(wait)
            sent[i] = time.perf_counter()
            req = self._submit(self.images[choices[i]], counter)
            if req is None:
                completed[i] = math.inf
            else:
                outstanding.append((i, req))
        for k in range(head, len(outstanding)):
            j, req = outstanding[k]
            _wait(req, REQUEST_DEADLINE_S + 5.0)
            self._harvest(j, req, choices[j], counter, completed, submitted)
            outstanding[k] = None
        finite = completed[np.isfinite(completed)]
        self.phase_walls["open"].append((t0, float(finite.max()) if finite.size else t0))
        self.open_parts.append((due, sent, submitted, completed))

    def _closed_phase(self, seconds: float, counter: OutcomeCounter,
                      cycle: int) -> tuple[int, float, np.ndarray]:
        """Keep ``CLOSED_OUTSTANDING`` requests in flight.

        Returns (completed, seconds, per-request latency from issue to
        completion, failures at ``FAILED_LATENCY_S``).
        """
        cap = int(seconds * 5000) + 64
        choices = image_choices(self.seed, cap, POOL_IMAGES, stream=1000 + cycle)
        issued_at = np.full(cap, math.nan)
        submitted = np.full(cap, math.nan)
        completed = np.full(cap, math.nan)
        outstanding = []
        head = 0
        issued = 0
        t0 = time.perf_counter()
        t_stop = t0 + seconds

        def issue() -> None:
            nonlocal issued
            issued_at[issued] = time.perf_counter()
            req = self._submit(self.images[choices[issued]], counter)
            if req is None:
                completed[issued] = math.inf
            else:
                outstanding.append((issued, req))
            issued += 1

        while len(outstanding) - head < CLOSED_OUTSTANDING and issued < cap:
            issue()
        while head < len(outstanding):
            j, req = outstanding[head]
            _wait(req, REQUEST_DEADLINE_S + 5.0)
            self._harvest(j, req, choices[j], counter, completed, submitted)
            outstanding[head] = None
            head += 1
            if time.perf_counter() < t_stop and issued < cap:
                issue()
        completed = completed[:issued]
        ok = np.isfinite(completed)
        t_end = float(completed[ok].max()) if ok.any() else t0
        self.phase_walls["closed"].append((t0, t_end))
        latency = np.where(ok, completed - issued_at[:issued], FAILED_LATENCY_S)
        return int(ok.sum()), t_end - t0, latency

    def measure(self, seconds: float, counter: OutcomeCounter) -> dict:
        """Alternate open and closed phases in short cycles.

        Host CPU steal comes in bursts and only ever slows the program, so
        each figure is read from the less disturbed parts of the run.
        Throughput is the upper quartile over cycles of the closed phases'
        images per second.  Latency p50/p90 come from the open phases, timed
        from each request's due time, as the lower quartile over
        ``OPEN_CHUNK``-request chunks of each chunk's percentile.  A change
        that slows every request moves every cycle and chunk.  The spinners
        of :class:`KeepAwake` run during the open phases only.
        """
        from repro.engine import plan_cache_stats
        self.phase_walls = {"open": [], "closed": []}
        self.open_parts = []
        plans0 = plan_cache_stats()
        open_s = seconds * self.open_share / self.cycles
        closed_s = seconds * (1.0 - self.open_share) / self.cycles
        rates, closed_latency = [], []
        awake = KeepAwake()
        try:
            for cycle in range(self.cycles):
                with awake.running():
                    self._open_phase(open_s, counter, cycle)
                done, dt, latency = self._closed_phase(closed_s, counter, cycle)
                rates.append(done / dt)
                closed_latency.append(latency)
        finally:
            awake.close()
        plans1 = plan_cache_stats()
        self.open_reqs = [np.concatenate(part) for part in zip(*self.open_parts)]
        due, sent, _, _ = self.open_reqs
        open_latency = [np.where(np.isfinite(completed), completed - due_c,
                                 FAILED_LATENCY_S)
                        for due_c, _, _, completed in self.open_parts]
        closed = np.concatenate(closed_latency)
        stats = self.server.stats()
        self.plan_delta = (plans1.hits - plans0.hits, plans1.misses - plans0.misses)
        self.server_stats = stats
        return {
            "throughput_ips": float(np.percentile(rates, 75)),
            "latency_p50_ms": chunked_percentile_ms(open_latency, 50, OPEN_CHUNK,
                                                    over=25),
            "latency_p90_ms": chunked_percentile_ms(open_latency, 90, OPEN_CHUNK,
                                                    over=25),
            "latency_s": np.concatenate(open_latency),
            "facts": {
                "open_rate_rps": self.open_rate,
                "open_requests": int(due.size),
                "open_chunk_requests": OPEN_CHUNK,
                "closed_loop_p50_ms": percentile_ms(closed, 50),
                "closed_loop_p90_ms": percentile_ms(closed, 90),
                "closed_loop_latency": latency_summary(closed),
                "cycle_throughput_ips": rates,
                "closed_outstanding": CLOSED_OUTSTANDING,
                "cycles": self.cycles,
                "loadgen_lag_p90_ms": percentile_ms(sent - due, 90),
                "shed": stats.get("shed", 0),
                "expired": stats.get("expired_in_queue", 0),
                "mean_batch_size": stats.get("mean_batch_size"),
            },
        }

    # -- per-layer ------------------------------------------------------ #
    def _batch_means(self) -> dict:
        log, out = self.log, {}
        for phase, walls in self.phase_walls.items():
            rows, busy, wall = [], 0.0, 0.0
            for start, end in walls:
                sl = log.window(start, end)
                rows.append(log.rows[sl])
                busy += float(np.sum(log.t_out[sl] - log.t_in[sl]))
                wall += end - start
            rows = np.concatenate(rows)
            out[f"serve.batcher.batch_size_mean.{phase}"] = (
                float(rows.mean()) if rows.size else 0.0)
            out[f"serve.model.busy_share.{phase}"] = busy / max(wall, 1e-9)
        return out

    def _request_breakdown(self) -> dict:
        """Queue wait and fan-out per open-phase request, from the call log."""
        due, sent, submitted, completed = self.open_reqs
        log = self.log
        queue, fanout, attributed, e2e = [], [], [], []
        for k in range(completed.size):
            if not math.isfinite(completed[k]) or not math.isfinite(submitted[k]):
                continue
            c = log.call_for(completed[k])
            if c < 0:
                continue
            q = log.t_in[c] - submitted[k]
            f = completed[k] - log.t_out[c]
            queue.append(q)
            fanout.append(f)
            total = completed[k] - due[k]
            e2e.append(total)
            attributed.append((sent[k] - due[k]) + q + f
                              + self._attributed_in_call(c) / 1e3)
        e2e_sum = float(np.sum(e2e)) if e2e else 1.0
        return {
            "serve.batcher.queue_wait_p50_ms": percentile_ms(queue, 50) if queue else 0.0,
            "serve.batcher.queue_wait_p90_ms": percentile_ms(queue, 90) if queue else 0.0,
            "serve.server.fanout_p50_ms": percentile_ms(fanout, 50) if fanout else 0.0,
            "unattributed_share": 1.0 - float(np.sum(attributed)) / e2e_sum,
        }

    def _infer_by_rows(self, durations_ms: np.ndarray, rows: np.ndarray) -> dict:
        return {
            "serve.model.infer_ms.b1": _median(durations_ms[rows == 1]),
            "serve.model.infer_ms.b8": _median(durations_ms[rows == 8]),
        }

    def _common_layer_metrics(self) -> dict:
        due, sent, _, _ = self.open_reqs
        out = {"loadgen.lag_p90_ms": percentile_ms(sent - due, 90),
               "serve.batcher.shed": float(self.server_stats.get("shed", 0)),
               "serve.batcher.expired": float(
                   self.server_stats.get("expired_in_queue", 0))}
        out.update(self._batch_means())
        out.update(self._request_breakdown())
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


def _float_model(seed: int):
    from repro.models.resnet_cifar import resnet_tiny
    model = resnet_tiny(seed=seed)
    model.eval()
    return model


def _expected_outputs(model, images: np.ndarray) -> np.ndarray:
    """Per-image outputs of ``model`` on the ``reference`` backend at batch 1."""
    from repro.kernels import use_backend
    from repro.serve import compile_model
    with use_backend("reference"):
        ref = compile_model(model, transform="F4")
        return np.stack([ref.infer(images[i:i + 1])[0]
                         for i in range(images.shape[0])])


class ServeF4Inline(_ServeWorkload):
    """Float resnet_tiny, fused F4 forward, served in-process."""

    name = "serve_f4_inline"
    open_rate = 300.0

    def _build(self) -> None:
        self.model = _float_model(self.seed)

    def _expected(self) -> np.ndarray:
        return _expected_outputs(self.model, self.images)

    def _compile(self) -> None:
        from repro.kernels import get_backend
        from repro.serve import compile_model
        backend = None
        if self.trace:
            self.meter = KernelMeter()
            backend = self.meter.instrument(get_backend())
        self.compiled = compile_model(self.model, (8,) + IMAGE_SHAPE,
                                      transform="F4", backend=backend)

    def _spawn(self) -> None:
        pass

    def _model_callable(self):
        if not self.trace:
            return self.compiled
        self.log = CallLog()
        compiled, meter, log = self.compiled, self.meter, self.log

        def infer(x, deadline=None):
            k0 = meter.total_ms
            t_in = time.perf_counter()
            out = compiled.infer(x, deadline=deadline)
            t_out = time.perf_counter()
            log.record(t_in, t_out, x.shape[0], meter.total_ms - k0)
            return out
        return infer

    def _attributed_in_call(self, c: int) -> float:
        return self.log.kernel_ms[c]

    def layer_metrics(self, ops: int) -> dict:
        log = self.log
        start = self.phase_walls["open"][0][0]
        sl = slice(log.window(start, math.inf).start, log.n)
        dur = (log.t_out[sl] - log.t_in[sl]) * 1e3
        out = self._common_layer_metrics()
        out.update(self._infer_by_rows(dur, log.rows[sl]))
        out["serve.model.kernel_share"] = (float(np.sum(log.kernel_ms[sl]))
                                           / max(float(np.sum(dur)), 1e-9))
        out.update(KernelMeter.metrics(self._window_kernels, ops))
        hits, misses = self.plan_delta
        out["engine.plan_cache.steady_misses"] = float(misses)
        out["engine.plan_cache.hit_ratio"] = hits / max(hits + misses, 1)
        out["engine.arena.workspace_mb"] = self.compiled.workspace_nbytes / 1e6
        return out

    def measure(self, seconds: float, counter: OutcomeCounter) -> dict:
        k0 = self.meter.vector() if self.trace else None
        result = super().measure(seconds, counter)
        if self.trace:
            self._window_kernels = self.meter.vector() - k0
        return result


class QuantServeJob:
    """Pool job: each worker compiles the frozen tap-wise model once.

    Implements the pool-job protocol (``compile`` / ``out_shape`` /
    ``out_dtype``).  With ``trace`` the worker times its own compute and
    kernel primitives and appends them to the first row of each reply, so
    the parent learns worker-side time without any span in the library.
    """

    STATS = ("worker_ms", "fake_quant_ms", "plan_hits", "plan_misses")

    def __init__(self, model, trace: bool):
        self.model = model
        self.trace = trace
        self.width = NUM_CLASSES + (len(self.STATS) + VECTOR_LEN if trace else 0)

    def out_shape(self, in_shape: tuple) -> tuple:
        return (in_shape[0], self.width)

    def out_dtype(self, in_dtype) -> np.dtype:
        return np.dtype(np.float64)

    def compile(self):
        from repro.serve import compile_model
        if not self.trace:
            return compile_model(self.model, transform="F4").infer
        return _TracedQuantStep(self)


class _TracedQuantStep:
    """Worker-side executable of a traced :class:`QuantServeJob`."""

    def __init__(self, job: QuantServeJob):
        from repro.kernels import get_backend, set_backend
        from repro.quant import Quantizer
        from repro.serve import compile_model
        self.job = job
        self.meter = KernelMeter()
        # The quantized layers follow the process-wide backend, so the
        # instrumented copy is installed process-wide in this worker only.
        set_backend(self.meter.instrument(get_backend()))
        self.fq_ms = [0.0]
        for module in job.model.modules():
            if isinstance(module, Quantizer):
                module.fake_quantize_array = _add_time(module.fake_quantize_array,
                                                       self.fq_ms)
        self.compiled = compile_model(job.model, transform="F4")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        from repro.engine import plan_cache_stats
        k0, fq0, p0 = self.meter.vector(), self.fq_ms[0], plan_cache_stats()
        t0 = time.perf_counter()
        y = self.compiled.infer(x)
        worker_ms = (time.perf_counter() - t0) * 1e3
        p1 = plan_cache_stats()
        out = np.zeros((x.shape[0], self.job.width))
        out[:, :NUM_CLASSES] = y
        out[0, NUM_CLASSES:] = np.concatenate([
            [worker_ms, self.fq_ms[0] - fq0, p1.hits - p0.hits, p1.misses - p0.misses],
            self.meter.vector() - k0])
        return out


class ServeTapwisePool(_ServeWorkload):
    """Tap-wise int8/8 F4 resnet_tiny served through a 2-worker shm pool."""

    name = "serve_tapwise_pool"
    open_rate = 200.0
    num_workers = 2

    def __init__(self, seed: int, trace: bool):
        super().__init__(seed, trace)
        self.pool = None

    def _build(self) -> None:
        from repro.datasets.synthetic import make_shapes_dataset
        from repro.nn.data import DataLoader
        from repro.quant import (QatConfig, calibrate_model, convert_model,
                                 freeze_calibration)
        model = convert_model(_float_model(self.seed),
                              QatConfig(algorithm="F4", tapwise=True,
                                        power_of_two=True))
        calib = make_shapes_dataset(num_samples=64, seed=self.seed + 7919)
        calibrate_model(model, DataLoader(calib, batch_size=16, shuffle=False),
                        max_batches=4)
        freeze_calibration(model)
        model.eval()
        self.model = model

    def _expected(self) -> np.ndarray:
        return _expected_outputs(self.model, self.images)

    def _compile(self) -> None:
        self.job = QuantServeJob(self.model, self.trace)

    def _spawn(self) -> None:
        from repro.serve import ShmWorkerPool
        self.pool = ShmWorkerPool(self.job, self.num_workers)

    def _model_callable(self):
        pool = self.pool
        if not self.trace:
            def infer(x, deadline=None):
                return pool.run(x, deadline=deadline)
            return infer
        self.log = CallLog(extra=len(QuantServeJob.STATS) + VECTOR_LEN + 1)
        log, workers = self.log, self.num_workers
        n_prims = len(KERNEL_PRIMITIVES)

        def traced_infer(x, deadline=None):
            t_in = time.perf_counter()
            out = pool.run(x, deadline=deadline)
            t_out = time.perf_counter()
            # Each chunk's worker wrote its stats into the chunk's first row;
            # pool.run cuts chunks of ceil(rows / workers).
            stats = out[::-(-x.shape[0] // workers), NUM_CLASSES:]
            kernels = stats[:, len(QuantServeJob.STATS):]
            kernel_ms = float(kernels[:, 0:3 * n_prims:3].sum() + kernels[:, -1].sum())
            log.record(t_in, t_out, x.shape[0], kernel_ms,
                       np.append(stats.sum(axis=0), stats[:, 0].max()))
            return out[:, :NUM_CLASSES]
        return traced_infer

    def _attributed_in_call(self, c: int) -> float:
        """Pool overhead plus the slowest chunk's kernel and fake-quant time."""
        worker_sum, fq_sum, slowest = self.log.extra[c][[0, 1, -1]]
        call_ms = (self.log.t_out[c] - self.log.t_in[c]) * 1e3
        inside = (self.log.kernel_ms[c] + fq_sum) / max(worker_sum, 1e-9)
        return max(call_ms - slowest, 0.0) + min(inside, 1.0) * slowest

    def layer_metrics(self, ops: int) -> dict:
        log = self.log
        start = self.phase_walls["open"][0][0]
        sl = slice(log.window(start, math.inf).start, log.n)
        extra = log.extra[sl]
        call_ms = (log.t_out[sl] - log.t_in[sl]) * 1e3
        slowest = extra[:, -1]
        out = self._common_layer_metrics()
        out.update(self._infer_by_rows(slowest, log.rows[sl]))
        out["serve.model.kernel_share"] = (float(np.sum(log.kernel_ms[sl]))
                                           / max(float(np.sum(extra[:, 0])), 1e-9))
        first = len(QuantServeJob.STATS)
        out.update(KernelMeter.metrics(
            extra[:, first:first + VECTOR_LEN].sum(axis=0), ops))
        hits, misses = float(extra[:, 2].sum()), float(extra[:, 3].sum())
        out["engine.plan_cache.steady_misses"] = misses
        out["engine.plan_cache.hit_ratio"] = hits / max(hits + misses, 1.0)
        out["serve.pool.call_ms_p50"] = _median(call_ms)
        out["serve.pool.worker_ms_p50"] = _median(slowest)
        out["serve.pool.overhead_ms_p50"] = _median(call_ms - slowest)
        out["quant.fake_quant_ms_per_batch"] = _median(extra[:, 1])
        stats = self.pool.stats()
        for key in ("retried_jobs", "deaths", "corrupt_replies"):
            out[f"serve.pool.{key}"] = float(stats[key])
        return out

    def measure(self, seconds: float, counter: OutcomeCounter) -> dict:
        result = super().measure(seconds, counter)
        result["facts"]["pool"] = self.pool.stats()
        return result

    def close(self) -> None:
        super().close()
        if self.pool is not None:
            self.pool.close()
            self.pool = None


# --------------------------------------------------------------------------- #
# Integer-only tap-wise F4
# --------------------------------------------------------------------------- #
class IntTapwiseF4:
    """``integer_winograd_conv2d`` over one ResNet-20 layer per geometry."""

    name = "int_tapwise_f4"
    batch = 8
    pool_batches = 4
    GEOMETRIES = {16: ("c16x32", 32), 32: ("c32x16", 16), 64: ("c64x8", 8)}

    def __init__(self, seed: int, trace: bool):
        self.seed = int(seed)
        self.trace = trace

    def setup(self, clock: SetupClock) -> None:
        from repro.kernels import get_backend
        from repro.models.resnet_cifar import resnet20
        from repro.nn.layers import Conv2d
        from repro.quant import calibrate_tapwise_scales
        from repro.winograd import winograd_f4

        with clock.part("build"):
            model = resnet20(seed=self.seed)
            self.layers = []
            for module in model.modules():
                if not isinstance(module, Conv2d) or module.stride != 1:
                    continue
                cout, cin, kh, _ = module.weight.data.shape
                if kh == 3 and cout == cin and cin in self.GEOMETRIES and \
                        all(layer[0] != cin for layer in self.layers):
                    self.layers.append([cin, module.weight.data.copy()])
            self.layers.sort(key=lambda layer: layer[0])
            rng = np.random.default_rng([self.seed, 0x1A7])
            for layer in self.layers:
                cin = layer[0]
                hw = self.GEOMETRIES[cin][1]
                layer.append([np.maximum(rng.normal(size=(self.batch, cin, hw, hw)), 0.0)
                              for _ in range(self.pool_batches)])
            self.transform = winograd_f4()
        with clock.part("compile"):
            self.backend = None
            if self.trace:
                self.meter = KernelMeter()
                self.backend = self.meter.instrument(get_backend())
            for layer in self.layers:
                _, weight, inputs = layer
                layer.append(calibrate_tapwise_scales(inputs[0], weight, self.transform,
                                                      power_of_two=True))
        # Expected outputs for the checks; not part of the set-up time.
        self.expected = [[self._conv(layer, x, "reference") for x in layer[2]]
                         for layer in self.layers]
        with clock.part("warmup"):
            for _ in range(2):
                for k in range(self.pool_batches):
                    self._pass(k)

    def _conv(self, layer, x, backend):
        from repro.quant import integer_winograd_conv2d
        _, weight, _, scales = layer
        return integer_winograd_conv2d(x, weight, self.transform, scales,
                                       backend=backend)

    def _pass(self, k: int, call_ms=None) -> list:
        outs = []
        for i, layer in enumerate(self.layers):
            t0 = time.perf_counter()
            outs.append(self._conv(layer, layer[2][k], self.backend))
            if call_ms is not None:
                call_ms[i].append((time.perf_counter() - t0) * 1e3)
        return outs

    def measure(self, seconds: float, counter: OutcomeCounter) -> dict:
        self.call_ms = [[] for _ in self.layers]
        k0 = self.meter.vector() if self.trace else None
        latencies = []
        t_start = time.perf_counter()
        t_stop = t_start + seconds
        k = 0
        while time.perf_counter() < t_stop:
            idx = k % self.pool_batches
            t0 = time.perf_counter()
            outs = self._pass(idx, self.call_ms if self.trace else None)
            t1 = time.perf_counter()
            good = all(np.array_equal(o, e[idx]) for o, e in zip(outs, self.expected))
            counter.check(good)
            latencies.append(t1 - t0)
            k += 1
        self.wall_s = time.perf_counter() - t_start
        if self.trace:
            self._window_kernels = self.meter.vector() - k0
        return {"throughput_ips": k * self.batch / self.wall_s,
                "latency_p50_ms": percentile_ms(latencies, 50),
                "latency_p90_ms": percentile_ms(latencies, 90),
                "latency_s": np.asarray(latencies),
                "facts": {"passes": k, "batch": self.batch,
                          "layers": [self.GEOMETRIES[layer[0]][0]
                                     for layer in self.layers]}}

    def layer_metrics(self, ops: int) -> dict:
        from repro.quant import integer_winograd_conv2d
        out = {}
        total_call = 0.0
        for layer, times in zip(self.layers, self.call_ms):
            out[f"quant.integer.ms_per_pass.{self.GEOMETRIES[layer[0]][0]}"] = _median(times)
            total_call += float(np.sum(times))
        kernel_ms = float(np.sum(self._window_kernels[0:3 * len(KERNEL_PRIMITIVES):3]))
        kernel_ms += float(self._window_kernels[-1])
        out["quant.integer.self_share"] = 1.0 - kernel_ms / max(total_call, 1e-9)
        out.update(KernelMeter.metrics(self._window_kernels, ops))
        bits = 0
        for layer in self.layers:
            _, weight, inputs, scales = layer
            _, stats = integer_winograd_conv2d(inputs[0], weight, self.transform,
                                               scales, return_stats=True)
            bits = max(bits, stats["accumulator_bits"])
        out["quant.integer.accumulator_bits"] = float(bits)
        out["unattributed_share"] = 1.0 - total_call / 1e3 / max(self.wall_s, 1e-9)
        return out

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# Data-parallel QAT training
# --------------------------------------------------------------------------- #
class TimedGradJob:
    """Pool job: a :class:`GradStepJob` whose replies end in the worker's compute ms."""

    def __init__(self, job):
        self.job = job

    def out_shape(self, in_shape: tuple) -> tuple:
        return (self.job.reply_size + 1,)

    def out_dtype(self, in_dtype) -> np.dtype:
        return np.dtype(np.float64)

    def compile(self):
        step = self.job.compile()

        def timed_step(frame: np.ndarray) -> np.ndarray:
            t0 = time.perf_counter()
            reply = step(frame)
            return np.append(reply, (time.perf_counter() - t0) * 1e3)
        return timed_step


def _timed_store(directory):
    """A :class:`CheckpointStore` whose commits are timed from outside."""
    from repro.train import CheckpointStore

    class TimedStore(CheckpointStore):
        def __init__(self):
            super().__init__(directory, keep_last=2)
            self.commits = []          # (step, end time, duration)

        def save(self, step, payload):
            t0 = time.perf_counter()
            path = super().save(step, payload)
            t1 = time.perf_counter()
            self.commits.append((int(step), t1, t1 - t0))
            return path

    return TimedStore()


class TrainQatDP:
    """QAT of the tap-wise F4 resnet_tiny with a 2-worker DataParallelTrainer."""

    name = "train_qat_dp"
    batch = 16
    steps_per_round = 16
    warmup_steps = 2
    num_workers = 2
    # A sharded step computes BatchNorm and observer statistics per shard (8
    # images) instead of per batch (16), so its losses are not the
    # single-process ones: over seeds 1-10 the first two steps differ by
    # 0.1-3.1% relative.  Ten percent still catches a forward pass on the
    # wrong images or weights and a grossly wrong first update; subtler
    # gradient errors are the unit tests' job.
    LOSS_RTOL = 0.1

    def __init__(self, seed: int, trace: bool, workdir: str):
        self.seed = int(seed)
        self.trace = trace
        self.workdir = workdir
        self.trainer = None

    def _make(self, model, workers: int, store=None):
        from repro.nn.data import ArrayDataset, DataLoader
        from repro.nn.optim import SGD
        from repro.train import DataParallelTrainer, Trainer
        loader = DataLoader(ArrayDataset(self.data.images, self.data.labels),
                            batch_size=self.batch, shuffle=True, seed=self.seed,
                            drop_last=True)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        if workers:
            return DataParallelTrainer(model, optimizer, loader,
                                       num_workers=workers, store=store)
        return Trainer(model, optimizer, loader)

    def setup(self, clock: SetupClock) -> None:
        from repro.datasets.synthetic import make_shapes_dataset
        from repro.models.resnet_cifar import resnet_tiny
        from repro.nn.data import DataLoader
        from repro.quant import QatConfig, calibrate_model, convert_model

        with clock.part("build"):
            self.data = make_shapes_dataset(
                num_samples=self.batch * self.steps_per_round, seed=self.seed)
            model = resnet_tiny(seed=self.seed)
        with clock.part("compile"):
            model = convert_model(model, QatConfig(algorithm="F4", tapwise=True,
                                                   power_of_two=True))
            calib = make_shapes_dataset(num_samples=64, seed=self.seed + 7919)
            calibrate_model(model, DataLoader(calib, batch_size=16, shuffle=False),
                            max_batches=4)
        # Expected outputs for the checks; not part of the set-up time.
        single = self._make(copy.deepcopy(model), 0)
        self.expected_losses = single.fit(1, max_batches=self.warmup_steps)
        with clock.part("pool_spawn"):
            self.store = _timed_store(self.workdir)
            self.trainer = self._make(model, self.num_workers, self.store)
        with clock.part("warmup"):
            self.warmup_losses = list(self.trainer.fit(1, max_batches=self.warmup_steps))

    def measure(self, seconds: float, counter: OutcomeCounter) -> dict:
        for got, want in zip(self.warmup_losses, self.expected_losses):
            counter.check(math.isfinite(got) and
                          abs(got - want) <= self.LOSS_RTOL * abs(want),
                          "loss_mismatch")
        trainer, store = self.trainer, self.store
        step_s, images, elapsed, rounds = [], 0, 0.0, 0
        t_stop = time.perf_counter() + seconds
        while time.perf_counter() < t_stop:
            first = len(trainer.history)
            n_commits = len(store.commits)
            t0 = time.perf_counter()
            trainer.fit(trainer.epoch + 1)
            t1 = time.perf_counter()
            for loss in trainer.history[first:]:
                counter.check(math.isfinite(loss), "non_finite_loss")
            images += (len(trainer.history) - first) * self.batch
            elapsed += t1 - t0
            rounds += 1
            prev, last_step = t0, None
            for step, t_end, _ in store.commits[n_commits:]:
                if step == last_step:              # fit()'s closing re-commit
                    continue
                step_s.append(t_end - prev)
                prev, last_step = t_end, step
        self.step_s = step_s
        # p90 per round of 16 steps, median over rounds (see
        # chunked_percentile_ms): steal bursts spoil a round, not the value.
        return {"throughput_ips": images / elapsed,
                "latency_p50_ms": percentile_ms(step_s, 50),
                "latency_p90_ms": chunked_percentile_ms([step_s], 90,
                                                        self.steps_per_round),
                "latency_s": np.asarray(step_s),
                "facts": {"steps": len(step_s), "rounds": rounds,
                          "steps_per_round": self.steps_per_round,
                          "degraded": trainer.degraded,
                          "pool": trainer.pool_stats()}}

    def layer_metrics(self, ops: int) -> dict:
        from repro.nn.functional import cross_entropy
        from repro.nn.tensor import Tensor
        from repro.quant import Quantizer
        from repro.train import GradStepJob, chunk_bounds, encode_frame, flatten_state
        model = copy.deepcopy(self.trainer.model)
        model.train()
        # QAT fake-quantizes through Quantizer.forward (the Tensor path), so
        # that is what is timed here.
        fq_ms = [0.0]
        for module in model.modules():
            if isinstance(module, Quantizer):
                module.forward = _add_time(module.forward, fq_ms)
        images = self.data.images[:self.batch]
        labels = self.data.labels[:self.batch]
        times, fq = [], []
        for _ in range(5):
            model.zero_grad()
            fq0 = fq_ms[0]
            t0 = time.perf_counter()
            loss = cross_entropy(model(Tensor(images)), labels)
            loss.backward()
            times.append((time.perf_counter() - t0) * 1e3)
            fq.append(fq_ms[0] - fq0)
        fwd_bwd = _median(times)
        params, buffers = flatten_state(self.trainer.model)
        job = GradStepJob(self.trainer.model)
        frames = [encode_frame(images[lo:hi], labels[lo:hi], params, buffers)
                  for lo, hi in chunk_bounds(self.batch, self.num_workers)]
        frame_bytes = sum(f.nbytes + job.reply_size * 8 for f in frames)
        commit_ms = _median([c[2] * 1e3 for c in self.store.commits])
        step_ms = _median([s * 1e3 for s in self.step_s])
        unattributed = step_ms - commit_ms - fwd_bwd / self.num_workers
        out = {"train.commit_ms_p50": commit_ms,
               "nn.fwd_bwd_ms": fwd_bwd,
               "quant.fake_quant_ms_per_batch": _median(fq),
               "train.frame_mb_per_step": frame_bytes / 1e6,
               "train.unattributed_ms_p50": unattributed,
               "unattributed_share": unattributed / max(step_ms, 1e-9)}
        out.update(self._pool_round_trips(job, frames))
        stats = self.trainer.pool_stats()
        for key in ("retried_jobs", "deaths", "corrupt_replies"):
            out[f"serve.pool.{key}"] = float(stats.get(key, 0))
        return out

    def _pool_round_trips(self, job, frames) -> dict:
        """Time the step's shard round trip through a fresh pool of the same size.

        The trainer's own pool is private, so the traced run spawns a second
        :class:`ShmWorkerPool` after the timed window and sends it the same
        shard frames as a step, through a job that reports each worker's own
        compute time.
        """
        from repro.serve import ShmWorkerPool
        pool = ShmWorkerPool(TimedGradJob(job), self.num_workers)
        call_ms, worker_ms = [], []
        try:
            for i in range(self.steps_per_round + 2):
                t0 = time.perf_counter()
                replies = pool.map(frames)
                dt = (time.perf_counter() - t0) * 1e3
                if i >= 2:                                 # warm-up
                    call_ms.append(dt)
                    worker_ms.append(max(float(r[-1]) for r in replies))
        finally:
            pool.close()
        return {"serve.pool.call_ms_p50": _median(call_ms),
                "serve.pool.worker_ms_p50": _median(worker_ms),
                "serve.pool.overhead_ms_p50": _median(
                    np.subtract(call_ms, worker_ms))}

    def close(self) -> None:
        if self.trainer is not None:
            self.trainer.close()
            self.trainer = None


def make_workload(name: str, seed: int, trace: bool, workdir: str):
    if name == "serve_f4_inline":
        return ServeF4Inline(seed, trace)
    if name == "serve_tapwise_pool":
        return ServeTapwisePool(seed, trace)
    if name == "int_tapwise_f4":
        return IntTapwiseF4(seed, trace)
    if name == "train_qat_dp":
        return TrainQatDP(seed, trace, workdir)
    raise ValueError(f"unknown workload {name!r}")
