"""Closed-loop clients: each caller waits for its reply before sending again."""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import inputs as inp

#: Upper end of a predict loop's think time, in ms.
THINK_MS = 10.0


@dataclass
class Tally:
    """Operations attempted and failed, and predict / study timings."""

    attempted: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    study_seconds: List[float] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def fail(self, kind: str, count: int = 1) -> None:
        with self.lock:
            self.attempted += count
            self.failed += count
            self.errors[kind] = self.errors.get(kind, 0) + count

    def merge(self, other: "Tally", timings: bool = True) -> None:
        """Add ``other``'s counts (and, with ``timings``, its samples)."""
        with self.lock:
            self.attempted += other.attempted
            self.failed += other.failed
            if timings:
                self.latencies_ms.extend(other.latencies_ms)
                self.study_seconds.extend(other.study_seconds)
            for kind, count in other.errors.items():
                self.errors[kind] = self.errors.get(kind, 0) + count


def predict_loop(client, data: inp.Inputs, first: int,
                 deadline: float, tally: Tally,
                 limit: Optional[int] = None,
                 think: Optional[random.Random] = None) -> None:
    """Predict until ``deadline`` (or ``limit`` requests).

    With ``think``, each request waits a uniform 0..THINK_MS ms first, so
    concurrent loops do not lock into one phase for a whole run.
    """
    from repro.api import PredictRequest

    clock = time.perf_counter
    index = first
    sent = 0
    while time.monotonic() < deadline and (limit is None or sent < limit):
        if think is not None:
            time.sleep(think.uniform(0.0, THINK_MS) / 1000.0)
        images, (model, mapping, bits), entry = data.small_request(index)
        reference = data.small_refs[entry:entry + 1]
        index += 1
        sent += 1
        request = PredictRequest(images=images, model=model, bits=bits,
                                 mapping=mapping,
                                 request_id=f"lb{first:x}n{index:x}")
        started = clock()
        try:
            result = client.predict(request)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            tally.fail(type(error).__name__)
            continue
        elapsed = (clock() - started) * 1000.0
        if not inp.predict_matches(result.logits, reference):
            tally.fail("wrong_predict")
            continue
        with tally.lock:
            tally.attempted += 1
            tally.latencies_ms.append(elapsed)


def run_study(client, spec, reference, tally: Tally, poll: float,
              deadline: Optional[float] = None) -> Optional[float]:
    """Submit one study, poll it every ``poll`` seconds and check it.

    Returns its submit-to-done seconds, or ``None`` when it failed or was
    still running at ``deadline`` (then it is cancelled and not counted).
    """
    cells = len(reference.cells)
    started = time.monotonic()
    try:
        job_id = client.submit_study(spec)
        while True:
            status = client.get_study(job_id)
            if status.state != "running":
                break
            if deadline is not None and time.monotonic() >= deadline:
                client.cancel_study(job_id)
                return None
            time.sleep(poll)
    except Exception as error:  # noqa: BLE001 - every failure is counted
        tally.fail(type(error).__name__, cells)
        return None
    elapsed = time.monotonic() - started
    if status.state != "done" or not inp.study_matches(status.result, reference):
        tally.fail(f"study_{status.state}" if status.state != "done" else "wrong_study",
                   cells)
        return None
    with tally.lock:
        tally.attempted += cells
        tally.study_seconds.append(elapsed)
    return elapsed


def study_loop(client, data: inp.Inputs, deadline: float, tally: Tally) -> None:
    """The Fig. 6 study back to back, a fresh seed each time.

    Polled every 50 ms (1% of a study): each poll costs the edge a
    connection, and the reader shares that edge.
    """
    index = 0
    while time.monotonic() < deadline:
        seed = data.study_seeds[index % len(data.study_seeds)]
        index += 1
        run_study(client, inp.study_spec_for(data, "fig6", seed), data.study_refs[seed],
                  tally, 0.05, deadline)


def run_clients(targets: List[Callable[[], None]]) -> None:
    """Run each closed loop on its own thread and wait for all of them."""
    threads = [threading.Thread(target=target, name=f"client-{index}")
               for index, target in enumerate(targets)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
