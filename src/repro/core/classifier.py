"""Request classifiers — the user-facing API of Perséphone (§4.2).

A classifier inspects an incoming request and returns its type id; the
dispatcher uses the returned type to pick a typed queue.  Requests the
classifier cannot recognize become :data:`~repro.workload.request.UNKNOWN_TYPE`
and land in a low-priority queue served by the spillway core.

``cost_us`` models the classifier's "bump-in-the-wire" latency on the
dispatch path; the paper measured ≈100 ns for header-based classifiers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ClassifierError
from ..sim.engine import bind_hooks
from ..sim.units import nanoseconds
from ..workload.request import UNKNOWN_TYPE, Request

#: The paper's measured cost for a header-lookup classifier (§5.1).
DEFAULT_CLASSIFIER_COST_US = nanoseconds(100)


class RequestClassifier(ABC):
    """Maps requests to type ids on the dispatch critical path."""

    def __init__(self, cost_us: float = DEFAULT_CLASSIFIER_COST_US):
        if cost_us < 0:
            raise ClassifierError(f"classifier cost must be >= 0, got {cost_us}")
        self.cost_us = cost_us
        self.classified = 0
        self.unknown = 0
        #: ``on_classified`` hook slot, bound by :meth:`attach_observer`.
        self._classified_hooks = None

    def attach_observer(self, observer) -> None:
        """Bind ``observer``'s ``on_classified`` hook, if it has one."""
        bind_hooks(self, observer, ("on_classified",))

    @abstractmethod
    def _classify(self, request: Request) -> int:
        """Return the type id for ``request`` (may be UNKNOWN_TYPE)."""

    def classify(self, request: Request) -> int:
        """Classify, record the result on the request, update counters."""
        type_id = self._classify(request)
        request.classified_type = type_id
        self.classified += 1
        if type_id == UNKNOWN_TYPE:
            self.unknown += 1
        if self._classified_hooks is not None:
            for hook in self._classified_hooks:
                hook(request, type_id)
        return type_id


class OracleClassifier(RequestClassifier):
    """Reads the ground-truth type — models a correct header classifier.

    In the real system the type id sits at a known offset in the request
    header (Memcached opcodes, Redis RESP commands, protobuf message
    types); the simulation equivalent is the request's true ``type_id``.
    """

    def _classify(self, request: Request) -> int:
        return request.type_id


class RandomClassifier(RequestClassifier):
    """A *broken* classifier assigning uniformly random types (Fig. 9).

    With random typed queues each queue receives an even mix of every
    type, and DARC provably degenerates to c-FCFS behaviour.
    """

    def __init__(
        self,
        n_types: int,
        rng: np.random.Generator,
        cost_us: float = DEFAULT_CLASSIFIER_COST_US,
    ):
        super().__init__(cost_us)
        if n_types < 1:
            raise ClassifierError(f"n_types must be >= 1, got {n_types}")
        self.n_types = n_types
        self.rng = rng

    def _classify(self, request: Request) -> int:
        return int(self.rng.integers(0, self.n_types))


class CallableClassifier(RequestClassifier):
    """Wraps an arbitrary user function, like Perséphone's C++ API.

    The function may raise or return None to signal an unrecognized
    request; both map to UNKNOWN_TYPE rather than crashing the dispatcher.
    """

    def __init__(
        self,
        fn: Callable[[Request], Optional[int]],
        cost_us: float = DEFAULT_CLASSIFIER_COST_US,
    ):
        super().__init__(cost_us)
        self.fn = fn

    def _classify(self, request: Request) -> int:
        try:
            result = self.fn(request)
        except Exception:
            return UNKNOWN_TYPE
        return UNKNOWN_TYPE if result is None else int(result)


class PartialClassifier(RequestClassifier):
    """Recognizes only a subset of types; everything else is UNKNOWN.

    Models an incomplete deployment where new request types ship before
    the classifier learns about them (§3's "undeclared, unknown requests").
    """

    def __init__(
        self,
        known_types: Sequence[int],
        cost_us: float = DEFAULT_CLASSIFIER_COST_US,
    ):
        super().__init__(cost_us)
        self.known_types = frozenset(known_types)

    def _classify(self, request: Request) -> int:
        if request.type_id in self.known_types:
            return request.type_id
        return UNKNOWN_TYPE


class ConfusionClassifier(RequestClassifier):
    """Misclassifies type ``a`` as ``b`` (and optionally vice versa) with
    probability ``error_rate`` — for robustness experiments beyond Fig. 9."""

    def __init__(
        self,
        a: int,
        b: int,
        error_rate: float,
        rng: np.random.Generator,
        symmetric: bool = True,
        cost_us: float = DEFAULT_CLASSIFIER_COST_US,
    ):
        super().__init__(cost_us)
        if not 0.0 <= error_rate <= 1.0:
            raise ClassifierError(f"error_rate must be in [0,1], got {error_rate}")
        self.a = a
        self.b = b
        self.error_rate = error_rate
        self.symmetric = symmetric
        self.rng = rng

    def _classify(self, request: Request) -> int:
        tid = request.type_id
        # Binding rng.random draws nothing; the draw order is unchanged.
        random = self.rng.random
        if tid == self.a and random() < self.error_rate:
            return self.b
        if self.symmetric and tid == self.b and random() < self.error_rate:
            return self.a
        return tid
