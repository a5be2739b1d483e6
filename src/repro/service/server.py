"""The location server.

Stores, per tracked object, the last received update and the prediction
function agreed with that object's source, and reconstructs the object's
assumed position at any query time — the right-hand side of the paper's
Fig. 1.

:class:`LocationServer` is the plain single-server backend of the fleet
loop (one :class:`TrackedObject` record per object) and the store the
linear-scan test oracle reads.  The fleet only registers objects and
ingests their delivered updates here; it measures errors from each lane's
own delivered stream.  :meth:`~LocationServer.predict_position`,
:meth:`~LocationServer.predict_positions` and
:meth:`~LocationServer.all_positions` (one record predicted at a time) are
the query surface for callers and oracles; the benchmark's layer tracer
wraps them by name.  The sharded
:class:`~repro.service.facade.LocationService` keeps the same records in
one columnar row table of its own and predicts every closed-form row in one
vectorised pass; it does not sit on top of this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.protocols.base import ObjectState, UpdateMessage
from repro.protocols.prediction import PredictionFunction, StaticPrediction


@dataclass(slots=True)
class TrackedObject:
    """Server-side record for one mobile object.

    A fleet holds one of these per tracked object, so the record is slotted:
    no per-instance ``__dict__``, which at mega-fleet scale saves roughly
    100 bytes per object and keeps attribute access on the hot predict path
    a fixed-offset load.
    """

    object_id: str
    prediction: PredictionFunction
    accuracy: float
    state: Optional[ObjectState] = None
    updates_received: int = 0
    last_update_time: Optional[float] = None

    def predict(self, time: float) -> Optional[np.ndarray]:
        """Predicted position at *time*, or ``None`` before the first update."""
        if self.state is None:
            return None
        return self.prediction.predict(self.state, time)


class LocationServer:
    """Stores object states and answers position queries."""

    def __init__(self) -> None:
        self._objects: Dict[str, TrackedObject] = {}

    # ------------------------------------------------------------------ #
    # registration and updates
    # ------------------------------------------------------------------ #
    def register_object(
        self,
        object_id: str,
        prediction: Optional[PredictionFunction] = None,
        accuracy: float = float("inf"),
    ) -> TrackedObject:
        """Register a mobile object and the prediction function its source uses.

        Registering the prediction function up front mirrors the paper's
        requirement that "both the server and the source use the same
        prediction function and parameters".
        """
        if object_id in self._objects:
            raise ValueError(f"object {object_id!r} already registered")
        record = TrackedObject(
            object_id=object_id,
            prediction=prediction or StaticPrediction(),
            accuracy=float(accuracy),
        )
        self._objects[object_id] = record
        return record

    def is_registered(self, object_id: str) -> bool:
        """Whether *object_id* is known to the server."""
        return object_id in self._objects

    def receive_update(self, object_id: str, message: UpdateMessage, time: float) -> None:
        """Apply an update message received at *time*."""
        record = self._objects[object_id]
        record.state = message.state
        record.updates_received += 1
        record.last_update_time = time

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def tracked_object(self, object_id: str) -> TrackedObject:
        """The server-side record for *object_id*."""
        return self._objects[object_id]

    def object_ids(self) -> list[str]:
        """All registered object ids."""
        return list(self._objects)

    def predict_position(self, object_id: str, time: float) -> Optional[np.ndarray]:
        """The position the server assumes for *object_id* at *time*."""
        return self._objects[object_id].predict(time)

    def predict_positions(
        self, object_ids: Sequence[str], time: float
    ) -> List[Optional[np.ndarray]]:
        """Predicted positions for many objects at one query time.

        Objects that have not reported yet yield ``None`` at their position
        in the result.
        """
        objects = self._objects
        return [objects[object_id].predict(time) for object_id in object_ids]

    def all_positions(self, time: float) -> Dict[str, np.ndarray]:
        """Predicted positions of every object that has reported at least once."""
        out: Dict[str, np.ndarray] = {}
        for object_id, record in self._objects.items():
            predicted = record.predict(time)
            if predicted is not None:
                out[object_id] = predicted
        return out
