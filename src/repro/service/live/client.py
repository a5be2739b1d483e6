"""Async client for the live location server.

One :class:`LiveClient` owns one TCP connection and issues strictly
request/response traffic over it (the protocol has no server push, so a
connection is a simple in-order pipeline).  Concurrency in the load
generator comes from many clients, not from multiplexing one.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Tuple

from repro.geo.bbox import BoundingBox
from repro.protocols.base import UpdateMessage
from repro.service.live.protocol import (
    decode_answer,
    encode_message,
    read_frame,
    write_frame,
)
from repro.sim.workload import QueryCall, QueryWorkload


class LiveRequestError(RuntimeError):
    """The server answered ``ok: false``.

    The response payload is kept on :attr:`response` so callers can
    distinguish a backpressure rejection (``rejected: true``) from a
    genuine error.
    """

    def __init__(self, response: Dict[str, object]):
        super().__init__(str(response.get("error", "request failed")))
        self.response = response


class LiveClient:
    """A connected request/response client."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "LiveClient":
        """Open a TCP connection to a running :class:`LiveLocationServer`."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "LiveClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # raw request plumbing
    # ------------------------------------------------------------------ #
    async def request(
        self, payload: Dict[str, object], check: bool = True
    ) -> Dict[str, object]:
        """Send one frame, await the response frame.

        With *check* (the default) an ``ok: false`` response raises
        :class:`LiveRequestError`; pass ``check=False`` to inspect
        rejections (backpressure tests) without exception handling.
        """
        await write_frame(self._writer, payload)
        response = await read_frame(self._reader)
        if response is None:
            raise ConnectionError("server closed the connection")
        if check and not response.get("ok", False):
            raise LiveRequestError(response)
        return response

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    async def ingest(
        self,
        time: float,
        batch: List[Tuple[str, UpdateMessage]],
        wait: bool = True,
        check: bool = True,
    ) -> Dict[str, object]:
        """Submit one update batch; the response carries its ``seq``."""
        payload = {
            "op": "ingest",
            "t": time,
            "updates": [encode_message(object_id, message) for object_id, message in batch],
        }
        if not wait:
            payload["wait"] = False
        return await self.request(payload, check=check)

    async def range_query(
        self,
        area: BoundingBox,
        time: float,
        margin: float = 0.0,
        min_seq: int = 0,
    ) -> Tuple[List[str], int]:
        """Range query; returns ``(sorted ids, at_seq)``."""
        response = await self.request(
            {
                "op": "range",
                "t": time,
                "box": [area.min_x, area.min_y, area.max_x, area.max_y],
                "margin": margin,
                "min_seq": min_seq,
            }
        )
        return decode_answer("range", response["answer"]), int(response["at_seq"])

    async def nearest_objects(
        self,
        point: Tuple[float, float],
        time: float,
        k: int = 1,
        min_seq: int = 0,
    ) -> Tuple[List[Tuple[str, float]], int]:
        """k-nearest query; returns ``([(id, distance)], at_seq)``."""
        response = await self.request(
            {
                "op": "nearest",
                "t": time,
                "point": [point[0], point[1]],
                "k": k,
                "min_seq": min_seq,
            }
        )
        return decode_answer("nearest", response["answer"]), int(response["at_seq"])

    async def geofence_query(
        self,
        point: Tuple[float, float],
        radius: float,
        time: float,
        min_seq: int = 0,
    ) -> Tuple[List[Tuple[str, float]], int]:
        """Geofence query; returns ``([(id, distance)], at_seq)``."""
        response = await self.request(
            {
                "op": "geofence",
                "t": time,
                "point": [point[0], point[1]],
                "radius": radius,
                "min_seq": min_seq,
            }
        )
        return decode_answer("geofence", response["answer"]), int(response["at_seq"])

    async def query_call(
        self,
        workload: QueryWorkload,
        call: QueryCall,
        min_seq: int = 0,
    ) -> Tuple[object, int]:
        """Issue one :class:`QueryCall` exactly as the workload executor would.

        The concrete parameters (range box from the centre, k, radius,
        margin) are derived here from the workload's knobs with the same
        arithmetic as :func:`repro.sim.workload.execute_call`, so the
        server-side facade sees bit-identical arguments.
        """
        if call.kind == "range":
            half = workload.range_extent_m / 2.0
            area = BoundingBox(
                call.cx - half, call.cy - half, call.cx + half, call.cy + half
            )
            answer, at_seq = await self.range_query(
                area, call.time, margin=workload.margin, min_seq=min_seq
            )
        elif call.kind == "nearest":
            answer, at_seq = await self.nearest_objects(
                (call.cx, call.cy), call.time, k=workload.k, min_seq=min_seq
            )
        else:
            answer, at_seq = await self.geofence_query(
                (call.cx, call.cy),
                workload.geofence_radius_m,
                call.time,
                min_seq=min_seq,
            )
        return answer, at_seq
