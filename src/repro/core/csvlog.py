"""CSV logging of synchronizer state.

The artifact's experiments produce "CSV logs from the synchronizer,
tracking UAV dynamics, sensing requests, and control targets" (Artifact
appendix A.2).  :class:`SyncLogger` records one row per synchronization
step with exactly those column families and serializes to CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable


@dataclass
class SyncLogRow:
    """One synchronization step's log record."""

    step: int
    sim_time: float
    x: float
    y: float
    z: float
    yaw: float
    speed: float
    course_s: float
    course_d: float
    collisions: int
    camera_requests: int
    imu_requests: int
    depth_requests: int
    target_v_forward: float
    target_v_lateral: float
    target_yaw_rate: float
    # Fault / resilience columns (all zero on a healthy link).
    packets_dropped: int = 0
    packets_corrupted: int = 0
    retries: int = 0

    FIELDS = (
        "step",
        "sim_time",
        "x",
        "y",
        "z",
        "yaw",
        "speed",
        "course_s",
        "course_d",
        "collisions",
        "camera_requests",
        "imu_requests",
        "depth_requests",
        "target_v_forward",
        "target_v_lateral",
        "target_yaw_rate",
        "packets_dropped",
        "packets_corrupted",
        "retries",
    )

    def as_tuple(self) -> tuple[float, ...]:
        return _row_values(self)

    def __reduce__(self) -> tuple[type[SyncLogRow], tuple[float, ...]]:
        # Positional (FIELDS is the declaration order): a pickled row
        # carries no field names and loads in one constructor call.
        return (type(self), _row_values(self))


_row_values: Callable[[SyncLogRow], tuple[Any, ...]] = attrgetter(*SyncLogRow.FIELDS)


@dataclass
class SyncLogger:
    """Accumulates rows; renders or writes CSV on demand."""

    rows: list[SyncLogRow] = field(default_factory=list)

    def log(self, row: SyncLogRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(SyncLogRow.FIELDS)
        for row in self.rows:
            writer.writerow(row.as_tuple())
        return buffer.getvalue()

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv())

    @staticmethod
    def read(path: str) -> "SyncLogger":
        logger = SyncLogger()
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            for record in reader:
                logger.log(
                    SyncLogRow(
                        step=int(record["step"]),
                        sim_time=float(record["sim_time"]),
                        x=float(record["x"]),
                        y=float(record["y"]),
                        z=float(record["z"]),
                        yaw=float(record["yaw"]),
                        speed=float(record["speed"]),
                        course_s=float(record["course_s"]),
                        course_d=float(record["course_d"]),
                        collisions=int(record["collisions"]),
                        camera_requests=int(record["camera_requests"]),
                        imu_requests=int(record["imu_requests"]),
                        depth_requests=int(record["depth_requests"]),
                        target_v_forward=float(record["target_v_forward"]),
                        target_v_lateral=float(record["target_v_lateral"]),
                        target_yaw_rate=float(record["target_yaw_rate"]),
                        # Absent in logs written before fault injection
                        # existed; read those as fault-free.
                        packets_dropped=int(record.get("packets_dropped", 0) or 0),
                        packets_corrupted=int(record.get("packets_corrupted", 0) or 0),
                        retries=int(record.get("retries", 0) or 0),
                    )
                )
        return logger
