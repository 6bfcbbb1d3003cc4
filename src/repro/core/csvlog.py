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
from typing import ClassVar, NamedTuple


class _SyncLogColumns(NamedTuple):
    """The CSV columns of one synchronization step's record, in order."""

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


class SyncLogRow(_SyncLogColumns):
    """One synchronization step's log record.

    A row is a tuple of its columns in :attr:`FIELDS` order, so it is its
    own CSV record, canonical payload row and positional pickle (no field
    names in it).  (A ``NamedTuple`` body declares fields only; the
    column list is a class constant of this subclass.)
    """

    __slots__ = ()

    FIELDS: ClassVar[tuple[str, ...]] = _SyncLogColumns._fields


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
        writer.writerows(self.rows)
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
