"""DNN runtime: schedules operator graphs onto CPU / Gemmini backends.

This is the ONNX-Runtime analog of Section 3.3: "The ONNX models can then
be executed using ONNX-Runtime either directly on CPUs or systolic-array
based matrix accelerators like Gemmini."  The placement policy matches
that flow: matmul-shaped operators (conv / linear) run on Gemmini when the
SoC has one, everything else (batchnorm, relu, residual adds, pooling,
softmax) runs on the host core, and every node pays the runtime's dispatch
overhead.  Each inference also pays a fixed session cost (image unpack,
FP32 normalization).

The resulting :class:`InferenceReport` is the unit of time the simulated
target program consumes per inference, and its ``gemmini_cycles`` feed the
accelerator activity factor of Figure 13.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.dnn.graph import Graph, MATMUL_OPS, Node, OpType
from repro.soc.cpu import CpuModel
from repro.soc.gemmini import GemminiModel

#: Cost of re-activating a session after another one ran (cold caches and
#: weight refetch); the dynamic runtime of Section 5.3 pays this whenever
#: it switches networks, which is why it completes ~15% fewer inferences
#: than a single static session.
SESSION_SWITCH_CYCLES: int = 6_000_000


@dataclass(frozen=True)
class NodeCost:
    """Placement and cycle cost of one scheduled node."""

    name: str
    op: str
    backend: str  # "gemmini" | "cpu"
    cycles: int
    gemmini_cycles: int


@dataclass(frozen=True)
class InferenceReport:
    """Cycle accounting for one full inference."""

    graph_name: str
    total_cycles: int
    gemmini_cycles: int
    dispatch_cycles: int
    session_fixed_cycles: int
    node_costs: tuple[NodeCost, ...] = field(default=())

    @property
    def cpu_cycles(self) -> int:
        return self.total_cycles - self.gemmini_cycles

    def latency_seconds(self, frequency_hz: float) -> float:
        return self.total_cycles / frequency_hz

    def latency_ms(self, frequency_hz: float = 1e9) -> float:
        return 1e3 * self.latency_seconds(frequency_hz)


class InferenceSession:
    """A loaded model bound to an SoC's compute resources.

    The schedule is static (graphs are static), so the cycle plan is
    computed once at load time and every :meth:`run` replays it — exactly
    the cost structure of a real ONNX-Runtime session with static shapes.
    """

    def __init__(
        self,
        graph: Graph,
        cpu: CpuModel,
        gemmini: GemminiModel | None = None,
        include_session_fixed: bool = True,
        stage_timer=None,
    ):
        graph.validate()
        self.graph = graph
        self.cpu = cpu
        self.gemmini = gemmini
        #: Optional :class:`~repro.core.timing.StageTimer`; ``run`` charges
        #: its wall time to the ``inference`` stage when set.
        self.stage_timer = stage_timer
        # The fixed session cost models image unpack + normalization;
        # branches that do not consume a camera frame (e.g. a fusion
        # network's IMU trunk or shared head) skip it.
        self._include_session_fixed = include_session_fixed
        self._plan = self._build_plan()
        #: Gemmini-placed nodes of the plan: ``ops_executed`` per inference.
        self._gemmini_ops = sum(1 for c in self._plan.node_costs if c.backend == "gemmini")
        self.inferences_run = 0

    def _cost_node(self, node: Node) -> NodeCost:
        if node.op == OpType.INPUT:
            return NodeCost(node.name, node.op.value, "cpu", 0, 0)
        if node.op in MATMUL_OPS:
            if self.gemmini is not None:
                cycles = self.gemmini.node_cost(node).total_cycles
                return NodeCost(node.name, node.op.value, "gemmini", cycles, cycles)
            cycles = self.cpu.matmul_cycles(node.macs)
            return NodeCost(node.name, node.op.value, "cpu", cycles, 0)
        if node.op == OpType.FLATTEN:
            return NodeCost(node.name, node.op.value, "cpu", 0, 0)
        cycles = self.cpu.elementwise_cycles(node.output_elems)
        return NodeCost(node.name, node.op.value, "cpu", cycles, 0)

    def _build_plan(self) -> InferenceReport:
        node_costs = tuple(self._cost_node(node) for node in self.graph)
        op_nodes = sum(1 for n in self.graph if n.op != OpType.INPUT)
        dispatch = op_nodes * self.cpu.dispatch_cycles
        session_fixed = (
            self.cpu.session_fixed_cycles if self._include_session_fixed else 0
        )
        total = sum(c.cycles for c in node_costs) + dispatch + session_fixed
        return InferenceReport(
            graph_name=self.graph.name,
            total_cycles=total,
            gemmini_cycles=sum(c.gemmini_cycles for c in node_costs),
            dispatch_cycles=dispatch,
            session_fixed_cycles=session_fixed,
            node_costs=node_costs,
        )

    @property
    def report(self) -> InferenceReport:
        """The static per-inference cost plan."""
        return self._plan

    def run(self) -> InferenceReport:
        """Execute one inference; updates accelerator busy counters."""
        if self.stage_timer is not None:
            t0 = time.perf_counter()
            try:
                return self._run()
            finally:
                self.stage_timer.add("inference", time.perf_counter() - t0)
        return self._run()

    def _run(self) -> InferenceReport:
        if self.gemmini is not None:
            self.gemmini.busy_cycles += self._plan.gemmini_cycles
            self.gemmini.ops_executed += self._gemmini_ops
        self.inferences_run += 1
        return self._plan


def latency_table(
    graphs: dict[str, Graph], cpu: CpuModel, gemmini: GemminiModel | None
) -> dict[str, InferenceReport]:
    """Per-model inference reports — the generator behind Table 3."""
    table = {}
    for name, graph in graphs.items():
        session = InferenceSession(graph, cpu, gemmini)
        table[name] = session.report
    return table
