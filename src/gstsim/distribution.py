"""Planning and executing graph-state distribution over a network.

The strategy simulated here builds the whole target graph state locally at a
root node (local CZs are free), then walks each vertex qubit out to its
destination along a network path.  One hop = one EPR pair across a link plus
a three-step rewrite (CZ onto the local pair half, Y-measure the traveling
qubit, Y-measure the local half) that hands the traveling qubit's
entanglement to the remote half.  The local copy and the transfer are
``NetworkState`` methods (``local_copy``, ``transfer``): this module uses
the state only through its public names.  ``NetworkState`` fuses the two
Y measurements' neighborhood complements into one hand-over of the
traveling qubit's adjacency slot, so a hop costs constant time whatever the
traveling qubit's degree.  Total EPR cost is the sum of path lengths.

Scheduling packs hops into timesteps under the one-pair-per-link-per-step
rule: a set of hops that touches no link twice can run in a single step, so
the greedy scheduler lets each transfer advance as many consecutive hops per
round as free links allow, pausing mid-path when it hits a used link.
"""

from __future__ import annotations

from bisect import insort
from functools import cached_property

from .graphstate import GraphState
from .network import NetworkState, NetworkTopology, NodeId
from .record import Record


class ExecutionError(RuntimeError):
    """A distribution run violated its own plan or failed verification."""


class DistributionRequest(Record):
    """Target graph plus where each of its vertices must end up."""

    _fields = ("target", "assignment")

    def __init__(self, target: GraphState, assignment: dict):
        if set(assignment) != set(target.vertices):
            raise ValueError("assignment must cover exactly the target vertices")
        nodes = list(assignment.values())
        if len(set(nodes)) != len(nodes):
            raise ValueError("assignment must send each vertex to a distinct node")
        self.target = target
        self.assignment = assignment  # target vertex -> NodeId

    @property
    def target_nodes(self) -> list[NodeId]:
        return sorted(self.assignment.values())


class DistributionPlan(Record):
    """One network path per target node; a path is the node sequence from
    the root (single-element path = the root's own target, zero hops)."""

    _fields = ("root", "paths")

    def __init__(self, root: NodeId, paths: dict):
        self.root = root
        self.paths = paths  # target NodeId -> [root, ..., target]

    def hops(self, node: NodeId) -> int:
        return len(self.paths[node]) - 1

    @property
    def epr_cost(self) -> int:
        return sum(len(p) - 1 for p in self.paths.values())


class Schedule(Record):
    """Rounds of (target node, from_index, to_index) path advances."""

    _fields = ("rounds",)

    def __init__(self, rounds: tuple):
        self.rounds = rounds

    @property
    def timesteps(self) -> int:
        return len(self.rounds)


class TraceEvent(Record):
    _fields = ("kind", "subject", "bits")

    def __init__(self, kind: str, subject: tuple, bits: int = 0):
        self.kind = kind  # "epr" | "measure_report" | "directive"
        self.subject = subject
        self.bits = bits


class RunReport(Record):
    """Cost accounting for one distribution run.

    ``trace`` lists every classical message of the run in the order it was
    sent.  A hop walk sends exactly the messages of its (plan, schedule):
    any deviation raises before a report exists.  So a walked run keeps
    only that pair in ``walk`` and derives the list from it the first time
    ``trace`` is read; a run without a walk sets ``trace`` itself.
    """

    _fields = ("epr_pairs", "timesteps", "classical_bits", "root_memory_qubits",
               "resource_qubits", "walk")
    _unshown = ("walk",)

    def __init__(self, epr_pairs: int, timesteps: int, classical_bits: int,
                 root_memory_qubits: int, resource_qubits: int = 0, walk: tuple = ()):
        self.epr_pairs = epr_pairs
        self.timesteps = timesteps
        self.classical_bits = classical_bits
        self.root_memory_qubits = root_memory_qubits
        self.resource_qubits = resource_qubits
        self.walk = walk  # (plan, schedule)

    @cached_property
    def trace(self) -> list:
        return list(_walk_messages(*self.walk)) if self.walk else []


def _walk_messages(plan: DistributionPlan, schedule: Schedule):
    """The messages of a hop walk: a 2-bit directive for each zero-hop target,
    then per scheduled hop its EPR pair and 2-bit measurement report, and a
    2-bit directive when a transfer reaches the end of its path."""
    for tnode in sorted(plan.paths):
        if len(plan.paths[tnode]) == 1:
            yield TraceEvent("directive", (tnode,), bits=2)
    for round_entries in schedule.rounds:
        for (tnode, start, end) in round_entries:
            path = plan.paths[tnode]
            for i in range(start, end):
                yield TraceEvent("epr", (path[i], path[i + 1]))
                yield TraceEvent("measure_report", (tnode, i), bits=2)
            if end == len(path) - 1:
                yield TraceEvent("directive", (tnode,), bits=2)


def validate_plan(topology: NetworkTopology, plan: DistributionPlan, targets) -> None:
    expected = set(targets)
    if set(plan.paths) != expected:
        raise ValueError("plan paths do not cover exactly the target nodes")
    links = topology.links
    for node, path in plan.paths.items():
        if not path or path[0] != plan.root or path[-1] != node:
            raise ValueError(f"path for {node!r} must run from the root to it")
        for a, b in zip(path, path[1:]):
            if ((a, b) if a <= b else (b, a)) not in links:
                raise ValueError(f"path for {node!r} uses missing link ({a!r}, {b!r})")


def plan_shortest(topology: NetworkTopology, targets, root: NodeId) -> DistributionPlan:
    """Lexicographically-least shortest path from the root to every target,
    all from one search."""
    return DistributionPlan(root, topology.shortest_paths(root, sorted(set(targets))))


def center_root(topology: NetworkTopology) -> NodeId:
    """Minimum-eccentricity node; ties broken by node id.

    Exact from eccentricity bounds (Takes & Kosters, Algorithms 6(1), 2013).
    A BFS from v gives ecc(v) and, for every w at distance d from it,
    max(d, ecc(v) - d) <= ecc(w) <= ecc(v) + d.  BFS sources alternate
    between the candidate with the least lower bound and the one with the
    greatest upper bound, and a candidate leaves once its (lower bound, id)
    exceeds the best (eccentricity, id) found, so a few BFS usually settle
    the center where the plain minimum needs one per node.  A searched
    node's bounds meet at its eccentricity, so it leaves the candidates and
    is never searched twice.
    """
    lower = dict.fromkeys(topology.nodes, 0)
    upper = dict.fromkeys(topology.nodes, len(topology))
    best = None  # (eccentricity, node) of the best node searched so far
    high = False
    while lower:
        if high:
            v = min(lower, key=lambda w: (-upper[w], w))
        else:
            v = min(lower, key=lambda w: (lower[w], w))
        high = not high
        hops = topology.bfs_distances(v)
        ecc = max(hops.values())
        if best is None or (ecc, v) < best:
            best = (ecc, v)
        for w in lower:
            d = hops[w]
            lo = lower[w] = max(lower[w], d, ecc - d)
            hi = upper[w] = min(upper[w], ecc + d)
            if lo == hi and (lo, w) < best:
                best = (lo, w)
        lower = {w: lo for w, lo in lower.items() if (lo, w) < best}
    return best[1]


def epr_bound(n: int, s: int, free_root: bool = False) -> int:
    """Worst-case EPR pairs to reach s targets in an n-node network.

    With a caller-chosen root the targets occupy the s farthest possible
    distances, giving s(2n - s - 1)/2.  When every node is a target and the
    root may be optimized, a most-central root halves the reach:
    (3n^2 - 2n)/8 for even n, (3n^2 - 4n + 1)/8 for odd n.
    """
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    if free_root:
        if s != n:
            raise ValueError("free-root bound is defined for s = n")
        num = 3 * n * n - 2 * n if n % 2 == 0 else 3 * n * n - 4 * n + 1
        q, r = divmod(num, 8)
        assert r == 0
        return q
    q, r = divmod(s * (2 * n - s - 1), 2)
    assert r == 0
    return q


def make_schedule(plan: DistributionPlan) -> Schedule:
    """Greedy round construction.

    Each round processes pending transfers longest-remaining-path-first
    (ties by target id), advancing every transfer along consecutive path
    links not yet used this round.  Multi-hop advances and mid-path pauses
    both fall out naturally.  The first transfer examined each round always
    completes (its remaining links are all fresh), so there are at most as
    many rounds as transfers.

    Pending transfers are grouped by their next link, each group sorted by
    that (-remaining, id) key.  Within a round only a group's first
    transfer can move: if its link is free it takes it, and if not, the
    link is just as used for every other member.  So a round sorts and
    examines the group leaders alone, and a transfer that advances joins
    the group of the link it stopped at, for the next round.  It stopped
    there because that link is used, so the group it joins cannot lose its
    leader later in the round.
    """
    links_of = {}
    groups: dict = {}  # next link -> [(-remaining, target), ...], sorted
    for t, p in plan.paths.items():
        if len(p) > 1:
            links = links_of[t] = [(a, b) if a <= b else (b, a) for a, b in zip(p, p[1:])]
            groups.setdefault(links[0], []).append((-len(links), t))
    for group in groups.values():
        group.sort()
    rounds = []
    while groups:
        used = set()
        entries = []
        for (neg_left, t), link in sorted((group[0], link) for link, group in groups.items()):
            links = links_of[t]
            n = len(links)
            i = start = n + neg_left
            while i < n and links[i] not in used:
                used.add(links[i])
                i += 1
            if i > start:
                entries.append((t, start, i))
                group = groups[link]
                del group[0]
                if not group:
                    del groups[link]
                if i < n:
                    insort(groups.setdefault(links[i], []), (i - n, t))
        if not entries:  # pragma: no cover - impossible by the argument above
            raise ExecutionError("scheduler made no progress")
        rounds.append(tuple(entries))
    return Schedule(tuple(rounds))


def _walk_rounds(state: NetworkState, plan: DistributionPlan, schedule: Schedule,
                 carrier: dict) -> RunReport:
    """Walk every scheduled hop, moving ``carrier[target]`` one link per EPR pair.

    Returns the run's report.  Its counts are read off the plan: a walk
    that skipped or repeated a hop would fail in ``transfer`` or in the
    caller's checks of the delivered state before any report is returned.
    The walk sends the messages of ``_walk_messages(plan, schedule)``, one
    EPR pair and 2-bit report per hop and one 2-bit directive per target,
    so ``classical_bits`` is 2·(EPR pairs + targets).

    The root's peak live qubit count is its count before the walk, plus 1
    if the plan has a hop.  Every carrier starts at the root, and
    ``transfer`` needs the carrier and the new pair half at one node, so
    a walk that succeeds starts with a hop that leaves the root while every
    carrier is still there: the start count + 1.  Carriers are only ever
    moved, never created, and a hop adds one qubit at its near end that
    its transfer removes together with the carrier.  So the root never
    holds more than the start count + 1, even when a path revisits it.
    """
    generate_epr, transfer = state.generate_epr, state.transfer
    epr_pairs = plan.epr_cost
    peak_root = state.qubit_count(plan.root) + (1 if epr_pairs else 0)
    for rnum, round_entries in enumerate(schedule.rounds):
        state.advance_timestep()
        for (tnode, start, end) in round_entries:
            path = plan.paths[tnode]
            qubit = carrier[tnode]
            for i in range(start, end):
                try:
                    qu, qv = generate_epr(path[i], path[i + 1])
                    transfer(qubit, qu, qv)
                except ValueError as exc:
                    raise ExecutionError(f"round {rnum}: {exc}") from exc
                qubit = qv
            carrier[tnode] = qubit
    return RunReport(
        epr_pairs=epr_pairs,
        timesteps=schedule.timesteps,
        classical_bits=2 * (epr_pairs + len(plan.paths)),
        root_memory_qubits=peak_root,
        walk=(plan, schedule),
    )


def execute(state: NetworkState, request: DistributionRequest, plan: DistributionPlan,
            schedule: Schedule | None = None) -> RunReport:
    """Run a plan to completion and verify the delivered state.

    Builds the local copy at the root, walks every vertex qubit along its
    scheduled path, and finally demands the live entanglement graph match
    the request exactly (raising ExecutionError otherwise).  Returns the
    walk's report (see ``_walk_rounds``).  Its trace is derived from (plan,
    schedule) when first read: zero-hop targets (the root's own vertex) are
    confirmed up front, every other one when its qubit arrives.
    """
    # looked up at call time, so bench/spans.py can time network.verify_target
    from .network import verify_target

    validate_plan(state.topology, plan, request.target_nodes)
    if schedule is None:
        schedule = make_schedule(plan)
    copy_map = state.local_copy(request.target, plan.root)
    carrier = {node: copy_map[v] for v, node in request.assignment.items()}
    report = _walk_rounds(state, plan, schedule, carrier)
    if not verify_target(state, request.target, request.assignment):
        raise ExecutionError("delivered state does not realize the request")
    assert state.epr_generated == plan.epr_cost
    return report


# ---------------------------------------------------------------------------
# Pre-shared resource state: one root-anchored pair per target
# ---------------------------------------------------------------------------

def build_resource_state(state: NetworkState, targets, root: NodeId) -> tuple[dict, RunReport]:
    """Pre-share one EPR pair between the root and every other target node.

    Each pair starts as two locally-entangled fresh qubits at the root; the
    outer half is then walked to its node with ordinary scheduled transfers.
    Afterwards the root holds |S|-1 anchor qubits, each entangled with one
    qubit at a distinct target — 2(|S|-1) live qubits total (for root in S).
    Returns ({target node: (anchor qubit, remote qubit)}, build report).
    """
    others = sorted(set(targets) - {root})
    plan = plan_shortest(state.topology, others, root) if others else DistributionPlan(root, {})
    schedule = make_schedule(plan)
    anchors = {}
    carrier = {}
    for t in others:
        anchor = state.new_qubit(root)
        mover = state.new_qubit(root)
        state.apply_cz(anchor, mover)
        anchors[t] = anchor
        carrier[t] = mover
    report = _walk_rounds(state, plan, schedule, carrier)
    report.resource_qubits = 2 * len(others)
    pairs = {t: (anchors[t], carrier[t]) for t in others}
    for t, (anchor, remote) in pairs.items():
        if state.neighbors(anchor) != {remote}:
            raise ExecutionError(f"resource pair for {t!r} is not a clean pair")
        if state.node_of(remote) != t:
            raise ExecutionError(f"resource pair half for {t!r} ended up elsewhere")
    return pairs, report


def distribute_via_resource(state: NetworkState, request: DistributionRequest,
                            root: NodeId, pairs: dict) -> RunReport:
    """Distribute a target graph through pre-shared pairs: one timestep flat.

    No network link is touched — every transfer consumes one resource pair
    with purely local operations plus classical messages — so all transfers
    share a single timestep regardless of the target graph.  The counts are
    read off the request: one pair, one 2-bit report and one 2-bit directive
    per remote target, and a 2-bit directive for the root's own.  A request
    sends each vertex to its own node, so no pair serves twice.
    """
    # looked up at call time, so bench/spans.py can time network.verify_target
    from .network import verify_target

    copy_map = state.local_copy(request.target, root)
    peak_root = state.qubit_count(root)
    vertices = sorted(request.target.vertices)
    node_of = request.assignment
    remote = [v for v in vertices if node_of[v] != root]
    trace = [TraceEvent("directive", (root,), bits=2) for v in vertices if node_of[v] == root]
    if remote:
        state.advance_timestep()
    for v in remote:
        node = node_of[v]
        if node not in pairs:
            raise ExecutionError(f"no resource pair reaches node {node!r}")
        anchor, qubit = pairs[node]
        try:
            state.transfer(copy_map[v], anchor, qubit)
        except ValueError as exc:
            raise ExecutionError(f"resource transfer to {node!r}: {exc}") from exc
        trace.append(TraceEvent("measure_report", (node, 0), bits=2))
        trace.append(TraceEvent("directive", (node,), bits=2))
    if not verify_target(state, request.target, request.assignment):
        raise ExecutionError("delivered state does not realize the request")
    report = RunReport(
        epr_pairs=len(remote),
        timesteps=1 if remote else 0,
        classical_bits=2 * (len(vertices) + len(remote)),
        root_memory_qubits=peak_root,
        resource_qubits=2 * len(pairs),
    )
    report.trace = trace
    return report


def warn_if_rounds_exceed(schedule: Schedule, k: int) -> None:
    """Flow plans promise per-link usage k; log when packing needs more rounds."""
    if schedule.timesteps > k:
        import logging  # here, not at module level: importing it slows every start-up

        logging.getLogger(__name__).warning(
            "schedule needs %d rounds though max link usage is %d",
            schedule.timesteps, k,
        )
