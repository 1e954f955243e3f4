"""The fleet dispatcher: one audit surface over many ``repro serve`` nodes.

A :class:`FleetDispatcher` owns a pool of audit-server nodes and routes
each audit by **consistent hashing on the alpha-invariant program
fingerprint** (:mod:`repro.service.fingerprint`): every audit of the
same program lands on the same node (until the ring changes), so each
node's in-memory prepared-program table stays hot for *its* shard of
the program corpus instead of every node churning through all of it.

Large batch audits additionally **split into row-contiguous
sub-requests** (balanced slices via
:func:`~repro.semantics.shard.shard_bounds`) fanned across the healthy
nodes.  Buffered or streamed, the sub-results merge back through
:class:`repro.api.stream.SliceFold`, the one merge of row slices that
local and served streams use too, so a split audit renders a single
node's bytes.  Both kinds of audit share one routing plan
(:meth:`FleetDispatcher._plan`) and one failover walk
(:meth:`FleetDispatcher._walk`).

Dispatch is health- and retry-aware:

* nodes are **probed** (``GET /healthz``) before the first audit; a
  node that fails its probe is ejected up front — a misconfigured pool
  fails fast, not on the Nth request;
* the routing decision **consults ``GET /stats`` queue depths**: when
  the hash-preferred owner is backlogged past ``spill_depth``, the
  request spills to the least-loaded healthy node (cache locality is a
  heuristic; latency is the contract);
* each sub-request gets **bounded retries with exponential backoff**;
  a :class:`~repro.service.client.ClientTruncationError` (the node
  answered, the body was cut) retries the *same* node, while
  :class:`~repro.service.client.ClientConnectionError` counts toward
  **ejection**: after ``eject_after`` connection failures with no
  complete answer between them the node leaves the ring and its keys
  rehash onto the survivors, where the audit is re-dispatched;
* every 200 body is validated through
  :meth:`repro.api.result.AuditResult.from_json` before it is accepted
  or merged, so a **mixed-version fleet** (a node emitting a foreign
  ``schema_version``) fails loudly instead of merging garbage.

:class:`FleetError` subclasses ``ValueError`` on purpose: the CLI and
the audit server already render ``ValueError`` as an ``error:`` line /
HTTP 422, so fleet failures surface through every existing surface
without new plumbing.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import queue as queue_mod
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..api.result import SCHEMA_VERSION, AuditResult, render_payload
from ..api.stream import (
    StreamEvent,
    StreamProtocolError,
    batch_row_count,
    events_of_lines,
    fold_slices,
    payload_events,
)
from . import client
from .client import (
    ClientConnectionError,
    ClientDeadlineError,
    ClientError,
    ClientStatusError,
    ClientTruncationError,
)
from .fingerprint import fingerprint_source

__all__ = [
    "FleetDispatcher",
    "FleetError",
    "HashRing",
    "Node",
    "RemoteFleetReport",
    "merge_batch_payloads",
    "parse_nodes",
]

#: Engines whose payloads are row-indexed batch reports the merge
#: discipline applies to; only these split across nodes.
MERGEABLE_ENGINES = ("batch", "sharded")

_T = TypeVar("_T")

#: One sub-request of a routed audit: its spec and its node order.
_SubRequest = Tuple[Dict[str, Any], List["Node"]]

#: A split stream's per-shard hand-off: events, then a done/error mark.
_EventQueue = queue_mod.Queue[Tuple[str, Any]]


class FleetError(ValueError):
    """A fleet-level dispatch failure (no healthy nodes, bad merge,
    node rejection, incompatible payload version)."""


@dataclass(frozen=True)
class Node:
    """One ``repro serve`` endpoint."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


def parse_nodes(
    spec: Union[str, Iterable[Union[str, Node]]],
) -> Tuple[Node, ...]:
    """Parse a node pool: ``"host:port,host:port"`` (commas and/or
    whitespace) or an iterable of specs/:class:`Node`.  Order is
    preserved, duplicates collapse, an empty pool raises."""
    parts: List[Union[str, Node]]
    if isinstance(spec, str):
        parts = [p for p in spec.replace(",", " ").split() if p]
    else:
        parts = list(spec)
    nodes: List[Node] = []
    for part in parts:
        if isinstance(part, Node):
            node = part
        else:
            host, sep, port_text = part.strip().rpartition(":")
            if not sep or not host:
                raise FleetError(
                    f"node spec {part!r} must look like host:port"
                )
            try:
                port = int(port_text)
            except ValueError:
                raise FleetError(
                    f"node spec {part!r} has a non-integer port"
                ) from None
            if not 0 < port < 65536:
                raise FleetError(f"node spec {part!r} port out of range")
            node = Node(host, port)
        if node not in nodes:
            nodes.append(node)
    if not nodes:
        raise FleetError(
            "fleet needs at least one node (comma-separated host:port list)"
        )
    return tuple(nodes)


def _hash_point(token: str) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes.

    Each node contributes ``replicas`` points on a 64-bit ring; a key
    routes to the first point at or after its own hash.  Placement
    depends only on the node set — never on insertion order — so adding
    or removing one node of *N* moves ~1/N of the keys and leaves every
    other key's owner (and its warm caches) untouched.
    """

    def __init__(self, nodes: Iterable[Node] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be a positive integer")
        self.replicas = replicas
        self._nodes: List[Node] = []
        self._points: List[int] = []
        self._owners: List[Node] = []
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return tuple(self._nodes)

    def add(self, node: Node) -> None:
        if node in self._nodes:
            return
        self._nodes.append(node)
        self._rebuild()

    def remove(self, node: Node) -> None:
        self._nodes.remove(node)
        self._rebuild()

    def _rebuild(self) -> None:
        pairs = sorted(
            (_hash_point(f"{node}#{i}"), node)
            for node in self._nodes
            for i in range(self.replicas)
        )
        self._points = [point for point, _ in pairs]
        self._owners = [node for _, node in pairs]

    def node_for(self, key: str) -> Node:
        """The key's owner; raises :class:`FleetError` on an empty ring."""
        order = self.preference(key)
        if not order:
            raise FleetError("consistent-hash ring is empty")
        return order[0]

    def preference(self, key: str) -> List[Node]:
        """Every node, owner first, in ring-walk order from ``key``.

        The tail is the failover order: when the owner dies, the key
        moves to ``preference(key)[1]`` — the same node it would hash to
        if the owner were removed from the ring.
        """
        if not self._points:
            return []
        start = bisect.bisect_right(self._points, _hash_point(key))
        order: List[Node] = []
        for offset in range(len(self._owners)):
            node = self._owners[(start + offset) % len(self._owners)]
            if node not in order:
                order.append(node)
                if len(order) == len(self._nodes):
                    break
        return order


def merge_batch_payloads(
    payloads: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Merge row-contiguous batch sub-payloads into the single-node payload.

    ``payloads`` must be in **row order**.  Header, rows and aggregates
    go through :func:`~repro.api.stream.fold_slices`, the one merge of
    row slices (equal headers, ``n_rows`` summed, rows re-anchored,
    per-parameter max distance by strictly-greater comparison); the
    verdict lists ``sound`` and ``exact`` concatenate, and error rows
    are offset by the preceding row count.
    """
    if not payloads:
        raise FleetError("nothing to merge: no sub-payloads")
    bounds = [0]
    for payload in payloads:
        if "n_rows" not in payload or "params" not in payload:
            raise FleetError(
                "cannot merge a non-batch payload "
                f"(engine {payload.get('engine')!r})"
            )
        bounds.append(bounds[-1] + payload["n_rows"])
    with_rows = sum("rows" in payload for payload in payloads)
    if with_rows not in (0, len(payloads)):
        raise FleetError(
            "cannot merge sub-audits: only some carry a rows section"
        )
    try:
        (_, header), *rows, (_, trailer) = fold_slices(
            bounds, (payload_events(dict(p)) for p in payloads)
        )
    except StreamProtocolError as exc:
        raise FleetError(str(exc)) from exc
    merged = dict(header)
    for key in ("all_sound", "sound_rows", "fallback_rows"):
        merged[key] = trailer[key]
    merged["sound"] = [s for p in payloads for s in p["sound"]]
    merged["exact"] = [e for p in payloads for e in p["exact"]]
    merged["errors"] = {
        str(int(row) + lo): p["errors"][row]
        for p, lo in zip(payloads, bounds)
        for row in sorted(p["errors"], key=int)
    }
    merged["params"] = trailer["params"]
    if with_rows:
        merged["rows"] = [row for _, row in rows]
    return merged


class RemoteFleetReport:
    """The in-process ``describe()`` face of a fleet-dispatched audit."""

    __slots__ = ("payload", "nodes_line")

    def __init__(self, payload: Mapping[str, Any], nodes_line: str) -> None:
        self.payload = payload
        self.nodes_line = nodes_line

    def describe(self) -> str:
        payload = self.payload
        lines = [
            f"fleet audit        : {payload['definition']} "
            f"(inner engine {payload['engine']})",
            f"nodes              : {self.nodes_line}",
        ]
        if "n_rows" in payload:
            lines.append(
                f"rows               : {payload['sound_rows']}"
                f"/{payload['n_rows']} sound "
                f"({payload['fallback_rows']} via scalar fallback)"
            )
            for name, entry in payload["params"].items():
                status = "ok" if entry["within_bound"] else "VIOLATION"
                lines.append(
                    f"  {name}: max d = {entry['max_distance']} <= "
                    f"{entry['bound']}  [{status}]"
                )
        else:
            lines.append(f"sound              : {payload['sound']}")
        return "\n".join(lines)


class FleetDispatcher:
    """Routes audits across a pool of ``repro serve`` nodes.

    Thread-safe: the split fan-out dispatches sub-requests from worker
    threads, and long-lived callers (the ``remote`` engine, the bench
    harness) share one dispatcher across client threads.

    ``retries`` bounds the *same-node* attempts per sub-request (so a
    sub-request costs at most ``retries + 1`` exchanges per node tried);
    ``eject_after`` is the consecutive-connection-failure budget before
    a node is permanently ejected and the ring rehashes; ``sleep`` is
    injectable so tests retry without waiting.
    """

    def __init__(
        self,
        nodes: Union[str, Iterable[Union[str, Node]]],
        *,
        timeout: float = 300.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        eject_after: int = 2,
        min_rows_per_shard: int = 8,
        replicas: int = 64,
        probe: bool = True,
        probe_timeout: float = 10.0,
        stats_ttl_s: float = 1.0,
        spill_depth: Optional[int] = 4,
        rejoin_after_s: Optional[float] = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 0:
            raise FleetError("retries must be >= 0")
        if eject_after < 1:
            raise FleetError("eject_after must be >= 1")
        if min_rows_per_shard < 1:
            raise FleetError("min_rows_per_shard must be >= 1")
        if rejoin_after_s is not None and rejoin_after_s < 0:
            raise FleetError("rejoin_after_s must be >= 0 (or None)")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.eject_after = eject_after
        self.min_rows_per_shard = min_rows_per_shard
        self.probe_on_first_use = probe
        self.probe_timeout = probe_timeout
        self.stats_ttl_s = stats_ttl_s
        self.spill_depth = spill_depth
        self.rejoin_after_s = rejoin_after_s
        self._sleep = sleep
        self._lock = threading.Lock()
        self._ring = HashRing(parse_nodes(nodes), replicas=replicas)
        self._failures: Dict[Node, int] = {}
        self._probed = not probe
        #: node -> human-readable ejection reason, in ejection order
        self.ejected: Dict[Node, str] = {}
        #: node -> monotonic ejection time (rejoin TTL anchor)
        self._ejected_at: Dict[Node, float] = {}
        #: nodes whose ejection never heals (incompatible payloads: a
        #: rejoin would re-admit the mixed-version build)
        self._permanent: set = set()
        self.stats: Dict[str, int] = {
            "audits": 0,
            "split_audits": 0,
            "stream_audits": 0,
            "sub_requests": 0,
            "retries": 0,
            "failovers": 0,
            "spills": 0,
            "ejections": 0,
            "rejoins": 0,
        }
        self._depth_cache: Dict[Node, Tuple[float, int]] = {}

    # -- pool state --------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """The currently healthy (non-ejected) nodes."""
        with self._lock:
            return self._ring.nodes

    def describe_nodes(self) -> str:
        alive = ", ".join(str(node) for node in self.nodes)
        if self.ejected:
            dead = ", ".join(str(node) for node in self.ejected)
            return f"{alive} (ejected: {dead})"
        return alive

    def ensure_probed(self) -> None:
        """Health-check every node once (idempotent, done lazily on the
        first audit).  Probe failures eject immediately: an operator's
        stale pool entry should fail the *first* request, loudly."""
        with self._lock:
            if self._probed:
                return
            self._probed = True
            candidates = list(self._ring.nodes)
        for node in candidates:
            try:
                client.healthz(
                    node.host, node.port, timeout=self.probe_timeout
                )
            except ClientError as exc:
                self._eject(node, f"failed health probe: {exc}")

    def _eject(
        self, node: Node, reason: str, *, permanent: bool = False
    ) -> None:
        with self._lock:
            if permanent:
                self._permanent.add(node)
            if node in self.ejected:
                return
            self.ejected[node] = reason
            self._ejected_at[node] = time.monotonic()
            self.stats["ejections"] += 1
            if node in self._ring.nodes:
                self._ring.remove(node)

    def _maybe_rejoin(self) -> None:
        """Re-admit ejected nodes whose TTL has passed and that answer
        ``/healthz`` again.

        An ejection for connection failures is a statement about the
        node *then* — a restarted or un-partitioned server deserves its
        ring position (and warm caches) back.  An ejection for an
        incompatible payload is a statement about the node's *build*
        and never heals.  A failed recheck re-arms the TTL, so a dead
        node costs one probe per ``rejoin_after_s``, not one per audit.
        """
        if self.rejoin_after_s is None:
            return
        now = time.monotonic()
        with self._lock:
            candidates = [
                node
                for node, since in self._ejected_at.items()
                if node in self.ejected
                and node not in self._permanent
                and now - since >= self.rejoin_after_s
            ]
        for node in candidates:
            try:
                client.healthz(
                    node.host, node.port, timeout=self.probe_timeout
                )
            except ClientError:
                with self._lock:
                    self._ejected_at[node] = time.monotonic()
                continue
            with self._lock:
                self.ejected.pop(node, None)
                self._ejected_at.pop(node, None)
                self._failures.pop(node, None)
                self._ring.add(node)
                self.stats["rejoins"] += 1

    def _record_failure(self, node: Node, reason: str) -> bool:
        """Count one connection failure; True when it ejected the node."""
        with self._lock:
            count = self._failures.get(node, 0) + 1
            self._failures[node] = count
            should_eject = count >= self.eject_after
        if should_eject:
            self._eject(
                node,
                f"{count} consecutive connection failure(s); last: {reason}",
            )
        return should_eject

    def _record_success(self, node: Node) -> None:
        with self._lock:
            self._failures.pop(node, None)

    # -- /stats queue-depth consult ----------------------------------------

    def _queue_depth(self, node: Node) -> Optional[int]:
        """The node's total thread-pool backlog, TTL-cached; ``None``
        when /stats is unreachable (health is healthz's job)."""
        now = time.monotonic()
        with self._lock:
            cached = self._depth_cache.get(node)
            if cached is not None and cached[0] > now:
                return cached[1]
        try:
            payload = client.stats(
                node.host, node.port,
                timeout=min(self.timeout, self.probe_timeout),
            )
            queues = payload.get("queues", {})
            depth = int(queues.get("light", {}).get("depth", 0)) + int(
                queues.get("heavy", {}).get("depth", 0)
            )
        except (ClientError, TypeError, ValueError):
            return None
        with self._lock:
            self._depth_cache[node] = (now + self.stats_ttl_s, depth)
        return depth

    def _route_order(self, key: str) -> List[Node]:
        """Owner-first failover order for ``key``, with load spill: a
        backlogged owner (queue depth >= ``spill_depth``) yields to the
        least-loaded healthy node — locality is a heuristic, latency is
        the contract."""
        with self._lock:
            order = self._ring.preference(key)
        if not order:
            raise FleetError(
                "no healthy nodes left in the fleet "
                f"(ejected: {self.describe_nodes() or 'all'})"
            )
        if self.spill_depth is not None and len(order) > 1:
            owner_depth = self._queue_depth(order[0])
            if owner_depth is not None and owner_depth >= self.spill_depth:
                depths = [
                    (self._queue_depth(node), node) for node in order
                ]
                best = min(
                    (d for d, _ in depths if d is not None),
                    default=owner_depth,
                )
                if best < owner_depth:
                    for depth, node in depths:
                        if depth == best:
                            order.remove(node)
                            order.insert(0, node)
                            with self._lock:
                                self.stats["spills"] += 1
                            break
        return order

    # -- dispatch ----------------------------------------------------------

    def audit_spec(
        self,
        spec: Mapping[str, Any],
        *,
        fingerprint: Optional[str] = None,
        split: Optional[bool] = None,
    ) -> str:
        """Dispatch one audit; returns the response body **text**,
        byte-identical to a single node's 200 body (trailing newline
        included).

        ``fingerprint`` is the routing key — pass the alpha-invariant
        :func:`~repro.service.fingerprint.fingerprint_program` when the
        parsed program is at hand (the ``remote`` engine does); the
        fallback hashes the raw source text, which is still stable per
        client but routes alpha-variants apart.  ``split`` forces the
        row-splitting decision; the default splits mergeable batch
        engines with at least ``2 * min_rows_per_shard`` rows.
        """
        bounds, subs = self._plan(spec, fingerprint, split)
        if bounds is None:
            text, _ = self._fetch(*subs[0])
            return text
        with ThreadPoolExecutor(
            max_workers=len(subs), thread_name_prefix="repro-fleet"
        ) as pool:
            answers = list(pool.map(lambda sub: self._fetch(*sub), subs))
        merged = merge_batch_payloads([payload for _, payload in answers])
        return render_payload(merged) + "\n"

    def audit_stream_spec(
        self,
        spec: Mapping[str, Any],
        *,
        fingerprint: Optional[str] = None,
        split: Optional[bool] = None,
    ) -> Iterator[StreamEvent]:
        """Dispatch one audit as a row stream of header/row/trailer events.

        The same routing plan as :meth:`audit_spec` applies; a split
        audit runs its sub-streams **concurrently** (each node starts
        auditing its shard immediately) and folds them in row order on
        the way out: shard 0's rows drain while later shards fill
        bounded queues, so the first verdicts arrive after one chunk of
        one shard — and the fully drained event sequence reassembles
        byte-identical to the single-node buffered payload.
        """
        bounds, subs = self._plan(
            dict(spec, stream=True), fingerprint, split, stream=True
        )
        if bounds is None:
            yield from self._stream(*subs[0])
            return
        # Each sub-stream pumps into a bounded queue from its own
        # thread; the fold drains the queues in shard order.  The bound
        # is what keeps a fast later shard from buffering its whole
        # row set while an earlier shard is still streaming.
        queues: List[_EventQueue] = [
            queue_mod.Queue(maxsize=1024) for _ in subs
        ]
        cancel = threading.Event()

        def pump(sink: _EventQueue, sub: _SubRequest) -> None:
            def send(item: Tuple[str, Any]) -> bool:
                while not cancel.is_set():
                    try:
                        sink.put(item, timeout=0.1)
                        return True
                    except queue_mod.Full:
                        continue
                return False

            try:
                for event in self._stream(*sub):
                    if not send(event):
                        return
                send(("__done__", None))
            except BaseException as exc:  # noqa: BLE001 - relayed to drain
                send(("__error__", exc))

        def drain(source: _EventQueue) -> Iterator[StreamEvent]:
            while True:
                kind, obj = source.get()
                if kind == "__error__":
                    raise obj
                if kind == "__done__":
                    return
                yield kind, obj

        threads = [
            threading.Thread(
                target=pump,
                args=(sink, sub),
                name=f"repro-fleet-stream-{i}",
                daemon=True,
            )
            for i, (sink, sub) in enumerate(zip(queues, subs))
        ]
        for thread in threads:
            thread.start()
        try:
            yield from fold_slices(bounds, map(drain, queues))
        except StreamProtocolError as exc:
            raise FleetError(str(exc)) from exc
        finally:
            cancel.set()
            for thread in threads:
                thread.join(timeout=5.0)

    def _plan(
        self,
        spec: Mapping[str, Any],
        fingerprint: Optional[str],
        split: Optional[bool],
        *,
        stream: bool = False,
    ) -> Tuple[Optional[List[int]], List[_SubRequest]]:
        """The routing plan of one audit, buffered or streamed.

        Probes and rejoins the pool, counts the audit, orders the
        healthy nodes for the routing key (owner first, with load
        spill) and decides the split.  Returns ``(bounds, subs)``:
        ``bounds`` is ``None`` for an unsplit audit, whose one
        sub-request is ``spec`` itself; a split audit's sub-requests
        hold the row slices between ``bounds``, each with the node
        order rotated by its index so the shards start on distinct
        nodes.
        """
        self.ensure_probed()
        self._maybe_rejoin()
        key = fingerprint or fingerprint_source(
            str(spec.get("source", "")), kind="fleet-route"
        )
        with self._lock:
            self.stats["audits"] += 1
            if stream:
                self.stats["stream_audits"] += 1
        order = self._route_order(key)
        planned = self._split_spec(spec, len(order), split)
        if planned is None:
            return None, [(dict(spec), order)]
        with self._lock:
            self.stats["split_audits"] += 1
        bounds, sub_specs = planned
        subs = [
            (sub, order[i % len(order):] + order[: i % len(order)])
            for i, sub in enumerate(sub_specs)
        ]
        return bounds, subs

    def _split_spec(
        self,
        spec: Mapping[str, Any],
        alive: int,
        split: Optional[bool],
    ) -> Optional[Tuple[List[int], List[Dict[str, Any]]]]:
        """Row bounds and row-contiguous sub-specs, or ``None`` to
        dispatch unsplit."""
        if split is False or alive < 2:
            return None
        if split is None and spec.get("engine") not in MERGEABLE_ENGINES:
            return None
        n_rows = self._batch_rows(spec)
        if n_rows is None or n_rows < 2:
            return None
        shards = min(alive, max(1, n_rows // self.min_rows_per_shard))
        if shards < 2:
            if split is None:
                return None
            shards = 2  # split forced: two shards is the minimum fan-out
        from ..semantics.shard import shard_bounds

        bounds = shard_bounds(n_rows, shards)
        inputs = spec["inputs"]
        sub_specs = []
        for lo, hi in zip(bounds, bounds[1:]):
            sub = dict(spec)
            sub["inputs"] = {
                name: rows[lo:hi] for name, rows in inputs.items()
            }
            sub_specs.append(sub)
        return bounds, sub_specs

    @staticmethod
    def _batch_rows(spec: Mapping[str, Any]) -> Optional[int]:
        """The row count of a batch-shaped ``inputs``, else ``None``
        (the audit is then dispatched unsplit)."""
        inputs = spec.get("inputs")
        if not isinstance(inputs, dict):
            return None
        try:
            return batch_row_count(inputs)
        except ValueError:
            return None

    def _pick(
        self, preference: Sequence[Node], tried: Sequence[Node]
    ) -> Optional[Node]:
        with self._lock:
            alive = self._ring.nodes
        for node in preference:
            if node in alive and node not in tried:
                return node
        for node in alive:
            if node not in tried:
                return node
        return None

    def _walk(
        self,
        preference: Sequence[Node],
        attempt: Callable[[Node], Iterable[_T]],
    ) -> Iterator[_T]:
        """Run one sub-request with retries and failover; relay what
        the successful ``attempt(node)`` yields.

        Walks the preference order (then any healthy node).  Each node
        gets ``retries`` same-node retries with exponential backoff:
        a truncated answer or a 5xx retries; a connection or deadline
        failure is recorded against the node and fails over once it
        ejects the node; an exhausted budget fails over too.  A 4xx, a
        protocol error or a malformed stream is deterministic — every
        node would answer the same — and raises :class:`FleetError`.
        The node's failure count resets on a complete answer only (a
        validated 200 body, a drained stream), never on a 4xx/5xx.
        """
        tried: List[Node] = []
        last: Optional[BaseException] = None
        while True:
            node = self._pick(preference, tried)
            if node is None:
                names = ", ".join(str(n) for n in tried) or "none"
                raise FleetError(
                    f"audit failed on every healthy node (tried: {names}); "
                    f"last failure: {last}"
                ) from last
            for retry in range(self.retries + 1):
                if retry:
                    with self._lock:
                        self.stats["retries"] += 1
                    self._sleep(self.backoff_s * (2 ** (retry - 1)))
                with self._lock:
                    self.stats["sub_requests"] += 1
                try:
                    yield from attempt(node)
                except ClientTruncationError as exc:
                    # The node answered; the body was cut. Retry it.
                    last = exc
                    continue
                except (ClientConnectionError, ClientDeadlineError) as exc:
                    last = exc
                    if self._record_failure(node, str(exc)):
                        break
                    continue
                except ClientStatusError as exc:
                    message = _error_message(exc.body)
                    if exc.status >= 500:
                        last = ClientError(f"HTTP {exc.status}: {message}")
                        continue
                    raise FleetError(
                        f"node {node} rejected the audit "
                        f"(HTTP {exc.status}): {message}"
                    ) from exc
                except (ClientError, StreamProtocolError) as exc:
                    # Protocol garbage (malformed status line, oversized
                    # body) or a stream_error line: the request itself
                    # failed, never a node-health signal.
                    raise FleetError(f"node {node}: {exc}") from exc
                self._record_success(node)
                return
            # Same-node budget exhausted (or the node was ejected
            # mid-walk): fail over to the next preference.
            tried.append(node)
            with self._lock:
                self.stats["failovers"] += 1

    def _fetch(
        self, spec: Mapping[str, Any], preference: Sequence[Node]
    ) -> Tuple[str, Dict[str, Any]]:
        """One buffered sub-request through :meth:`_walk`: the node's
        body text, untouched, and the payload its validation parsed."""

        def attempt(node: Node) -> List[Tuple[str, Dict[str, Any]]]:
            status, text = client.audit(
                node.host, node.port, dict(spec), timeout=self.timeout
            )
            if status != 200:
                raise ClientStatusError(status, text)
            return [(text, self._check_payload(node, text))]

        [answer] = self._walk(preference, attempt)
        return answer

    def _check_payload(self, node: Node, text: str) -> Dict[str, Any]:
        """Accept only payloads this build's schema reads; a node from a
        different build must fail the audit loudly, never merge.
        Returns the parsed payload, so a merge need not parse it again."""
        try:
            return AuditResult.from_json(text).payload
        except ValueError as exc:
            self._eject(
                node, f"incompatible audit payload: {exc}", permanent=True
            )
            raise FleetError(
                f"node {node} answered an incompatible audit payload "
                f"(mixed-version fleet?): {exc}"
            ) from exc

    def _stream(
        self, spec: Mapping[str, Any], preference: Sequence[Node]
    ) -> Iterator[StreamEvent]:
        """One streamed sub-request through :meth:`_walk`, with
        retry-with-skip.

        Rows are deterministic and carry explicit indices, so a retry —
        same node after a truncation, next node after a connection
        death — re-requests the whole sub-stream and **skips the rows
        already yielded**; the header goes out once, and the trailer
        comes from whichever attempt completes (it aggregates the full
        sub-request either way).
        """
        next_row = 0
        header_sent = False

        def attempt(node: Node) -> Iterator[StreamEvent]:
            nonlocal next_row, header_sent
            lines = client.audit_stream(
                node.host, node.port, dict(spec), timeout=self.timeout
            )
            for kind, obj in events_of_lines(lines):
                if kind == "header":
                    self._check_stream_header(node, obj)
                    if header_sent:
                        continue
                    header_sent = True
                elif kind == "row":
                    if obj["row"] < next_row:
                        continue  # already yielded before a retry
                    if obj["row"] != next_row:
                        raise FleetError(
                            f"node {node} streamed row {obj['row']} "
                            f"where {next_row} was expected"
                        )
                    next_row += 1
                yield kind, obj

        return self._walk(preference, attempt)

    def _check_stream_header(self, node: Node, header: Dict[str, Any]) -> None:
        version = header.get("schema_version")
        if version != SCHEMA_VERSION:
            reason = (
                f"incompatible stream schema_version {version!r} "
                f"(want {SCHEMA_VERSION})"
            )
            self._eject(node, reason, permanent=True)
            raise FleetError(
                f"node {node} answered an incompatible stream header "
                f"(mixed-version fleet?): {reason}"
            )


def _error_message(text: str) -> str:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text.strip()
    if isinstance(payload, dict) and "error" in payload:
        return str(payload["error"])
    return text.strip()
