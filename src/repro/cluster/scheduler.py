"""Per-application schedulers: consistency, placement, load balancing.

One scheduler per application sits between the application tier and the
database tier (paper Figure 2).  It

* serialises writes and sends them to **all** replicas of its application
  (read-one-write-all),
* load-balances each read-only query over the subset of replicas its
  **query class** is placed on — the query class is the scheduling unit,
  which is what makes the load balancing *fine-grained*, and
* tracks application-level latency and throughput per measurement interval
  for SLA compliance checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..engine.query import QueryClass
from ..engine.statslog import ExecutionRecord
from ..obs import NULL_OBS
from .consistency import ReplicationState
from .health import ReplicaHealth
from .replica import Replica, ReplicaOfflineError

__all__ = ["AppIntervalMetrics", "Scheduler"]


@dataclass
class AppIntervalMetrics:
    """Application-level SLA accounting over one measurement interval."""

    app: str
    interval_index: int
    queries: int = 0
    total_latency: float = 0.0
    max_latency: float = 0.0
    interval_length: float = 10.0

    def observe(self, latency: float) -> None:
        self.queries += 1
        self.total_latency += latency
        self.max_latency = max(self.max_latency, latency)

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.queries if self.queries else 0.0

    @property
    def throughput(self) -> float:
        """Completed interactions per second (the paper reports WIPS)."""
        return self.queries / self.interval_length if self.interval_length else 0.0

    def sla_met(self, sla_latency: float) -> bool:
        """The paper's SLA: average query latency under the bound.

        An idle interval (no queries) trivially meets the SLA.
        """
        return self.queries == 0 or self.mean_latency <= sla_latency


class Scheduler:
    """The scheduler of one application.

    Two write-propagation modes, mirroring the authors' scheduler-based
    replication substrate:

    * **synchronous** (default): a write executes on every replica before
      returning; the client pays the slowest replica's latency.
    * **asynchronous** (``async_replication=True``): a write returns after
      executing on *one* replica; the scheduler propagates it to the others
      after ``propagation_delay`` simulated seconds.  Strong consistency is
      preserved the way the paper's substrate does it: reads are only ever
      routed to replicas that have applied every committed write, so a
      lagging replica silently drops out of the read set until it catches
      up.
    """

    READ_POLICIES = ("round_robin", "least_loaded")

    def __init__(
        self,
        app: str,
        sla_latency: float = 1.0,
        interval_length: float = 10.0,
        async_replication: bool = False,
        propagation_delay: float = 0.05,
        read_policy: str = "round_robin",
        retry_budget: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        if sla_latency <= 0:
            raise ValueError(f"SLA latency must be positive: {sla_latency}")
        if propagation_delay < 0:
            raise ValueError(
                f"propagation delay must be non-negative: {propagation_delay}"
            )
        if retry_budget < 0:
            raise ValueError(f"retry budget must be non-negative: {retry_budget}")
        if retry_backoff < 0:
            raise ValueError(
                f"retry backoff must be non-negative: {retry_backoff}"
            )
        if read_policy not in self.READ_POLICIES:
            raise ValueError(
                f"unknown read policy {read_policy!r}; "
                f"choose from {self.READ_POLICIES}"
            )
        self.read_policy = read_policy
        self.app = app
        self.sla_latency = sla_latency
        # The controller injects its observability handle when the scheduler
        # is wired in; the no-op default keeps standalone use overhead-free.
        self.obs = NULL_OBS
        # Epoch fence shared with the controller when recovery is enabled;
        # None keeps placement calls unconstrained (the default path).
        self.fence = None
        self.interval_length = interval_length
        self.async_replication = async_replication
        self.propagation_delay = propagation_delay
        self.replicas: dict[str, Replica] = {}
        self.replication = ReplicationState(app=app)
        # Failure handling: the scheduler's *belief* about replica health
        # (failures are silent; the first failed execution marks a replica
        # down), plus a bounded retry budget with exponential backoff for
        # executions caught in-flight by a crash.
        self.health = ReplicaHealth()
        self.retry_budget = retry_budget
        self.retry_backoff = retry_backoff
        # Asynchronous write propagation can be stalled by fault injection;
        # drain_pending applies nothing before this simulated instant.
        self.propagation_stalled_until = 0.0
        self.pending_stale_dropped_total = 0
        self._health_gauge_live = False
        self._placement: dict[str, set[str]] = {}
        self._round_robin: dict[str, int] = {}
        self._interval_index = 0
        self._metrics = AppIntervalMetrics(
            app=app, interval_index=0, interval_length=interval_length
        )
        # Per-replica FIFO of (apply_time, sequence, query_class) writes
        # awaiting asynchronous application.
        self._pending: dict[str, list] = {}
        # Recent write history for catch-up of recovered replicas.
        from collections import deque

        self._write_log: deque = deque(maxlen=10_000)

    # ------------------------------------------------------------------ #
    # Replica-set management                                             #
    # ------------------------------------------------------------------ #

    def add_replica(self, replica: Replica, synced: bool = True) -> None:
        if replica.app != self.app:
            raise ValueError(
                f"replica {replica.name!r} serves app {replica.app!r}, "
                f"not {self.app!r}"
            )
        if replica.name in self.replicas:
            raise ValueError(f"replica {replica.name!r} already attached")
        self.replicas[replica.name] = replica
        self.replication.add_replica(replica.name, synced=synced)
        replica.applied_writes = self.replication.watermarks[replica.name]

    def remove_replica(self, replica_name: str) -> Replica:
        if replica_name not in self.replicas:
            raise KeyError(f"no replica named {replica_name!r}")
        if len(self.replicas) == 1:
            raise ValueError(
                f"cannot remove the last replica of app {self.app!r}"
            )
        replica = self.replicas.pop(replica_name)
        self.replication.remove_replica(replica_name)
        self._pending.pop(replica_name, None)
        self.health.forget(replica_name)
        for context_key in list(self._placement):
            targets = self._placement[context_key]
            targets.discard(replica_name)
            if not targets:
                # A class pinned only to the departing replica falls back to
                # being load-balanced over the full replica set.
                del self._placement[context_key]
        return replica

    def replica_names(self) -> list[str]:
        return sorted(self.replicas)

    # ------------------------------------------------------------------ #
    # Query-class placement (the fine-grained scheduling unit)           #
    # ------------------------------------------------------------------ #

    def place_class(
        self,
        context_key: str,
        replica_names: list[str],
        epoch: int | None = None,
    ) -> None:
        """Pin a query class to a subset of the application's replicas.

        ``epoch`` declares which controller incarnation the placement acts
        for; with a fence installed, a stale epoch raises
        :class:`~repro.recovery.fence.StaleEpochError` before anything
        changes.  ``None`` (the default) is not epoch-checked.
        """
        if self.fence is not None:
            self.fence.check(epoch, f"placement of {context_key!r}")
        unknown = [n for n in replica_names if n not in self.replicas]
        if unknown:
            raise KeyError(f"unknown replicas in placement: {unknown}")
        if not replica_names:
            raise ValueError(
                f"placement of {context_key!r} needs at least one replica"
            )
        self._placement[context_key] = set(replica_names)

    def placement_of(self, context_key: str) -> list[str]:
        """Replicas a class runs on (defaults to the full replica set)."""
        targets = self._placement.get(context_key)
        if targets is None:
            return self.replica_names()
        return sorted(targets)

    def clear_placement(self, context_key: str) -> None:
        self._placement.pop(context_key, None)

    def pinned_contexts(self) -> dict[str, list[str]]:
        """Every explicitly placed class and the replicas it is pinned to."""
        return {key: sorted(targets) for key, targets in self._placement.items()}

    def placements_for(
        self, context_keys: list[str]
    ) -> dict[str, list[str]]:
        """Placement of each requested class (pinned or default full set).

        Bulk form of :meth:`placement_of` for snapshot assembly — one call
        per scheduler instead of one per class.
        """
        return {key: self.placement_of(key) for key in context_keys}

    def move_class(
        self, context_key: str, to_replica: str, epoch: int | None = None
    ) -> None:
        """Reschedule a class so it runs *only* on ``to_replica``.

        This is the paper's isolate-on-a-different-replica action; the
        class's partitions on its previous replicas simply stop receiving
        traffic (and cool down naturally).
        """
        self.place_class(context_key, [to_replica], epoch=epoch)

    # ------------------------------------------------------------------ #
    # Query routing                                                      #
    # ------------------------------------------------------------------ #

    def submit(self, query_class: QueryClass, timestamp: float) -> ExecutionRecord:
        """Route one query: writes go everywhere, reads go to one replica."""
        if query_class.app != self.app:
            raise ValueError(
                f"query of app {query_class.app!r} submitted to scheduler "
                f"of {self.app!r}"
            )
        if not self.replicas:
            raise RuntimeError(f"app {self.app!r} has no replicas")
        if self.async_replication:
            self.drain_pending(timestamp)
        if query_class.is_write:
            if self.async_replication:
                record = self._submit_write_async(query_class, timestamp)
            else:
                record = self._submit_write(query_class, timestamp)
        else:
            record = self._submit_read(query_class, timestamp)
        self._metrics.observe(record.latency)
        return record

    def _submit_read(self, query_class: QueryClass, timestamp: float) -> ExecutionRecord:
        """Route one read, retrying with backoff when a replica fails mid-flight.

        Failures are silent: routing trusts the health belief state, so the
        first read sent to a freshly crashed replica fails, marks it down
        (re-routing every class away from it at once) and retries elsewhere
        after an exponential backoff that the client observes as latency.
        The retry budget bounds how long a read chases failing replicas
        before the failure surfaces to the application.
        """
        key = query_class.context_key
        delay = 0.0
        failures = 0
        while True:
            target = self._route_read(key)
            if target is None and self._promote_for_read(timestamp + delay):
                target = self._route_read(key)
            if target is None:
                raise RuntimeError(
                    f"no current online replica for class {key!r} of app {self.app!r}"
                )
            try:
                record = self.replicas[target].execute(query_class, timestamp + delay)
            except ReplicaOfflineError:
                self.mark_down(target, timestamp + delay, reason="read-failed")
                failures += 1
                registry = self.obs.registry
                if registry.enabled:
                    registry.counter("scheduler.read_retries", app=self.app).inc()
                if failures > self.retry_budget:
                    if registry.enabled:
                        registry.counter(
                            "scheduler.retry_budget_exhausted", app=self.app
                        ).inc()
                    raise RuntimeError(
                        f"read of {key!r} for app {self.app!r} failed "
                        f"{failures} times; retry budget of "
                        f"{self.retry_budget} exhausted"
                    ) from None
                delay += self.retry_backoff * (2 ** (failures - 1))
                continue
            if delay:
                record = replace(record, latency=record.latency + delay)
            return record

    def _route_read(self, key: str) -> str | None:
        """Pick the replica for one read of class ``key`` (``None`` = nowhere).

        Eligibility is belief-based (:class:`ReplicaHealth`), not ground
        truth: a silently crashed replica keeps receiving reads until the
        first failure marks it down.  A class whose pinned placement has no
        usable replica fails over to the full replica set rather than stall.
        """
        eligible = [
            name
            for name in self.placement_of(key)
            if self.replication.is_current(name) and self.health.is_up(name)
        ]
        if not eligible and self._placement.get(key):
            eligible = [
                name
                for name in self.replica_names()
                if self.replication.is_current(name) and self.health.is_up(name)
            ]
            if eligible:
                registry = self.obs.registry
                if registry.enabled:
                    registry.counter(
                        "scheduler.failovers", app=self.app, context=key
                    ).inc()
        if not eligible:
            return None
        if self.read_policy == "least_loaded" and len(eligible) > 1:
            return min(eligible, key=self._host_load)
        cursor = self._round_robin.get(key, 0)
        target = eligible[cursor % len(eligible)]
        self._round_robin[key] = cursor + 1
        return target

    def _host_load(self, replica_name: str) -> tuple[float, str]:
        """Smoothed CPU + I/O utilisation of a replica's host (for routing).

        Ties break on the replica name so routing stays deterministic.
        """
        host = self.replicas[replica_name].host
        cpu = float(getattr(host, "cpu_utilisation", 0.0))
        io = float(getattr(host, "io_utilisation", 0.0))
        return (cpu + io, replica_name)

    def _submit_write(self, query_class: QueryClass, timestamp: float) -> ExecutionRecord:
        token = self.replication.begin_write()
        self._write_log.append((token, query_class))
        slowest: ExecutionRecord | None = None
        for name in self.replica_names():
            replica = self.replicas[name]
            if not replica.online:
                self.mark_down(name, timestamp, reason="write-skipped")
                continue
            if self.replication.watermarks[name] != token.sequence - 1:
                # A recovered-but-lagging replica cannot take this write in
                # order; it stays out of the write set until caught up.
                continue
            record = replica.execute(query_class, timestamp)
            replica.apply_write(token.sequence)
            self.replication.acknowledge(name, token)
            if slowest is None or record.latency > slowest.latency:
                slowest = record
        if slowest is None:
            raise RuntimeError(f"write lost: no online replica for {self.app!r}")
        return slowest

    def catch_up(self, replica_name: str, timestamp: float) -> int:
        """Replay the writes a recovered replica missed, in order.

        Returns the number of writes replayed.  Raises ``RuntimeError`` when
        the replica is too far behind for the retained write log — a real
        deployment would rebuild it from a snapshot instead.
        """
        if replica_name not in self.replicas:
            raise KeyError(f"no replica named {replica_name!r}")
        replica = self.replicas[replica_name]
        if not replica.online:
            raise RuntimeError(f"replica {replica_name!r} is offline")
        watermark = self.replication.watermarks[replica_name]
        needed = [
            (token, qc) for token, qc in self._write_log if token.sequence > watermark
        ]
        if needed and needed[0][0].sequence != watermark + 1:
            raise RuntimeError(
                f"replica {replica_name!r} is behind the retained write log "
                f"(needs #{watermark + 1}, log starts at "
                f"#{needed[0][0].sequence}); full resync required"
            )
        for token, query_class in needed:
            replica.execute(query_class, timestamp)
            replica.apply_write(token.sequence)
            self.replication.acknowledge(replica_name, token)
        return len(needed)

    def _submit_write_async(
        self, query_class: QueryClass, timestamp: float
    ) -> ExecutionRecord:
        """Asynchronous propagation: one replica now, the rest later."""
        token = self.replication.begin_write()
        self._write_log.append((token, query_class))
        names = self.replica_names()
        primary_cursor = self._round_robin.get("__writes__", 0)
        self._round_robin["__writes__"] = primary_cursor + 1
        online = []
        for name in names:
            if self.replicas[name].online:
                online.append(name)
            else:
                # In async mode a crashed replica can drop out of the read
                # set through its frozen watermark before any read fails
                # against it; the write path is where the scheduler first
                # *notices*, so the mark-down happens here.
                self.mark_down(name, timestamp, reason="write-skipped")
        if not online:
            raise RuntimeError(f"write lost: no online replica for {self.app!r}")
        primary = online[primary_cursor % len(online)]
        # The primary must be current before taking a new write (ordering!).
        self._apply_backlog(primary, timestamp)
        record = self.replicas[primary].execute(query_class, timestamp)
        self.replicas[primary].apply_write(token.sequence)
        self.replication.acknowledge(primary, token)
        apply_time = timestamp + record.latency + self.propagation_delay
        for name in names:
            if name == primary:
                continue
            self._pending.setdefault(name, []).append(
                (apply_time, token, query_class)
            )
        return record

    def _apply_backlog(self, name: str, timestamp: float) -> None:
        """Force-apply ``name``'s whole propagation backlog now, stall or
        not.  As in drain_pending, a queued write that recovery catch-up
        already replayed is stale and dropped, never re-applied."""
        backlog = self._pending.get(name)
        dropped = 0
        while backlog:
            _, token, query_class = backlog.pop(0)
            if self.replication.has_applied(name, token.sequence):
                dropped += 1
                continue
            self.replicas[name].execute(query_class, timestamp)
            self.replicas[name].apply_write(token.sequence)
            self.replication.acknowledge(name, token)
        self._count_stale_dropped(dropped)

    def _promote_for_read(self, timestamp: float) -> bool:
        """No current replica is left to read from (the only current one
        failed while propagation was stalled), so the least-lagging
        survivor takes its backlog now — the write path's rule for a
        primary.  Returns whether a survivor became current."""
        survivors = sorted(
            (name for name in self.replica_names()
             if self.replicas[name].online and self.health.is_up(name)),
            key=lambda name: (self.replication.lag_of(name), name),
        )
        for name in survivors:
            self._apply_backlog(name, timestamp)
            if self.replication.is_current(name):
                return True
        return False

    def stall_propagation(self, until: float) -> None:
        """Hold back asynchronous write application until ``until``.

        Fault injection uses this to model a propagation stall: queued
        writes stay queued, lagging replicas stay out of the read set, and
        the backlog drains (in order) once the stall lifts.
        """
        self.propagation_stalled_until = max(self.propagation_stalled_until, until)

    def drain_pending(self, now: float) -> int:
        """Apply every queued asynchronous write due by ``now`` (in order).

        Returns the number of writes applied.  Applications are strictly
        in sequence per replica: a due write behind a not-yet-due one waits
        (the propagation stream is FIFO).  Two failure cases are handled
        per entry: a write already applied through recovery catch-up is
        dropped as stale (catch-up replays from the write log, so the
        queued copy must not re-execute), and a replica that failed between
        enqueue and apply defers its whole stream until recovery.
        """
        if now < self.propagation_stalled_until:
            return 0
        applied = 0
        dropped = 0
        for name in self.replica_names():
            queue = self._pending.get(name)
            if not queue:
                continue
            replica = self.replicas[name]
            while queue and queue[0][0] <= now:
                apply_time, token, query_class = queue[0]
                if self.replication.has_applied(name, token.sequence):
                    queue.pop(0)
                    dropped += 1
                    continue
                if not replica.online:
                    break
                queue.pop(0)
                replica.execute(query_class, apply_time)
                replica.apply_write(token.sequence)
                self.replication.acknowledge(name, token)
                applied += 1
        self._count_stale_dropped(dropped)
        return applied

    def _count_stale_dropped(self, dropped: int) -> None:
        """Account queued writes dropped because catch-up replayed them."""
        if not dropped:
            return
        self.pending_stale_dropped_total += dropped
        registry = self.obs.registry
        if registry.enabled:
            registry.counter(
                "scheduler.pending_dropped_stale", app=self.app
            ).inc(dropped)

    # ------------------------------------------------------------------ #
    # Replica health (the scheduler's belief, driving re-routing)        #
    # ------------------------------------------------------------------ #

    def mark_down(self, replica_name: str, at: float, reason: str = "") -> bool:
        """Record the belief that a replica has failed; reads route around
        it immediately.  Returns ``True`` on an UP → DOWN transition."""
        changed = self.health.mark_down(replica_name, at, reason)
        if changed:
            registry = self.obs.registry
            if registry.enabled:
                registry.counter(
                    "scheduler.replica_marked_down",
                    app=self.app,
                    replica=replica_name,
                ).inc()
        return changed

    def mark_up(self, replica_name: str, at: float, reason: str = "") -> bool:
        """Re-admit a recovered (and caught-up) replica to the read set."""
        changed = self.health.mark_up(replica_name, at, reason)
        if changed:
            registry = self.obs.registry
            if registry.enabled:
                registry.counter(
                    "scheduler.replica_marked_up",
                    app=self.app,
                    replica=replica_name,
                ).inc()
        return changed

    @property
    def pending_writes(self) -> int:
        """Writes queued for asynchronous application across all replicas."""
        return sum(len(queue) for queue in self._pending.values())

    # ------------------------------------------------------------------ #
    # SLA accounting                                                     #
    # ------------------------------------------------------------------ #

    def close_interval(self) -> AppIntervalMetrics:
        """Finish the current measurement interval and start the next."""
        finished = self._metrics
        self._interval_index += 1
        self._metrics = AppIntervalMetrics(
            app=self.app,
            interval_index=self._interval_index,
            interval_length=self.interval_length,
        )
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("scheduler.queries", app=self.app).inc(
                finished.queries
            )
            registry.gauge("scheduler.pending_writes", app=self.app).set(
                self.pending_writes
            )
            registry.gauge("scheduler.replicas", app=self.app).set(
                len(self.replicas)
            )
            if finished.queries:
                registry.histogram(
                    "scheduler.interval_latency", app=self.app
                ).observe(finished.mean_latency)
                if not finished.sla_met(self.sla_latency):
                    registry.counter(
                        "scheduler.sla_violations", app=self.app
                    ).inc()
            # The health gauge is created lazily on the first mark-down so
            # fault-free runs emit byte-identical telemetry with or without
            # the fault layer wired in.
            if self._health_gauge_live or self.health.any_down:
                self._health_gauge_live = True
                registry.gauge("scheduler.replicas_down", app=self.app).set(
                    len(self.health.down_replicas())
                )
        return finished

    def peek_metrics(self) -> AppIntervalMetrics:
        return self._metrics
