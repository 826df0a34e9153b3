"""The event bus: deterministic fan-out of execution events to subscribers.

One :class:`EventBus` per simulator. The execution core emits each event
exactly once; the bus forwards it to every subscriber in deterministic
order — ascending ``priority``, then subscription order — and combines the
:class:`~repro.events.effects.TimingEffect`\\ s returned by timed handlers
(access, barrier, fence) into a single effect the SM applies to the
issuing warp.

Priorities group subscribers into conventional bands (all optional):
detectors at :data:`PRIORITY_DETECTOR` (they create the effects), passive
observers like tracers at :data:`PRIORITY_OBSERVER`, and the metrics
collector at :data:`PRIORITY_METRICS` so it can see events after detection
has acted on them. Within a band, first subscribed fires first.

Lock acquire/release are *queries* as well as events: the thread's new
atomic-ID Bloom signature comes from the first subscriber that returns a
non-``None`` value (detectors maintain signatures; pure observers return
``None``). With no signature provider the bus applies the hardware default:
acquisition leaves the signature unchanged, release clears it once the
thread holds no locks (clear-on-empty, paper §III-B).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.events.effects import NO_EFFECT, TimingEffect
from repro.events.records import (
    AccessIssued,
    BarrierReleased,
    BlockEnded,
    BlockStarted,
    ComputeIssued,
    FenceIssued,
    IdleAdvanced,
    KernelEnded,
    KernelStarted,
    LockAcquired,
    LockIssued,
    LockReleased,
    UnlockIssued,
)

#: conventional subscription bands (lower fires first)
PRIORITY_DETECTOR = 0
PRIORITY_OBSERVER = 50
PRIORITY_METRICS = 100


class Subscriber:
    """Base event subscriber: observe everything, affect nothing.

    Override the handlers you care about. ``on_access``, ``on_barrier``
    and ``on_fence`` may return a :class:`TimingEffect` (or ``None`` for
    no effect); ``on_lock_acquired`` / ``on_lock_released`` may return the
    thread's new lock signature (or ``None`` to abstain); every other
    handler is a pure observation. ``on_effect`` fires after a timed
    event's effects are combined, with the final effect the SM will apply.
    """

    #: extra identifier bits this subscriber needs attached to global
    #: memory request packets (the bus advertises the chain's maximum)
    request_id_bits: int = 0

    def on_kernel_start(self, ev: KernelStarted) -> None:
        """A kernel is about to execute."""

    def on_kernel_end(self, ev: KernelEnded) -> None:
        """The kernel finished."""

    def on_block_start(self, ev: BlockStarted) -> None:
        """A thread block was dispatched onto an SM."""

    def on_block_end(self, ev: BlockEnded) -> None:
        """A thread block retired."""

    def on_compute(self, ev: ComputeIssued) -> None:
        """A warp compute group executed."""

    def on_access(self, ev: AccessIssued) -> Optional[TimingEffect]:
        """A warp memory instruction executed."""
        return None

    def on_barrier(self, ev: BarrierReleased) -> Optional[TimingEffect]:
        """A block-wide barrier completed."""
        return None

    def on_fence(self, ev: FenceIssued) -> Optional[TimingEffect]:
        """A warp completed a memory fence."""
        return None

    def on_lock(self, ev: LockIssued) -> None:
        """A warp lock-acquire group executed (granted or not)."""

    def on_unlock(self, ev: UnlockIssued) -> None:
        """A warp lock-release group executed."""

    def on_lock_acquired(self, ev: LockAcquired) -> Optional[int]:
        """A thread acquired a lock; return its new signature (or None)."""
        return None

    def on_lock_released(self, ev: LockReleased) -> Optional[int]:
        """A thread released a lock; return its new signature (or None)."""
        return None

    def on_idle(self, ev: IdleAdvanced) -> None:
        """An SM jumped over idle cycles."""

    def on_effect(self, ev, effect: TimingEffect) -> None:
        """A timed event's combined effect, after the whole chain ran."""


class EventBus:
    """Deterministic single-emission fan-out to an ordered subscriber chain."""

    def __init__(self) -> None:
        self._entries: List[Tuple[int, int, Subscriber]] = []
        self._subs: List[Subscriber] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # chain management

    def subscribe(self, sub: Subscriber,
                  priority: int = PRIORITY_OBSERVER) -> Subscriber:
        """Add ``sub`` to the chain; returns it for chaining convenience."""
        self._entries.append((priority, self._seq, sub))
        self._seq += 1
        self._entries.sort(key=lambda e: (e[0], e[1]))
        self._subs = [e[2] for e in self._entries]
        return sub

    def unsubscribe(self, sub: Subscriber) -> bool:
        """Remove ``sub``; returns whether it was subscribed."""
        before = len(self._entries)
        self._entries = [e for e in self._entries if e[2] is not sub]
        self._subs = [e[2] for e in self._entries]
        return len(self._entries) != before

    @property
    def request_id_bits(self) -> int:
        """Identifier payload bits demanded by the chain (its maximum)."""
        return max((s.request_id_bits for s in self._subs), default=0)

    # ------------------------------------------------------------------
    # lifecycle events

    def emit_kernel_start(self, ev: KernelStarted) -> None:
        for s in self._subs:
            s.on_kernel_start(ev)

    def emit_kernel_end(self, ev: KernelEnded) -> None:
        for s in self._subs:
            s.on_kernel_end(ev)

    def emit_block_start(self, ev: BlockStarted) -> None:
        for s in self._subs:
            s.on_block_start(ev)

    def emit_block_end(self, ev: BlockEnded) -> None:
        for s in self._subs:
            s.on_block_end(ev)

    # ------------------------------------------------------------------
    # timed events: fan out, combine effects, report the combination

    def emit_access(self, ev: AccessIssued) -> TimingEffect:
        effect = NO_EFFECT
        for s in self._subs:
            effect = effect.combine(s.on_access(ev))
        # a free combined effect carries no information — skip the
        # notification sweep on the per-access hot path (observers treat
        # zero effects as no-ops by contract)
        if effect is not NO_EFFECT:
            for s in self._subs:
                s.on_effect(ev, effect)
        return effect

    def emit_barrier(self, ev: BarrierReleased) -> TimingEffect:
        effect = NO_EFFECT
        for s in self._subs:
            effect = effect.combine(s.on_barrier(ev))
        for s in self._subs:
            s.on_effect(ev, effect)
        return effect

    def emit_fence(self, ev: FenceIssued) -> TimingEffect:
        effect = NO_EFFECT
        for s in self._subs:
            effect = effect.combine(s.on_fence(ev))
        for s in self._subs:
            s.on_effect(ev, effect)
        return effect

    # ------------------------------------------------------------------
    # untimed issue events

    def emit_compute(self, ev: ComputeIssued) -> None:
        for s in self._subs:
            s.on_compute(ev)

    def emit_lock(self, ev: LockIssued) -> None:
        for s in self._subs:
            s.on_lock(ev)

    def emit_unlock(self, ev: UnlockIssued) -> None:
        for s in self._subs:
            s.on_unlock(ev)

    def emit_idle(self, ev: IdleAdvanced) -> None:
        for s in self._subs:
            s.on_idle(ev)

    # ------------------------------------------------------------------
    # lock-signature queries (events that also answer)

    def lock_acquired(self, ev: LockAcquired) -> int:
        """Emit a lock acquisition; returns the thread's new signature."""
        sig: Optional[int] = None
        for s in self._subs:
            r = s.on_lock_acquired(ev)
            if sig is None and r is not None:
                sig = r
        if sig is None:
            sig = ev.thread.lock_sig
        return sig

    def lock_released(self, ev: LockReleased) -> int:
        """Emit a lock release; returns the thread's new signature."""
        sig: Optional[int] = None
        for s in self._subs:
            r = s.on_lock_released(ev)
            if sig is None and r is not None:
                sig = r
        if sig is None:
            sig = 0 if not ev.thread.held_locks else ev.thread.lock_sig
        return sig
