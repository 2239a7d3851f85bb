"""Wide-area network model between grid sites.

Transfer planning (planner step 3) and the GridFTP service need a
transfer-time estimate for moving a file between two sites.  The model
is deliberately simple and standard:

    time = latency(src, dst) + size_mb / effective_bandwidth(src, dst)

where the effective bandwidth of a path is the minimum of the two
sites' WAN uplinks unless an explicit pair override exists.  Local
(same-site) access is free.

The model supports congestion: each site uplink is a counted channel;
concurrent transfers divide the bandwidth equally.  The analytic
estimate (:meth:`transfer_time`) ignores congestion — exactly like the
static monitoring data SPHINX had — while the simulated transfer
(:meth:`transfer_process`) experiences it.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["NetworkModel"]

#: Default WAN uplink for a site with no explicit entry (MB/s).
DEFAULT_BANDWIDTH_MBPS = 10.0
#: Default one-way WAN latency (seconds).
DEFAULT_LATENCY_S = 0.2


class NetworkModel:
    """Bandwidth/latency matrix with fair-share congestion."""

    def __init__(
        self,
        env,
        default_bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS,
        default_latency_s: float = DEFAULT_LATENCY_S,
    ):
        if default_bandwidth_mbps <= 0:
            raise ValueError("default bandwidth must be > 0")
        if default_latency_s < 0:
            raise ValueError("default latency must be >= 0")
        self.env = env
        self._default_bw = default_bandwidth_mbps
        self._default_lat = default_latency_s
        self._uplink_bw: dict[str, float] = {}
        self._pair_bw: dict[tuple[str, str], float] = {}
        self._pair_lat: dict[tuple[str, str], float] = {}
        #: live transfer counts per site uplink, for congestion sharing.
        self._active: dict[str, int] = {}
        #: per-uplink "share changed" events; every active-count change
        #: settles the old event so in-flight transfers re-account.
        self._epoch: dict[str, object] = {}

    # -- topology configuration ------------------------------------------------
    def set_uplink(self, site: str, bandwidth_mbps: float) -> None:
        """Set a site's WAN uplink capacity."""
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be > 0")
        self._uplink_bw[site] = bandwidth_mbps

    def set_pair(
        self,
        src: str,
        dst: str,
        bandwidth_mbps: Optional[float] = None,
        latency_s: Optional[float] = None,
    ) -> None:
        """Override a specific (directed) site pair."""
        if bandwidth_mbps is not None:
            if bandwidth_mbps <= 0:
                raise ValueError("bandwidth must be > 0")
            self._pair_bw[(src, dst)] = bandwidth_mbps
        if latency_s is not None:
            if latency_s < 0:
                raise ValueError("latency must be >= 0")
            self._pair_lat[(src, dst)] = latency_s

    # -- analytic estimates ------------------------------------------------------
    def bandwidth_mbps(self, src: str, dst: str) -> float:
        """Uncongested path bandwidth (MB/s)."""
        if src == dst:
            return float("inf")
        pair = self._pair_bw.get((src, dst))
        if pair is not None:
            return pair
        return min(
            self._uplink_bw.get(src, self._default_bw),
            self._uplink_bw.get(dst, self._default_bw),
        )

    def latency_s(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        return self._pair_lat.get((src, dst), self._default_lat)

    def transfer_time(self, size_mb: float, src: str, dst: str) -> float:
        """Uncongested transfer-time estimate (what a planner would use)."""
        if size_mb < 0:
            raise ValueError("size must be >= 0")
        if src == dst:
            return 0.0
        return self.latency_s(src, dst) + size_mb / self.bandwidth_mbps(src, dst)

    # -- simulated transfer ---------------------------------------------------------
    def active_transfers(self, site: str) -> int:
        """Number of live transfers crossing ``site``'s uplink."""
        return self._active.get(site, 0)

    def _bump(self, site: str, delta: int) -> None:
        self._active[site] = self._active.get(site, 0) + delta
        # Wake every in-flight transfer crossing this uplink so it
        # re-accounts at the new share.
        epoch = self._epoch.get(site)
        if epoch is not None and not epoch.triggered:
            epoch.succeed()
        self._epoch[site] = self.env.event()

    def _epoch_event(self, site: str):
        epoch = self._epoch.get(site)
        if epoch is None or epoch.triggered:
            epoch = self._epoch[site] = self.env.event()
        return epoch

    def transfer_process(self, size_mb: float, src: str, dst: str):
        """A generator that models the transfer with congestion.

        Yield it from a simulation process.  Exact fluid fair sharing:
        a transfer progresses at the path bandwidth divided by the
        busiest endpoint's active-transfer count, and re-accounts
        whenever any transfer starts or finishes on either uplink —
        event-driven, so cost scales with share *changes*, not with
        transfer duration.
        """
        if src == dst or size_mb == 0:
            if size_mb < 0:
                raise ValueError("size must be >= 0")
            return 0.0
        start = self.env.now
        yield self.env.timeout(self.latency_s(src, dst))
        self._bump(src, +1)
        self._bump(dst, +1)
        try:
            remaining = float(size_mb)
            while remaining > 1e-9:
                share = self.bandwidth_mbps(src, dst) / max(
                    self._active.get(src, 1), self._active.get(dst, 1)
                )
                slice_start = self.env.now
                done = self.env.timeout(remaining / share)
                yield self.env.any_of(
                    [done, self._epoch_event(src), self._epoch_event(dst)]
                )
                if not done.processed:
                    # A share change preempted this slice; the stale
                    # completion timer would pop much later for nothing.
                    done.cancel()
                remaining -= share * (self.env.now - slice_start)
        finally:
            self._bump(src, -1)
            self._bump(dst, -1)
        return self.env.now - start
