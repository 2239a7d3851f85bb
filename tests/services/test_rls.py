"""Unit tests for the replica location service."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.services import LocalReplicaCatalog, ReplicaLocationIndex, ReplicaService


class TestLrc:
    def test_register_and_query(self):
        lrc = LocalReplicaCatalog("ufl")
        lrc.register("data.root", 100.0)
        assert lrc.has("data.root")
        assert lrc.size_of("data.root") == 100.0
        assert len(lrc) == 1

    def test_validation(self):
        lrc = LocalReplicaCatalog("ufl")
        with pytest.raises(ValueError):
            lrc.register("", 1.0)
        with pytest.raises(ValueError):
            lrc.register("x", -1.0)

    def test_unregister(self):
        lrc = LocalReplicaCatalog("ufl")
        lrc.register("x")
        assert lrc.unregister("x") is True
        assert lrc.unregister("x") is False
        assert not lrc.has("x")

    def test_reregister_updates_size(self):
        lrc = LocalReplicaCatalog("ufl")
        lrc.register("x", 1.0)
        lrc.register("x", 2.0)
        assert lrc.size_of("x") == 2.0
        assert len(lrc) == 1


class TestRli:
    def test_direct_mode_always_fresh(self):
        env = Environment()
        rli = ReplicaLocationIndex(env, update_interval_s=0.0)
        lrc = LocalReplicaCatalog("a")
        rli.attach(lrc)
        assert rli.lookup("x") == ()
        lrc.register("x")
        assert rli.lookup("x") == ("a",)

    def test_duplicate_attach_rejected(self):
        rli = ReplicaLocationIndex(Environment())
        rli.attach(LocalReplicaCatalog("a"))
        with pytest.raises(ValueError):
            rli.attach(LocalReplicaCatalog("a"))

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            ReplicaLocationIndex(Environment(), update_interval_s=-1)

    def test_soft_state_is_stale_between_refreshes(self):
        env = Environment()
        rli = ReplicaLocationIndex(env, update_interval_s=100.0)
        lrc = LocalReplicaCatalog("a")
        rli.attach(lrc)
        env.run(until=10.0)  # first refresh happened at t=0
        lrc.register("x")
        assert rli.lookup("x") == ()  # not yet visible
        env.run(until=150.0)  # refresh at t=100 picked it up
        assert rli.lookup("x") == ("a",)

    def test_multi_site_lookup_order_deterministic(self):
        env = Environment()
        rli = ReplicaLocationIndex(env)
        for name in ("a", "b", "c"):
            lrc = LocalReplicaCatalog(name)
            lrc.register("x")
            rli.attach(lrc)
        assert rli.lookup("x") == ("a", "b", "c")

    def test_bulk_lookup(self):
        env = Environment()
        rli = ReplicaLocationIndex(env)
        lrc = LocalReplicaCatalog("a")
        lrc.register("x")
        rli.attach(lrc)
        result = rli.bulk_lookup(["x", "y"])
        assert result == {"x": ("a",), "y": ()}

    def test_exists(self):
        env = Environment()
        rli = ReplicaLocationIndex(env)
        lrc = LocalReplicaCatalog("a")
        rli.attach(lrc)
        assert not rli.exists("x")
        lrc.register("x")
        assert rli.exists("x")

    def test_manual_refresh(self):
        env = Environment()
        rli = ReplicaLocationIndex(env, update_interval_s=1e9)
        lrc = LocalReplicaCatalog("a")
        rli.attach(lrc)
        lrc.register("x")
        rli.refresh()
        assert rli.lookup("x") == ("a",)
        assert rli.last_update_at == env.now


class TestReplicaService:
    def test_end_to_end(self):
        env = Environment()
        svc = ReplicaService(env, ["a", "b"])
        svc.register_replica("f", "a", 10.0)
        svc.register_replica("f", "b", 10.0)
        assert svc.locations("f") == ("a", "b")
        assert svc.exists("f")
        assert svc.size_of("f") == 10.0
        assert svc.unregister_replica("f", "a") is True
        assert svc.locations("f") == ("b",)

    def test_size_of_unknown_is_none(self):
        svc = ReplicaService(Environment(), ["a"])
        assert svc.size_of("ghost") is None

    def test_bulk_locations(self):
        env = Environment()
        svc = ReplicaService(env, ["a"])
        svc.register_replica("f", "a")
        assert svc.bulk_locations(["f", "g"]) == {"f": ("a",), "g": ()}

    def test_expose_on_rpc_bus(self):
        from repro.services import RpcBus

        env = Environment()
        svc = ReplicaService(env, ["a"])
        svc.register_replica("f", "a")
        bus = RpcBus(env)
        svc.expose(bus)
        out = {}

        def caller(env):
            out["lookup"] = yield bus.call("p", "rls", "lookup", "f")
            out["bulk"] = yield bus.call("p", "rls", "bulk_lookup", ["f", "g"])
            out["exists"] = yield bus.call("p", "rls", "exists", "g")

        env.process(caller(env))
        env.run()
        assert out == {
            "lookup": ["a"],
            "bulk": {"f": ["a"], "g": []},
            "exists": False,
        }


class TestInvertedIndex:
    def test_register_order_does_not_change_attach_order(self):
        svc = ReplicaService(Environment(), ["a", "b", "c"])
        for site in ("c", "a", "b"):
            svc.register_replica("f", site)
        assert svc.locations("f") == ("a", "b", "c")
        svc.unregister_replica("f", "b")
        svc.register_replica("f", "b")
        assert svc.locations("f") == ("a", "b", "c")

    def test_attach_indexes_prepopulated_lrc(self):
        rli = ReplicaLocationIndex(Environment())
        a = LocalReplicaCatalog("a")
        rli.attach(a)
        a.register("f")
        b = LocalReplicaCatalog("b")
        b.register("f")
        b.register("g")
        rli.attach(b)
        assert rli.bulk_lookup(["f", "g"]) == {"f": ("a", "b"), "g": ("b",)}

    def test_lrc_belongs_to_one_index(self):
        lrc = LocalReplicaCatalog("a")
        ReplicaLocationIndex(Environment()).attach(lrc)
        with pytest.raises(ValueError):
            ReplicaLocationIndex(Environment()).attach(lrc)

    def test_lookup_does_not_probe_lrcs(self, monkeypatch):
        svc = ReplicaService(Environment(), ["a", "b"])
        svc.register_replica("f", "b")

        def probe(self, lfn):
            raise AssertionError("lookup probed an LRC")

        monkeypatch.setattr(LocalReplicaCatalog, "has", probe)
        assert svc.locations("f") == ("b",)
        assert svc.bulk_locations(["f", "g"]) == {"f": ("b",), "g": ()}


LFNS = ("f0", "f1", "f2", "f3")
_lfn = st.sampled_from(LFNS)
_size = st.floats(0.0, 100.0)
_step = st.one_of(
    st.tuples(st.just("attach"), st.lists(st.tuples(_lfn, _size),
                                          max_size=3)),
    st.tuples(st.just("register"), st.integers(0, 7), _lfn, _size,
              st.booleans()),
    st.tuples(st.just("unregister"), st.integers(0, 7), _lfn,
              st.booleans()),
    st.tuples(st.just("refresh")),
)


def _scan(lrcs):
    """The brute-force attach-order scan the index replaces."""
    return {lfn: tuple(name for name, lrc in lrcs if lrc.has(lfn))
            for lfn in LFNS}


def _scan_snapshot(lrcs):
    """The snapshot the soft-state refresh used to build by scanning."""
    snapshot = {}
    for name, lrc in lrcs:
        for lfn in lrc.lfns:
            snapshot.setdefault(lfn, []).append(name)
    return {lfn: tuple(sites) for lfn, sites in snapshot.items()}


@given(steps=st.lists(_step, max_size=30))
@settings(max_examples=60, deadline=None)
def test_property_index_equals_scan(steps):
    """Random attach (pre-populated or not), register, re-register and
    unregister, through the LRC and the service, on a direct and a
    soft-state index fed the same steps: the direct index always
    answers like a scan, the soft-state one like the scan at its last
    refresh."""
    env = Environment()
    direct = ReplicaService(env, ["s0", "s1"])
    soft = ReplicaService(env, ["s0", "s1"], update_interval_s=1e9)
    stacks = [(direct, [(s, direct.index.lrc(s)) for s in ("s0", "s1")]),
              (soft, [(s, soft.index.lrc(s)) for s in ("s0", "s1")])]
    soft.index.refresh()
    stale = _scan(stacks[1][1])
    for step in steps:
        for svc, lrcs in stacks:
            if step[0] == "attach":
                name = f"s{len(lrcs)}"
                lrc = LocalReplicaCatalog(name)
                for lfn, size in step[1]:
                    lrc.register(lfn, size)
                svc.index.attach(lrc)
                lrcs.append((name, lrc))
            elif step[0] == "register":
                _, i, lfn, size, via_service = step
                name, lrc = lrcs[i % len(lrcs)]
                if via_service:
                    svc.register_replica(lfn, name, size)
                else:
                    lrc.register(lfn, size)
            elif step[0] == "unregister":
                _, i, lfn, via_service = step
                name, lrc = lrcs[i % len(lrcs)]
                expect = lrc.has(lfn)
                if via_service:
                    assert svc.unregister_replica(lfn, name) is expect
                else:
                    assert lrc.unregister(lfn) is expect
            elif svc is soft:
                svc.index.refresh()
                assert svc.index._snapshot == _scan_snapshot(lrcs)
                stale = _scan(lrcs)
        for svc, lrcs in stacks:
            expect = _scan(lrcs) if svc is direct else stale
            assert {lfn: svc.locations(lfn) for lfn in LFNS} == expect
            assert svc.bulk_locations(LFNS) == expect
            assert {lfn: svc.exists(lfn) for lfn in LFNS} == \
                {lfn: bool(sites) for lfn, sites in expect.items()}
        # First hit wins: the size comes from the first listed site.
        lrcs = dict(stacks[0][1])
        for lfn, sites in _scan(lrcs.items()).items():
            assert direct.size_of(lfn) == (
                lrcs[sites[0]].size_of(lfn) if sites else None
            )
